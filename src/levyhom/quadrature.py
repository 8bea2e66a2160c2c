"""Deterministic quadrature helpers shared across the package.

All routines are purely functional: same inputs give bit-identical outputs,
which the reproducibility contracts elsewhere rely on.

Radial Fourier transforms of the tail take closed forms for the pure power
tail: ``power_tail_transform`` (the generalised exponential integral of
r^{-1-alpha} on r > 1) and ``power_radial_integral`` (r^{-alpha} on
1 < r <= R, the drift integrals). Every other weight goes to QUADPACK's
oscillatory rules (``radial_fourier_integral``), and ``scipy.integrate`` is
imported only when such a call is made.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.special import zeta

_ZETA_K = np.arange(2, 66)
_ZETA_COEF = zeta(_ZETA_K) / _ZETA_K      # lnGamma(1-d) = g d + sum c_k d^k
_SERIES_RADIUS = 4.0        # |z| up to which E_p takes the power series
_SERIES_TERMS = 36          # 4^36 / 36! ~ 1e-20
_CF_MAX_TERMS = 1000
_TAYLOR_TERMS = 20          # 1 / 20! ~ 4e-19, for 2 pi |s| R <= 1


@lru_cache(maxsize=None)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(edges, order=16):
    """Gauss-Legendre nodes/weights for the composite rule over given panel edges."""
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def log_edges(a, b, per_decade=6, min_panels=4):
    """Geometrically spaced panel edges on [a, b], a > 0."""
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    n = max(min_panels, int(np.ceil(per_decade * np.log10(b / a))))
    return np.geomspace(a, b, n + 1)


def radial_fourier_integral(phi_fn, s, r_lo, r_hi, weight_fn=None):
    """Compute ``\\int_{r_lo}^{r_hi} e^{2 pi i s r} w(r) / phi(r) dr``.

    ``r_hi`` may be ``np.inf``: that case runs QUADPACK's Fourier-transform
    rule (QAWF), which extrapolates over oscillation cycles and needs an
    integrable ``w/phi``. Finite ranges use the oscillatory rule (QAWO).
    Returns a complex number.
    """
    from scipy.integrate import IntegrationWarning, quad

    if weight_fn is None:
        g = lambda r: 1.0 / phi_fn(r)
    else:
        g = lambda r: weight_fn(r) / phi_fn(r)
    if s == 0.0:
        val, _ = quad(g, r_lo, r_hi, epsabs=1e-13, epsrel=1e-11, limit=400)
        return complex(val, 0.0)
    w = 2.0 * np.pi * abs(s)
    if np.isinf(r_hi):
        re, _ = quad(g, r_lo, np.inf, weight="cos", wvar=w, epsabs=1e-12,
                     limit=400, limlst=200)
        im, _ = quad(g, r_lo, np.inf, weight="sin", wvar=w, epsabs=1e-12,
                     limit=400, limlst=200)
    else:
        # the cycle count on finite ranges is moderate for every caller
        # (truncation radii), where QAWO converges at the roundoff floor
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            re, _ = quad(g, r_lo, r_hi, weight="cos", wvar=w, epsabs=1e-11,
                         epsrel=1e-10, limit=800)
            im, _ = quad(g, r_lo, r_hi, weight="sin", wvar=w, epsabs=1e-11,
                         epsrel=1e-10, limit=800)
    if s < 0:
        im = -im
    return complex(re, im)


def _pole_constant(alpha):
    """(j, delta, c) for alpha > -1, with j >= 0 the integer nearest alpha,
    delta = alpha - j in (-1, 1/2) and c = ln A / delta for
    A = Gamma(1 - delta) / prod_{m<=j} (1 + delta/m), by series in delta
    (c = -psi(j + 1) at delta = 0), so that no difference of nearly equal
    terms is formed. Below alpha = -1/2 there is no pole to merge and the
    series converges slowly, so c is ln Gamma(1 - delta) / delta."""
    j = max(0, math.floor(alpha + 0.5))
    delta = alpha - j
    if delta < -0.5:
        return j, delta, math.lgamma(1.0 - delta) / delta
    c = np.euler_gamma + float(np.sum(_ZETA_COEF * delta ** (_ZETA_K - 1)))
    for m in range(1, j + 1):
        c -= math.log1p(delta / m) / delta if delta else 1.0 / m
    return j, delta, c


def _expint_series(alpha, w):
    """E_{1+alpha}(-i w), w > 0, alpha > -1, by A&S 5.1.12 extended to
    real orders: with j and delta from ``_pole_constant``,
    E = (i w)^j / j! B - sum_{k != j} (i w)^k / (k! (k - alpha)), where
    B = [1 - A z^delta] / delta merges Gamma(-alpha) z^alpha with the
    k = j term, whose poles cancel; B = psi(j + 1) - ln z at delta = 0.
    Real arithmetic on the parts: a complex array product may fuse its
    operations and round an entry apart from the same entry alone."""
    j, delta, c = _pole_constant(alpha)
    x = c + np.log(w)                   # t = c + ln z = x - i pi / 2
    if delta == 0:
        b_re, b_im = -x, np.full_like(w, 0.5 * np.pi)
    else:
        y = -0.5 * np.pi * delta        # B = -expm1(delta t) / delta
        b_re = -(np.expm1(delta * x) * math.cos(y)
                 - 2.0 * math.sin(0.5 * y) ** 2) / delta
        b_im = -np.exp(delta * x) * (math.sin(y) / delta)
    parts = [np.zeros_like(w) for _ in range(4)]    # by k mod 4: i^k
    term = np.ones_like(w)                          # w^k / k!
    for k in range(max(_SERIES_TERMS, j + 1)):
        if k == j:
            pole = (term * b_re, term * b_im)
        else:
            parts[k % 4] = parts[k % 4] + term / (k - alpha)
        term = term * w / (k + 1)
    re, im = parts[2] - parts[0], parts[3] - parts[1]
    for _ in range(j % 4):                          # times i^j
        pole = (-pole[1], pole[0])
    return (re + pole[0]) + 1j * (im + pole[1])


def _expint_continued_fraction(alpha, w):
    """E_{1+alpha}(z) at z = -i w, w > 0, by the continued fraction
    e^{-z} / (z + p - 1 p / (z + p + 2 - 2 (p + 1) / (z + p + 4 - ...))),
    p = 1 + alpha, in Lentz's form, in real arithmetic on the parts as in
    ``_expint_series``; each entry runs until its factor is one within the
    float epsilon, and an entry that needs more than ``_CF_MAX_TERMS``
    terms raises."""
    b_re = np.full_like(w, 1.0 + alpha)             # b = b_re - i w
    norm = b_re * b_re + w * w
    d_re, d_im = b_re / norm, w / norm              # d = 1 / b
    f_re, f_im = d_re.copy(), d_im.copy()           # h of the live entries
    h_re, h_im = np.empty_like(w), np.empty_like(w)
    c_re, c_im = None, None
    live, w_live = np.arange(w.size), w
    for i in range(1, _CF_MAX_TERMS + 1):
        an = -i * (alpha + i)
        b_re = b_re + 2.0
        u, v = an * d_re + b_re, an * d_im - w_live  # d = 1 / (an d + b)
        norm = u * u + v * v
        d_re, d_im = u / norm, -v / norm
        if c_re is None:                            # c = b + an / c
            c_re, c_im = b_re, -w_live
        else:
            norm = c_re * c_re + c_im * c_im
            c_re, c_im = b_re + an * c_re / norm, -w_live - an * c_im / norm
        s_re, s_im = c_re * d_re - c_im * d_im, c_re * d_im + c_im * d_re
        f_re, f_im = f_re * s_re - f_im * s_im, f_re * s_im + f_im * s_re
        done = np.hypot(s_re - 1.0, s_im) <= np.finfo(float).eps
        if not done.any():
            continue
        h_re[live[done]], h_im[live[done]] = f_re[done], f_im[done]
        if done.all():
            cw, sw = np.cos(w), np.sin(w)           # e^{-z} = e^{i w}
            return (h_re * cw - h_im * sw) + 1j * (h_re * sw + h_im * cw)
        going = ~done
        live, w_live, b_re = live[going], w_live[going], b_re[going]
        c_re, c_im = c_re[going], c_im[going]
        d_re, d_im = d_re[going], d_im[going]
        f_re, f_im = f_re[going], f_im[going]
    raise RuntimeError(
        f"continued fraction of E_p(z), p = {1.0 + alpha}, did not converge "
        f"in {_CF_MAX_TERMS} terms at |z| = {w_live[0]:.6g}")


def _expint(alpha, w):
    """E_{1+alpha}(-i w) on an array w > 0, alpha > -1: the power series for
    w <= 4, the continued fraction beyond."""
    out = np.empty(w.shape, dtype=complex)
    near = w <= _SERIES_RADIUS
    if near.any():
        out[near] = _expint_series(alpha, w[near])
    if not near.all():
        out[~near] = _expint_continued_fraction(alpha, w[~near])
    return out


def power_tail_transform(alpha, s):
    """F(s) = int_1^inf e^{2 pi i s r} r^{-1-alpha} dr = E_p(-2 pi i s),
    p = 1 + alpha > 1, the generalised exponential integral (A&S 5.1), on
    an array ``s``: a power series for |z| <= 4, a continued fraction
    beyond. F(0) = 1/alpha; F(-s) = conj F(s) exactly, and each entry is
    the value the entry alone would give."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = np.asarray(s, dtype=float)
    w = 2 * np.pi * np.abs(s).ravel()
    out = np.full(w.shape, 1.0 / alpha, dtype=complex)
    out[w > 0] = _expint(alpha, w[w > 0])
    out = out.reshape(s.shape)
    return np.where(s < 0, np.conj(out), out)


def _power_radial_taylor(alpha, w, R):
    """int_1^R e^{i w r} r^{-alpha} dr for w R <= 1 as sum_k (i w R)^k / k!
    c_k, where c_k = R^{-k} int_1^R r^{k-alpha} dr <= c_0 is formed from
    expm1 of a nonpositive exponent, so no factor overflows at large R; in
    real arithmetic by k mod 4 as in ``_expint_series``. At w = 0 only
    c_0 = (1 - R^{1-alpha}) / (alpha - 1), or ln R at alpha = 1, is left."""
    log_r = math.log(R)
    parts = [np.zeros_like(w) for _ in range(4)]
    term = np.ones_like(w)                          # (w R)^k / k!
    for k in range(_TAYLOR_TERMS):
        e = k + 1.0 - alpha
        c = math.expm1(-abs(e) * log_r) / -abs(e) if e else log_r
        parts[k % 4] = parts[k % 4] + term * (
            c * math.exp((max(e, 0.0) - k) * log_r))
        term = term * (w * R) / (k + 1)
        if not term.any():                          # all of w is 0
            break
    return (parts[0] - parts[2]) + 1j * (parts[1] - parts[3])


def power_radial_integral(alpha, s, R):
    """J(s) = int_1^R e^{2 pi i s r} r^{-alpha} dr on an array ``s``, for
    alpha > 0 and 1 < R <= inf (R = inf needs alpha > 1): the radial
    factor of the drift of jumps with 1 < |z| <= R under power phi.

    With z = -2 pi i s, J = E_alpha(z) - R^{1-alpha} E_alpha(z R), the
    generalised exponential integral of ``power_tail_transform`` at order
    alpha (``E_alpha(z)`` alone when R = inf). Where 2 pi |s| R <= 1 the two
    terms nearly cancel for alpha < 1 (each grows like |s|^{alpha-1}), so
    J is summed as a Taylor series in s instead; at s = 0 that is the
    elementary (1 - R^{1-alpha}) / (alpha - 1), or ln R at alpha = 1.
    J(-s) = conj J(s) exactly, and each entry is the value the entry alone
    would give."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if math.isinf(R):
        if alpha <= 1:
            raise ValueError("R = inf needs alpha > 1")
        return power_tail_transform(alpha - 1.0, s)
    s = np.asarray(s, dtype=float)
    w = 2 * np.pi * np.abs(s).ravel()
    out = np.empty(w.shape, dtype=complex)
    near = w * R <= 1.0
    if near.any():
        out[near] = _power_radial_taylor(alpha, w[near], R)
    if not near.all():
        far = w[~near]
        scale = R ** (1.0 - alpha)
        head, tail = np.split(_expint(alpha - 1.0, np.r_[far, far * R]), 2)
        out[~near] = ((head.real - scale * tail.real)
                      + 1j * (head.imag - scale * tail.imag))
    out = out.reshape(s.shape)
    return np.where(s < 0, np.conj(out), out)


def power_law_radii(u, lo, hi, a):
    """Exact inverse CDF of the density r^{-1-a} on (lo, hi] at uniforms u.

    ``hi`` may be ``np.inf``.
    """
    ca, cb = lo ** (-a), hi ** (-a)
    return (ca - np.asarray(u, dtype=float) * (ca - cb)) ** (-1.0 / a)
