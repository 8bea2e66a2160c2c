"""Deterministic quadrature helpers shared across the package.

All routines are purely functional: same inputs give bit-identical outputs,
which the reproducibility contracts elsewhere rely on.

Radial Fourier transforms of the tail take one of two routes: the closed
form ``power_tail_transform`` (the generalised exponential integral, for
the pure power tail r^{-1-alpha}) or QUADPACK's oscillatory rules
(``radial_fourier_integral``, any weight and range).
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import zeta

_ZETA_K = np.arange(2, 66)
_ZETA_COEF = zeta(_ZETA_K) / _ZETA_K      # lnGamma(1-d) = g d + sum c_k d^k
_SERIES_RADIUS = 4.0        # |z| up to which E_p takes the power series
_SERIES_TERMS = 36          # 4^36 / 36! ~ 1e-20
_CF_MAX_TERMS = 1000


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
    """(j, delta, c) with j the integer nearest alpha, delta = alpha - j in
    [-1/2, 1/2) and c = ln A / delta for A = Gamma(1 - delta) /
    prod_{m<=j} (1 + delta/m), by series in delta (c = -psi(j + 1) at
    delta = 0), so that no difference of nearly equal terms is formed."""
    j = math.floor(alpha + 0.5)
    delta = alpha - j
    c = np.euler_gamma + float(np.sum(_ZETA_COEF * delta ** (_ZETA_K - 1)))
    for m in range(1, j + 1):
        c -= math.log1p(delta / m) / delta if delta else 1.0 / m
    return j, delta, c


def _expint_series(alpha, w):
    """E_{1+alpha}(-i w), w > 0, by A&S 5.1.12 extended to real orders:
    with j and delta from ``_pole_constant``, E = (i w)^j / j! B -
    sum_{k != j} (i w)^k / (k! (k - alpha)), where B = [1 - A z^delta] /
    delta merges Gamma(-alpha) z^alpha with the k = j term, whose poles
    cancel; B = psi(j + 1) - ln z at delta = 0. Real arithmetic on the
    parts: a complex array product may fuse its operations and round an
    entry apart from the same entry alone."""
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
    h_re, h_im = d_re.copy(), d_im.copy()
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
        h_re[live], h_im[live] = (h_re[live] * s_re - h_im[live] * s_im,
                                  h_re[live] * s_im + h_im[live] * s_re)
        going = ~(np.hypot(s_re - 1.0, s_im) <= np.finfo(float).eps)
        if not going.any():
            cw, sw = np.cos(w), np.sin(w)           # e^{-z} = e^{i w}
            return (h_re * cw - h_im * sw) + 1j * (h_re * sw + h_im * cw)
        live, w_live, b_re = live[going], w_live[going], b_re[going]
        c_re, c_im = c_re[going], c_im[going]
        d_re, d_im = d_re[going], d_im[going]
    raise RuntimeError(
        f"continued fraction of E_p(z), p = {1.0 + alpha}, did not converge "
        f"in {_CF_MAX_TERMS} terms at |z| = {w_live[0]:.6g}")


def power_tail_transform(alpha, s):
    """F(s) = int_1^inf e^{2 pi i s r} r^{-1-alpha} dr = E_p(-2 pi i s),
    p = 1 + alpha > 1, the generalised exponential integral (A&S 5.1), on
    an array ``s``: a power series for |z| <= 4, a continued fraction
    beyond. F(0) = 1/alpha; F(-s) = conj F(s) exactly, and each entry is
    the value the entry alone would give."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = np.asarray(s, dtype=float)
    a = np.abs(s).ravel()
    out = np.full(a.shape, 1.0 / alpha, dtype=complex)
    near = (a > 0) & (2 * np.pi * a <= _SERIES_RADIUS)
    far = 2 * np.pi * a > _SERIES_RADIUS
    out[near] = _expint_series(alpha, 2 * np.pi * a[near])
    out[far] = _expint_continued_fraction(alpha, 2 * np.pi * a[far])
    out = out.reshape(s.shape)
    return np.where(s < 0, np.conj(out), out)


def power_law_radii(u, lo, hi, a):
    """Exact inverse CDF of the density r^{-1-a} on (lo, hi] at uniforms u.

    ``hi`` may be ``np.inf``.
    """
    ca, cb = lo ** (-a), hi ** (-a)
    return (ca - np.asarray(u, dtype=float) * (ca - cb)) ** (-1.0 / a)
