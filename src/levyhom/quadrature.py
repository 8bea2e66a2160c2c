"""Deterministic quadrature helpers shared across the package.

All routines are purely functional: same inputs give bit-identical outputs,
which the reproducibility contracts elsewhere rely on.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad


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


def power_law_radii(u, lo, hi, a):
    """Exact inverse CDF of the density r^{-1-a} on (lo, hi] at uniforms u.

    ``hi`` may be ``np.inf``.
    """
    ca, cb = lo ** (-a), hi ** (-a)
    return (ca - np.asarray(u, dtype=float) * (ca - cb)) ** (-1.0 / a)
