"""Directional long-run averages of periodic jump kernels.

The effective jump intensity in direction theta is the Cesaro average of
k(x, r theta) in r. For the trig kernel this average has an exact closed
form, ``fourier_mean``: only the z-modes orthogonal to theta survive;
``cesaro_average`` computes it by quadrature, as a reference. Averaged
against the invariant measure over the angular nodes of rho0, it gives the
table k̄0 of the limit jump measure.
"""

from __future__ import annotations

import csv

import numpy as np

from .spec_model import SphericalMeasure
from .trigpoly import TrigPoly

_MODE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Cesaro and Fourier means
# ---------------------------------------------------------------------------

def cesaro_average(kernel, x, theta, T=1e4):
    """Composite-trapezoid value of (1/T) int_0^T k(x, r theta) dr on
    min(max(20 T, 1000), 2e6) panels."""
    if T < 1.0:
        raise ValueError("averaging horizon must be at least 1")
    theta = np.asarray(theta, dtype=float)
    nrm = np.linalg.norm(theta)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("theta must be a unit vector")
    n = min(max(int(20 * T), 1000), 2_000_000)
    r = np.linspace(0.0, T, n + 1)
    z = r[:, None] * theta[None, :]
    x = np.asarray(x, dtype=float)
    vals = kernel(np.broadcast_to(x, z.shape), z)
    return float(np.trapezoid(vals, r) / T)


def fourier_mean(poly: TrigPoly, theta, x=None):
    """Exact directional mean of a trig poly in z: modes with <m, theta> = 0.

    With ``x`` given, returns the number k̄(x, theta); otherwise returns the
    surviving x-dependent trig poly.
    """
    theta = np.asarray(theta, dtype=float)

    def survives(mz):
        m = np.asarray(mz, dtype=float)
        if not m.any():
            return True
        return abs(m @ theta) <= _MODE_TOL * np.linalg.norm(m)

    collected = poly.collect_z_modes(survives)
    if x is None:
        return collected
    return float(collected(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# effective directional kernel
# ---------------------------------------------------------------------------

def effective_directional_kernel(kernel, mu, theta):
    """Invariant-measure average of the exact directional mean:
    sum_cells mu k̄(x, theta)."""
    poly = fourier_mean(kernel.poly, theta)
    return float(mu.weights @ poly(mu.centers))


def effective_kernel_table(kernel, mu, rho0: SphericalMeasure):
    """k̄0 evaluated on the angular node table of rho0."""
    return np.array([effective_directional_kernel(kernel, mu, th)
                     for th in rho0.thetas])


def write_kernel_table_csv(path, rho0, values):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"theta_{i}" for i in range(rho0.d)] + ["kbar0"])
        for th, v in zip(rho0.thetas, values):
            w.writerow([f"{c:.17g}" for c in th] + [f"{v:.17g}"])

