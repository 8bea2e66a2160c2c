"""Directional long-run averages of periodic jump kernels.

The effective jump intensity in direction theta is the Cesaro average of
k(x, r theta) in r. For trig-poly kernels this average has an exact closed
form: only the z-modes orthogonal to theta survive. Which modes survive is a
rational-dependence question, so verdicts about directions are kept explicit
(dependent with a witness, or undecided up to a search bound).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

import numpy as np

from .quadrature import panel_nodes
from .spec_model import JumpSpec, SphericalMeasure
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
# rational dependence of directions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalityVerdict:
    kind: str                      # "independent" | "dependent" | "undecided"
    witness: Optional[tuple] = None
    search_bound: Optional[int] = None

    @property
    def is_dependent(self):
        return self.kind == "dependent"


def rationality(theta, M=50, exact=None) -> RationalityVerdict:
    """Search for an integer vector orthogonal to theta.

    Floating-point coordinates can certify dependence (small witness found)
    but never independence, so the fall-through verdict is ``undecided``.
    ``exact`` may carry rational coordinates (ints or Fractions, not yet
    normalized); those admit an exact decision. In one dimension every
    direction is independent.
    """
    theta = np.asarray(theta, dtype=float)
    d = len(theta)
    if d == 1:
        return RationalityVerdict("independent")
    if exact is not None:
        fr = [Fraction(v) for v in exact]
        den = math.lcm(*[f.denominator for f in fr])
        ints = [int(f * den) for f in fr]
        nz = [i for i, v in enumerate(ints) if v != 0]
        if len(nz) <= 1:
            axis = nz[0] if nz else 0
            witness = [0] * d
            witness[(axis + 1) % d] = 1
            return RationalityVerdict("dependent", tuple(witness), None)
        i, j = nz[0], nz[1]
        witness = [0] * d
        g = math.gcd(ints[i], ints[j])
        witness[i] = ints[j] // g
        witness[j] = -ints[i] // g
        return RationalityVerdict("dependent", tuple(witness), None)

    best = None
    rng = range(-M, M + 1)
    for m in product(rng, repeat=d):
        if not any(m):
            continue
        first = next(v for v in m if v != 0)
        if first < 0:
            continue  # canonical sign: first nonzero entry positive
        mv = np.asarray(m, dtype=float)
        if abs(mv @ theta) <= 1e-10:
            norm = max(abs(v) for v in m)
            if best is None or norm < best[0]:
                best = (norm, m)
    if best is not None:
        return RationalityVerdict("dependent", best[1], None)
    return RationalityVerdict("undecided", None, M)


# ---------------------------------------------------------------------------
# effective directional kernel
# ---------------------------------------------------------------------------

def effective_directional_kernel(kernel, mu, theta):
    """Invariant-measure average of the directional mean: sum_cells mu k̄(x, theta).

    A trig-poly kernel has the exact Fourier mean, a callback kernel the
    Cesaro average over the default horizon of ``cesaro_average``.
    """
    if kernel.is_trig:
        poly = fourier_mean(kernel.poly, theta)
        return float(mu.weights @ poly(mu.centers))
    vals = np.array([cesaro_average(kernel, x, theta) for x in mu.centers])
    return float(mu.weights @ vals)


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


# ---------------------------------------------------------------------------
# averaging-hypothesis check
# ---------------------------------------------------------------------------

def default_test_functions():
    """Fixed z-equicontinuous test family: tensor Gaussians and trig waves."""

    def gauss(x, z):
        return np.exp(-np.sum(z * z, axis=-1))

    def wave(x, z):
        return np.cos(2 * np.pi * z[..., 0])

    def mixed(x, z):
        return np.cos(2 * np.pi * x[..., 0]) * np.exp(-np.sum(z * z, axis=-1))

    return [("gauss", gauss), ("wave", wave), ("xwave_gauss", mixed)]


@dataclass
class AveragingReport:
    rows: list                     # (eps, sup_discrepancy)
    decayed: bool
    final_sup: float


def check_averaging_hypothesis(spec: JumpSpec, eps_ladder=None,
                               x_grid_size=8,
                               kbar_override=None) -> AveragingReport:
    """Sup-discrepancy between the scaled kernel and its directional average.

    For each epsilon the quantity measured is
        sup_x | int_{r<=|z|<=R} f(x,z) (k(x/eps, z/eps) - k̄(x/eps, z/|z|))
               rho0(dtheta) r^{-1-alpha} dr |
    with r = 0.5 and R = 2, maximized over the built-in test family. The
    radial quadrature uses panels fine enough to resolve the 1/eps
    oscillation of the scaled kernel.
    """
    r, R = 0.5, 2.0
    d = spec.d
    alpha = spec.phi.index
    eps_ladder = list(eps_ladder if eps_ladder is not None
                      else [2.0 ** -k for k in range(1, 9)])
    rho = spec.rho0

    xs = (np.arange(x_grid_size) + 0.5) / x_grid_size
    if d == 1:
        x_grid = xs[:, None]
    else:
        mesh = np.meshgrid(*([xs] * d), indexing="ij")
        x_grid = np.stack([m.ravel() for m in mesh], axis=-1)

    kb_polys = None
    if kbar_override is None and spec.kernel.is_trig:
        kb_polys = [fourier_mean(spec.kernel.poly, th) for th in rho.thetas]

    rows = []
    for eps in eps_ladder:
        panels = max(16, int(np.ceil(4 * (R - r) / eps)))
        s_nodes, s_w = panel_nodes(np.linspace(r, R, panels + 1), order=4)
        radial_w = s_w * s_nodes ** (-1.0 - alpha)
        # z points: (n_s, n_theta, d)
        zpts = s_nodes[:, None, None] * rho.thetas[None, :, :]
        sup_val = 0.0
        for x in x_grid:
            xe = x / eps
            kv = spec.kernel(np.broadcast_to(xe, zpts.shape), zpts / eps)
            if kbar_override is not None:
                kb = np.array([kbar_override(xe, th) for th in rho.thetas])
            elif kb_polys is not None:
                kb = np.array([p(xe) for p in kb_polys])
            else:
                kb = np.array([cesaro_average(spec.kernel, xe, th)
                               for th in rho.thetas])
            diff = kv - kb[None, :]
            for _, f in default_test_functions():
                fv = f(np.broadcast_to(x, zpts.shape), zpts)
                val = np.einsum("s,n,sn->", radial_w, rho.weights, fv * diff)
                sup_val = max(sup_val, abs(float(val)))
        rows.append((eps, sup_val))

    sups = np.array([v for _, v in rows])
    scale = max(sups[0], 1e-15)
    decayed = bool(sups[-1] <= 0.5 * scale or sups[-1] <= 1e-12)
    return AveragingReport(rows, decayed, float(sups[-1]))
