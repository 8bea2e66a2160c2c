"""Invariant measure of the quotient process and ergodic averages.

``stationary_measure``, which the prediction pipeline uses, solves
L* mu = 0 in mode space (Fourier-Galerkin) in any d <= 3, on the box
``mode_box(spec)``: MODE_BOX[d], or four times the longest x-mode step when
that is larger. The measure keeps that ``ModeModel``: the corrector solves
on its operator and LU, and ``mixing_rate`` takes its exact semigroup e^{tM}
on the test polys' coefficients. The Monte Carlo occupation histogram
(quotient paths, time-averaged at the nearest nodes) validates mu.

The Monte Carlo estimators read simulated paths only as states at given
times (``simulate_snapshots``). The occupation histogram and the windowed
time integrals of ``ergodic_average_decay`` take them at the starts j dt of
the engine's Euler steps on [0, horizon], the left-point rule of those
steps: the states a stepped run passes through, and on the levy branch
exact states at the same times.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .averaging import _MODE_TOL, effective_kernel_table
from .corrector import (ModeModel, density_weights, mode_box, mode_model,
                        mode_semigroup, modes_on_grid, x_mode_steps)
from .grid import TorusGrid
from .pathsim import SimConfig, simulate_snapshots
from .regimes import EffectiveDrifts
from .spec_model import (IntegrabilityError, JumpSpec, full_drift,
                         truncated_drift)


@dataclass
class TorusMeasure:
    """Weights at the nodes; ``model`` is the mode model a deterministic
    measure was solved on (None for grid, uniform and Monte Carlo ones)."""
    grid: TorusGrid
    weights: np.ndarray
    meta: dict = field(default_factory=dict)
    model: Optional[ModeModel] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("measure weights must be nonnegative")
        s = self.weights.sum()
        if not np.isfinite(s) or abs(s - 1.0) > 1e-12:
            raise ValueError("weights must sum to one within 1e-12")

    @property
    def centers(self):
        return self.grid.centers

    @classmethod
    def uniform(cls, d, n):
        grid = TorusGrid(d, n)
        return cls(grid, np.full(grid.size, 1.0 / grid.size))

    @classmethod
    def from_counts(cls, grid, counts, meta=None):
        counts = np.asarray(counts, dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError("empty occupation histogram")
        w = counts / total
        w = w / w.sum()
        return cls(grid, w, meta or {})

    def tv_distance(self, other):
        if isinstance(other, TorusMeasure):
            other = other.weights
        return 0.5 * float(np.abs(self.weights - np.asarray(other)).sum())

    def to_csv(self, path):
        """One row per node: index, coordinates and weight, in csv's
        default dialect (comma, CRLF), written one row at a time; each
        axis coordinate is formatted once."""
        d = self.grid.d
        axis = ["%.17g" % x for x in self.grid.axis.tolist()]
        coords = map(",".join, itertools.product(axis, repeat=d))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["cell"] + [f"x_{a}" for a in range(d)]
                              + ["weight"]) + "\r\n")
            fh.writelines("%d,%s,%.17g\r\n" % row for row in zip(
                itertools.count(), coords, self.weights.tolist()))


def default_grid_n(d):
    return 64 if d <= 2 else 32


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _step_starts(spec: JumpSpec, cfg: SimConfig):
    """Starts t0 = j dt of the engine's Euler steps on [0, cfg.horizon],
    their lengths min(dt, horizon - t0), and dt."""
    dt = cfg.resolved_dt(spec.small.alpha0)
    T = float(cfg.horizon)
    t0 = np.arange(max(1, math.ceil(T / dt - 1e-12))) * dt
    return t0, np.minimum(dt, T - t0), dt


def _states_before_horizon(spec: JumpSpec, cfg: SimConfig, times, x0=None):
    """States (paths, len(times), d) at ascending ``times`` below
    cfg.horizon, from a run to cfg.horizon."""
    return simulate_snapshots(spec, cfg, np.append(times, cfg.horizon),
                              x0)[:, :-1]


def _occupation_counts(spec: JumpSpec, cfg: SimConfig, grid: TorusGrid,
                       burn_in, x0):
    """Integer counts per grid node of the quotient states at the starts of
    the full Euler steps from ``burn_in`` on, each state at its nearest node
    j/n: the points where the deterministic measures hold their weights."""
    t0, length, dt = _step_starts(spec, cfg)
    states = _states_before_horizon(
        spec, cfg, t0[(length == dt) & (t0 >= burn_in)], x0)
    return np.bincount(grid.node_of(states - np.floor(states)).ravel(),
                       minlength=grid.size)


def estimate_invariant_measure(spec: JumpSpec, cfg: SimConfig, grid_n=None
                               ) -> TorusMeasure:
    """Occupation-histogram estimate of the invariant measure, counted after
    a burn-in of a fifth of the horizon.

    Paths start from two antithetic points (0 and the cell-diagonal midpoint);
    a total-variation gap above 0.1 between the two half-ensembles is recorded
    as a non-convergence warning in the measure's metadata.
    """
    n = grid_n or default_grid_n(spec.d)
    burn = 0.2 * cfg.horizon
    half = max(1, cfg.paths // 2)
    cfg_a = replace(cfg, paths=half)
    cfg_b = replace(cfg, paths=cfg.paths - half,
                    seed=int(cfg.seed) ^ 0x9E3779B97F4A7C15)
    grid = TorusGrid(spec.d, n)
    counts_a = _occupation_counts(spec, cfg_a, grid, burn,
                                  np.zeros(spec.d))
    counts_b = _occupation_counts(spec, cfg_b, grid, burn,
                                  np.full(spec.d, 0.5))
    mu_a = TorusMeasure.from_counts(grid, counts_a)
    mu_b = TorusMeasure.from_counts(grid, counts_b)
    gap = mu_a.tv_distance(mu_b)
    meta = {"antithetic_tv_gap": gap, "burn_in": burn,
            "warning": "antithetic starts disagree; chains may not have "
                       "converged" if gap > 0.1 else ""}
    return TorusMeasure.from_counts(grid, counts_a + counts_b, meta)


def stationary_measure(spec: JumpSpec, n=None, box=None) -> TorusMeasure:
    """Deterministic invariant measure of the spec from its mode operator
    (Fourier-Galerkin) on the modes of |l|_inf <= box (``mode_box(spec)``
    when not given) coupled to 0.

    Weights are point values of the density on the n-grid, which
    integrates trig polynomials exactly against it. Without n the grid has
    the least power of two at or above 2 box + 2 nodes per axis (128, 64
    and 32 for the least boxes of d = 1, 2, 3), so that the box fits its
    Nyquist range. With no x-mode in the kernel and drift the only mode is
    0: mu is exactly uniform. The residual is max |v^T M| over max |M|
    max |v|; ``edge_mass`` is the share of sum |v| on the modes a step leads
    out of the box, where the truncation drops coupling. The measure keeps
    its ``ModeModel`` (``model``) for the mixing curve and the corrector.
    """
    box = int(box or mode_box(spec))
    grid = TorusGrid(spec.d, n or 1 << (2 * box + 1).bit_length())
    model = mode_model(spec, box)
    modes, M, v = model.modes, model.M, model.v
    scale = abs(M).max() * np.abs(v).max()
    w, clipped = density_weights(modes_on_grid(-modes, v, grid))
    reach = np.abs(modes[:, None, :] + x_mode_steps(spec)[None]).max(axis=2)
    edge = np.any(reach > box, axis=1)
    return TorusMeasure(grid, w, {
        "route": "fourier_galerkin", "grid_n": grid.n, "mode_box": box,
        "unknowns": len(modes) - 1, "clipped_mass": clipped,
        "residual": float(np.abs(M.T @ v).max() / scale) if scale else 0.0,
        "edge_mass": float(np.abs(v[edge]).sum() / np.abs(v).sum())}, model)


def mu_average(mu: TorusMeasure, g):
    """Integral of a field against the measure: sum of cell values * weights.

    ``g`` is a callable of the cell centers (vector values allowed) or an
    array of per-cell values.
    """
    vals = np.asarray(g(mu.centers) if callable(g) else g, dtype=float)
    return np.tensordot(mu.weights, vals, axes=(0, 0))


def effective_drifts(spec: JumpSpec, mu: TorusMeasure) -> EffectiveDrifts:
    """Invariant averages of the drift fields entering the recentering."""
    b_bar = mu_average(mu, lambda pts: spec.drift(pts).reshape(len(pts),
                                                               spec.d))
    try:
        b_inf = mu_average(mu, lambda pts: full_drift(spec, pts))
    except IntegrabilityError:
        b_inf = None

    def b_trunc_bar(R):
        return mu.weights @ truncated_drift(spec, mu.centers, R)

    return EffectiveDrifts(b_bar=np.atleast_1d(b_bar), b_inf_bar=b_inf,
                           b_trunc_bar=b_trunc_bar)


def kernel_tail_constant(spec: JumpSpec, mu: TorusMeasure):
    """(value, cauchy, table) for lim_{r -> inf} int k(x, r theta) mu(dx) on
    the nodes of rho0. Along theta that average is sum_s D(s) e^{2 pi i r s},
    D(s) the sum of c_(mx,mz) mu^(mx) over the modes with mz.theta = s, so the
    limit exists (``cauchy``) exactly when D(s) = 0 for every s != 0 on every
    node. ``table`` holds the ray averages D(0) = k̄0 on the nodes
    (``effective_kernel_table``), ``value`` their mean either way."""
    coeffs = spec.kernel.poly.coeffs
    mx, mz = (np.array(m, dtype=float).reshape(len(coeffs), spec.d)
              for m in zip(*coeffs))
    c = np.array(list(coeffs.values()))
    D = c * (mu.weights @ np.exp(2j * np.pi * (mu.centers @ mx.T)))
    S = spec.rho0.thetas @ mz.T                 # s per (node, mode)
    node, term = np.nonzero(np.abs(S) > _MODE_TOL * np.linalg.norm(mz, axis=1))
    _, group = np.unique(np.stack([node, np.round(S[node, term], 9)], axis=1),
                         axis=0, return_inverse=True)
    sums = np.zeros(len(term), dtype=complex)
    np.add.at(sums, np.ravel(group), D[term])
    kbar0 = effective_kernel_table(spec.kernel, mu, spec.rho0)
    return (float(np.mean(kbar0)),
            bool(np.all(np.abs(sums) <= _MODE_TOL * np.abs(c).sum())), kbar0)


# ---------------------------------------------------------------------------
# mixing rate
# ---------------------------------------------------------------------------

@dataclass
class MixingEstimate:
    """The fit of ``mixing_rate``. ``propagator`` and ``modes`` are those of
    the semigroup, None when no test function was nonzero."""
    lambda1: float
    prefactor: float
    fit_residual: float
    ok: bool
    table: list
    propagator: Optional[str]
    modes: Optional[int]

    def to_json(self, path=None):
        payload = asdict(self)
        if path:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2)
        return payload


MIXING_FLOOR = 1e-12


def _semigroup_gaps(spec: JumpSpec, polys, time_grid, mu: TorusMeasure):
    """Max over the polys of sup over mu's nodes of |E_x f(X_t) - mu(f)| at
    each time: E_x f(X_t) = sum_l [e^{tM} f^]_l e^{2 pi i l.x} on the mode
    operator M of mu's ``ModeModel`` when its modes hold the polys' x-modes,
    else of the modes of ``mode_box(spec)`` reached from 0 and from them,
    and mu(f) = v.f^ with v the left null vector of the same M. The gap is
    e^{tM} (f^ - mu(f) e_0); as M e_0 = 0 and v annihilates it, it is
    e^{tA} f^ on the modes other than 0, A = M without mode 0, and
    -v.(that) on mode 0. A has no null vector, so what it propagates
    decays with the gap and keeps its relative precision. Also returns the
    propagator ``mode_semigroup`` took and the mode count."""
    seeds = sorted({mx for f in polys for mx, _ in f.coeffs})
    model = mu.model
    if model is None or not set(seeds) <= set(map(tuple,
                                                  model.modes.tolist())):
        model = mode_model(spec, seeds=seeds)
    modes, M, v = model.modes, model.M, model.v
    F = np.zeros((len(modes), len(polys)), dtype=complex)
    for j, f in enumerate(polys):
        for (mx, _), c in f.coeffs.items():
            F[np.all(modes == mx, axis=1), j] += c
    states, propagator = mode_semigroup(M[1:, 1:], F[1:], time_grid)
    gaps = np.hstack([np.vstack([-v[1:] @ rest, rest]) for rest in states])
    values = np.abs(modes_on_grid(modes, gaps, mu.grid))
    return (values.reshape(mu.grid.size, len(states), -1).max(axis=(0, 2)),
            propagator, len(modes))


def mixing_rate(spec: JumpSpec, test_functions, time_grid,
                mu: Optional[TorusMeasure] = None) -> MixingEstimate:
    """Least-squares fit of log sup_x |E_x f(X_t) - mu(f)| = log C - lambda1 t
    over the time grid, for x-only ``TrigPoly`` test functions f (zero ones
    skipped). The curve is exact at mu's nodes: the semigroup of mu's mode
    operator, or of one seeded with the test functions' x-modes when mu's
    modes lack them or mu has no model (``_semigroup_gaps``), kept above the
    round-off floor MIXING_FLOOR. The estimate records the propagator
    ``mode_semigroup`` took (``"dense"`` or ``"krylov"``) and the mode count;
    fit failure is reported, not raised.
    """
    mu = mu if mu is not None else stationary_measure(spec)
    time_grid = np.asarray(sorted(time_grid), dtype=float)
    fs = [f for f in test_functions
          if np.max(np.abs(np.asarray(f(mu.centers)))) > 0]
    sup_curve = np.zeros(len(time_grid))
    propagator = n_modes = None
    if fs:
        sup_curve, propagator, n_modes = _semigroup_gaps(spec, fs, time_grid,
                                                         mu)
    usable = sup_curve > MIXING_FLOOR
    table = list(zip(time_grid.tolist(), sup_curve.tolist()))
    if usable.sum() < 2:
        return MixingEstimate(float("nan"), float("nan"), float("nan"),
                              False, table, propagator, n_modes)
    t_u = time_grid[usable]
    y = np.log(sup_curve[usable])
    A = np.stack([np.ones_like(t_u), -t_u], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(res[0] / len(t_u))) if len(res) else 0.0
    lam = float(coef[1])
    return MixingEstimate(lam, float(np.exp(coef[0])), resid, lam > 0,
                          table, propagator, n_modes)


# ---------------------------------------------------------------------------
# decay of ergodic averages under scaling
# ---------------------------------------------------------------------------

def ergodic_average_decay(spec: JumpSpec, f, eps_ladder, cfg: SimConfig):
    """Second moment of int_s^t f(X^eps_r / eps) dr per epsilon, over the
    window (s, t) = (0.1, 1).

    ``f`` must be mean-free under the invariant measure (tolerance 3 MC
    standard errors of the integral scale); the returned table carries
    moment(eps) and the compensated value moment * phi(1/eps), which stays
    bounded when the averaging decay holds.
    """
    mu = stationary_measure(spec)
    fbar = float(mu_average(mu, f))
    if abs(fbar) > 1e-6 and abs(fbar) > 1e-3 * float(
            np.max(np.abs(np.asarray(f(mu.centers))))):
        raise ValueError(f"test function is not mean-free (mu(f)={fbar:.3e})")
    s, t = 0.1, 1.0
    rows = []
    for eps in eps_ladder:
        rho = float(spec.phi(1.0 / eps))
        sub = replace(cfg, horizon=rho * t)
        # left-point rule on each step's overlap with the window
        t0, length, _ = _step_starts(spec, sub)
        lo = np.maximum(t0, rho * s)
        hi = np.minimum(t0 + length, rho * t)
        keep = hi > lo
        states = _states_before_horizon(spec, sub, t0[keep])
        acc = np.zeros(sub.paths)
        for k, weight in enumerate((hi - lo)[keep]):
            X = states[:, k]
            acc += np.asarray(f(X - np.floor(X))) * weight
        scaled = acc / rho
        moment = float(np.mean(scaled ** 2))
        rows.append({"eps": eps, "moment": moment,
                     "compensated": moment * rho})
    comp = np.array([r["compensated"] for r in rows])
    spread = float(comp.max() / max(comp.min(), 1e-300))
    return {"rows": rows, "bounded_ratio": spread,
            "bounded_within_factor_4": bool(spread <= 4.0)}
