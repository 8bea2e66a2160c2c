"""Monte Carlo simulation of Levy-type paths in periodic media.

The scheme is compound Poisson thinning for jumps above a cutoff delta plus a
Gaussian substitution for the sub-delta activity:

* candidate jumps |z| > delta arrive with a constant dominating rate and
  are accepted with probability k(x, z)/kmax evaluated at the state at the
  start of the covering step (Lewis-Shedler thinning);
* candidate radii are drawn exactly by power-law inverse CDFs: on the
  annulus delta < |z| <= 1 from the small-jump density, on 1 < |z| <= Rmax
  from the envelope (1 + sup g) rho0(dtheta) dr / (c r^{1+b}) of the tail,
  where phi(r) >= c r^b. A tail candidate is accepted with the further
  factor (1 + g(r)) / (1 + sup g) * c r^b / phi(r) in (0, 1], which is
  identically one, and never evaluated, for a power phi without kappa;
* jumps below delta are replaced by a Brownian increment whose covariance is
  the truncated second moment of the jump measure, frozen per Euler step;
* the drift combines b(x) with the compensator correction that reconciles the
  generator's unit-ball compensation with uncompensated jump simulation.

The Gaussian coefficient and the compensator are functionals sum_q w_q f_q
k(x, z_q) over fixed nodes (PeriodicKernel.z_functional). For a trig kernel
they are x-only trig polys built once per driver from F(mz) = sum_q w_q f_q
e^{2 pi i mz.z_q}, and a drift without x-modes folds into constant_drift; for
a callback kernel they are node sums evaluated at every step.

Reproducibility contract: every random number consumed by path i comes from a
counter-based stream keyed by (seed, i) in a fixed order, so results are
bit-identical for any worker partition of the path range. Occupation
histograms accumulate integer step counts, which keeps the reduction exactly
associative.
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .grid import TorusGrid
from .quadrature import power_law_radii
from .regimes import EffectiveDrifts, Regime
from .spec_model import (DriftField, JumpSpec, jump_nodes, surface_measure,
                         tail_mass_bound)

_BLOCK = 2048


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    paths: int = 1000
    horizon: float = 1.0            # scaled time t
    dt: Optional[float] = None
    delta: float = 0.25             # small-jump cutoff in (0, 1]
    rmax: Optional[float] = None
    seed: int = 0
    eps: Optional[float] = None
    regime: Optional[str] = None
    workers: int = 1
    x0: Optional[Sequence[float]] = None
    stationary_start: bool = False
    truncation_budget: float = 1e-6

    def resolved_dt(self, alpha0=None):
        if self.dt is not None:
            return float(self.dt)
        if alpha0 is not None:
            return float(min(0.01, self.delta ** alpha0 / 10.0))
        return 0.01


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# jump drivers
# ---------------------------------------------------------------------------

@dataclass
class _Component:
    """One candidate-jump mixture component: radial sampler + angular draw."""
    mass: float
    radial: Callable          # uniforms (m,) -> radii (m,)
    angular: Callable         # (u1, u2) -> directions (m, d)


class JumpDriver:
    """Prepared simulation mechanics shared by the original and limit processes."""

    def __init__(self, dim, components, kmax, kernel_fn, gauss_coef=None,
                 gauss_chol=None, drift_fn=None, constant_drift=None,
                 meta=None):
        self.dim = dim
        self.components = [c for c in components if c.mass > 0]
        self.kmax = kmax
        self.kernel_fn = kernel_fn
        self.gauss_coef = gauss_coef          # (X)->(P,) isotropic coefficient
        self.gauss_chol = gauss_chol          # constant (d,d) factor, or None
        self.drift_fn = drift_fn              # (X)->(P,d) or None
        self.constant_drift = constant_drift  # (d,) or None
        self.meta = meta or {}
        mass = sum(c.mass for c in self.components)
        self.rate = kmax * mass
        self._cum = np.cumsum([c.mass for c in self.components]) / mass \
            if mass > 0 else np.array([])

    @property
    def has_jumps(self):
        return self.rate > 0

    @property
    def has_gauss(self):
        return self.gauss_coef is not None or self.gauss_chol is not None

    @property
    def has_drift(self):
        return self.drift_fn is not None or self.constant_drift is not None

    def z_from_packets(self, pk):
        """Map packets (m, 5) of uniforms to candidate jump vectors (m, d)."""
        m = pk.shape[0]
        z = np.empty((m, self.dim))
        comp_idx = np.searchsorted(self._cum, pk[:, 0], side="right")
        comp_idx = np.minimum(comp_idx, len(self.components) - 1)
        for ci, comp in enumerate(self.components):
            sel = comp_idx == ci
            if not sel.any():
                continue
            r = comp.radial(pk[sel, 1])
            th = comp.angular(pk[sel, 2], pk[sel, 3])
            z[sel] = r[:, None] * th
        return z

    def accept_fraction(self, x, z):
        if self.kernel_fn is None:
            return np.ones(len(z))
        return np.asarray(self.kernel_fn(x, z)) / self.kmax

    @property
    def branch(self):
        """Branch of run_paths without observers: "thinning" or "stepped"."""
        return ("thinning" if self.has_jumps and self.drift_fn is None
                and not self.has_gauss else "stepped")

    def drift(self, X):
        if self.drift_fn is not None:
            return self.drift_fn(X)
        if self.constant_drift is not None:
            return np.broadcast_to(self.constant_drift, X.shape)
        return None


def choose_rmax(spec: JumpSpec, horizon, budget, kmax):
    """Smallest cap with Pi({|z| > R}) * horizon * kmax below the budget."""
    limit = budget / max(horizon * kmax, 1e-300)
    lo, hi = 1.0, 1e18
    if tail_mass_bound(spec, hi) > limit:
        raise ConfigError("truncation budget unreachable even at R=1e18")
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if tail_mass_bound(spec, mid) > limit:
            lo = mid
        else:
            hi = mid
    return hi


def driver_from_spec(spec: JumpSpec, cfg: SimConfig, horizon) -> JumpDriver:
    """Simulation mechanics for the generator of a JumpSpec."""
    d = spec.d
    delta = float(cfg.delta)
    if not (0 < delta <= 1):
        raise ConfigError("delta must lie in (0, 1]")
    kmax = spec.kernel.kmax
    rmax = cfg.rmax if cfg.rmax is not None else \
        choose_rmax(spec, horizon, cfg.truncation_budget, kmax)
    tail_mass = tail_mass_bound(spec, rmax)
    if tail_mass * horizon * kmax > cfg.truncation_budget * (1 + 1e-9):
        raise ConfigError(
            f"radial cap {rmax} violates the truncation budget "
            f"({tail_mass * horizon * kmax:.2e} > {cfg.truncation_budget:.2e})")

    components = []
    # small-jump annulus delta < |z| <= 1
    if spec.small.kind == "stable" and delta < 1.0:
        components.append(_Component(
            spec.small.annulus_mass(d, delta, 1.0),
            partial(power_law_radii, lo=delta, hi=1.0, a=spec.small.alpha0),
            surface_measure(d).sample_from_uniforms))

    # spherical tail 1 < r <= rmax: exact draws from the envelope
    # (1 + ghat) rho0(dtheta) dr / (c r^{1+b}), thinned down to
    # (1 + g(r)) rho0(dtheta) dr / (r phi(r)) in accept_fraction
    c, b = spec.phi.envelope()
    ghat = 0.0
    if not spec.kappa.is_none:
        if spec.kappa.base is not spec.rho0:
            raise ConfigError("perturbations with a base measure other than "
                              "rho0 cannot be simulated")
        r_chk = np.geomspace(1.0, rmax, 256)
        if np.any(1.0 + np.asarray(spec.kappa.g(r_chk)) < 0):
            raise ConfigError("perturbed radial density goes negative; "
                              "cannot simulate this perturbation")
        ghat = spec.kappa.sup_abs(1.0)
    components.append(_Component(
        (1.0 - rmax ** (-b)) / (c * b) * spec.rho0.total_mass * (1.0 + ghat),
        partial(power_law_radii, lo=1.0, hi=rmax, a=b),
        spec.rho0.sample_from_uniforms))

    if not spec.kernel.depends_on_x() and not spec.kernel.depends_on_z():
        kconst = float(spec.kernel(np.zeros((1, d)), np.zeros((1, d)))[0])
        kernel_fn = None if abs(kconst - kmax) <= 1e-14 * kmax else spec.kernel
    else:
        kernel_fn = spec.kernel
    if spec.phi.kind != "power" or not spec.kappa.is_none:
        kernel_fn = _envelope_thinned(spec, kernel_fn, kmax, c, b, ghat)

    # the Gaussian coefficient of the sub-delta activity and the compensator
    # drift of the (delta, 1] annulus are x-functions sum_q w_q k(x, z_q) f_q
    meta = {"rmax": rmax, "delta": delta}
    gauss_coef = None
    drift = spec.drift
    if spec.small.kind == "stable" and not spec.kernel.depends_on_z():
        ball_m2 = spec.small.ball_second_moment(d, delta)
        def gauss_coef(X, c=ball_m2 / d):
            return spec.kernel(X, np.zeros_like(X)) * c
        meta["gauss_coef"] = _route_meta(spec.kernel.poly, 0, "closed_form")
    elif spec.small.kind == "stable":
        zq, wq, _ = jump_nodes(spec, delta * 1e-4, delta, 4, 4, 6)
        gauss_coef = spec.kernel.z_functional(
            zq, wq * np.sum(zq * zq, axis=1) / d)
        meta["gauss_coef"] = _route_meta(gauss_coef, len(wq))
        if delta < 1.0:
            zq, wq, _ = jump_nodes(spec, delta, 1.0, 6, 4, 6)
            comp = spec.kernel.z_functional(zq, wq, zq)
            meta["compensator"] = _route_meta(comp, len(wq))
            if drift.is_trig and isinstance(comp, DriftField):
                drift = DriftField.trig([p - q for p, q in zip(
                    drift.components, comp.components)])
            else:
                drift = DriftField(d, fn=lambda X: spec.drift(X).reshape(
                    X.shape) - comp(X))

    drift_fn = constant_drift = None
    if drift.is_trig and all(c.max_mode_order() == 0
                             for c in drift.components):
        if not drift.is_zero():
            constant_drift = drift(np.zeros((1, d))).reshape(d)
    else:
        def drift_fn(X):
            return drift(X).reshape(X.shape)

    return JumpDriver(d, components, kmax, kernel_fn, gauss_coef=gauss_coef,
                      drift_fn=drift_fn, constant_drift=constant_drift,
                      meta=meta)


def _route_meta(f, nodes, route="modes"):
    """Route, node count and number of x-modes (0: constant) of a functional."""
    polys = f.components if isinstance(f, DriftField) else [f]
    if not hasattr(polys[0], "coeffs"):
        return {"route": "nodes", "nodes": nodes, "x_modes": None}
    return {"route": route, "nodes": nodes, "x_modes": len(
        {mx for p in polys for mx, _ in p.coeffs if any(mx)})}


def _envelope_thinned(spec, kernel_fn, kmax, c, b, ghat):
    """Kernel times the acceptance of a tail candidate drawn from the envelope.

    The factor (1 + g(r)) / (1 + ghat) * c r^b / phi(r) lies in (0, 1]; jumps
    with |z| <= 1 come from the exact annulus sampler and keep factor one.
    """
    g = spec.kappa.g

    def thinned(x, z):
        r = np.linalg.norm(z, axis=-1)
        factor = c * r ** b / spec.phi(r)
        if g is not None:
            factor = factor * ((1.0 + np.asarray(g(r))) / (1.0 + ghat))
        k = kmax if kernel_fn is None else kernel_fn(x, z)
        return k * np.where(r > 1.0, factor, 1.0)

    return thinned


# ---------------------------------------------------------------------------
# collectors
# ---------------------------------------------------------------------------

class OccupationCollector:
    """Integer step counts per torus cell, after a burn-in time."""

    def __init__(self, grid: TorusGrid, burn_in=0.0):
        self.grid = grid
        self.burn_in = burn_in
        self.counts = np.zeros(grid.size, dtype=np.int64)

    def on_step(self, t0, dt_j, full_step, X_start, X_end, rows):
        if not full_step or t0 < self.burn_in:
            return
        idx = self.grid.cell_of(X_start - np.floor(X_start))
        np.add.at(self.counts, idx, 1)


class TimeIntegralCollector:
    """Per-path integral of f(X mod 1) over a time window."""

    def __init__(self, f, n_paths, window=None):
        self.f = f
        self.window = window
        self.acc = np.zeros(n_paths)

    def on_step(self, t0, dt_j, full_step, X_start, X_end, rows):
        t_end = t0 + dt_j
        if self.window is not None:
            w0, w1 = self.window
            lo, hi = max(t0, w0), min(t_end, w1)
            if hi <= lo:
                return
            weight = hi - lo
        else:
            weight = dt_j
        vals = self.f(X_start - np.floor(X_start))
        self.acc[rows] += vals * weight


class SnapshotCollector:
    """States at the first step boundary past each requested time."""

    def __init__(self, times, n_paths, dim):
        self.times = np.asarray(sorted(times), dtype=float)
        self.states = np.zeros((n_paths, len(self.times), dim))
        self._next = 0

    def reset_chunk(self):
        self._next = 0

    def on_step(self, t0, dt_j, full_step, X_start, X_end, rows):
        t_end = t0 + dt_j
        while self._next < len(self.times) and \
                self.times[self._next] <= t_end + 1e-12:
            self.states[rows, self._next] = X_end
            self._next += 1


class TraceCollector:
    """Full step trace for a single path."""

    def __init__(self, stride=1):
        self.stride = stride
        self.times = [0.0]
        self.states = []
        self._k = 0

    def on_step(self, t0, dt_j, full_step, X_start, X_end, rows):
        self._k += 1
        if self._k % self.stride == 0:
            self.times.append(t0 + dt_j)
            self.states.append(X_end[0].copy())


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _path_generators(seed, indices):
    return [np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed & (2 ** 64 - 1)), np.uint64(i)],
                     dtype=np.uint64))) for i in indices]


def run_paths(driver: JumpDriver, T, n_paths, seed, dt, x0=None,
              collectors=(), workers=1, jump_hook=None, start_sampler=None):
    """Advance ``n_paths`` paths to time T; returns endpoints (n_paths, d).

    ``workers`` only controls the chunking of the path range; outputs are
    bit-identical for every value because each path consumes exclusively its
    own counter-based stream. ``start_sampler``, when given, maps per-path
    uniforms (P, 2) to start points (P, d); those uniforms are the first
    draws of each path's stream.
    """
    d = driver.dim
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    endpoints = np.empty((n_paths, d))
    # chunking caps the candidate-tape and normal-block memory; the results
    # do not depend on it because streams are per path
    mem_cap = max(16, int(2e6 / max(1.0, driver.rate * T)))
    chunk_size = max(1, int(math.ceil(n_paths / max(1, workers))))
    chunk_size = min(chunk_size, mem_cap, 4096)

    for c0 in range(0, n_paths, chunk_size):
        c1 = min(c0 + chunk_size, n_paths)
        rows = np.arange(c0, c1)
        gens = _path_generators(seed, rows)
        P = len(gens)
        if start_sampler is not None:
            u = np.stack([g.random(2) for g in gens])
            X = np.asarray(start_sampler(u), dtype=float).reshape(P, d).copy()
        else:
            X = np.broadcast_to(x0, (P, d)).copy()

        if driver.has_jumps:
            rate = driver.rate
            counts = np.array([g.poisson(rate * T) for g in gens],
                              dtype=np.int64)
            times_l, packets_l = [], []
            for g, c in zip(gens, counts):
                t = np.sort(g.random(c) * T)
                times_l.append(np.concatenate([t, [np.inf]]))
                packets_l.append(g.random((c, 5)))
            offsets = np.concatenate([[0], np.cumsum(counts + 1)])[:-1]
            times_flat = np.concatenate(times_l)
            packets_flat = (np.concatenate(packets_l) if counts.sum()
                            else np.zeros((0, 5)))
            pk_offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]
            ptr = np.zeros(P, dtype=np.int64)
            next_t = times_flat[offsets]
        else:
            next_t = np.full(P, np.inf)

        for col in collectors:
            if hasattr(col, "reset_chunk"):
                col.reset_chunk()

        # no time grid: thinning against the exact pre-jump state is exact
        if (driver.branch == "thinning" and not collectors
                and jump_hook is None):
            bconst = driver.constant_drift
            max_c = int(counts.max()) if len(counts) else 0
            for j in range(max_c):
                live = np.nonzero(counts > j)[0]
                pk = packets_flat[pk_offsets[live] + j]
                z = driver.z_from_packets(pk)
                if bconst is None:
                    frac = driver.accept_fraction(X[live], z)
                else:
                    t_cand = times_flat[offsets[live] + j]
                    frac = driver.accept_fraction(
                        X[live] + t_cand[:, None] * bconst[None, :], z)
                ok = pk[:, 4] < frac
                X[live[ok]] += z[ok]
            if bconst is not None:
                X = X + T * bconst[None, :]
            endpoints[c0:c1] = X
            continue

        need_start = bool(collectors) or (driver.has_gauss and
                                          driver.gauss_chol is None)
        step = 0
        while step < n_steps:
            blk = min(_BLOCK, n_steps - step)
            normals = None
            if driver.has_gauss:
                normals = np.stack([g.standard_normal((blk, d))
                                    for g in gens])
            for j in range(blk):
                t0 = (step + j) * dt
                dt_j = min(dt, T - t0)
                if dt_j <= 0:
                    break
                X_start = X.copy() if need_start else X
                # drift, Heun for a second-order ODE step between jumps
                if driver.has_drift:
                    b0 = driver.drift(X)
                    Xp = X + b0 * dt_j
                    b1 = driver.drift(Xp)
                    X = X + 0.5 * dt_j * (b0 + b1)
                # Gaussian substitution, coefficient frozen at the left state
                if driver.has_gauss:
                    xi = normals[:, j, :]
                    if driver.gauss_chol is not None:
                        X = X + math.sqrt(dt_j) * xi @ driver.gauss_chol.T
                    else:
                        coef = np.asarray(driver.gauss_coef(X_start))
                        X = X + np.sqrt(np.maximum(coef, 0.0) * dt_j
                                        )[:, None] * xi
                # candidate jumps in (t0, t0 + dt_j]; thinning evaluates the
                # kernel at the state just before each jump
                if driver.has_jumps:
                    t_end = t0 + dt_j
                    while True:
                        m = next_t <= t_end
                        if not m.any():
                            break
                        hit = np.nonzero(m)[0]
                        pk = packets_flat[pk_offsets[hit] + ptr[hit]]
                        z = driver.z_from_packets(pk)
                        frac = driver.accept_fraction(X[hit], z)
                        ok = pk[:, 4] < frac
                        acc_rows = hit[ok]
                        X[acc_rows] += z[ok]
                        if jump_hook is not None:
                            jump_hook(rows[hit], next_t[hit], z, ok)
                        ptr[hit] += 1
                        next_t[hit] = times_flat[offsets[hit] + ptr[hit]]
                for col in collectors:
                    col.on_step(t0, dt_j, dt_j == dt, X_start, X, rows)
            step += blk
        endpoints[c0:c1] = X
    return endpoints


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

@dataclass
class PathRecord:
    times: np.ndarray
    states: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    jump_accepted: np.ndarray

    def reduced_mod_1(self):
        states = self.states - np.floor(self.states)
        return PathRecord(self.times, states, self.jump_times,
                          self.jump_sizes, self.jump_accepted)


def sample_path(spec: JumpSpec, cfg: SimConfig, x0=None, stride=1
                ) -> PathRecord:
    """One path with its full step trace and candidate-jump log."""
    T = float(cfg.horizon)
    dt = cfg.resolved_dt(spec.small.alpha0)
    driver = driver_from_spec(spec, cfg, T)
    trace = TraceCollector(stride)
    jumps = {"t": [], "z": [], "ok": []}

    def hook(rows, t, z, ok):
        jumps["t"].extend(t.tolist())
        jumps["z"].extend(z.tolist())
        jumps["ok"].extend(ok.tolist())

    x0 = np.zeros(spec.d) if x0 is None else np.asarray(x0, dtype=float)
    end = run_paths(driver, T, 1, cfg.seed, dt, x0=x0, collectors=[trace],
                    jump_hook=hook)
    states = np.vstack([[x0], np.asarray(trace.states)]) if trace.states \
        else np.asarray([x0, end[0]])
    times = np.asarray(trace.times if trace.states else [0.0, T])
    return PathRecord(times, states, np.asarray(jumps["t"]),
                      np.asarray(jumps["z"]), np.asarray(jumps["ok"]))


def quotient_path(spec: JumpSpec, cfg: SimConfig, x0=None, stride=1
                  ) -> PathRecord:
    """sample_path reduced mod 1 componentwise."""
    return sample_path(spec, cfg, x0=x0, stride=stride).reduced_mod_1()


def simulate_endpoints(spec: JumpSpec, cfg: SimConfig, x0=None):
    """Raw unscaled endpoints X_T for cfg.paths paths at T = cfg.horizon."""
    return simulate_endpoints_with_horizon(spec, cfg, float(cfg.horizon), x0)


def simulate_quotient_time_integrals(spec: JumpSpec, cfg: SimConfig, f,
                                     x0=None, window=None):
    """Per-path integrals int f(X_t mod 1) dt over [0, T] or a window."""
    col = TimeIntegralCollector(lambda pts: np.asarray(f(pts)), cfg.paths,
                                window=window)
    simulate_endpoints_with_horizon(spec, cfg, float(cfg.horizon), x0,
                                    collectors=[col])
    return col.acc


def simulate_snapshots(spec: JumpSpec, cfg: SimConfig, times, x0=None):
    """States at the given unscaled times, shape (paths, len(times), d)."""
    col = SnapshotCollector(times, cfg.paths, spec.d)
    simulate_endpoints_with_horizon(spec, cfg, float(max(times)), x0,
                                    collectors=[col])
    return col.states


def occupation_counts(spec: JumpSpec, cfg: SimConfig, grid_n, burn_in=0.0,
                      x0=None):
    """Integer occupation counts of the quotient process on a torus grid."""
    col = OccupationCollector(TorusGrid(spec.d, grid_n), burn_in=burn_in)
    simulate_endpoints_with_horizon(spec, cfg, float(cfg.horizon), x0,
                                    collectors=[col])
    return col.counts


# ---------------------------------------------------------------------------
# scaled endpoint batches
# ---------------------------------------------------------------------------

BATCH_FORMAT_VERSION = 1


@dataclass
class EndpointBatch:
    samples: np.ndarray
    regime: str
    eps: float
    seed: int
    t: float
    meta: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.samples)

    def save(self, path):
        meta = dict(self.meta)
        meta.update({"regime": self.regime, "eps": self.eps,
                     "seed": self.seed, "t": self.t,
                     "format_version": BATCH_FORMAT_VERSION})
        np.savez(path, samples=self.samples,
                 meta_json=np.frombuffer(
                     json.dumps(meta, sort_keys=True).encode(),
                     dtype=np.uint8))

    @classmethod
    def load(cls, path):
        data = np.load(path)
        meta = json.loads(bytes(data["meta_json"]).decode())
        if meta.pop("format_version") != BATCH_FORMAT_VERSION:
            raise ConfigError("unsupported batch format version")
        return cls(samples=data["samples"], regime=meta.pop("regime"),
                   eps=meta.pop("eps"), seed=meta.pop("seed"),
                   t=meta.pop("t"), meta=meta)

    def to_csv(self, path):
        import csv
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            d = self.samples.shape[1]
            w.writerow(["path"] + [f"y_{a}" for a in range(d)])
            for i, row in enumerate(self.samples):
                w.writerow([i] + [f"{v:.17g}" for v in row])


def measure_start_sampler(mu):
    """Per-path start points drawn from a torus measure (mid-cell placement)."""
    cum = np.cumsum(mu.weights)
    centers = mu.centers
    half = mu.grid.h / 2.0

    def sampler(u):
        idx = np.minimum(np.searchsorted(cum, u[:, 0], side="right"),
                         len(cum) - 1)
        return centers[idx] + half

    return sampler


def scaled_endpoint_batch(spec: JumpSpec, cfg: SimConfig,
                          drifts: Optional[EffectiveDrifts] = None,
                          start_measure=None) -> EndpointBatch:
    """Samples of the scaled recentered endpoint Y_t = eps (X_{rho t} - rho t c).

    With ``cfg.stationary_start`` the paths start from draws of the supplied
    invariant measure instead of the origin, which removes the start-point
    transient from the comparison (the limit law does not depend on the
    start).
    """
    if cfg.eps is None or cfg.regime is None:
        raise ConfigError("scaled batches need eps and regime in the config")
    regime = Regime.from_name(cfg.regime)
    problems = regime.consistency_problems(spec)
    if problems:
        raise ConfigError("; ".join(problems))
    eps = float(cfg.eps)
    rho = regime.time_scale(spec, eps)
    T = rho * float(cfg.horizon)
    avg = regime.centering_average(drifts, eps, spec.d)
    sampler = None
    if cfg.stationary_start:
        if start_measure is None:
            raise ConfigError("stationary_start needs an invariant measure")
        sampler = measure_start_sampler(start_measure)

    t_start = _time.monotonic()
    dt = cfg.resolved_dt(spec.small.alpha0)
    driver = driver_from_spec(spec, cfg, T)
    ends = run_paths(driver, T, cfg.paths, cfg.seed, dt, workers=cfg.workers,
                     start_sampler=sampler)
    wall = _time.monotonic() - t_start
    samples = eps * (ends - T * avg[None, :])
    return EndpointBatch(samples=samples, regime=cfg.regime, eps=eps,
                         seed=cfg.seed, t=float(cfg.horizon),
                         meta={**driver.meta, "dt": dt, "branch": driver.branch,
                               "unscaled_horizon": T, "wall_seconds": wall,
                               "centering_average": avg.tolist(),
                               "paths": cfg.paths,
                               "stationary_start": bool(cfg.stationary_start)})


def simulate_endpoints_with_horizon(spec: JumpSpec, cfg: SimConfig, T,
                                    x0=None, start_sampler=None,
                                    collectors=()):
    """Endpoints at unscaled time T; ``collectors`` observe every step."""
    dt = cfg.resolved_dt(spec.small.alpha0)
    driver = driver_from_spec(spec, cfg, T)
    return run_paths(driver, T, cfg.paths, cfg.seed, dt, x0=x0,
                     collectors=collectors, workers=cfg.workers,
                     start_sampler=start_sampler)
