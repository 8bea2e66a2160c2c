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
k(x, z_q) over fixed nodes (PeriodicKernel.z_functional): x-only trig polys
built once per driver from F(mz) = sum_q w_q f_q e^{2 pi i mz.z_q}. A drift
without x-modes folds into constant_drift.

Each trig poly the engine evaluates per round or per step, the kernel of the
accept fraction, a drift with x-modes and the Gaussian coefficient, is
compiled once per driver by ``TrigPoly.evaluator``: the arithmetic of
``TrigPoly.__call__``, bit for bit, without its broadcasting, and with the
x-phase (z-phase) only for a poly with x-modes (z-modes). A constant kernel
at kmax has no kernel function: its accept fraction is one. The driver's meta
records the routes: ``accept`` ("constant", "x_modes", "z_modes" or "joint",
and whether the envelope factor applies) and ``drift`` ("none", "constant"
or "x_modes").

A run returns the endpoints of its paths, or their states at an ascending
list of times: that is the engine's one observation. The engine cuts the path
range into chunks by one rule, the expected bytes of a chunk's candidate
tape, and ``workers > 1`` runs the chunks of a batch in a pool of forked
processes. Every branch reads a chunk's candidates from one draw,
``_candidate_blocks``: per path its times, then its packets, mapped to jump
vectors one block of paths at a time, a block small enough to stay in L2
(``_PACKET_BLOCK``). A block's packets all go through the heaviest mixture
component (mostly the annulus delta < |z| <= 1), and only the other
components' packets are remapped (``JumpDriver.z_from_packets``).
The branches (``JumpDriver.branch``):

* "levy", for a driver whose accept fraction, drift and Gaussian coefficient
  do not depend on x: the process is a Levy process, so a path at time t is
  its start plus its accepted jumps up to t, one Gaussian increment and t
  times the constant drift. It has no time grid: it gives the states at the
  exact times asked for, and holds one block of packets at a time;
* "thinning", for the other drivers without a Gaussian part or an
  x-dependent drift: it copies the blocks into a dense tape, a row per path,
  largest count first (jump vector, accept uniform, and sorted time or the
  shift t b of a constant drift b, per candidate), and round j reads column
  j of the live rows. It serves endpoint-only runs;
* "stepped": Euler-Heun steps over the same tape, each path read up to an
  inf time. A state at t is that at the first step boundary at or past t.

Reproducibility contract: every random number consumed by path i comes from a
counter-based stream keyed by (seed, i) in a fixed order, so results are
bit-identical for any chunk partition of the path range and any number of
processes. The streams are Generator(Philox) objects cached per process (a
forked worker inherits the cache) and re-keyed for each chunk to key (seed,
i), counter 0, an empty buffer and no stored 32-bit half, the state of a
fresh ``Philox(key=(seed, i))``. Re-keying overwrites the previous chunk's
streams, which is safe because a chunk's generators live only inside
``_run_chunk``: chunks never nest, and no thread runs one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .quadrature import power_law_radii
from .regimes import EffectiveDrifts, Regime
from .spec_model import (DriftField, JumpSpec, categorical_index, jump_nodes,
                         surface_measure, tail_mass_bound, tail_radius)

_BLOCK = 2048
_TAPE_BYTES = 96e6         # candidate-tape bytes per chunk
# candidates per z_from_packets call: a block's packets, jumps and mapping
# temporaries (about 100 bytes a candidate) stay in a core's 2 MB L2 at
# 2^14. One in-process chunk, ms (minor faults), 2-core Xeon host, median:
#   block              2^12       2^13       2^14       2^15       2^16
#   ex4_0_axes, 400   22.7 (0)   20.7 (0)   20.0 (37)  22.1 (967) 23.7 (1215)
#   ex4_1_critical    464 (0)    435 (0)    401 (35)   405 (927)  451 (1383)
#   ex4_1_diffusive   585 (1003) 545 (1021) 525 (1213) 535 (1596) 555 (2560)
# (critical 500 paths at eps 1/32, diffusive 625 paths at eps 1/64)
_PACKET_BLOCK = 1 << 14
_POOL_WORK = 5e5           # candidates + steps x paths for a pool to pay off


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
    workers: int = 1
    stationary_start: bool = False
    truncation_budget: float = 1e-6

    def __post_init__(self):
        for name in ("paths", "seed", "workers"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {val!r}")
        check_workers(self.workers)
        if self.paths < 1:
            raise ConfigError(f"paths must be positive, got {self.paths!r}")
        for name in ("horizon", "dt", "eps", "truncation_budget"):
            val = getattr(self, name)
            if val is not None and not (_is_real(val) and val > 0):
                raise ConfigError(f"{name} must be positive, got {val!r}")
        if not (_is_real(self.delta) and 0 < self.delta <= 1):
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta!r}")

    def resolved_dt(self, alpha0=None):
        if self.dt is not None:
            return float(self.dt)
        if alpha0 is not None:
            return float(min(0.01, self.delta ** alpha0 / 10.0))
        return 0.01


class ConfigError(ValueError):
    pass


def _is_real(val):
    return (isinstance(val, (int, float, np.integer, np.floating))
            and not isinstance(val, bool))


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
    """Prepared simulation mechanics of a JumpSpec generator."""

    def __init__(self, dim, components, kmax, kernel_fn, gauss_coef=None,
                 drift_fn=None, constant_drift=None, meta=None,
                 x_independent=False):
        self.dim = dim
        self.components = [c for c in components if c.mass > 0]
        self.kmax = kmax
        self.kernel_fn = kernel_fn
        self.gauss_coef = gauss_coef          # (X)->(P,) isotropic coefficient
        self.drift_fn = drift_fn              # (X)->(P,d) or None
        self.constant_drift = constant_drift  # (d,) or None
        self.meta = meta or {}
        self.x_independent = x_independent
        masses = [c.mass for c in self.components]
        mass = sum(masses)
        self.rate = kmax * mass
        self._cum = np.cumsum(masses) / mass if mass > 0 else np.array([])
        self._heavy = int(np.argmax(masses)) if masses else 0

    @property
    def has_jumps(self):
        return self.rate > 0

    @property
    def has_gauss(self):
        return self.gauss_coef is not None

    @property
    def has_drift(self):
        return self.drift_fn is not None or self.constant_drift is not None

    def z_from_packets(self, pk):
        """Map packets (m, 5) of uniforms to candidate jump vectors (m, d):
        the component drawn by column 0 (``categorical_index`` on the
        cumulative masses), its radius from column 1, its direction from
        columns 2 and 3.

        Every packet is first mapped through the heaviest component, in
        whole columns; only the packets of the other components are then
        looked up and remapped, by index. A one-component driver looks
        nothing up. Each step is elementwise, so a packet's jump does not
        depend on the block it is mapped in.
        """
        if not self.components:       # a driver without jumps: empty blocks
            return np.empty((len(pk), self.dim))
        heavy = self.components[self._heavy]
        z = heavy.radial(pk[:, 1])[:, None] * heavy.angular(pk[:, 2],
                                                            pk[:, 3])
        if len(self.components) > 1:
            comp_idx = categorical_index(self._cum, pk[:, 0])
            for ci, comp in enumerate(self.components):
                if ci != self._heavy:
                    sel = np.flatnonzero(comp_idx == ci)
                    z[sel] = comp.radial(pk[sel, 1])[:, None] * comp.angular(
                        pk[sel, 2], pk[sel, 3])
        return z

    def accept_fraction(self, x, z):
        if self.kernel_fn is None:
            return np.ones(len(z))
        return np.asarray(self.kernel_fn(x, z)) / self.kmax

    @property
    def branch(self):
        """Branch of run_paths.

        "levy" when neither the accept fraction, the drift nor the Gaussian
        coefficient depends on x (``x_independent``, set by
        driver_from_spec): the process is then a Levy process, and a path at
        time t is its start plus its accepted jumps up to t, a Gaussian
        increment of variance c t and the drift times t, with no time grid.
        Otherwise "thinning" when there is no Gaussian part and no
        x-dependent drift, else "stepped"; a thinning driver steps when the
        run asks for states at given times.
        """
        if self.x_independent:
            return "levy"
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
    rmax = tail_radius(spec, budget / max(horizon * kmax, 1e-300))
    if rmax is None:
        raise ConfigError("truncation budget unreachable even at R=1e18")
    return rmax


def driver_from_spec(spec: JumpSpec, cfg: SimConfig, horizon) -> JumpDriver:
    """Simulation mechanics for the generator of a JumpSpec."""
    d = spec.d
    delta = float(cfg.delta)
    kmax = spec.kernel.kmax
    rmax = cfg.rmax if cfg.rmax is not None else \
        choose_rmax(spec, horizon, cfg.truncation_budget, kmax)
    # bound on the expected number of jumps past rmax over the horizon
    dropped = tail_mass_bound(spec, rmax) * horizon * kmax
    if dropped > cfg.truncation_budget * (1 + 1e-9):
        raise ConfigError(
            f"radial cap {rmax} violates the truncation budget "
            f"({dropped:.2e} > {cfg.truncation_budget:.2e})")

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

    # the kernel, drift and coefficients are compiled once per driver
    # (TrigPoly.evaluator); a constant kernel at kmax accepts every candidate
    route = _kernel_route(spec.kernel)
    kernel_fn = keval = spec.kernel.poly.evaluator()
    if route == "constant":
        kconst = float(spec.kernel(np.zeros((1, d)), np.zeros((1, d)))[0])
        if abs(kconst - kmax) <= 1e-14 * kmax:
            kernel_fn = None
    envelope = spec.phi.kind != "power" or not spec.kappa.is_none
    if envelope:
        kernel_fn = _envelope_thinned(spec, kernel_fn, kmax, c, b, ghat)

    # the Gaussian coefficient of the sub-delta activity and the compensator
    # drift of the (delta, 1] annulus are x-functions sum_q w_q k(x, z_q) f_q
    meta = {"rmax": rmax, "delta": delta, "dropped_tail_mass": dropped,
            "accept": {"route": route, "envelope": envelope}}
    gauss_coef = None
    drift = spec.drift
    if spec.small.kind == "stable" and not spec.kernel.depends_on_z():
        ball_m2 = spec.small.ball_second_moment(d, delta)
        def gauss_coef(X, c=ball_m2 / d):
            return keval(X) * c
        meta["gauss_coef"] = _route_meta(spec.kernel.poly, 0, "closed_form")
    elif spec.small.kind == "stable":
        zq, wq, _ = jump_nodes(spec, delta * 1e-4, delta, 4, 4, 6)
        gauss_poly = spec.kernel.z_functional(
            zq, wq * np.sum(zq * zq, axis=1) / d)
        meta["gauss_coef"] = _route_meta(gauss_poly, len(wq))
        gauss_coef = gauss_poly.evaluator()
        if delta < 1.0:
            zq, wq, _ = jump_nodes(spec, delta, 1.0, 6, 4, 6)
            comp = spec.kernel.z_functional(zq, wq, zq)
            meta["compensator"] = _route_meta(comp, len(wq))
            drift = DriftField([p - q for p, q in zip(
                drift.components, comp.components)])

    drift_fn = constant_drift = None
    if all(c.max_mode_order() == 0 for c in drift.components):
        meta["drift"] = {"route": "none" if drift.is_zero() else "constant"}
        if not drift.is_zero():
            constant_drift = drift(np.zeros((1, d))).reshape(d)
    else:
        meta["drift"] = {"route": "x_modes"}
        parts = [comp.evaluator() for comp in drift.components]
        def drift_fn(X):
            out = np.empty(X.shape)
            for j, f in enumerate(parts):
                out[:, j] = f(X)
            return out

    # the envelope factor depends on r alone, so it keeps "levy" open
    x_independent = (route in ("constant", "z_modes")
                     and meta["drift"]["route"] in ("none", "constant")
                     and meta.get("gauss_coef", {"x_modes": 0})["x_modes"] == 0)
    return JumpDriver(d, components, kmax, kernel_fn, gauss_coef=gauss_coef,
                      drift_fn=drift_fn, constant_drift=constant_drift,
                      meta=meta, x_independent=x_independent)


def _kernel_route(kernel):
    """Which modes the accept fraction evaluates: "constant", "x_modes",
    "z_modes" or "joint" (both)."""
    on_x, on_z = kernel.depends_on_x(), kernel.depends_on_z()
    return {(False, False): "constant", (True, False): "x_modes",
            (False, True): "z_modes", (True, True): "joint"}[(on_x, on_z)]


def _route_meta(f, nodes, route="modes"):
    """Route, node count and number of x-modes (0: constant) of a functional."""
    polys = f.components if isinstance(f, DriftField) else [f]
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
# the engine
# ---------------------------------------------------------------------------

_GENERATORS = []     # this process's Generator(Philox) objects, re-keyed
# the seed of every new cache entry, whose key the re-keying overwrites: one
# shared SeedSequence spares each entry hashing a fresh one
_SEED = np.random.SeedSequence(0)


def philox_key(seed, stream):
    """The Philox key (seed, stream) mod 2^64 of every seeded stream of the
    package; a negative seed or stream keys by its two's complement. Path i
    of a batch reads stream i, so a stream that no path may share takes a
    negative id: 2^64 + stream is past every path index."""
    return np.array([int(seed) & (2 ** 64 - 1), int(stream) & (2 ** 64 - 1)],
                    dtype=np.uint64)


def _path_generators(seed, indices):
    """The cached generators, grown to ``len(indices)`` and re-keyed to the
    state of fresh ``Philox(key=(seed, i))`` objects (module docstring)."""
    while len(_GENERATORS) < len(indices):
        _GENERATORS.append(np.random.Generator(np.random.Philox(_SEED)))
    gens = _GENERATORS[:len(indices)]
    zeros = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": zeros, "key": None}, "buffer": zeros,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    keys = np.tile(philox_key(seed, 0), (len(gens), 1))
    keys[:, 1] = indices
    for g, key in zip(gens, keys):
        state["state"]["key"] = key
        g.bit_generator.state = state
    return gens


def check_workers(workers):
    """Raise ConfigError for a worker count below one."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")


def run_paths(driver: JumpDriver, T, n_paths, seed, dt, x0=None, times=None,
              workers=1, start_sampler=None, stats=None):
    """Advance ``n_paths`` paths to time T; returns their endpoints
    (n_paths, d), or with ``times`` (ascending, in [0, T]) their states
    (n_paths, len(times), d) at those times.

    The path range is cut into chunks whose candidate tapes, at the
    expected count per path, fit ``_TAPE_BYTES`` (16 to 4096 paths a chunk,
    where the batch has them): one rule for every branch, though the levy
    branch holds no tape, only one packet block at a time. ``workers > 1``
    runs the chunks in a pool of at most ``min(workers, os.cpu_count())``
    forked processes when the batch's expected work, candidates ``rate T
    n_paths`` plus Euler steps times paths (none off the stepped branch),
    reaches ``_POOL_WORK``; otherwise they run here, one after another.
    Outputs are bit-identical for every ``workers`` value because each path
    consumes exclusively its own counter-based stream. ``start_sampler``,
    when given, maps per-path uniforms (P, 2) to start points (P, d); those
    uniforms are the first draws of each path's stream. ``stats``, when
    given, receives the counters ``candidates``, ``accepted``,
    ``tape_bytes`` (the largest chunk's tape, padding included; 0 on the
    levy branch), ``chunk_paths`` and ``pool_processes`` (0: the chunks ran
    in this process).
    """
    check_workers(workers)
    d = driver.dim
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
    branch = driver.branch
    if times is not None:
        times = np.asarray(times, dtype=float)
        if not (0 <= times[0] and np.all(np.diff(times) >= 0)
                and times[-1] <= T):
            raise ValueError("times must ascend within [0, T]")
        branch = "stepped" if branch == "thinning" else branch
    procs = 1
    steps = 0 if branch != "stepped" else math.ceil(T / dt - 1e-12)
    if workers > 1 and n_paths * (driver.rate * T + steps) >= _POOL_WORK:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            procs = min(workers, os.cpu_count() or 1)
    # one rule for every branch: the cap bounds a chunk's tape of z, u and t
    # (or the shift t b) per candidate; whole rounds of chunks keep the pool
    # busy
    per = 2 * d + 1 if branch == "thinning" and driver.constant_drift \
        is not None else d + 2
    tape_bytes = 8 * per * max(1.0, driver.rate * T)
    cap = min(4096, max(16, int(_TAPE_BYTES / tape_bytes)))
    n_chunks = -(-max(1, -(-n_paths // cap)) // procs) * procs
    chunk_paths = max(1, -(-n_paths // n_chunks))
    ranges = [(c0, min(c0 + chunk_paths, n_paths))
              for c0 in range(0, n_paths, chunk_paths)]
    procs = min(procs, len(ranges))

    chunk = partial(_run_chunk, driver, branch, T, seed, dt, x0,
                    start_sampler, times)
    if procs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        # fork: the driver holds closures, which cannot be pickled; only
        # the ranges and the state arrays cross the pipe
        with ProcessPoolExecutor(procs, mp_context=get_context("fork"),
                                 initializer=_adopt_chunk,
                                 initargs=(chunk,)) as pool:
            results = list(pool.map(_pool_chunk, *zip(*ranges)))
    else:
        results = [chunk(c0, c1) for c0, c1 in ranges]

    states = np.concatenate([r[0] for r in results])
    if stats is not None:
        stats.update(candidates=sum(r[1] for r in results),
                     accepted=sum(r[2] for r in results),
                     tape_bytes=max(r[3] for r in results),
                     chunk_paths=chunk_paths,
                     pool_processes=procs if procs > 1 else 0)
    return states


_pool_chunk_fn = None


def _adopt_chunk(chunk):
    """Pool initializer: the forked worker keeps the chunk function."""
    global _pool_chunk_fn
    _pool_chunk_fn = chunk


def _pool_chunk(c0, c1):
    return _pool_chunk_fn(c0, c1)


def _run_chunk(driver, branch, T, seed, dt, x0, start_sampler, times, c0, c1):
    """Endpoints of paths c0..c1-1, or their states at ``times``; their
    candidate count, accepted count and tape bytes (0 on the levy branch)."""
    d = driver.dim
    gens = _path_generators(seed, np.arange(c0, c1))
    P = len(gens)
    if start_sampler is not None:
        u = np.stack([g.random(2) for g in gens])
        X = np.asarray(start_sampler(u), dtype=float).reshape(P, d).copy()
    else:
        X = np.broadcast_to(x0, (P, d)).copy()
    counts = np.zeros(P, dtype=np.int64)
    if driver.has_jumps:
        counts = np.array([g.poisson(driver.rate * T) for g in gens],
                          dtype=np.int64)

    # no time grid: thinning against the exact pre-jump state is exact, and
    # an x-independent driver needs no state at all
    if branch == "thinning":
        X, accepted, tape = _thin(driver, gens, counts, X, T)
    elif branch == "levy":
        (X, accepted), tape = _levy(driver, gens, counts, X, T, times), 0
    else:
        X, accepted, tape = _step(driver, gens, counts, X, T, dt, times)
    return X, int(counts.sum()), accepted, tape


def _candidate_blocks(driver, gens, counts, order, T):
    """The candidates of a chunk, drawn block by block after the counts: the
    engine's one candidate draw, which every branch reads.

    Each path's stream yields its c times, then c packets of five uniforms
    (component, radius, two angles, acceptance). Paths go in ``order``, in
    blocks whose (path, candidate + 1) grid has at most max(_PACKET_BLOCK,
    max count + 1) cells. Per block this yields the block's paths, the
    offsets ``lo`` of their candidates, and the candidates' times (scaled by
    T, unsorted), jump vectors, from one ``z_from_packets`` call, and accept
    uniforms. The buffers are reused; only the first ``lo[-1]`` packets of a
    block are mapped.
    """
    cap = max(_PACKET_BLOCK, int(counts.max(initial=0)) + 1)
    pk = np.empty((cap, 5))
    tb = np.empty(cap)
    ordered = counts[order]
    k0 = 0
    while k0 < len(order):
        width = np.maximum.accumulate(ordered[k0:k0 + cap]) + 1
        n = max(1, int(np.searchsorted(width * np.arange(1, len(width) + 1),
                                       cap, side="right")))
        blk = order[k0:k0 + n]
        lo = np.concatenate([[0], np.cumsum(counts[blk])])
        for i, a, b in zip(blk.tolist(), lo[:-1].tolist(), lo[1:].tolist()):
            gens[i].random(out=tb[a:b])
            gens[i].random(out=pk[a:b])
        m = int(lo[-1])
        tb[:m] *= T
        yield blk, lo, tb[:m], driver.z_from_packets(pk[:m]), pk[:m, 4]
        k0 += n


def _candidate_tape(driver, gens, counts, T, b=None, keep_t=True):
    """Every candidate of a chunk on a dense tape ``(order, z, u, t)``: row
    r, path ``order[r]`` (largest count first), has W = max count + 1 slots
    in z (P, W, d), u (P, W) and t (P, 1, W), or (P, d, W) for the shifts
    t b of a constant drift ``b``. The rows are copied from the blocks of
    ``_candidate_blocks`` in this order; a path's times, already scaled by
    T, are sorted in place (sort(u T) = sort(u) T), or dropped without
    ``keep_t`` (t is None). Padding is never written.
    """
    P, d = len(counts), driver.dim
    order = np.argsort(-counts, kind="stable")
    W = int(counts[order[0]]) + 1
    z, u = np.empty((P, W, d)), np.empty((P, W))
    t = np.empty((P, 1 if b is None else d, W)) if keep_t else None
    r = 0
    for _, lo, tb, zb, ub in _candidate_blocks(driver, gens, counts, order,
                                               T):
        for a, e in zip(lo[:-1].tolist(), lo[1:].tolist()):
            z[r, :e - a], u[r, :e - a] = zb[a:e], ub[a:e]
            if t is not None:
                row = tb[a:e]
                row.sort()
                t[r, :, :e - a] = row if b is None else row * b[:, None]
            r += 1
    return order, z, u, t


def _thin(driver, gens, counts, X, T):
    """Round-major thinning of one chunk; returns endpoints, accepted count
    and tape bytes. Round j reads column j of the tape's first live[j] rows,
    with the kernel at the state shifted by t b, into the chunk's buffers.
    """
    b = driver.constant_drift
    order, z, u, t = _candidate_tape(driver, gens, counts, T, b,
                                     b is not None)
    live = len(counts) - np.cumsum(np.bincount(counts, minlength=1))[:-1]
    Xs = X[order]
    xb, ok = np.empty_like(Xs), np.empty(len(Xs), dtype=bool)
    accepted = 0
    for j, n in enumerate(live.tolist()):
        x, zj, okj = Xs[:n], z[:n, j], ok[:n]
        xa = x if t is None else np.add(x, t[:n, :, j], out=xb[:n])
        np.less(u[:n, j], driver.accept_fraction(xa, zj), out=okj)
        np.add(x, zj, out=x, where=okj[:, None])
        accepted += int(np.count_nonzero(okj))
    X[order] = Xs
    if b is not None:
        X = X + T * b[None, :]
    return X, accepted, sum(a.nbytes for a in (z, u, t) if a is not None)


def _levy(driver, gens, counts, X, T, times):
    """Endpoints (P, d) of an x-independent driver, or its states (P, K, d)
    at ``times``; and the accepted count.

    Per path, after the counts: its candidates (``_candidate_blocks``, in
    path order, times unsorted), then ``standard_normal((K, d))`` when there
    is a Gaussian part (K = 1 for endpoints). A state at t_k is the start
    plus the accepted jumps whose times do not pass t_k, summed in candidate
    order (the j-th packet holds the j-th smallest time, so those are the
    first packets), plus the normals of rows 1..k scaled by sqrt(c (t_k -
    t_{k-1})), plus t_k times the constant drift. The jumps before each t_k
    are counted from one bin per candidate: the first t_k it does not pass.
    """
    endpoints = times is None
    times = np.array([T]) if endpoints else times
    P, d = X.shape
    K = len(times)
    states = np.empty((P, K, d))
    accepted = 0
    anywhere = np.zeros((1, d))                         # k does not read x
    for blk, lo, tb, z, u in _candidate_blocks(driver, gens, counts,
                                               np.arange(P), T):
        ok = u < driver.accept_fraction(
            np.broadcast_to(anywhere, z.shape), z)
        accepted += int(np.count_nonzero(ok))
        z[~ok] = 0.0
        # row p: start, then the jumps; its running sums are the states
        c = counts[blk]
        live = np.arange(1, int(c.max(initial=0)) + 1)[None, :] <= c[:, None]
        grid = np.zeros((len(blk), live.shape[1] + 1, d))
        grid[:, 0] = X[blk]
        grid[:, 1:][live] = z
        np.cumsum(grid, axis=1, out=grid)
        if times[0] < T:
            bins = np.repeat(np.arange(len(blk)) * (K + 1), c) \
                + np.searchsorted(times, tb)
            idx = np.bincount(bins, minlength=len(blk) * (K + 1)).reshape(
                len(blk), K + 1)[:, :K].cumsum(axis=1)
        else:
            idx = np.broadcast_to(c[:, None], (len(blk), K))
        states[blk] = np.take_along_axis(grid, idx[:, :, None], axis=1)
    if driver.has_gauss:
        coef = max(float(driver.gauss_coef(np.zeros((1, d)))[0]), 0.0)
        scale = np.sqrt(coef * np.diff(times, prepend=0.0))
        normals = np.stack([g.standard_normal((K, d)) for g in gens])
        states += np.cumsum(scale[None, :, None] * normals, axis=1)
    if driver.constant_drift is not None:
        states += times[None, :, None] * driver.constant_drift[None, None, :]
    return (states[:, -1] if endpoints else states), accepted


def _step(driver, gens, counts, X, T, dt, times):
    """Euler-Heun steps of one chunk with thinned jumps inside each step.

    Returns the endpoints, or the states (P, K, d) at ``times``: at the
    first step boundary at or past each time (the start serves times not
    past 0); the accepted count and the tape bytes.
    """
    d = driver.dim
    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    accepted = 0
    if times is not None:
        states = np.empty((len(X), len(times), d))
        col = int(np.searchsorted(times, 1e-12, side="right"))
        states[:, :col] = X[:, None]
    if driver.has_jumps:
        # the tape through flat pointers, with an inf sentinel past each
        # path's last candidate
        order, z, u, t = _candidate_tape(driver, gens, counts, T)
        P, W = u.shape
        t[np.arange(P), 0, counts[order]] = np.inf
        z, u, t = z.reshape(P * W, d), u.ravel(), t.ravel()
        ptr = np.argsort(order) * W
        next_t = t[ptr]

    step = 0
    while step < n_steps:
        blk = min(_BLOCK, n_steps - step)
        normals = None
        if driver.has_gauss:
            normals = np.stack([g.standard_normal((blk, d)) for g in gens])
        for j in range(blk):
            t0 = (step + j) * dt
            dt_j = min(dt, T - t0)
            if dt_j <= 0:
                break
            t_end = t0 + dt_j
            # drift and noise rebind X, so X_start keeps the left state
            X_start = X
            # drift, Heun for a second-order ODE step between jumps
            if driver.has_drift:
                b0 = driver.drift(X)
                Xp = X + b0 * dt_j
                b1 = driver.drift(Xp)
                X = X + 0.5 * dt_j * (b0 + b1)
            # Gaussian substitution, coefficient frozen at the left state
            if driver.has_gauss:
                coef = np.asarray(driver.gauss_coef(X_start))
                X = X + np.sqrt(np.maximum(coef, 0.0) * dt_j
                                )[:, None] * normals[:, j, :]
            # candidate jumps in (t0, t0 + dt_j]; thinning evaluates the
            # kernel at the state just before each jump
            if driver.has_jumps:
                while True:
                    hit = np.flatnonzero(next_t <= t_end)
                    if not len(hit):
                        break
                    k = ptr[hit]
                    zh = z[k]
                    ok = u[k] < driver.accept_fraction(X[hit], zh)
                    X[hit[ok]] += zh[ok]
                    accepted += int(np.count_nonzero(ok))
                    ptr[hit] += 1
                    next_t[hit] = t[ptr[hit]]
            if times is not None:
                while col < len(times) and times[col] <= t_end + 1e-12:
                    states[:, col] = X
                    col += 1
        step += blk
    tape = z.nbytes + u.nbytes + t.nbytes if driver.has_jumps else 0
    return (X if times is None else states), accepted, tape


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def simulate_endpoints(spec: JumpSpec, cfg: SimConfig, x0=None, horizon=None,
                       times=None):
    """Raw unscaled endpoints X_T for cfg.paths paths at T = ``horizon``
    (default cfg.horizon), or their states at ``times`` (``run_paths``)."""
    T = float(cfg.horizon if horizon is None else horizon)
    dt = cfg.resolved_dt(spec.small.alpha0)
    driver = driver_from_spec(spec, cfg, T)
    return run_paths(driver, T, cfg.paths, cfg.seed, dt, x0=x0, times=times,
                     workers=cfg.workers)


def simulate_snapshots(spec: JumpSpec, cfg: SimConfig, times, x0=None):
    """States at the given unscaled times, from a run to the last of them,
    shape (paths, len(times), d), with the columns in the order of
    ``times``."""
    times = np.asarray(times, dtype=float)
    ascending = np.sort(times)
    states = simulate_endpoints(spec, cfg, x0, horizon=ascending[-1],
                                times=ascending)
    if np.array_equal(ascending, times):
        return states
    return states[:, np.searchsorted(ascending, times)]


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
    """Per-path start points drawn from a torus measure: the node j/n of
    the drawn index, where mu's weight is the density's value."""
    cum = np.cumsum(mu.weights)
    centers = mu.centers

    def sampler(u):
        return np.take(centers, categorical_index(cum, u[:, 0]), axis=0)

    return sampler


def scaled_endpoint_batch(spec: JumpSpec, cfg: SimConfig,
                          drifts: Optional[EffectiveDrifts] = None,
                          start_measure=None) -> EndpointBatch:
    """Samples of the scaled recentered endpoint Y_t = eps (X_{rho t} - rho t c).

    The regime, and with it rho and c, is read off the spec's tail index.
    With ``cfg.stationary_start`` the paths start from draws of the supplied
    invariant measure instead of the origin, which removes the start-point
    transient from the comparison (the limit law does not depend on the
    start).
    """
    if cfg.eps is None:
        raise ConfigError("scaled batches need eps in the config")
    regime = Regime.of(spec.phi.index)
    eps = float(cfg.eps)
    rho = regime.time_scale(spec, eps)
    T = rho * float(cfg.horizon)
    avg = regime.centering_average(drifts, eps, spec.d)
    sampler = None
    if cfg.stationary_start:
        if start_measure is None:
            raise ConfigError("stationary_start needs an invariant measure")
        sampler = measure_start_sampler(start_measure)

    dt = cfg.resolved_dt(spec.small.alpha0)
    driver = driver_from_spec(spec, cfg, T)
    stats = {}
    ends = run_paths(driver, T, cfg.paths, cfg.seed, dt, workers=cfg.workers,
                     start_sampler=sampler, stats=stats)
    samples = eps * (ends - T * avg[None, :])
    return EndpointBatch(samples=samples, regime=regime.name, eps=eps,
                         seed=cfg.seed, t=float(cfg.horizon),
                         meta={**driver.meta, **stats, "dt": dt,
                               "branch": driver.branch,
                               "unscaled_horizon": T,
                               "centering_average": avg.tolist(),
                               "paths": cfg.paths,
                               "stationary_start": bool(cfg.stationary_start)})
