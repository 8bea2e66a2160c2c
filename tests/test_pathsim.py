"""Path engine: thinning identities, characteristic-function calibration,
refinement stability, and the bit-reproducibility contract."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from levyhom.config import FIXTURES, fixture_config, load_config
from levyhom.corrector import operator_radius
from levyhom.pathsim import (ConfigError, EndpointBatch, SimConfig,
                             choose_rmax, driver_from_spec, run_paths,
                             scaled_endpoint_batch,
                             simulate_endpoints, simulate_snapshots)
from levyhom.quadrature import panel_nodes
from levyhom.regimes import EffectiveDrifts
from levyhom.spec_model import (DriftField, PeriodicKernel,
                                RadialPerturbation, ScalingFunction,
                                SphericalMeasure, tail_mass_bound)
from levyhom.trigpoly import TrigPoly
from levyhom.verify import ks_statistic

from conftest import fresh_python, make_spec


def levy_symbol_quadrature(spec, u):
    """Exact symbol of the x-independent generator by direct quadrature.

    d=1 symmetric specs only: eta(u) = int (cos(u z) - 1) k Pi(dz). The
    oscillatory tail piece uses the cosine-weighted rule; the mass piece is
    the exact radial tail integral.
    """
    kv = float(spec.kernel(np.zeros((1, 1)), np.zeros((1, 1)))[0])
    total = 0.0
    if spec.small.kind == "stable":
        a0 = spec.small.alpha0
        val, _ = quad(lambda r: 2 * (np.cos(u * r) - 1) * r ** (-1 - a0),
                      0.0, 1.0, limit=400)
        total += val
    mass = spec.rho0.total_mass / 2.0   # per ray
    val_cos, _ = quad(lambda r: 1.0 / (r * spec.phi(r)), 1.0, 1e7,
                      weight="cos", wvar=u, limit=800)
    val_mass = spec.phi.radial_tail_mass(1.0, np.inf)
    total += 2 * mass * (val_cos - val_mass)
    return kv * total


@pytest.fixture(scope="module")
def sym_spec():
    # symmetric 1d fixture: k = 1, uniform angular mass 1, alpha = 0.5
    return make_spec(alpha=0.5, alpha0=0.5)


def test_symmetric_endpoint_mean(sym_spec):
    cfg = SimConfig(paths=10_000, horizon=1.0, delta=0.25, seed=11)
    ends = simulate_endpoints(sym_spec, cfg)
    se = ends.std() / np.sqrt(len(ends))
    assert abs(ends.mean()) <= 3 * se


def test_jump_count_poisson_identity(sym_spec):
    # x-independent: accepted-candidate count is Poisson with the product rate
    cfg = SimConfig(paths=40, horizon=50.0, delta=0.25, seed=3)
    driver = driver_from_spec(sym_spec, cfg, 50.0)
    stats = {}
    run_paths(driver, 50.0, 40, cfg.seed,
              cfg.resolved_dt(sym_spec.small.alpha0), stats=stats)
    d = 1
    small_mass = sym_spec.small.annulus_mass(d, 0.25, 1.0)
    sph_mass = sym_spec.rho0.total_mass * \
        sym_spec.phi.radial_tail_mass(1.0, driver.meta["rmax"])
    lam = (small_mass + sph_mass) * 50.0     # k = 1 so thinning accepts all
    se = np.sqrt(lam / 40)
    assert abs(stats["accepted"] / 40 - lam) <= 3 * se


def test_ecf_matches_levy_khintchine(sym_spec):
    cfg = SimConfig(paths=10_000, horizon=1.0, delta=0.05, seed=7)
    ends = simulate_endpoints(sym_spec, cfg)[:, 0]
    freqs = np.linspace(0.3, 5.0, 20)
    bad = 0
    for u in freqs:
        target = np.exp(levy_symbol_quadrature(sym_spec, u))
        emp_c = np.cos(u * ends)
        emp = emp_c.mean()       # symmetric: imaginary part is pure noise
        se = emp_c.std() / np.sqrt(len(ends))
        if abs(emp - target) > 3 * se:
            bad += 1
    assert bad == 0, f"{bad} frequencies off by more than 3 standard errors"


def test_delta_refinement_stability(sym_spec):
    # distribution stable under halving the cutoff: KS between ladders small
    from levyhom.verify import ks_statistic
    batches = []
    for delta in (0.5, 0.25, 0.125):
        cfg = SimConfig(paths=4000, horizon=1.0, delta=delta, seed=19)
        batches.append(simulate_endpoints(sym_spec, cfg)[:, 0])
    for a, b in zip(batches, batches[1:]):
        assert ks_statistic(a, b) <= 0.03


@pytest.fixture
def pool_always(monkeypatch):
    """Send every batch with workers > 1 to the pool, however small."""
    from levyhom import pathsim
    monkeypatch.setattr(pathsim, "_POOL_WORK", 0)


def test_bit_exact_reproducibility_across_workers(sym_spec, pool_always):
    outs = []
    for workers in (1, 3, 7):
        cfg = SimConfig(paths=500, horizon=1.0, delta=0.25, seed=23,
                        workers=workers)
        outs.append(simulate_endpoints(sym_spec, cfg))
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


@pytest.mark.parametrize("name, branch", [("ex4_1_critical", "levy"),
                                          ("ex4_1_centered", "stepped")],
                         ids=["levy", "stepped"])
def test_snapshots_bit_exact_across_workers(name, branch, pool_always):
    # snapshot runs reach the pool; a chunk's states are its paths' alone
    spec = load_config(fixture_config(name)).spec
    times = [0.0, 0.3, 0.3, 1.7, 2.0]
    outs = []
    for workers in (1, 2, 3):
        cfg = SimConfig(paths=41, horizon=2.0, delta=0.25, seed=13,
                        workers=workers)
        assert driver_from_spec(spec, cfg, 2.0).branch == branch
        outs.append(simulate_snapshots(spec, cfg, times))
    assert np.array_equal(outs[0][:, 0], np.zeros((41, spec.d)))
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_seed_reproducibility(sym_spec):
    cfg = SimConfig(paths=64, horizon=1.0, delta=0.25, seed=5)
    a = simulate_endpoints(sym_spec, cfg)
    b = simulate_endpoints(sym_spec, cfg)
    assert np.array_equal(a, b)


def test_quotient_uniform_marginal(sym_spec):
    # occupation of 16 cells by the states at the step starts j dt in
    # [5, 100), the last column being the horizon
    cfg = SimConfig(paths=400, horizon=100.0, delta=0.25, seed=2)
    dt = cfg.resolved_dt(sym_spec.small.alpha0)
    times = np.append(np.arange(round(5.0 / dt), round(100.0 / dt)) * dt,
                      100.0)
    snaps = simulate_snapshots(sym_spec, cfg, times)[:, :-1]
    counts = np.bincount(np.floor(snaps % 1.0 * 16).astype(int).ravel(),
                         minlength=16)
    w = counts / counts.sum()
    tv = 0.5 * np.abs(w - 1.0 / 16).sum()
    assert tv <= 0.05


def test_quotient_translation_invariance(sym_spec):
    # starting one period apart gives identical quotient paths
    cfg = SimConfig(paths=1, horizon=5.0, delta=0.25, seed=9)
    times = np.linspace(0.25, 5.0, 20)
    s0 = simulate_snapshots(sym_spec, cfg, times, x0=np.array([0.25]))
    s1 = simulate_snapshots(sym_spec, cfg, times, x0=np.array([1.25]))
    assert np.allclose(s0 % 1.0, s1 % 1.0, atol=1e-12)


def test_truncation_budget_enforced(sym_spec):
    cfg = SimConfig(paths=4, horizon=1.0, delta=0.25, rmax=3.0, seed=0)
    with pytest.raises(ConfigError):
        simulate_endpoints(sym_spec, cfg)


def test_batch_meta_records_the_dropped_tail_mass(sym_spec):
    # the cap keeps the expected number of dropped jumps within the budget
    cfg = SimConfig(paths=4, horizon=1.0, delta=0.25, seed=0, eps=0.25)
    meta = scaled_endpoint_batch(sym_spec, cfg).meta
    assert 0 < meta["dropped_tail_mass"] <= cfg.truncation_budget
    # power phi: Pi(|z| > R) = |rho0| R^-alpha / alpha, over T = 0.25^-0.5
    cfg = SimConfig(paths=4, horizon=1.0, delta=0.25, seed=0, eps=0.25,
                    rmax=1e16, truncation_budget=1.0)
    meta = scaled_endpoint_batch(sym_spec, cfg).meta
    assert meta["dropped_tail_mass"] == pytest.approx(2 * 1e-8 * 2.0,
                                                      rel=1e-12)


def test_choose_rmax_meets_budget(sym_spec):
    r = choose_rmax(sym_spec, horizon=10.0, budget=1e-6,
                    kmax=sym_spec.kernel.kmax)
    tail = sym_spec.rho0.total_mass * sym_spec.phi.radial_tail_mass(r, np.inf)
    assert tail * 10.0 * sym_spec.kernel.kmax <= 1e-6 * 1.01


def _choose_rmax_two_bisections(spec, horizon, budget, kmax):
    """``choose_rmax`` before the caps shared one bisection."""
    limit = budget / max(horizon * kmax, 1e-300)
    lo, hi = 1.0, 1e18
    assert tail_mass_bound(spec, hi) <= limit
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if tail_mass_bound(spec, mid) > limit:
            lo = mid
        else:
            hi = mid
    return hi


def _operator_radius_two_bisections(spec, tol=1e-8, cap=1e12):
    """``corrector.operator_radius`` before the caps shared one bisection."""
    kmax = spec.kernel.kmax
    lo, hi = 1.0, cap
    if kmax * tail_mass_bound(spec, hi) > tol:
        return cap
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if kmax * tail_mass_bound(spec, mid) > tol:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_radial_caps_match_two_bisections(name):
    # one bisection serves the engine's cap and the operator's radius, with
    # the bits of the two routines it replaced on every fixture
    spec = load_config(fixture_config(name)).spec
    kmax = spec.kernel.kmax
    for horizon in (1.0, 37.5):
        assert np.array_equal(
            choose_rmax(spec, horizon, 1e-6, kmax),
            _choose_rmax_two_bisections(spec, horizon, 1e-6, kmax))
    assert np.array_equal(operator_radius(spec),
                          _operator_radius_two_bisections(spec))


def test_operator_radius_falls_back_to_cap():
    spec = make_spec(alpha=0.1)
    assert operator_radius(spec) == _operator_radius_two_bisections(spec) \
        == 1e12


def test_truncation_budget_counts_kappa():
    # kappa adds ~5% to the rho0 tail beyond this cap, which breaks the budget
    rho0 = SphericalMeasure.uniform(1, 1.0)
    kappa = RadialPerturbation.power_ratio(0.4, 0.5, base=rho0)
    spec = make_spec(alpha=0.5, rho0=rho0, kappa=kappa)
    cfg = SimConfig(paths=1, horizon=1.0, rmax=4.0e12, truncation_budget=1e-6)
    with pytest.raises(ConfigError):
        driver_from_spec(spec, cfg, 1.0)
    assert choose_rmax(spec, 1.0, 1e-6, spec.kernel.kmax) > 4.0e12


def _kappa_spec():
    rho0 = SphericalMeasure.uniform(1, 1.0)
    return make_spec(alpha=1.5, alpha0=0, rho0=rho0,
                     kappa=RadialPerturbation.power_ratio(0.5, 1.5, base=rho0))


@pytest.mark.parametrize("spec", [
    make_spec(alpha0=0, phi=ScalingFunction.mixed([(0.5, 1.0), (1.5, 2.0)])),
    make_spec(alpha0=0, phi=ScalingFunction.power_log(1.2)),
    _kappa_spec()], ids=["mixed", "power_log", "kappa"])
def test_envelope_thinning_radial_law(spec):
    # accepted tail candidates (k = 1, so only the envelope factor thins)
    # against exact draws from (1 + g(r)) / (r phi(r)) on (1, rmax]
    driver = driver_from_spec(spec, SimConfig(), 1.0)
    rmax = driver.meta["rmax"]
    gen = np.random.Generator(np.random.Philox(key=np.uint64(31)))
    pk = gen.random((40_000, 5))
    z = driver.z_from_packets(pk)
    ok = pk[:, 4] < driver.accept_fraction(np.zeros_like(z), z)
    radii = np.abs(z[ok, 0])
    assert len(radii) >= 20_000
    # reference: inverse of the CDF tabulated by Gauss-Legendre panels
    edges = np.geomspace(1.0, rmax, 4001)
    r, w = panel_nodes(edges, 8)
    g = 0.0 if spec.kappa.is_none else spec.kappa.g(r)
    dens = w * (1.0 + g) / (r * spec.phi(r))
    cdf = np.concatenate([[0.0], np.cumsum(dens.reshape(-1, 8).sum(axis=1))])
    ref = np.interp(gen.random(20_000) * cdf[-1], cdf, edges)
    # two-sample KS critical value at level 1e-3
    n, m = len(radii), len(ref)
    assert ks_statistic(radii, ref) <= 1.95 * np.sqrt((n + m) / (n * m))
    # the accepted rate is the tail mass, within 4 binomial standard errors
    p = cdf[-1] * spec.rho0.total_mass / driver.rate
    assert abs(ok.mean() - p) <= 4.0 * np.sqrt(p * (1.0 - p) / len(ok))
    # the acceptance factor is a probability on a dense radial grid
    rs = np.geomspace(1.0, rmax, 100_001)[1:, None]
    frac = driver.accept_fraction(np.zeros_like(rs), rs)
    assert np.all(frac > 0.0) and np.all(frac <= 1.0)


def test_driver_mixed_fixture_raises_no_integration_warning():
    # the unscaled horizon phi(1/eps) at eps = 1/32, where the cap is large
    settings = load_config(fixture_config("ex4_3_mixed"))
    horizon = float(settings.spec.phi(32.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        driver_from_spec(settings.spec, settings.sim, horizon)


# --------------------------------------------------------------------------
# scaled batches
# --------------------------------------------------------------------------

def test_scaled_batch_no_centering_region(sym_spec):
    cfg = SimConfig(paths=100, horizon=1.0, delta=0.25, seed=1, eps=0.25)
    batch = scaled_endpoint_batch(sym_spec, cfg)
    assert batch.n == 100
    # horizon arithmetic: unscaled horizon is phi(1/eps) * t = eps^{-1/2}
    assert batch.meta["unscaled_horizon"] == pytest.approx(0.25 ** -0.5)


def test_scaled_batch_symmetric_centering_is_noop():
    spec = make_spec(alpha=1.5, alpha0=1.2)
    drifts = EffectiveDrifts(b_bar=np.zeros(1), b_inf_bar=np.zeros(1))
    cfg = SimConfig(paths=64, horizon=1.0, delta=0.25, seed=4, eps=0.125)
    batch = scaled_endpoint_batch(spec, cfg, drifts)
    ends = simulate_endpoints_scaled_raw(spec, cfg)
    assert np.allclose(batch.samples, ends, atol=1e-12)


def simulate_endpoints_scaled_raw(spec, cfg):
    rho = float(spec.phi(1.0 / cfg.eps))
    return cfg.eps * simulate_endpoints(spec, cfg, horizon=rho * cfg.horizon)


def test_scaled_batch_missing_averages_raises():
    spec = make_spec(alpha=1.5, alpha0=1.2)
    cfg = SimConfig(paths=8, horizon=1.0, delta=0.25, seed=4, eps=0.125)
    from levyhom.regimes import RegimeError
    with pytest.raises(RegimeError):
        scaled_endpoint_batch(spec, cfg, None)


def test_batch_save_load_roundtrip(tmp_path, sym_spec):
    cfg = SimConfig(paths=32, horizon=1.0, delta=0.25, seed=1, eps=0.25)
    batch = scaled_endpoint_batch(sym_spec, cfg)
    p = tmp_path / "batch.npz"
    batch.save(p)
    loaded = EndpointBatch.load(p)
    assert np.array_equal(loaded.samples, batch.samples)
    assert loaded.regime == batch.regime and loaded.eps == batch.eps


def test_xdep_kernel_thinning_changes_rate(xdep_spec_1d):
    # acceptance ratio k/kmax < 1 on average: fewer accepted jumps than
    # candidates, matching the mean of k under the invariant measure
    cfg = SimConfig(paths=1, horizon=200.0, delta=0.5, seed=21)
    driver = driver_from_spec(xdep_spec_1d, cfg, 200.0)
    stats = {}
    run_paths(driver, 200.0, 1, cfg.seed,
              cfg.resolved_dt(xdep_spec_1d.small.alpha0), stats=stats)
    frac = stats["accepted"] / stats["candidates"]
    # k/kmax averages roughly mean(k)/1.5 = 2/3 under near-uniform occupation
    assert 0.5 < frac < 0.8


# --------------------------------------------------------------------------
# kernel functionals of the stepped engine, and what a run records
# --------------------------------------------------------------------------

def test_axes_functionals_fold_to_constants():
    settings = load_config(fixture_config("ex4_0_axes"))
    drv = driver_from_spec(settings.spec, settings.sim, 1.0)
    # the compensator vanishes by the z -> -z symmetry of the nodes and of k,
    # so the folded drift is zero and the engine has no drift at all
    assert drv.drift_fn is None and drv.constant_drift is None
    x = np.random.default_rng(3).random((50, 2)) * 4.0 - 2.0
    coef = drv.gauss_coef(x)
    assert coef.shape == (50,) and np.all(coef == coef[0]) and coef[0] > 0
    assert drv.meta["gauss_coef"] == {"route": "modes", "nodes": 1536,
                                      "x_modes": 0}
    assert drv.meta["compensator"] == {"route": "modes", "nodes": 576,
                                       "x_modes": 0}


def test_mixed_gauss_coef_keeps_x_modes():
    settings = load_config(fixture_config("ex4_3_mixed"))
    drv = driver_from_spec(settings.spec, settings.sim, 1.0)
    assert drv.meta["gauss_coef"]["x_modes"] == 2
    assert drv.drift_fn is None and drv.branch == "stepped"


def test_batch_meta_records_numerics(sym_spec):
    cfg = SimConfig(paths=16, horizon=1.0, delta=0.25, seed=1, eps=0.25)
    meta = scaled_endpoint_batch(sym_spec, cfg).meta
    assert 1.0 <= meta["rmax"] < np.inf and meta["delta"] == 0.25
    assert 0 < meta["dt"] <= 0.01 and meta["branch"] == "levy"
    assert meta["gauss_coef"] == {"route": "closed_form", "nodes": 0,
                                  "x_modes": 0}
    no_small = make_spec(alpha=0.5, alpha0=None)
    meta = scaled_endpoint_batch(no_small, cfg).meta
    assert meta["branch"] == "levy" and "gauss_coef" not in meta
    json.dumps(meta)


# --------------------------------------------------------------------------
# the engine against its per-round reference loops
# --------------------------------------------------------------------------

def _z_from_packets_reference(driver, pk):
    """Packets to jump vectors through the component search, for any count."""
    z = np.empty((pk.shape[0], driver.dim))
    comp_idx = np.searchsorted(driver._cum, pk[:, 0], side="right")
    comp_idx = np.minimum(comp_idx, len(driver.components) - 1)
    for ci, comp in enumerate(driver.components):
        sel = comp_idx == ci
        if sel.any():
            z[sel] = comp.radial(pk[sel, 1])[:, None] * comp.angular(
                pk[sel, 2], pk[sel, 3])
    return z


def _fresh_generators(seed, indices):
    return [np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed), np.uint64(i)], dtype=np.uint64)))
        for i in indices]


def _spec_callables(spec, driver):
    """Accept fraction, drift and Gaussian coefficient of ``driver`` built
    from the spec's own broadcasting calls (``PeriodicKernel.__call__``,
    ``DriftField.__call__``, ``TrigPoly.__call__``), not from the compiled
    functions the driver holds: k(x, z)/kmax (envelope-thinned for a non-power
    phi), the drift folded with the compensator, and k(X, 0) m2/d or the
    mode-route functional."""
    from levyhom.pathsim import _envelope_thinned
    from levyhom.spec_model import jump_nodes
    d, delta, kmax = spec.d, driver.meta["delta"], spec.kernel.kmax
    kernel = spec.kernel
    if driver.meta["accept"]["envelope"]:
        c, b = spec.phi.envelope()
        ghat = 0.0 if spec.kappa.is_none else spec.kappa.sup_abs(1.0)
        kernel = _envelope_thinned(spec, spec.kernel, kmax, c, b, ghat)

    def accept(x, z):
        return np.asarray(kernel(x, z)) / kmax

    drift = spec.drift
    if "compensator" in driver.meta:
        zc, wc, _ = jump_nodes(spec, delta, 1.0, 6, 4, 6)
        comp = spec.kernel.z_functional(zc, wc, zc)
        drift = DriftField([p - q for p, q in zip(drift.components,
                                                  comp.components)])
    gauss = None
    route = driver.meta.get("gauss_coef", {}).get("route")
    if route == "closed_form":
        m2 = spec.small.ball_second_moment(d, delta)

        def gauss(X):
            return spec.kernel(X, np.zeros_like(X)) * (m2 / d)
    elif route == "modes":
        zq, wq, _ = jump_nodes(spec, delta * 1e-4, delta, 4, 4, 6)
        gauss = spec.kernel.z_functional(zq, wq * np.sum(zq * zq, axis=1) / d)
    return accept, (lambda X: drift(X).reshape(X.shape)), gauss


def _levy_reference(spec, driver, T, n_paths, seed, start_sampler=None,
                    times=None):
    """Reference levy branch, one path at a time: states (n_paths, K, d) at
    ``times`` (default T). Fresh streams in the branch's layout (start
    uniforms, count, c times, c packets, K x d normals), the spec's
    uncompiled callables, sorted times, and each state summed jump by
    jump."""
    accept, drift, gauss = _spec_callables(spec, driver)
    d = driver.dim
    times = np.array([T]) if times is None else np.asarray(times, float)
    origin = np.zeros((1, d))
    out = np.empty((n_paths, len(times), d))
    for i, g in enumerate(_fresh_generators(seed, range(n_paths))):
        x = np.zeros(d) if start_sampler is None else \
            np.asarray(start_sampler(g.random(2)[None, :]), float).reshape(d)
        c = g.poisson(driver.rate * T) if driver.has_jumps else 0
        t = np.sort(g.random(c) * T)
        pk = g.random((c, 5))
        z = _z_from_packets_reference(driver, pk)
        ok = pk[:, 4] < accept(np.repeat(x[None, :], c, axis=0), z)
        for k, tk in enumerate(times):
            y = x.copy()
            for zj, okj in zip(z[:np.searchsorted(t, tk, side="right")],
                               ok):
                if okj:
                    y = y + zj
            out[i, k] = y
        if gauss is not None:
            coef = max(float(np.asarray(gauss(origin))[0]), 0.0)
            xi = g.standard_normal((len(times), d))
            out[i] += np.cumsum(np.sqrt(coef * np.diff(times, prepend=0.0)
                                        )[:, None] * xi, axis=0)
        if driver.has_drift:
            out[i] += times[:, None] * drift(origin)
    return out


def _run_paths_reference(spec, driver, T, n_paths, seed, dt,
                         start_sampler=None, chunk_size=64, branch=None):
    """Reference engine: per-path packet lists, packets mapped per round, and
    the spec's uncompiled callables (``_spec_callables``). ``branch``
    (default the driver's) "stepped" runs the Euler loop for any driver."""
    branch = driver.branch if branch is None else branch
    if branch == "levy":
        return _levy_reference(spec, driver, T, n_paths, seed,
                               start_sampler)[:, -1]
    accept, drift, gauss = _spec_callables(spec, driver)
    d = driver.dim
    n_steps = max(1, int(np.ceil(T / dt - 1e-12)))
    endpoints = np.empty((n_paths, d))
    for c0 in range(0, n_paths, chunk_size):
        c1 = min(c0 + chunk_size, n_paths)
        gens = _fresh_generators(seed, range(c0, c1))
        P = len(gens)
        if start_sampler is not None:
            u = np.stack([g.random(2) for g in gens])
            X = np.asarray(start_sampler(u), dtype=float).reshape(P, d).copy()
        else:
            X = np.zeros((P, d))
        counts = np.array([g.poisson(driver.rate * T) for g in gens],
                          dtype=np.int64)
        times_l, packets_l = [], []
        for g, c in zip(gens, counts):
            times_l.append(np.concatenate([np.sort(g.random(c) * T),
                                           [np.inf]]))
            packets_l.append(g.random((c, 5)))
        offsets = np.concatenate([[0], np.cumsum(counts + 1)])[:-1]
        times_flat = np.concatenate(times_l)
        packets_flat = np.concatenate(packets_l)
        pk_offsets = np.concatenate([[0], np.cumsum(counts)])[:-1]

        if branch == "thinning":
            bconst = None
            if driver.has_drift:
                bconst = drift(np.zeros((1, d))).reshape(d)
            for j in range(int(counts.max())):
                live = np.nonzero(counts > j)[0]
                pk = packets_flat[pk_offsets[live] + j]
                z = _z_from_packets_reference(driver, pk)
                if bconst is None:
                    frac = accept(X[live], z)
                else:
                    t_cand = times_flat[offsets[live] + j]
                    frac = accept(X[live] + t_cand[:, None] * bconst[None, :],
                                  z)
                ok = pk[:, 4] < frac
                X[live[ok]] += z[ok]
            if bconst is not None:
                X = X + T * bconst[None, :]
            endpoints[c0:c1] = X
            continue

        ptr = np.zeros(P, dtype=np.int64)
        next_t = times_flat[offsets]
        normals = None
        for step in range(n_steps):
            if step % 2048 == 0 and driver.has_gauss:
                blk = min(2048, n_steps - step)
                normals = np.stack([g.standard_normal((blk, d))
                                    for g in gens])
            t0 = step * dt
            dt_j = min(dt, T - t0)
            if dt_j <= 0:
                break
            X_start = X.copy()
            if driver.has_drift:
                b0 = drift(X)
                b1 = drift(X + b0 * dt_j)
                X = X + 0.5 * dt_j * (b0 + b1)
            if driver.has_gauss:
                xi = normals[:, step % 2048, :]
                coef = np.asarray(gauss(X_start))
                X = X + np.sqrt(np.maximum(coef, 0.0) * dt_j)[:, None] * xi
            while True:
                hit = np.nonzero(next_t <= t0 + dt_j)[0]
                if not len(hit):
                    break
                pk = packets_flat[pk_offsets[hit] + ptr[hit]]
                z = _z_from_packets_reference(driver, pk)
                ok = pk[:, 4] < accept(X[hit], z)
                X[hit[ok]] += z[ok]
                ptr[hit] += 1
                next_t[hit] = times_flat[offsets[hit] + ptr[hit]]
        endpoints[c0:c1] = X
    return endpoints


def _diffusive_case():
    from levyhom.ergodic import stationary_measure
    from levyhom.pathsim import measure_start_sampler
    spec = load_config(fixture_config("ex4_1_diffusive")).spec
    sampler = measure_start_sampler(stationary_measure(spec))
    return spec, SimConfig(delta=1.0), 256.0, 300, sampler


def test_stationary_starts_sit_on_the_measure_nodes():
    # mu's weights are density values at the nodes j/n, so a start is the
    # node of its drawn index, not a point half a cell past it
    from levyhom.ergodic import TorusMeasure
    from levyhom.grid import TorusGrid
    from levyhom.pathsim import measure_start_sampler
    u = np.random.default_rng(3).random((50, 1))
    one_cell = measure_start_sampler(TorusMeasure(TorusGrid(1, 1), [1.0]))
    assert np.array_equal(one_cell(u), np.zeros((50, 1)))
    grid = TorusGrid(2, 4)
    w = np.zeros(grid.size)
    w[5] = 1.0
    one_node = measure_start_sampler(TorusMeasure(grid, w))
    assert np.array_equal(one_node(u), np.tile(grid.centers[5], (50, 1)))


def _constant_case():
    # one component, the d = 2 uniform sphere, k = 1 and no drift
    return (make_spec(d=2, alpha=1.5, alpha0=None), SimConfig(), 32.0, 200,
            None)


def _axes_case():
    spec = load_config(fixture_config("ex4_0_axes")).spec
    return spec, SimConfig(delta=0.1), 1.0, 50, None


def _critical_case():
    # a constant kernel at kmax, no drift, a constant Gaussian coefficient
    spec = load_config(fixture_config("ex4_1_critical")).spec
    return spec, SimConfig(delta=0.25), 4.0, 60, None


def _drift_case():
    # a z-only kernel, a constant drift folded with the compensator, and
    # the mode-route Gaussian coefficient, in d = 1
    kernel = PeriodicKernel.trig(TrigPoly.const(1, 1, 1.0)
                                 + TrigPoly.cos_z(1, 1, (1,), 0.5))
    drift = DriftField([TrigPoly.const(1, 0, 0.7)])
    return (make_spec(alpha=1.5, alpha0=0.5, kernel=kernel, drift=drift),
            SimConfig(delta=0.25), 3.0, 60, None)


def _centered_case():
    # an x-only kernel, a trig drift and the closed-form Gaussian coefficient
    spec = load_config(fixture_config("ex4_1_centered")).spec
    return spec, SimConfig(delta=0.1), 1.0, 40, None


def _mixed_case():
    # an x-dependent Gaussian coefficient and envelope-thinned tail radii
    spec = load_config(fixture_config("ex4_3_mixed")).spec
    return spec, SimConfig(delta=0.25), 0.5, 30, None


@pytest.mark.parametrize("case,branch", [
    (_diffusive_case, "thinning"), (_constant_case, "levy"),
    (_axes_case, "levy"), (_critical_case, "levy"), (_drift_case, "levy"),
    (_centered_case, "stepped"), (_mixed_case, "stepped")],
    ids=["ex4_1_diffusive", "constant", "ex4_0_axes", "ex4_1_critical",
         "constant_drift", "ex4_1_centered", "ex4_3_mixed"])
def test_engine_matches_reference_loops(case, branch, pool_always):
    spec, cfg, T, n, sampler = case()
    driver = driver_from_spec(spec, cfg, T)
    assert driver.branch == branch
    dt = cfg.resolved_dt(spec.small.alpha0)
    ref = _run_paths_reference(spec, driver, T, n, 41, dt,
                               start_sampler=sampler)
    for workers in (1, 2, 3):
        ends = run_paths(driver, T, n, 41, dt, workers=workers,
                         start_sampler=sampler)
        assert np.array_equal(ends, ref), workers


def _undrifted_case():
    # no constant drift: the rounds read no times, so the tape draws them
    # into the accept uniforms' row, neither sorted nor kept
    raw = fixture_config("ex4_1_diffusive")
    raw["drift"] = {"variant": "zero"}
    return load_config(raw).spec, SimConfig(delta=1.0), 64.0, 120, None


def _drifted_d2_case():
    # an x-dependent kernel and a constant drift in d = 2: the tape holds
    # the shift t b, two values per candidate
    kernel = PeriodicKernel.trig(TrigPoly.const(2, 2, 1.0)
                                 + TrigPoly.cos_x(2, 2, (1, 1), 0.5))
    drift = DriftField([TrigPoly.const(2, 0, 0.3),
                        TrigPoly.const(2, 0, -0.2)])
    return (make_spec(d=2, alpha=1.5, alpha0=None, kernel=kernel,
                      drift=drift), SimConfig(), 16.0, 90, None)


@pytest.mark.parametrize("case,branch", [
    (_diffusive_case, "thinning"), (_undrifted_case, "thinning"),
    (_drifted_d2_case, "thinning"), (_centered_case, "stepped"),
    (_mixed_case, "stepped")],
    ids=["ex4_1_diffusive", "undrifted", "drifted_d2", "ex4_1_centered",
         "ex4_3_mixed"])
def test_tape_edges_match_reference_loops(case, branch, monkeypatch,
                                          pool_always):
    # chunks of 16 paths (the floor of the byte cap) and blocks of 4
    # candidates: a batch spans many chunks and blocks, and most paths are
    # longer than a block
    from levyhom import pathsim
    monkeypatch.setattr(pathsim, "_TAPE_BYTES", 1.0)
    monkeypatch.setattr(pathsim, "_PACKET_BLOCK", 4)
    spec, cfg, T, n, sampler = case()
    driver = driver_from_spec(spec, cfg, T)
    assert driver.branch == branch
    assert driver.rate * T > 4
    dt = cfg.resolved_dt(spec.small.alpha0)
    ref = _run_paths_reference(spec, driver, T, n, 43, dt,
                               start_sampler=sampler)
    for workers in (1, 2, 3):
        stats = {}
        ends = run_paths(driver, T, n, 43, dt, workers=workers,
                         start_sampler=sampler, stats=stats)
        assert np.array_equal(ends, ref), workers
        assert stats["chunk_paths"] <= 16


def test_tape_bytes_stay_near_the_cap_where_it_binds(monkeypatch):
    # the cap sizes a chunk by the expected count; the tape's rows are as
    # long as the chunk's longest path, so its padding passes the cap a
    # little. Levy runs hold no tape.
    from levyhom import pathsim
    monkeypatch.setattr(pathsim, "_TAPE_BYTES", 1.6e6)
    spec, cfg, _, _, sampler = _diffusive_case()
    T = 2048.0
    driver = driver_from_spec(spec, cfg, T)
    stats = {}
    run_paths(driver, T, 100, 5, 0.01, start_sampler=sampler, stats=stats)
    assert stats["chunk_paths"] == 25
    assert 8 * 3 * 25 * driver.rate * T <= stats["tape_bytes"] \
        <= 1.1 * pathsim._TAPE_BYTES
    spec, cfg, T, n, _ = _critical_case()
    stats = {}
    run_paths(driver_from_spec(spec, cfg, T), T, n, 5, 0.01, stats=stats)
    assert stats["tape_bytes"] == 0


@pytest.mark.parametrize("poison", [np.inf, 2.0])
@pytest.mark.parametrize("name", ["ex4_1_cauchy", "ex4_1_centered",
                                  "ex4_1_diffusive", "ex4_1_stable",
                                  "ex4_3_mixed"])
def test_padding_never_reaches_the_numerics(name, poison, monkeypatch):
    # every float np.empty of the run comes filled with the poison, which
    # the padding slots of the tape keep: a padding slot read (inf reaches
    # the kernel's cosine) or a padding packet mapped (a radius uniform of
    # 2 is the power of a negative number) would raise here, or move an
    # endpoint
    settings = load_config(fixture_config(name))
    cfg = SimConfig(paths=60, horizon=2.0, delta=settings.sim.delta, seed=9)
    driver = driver_from_spec(settings.spec, cfg, 2.0)
    assert driver.branch != "levy"
    dt = cfg.resolved_dt(settings.spec.small.alpha0)
    want = run_paths(driver, 2.0, 60, 9, dt)
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(poison)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    with warnings.catch_warnings(), np.errstate(invalid="raise",
                                                divide="raise", over="raise"):
        warnings.simplefilter("error")
        got = run_paths(driver, 2.0, 60, 9, dt)
        snaps = run_paths(driver, 2.0, 60, 9, dt, times=[1.0, 2.0])
    assert np.array_equal(got, want)
    assert np.all(np.isfinite(snaps))


@pytest.mark.parametrize("block", [50, 400])
@pytest.mark.parametrize("name", ["ex4_0_axes", "ex4_1_critical"])
def test_levy_snapshots_match_reference(name, block, monkeypatch):
    # blocks of a few paths (400), or paths longer than a block (50)
    from levyhom import pathsim
    monkeypatch.setattr(pathsim, "_PACKET_BLOCK", block)
    spec = load_config(fixture_config(name)).spec
    cfg = SimConfig(paths=40, horizon=5.0, delta=0.25, seed=8)
    times = [0.5, 2.0, 2.0, 5.0]
    driver = driver_from_spec(spec, cfg, 5.0)
    assert 50 < driver.rate * 5.0 < 400 / 3
    ref = _levy_reference(spec, driver, 5.0, 40, 8, times=times)
    assert np.array_equal(simulate_snapshots(spec, cfg, times), ref)


@pytest.mark.parametrize("name", ["ex4_0_axes", "ex4_1_critical"])
def test_levy_chunks_follow_the_tape_byte_rule(name, monkeypatch,
                                               pool_always):
    # one chunk rule for every branch: at a one-byte cap levy chunks hold
    # the floor of 16 paths, and a batch of three or four chunks gives the
    # reference's endpoints and snapshots
    from levyhom import pathsim
    monkeypatch.setattr(pathsim, "_TAPE_BYTES", 1.0)
    spec = load_config(fixture_config(name)).spec
    cfg = SimConfig(paths=40, horizon=5.0, delta=0.25, seed=8)
    times = [0.5, 2.0, 2.0, 5.0]
    driver = driver_from_spec(spec, cfg, 5.0)
    assert driver.branch == "levy"
    ends_ref = _levy_reference(spec, driver, 5.0, 40, 8)[:, -1]
    snaps_ref = _levy_reference(spec, driver, 5.0, 40, 8, times=times)
    dt = cfg.resolved_dt(spec.small.alpha0)
    for workers in (1, 2, 3):
        stats, snap_stats = {}, {}
        ends = run_paths(driver, 5.0, 40, 8, dt, workers=workers,
                         stats=stats)
        snaps = run_paths(driver, 5.0, 40, 8, dt, times=times,
                          workers=workers, stats=snap_stats)
        assert stats["chunk_paths"] <= 16 and snap_stats["chunk_paths"] <= 16
        assert np.array_equal(ends, ends_ref), workers
        assert np.array_equal(snaps, snaps_ref), workers


@pytest.mark.parametrize("name", ["ex4_0_axes", "ex4_1_critical"])
def test_levy_snapshot_at_the_horizon_is_the_endpoint(name):
    spec = load_config(fixture_config(name)).spec
    cfg = SimConfig(paths=300, horizon=3.0, delta=0.25, seed=5)
    snaps = simulate_snapshots(spec, cfg, [3.0])
    assert snaps.shape == (300, 1, 2)
    assert np.array_equal(snaps[:, 0], simulate_endpoints(spec, cfg))


@pytest.mark.parametrize("name, branch", [("ex4_1_critical", "levy"),
                                          ("ex4_1_centered", "stepped")])
def test_snapshot_columns_follow_the_given_times(name, branch):
    spec = load_config(fixture_config(name)).spec
    cfg = SimConfig(paths=30, horizon=2.0, delta=0.25, seed=6)
    assert driver_from_spec(spec, cfg, 2.0).branch == branch
    ascending = simulate_snapshots(spec, cfg, [0.05, 2.0])
    descending = simulate_snapshots(spec, cfg, [2.0, 0.05])
    assert not np.array_equal(ascending[:, 0], ascending[:, 1])
    assert np.array_equal(descending, ascending[:, ::-1])


@pytest.mark.parametrize("name, T",[("ex4_0_axes", 4.0),
                                     ("ex4_1_critical", 8.0)])
def test_levy_endpoints_match_stepped_law(name, T):
    # both branches are exact in law for an x-independent spec, so their
    # endpoints (independent streams) agree in a two-sample KS test
    from scipy.stats import ks_2samp
    spec = load_config(fixture_config(name)).spec
    cfg = SimConfig(delta=0.25)
    driver = driver_from_spec(spec, cfg, T)
    dt = cfg.resolved_dt(spec.small.alpha0)
    levy = run_paths(driver, T, 2000, 61, dt)
    stepped = _run_paths_reference(spec, driver, T, 2000, 62, dt,
                                   chunk_size=1000, branch="stepped")
    for v in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
        assert ks_2samp(levy @ v, stepped @ v).pvalue >= 0.01, v


_ROUTES = {
    # fixture: (accept route, envelope, drift route, gauss_coef route)
    "ex4_1_stable": ("x_modes", False, "none", "closed_form"),
    "ex4_1_cauchy": ("constant", False, "x_modes", "closed_form"),
    "ex4_1_centered": ("x_modes", False, "x_modes", "closed_form"),
    "ex4_1_critical": ("constant", False, "none", "closed_form"),
    "ex4_1_diffusive": ("x_modes", False, "constant", None),
    "ex4_3_mixed": ("joint", True, "none", "modes"),
    "ex4_0_axes": ("z_modes", False, "none", "modes"),
}


def _spread_states(rng, n, d):
    """n states (n, d): a third in [-1, 1), the rest with |x| up to 1e4 and
    either sign, as diffusive paths reach at T = 4096."""
    X = rng.uniform(-1.0, 1.0, (n, d))
    far = slice(n // 3, n)
    X[far] *= 10.0 ** rng.uniform(0.0, 4.0, (n - n // 3, d))
    return X


@pytest.mark.parametrize("name", sorted(_ROUTES))
def test_compiled_functions_match_spec_calls(name):
    settings = load_config(fixture_config(name))
    spec = settings.spec
    driver = driver_from_spec(spec, settings.sim, 1.0)
    accept_route, envelope, drift_route, gauss_route = _ROUTES[name]
    assert driver.meta["accept"] == {"route": accept_route,
                                     "envelope": envelope}
    assert driver.meta["drift"] == {"route": drift_route}
    assert driver.meta.get("gauss_coef", {}).get("route") == gauss_route
    # the routes flow into the batch meta
    cfg = SimConfig(paths=4, horizon=1.0, delta=settings.sim.delta, seed=1,
                    eps=0.5)
    meta = scaled_endpoint_batch(spec, cfg, EffectiveDrifts(
        b_bar=np.zeros(spec.d), b_inf_bar=np.zeros(spec.d),
        b_trunc_bar=lambda R: np.zeros(spec.d))).meta
    assert (meta["accept"], meta["drift"]) == (driver.meta["accept"],
                                               driver.meta["drift"])

    rng = np.random.default_rng(17)
    X = _spread_states(rng, 2000, spec.d)
    z = driver.z_from_packets(rng.random((2000, 5)))
    accept, drift, gauss = _spec_callables(spec, driver)
    assert np.array_equal(driver.accept_fraction(X, z), accept(X, z))
    if driver.has_drift:
        assert np.array_equal(driver.drift(X), drift(X))
    if gauss is not None:
        assert np.array_equal(driver.gauss_coef(X), gauss(X))


def test_trigpoly_evaluator_matches_call():
    rng = np.random.default_rng(4)
    x, z = _spread_states(rng, 500, 2), rng.uniform(-30.0, 30.0, (500, 2))
    polys = [
        TrigPoly.const(2, 2, 1.5),                                 # no terms
        TrigPoly.cos_x(2, 2, (1, -2), 0.3) + 1.0,                  # x only
        TrigPoly.sin_x(2, 0, (0, 3), 0.7),                         # sine, dz 0
        TrigPoly.cos_z(2, 2, (2, 1), 0.4) + 1.0,                   # z only
        TrigPoly.cos_x(2, 2, (1, 0)) * TrigPoly.cos_z(2, 2, (0, 1))
        + TrigPoly.sin_x(2, 2, (1, 1), 0.2),                       # joint
        # one x-dimension: its phase and a single term's amplitude are
        # elementwise products
        TrigPoly.cos_x(1, 1, (1,), 0.9) + 1.0,                     # one term
        TrigPoly.cos_x(1, 0, (1,), 0.3) + TrigPoly.sin_x(1, 0, (3,), 0.7),
        TrigPoly.cos_x(1, 1, (2,), 0.5) + TrigPoly.cos_z(1, 1, (1,), 0.4),
    ]
    for poly in polys:
        f = poly.evaluator()
        xp, zp = x[:, :poly.dim_x], z[:, :poly.dim_z]
        want = poly(xp, zp) if poly.dim_z else poly(xp)
        assert np.array_equal(f(xp, zp), want)
        if not poly.depends_on_z():
            assert np.array_equal(f(xp), want)


def test_numpy_integer_seed_matches_python_int():
    spec = load_config(fixture_config("ex4_0_axes")).spec
    ends = [simulate_endpoints(spec, SimConfig(paths=4, horizon=1.0,
                                               delta=0.1, seed=seed))
            for seed in (3, np.int64(3), np.uint64(3))]
    assert np.array_equal(ends[0], ends[1])
    assert np.array_equal(ends[0], ends[2])


def test_single_component_packets_match_component_search():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    pk = gen.random((5000, 5))
    for spec in (load_config(fixture_config("ex4_1_diffusive")).spec,
                 make_spec(d=2, alpha=1.5, alpha0=None),
                 make_spec(d=3, alpha=1.5, alpha0=None)):
        driver = driver_from_spec(spec, SimConfig(delta=1.0), 8.0)
        assert len(driver.components) == 1
        assert np.array_equal(driver.z_from_packets(pk),
                              _z_from_packets_reference(driver, pk))


TWO_COMPONENT_FIXTURES = sorted(set(FIXTURES) - {"ex4_1_diffusive"})


def _pick(pk, cum, ci):
    """The packets with column 0 moved into component ci's interval of the
    cumulative table: the search picks ci for every one of them."""
    lo = cum[ci - 1] if ci else 0.0
    out = pk.copy()
    out[:, 0] = lo + (cum[ci] - lo) * pk[:, 0]
    picked = np.minimum(np.searchsorted(cum, out[:, 0], side="right"),
                        len(cum) - 1)
    assert np.all(picked == ci)
    return out


@pytest.mark.parametrize("name", TWO_COMPONENT_FIXTURES)
def test_two_component_packets_match_component_search(name):
    # every packet is mapped through the heaviest component, then the rest
    # are remapped: blocks of 2^16 and 2^14 (_PACKET_BLOCK) packets with
    # both components, all heaviest, none heaviest, and the empty block
    settings = load_config(fixture_config(name))
    driver = driver_from_spec(settings.spec, settings.sim, 8.0)
    assert len(driver.components) == 2
    cum = driver._cum
    heavy = int(np.argmax([c.mass for c in driver.components]))
    gen = np.random.Generator(np.random.Philox(key=np.uint64(6)))
    for m in (1 << 16, 1 << 14):
        pk = gen.random((m, 5))
        for block in (pk, _pick(pk, cum, heavy), _pick(pk, cum, 1 - heavy),
                      pk[:0]):
            z = driver.z_from_packets(block)
            assert z.shape == (len(block), driver.dim)
            assert np.array_equal(z, _z_from_packets_reference(driver, block))


def test_a_driver_without_jumps_maps_empty_blocks():
    # a zero kernel leaves no candidate mass: the levy branch still maps
    # each chunk's empty block
    spec = make_spec(alpha=1.5, alpha0=None, kernel=PeriodicKernel.trig(
        TrigPoly.const(1, 1, 0.0)))
    driver = driver_from_spec(spec, SimConfig(), 1.0)
    assert driver.components == [] and driver.branch == "levy"
    assert driver.z_from_packets(np.empty((0, 5))).shape == (0, 1)
    assert np.array_equal(run_paths(driver, 1.0, 5, 0, 0.01), np.zeros((5, 1)))


# --------------------------------------------------------------------------
# workers: counters, pool size, validation and fork safety
# --------------------------------------------------------------------------

def test_batch_counters_identical_across_workers():
    spec = load_config(fixture_config("ex4_1_diffusive")).spec
    metas = []
    for workers in (1, 2, 3, 7):
        cfg = SimConfig(paths=120, horizon=1.0, delta=1.0, seed=3, eps=0.25,
                        workers=workers)
        batch = scaled_endpoint_batch(spec, cfg, EffectiveDrifts(
            b_bar=np.zeros(1), b_inf_bar=np.zeros(1)))
        metas.append(batch.meta)
        meta = batch.meta
        assert 0 <= meta["accepted"] <= meta["candidates"]
        assert 1 <= meta["chunk_paths"] <= 120
        assert meta["tape_bytes"] >= 8 * 3 * meta["candidates"] / 120
        json.dumps(meta)
    assert metas[0]["candidates"] > 0
    for meta in metas[1:]:
        assert (meta["candidates"], meta["accepted"]) == \
            (metas[0]["candidates"], metas[0]["accepted"])
    # about 2.4e3 expected candidates: far too little work for a pool
    assert [m["pool_processes"] for m in metas] == [0, 0, 0, 0]


def test_pool_runs_batches_above_the_work_threshold():
    import os
    from levyhom.pathsim import _POOL_WORK
    spec = load_config(fixture_config("ex4_1_diffusive")).spec
    batches = []
    for workers in (1, 2, 7):
        cfg = SimConfig(paths=2000, horizon=1.0, delta=1.0, seed=3,
                        eps=1 / 16, workers=workers)
        batches.append(scaled_endpoint_batch(spec, cfg, EffectiveDrifts(
            b_bar=np.zeros(1), b_inf_bar=np.zeros(1))))
    assert batches[0].meta["candidates"] >= _POOL_WORK
    for workers, batch in zip((1, 2, 7), batches):
        # the pool never outgrows the machine, whatever workers asks for
        procs = min(workers, os.cpu_count())
        assert batch.meta["pool_processes"] == (procs if procs > 1 else 0)
        assert np.array_equal(batch.samples, batches[0].samples)


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_rejected(workers, sym_spec, tmp_path):
    from levyhom.cli import main
    from levyhom.config import ConfigSchemaError, dump_config
    with pytest.raises(ConfigError, match="workers"):
        SimConfig(workers=workers)
    driver = driver_from_spec(sym_spec, SimConfig(), 1.0)
    with pytest.raises(ConfigError, match="workers"):
        run_paths(driver, 1.0, 4, 0, 0.01, workers=workers)
    raw = fixture_config("ex4_1_stable")
    raw["sim"]["workers"] = workers
    with pytest.raises(ConfigSchemaError, match="workers"):
        load_config(raw)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(fixture_config("ex4_1_stable")))
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(cfg), "--out", str(tmp_path / "v"),
              "--workers", str(workers)])
    assert exc.value.code == 4


_FORK_SCRIPT = """
import numpy as np
from levyhom import pathsim
from levyhom.config import fixture_config, load_config
from levyhom.pathsim import SimConfig, driver_from_spec, run_paths

# a BLAS call large enough to start the BLAS thread pool before the fork
a = np.random.default_rng(0).random((400, 400))
np.linalg.solve(a @ a.T + np.eye(400), np.ones(400))
spec = load_config(fixture_config("ex4_0_axes")).spec
driver = driver_from_spec(spec, SimConfig(delta=0.1), 1.0)
pathsim._POOL_WORK = 0     # fork for this small batch too
ends = [run_paths(driver, 1.0, 40, 9, 0.01, workers=w) for w in (2, 1)]
print("equal" if np.array_equal(*ends) else "differ")
"""


def test_pool_forks_safely_under_default_blas_threads():
    assert fresh_python(_FORK_SCRIPT).split() == ["equal"]


# --------------------------------------------------------------------------
# re-keyed per-path streams
# --------------------------------------------------------------------------

def _draws(g):
    u = np.empty(7)
    g.random(out=u)
    return (g.poisson(3.5), u, g.standard_normal((3, 2)),
            g.integers(0, 2 ** 32, size=3, dtype=np.uint32), g.random())


def test_rekeyed_generators_match_fresh_philox():
    from levyhom.pathsim import _path_generators
    # dirty the cache with another seed and more paths; leave the streams
    # mid-buffer and holding a spare 32-bit half
    for j, g in enumerate(_path_generators(99, range(40))):
        g.random(1 + j % 3)
        g.integers(0, 2 ** 32, dtype=np.uint32)
    rows = np.arange(5, 25)
    for g, fresh in zip(_path_generators(7, rows),
                        _fresh_generators(7, rows)):
        for a, b in zip(_draws(g), _draws(fresh)):
            assert np.array_equal(a, b)


def test_fresh_and_grown_generator_caches_match_fresh_philox(monkeypatch):
    # new cache entries share one SeedSequence; the re-keying alone sets
    # their streams, in a fresh cache as in one grown past a used one
    from levyhom import pathsim

    def streams(g):
        return g.random(5), g.poisson(2.5, 4), g.standard_normal((3, 2))

    monkeypatch.setattr(pathsim, "_GENERATORS", [])
    for seed, rows, cached in ((3, np.arange(8), 8),
                               (-4, np.arange(12, 32), 20),
                               (3, np.arange(0, 40, 2), 20)):
        gens = pathsim._path_generators(seed, rows)
        assert len(pathsim._GENERATORS) == cached
        for g, i in zip(gens, rows):
            fresh = np.random.Generator(np.random.Philox(
                key=pathsim.philox_key(seed, i)))
            for a, b in zip(streams(g), streams(fresh)):
                assert a.tobytes() == b.tobytes()


_STREAM_SCRIPT = """
import hashlib
from levyhom.config import fixture_config, load_config
from levyhom.pathsim import SimConfig, driver_from_spec, run_paths

spec = load_config(fixture_config("ex4_0_axes")).spec
driver = driver_from_spec(spec, SimConfig(delta=0.1), 1.0)
print(hashlib.sha256(run_paths(driver, 1.0, 30, 12, 0.01).tobytes())
      .hexdigest())
"""


def test_run_paths_twice_matches_a_fresh_process(pool_always):
    import hashlib
    import os
    spec = load_config(fixture_config("ex4_0_axes")).spec
    driver = driver_from_spec(spec, SimConfig(delta=0.1), 1.0)
    assert driver.has_gauss and driver.has_jumps   # poisson, random, normals
    run_paths(driver, 1.0, 45, 11, 0.01)    # another seed, more paths
    here = run_paths(driver, 1.0, 30, 12, 0.01)
    stats = {}
    # forked workers inherit the dirty cache
    pooled = run_paths(driver, 1.0, 30, 12, 0.01, workers=2, stats=stats)
    assert stats["pool_processes"] == (2 if os.cpu_count() > 1 else 0)
    fresh = fresh_python(_STREAM_SCRIPT).split()
    assert [hashlib.sha256(e.tobytes()).hexdigest()
            for e in (here, pooled)] == fresh * 2
