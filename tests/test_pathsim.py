"""Path engine: thinning identities, characteristic-function calibration,
refinement stability, and the bit-reproducibility contract."""

import json
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from levyhom.config import fixture_config, load_config
from levyhom.pathsim import (ConfigError, EndpointBatch, SimConfig,
                             choose_rmax, driver_from_spec, occupation_counts,
                             quotient_path, sample_path, scaled_endpoint_batch,
                             simulate_endpoints)
from levyhom.quadrature import panel_nodes
from levyhom.regimes import EffectiveDrifts
from levyhom.spec_model import (DriftField, PeriodicKernel,
                                RadialPerturbation, ScalingFunction,
                                SmallJumpPart, SphericalMeasure)
from levyhom.trigpoly import TrigPoly
from levyhom.verify import ks_statistic

from conftest import make_spec


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
    cfg = SimConfig(paths=1, horizon=50.0, delta=0.25, seed=3)
    counts = []
    for seed in range(40):
        rec = sample_path(sym_spec, SimConfig(paths=1, horizon=50.0,
                                              delta=0.25, seed=seed))
        counts.append(rec.jump_accepted.sum())
    counts = np.asarray(counts, dtype=float)
    d = 1
    small_mass = sym_spec.small.annulus_mass(d, 0.25, 1.0)
    rmax = driver_from_spec(sym_spec, cfg, 50.0).meta["rmax"]
    sph_mass = sym_spec.rho0.total_mass * \
        sym_spec.phi.radial_tail_mass(1.0, rmax)
    lam = (small_mass + sph_mass) * 50.0     # k = 1 so thinning accepts all
    se = np.sqrt(lam / len(counts))
    assert abs(counts.mean() - lam) <= 3 * se


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


def test_bit_exact_reproducibility_across_workers(sym_spec):
    outs = []
    for workers in (1, 3, 7):
        cfg = SimConfig(paths=500, horizon=1.0, delta=0.25, seed=23,
                        workers=workers)
        outs.append(simulate_endpoints(sym_spec, cfg))
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_seed_reproducibility(sym_spec):
    cfg = SimConfig(paths=64, horizon=1.0, delta=0.25, seed=5)
    a = simulate_endpoints(sym_spec, cfg)
    b = simulate_endpoints(sym_spec, cfg)
    assert np.array_equal(a, b)


def test_quotient_uniform_marginal(sym_spec):
    cfg = SimConfig(paths=400, horizon=100.0, delta=0.25, seed=2)
    counts = occupation_counts(sym_spec, cfg, grid_n=16, burn_in=5.0)
    w = counts / counts.sum()
    tv = 0.5 * np.abs(w - 1.0 / 16).sum()
    assert tv <= 0.05


def test_quotient_translation_invariance(sym_spec):
    # starting one period apart gives identical quotient paths
    cfg = SimConfig(paths=1, horizon=5.0, delta=0.25, seed=9)
    p0 = quotient_path(sym_spec, cfg, x0=np.array([0.25]))
    p1 = quotient_path(sym_spec, cfg, x0=np.array([1.25]))
    assert np.allclose(p0.states, p1.states, atol=1e-12)


def test_truncation_budget_enforced(sym_spec):
    cfg = SimConfig(paths=4, horizon=1.0, delta=0.25, rmax=3.0, seed=0)
    with pytest.raises(ConfigError):
        simulate_endpoints(sym_spec, cfg)


def test_choose_rmax_meets_budget(sym_spec):
    r = choose_rmax(sym_spec, horizon=10.0, budget=1e-6,
                    kmax=sym_spec.kernel.kmax)
    tail = sym_spec.rho0.total_mass * sym_spec.phi.radial_tail_mass(r, np.inf)
    assert tail * 10.0 * sym_spec.kernel.kmax <= 1e-6 * 1.01


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
    cfg = SimConfig(paths=100, horizon=1.0, delta=0.25, seed=1, eps=0.25,
                    regime="stable_no_center")
    batch = scaled_endpoint_batch(sym_spec, cfg)
    assert batch.n == 100
    # horizon arithmetic: unscaled horizon is phi(1/eps) * t = eps^{-1/2}
    assert batch.meta["unscaled_horizon"] == pytest.approx(0.25 ** -0.5)


def test_scaled_batch_symmetric_centering_is_noop():
    spec = make_spec(alpha=1.5, alpha0=1.2)
    drifts = EffectiveDrifts(b_bar=np.zeros(1), b_inf_bar=np.zeros(1))
    cfg = SimConfig(paths=64, horizon=1.0, delta=0.25, seed=4, eps=0.125,
                    regime="stable_center")
    batch = scaled_endpoint_batch(spec, cfg, drifts)
    cfg2 = SimConfig(paths=64, horizon=1.0, delta=0.25, seed=4, eps=0.125,
                     regime="stable_no_center")
    spec_nc = make_spec(alpha=1.5, alpha0=1.2)
    # bypass the regime-index consistency check by comparing raw endpoints
    ends = simulate_endpoints_scaled_raw(spec_nc, cfg2)
    assert np.allclose(batch.samples, ends, atol=1e-12)


def simulate_endpoints_scaled_raw(spec, cfg):
    from levyhom.pathsim import simulate_endpoints_with_horizon
    rho = float(spec.phi(1.0 / cfg.eps))
    ends = simulate_endpoints_with_horizon(spec, cfg, rho * cfg.horizon)
    return cfg.eps * ends


def test_scaled_batch_missing_averages_raises():
    spec = make_spec(alpha=1.5, alpha0=1.2)
    cfg = SimConfig(paths=8, horizon=1.0, delta=0.25, seed=4, eps=0.125,
                    regime="stable_center")
    from levyhom.regimes import RegimeError
    with pytest.raises(RegimeError):
        scaled_endpoint_batch(spec, cfg, None)


def test_scaled_batch_regime_consistency():
    spec = make_spec(alpha=0.5)
    cfg = SimConfig(paths=8, horizon=1.0, seed=0, eps=0.25, regime="diffusive")
    with pytest.raises(ConfigError):
        scaled_endpoint_batch(spec, cfg, EffectiveDrifts(np.zeros(1),
                                                         np.zeros(1)))


def test_batch_save_load_roundtrip(tmp_path, sym_spec):
    cfg = SimConfig(paths=32, horizon=1.0, delta=0.25, seed=1, eps=0.25,
                    regime="stable_no_center")
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
    rec = sample_path(xdep_spec_1d, cfg)
    frac = rec.jump_accepted.mean()
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
    assert isinstance(drv.gauss_coef, TrigPoly)
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


def _callback_spec():
    def fn(x, z):
        return 1.0 + 0.4 * np.cos(2 * np.pi * (x[..., 0] - 2 * z[..., 1])) \
            * np.sin(2 * np.pi * z[..., 0]) ** 2

    drift = DriftField.trig([TrigPoly.cos_x(2, 0, (1, 0), 0.3),
                             TrigPoly.const(2, 0, 0.1)])
    return make_spec(d=2, alpha=0.8, alpha0=1.1, drift=drift,
                     kernel=PeriodicKernel.callback(2, fn, 0.6, 1.4),
                     rho0=SphericalMeasure.uniform(2, 1.0))


def test_callback_functionals_bit_identical_to_node_closures():
    from levyhom.spec_model import jump_nodes
    spec, delta = _callback_spec(), 0.25
    drv = driver_from_spec(spec, SimConfig(delta=delta), 1.0)
    # reference: the node sums written out, as the node route must compute
    zq, wq, _ = jump_nodes(spec, delta * 1e-4, delta, 4, 4, 6)
    tw = wq * np.sum(zq * zq, axis=1) / 2
    zc, wc, _ = jump_nodes(spec, delta, 1.0, 6, 4, 6)
    assert drv.meta["gauss_coef"] == {"route": "nodes", "nodes": len(wq),
                                      "x_modes": None}
    assert drv.meta["compensator"] == {"route": "nodes", "nodes": len(wc),
                                       "x_modes": None}

    def kv(X, z):
        return spec.kernel(X[:, None, :],
                           np.broadcast_to(z, (X.shape[0],) + z.shape))

    X = np.random.default_rng(8).random((64, 2)) * 3.0 - 1.0
    assert np.array_equal(drv.gauss_coef(X), kv(X, zq) @ tw)
    assert np.array_equal(drv.drift_fn(X), spec.drift(X).reshape(X.shape)
                          - np.einsum("pq,q,qd->pd", kv(X, zc), wc, zc))


def test_batch_meta_records_numerics(sym_spec):
    cfg = SimConfig(paths=16, horizon=1.0, delta=0.25, seed=1, eps=0.25,
                    regime="stable_no_center")
    meta = scaled_endpoint_batch(sym_spec, cfg).meta
    assert 1.0 <= meta["rmax"] < np.inf and meta["delta"] == 0.25
    assert 0 < meta["dt"] <= 0.01 and meta["branch"] == "stepped"
    assert meta["gauss_coef"] == {"route": "closed_form", "nodes": 0,
                                  "x_modes": 0}
    no_small = make_spec(alpha=0.5, alpha0=None)
    meta = scaled_endpoint_batch(no_small, cfg).meta
    assert meta["branch"] == "thinning" and "gauss_coef" not in meta
    json.dumps(meta)
