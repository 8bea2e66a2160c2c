"""Invariant measure estimators, mixing fits, and ergodic-average decay."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from levyhom import ergodic, pathsim
from levyhom.config import FIXTURES, fixture_config, load_config
from levyhom.corrector import assemble_operator, fourier_multiplier
from levyhom.ergodic import (TorusMeasure, effective_drifts,
                             ergodic_average_decay, estimate_invariant_measure,
                             kernel_tail_constant, mixing_rate, mu_average,
                             stationary_measure)
from levyhom.grid import TorusGrid
from levyhom.pathsim import SimConfig
from levyhom.spec_model import PeriodicKernel, SphericalMeasure
from levyhom.trigpoly import TrigPoly

from conftest import make_spec
from oracles import stationary_measure_grid


def harmonic_profile_measure(n):
    """Analytic invariant law for k(x) = 1 + 0.5 cos(2 pi x): density 1/k."""
    x = np.arange(n) / n
    w = 1.0 / (1.0 + 0.5 * np.cos(2 * np.pi * x))
    return w / w.sum()


def test_torus_measure_invariants():
    mu = TorusMeasure.uniform(1, 16)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        TorusMeasure(mu.grid, np.full(16, 0.5))


def _to_csv_per_row(mu, path):
    """The per-row format: every coordinate and weight through %.17g."""
    d = mu.grid.d
    row = ",".join(["%d"] + ["%.17g"] * (d + 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["cell"] + [f"x_{a}" for a in range(d)]
                          + ["weight"]) + "\r\n")
        table = np.column_stack([mu.centers, mu.weights])
        fh.writelines(row % (i, *r) for i, r in enumerate(
            map(np.ndarray.tolist, table)))


@pytest.mark.parametrize("d, n", [(1, 128), (2, 64), (3, 7)])
def test_measure_csv_bytes_match_the_per_row_format(d, n, tmp_path):
    w = np.random.default_rng(d).dirichlet(np.ones(n ** d))
    mu = TorusMeasure(TorusGrid(d, n), w)
    mu.to_csv(tmp_path / "fast.csv")
    _to_csv_per_row(mu, tmp_path / "rows.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "rows.csv").read_bytes()
    assert fast.count(b"\r\n") == n ** d + 1


def test_mu_average_trivials():
    mu = TorusMeasure.uniform(1, 64)
    assert mu_average(mu, lambda pts: np.full(len(pts), 2.5)) == \
        pytest.approx(2.5)
    val = mu_average(mu, lambda pts: np.cos(2 * np.pi * pts[:, 0]))
    assert abs(val) < 1e-12


def test_grid_measure_uniform_for_x_independent(constant_spec_1d):
    mu = stationary_measure_grid(constant_spec_1d, 64)
    assert mu.tv_distance(TorusMeasure.uniform(1, 64)) < 1e-10


def test_grid_measure_matches_analytic_profile(xdep_spec_1d):
    # symmetric jumps with intensity k(x): invariant density proportional 1/k
    mu = stationary_measure_grid(xdep_spec_1d, 64)
    want = harmonic_profile_measure(64)
    assert 0.5 * np.abs(mu.weights - want).sum() < 0.01


def test_mc_measure_uniform_for_x_independent(constant_spec_1d):
    cfg = SimConfig(paths=200, horizon=200.0, delta=0.25, seed=3)
    mu = estimate_invariant_measure(constant_spec_1d, cfg, grid_n=16)
    assert mu.tv_distance(TorusMeasure.uniform(1, 16)) <= 0.05
    assert mu.meta["warning"] == ""


def test_mc_measure_matches_grid_for_x_dependent(xdep_spec_1d):
    cfg = SimConfig(paths=200, horizon=150.0, delta=0.25, seed=5)
    mu_mc = estimate_invariant_measure(xdep_spec_1d, cfg, grid_n=16)
    mu_grid = stationary_measure_grid(xdep_spec_1d, 16)
    assert mu_mc.tv_distance(mu_grid) <= 0.05


def test_occupation_states_count_at_their_nearest_node(constant_spec_1d,
                                                      monkeypatch):
    # the histogram is compared with measures that hold weights at the nodes
    # j/n, so a state within h/2 of a node counts there, across the wrap too
    h = 1.0 / 8
    planted = np.array([3 * h - 0.4 * h, 3 * h + 0.4 * h,
                        7.0 + 3 * h + 0.4 * h, -1.0 - 0.4 * h])

    def snapshots(spec, cfg, times, x0=None):
        return np.broadcast_to(planted[:cfg.paths, None, None],
                               (cfg.paths, len(times), 1))

    monkeypatch.setattr(ergodic, "simulate_snapshots", snapshots)
    mu = estimate_invariant_measure(
        constant_spec_1d, SimConfig(paths=8, horizon=1.0, delta=0.25, seed=1),
        grid_n=8)
    want = np.zeros(8)
    want[[3, 0]] = [0.75, 0.25]
    assert np.array_equal(mu.weights, want)


def test_mc_measure_takes_numpy_integer_seeds(constant_spec_1d):
    cfg = SimConfig(paths=4, horizon=0.5, delta=0.25, seed=3)
    mus = [estimate_invariant_measure(constant_spec_1d, c, grid_n=8)
           for c in (cfg, replace(cfg, seed=np.int64(3)))]
    assert np.array_equal(mus[0].weights, mus[1].weights)


def test_mc_measure_seed_agreement(constant_spec_1d):
    cfgs = [SimConfig(paths=200, horizon=200.0, delta=0.25, seed=s)
            for s in (11, 12)]
    mus = [estimate_invariant_measure(constant_spec_1d, c, grid_n=16)
           for c in cfgs]
    assert mus[0].tv_distance(mus[1]) <= 0.05


def test_stationarity_residual(xdep_spec_1d):
    # evolve draws from the estimated measure a short time; averages of test
    # functions should not move beyond Monte Carlo noise
    from levyhom.pathsim import simulate_snapshots
    mu = stationary_measure_grid(xdep_spec_1d, 64)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(17)))
    n_paths = 4000
    cells = gen.choice(mu.grid.size, p=mu.weights, size=n_paths)
    # start each path from its sampled cell center via per-start snapshots
    fs = [lambda p: np.cos(2 * np.pi * p[:, 0]),
          lambda p: np.sin(2 * np.pi * p[:, 0]),
          lambda p: np.cos(4 * np.pi * p[:, 0]),
          lambda p: np.sin(4 * np.pi * p[:, 0]),
          lambda p: np.cos(6 * np.pi * p[:, 0])]
    delta_t = 0.5
    # group by unique start cells to reuse the engine efficiently
    ends = np.empty((n_paths, 1))
    for cell in np.unique(cells):
        rows = np.nonzero(cells == cell)[0]
        cfg = SimConfig(paths=len(rows), horizon=delta_t, delta=0.25,
                        seed=1000 + int(cell))
        snaps = simulate_snapshots(xdep_spec_1d, cfg, [delta_t],
                                   x0=mu.centers[cell])
        ends[rows] = snaps[:, 0, :]
    ends_mod = ends - np.floor(ends)
    for f in fs:
        target = float(mu_average(mu, f))
        vals = np.asarray(f(ends_mod))
        resid = abs(vals.mean() - target)
        se = vals.std() / np.sqrt(n_paths)
        assert resid <= 3 * se + 0.01


def test_effective_drifts_symmetric_zero():
    spec = make_spec(alpha=1.5, alpha0=1.2)
    mu = stationary_measure_grid(spec, 32)
    drifts = effective_drifts(spec, mu)
    assert abs(drifts.b_bar[0]) < 1e-12
    assert abs(drifts.b_inf_bar[0]) < 1e-10
    assert abs(drifts.b_trunc_bar(8.0)[0]) < 1e-10


def test_kernel_tail_constant_converges(xdep_spec_1d):
    mu = stationary_measure_grid(xdep_spec_1d, 64)
    k0, cauchy, _ = kernel_tail_constant(xdep_spec_1d, mu)
    # z-independent kernel: k0 = int k dmu = harmonic mean of the profile
    assert cauchy
    assert k0 == pytest.approx(np.sqrt(1 - 0.25), abs=2e-3)


def test_kernel_tail_constant_flags_oscillation():
    poly = TrigPoly.const(1, 1, 1.0) + TrigPoly.cos_z(1, 1, (1,), 0.5)
    spec = make_spec(kernel=PeriodicKernel.trig(poly))
    mu = stationary_measure_grid(spec, 32)
    k0, cauchy, _ = kernel_tail_constant(spec, mu)
    assert not cauchy


def test_kernel_tail_constant_sees_through_whole_periods():
    # k = 1 + 0.5 cos 2 pi z1 on the axis atoms: along e1 the ray oscillates
    # with period one, so radii that are whole periods read 1.5 every time;
    # the limit does not exist and the ray averages are 1 (e1) and 1.5 (e2)
    spec = load_config(fixture_config("ex4_0_axes")).spec
    k0, cauchy, _ = kernel_tail_constant(spec, stationary_measure(spec))
    assert not cauchy
    assert k0 == pytest.approx(1.25, abs=1e-14)


def test_kernel_tail_constant_groups_modes_by_frequency():
    # along +-e1 the z-modes (1, 0) and (1, 1) both oscillate at s = +-1 and
    # cancel: the kernel is 1 on both rays, a limit that exists
    poly = (TrigPoly.const(2, 2, 1.0) + TrigPoly.cos_z(2, 2, (1, 0), 0.5)
            + TrigPoly.cos_z(2, 2, (1, 1), -0.5))
    rho = SphericalMeasure.atoms(2, [((1.0, 0.0), 1.0), ((-1.0, 0.0), 1.0)])
    spec = make_spec(d=2, kernel=PeriodicKernel.trig(poly), rho0=rho)
    k0, cauchy, _ = kernel_tail_constant(spec, TorusMeasure.uniform(2, 8))
    assert cauchy
    assert k0 == pytest.approx(1.0, abs=1e-14)


def test_mixing_rate_matches_multiplier(constant_spec_1d):
    m1 = fourier_multiplier(constant_spec_1d, [1.0])
    fs = [TrigPoly.cos_x(1, 0, (1,))]
    tgrid = np.linspace(0.05, 0.6, 8)
    est = mixing_rate(constant_spec_1d, fs, tgrid)
    assert est.ok
    assert est.lambda1 == pytest.approx(-m1.real, rel=0.3)


def test_mixing_rate_skips_zero_function(constant_spec_1d):
    est = mixing_rate(constant_spec_1d, [TrigPoly(1, 0, {})],
                      np.linspace(0.1, 1.0, 4))
    assert not est.ok


def _e1_polys(d):
    e1 = np.eye(d, dtype=int)[0]
    return [TrigPoly.cos_x(d, 0, e1), TrigPoly.sin_x(d, 0, e1)]


MIXING_TIMES = np.linspace(0.05, 0.8, 8)


def _fixture_mixing(name):
    spec = load_config(fixture_config(name)).spec
    mu = stationary_measure(spec)
    return spec, mu, mixing_rate(spec, _e1_polys(spec.d), MIXING_TIMES,
                                 mu=mu)


# the stiff operators (|M|_1 in the thousands) and the 3-mode ones take
# the dense propagator, the mild 81-mode ones the Krylov stepping
PROPAGATOR = {"ex4_0_axes": ("dense", 3), "ex4_1_cauchy": ("dense", 81),
              "ex4_1_centered": ("dense", 81), "ex4_1_critical": ("dense", 3),
              "ex4_1_diffusive": ("krylov", 81),
              "ex4_1_stable": ("krylov", 81), "ex4_3_mixed": ("dense", 81)}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_fixture_mixes_on_the_mode_route(name):
    est = _fixture_mixing(name)[2]
    assert est.ok and np.isfinite(est.lambda1)
    assert (est.propagator, est.modes) == PROPAGATOR[name]
    payload = est.to_json()
    assert (payload["propagator"], payload["modes"]) == PROPAGATOR[name]


def test_critical_mixing_rate_is_the_multiplier():
    # constant kernel, no drift: M is diagonal and E_x cos(2 pi x1)(X_t) =
    # e^{t m(e1)} cos(2 pi x1) with m(e1) = m(-e1) real, so the sup over
    # the nodes is exactly exponential and the fit returns -m(e1)
    spec, _, est = _fixture_mixing("ex4_1_critical")
    m = [fourier_multiplier(spec, l) for l in ((1, 0), (-1, 0))]
    want = [max(abs(np.exp(t * ml)) for ml in m) for t in MIXING_TIMES]
    assert np.allclose([v for _, v in est.table], want, rtol=1e-14, atol=0)
    assert est.lambda1 == pytest.approx(-m[0].real, rel=1e-9)
    assert est.fit_residual < 1e-9


def _grid_semigroup_gaps(spec, n):
    """sup over the nodes of |e^{tL} f - mu(f)| on the n-grid operator."""
    op = assemble_operator(spec, n)
    w = op.stationary_weights()
    fv = [f(op.grid.centers) for f in _e1_polys(spec.d)]
    return np.array([max(np.abs(expm(t * op.matrix) @ v - w @ v).max()
                         for v in fv) for t in MIXING_TIMES])


@pytest.mark.parametrize("name", ["ex4_1_stable", "ex4_1_diffusive"])
def test_mode_mixing_curve_matches_the_grid_semigroup(name):
    spec, _, est = _fixture_mixing(name)
    modes = np.array([v for _, v in est.table])
    gaps = [np.max(np.abs(_grid_semigroup_gaps(spec, n) - modes) / modes)
            for n in (64, 128)]
    assert gaps[1] <= 0.02 and gaps[1] < gaps[0]


def test_mode_route_mixing_runs_no_paths(xdep_spec_1d, monkeypatch):
    def no_driver(*args, **kwargs):
        raise AssertionError("the mode route simulates no paths")

    monkeypatch.setattr(pathsim, "driver_from_spec", no_driver)
    est = mixing_rate(xdep_spec_1d, _e1_polys(1), MIXING_TIMES)
    assert est.ok


def test_ergodic_average_decay_bounded(constant_spec_1d):
    f = lambda p: np.cos(2 * np.pi * p[:, 0])
    out = ergodic_average_decay(constant_spec_1d, f, [0.25, 0.125, 0.0625],
                                SimConfig(paths=2000, delta=0.25, seed=7))
    assert out["bounded_within_factor_4"], out


def test_ergodic_average_decay_zero_function(constant_spec_1d):
    f = lambda p: np.zeros(len(p))
    out = ergodic_average_decay(constant_spec_1d, f, [0.25, 0.125],
                                SimConfig(paths=50, delta=0.25, seed=7))
    assert all(r["moment"] == 0.0 for r in out["rows"])


def test_ergodic_average_decay_rejects_biased_function(constant_spec_1d):
    f = lambda p: np.full(len(p), 0.7)
    with pytest.raises(ValueError):
        ergodic_average_decay(constant_spec_1d, f, [0.25],
                              SimConfig(paths=50, delta=0.25, seed=7))


def test_derived_runs_keep_the_config_settings(constant_spec_1d, monkeypatch):
    # the runs that the estimators derive from cfg keep its truncation
    # budget and dt; only paths, horizon and seed are theirs to set
    seen = []
    build = pathsim.driver_from_spec
    monkeypatch.setattr(pathsim, "driver_from_spec",
                        lambda spec, cfg, horizon:
                        seen.append(cfg) or build(spec, cfg, horizon))
    cfg = SimConfig(paths=20, delta=0.25, seed=7, dt=0.02,
                    truncation_budget=1e-3)
    f = TrigPoly.cos_x(1, 0, (1,))
    ergodic_average_decay(constant_spec_1d, f, [0.25], cfg)
    estimate_invariant_measure(constant_spec_1d, replace(cfg, horizon=2.0),
                               grid_n=8)
    assert len(seen) == 1 + 2
    assert all(c.truncation_budget == 1e-3 and c.dt == 0.02 for c in seen)
