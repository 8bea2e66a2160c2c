"""Coefficient-model unit tests with closed-form radial oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from levyhom.spec_model import (_SHORT_TABLE, IntegrabilityError,
                                PeriodicKernel, RadialPerturbation,
                                ScalingFunction, SmallJumpPart,
                                SphericalMeasure, categorical_index,
                                full_drift, jump_nodes, scaling_index_probe,
                                truncated_drift, validate)
from levyhom.trigpoly import TrigPoly

from conftest import make_spec


# --------------------------------------------------------------------------
# spherical measures
# --------------------------------------------------------------------------

def test_uniform_mass_and_nodes():
    for d in (1, 2, 3):
        m = SphericalMeasure.uniform(d, total_mass=2.5)
        assert m.total_mass == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(np.linalg.norm(m.thetas, axis=1), 1.0, atol=1e-12)


def test_categorical_index_is_the_clipped_search():
    # the one categorical lookup of the start sampler, the components and
    # the angular node tables, counted up to _SHORT_TABLE entries and
    # searched past it; the 5-entry table ends at 1 - 2^-53
    rng = np.random.default_rng(4)
    w = rng.random(64)
    tables = [np.array([1.0]), np.cumsum([0.25, 0.75]),
              np.cumsum([0.1, 0.3, 0.3, 0.2, 0.1]), np.cumsum(w / w.sum())]
    assert tables[2][-1] < 1.0
    # the longest counted table and the shortest searched one
    v = np.random.default_rng(5).random(_SHORT_TABLE + 1)
    tables += [np.cumsum(v[:n] / v[:n].sum())
               for n in (_SHORT_TABLE, _SHORT_TABLE + 1)]
    for cum in tables:
        u = np.concatenate([cum, [0.0, np.nextafter(1.0, 0.0)],
                            rng.random(256)])
        want = np.clip(np.searchsorted(cum, u, side="right"), 0, len(cum) - 1)
        got = categorical_index(cum, u)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_uniform_second_angular_moment():
    # int theta_i theta_j over the unit-mass uniform measure is I/d
    for d in (2, 3):
        m = SphericalMeasure.uniform(d, total_mass=1.0)
        M = np.tensordot(m.weights, m.thetas[:, :, None]
                         * m.thetas[:, None, :], axes=1)
        assert np.allclose(M, np.eye(d) / d, atol=1e-10)


def test_atoms_require_unit_directions():
    with pytest.raises(ValueError):
        SphericalMeasure.atoms(2, [((1.0, 1.0), 1.0)])


def test_density_variant_mass():
    m = SphericalMeasure.density(2, lambda th: 1.0 + 0.5 * th[0])
    # int (1 + 0.5 cos a) da over the circle = 2 pi
    assert m.total_mass == pytest.approx(2 * np.pi, rel=1e-10)


# --------------------------------------------------------------------------
# scaling functions
# --------------------------------------------------------------------------

def test_index_probe_power():
    res = scaling_index_probe(ScalingFunction.power(0.7))
    assert res.alpha_hat == pytest.approx(0.7, abs=1e-6)
    assert res.converged


def test_index_probe_mixed():
    phi = ScalingFunction.mixed([(0.5, 1.0), (1.5, 1.0)])
    assert phi.index == 1.5
    res = scaling_index_probe(phi, lambda_grid=[1e4, 1e6])
    assert res.alpha_hat == pytest.approx(1.5, abs=1e-3)


def test_index_probe_power_log():
    phi = ScalingFunction.power_log(1.2)
    res = scaling_index_probe(phi, lambda_grid=[1e6, 1e8])
    assert abs(res.alpha_hat - 1.2) <= 0.05


def test_phi_monotone_and_inverse_integrals():
    phi = ScalingFunction.power(1.5)
    assert phi.monotone_on_sample()
    assert phi.radial_tail_mass(1.0, 2.0) == pytest.approx(
        (1 - 2 ** -1.5) / 1.5, rel=1e-12)


# --------------------------------------------------------------------------
# quadrature nodes of the jump measure
# --------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_jump_nodes_moments_and_compensation(d):
    spec = make_spec(d=d, alpha=1.5, alpha0=0.5)
    # small ball delta * 1e-4 < |z| <= delta: the second moment in closed form
    delta = 0.25
    z, w, comp = jump_nodes(spec, delta * 1e-4, delta, 4, 4, 6)
    assert comp.all()
    want = (spec.small.ball_second_moment(d, delta)
            - spec.small.ball_second_moment(d, delta * 1e-4))
    assert w @ np.sum(z * z, axis=1) == pytest.approx(want, rel=1e-9)
    # a shell straddling |z| = 1: the tail weights carry rho0 times the
    # radial mass, and exactly the nodes with |z| <= 1 are compensated
    R = 1e3
    z, w, comp = jump_nodes(spec, 0.01, R, 6, 4, 6)
    assert np.array_equal(comp, np.linalg.norm(z, axis=1) <= 1.0)
    assert w[~comp].sum() == pytest.approx(
        spec.rho0.total_mass * spec.phi.radial_tail_mass(1.0, R), rel=1e-9)


# --------------------------------------------------------------------------
# truncated and full drifts (closed-form radial oracles)
# --------------------------------------------------------------------------

def closed_form_one_sided(R, alpha):
    # int_1^R r * r^{-1-alpha} dr  (one atom at +1, k = 1)
    if np.isinf(R):
        return 1.0 / (alpha - 1.0)
    return (1.0 - R ** (1.0 - alpha)) / (alpha - 1.0)


def test_truncated_drift_one_sided(one_sided_spec_1d):
    # oracle: b_R = int_1^R r dr/(r phi(r)) = int_1^R r^{-1.5} dr
    want = closed_form_one_sided(4.0, 1.5)
    got = truncated_drift(one_sided_spec_1d, np.zeros(1), 4.0)
    assert got[0] == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(2.0 * (1 - 4 ** -0.5), rel=1e-15)


def test_full_drift_one_sided(one_sided_spec_1d):
    got = full_drift(one_sided_spec_1d, np.zeros(1))
    assert got[0] == pytest.approx(2.0, abs=1e-8)


def test_drift_symmetric_cancellation(constant_spec_1d):
    spec = make_spec(alpha=1.5)
    assert abs(truncated_drift(spec, np.zeros(1), 10.0)[0]) < 1e-12
    assert abs(full_drift(spec, np.zeros(1))[0]) < 1e-12


def test_drift_antipodal_atoms():
    spec = make_spec(alpha=1.5, rho0=SphericalMeasure.atoms(
        1, [((1.0,), 1.0), ((-1.0,), 1.0)]))
    assert abs(full_drift(spec, np.zeros(1))[0]) < 1e-12


def test_full_drift_diverges_for_small_index():
    spec = make_spec(alpha=0.5, rho0=SphericalMeasure.atoms(1, [((1.0,), 1.0)]))
    with pytest.raises(IntegrabilityError):
        full_drift(spec, np.zeros(1))


def test_truncated_drift_monotone_and_tail_bound(one_sided_spec_1d):
    spec = one_sided_spec_1d
    x = np.zeros(1)
    vals = [truncated_drift(spec, x, R)[0] for R in (2.0, 4.0, 8.0, 16.0)]
    assert np.all(np.diff(vals) > 0)
    binf = full_drift(spec, x)[0]
    # |b_R - b_inf| <= kmax |rho0| int_R^inf dr / phi(r) (no kappa here),
    # where int_R^inf r^-1.5 dr = 2 R^-1/2
    for R, v in zip((2.0, 4.0, 8.0, 16.0), vals):
        bound = spec.kernel.kmax * spec.rho0.total_mass * 2.0 / np.sqrt(R)
        assert abs(v - binf) <= bound + 1e-12


def test_drift_with_z_mode_kernel():
    # k(x,z) = 1 + cos(2 pi z); one-sided atoms; oracle via direct quadrature
    poly = TrigPoly.const(1, 1, 1.0) + TrigPoly.cos_z(1, 1, (1,), 1.0)
    spec = make_spec(alpha=1.5, kernel=PeriodicKernel.trig(poly),
                     rho0=SphericalMeasure.atoms(1, [((1.0,), 1.0)]))
    want, _ = quad(lambda r: (1 + np.cos(2 * np.pi * r)) * r ** -1.5, 1.0, 50.0,
                   limit=400)
    got = truncated_drift(spec, np.zeros(1), 50.0)
    assert got[0] == pytest.approx(want, abs=1e-7)


def test_drift_of_x_dependent_kernel_off_origin():
    # k(x,z) = 1 + 0.5 cos(2 pi x) at x = 0.3, one atom at +1, phi = r^1.5:
    # b_R(x) = k(x) int_1^R r^-1.5 dr, the oracle by direct quadrature
    poly = TrigPoly.const(1, 1, 1.0) + TrigPoly.cos_x(1, 1, (1,), 0.5)
    spec = make_spec(alpha=1.5, kernel=PeriodicKernel.trig(poly),
                     rho0=SphericalMeasure.atoms(1, [((1.0,), 1.0)]))
    kx = 1.0 + 0.5 * np.cos(2 * np.pi * 0.3)
    want, _ = quad(lambda r: kx * r ** -1.5, 1.0, 20.0,
                   epsabs=1e-14, epsrel=1e-12)
    got = truncated_drift(spec, np.array([0.3]), 20.0)
    assert got[0] == pytest.approx(want, rel=1e-9)


# --------------------------------------------------------------------------
# kernel functionals in mode space
# --------------------------------------------------------------------------

def _kernel_3d_sine_joint():
    poly = (TrigPoly.const(3, 3, 1.0) + TrigPoly.sin_x(3, 3, (1, 0, 2), 0.3)
            + TrigPoly(3, 3, {((1, 0, 0), (0, 1, -1)): 0.2 + 0.1j}))
    return PeriodicKernel.trig(poly)


def _fixture_kernel(name):
    from levyhom.config import fixture_config, load_config
    return load_config(fixture_config(name)).spec.kernel


@pytest.mark.parametrize("make_kernel", [
    lambda: _fixture_kernel("ex4_0_axes"),
    lambda: _fixture_kernel("ex4_3_mixed"),
    _kernel_3d_sine_joint,
], ids=["ex4_0_axes", "ex4_3_mixed", "d3_sine_joint"])
def test_z_functional_modes_match_node_sum(make_kernel):
    kern = make_kernel()
    d = kern.d
    rng = np.random.default_rng(41)
    z = rng.uniform(-1.5, 1.5, (97, d))
    w = rng.uniform(-1.0, 2.0, 97)
    x = rng.random((500, d)) * 3.0 - 1.0
    kv = kern(x[:, None, :], np.broadcast_to(z, (500,) + z.shape))
    scale = 1e-12 * np.abs(w).sum() * sum(abs(c)
                                          for c in kern.poly.coeffs.values())
    scalar = kern.z_functional(z, w)
    assert isinstance(scalar, TrigPoly) and scalar.dim_z == 0
    assert np.max(np.abs(scalar(x) - kv @ w)) <= scale
    # vector weights w_q z_q, one x-poly per axis
    vec = kern.z_functional(z, w, z)
    assert np.max(np.abs(vec(x) - np.einsum("pq,q,qd->pd", kv, w, z))) \
        <= scale * np.abs(z).max()


def test_trigpoly_rebuild_keeps_one_sided_modes():
    # a one-sided coefficient keeps its value through a rebuild
    p = TrigPoly(1, 1, {((1,), (1,)): 1.0 + 0.5j})
    x, z = np.array([[0.1], [0.7]]), np.array([[0.2], [-0.4]])
    assert np.allclose((p + 0.0)(x, z), p(x, z), rtol=0, atol=1e-15)
    assert np.allclose(p(x, z), np.real((1.0 + 0.5j) * np.exp(
        2j * np.pi * (x + z)))[:, 0], rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_validate_constant_spec(constant_spec_1d):
    report = validate(constant_spec_1d)
    assert report.passed, report.summary()


def test_validate_reports_measured_kernel_bounds():
    poly = (TrigPoly.const(2, 2, 1.0) +
            TrigPoly.cos_z(2, 2, (1, 0), 0.5) * TrigPoly.cos_z(2, 2, (0, 1), 1.0))
    kern = PeriodicKernel.trig(poly, kmin=0.4, kmax=1.6)
    spec = make_spec(d=2, kernel=kern, rho0=SphericalMeasure.uniform(2, 1.0))
    report = validate(spec)
    chk = report.check("kernel_bounds")
    assert chk.passed
    assert chk.measured["measured"][0] >= 0.5 - 1e-9


def test_validate_mixed_index():
    spec = make_spec(phi=ScalingFunction.mixed([(0.5, 1.0), (1.5, 1.0)]))
    report = validate(spec)
    assert report.check("phi_index_probe").passed
    assert spec.phi.index == 1.5


def test_validate_rejects_zero_kmin_on_wellposedness_path():
    poly = TrigPoly.const(1, 1, 0.5) + TrigPoly.cos_x(1, 1, (1,), 0.5)
    spec = make_spec(kernel=PeriodicKernel.trig(poly))
    report = validate(spec, require_positive_kmin=True)
    assert not report.check("kernel_bounds").passed


def test_validate_idempotent(xdep_spec_1d):
    r1 = validate(xdep_spec_1d).to_dict()
    r2 = validate(xdep_spec_1d).to_dict()
    assert r1 == r2


def test_validate_pins_check_names_and_measured_values(xdep_spec_1d):
    # x- and z-periodicity are recorded at defect 0: trig kernels have both
    want = [("angular_mass_positive", {"total_mass": 1.0}),
            ("phi_strictly_increasing", {}),
            ("phi_index_probe", {"declared": 0.5, "alpha_hat": 0.5,
                                 "converged": True}),
            ("kappa_decay", {"sup": 0.0, "at_r=1e6": 0.0}),
            ("small_jump_second_moment", {"m2": 1.3333333333333333}),
            ("kernel_bounds", {"declared": [0.5, 1.5], "measured": [
                0.5006022718974138, 1.4993977281025863]}),
            ("kernel_x_periodicity", {"defect": 0.0}),
            ("kernel_z_periodicity", {"defect": 0.0}),
            ("kernel_continuity_modulus", {"sampled_modulus": [
                0.30900896489628815, 0.031406893504280387,
                0.003141028249670774]}),
            ("drift_bounded", {"sup_norm": 0})]
    report = validate(xdep_spec_1d)
    assert report.passed
    assert [(c.name, c.measured) for c in report.checks] == want


def test_kappa_power_ratio_decay():
    base = SphericalMeasure.uniform(1, 1.0)
    kap = RadialPerturbation.power_ratio(beta=0.5, alpha=1.5, base=base)
    sup, last = kap.decay_check()
    assert np.isfinite(sup) and last < 1e-3


def test_small_jump_moments():
    sj = SmallJumpPart.stable_density(0.5)
    # d=1: int_{|z|<=1} z^2 |z|^{-1.5} dz = 2/(2-0.5)
    assert sj.second_moment(1) == pytest.approx(2.0 / 1.5, rel=1e-12)
    assert sj.annulus_mass(1, 0.25, 1.0) == pytest.approx(
        2 * (0.25 ** -0.5 - 1) / 0.5, rel=1e-12)
    assert SmallJumpPart.zero().second_moment(3) == 0.0
