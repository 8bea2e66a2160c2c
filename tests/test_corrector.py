"""Nonlocal Poisson solver against Fourier-multiplier and closed-form oracles."""

import numpy as np
import pytest

from levyhom.corrector import (AtomJumpMeasure, assemble_operator,
                               corrector_rhs, covariance_matrix,
                               critical_covariance, fourier_multiplier,
                               mode_model, mode_poisson_solver,
                               nondegeneracy_check,
                               solve_poisson, solve_recentering_corrector)
from levyhom.config import fixture_config, load_config
from levyhom.ergodic import TorusMeasure, stationary_measure
from levyhom.grid import TorusGrid
from levyhom.spec_model import (DriftField, IntegrabilityError,
                                PeriodicKernel, RadialPerturbation,
                                ScalingFunction, SphericalMeasure)
from levyhom.trigpoly import TrigPoly

from conftest import make_spec


@pytest.fixture(scope="module")
def op_1d():
    spec = make_spec(alpha=0.5, alpha0=0.5)
    return spec, assemble_operator(spec, 128)


# --------------------------------------------------------------------------
# operator structure
# --------------------------------------------------------------------------

def test_operator_kills_constants(op_1d):
    _, op = op_1d
    ones = np.ones(op.grid.size)
    assert np.max(np.abs(op.matrix @ ones)) < 1e-9


def test_operator_matches_multiplier(op_1d):
    spec, op = op_1d
    x = op.grid.centers[:, 0]
    mode = np.exp(2j * np.pi * x)
    applied = (op.matrix @ mode.real) + 1j * (op.matrix @ mode.imag)
    ratio = applied / mode
    m_h = np.mean(ratio)
    m_exact = fourier_multiplier(spec, [1.0])
    assert np.max(np.abs(ratio - m_h)) < 0.05 * abs(m_exact)
    assert abs(m_h - m_exact) <= 0.05 * abs(m_exact)


def test_multiplier_real_nonpositive_for_symmetric_spec(op_1d):
    spec, _ = op_1d
    for n in (1, 2, 3):
        m = fourier_multiplier(spec, [float(n)])
        assert abs(m.imag) < 1e-9 * max(1.0, abs(m.real))
        assert m.real <= 0


def test_stationary_weights_uniform_for_x_independent(op_1d):
    _, op = op_1d
    w = op.stationary_weights()
    assert np.allclose(w, 1.0 / op.grid.size, atol=1e-12)


def test_operator_rejects_high_dimension():
    spec = make_spec(d=2, rho0=SphericalMeasure.uniform(2, 1.0))
    with pytest.raises(ValueError):
        assemble_operator(make_spec(d=1), 256)
    with pytest.raises(ValueError):
        assemble_operator(spec, 128)


# --------------------------------------------------------------------------
# Poisson solves
# --------------------------------------------------------------------------

def test_solve_zero_rhs(op_1d):
    spec, op = op_1d
    fld = solve_poisson(op, np.zeros(op.grid.size))
    assert fld.sup_norm == 0.0


def test_solve_matches_multiplier_oracle(op_1d):
    spec, op = op_1d
    f = lambda pts: np.cos(2 * np.pi * pts[:, 0])
    fld = solve_poisson(op, f)
    m1 = fourier_multiplier(spec, [1.0])
    assert abs(m1.imag) < 1e-9
    exact = np.cos(2 * np.pi * op.grid.centers[:, 0]) / m1.real
    rel = np.max(np.abs(fld.values - exact)) / np.max(np.abs(exact))
    assert rel <= 0.05
    assert fld.residual_rel <= 1e-6
    assert abs(fld.mu_mean()) <= 1e-10


def test_solve_grid_vs_fourier(op_1d):
    spec, op = op_1d
    f = lambda pts: np.cos(2 * np.pi * pts[:, 0]) + 0.3 * np.sin(4 * np.pi * pts[:, 0])
    g_fld = solve_poisson(op, f)
    # k = 1 and no drift: mu is uniform and only f's modes are reached
    model = mode_model(spec, seeds=[(1,), (-1,), (2,), (-2,)])
    f_fld = mode_poisson_solver(model, TorusMeasure.uniform(1, 128))(f)
    rel = (np.max(np.abs(g_fld.values - f_fld.values))
           / np.max(np.abs(f_fld.values)))
    assert rel <= 0.05


def test_solve_rejects_non_mean_free(op_1d):
    spec, op = op_1d
    with pytest.raises(ValueError):
        solve_poisson(op, np.ones(op.grid.size) * 0.5)


def test_gradient_consistent_with_central_differences(op_1d):
    spec, op = op_1d
    f = lambda pts: np.cos(2 * np.pi * pts[:, 0])
    fld = solve_poisson(op, f)
    h = op.grid.h
    vals = fld.values
    diff = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * h)
    assert np.max(np.abs(diff - fld.gradient[:, 0])) <= 1e-8


# --------------------------------------------------------------------------
# recentering right-hand side
# --------------------------------------------------------------------------

def test_rhs_vanishes_for_symmetric_spec():
    spec = make_spec(alpha=3.0)
    mu = TorusMeasure.uniform(1, 32)
    rhs, info = corrector_rhs(spec, mu, mode="full")
    assert np.max(np.abs(rhs)) < 1e-10


def test_rhs_is_minus_periodic_drift():
    drift = DriftField([TrigPoly.cos_x(1, 0, (1,), 0.1)])
    spec = make_spec(alpha=3.0, drift=drift)
    mu = TorusMeasure.uniform(1, 64)
    rhs, info = corrector_rhs(spec, mu, mode="full")
    want = -0.1 * np.cos(2 * np.pi * mu.centers[:, 0])
    assert np.max(np.abs(rhs[:, 0] - want)) < 1e-8


def test_rhs_truncated_family_bound():
    # sup norms of the eps-family correctors stay within the tail-integral bound
    drift = DriftField([TrigPoly.cos_x(1, 0, (1,), 0.1)])
    spec = make_spec(alpha=1.0, alpha0=1.2, drift=drift,
                     rho0=SphericalMeasure.atoms(1, [((1.0,), 1.0)]))
    op = assemble_operator(spec, 64)
    mu_w = op.stationary_weights()
    mu = TorusMeasure(TorusGrid(1, 64), mu_w)
    for eps in (1.0 / 4, 1.0 / 16, 1.0 / 64):
        rhs, _ = corrector_rhs(spec, mu, mode="truncated", R=1.0 / eps)
        fld = solve_poisson(op, rhs[:, 0], mean_tol=1e-6)
        bound = 1.0 + np.log(1.0 / eps)    # 1 + int_1^{1/eps} dr / r
        assert fld.sup_norm + fld.grad_sup_norm <= 40.0 * bound


def test_rhs_propagates_integrability_error():
    spec = make_spec(alpha=0.5, rho0=SphericalMeasure.atoms(1, [((1.0,), 1.0)]))
    mu = TorusMeasure.uniform(1, 16)
    with pytest.raises(IntegrabilityError):
        corrector_rhs(spec, mu, mode="full")


# --------------------------------------------------------------------------
# covariance matrices
# --------------------------------------------------------------------------

def test_covariance_without_corrector_closed_form():
    # k=1, alpha0=1, power-3 tail, uniform angular mass 1, per axis:
    #   int z_1^2 Pi(dz) = (|S^{d-1}|/(2-1) + 1 * int_1^inf r^{-2} dr) / d,
    # which is 2 + 1 in d=1 and (4 pi + 1)/3 in d=3
    for d, n, want in [(1, 16, 3.0), (3, 2, (4 * np.pi + 1.0) / 3.0)]:
        spec = make_spec(d=d, alpha=3.0, alpha0=1.0)
        mu = TorusMeasure.uniform(d, n)
        cov = covariance_matrix(spec, mu, psi=None)
        assert cov.A[0, 0] == pytest.approx(want, rel=1e-6)


def test_covariance_single_atom_degenerate():
    atoms = AtomJumpMeasure(2, [((1.0, 0.0), 1.0)])
    mu = TorusMeasure.uniform(2, 8)
    cov = covariance_matrix(atoms, mu, psi=None)
    e2 = np.array([0.0, 1.0])
    assert abs(e2 @ cov.A @ e2) <= 1e-12
    assert cov.A[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_covariance_moment_condition_enforced():
    spec = make_spec(alpha=1.5)
    mu = TorusMeasure.uniform(1, 8)
    with pytest.raises(IntegrabilityError):
        covariance_matrix(spec, mu)


def test_covariance_with_corrector_positive_and_psd():
    drift = DriftField([TrigPoly.cos_x(1, 0, (1,), 0.5)])
    spec = make_spec(alpha=3.0, alpha0=1.0, drift=drift)
    op = assemble_operator(spec, 64)
    mu_w = op.stationary_weights()
    mu = TorusMeasure(TorusGrid(1, 64), mu_w)
    psi = solve_recentering_corrector(spec, mu, mode="full")
    cov = covariance_matrix(spec, mu, psi=psi)
    assert cov.A[0, 0] > 0
    assert cov.eigenvalues.min() >= -1e-10


def test_covariance_exchange_symmetry():
    # exchange-symmetric 2d spec: swapping axes leaves A invariant
    spec = make_spec(d=2, alpha=3.0, alpha0=1.0,
                     rho0=SphericalMeasure.uniform(2, 1.0, 32))
    mu = TorusMeasure.uniform(2, 8)
    cov = covariance_matrix(spec, mu)
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(P @ cov.A @ P, cov.A, atol=1e-10)


# --------------------------------------------------------------------------
# critical covariance
# --------------------------------------------------------------------------

def test_critical_covariance_uniform_circle():
    spec = make_spec(d=2, alpha=2.0, alpha0=1.0,
                     rho0=SphericalMeasure.uniform(2, 1.0, 32))
    mu = TorusMeasure.uniform(2, 4)
    cov = critical_covariance(spec, mu)
    assert cov.meta["converged"]
    assert np.allclose(cov.A, 0.5 * np.eye(2), atol=1e-3)


def test_critical_covariance_axes_atoms():
    rho = SphericalMeasure.atoms(2, [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])
    spec = make_spec(d=2, alpha=2.0, alpha0=1.0, rho0=rho)
    mu = TorusMeasure.uniform(2, 4)
    cov = critical_covariance(spec, mu)
    assert np.allclose(cov.A, np.eye(2), atol=1e-3)


def test_critical_covariance_rank_one():
    rho = SphericalMeasure.atoms(2, [((1.0, 0.0), 1.0)])
    spec = make_spec(d=2, alpha=2.0, alpha0=1.0, rho0=rho)
    mu = TorusMeasure.uniform(2, 4)
    cov = critical_covariance(spec, mu)
    assert cov.A[0, 0] == pytest.approx(1.0, abs=1e-3)
    assert abs(cov.A[1, 1]) <= 1e-3


def test_critical_covariance_of_a_ray_that_oscillates():
    # k = 1 + 0.5 cos 2 pi z in d = 1: the truncated moment is
    # log R + (Ci(2 pi R) - Ci(2 pi)) / 2, so the limit is exactly 1
    poly = TrigPoly.const(1, 1, 1.0) + TrigPoly.cos_z(1, 1, (1,), 0.5)
    spec = make_spec(d=1, alpha=2.0, alpha0=1.0,
                     kernel=PeriodicKernel.trig(poly))
    cov = critical_covariance(spec, TorusMeasure.uniform(1, 8))
    assert cov.meta["converged"]
    assert abs(cov.A[0, 0] - 1.0) <= 1e-12


def test_critical_covariance_of_a_z_dependent_kernel():
    # ex4_1_critical's kernel + 0.5 cos 2 pi z1 + 0.3 cos 2 pi x1: no node of
    # the 32-node circle lies on an axis, so the z-mode averages out and
    # k̄0 = 1 + 0.3 mu(cos 2 pi x1) = 0.955969 on every node
    base = load_config(fixture_config("ex4_1_critical")).spec
    poly = (base.kernel.poly + TrigPoly.cos_z(2, 2, (1, 0), 0.5)
            + TrigPoly.cos_x(2, 2, (1, 0), 0.3))
    spec = make_spec(d=2, alpha=2.0, alpha0=1.0, rho0=base.rho0,
                     kernel=PeriodicKernel.trig(poly))
    cov = critical_covariance(spec, stationary_measure(spec))
    assert np.allclose(np.diag(cov.A), 0.955969 / 2, rtol=0, atol=1e-6)
    assert abs(cov.A[0, 1]) <= 1e-12


def test_critical_covariance_flags_a_log_corrected_phi():
    # phi = r^2 log(1 + r): the truncated moment grows like log log R
    spec = make_spec(d=2, alpha0=1.0, phi=ScalingFunction.power_log(2.0),
                     rho0=SphericalMeasure.uniform(2, 1.0, 32))
    cov = critical_covariance(spec, TorusMeasure.uniform(2, 4))
    assert not cov.meta["converged"]


def test_critical_covariance_ignores_a_vanishing_kappa():
    # g(r) = r / (r^2 + r) is integrable against dr / r: no log R term
    rho = SphericalMeasure.uniform(2, 1.0, 32)
    spec = make_spec(d=2, alpha=2.0, alpha0=1.0, rho0=rho,
                     kappa=RadialPerturbation.power_ratio(1, 2, rho))
    cov = critical_covariance(spec, TorusMeasure.uniform(2, 4))
    assert cov.meta["converged"]
    assert np.max(np.abs(cov.A - 0.5 * np.eye(2))) <= 1e-12


# --------------------------------------------------------------------------
# degeneracy prediction
# --------------------------------------------------------------------------

def test_nondegeneracy_stable_small_part():
    spec = make_spec(d=2, alpha=3.0, alpha0=1.0,
                     rho0=SphericalMeasure.uniform(2, 1.0, 16))
    verdict = nondegeneracy_check(spec)
    assert verdict.predicted_nondegenerate
    mu = TorusMeasure.uniform(2, 8)
    cov = covariance_matrix(spec, mu)
    assert cov.eigenvalues.min() >= 1e-8


def test_degenerate_atom_measure_flagged():
    atoms = AtomJumpMeasure(2, [((1.0, 0.0), 1.0)])
    verdict = nondegeneracy_check(atoms)
    assert not verdict.predicted_nondegenerate
    mu = TorusMeasure.uniform(2, 4)
    cov = covariance_matrix(atoms, mu)
    degenerate = cov.eigenvalues.min() < 1e-8
    assert degenerate == (not verdict.predicted_nondegenerate)
