"""Directional averaging: exact mode oracles and decay of the sup-discrepancy."""

import numpy as np
import pytest

from levyhom.averaging import (cesaro_average, check_averaging_hypothesis,
                               effective_directional_kernel, fourier_mean,
                               rationality)
from levyhom.ergodic import TorusMeasure
from levyhom.spec_model import PeriodicKernel, SphericalMeasure
from levyhom.trigpoly import TrigPoly

from conftest import make_spec


def poly_2d_checker():
    # k(x,z) = 1 + 0.5 cos(2 pi z1) cos(2 pi z2)
    return (TrigPoly.const(2, 2, 1.0) +
            TrigPoly.cos_z(2, 2, (1, 0), 1.0) * TrigPoly.cos_z(2, 2, (0, 1), 0.5))


# --------------------------------------------------------------------------
# fourier_mean: direct mode enumeration oracles
# --------------------------------------------------------------------------

def test_fourier_mean_axis_modes():
    f = TrigPoly.cos_z(0, 2, (1, 0), 1.0)  # cos(2 pi z1), no x dependence
    assert fourier_mean(f, (0.0, 1.0), x=()) == pytest.approx(1.0, abs=1e-15)
    assert fourier_mean(f, (1.0, 0.0), x=()) == pytest.approx(0.0, abs=1e-15)


def test_fourier_mean_diagonal():
    k = poly_2d_checker()
    th = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert fourier_mean(k, th, x=(0.0, 0.0)) == pytest.approx(1.25, abs=1e-14)


def test_fourier_mean_irrational_direction_gives_full_mean():
    k = poly_2d_checker()
    th = np.array([1.0, np.sqrt(2.0)])
    th = th / np.linalg.norm(th)
    # no integer relation among the kernel's modes survives, so the
    # directional mean equals the full z-average
    assert fourier_mean(k, th, x=(0.3, 0.7)) == pytest.approx(1.0, abs=1e-13)


def test_fourier_mean_linear_in_poly():
    k1 = poly_2d_checker()
    k2 = TrigPoly.const(2, 2, 0.25)
    th = np.array([1.0, 1.0]) / np.sqrt(2.0)
    a = fourier_mean(k1 + k2, th, x=(0.1, 0.2))
    b = fourier_mean(k1, th, x=(0.1, 0.2)) + fourier_mean(k2, th, x=(0.1, 0.2))
    assert a == pytest.approx(b, abs=1e-14)


# --------------------------------------------------------------------------
# cesaro_average against the exact means
# --------------------------------------------------------------------------

def test_cesaro_constant_kernel():
    kern = PeriodicKernel.constant(2, 0.75)
    got = cesaro_average(kern, np.zeros(2), (1.0, 0.0), T=25.0)
    assert got == pytest.approx(0.75, abs=1e-12)


def test_cesaro_matches_fourier_axis():
    kern = PeriodicKernel.trig(poly_2d_checker())
    got = cesaro_average(kern, np.zeros(2), (1.0, 0.0), T=1e4)
    assert got == pytest.approx(1.0, abs=1e-3)


def test_cesaro_matches_fourier_diagonal():
    kern = PeriodicKernel.trig(poly_2d_checker())
    th = np.array([1.0, 1.0]) / np.sqrt(2.0)
    got = cesaro_average(kern, np.zeros(2), th, T=1e4)
    assert got == pytest.approx(1.25, abs=1e-3)


def test_cesaro_fourier_agreement_generic_direction():
    kern = PeriodicKernel.trig(poly_2d_checker())
    th = np.array([0.3, 1.0])
    th = th / np.linalg.norm(th)
    exact = fourier_mean(kern.poly, th, x=(0.0, 0.0))
    got = cesaro_average(kern, np.zeros(2), th, T=1e4)
    assert abs(got - exact) <= 1e-2


# --------------------------------------------------------------------------
# rationality verdicts
# --------------------------------------------------------------------------

def test_rationality_diagonal():
    th = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v = rationality(th)
    assert v.is_dependent
    assert tuple(sorted(np.abs(v.witness))) == (1, 1)


def test_rationality_axis():
    v = rationality(np.array([1.0, 0.0]))
    assert v.is_dependent and v.witness == (0, 1)


def test_rationality_undecided_for_irrational():
    th = np.array([1.0, np.sqrt(2.0)]) / np.sqrt(3.0)
    v = rationality(th, M=50)
    assert v.kind == "undecided" and v.search_bound == 50


def test_rationality_exact_rational_coordinates():
    v = rationality(np.array([0.6, 0.8]), exact=("3/5", "4/5"))
    assert v.is_dependent
    m = np.array(v.witness, dtype=float)
    assert abs(m @ np.array([0.6, 0.8])) < 1e-12


def test_rationality_dimension_one():
    assert rationality(np.array([1.0])).kind == "independent"


# --------------------------------------------------------------------------
# effective directional kernel
# --------------------------------------------------------------------------

def test_effective_kernel_x_independent():
    kern = PeriodicKernel.trig(poly_2d_checker())
    mu = TorusMeasure.uniform(2, 8)
    th = np.array([1.0, 1.0]) / np.sqrt(2.0)
    got = effective_directional_kernel(kern, mu, th)
    assert got == pytest.approx(1.25, abs=1e-12)


def test_effective_kernel_equals_space_mean_for_irrational_direction():
    # x-dependent and z-dependent kernel, rationally independent direction
    poly = (TrigPoly.const(2, 2, 1.0) +
            TrigPoly.cos_x(2, 2, (1, 0), 0.25) * TrigPoly.cos_z(2, 2, (1, 1), 1.0))
    kern = PeriodicKernel.trig(poly)
    mu = TorusMeasure.uniform(2, 16)
    th = np.array([1.0, np.sqrt(2.0)])
    th = th / np.linalg.norm(th)
    got = effective_directional_kernel(kern, mu, th)
    # int int k dz dmu with uniform mu: the only surviving mode is the constant
    assert got == pytest.approx(1.0, abs=1e-12)


def test_effective_kernel_axes_atoms():
    # k = 1 + 0.5 cos(2 pi z1): average along e1 is 1, along e2 is 1.5
    poly = TrigPoly.const(2, 2, 1.0) + TrigPoly.cos_z(2, 2, (1, 0), 0.5)
    kern = PeriodicKernel.trig(poly)
    mu = TorusMeasure.uniform(2, 8)
    assert effective_directional_kernel(kern, mu, (1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert effective_directional_kernel(kern, mu, (0.0, 1.0)) == pytest.approx(1.5, abs=1e-12)


def test_effective_kernel_monotone():
    mu = TorusMeasure.uniform(2, 8)
    th = np.array([1.0, 1.0]) / np.sqrt(2.0)
    k1 = PeriodicKernel.trig(poly_2d_checker())
    k2 = PeriodicKernel.trig(poly_2d_checker() + TrigPoly.const(2, 2, 0.1))
    assert (effective_directional_kernel(k2, mu, th)
            >= effective_directional_kernel(k1, mu, th))


# --------------------------------------------------------------------------
# averaging hypothesis
# --------------------------------------------------------------------------

def test_hypothesis_constant_kernel_zero_discrepancy():
    spec = make_spec(d=2, alpha=0.5, rho0=SphericalMeasure.uniform(2, 1.0, 16))
    rep = check_averaging_hypothesis(spec, eps_ladder=[0.5, 0.25],
                                     x_grid_size=4)
    assert rep.final_sup <= 1e-12
    assert rep.decayed


def test_hypothesis_decay_z_periodic_kernel():
    kern = PeriodicKernel.trig(poly_2d_checker())
    spec = make_spec(d=2, alpha=0.5, kernel=kern,
                     rho0=SphericalMeasure.uniform(2, 1.0, 16))
    ladder = [2.0 ** -k for k in range(1, 9)]
    rep = check_averaging_hypothesis(spec, eps_ladder=ladder, x_grid_size=4)
    assert rep.decayed
    assert rep.final_sup <= 0.05 * spec.kernel.kmax


def test_hypothesis_negative_control_flags_wrong_average():
    kern = PeriodicKernel.trig(poly_2d_checker())
    spec = make_spec(d=2, alpha=0.5, kernel=kern,
                     rho0=SphericalMeasure.uniform(2, 1.0, 16))
    rep = check_averaging_hypothesis(spec, eps_ladder=[0.5, 0.25, 0.125],
                                     x_grid_size=4,
                                     kbar_override=lambda x, th: 0.0)
    assert not rep.decayed


def test_hypothesis_mollification_consistency():
    # z-mollification moves the discrepancy by at most kmax * L1 distance
    poly = poly_2d_checker()
    kern = PeriodicKernel.trig(poly)
    dens = SphericalMeasure.density(2, lambda th: 1.0 / (2 * np.pi), n_nodes=16)
    spec = make_spec(d=2, alpha=0.5, kernel=kern, rho0=dens)
    width = 0.05
    kern_m = PeriodicKernel.trig(poly.mollify_z(width))
    spec_m = make_spec(d=2, alpha=0.5, kernel=kern_m, rho0=dens)
    ladder = [0.25, 0.125]
    rep = check_averaging_hypothesis(spec, eps_ladder=ladder, x_grid_size=4)
    rep_m = check_averaging_hypothesis(spec_m, eps_ladder=ladder, x_grid_size=4)
    # L1 distance bounded by the total damped coefficient mass
    l1 = sum(abs(poly.coeffs[m] - poly.mollify_z(width).coeffs.get(m, 0.0))
             for m in poly.coeffs)
    bound = spec.kernel.kmax * l1 + 1e-9
    for (e1, v1), (e2, v2) in zip(rep.rows, rep_m.rows):
        assert abs(v1 - v2) <= bound
