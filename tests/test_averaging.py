"""Directional averaging: exact mode oracles against Cesaro quadrature."""

import numpy as np
import pytest

from levyhom.averaging import (cesaro_average, effective_directional_kernel,
                               fourier_mean)
from levyhom.ergodic import TorusMeasure
from levyhom.spec_model import PeriodicKernel
from levyhom.trigpoly import TrigPoly


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
    kern = PeriodicKernel.trig(TrigPoly.const(2, 2, 0.75))
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

