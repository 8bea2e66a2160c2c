"""Limit laws: closed-form symbols vs quadrature, sampler self-consistency."""

import math
import numpy as np
import pytest

from levyhom.ergodic import TorusMeasure
from levyhom.limits import (LimitLaw, _radial_symbol, char_exponent, char_fn,
                            predicted_limit, sample_limit)
from levyhom.regimes import Regime
from levyhom.spec_model import PeriodicKernel, ScalingFunction, SphericalMeasure
from levyhom.trigpoly import TrigPoly
from levyhom.verify import ecf_distance, ks_statistic

from conftest import make_spec
from oracles import exact_symmetric_stable_1d, radial_symbol_quadrature


def sym_stable_law_1d(alpha, mass=1.0, kbar=1.0):
    rho = SphericalMeasure.uniform(1, mass)
    return LimitLaw(kind="stable", alpha=alpha, rho0=rho,
                    kbar0=np.full(2, kbar))


# --------------------------------------------------------------------------
# radial symbol closed forms
# --------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,conv", [(0.4, "none"), (0.7, "none"),
                                        (1.0, "unit_ball"),
                                        (1.3, "full"), (1.8, "full")])
@pytest.mark.parametrize("s", [0.7, 2.0, -1.3])
def test_radial_symbol_matches_quadrature(alpha, conv, s):
    closed = _radial_symbol(s, alpha, conv)
    numeric = radial_symbol_quadrature(s, alpha, conv)
    assert closed.real == pytest.approx(numeric.real, rel=2e-4, abs=2e-4)
    assert closed.imag == pytest.approx(numeric.imag, rel=2e-4, abs=2e-4)


def test_symbol_conjugate_symmetry():
    v1 = _radial_symbol(1.7, 0.6, "none")
    v2 = _radial_symbol(-1.7, 0.6, "none")
    assert v1 == pytest.approx(np.conj(v2))


def test_char_fn_trivial_values():
    law = sym_stable_law_1d(0.5)
    assert char_fn(law, np.zeros(1)) == pytest.approx(1.0)
    glaw = LimitLaw(kind="gaussian", A=np.eye(2))
    assert char_fn(glaw, np.array([1.0, 0.0]), t=1.0) == \
        pytest.approx(np.exp(-0.5))


def test_symmetric_stable_exponent_classical_form():
    # eta(u) = -c |u|^alpha with c = Gamma(1-a) cos(pi a/2)/a * mass * kbar
    alpha = 0.5
    law = sym_stable_law_1d(alpha, mass=1.0, kbar=1.0)
    for u in (0.5, 1.0, 2.0):
        eta = char_exponent(law, np.array([u]))
        c = math.gamma(1 - alpha) * np.cos(np.pi * alpha / 2) / alpha
        want = -c * u ** alpha  # total angular mass 1, kbar 1
        assert eta.real == pytest.approx(want, rel=1e-12)
        assert abs(eta.imag) < 1e-14


def test_levy_property_of_char_fn():
    law = sym_stable_law_1d(1.3)
    u = np.array([0.8])
    lhs = char_fn(law, u, t=0.7) * char_fn(law, u, t=0.6)
    rhs = char_fn(law, u, t=1.3)
    assert abs(lhs - rhs) < 1e-12


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def test_gaussian_zero_covariance_gives_zeros():
    law = LimitLaw(kind="gaussian", A=np.zeros((2, 2)))
    batch = sample_limit(law, 1.0, 50, seed=3)
    assert np.all(batch.samples == 0.0)


def test_gaussian_sample_covariance_matches():
    A = np.array([[2.0, 0.6], [0.6, 1.0]])
    law = LimitLaw(kind="gaussian", A=A)
    batch = sample_limit(law, 1.0, 100_000, seed=5)
    emp = np.cov(batch.samples.T)
    se = 5.0 * np.max(A) / np.sqrt(batch.n)
    assert np.max(np.abs(emp - A)) <= 5 * se


def test_stable_batch_matches_char_fn():
    law = sym_stable_law_1d(0.5)
    batch = sample_limit(law, 1.0, 10_000, seed=9)
    worst, rows = ecf_distance(batch, law)
    bad = [r for r in rows if not r["within_3se"]]
    assert not bad, f"{len(bad)} frequencies outside 3 standard errors"


def test_stable_batch_median_zero():
    law = sym_stable_law_1d(0.5)
    batch = sample_limit(law, 1.0, 8000, seed=11)
    med = np.median(batch.samples[:, 0])
    # median CI at this sample size is a few times n^{-1/2} in sample units
    spread = np.percentile(np.abs(batch.samples[:, 0]), 50)
    assert abs(med) <= 5 * spread / np.sqrt(batch.n) * 3


def test_stable_batch_matches_exact_cms_sampler():
    # same-law comparison against the independent transform-based oracle
    alpha = 0.5
    law = sym_stable_law_1d(alpha)
    batch = sample_limit(law, 1.0, 8000, seed=13)
    c = math.gamma(1 - alpha) * np.cos(np.pi * alpha / 2) / alpha
    oracle = exact_symmetric_stable_1d(alpha, c, 1.0, 8000, seed=14)
    assert ks_statistic(batch.samples[:, 0], oracle) <= 0.03


def test_stable_self_similarity():
    # Y_{st} ~ s^{1/alpha} Y_t for the uncentered symmetric law
    alpha = 0.5
    law = sym_stable_law_1d(alpha)
    b1 = sample_limit(law, 1.0, 6000, seed=21)
    b2 = sample_limit(law, 2.0, 6000, seed=22)
    rescaled = 2.0 ** (1.0 / alpha) * b1.samples[:, 0]
    assert ks_statistic(rescaled, b2.samples[:, 0]) <= 0.03


def test_asymmetric_cauchy_drift_correction():
    # one-sided alpha=1 law: simulated batch still matches its own char fn
    rho = SphericalMeasure.atoms(1, [((1.0,), 1.0)])
    law = LimitLaw(kind="stable", alpha=1.0, rho0=rho, kbar0=np.array([1.0]))
    batch = sample_limit(law, 1.0, 10_000, seed=31)
    worst, rows = ecf_distance(batch, law, freqs=[np.array([u])
                                                  for u in (0.4, 1.0, 2.0)])
    bad = [r for r in rows if not r["within_3se"]]
    assert not bad


def _atoms_law(alpha, atoms, kbar):
    rho = SphericalMeasure.atoms(len(atoms[0][0]), atoms)
    return LimitLaw(kind="stable", alpha=alpha, rho0=rho,
                    kbar0=np.asarray(kbar, dtype=float))


def _ecf_freqs(d):
    base = np.linspace(0.3, 5.0, 10)
    dirs = np.eye(d) if d == 1 else np.vstack(
        [np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)])
    return [u * v for v in dirs for u in base]


_UNIFORM_2D = SphericalMeasure.uniform(2, 1.0)      # 64 nodes
EXACT_LAWS = {
    "none_one_sided": _atoms_law(0.6, [((1.0,), 1.0)], [1.0]),
    "none_axes": _atoms_law(0.75, [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)],
                            [1.0, 1.5]),
    "unit_ball_atoms": _atoms_law(1.0, [((1.0,), 0.5), ((-1.0,), 0.25)],
                                  [1.0, 1.0]),
    "full_atoms": _atoms_law(1.5, [((1.0,), 1.0), ((-1.0,), 0.5)],
                             [1.0, 1.0]),
    "full_uniform_2d": LimitLaw(kind="stable", alpha=1.5,
                                rho0=_UNIFORM_2D,
                                kbar0=np.ones(len(_UNIFORM_2D.weights))),
}


@pytest.mark.parametrize("name", sorted(EXACT_LAWS))
@pytest.mark.parametrize("t", [1.0, 3.0])
def test_exact_stable_draws_match_char_fn(name, t):
    # the ECF of 10^5 exact draws against exp(t eta) on the axes and, in
    # d = 2, the diagonals, which see the joint law of the node sum
    law = EXACT_LAWS[name]
    batch = sample_limit(law, t, 100_000, seed=41)
    assert batch.meta["sampler"] == "exact_stable"
    _, rows = ecf_distance(batch, law, freqs=_ecf_freqs(law.d))
    bad = [r for r in rows if not r["within_3se"]]
    assert not bad, bad


def test_exact_cauchy_log_shift_is_needed():
    # negative control: alpha = 1 draws without the (2/pi) sigma log sigma
    # shift of rescaling S_1(1, 1, 0) must miss the characteristic function
    law = EXACT_LAWS["unit_ball_atoms"]
    sigma = law.rho0.weights * law.kbar0 * math.pi / 2
    shift = (2 / math.pi * sigma * np.log(sigma)) @ law.rho0.thetas
    batch = sample_limit(law, 1.0, 100_000, seed=41)
    _, rows = ecf_distance(batch.samples - shift, law,
                           freqs=_ecf_freqs(1))
    assert max(r["gap"] / r["se"] for r in rows) > 5.0


def test_stable_law_without_intensity_gives_zeros():
    law = sym_stable_law_1d(1.5, kbar=0.0)
    batch = sample_limit(law, 1.0, 50, seed=3)
    assert batch.samples.shape == (50, 1) and np.all(batch.samples == 0.0)


@pytest.mark.parametrize("law", [sym_stable_law_1d(1.0),
                                 LimitLaw(kind="gaussian", A=np.eye(2))])
def test_numpy_integer_seed_matches_python_int(law):
    want = sample_limit(law, 1.0, 100, seed=5).samples
    for seed in (np.int64(5), np.uint64(5)):
        assert np.array_equal(sample_limit(law, 1.0, 100, seed).samples,
                              want)


@pytest.mark.parametrize("alpha, name, conv", [
    (0.5, "stable_no_center", "none"), (1.0, "cauchy_center", "unit_ball"),
    (1.5, "stable_center", "full"), (2.0, "critical_log", None),
    (3.0, "diffusive", None)])
def test_regime_and_convention_read_off_alpha(alpha, name, conv):
    assert Regime.of(alpha).name == name
    if conv is None:
        with pytest.raises(ValueError, match="outside"):
            sym_stable_law_1d(alpha)
    else:
        assert sym_stable_law_1d(alpha).convention == conv


# --------------------------------------------------------------------------
# predicted limits
# --------------------------------------------------------------------------

def test_predicted_limit_constant_kernel():
    spec = make_spec(alpha=0.5)
    mu = TorusMeasure.uniform(1, 32)
    law = predicted_limit(spec, mu)
    assert law.kind == "stable" and law.convention == "none"
    assert np.allclose(law.kbar0, 1.0, atol=1e-12)


def test_predicted_limit_axes_kernel():
    poly = TrigPoly.const(2, 2, 1.0) + TrigPoly.cos_z(2, 2, (1, 0), 0.5)
    rho = SphericalMeasure.atoms(2, [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])
    spec = make_spec(d=2, alpha=0.75, kernel=PeriodicKernel.trig(poly),
                     rho0=rho)
    mu = TorusMeasure.uniform(2, 8)
    law = predicted_limit(spec, mu)
    assert law.kbar0 == pytest.approx([1.0, 1.5], abs=1e-12)


def test_predicted_limit_mixed_scaling_full_mean():
    # z-periodic kernel with a mixed scaling function: the limit intensity is
    # the full space average of k for a.e. direction
    poly = (TrigPoly.const(1, 1, 1.0) +
            TrigPoly.cos_x(1, 1, (1,), 0.5) * TrigPoly.cos_z(1, 1, (1,), 1.0))
    spec = make_spec(kernel=PeriodicKernel.trig(poly),
                     phi=ScalingFunction.mixed([(0.5, 1.0), (1.5, 1.0)]),
                     alpha0=1.2)
    mu = TorusMeasure.uniform(1, 32)
    law = predicted_limit(spec, mu)
    # d=1 directions are rationally independent: kbar0 = int int k dz dmu = 1
    assert np.allclose(law.kbar0, 1.0, atol=1e-12)
    assert law.alpha == 1.5 and law.convention == "full"
