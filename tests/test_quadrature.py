"""The closed-form tail transform E_{1+alpha}(-2 pi i s) against QUADPACK's
QAWF rule (``radial_fourier_integral``) and the small-|z| forms of
Abramowitz & Stegun 5.1.12."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import digamma, gamma

from levyhom import quadrature
from levyhom.quadrature import power_tail_transform, radial_fourier_integral
from levyhom.spec_model import JumpSpec, ScalingFunction

from conftest import make_spec

# |s| in [1e-3, 60], with both sides of the switch from the series to the
# continued fraction at 2 pi |s| = 4
_S = np.r_[np.geomspace(1e-3, 60.0, 25), 2.0 / np.pi * (1.0 + 1e-9),
           2.0 / np.pi * (1.0 - 1e-9)]
_NEAR_INTEGER = [1.0 - 1e-6, 1.0 + 1e-6, 2.0 - 1e-9, 2.0 + 1e-9, 2.0 + 1e-6]


def _qawf(alpha, s):
    return radial_fourier_integral(ScalingFunction.power(alpha), s, 1.0,
                                   np.inf, weight_fn=lambda r: 1.0 / r)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
                         + _NEAR_INTEGER)
def test_power_tail_transform_matches_qawf(alpha):
    s = np.r_[_S, -_S[::4]]
    want = np.array([_qawf(alpha, v) for v in s])
    assert np.abs(power_tail_transform(alpha, s) - want).max() <= 1e-12


def _small_z(alpha, s, terms=4):
    """E_{1+alpha}(z), z = -2 pi i s, by A&S 5.1.12 (integer alpha) or
    Gamma(-alpha) z^alpha minus its entire series, to ``terms`` terms."""
    z = -2j * np.pi * s
    n = round(alpha)
    series = sum((-z) ** k / (math.factorial(k) * (k - alpha))
                 for k in range(terms) if not (alpha == n and k == n))
    if alpha == n:
        head = (-z) ** n / math.factorial(n) * (digamma(n + 1) - np.log(z))
    else:
        head = gamma(-alpha) * z ** alpha
    return head - series


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
def test_power_tail_transform_raises_no_warning_at_small_s(alpha):
    # QAWF warns below |s| ~ 1e-5; the closed form has no such range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = power_tail_transform(alpha, np.array([1e-6, -1e-6]))
    want = _small_z(alpha, 1e-6)
    assert np.abs(got - [want, np.conj(want)]).max() <= 1e-12


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 2.0 + 1e-9, 3.0])
def test_power_tail_transform_symmetries_and_batches(alpha):
    s = np.r_[0.0, _S, -_S, 1e-6]
    got = power_tail_transform(alpha, s)
    # F(0) = int_1^inf r^{-1-alpha} dr, not 1 / ((1 + alpha) - 1)
    assert got[0] == 1.0 / alpha
    assert power_tail_transform(alpha, 0.0) == 1.0 / alpha
    n = len(_S)
    assert np.array_equal(got[1 + n:1 + 2 * n], np.conj(got[1:1 + n]))
    # each entry is the value it has alone, whatever the batch
    alone = np.array([power_tail_transform(alpha, v) for v in s])
    assert np.array_equal(got, alone)
    assert np.array_equal(power_tail_transform(alpha, s.reshape(-1, 2)),
                          got.reshape(-1, 2))


def test_continued_fraction_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_CF_MAX_TERMS", 3)
    with pytest.raises(RuntimeError, match="did not converge"):
        power_tail_transform(1.5, np.array([0.1, 1.0]))


def test_tail_transform_takes_qawf_off_the_pure_power(monkeypatch):
    s = np.array([[0.25, -1.5], [0.0, 3.0]])
    mixed = make_spec(phi=ScalingFunction.mixed([(0.5, 1.0), (1.5, 1.0)]))
    F = {v: mixed.radial_integral(abs(v), np.inf, False, per_r=True)
         for v in s.ravel()}
    want = [[F[v] if v >= 0 else np.conj(F[v]) for v in row] for row in s]
    assert np.array_equal(mixed.tail_transform(s, False), want)

    def no_qawf(*args, **kwargs):
        raise AssertionError("power phi without kappa needs no quadrature")

    monkeypatch.setattr(JumpSpec, "radial_integral", no_qawf)
    assert np.array_equal(make_spec(alpha=1.5).tail_transform(s, False),
                          power_tail_transform(1.5, s))
