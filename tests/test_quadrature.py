"""The closed forms of the power tail, E_{1+alpha}(-2 pi i s) and the drift
integrals int_1^R e^{2 pi i s r} r^{-alpha} dr, against QUADPACK's QAWO and
QAWF rules (``radial_fourier_integral``) and the small-|z| forms of
Abramowitz & Stegun 5.1.12; and the import path, on which QUADPACK is
loaded only for the weights without a closed form."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import digamma, gamma

from levyhom import quadrature
from levyhom.quadrature import (power_radial_integral, power_tail_transform,
                                radial_fourier_integral)
from levyhom.spec_model import (JumpSpec, PeriodicKernel, ScalingFunction,
                                SphericalMeasure, full_drift, truncated_drift)
from levyhom.trigpoly import TrigPoly

from conftest import fresh_python, make_spec

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


def _no_quadpack(*args, **kwargs):
    raise AssertionError("power phi without kappa needs no quadrature")


def test_tail_transform_takes_qawf_off_the_pure_power(monkeypatch):
    s = np.array([[0.25, -1.5], [0.0, 3.0]])
    mixed = make_spec(phi=ScalingFunction.mixed([(0.5, 1.0), (1.5, 1.0)]))
    F = {v: radial_fourier_integral(mixed.phi, abs(v), 1.0, np.inf,
                                    weight_fn=lambda r: 1.0 / r)
         for v in s.ravel()}
    want = [[F[v] if v >= 0 else np.conj(F[v]) for v in row] for row in s]
    assert np.array_equal(mixed.tail_transform(s, False), want)

    monkeypatch.setattr(JumpSpec, "_quadpack", _no_quadpack)
    assert np.array_equal(make_spec(alpha=1.5).tail_transform(s, False),
                          power_tail_transform(1.5, s))


# --------------------------------------------------------------------------
# the drift integrals int_1^R e^{2 pi i s r} r^{-alpha} dr
# --------------------------------------------------------------------------

_S_DRIFT = np.r_[0.0, 1e-6, -1e-6, np.geomspace(0.013, 12.0, 24),
                 -np.geomspace(0.013, 12.0, 6)]


def _quadpack_radial(alpha, s, R):
    """QUADPACK's int_1^R e^{2 pi i s r} r^{-alpha} dr: QAWO on [1, R], QAWF
    on [1, inf). Below |s| = 1e-3 QAWF's first cycle would hold the whole
    peak of r^{-alpha} at r = 1 and warn, so QAWO takes [1, 100] first."""
    phi = ScalingFunction.power(alpha)
    if np.isinf(R) and 0 < abs(s) < 1e-3:
        return (radial_fourier_integral(phi, s, 1.0, 100.0)
                + radial_fourier_integral(phi, s, 100.0, R))
    return radial_fourier_integral(phi, s, 1.0, R)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
def test_power_radial_integral_matches_quadpack(alpha):
    radii = [2.0, 8.0, 32.0, 1024.0] + ([np.inf] if alpha > 1 else [])
    for R in radii:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = power_radial_integral(alpha, _S_DRIFT, R)
        want = np.array([_quadpack_radial(alpha, v, R) for v in _S_DRIFT])
        assert np.abs(got - want).max() <= 1e-12, R


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 2.0 + 1e-9, 3.0])
def test_power_radial_integral_symmetries_and_batches(alpha):
    s = np.r_[0.0, _S_DRIFT, 1e-17, 0.2 / np.pi, 0.2 / np.pi * (1 + 1e-12)]
    for R in [1.5, 10.0, 1e20] + ([np.inf] if alpha > 1 else []):
        got = power_radial_integral(alpha, s, R)
        assert np.all(np.isfinite(got))
        # s = 0 is elementary: (1 - R^{1-alpha}) / (alpha - 1), or ln R
        zero = (math.log(R) if alpha == 1.0 else
                -math.expm1((1.0 - alpha) * math.log(R)) / (alpha - 1.0))
        assert got[0] == pytest.approx(zero, rel=4e-16)
        assert np.array_equal(power_radial_integral(alpha, -s, R),
                              np.conj(got))
        alone = np.array([power_radial_integral(alpha, v, R) for v in s])
        assert np.array_equal(got, alone)
        assert np.array_equal(
            power_radial_integral(alpha, s[1:].reshape(-1, 2), R),
            got[1:].reshape(-1, 2))


def test_power_radial_integral_is_continuous_across_its_switch():
    # the Taylor series for 2 pi |s| R <= 1 and the difference of E_alpha
    # beyond it, on both sides of the switch, for an alpha where the two
    # E_alpha terms nearly cancel
    R = 50.0
    s = 1.0 / (2 * np.pi * R) * np.array([1.0 - 1e-12, 1.0 + 1e-12])
    got = power_radial_integral(0.25, s, R)
    assert abs(got[1] - got[0]) <= 1e-12 * abs(got[0])


def test_drifts_take_quadpack_off_the_pure_power(monkeypatch):
    # r^1.5 as a one-term mixture takes QUADPACK: the reference
    poly = TrigPoly.const(2, 2, 1.0) + TrigPoly(2, 2, {
        ((0, 0), (1, 0)): 0.25, ((0, 0), (-1, 0)): 0.25,
        ((1, 0), (1, 1)): 0.1, ((-1, 0), (-1, -1)): 0.1})
    rho0 = SphericalMeasure.uniform(2, 1.0, n_nodes=8)
    x = np.random.default_rng(5).random((6, 2))
    specs = [make_spec(d=2, kernel=PeriodicKernel.trig(poly), rho0=rho0,
                       phi=phi)
             for phi in (ScalingFunction.mixed([(1.5, 1.0)]),
                         ScalingFunction.power(1.5))]
    want = [truncated_drift(specs[0], x, 4.0), full_drift(specs[0], x)]
    monkeypatch.setattr(JumpSpec, "_quadpack", _no_quadpack)
    assert np.abs(truncated_drift(specs[1], x, 4.0) - want[0]).max() <= 1e-12
    assert np.abs(full_drift(specs[1], x) - want[1]).max() <= 1e-12


_IMPORT_PATH = """
import os, sys, tempfile
import numpy as np
import levyhom.cli
assert "scipy.integrate" not in sys.modules, "import levyhom.cli"
from levyhom.cli import main
out = tempfile.mkdtemp()
for name in ("ex4_1_critical", "ex4_0_axes"):
    cfg = os.path.join(out, name + ".json")
    assert main(["fixture", name, "--out", cfg]) == 0
    before = set(sys.modules)
    assert main(["effective", cfg, "--out", os.path.join(out, name)]) == 0
    new = sorted(set(sys.modules) - before)
    assert not new, (name, new)
assert "scipy.integrate" not in sys.modules, "effective"

# mixed phi still reaches QUADPACK, on demand
from levyhom.quadrature import radial_fourier_integral
from levyhom.spec_model import (DriftField, JumpSpec, PeriodicKernel,
                                RadialPerturbation, ScalingFunction,
                                SmallJumpPart, SphericalMeasure,
                                truncated_drift)
from levyhom.trigpoly import TrigPoly
coeffs = {((0,), (0,)): 1.0, ((1,), (1,)): 0.25, ((-1,), (-1,)): 0.25}
phi = ScalingFunction.mixed([(0.5, 1.0), (1.5, 1.0)])
rho0 = SphericalMeasure.atoms(1, [([1.0], 0.5), ([-1.0], 0.25)])
spec = JumpSpec(d=1, small=SmallJumpPart.zero(), rho0=rho0, phi=phi,
                kappa=RadialPerturbation.none(),
                kernel=PeriodicKernel.trig(TrigPoly(1, 1, coeffs)),
                drift=DriftField.zero(1))
x = np.array([[0.0], [0.3]])
got = truncated_drift(spec, x, 8.0)
assert "scipy.integrate" in sys.modules
want = np.zeros(2)
for ((mx,), (mz,)), c in coeffs.items():
    for (t,), w in zip(rho0.thetas, rho0.weights):
        J = radial_fourier_integral(phi, mz * t, 1.0, 8.0)
        want += (c * np.exp(2j * np.pi * mx * x[:, 0]) * w * t * J).real
assert np.abs(got[:, 0] - want).max() <= 1e-13, (got, want)
print("ok")
"""


def test_quadpack_is_imported_only_where_it_is_used():
    # pytest loads scipy.integrate itself (the IntegrationWarning filter), so
    # the import path is checked in a fresh interpreter
    assert fresh_python(_IMPORT_PATH, blas_threads=1).splitlines()[-1] == "ok"
