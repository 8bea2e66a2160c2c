"""Drift integrals over arrays of points: bit-equal to the per-point calls
that the invariant averages and the corrector right-hand sides made before
they passed the whole grid in one call."""

import numpy as np
import pytest

from levyhom.config import FIXTURES, fixture_config, load_config
from levyhom.corrector import corrector_rhs
from levyhom.ergodic import effective_drifts, mu_average, stationary_measure
from levyhom.spec_model import (IntegrabilityError, PeriodicKernel,
                                full_drift, truncated_drift)
from levyhom.trigpoly import TrigPoly

from conftest import make_spec
from test_modes import _coupled_spec_2d

RADII = (2.0, 16.0, np.inf)


def _measure(spec):
    # the default grid in d = 1; 16 x 16 cells keep the d = 2 loops short
    return stationary_measure(spec, 16 if spec.d > 1 else None)


def _drift(spec, x, R):
    if np.isinf(R):
        return full_drift(spec, x)
    return truncated_drift(spec, x, R)


def _assert_rows_match_points(spec, pts, radii=RADII):
    for R in radii:
        if np.isinf(R) and not spec.phi.tail_integrable():
            with pytest.raises(IntegrabilityError):
                full_drift(spec, pts)
            continue
        got = _drift(spec, pts, R)
        assert got.shape == pts.shape
        flat = pts.reshape(-1, spec.d)
        ref = np.array([_drift(spec, x, R) for x in flat])
        assert np.array_equal(got.reshape(-1, spec.d), ref), R


def _complex_coupled_spec(d):
    # an x-mode with several nonzero entries and a complex coefficient:
    # a matmul phase or a complex array product would round rows apart
    mx, mz = (3, -5, 2)[:d], (1,) + (0,) * (d - 1)
    conj = (tuple(-v for v in mx), tuple(-v for v in mz))
    poly = TrigPoly.const(d, d, 1.0) + TrigPoly(d, d, {
        (mx, mz): 0.1 + 0.05j, conj: 0.1 - 0.05j})
    return make_spec(d=d, alpha=1.5, alpha0=1.0,
                     kernel=PeriodicKernel.trig(poly))


def _fixture_spec(name):
    return load_config(fixture_config(name)).spec


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_drifts_on_centers_match_per_point(name):
    spec = _fixture_spec(name)
    _assert_rows_match_points(spec, _measure(spec).centers)


def test_coupled_d2_drifts_match_per_point():
    spec = _coupled_spec_2d()
    centers = _measure(spec).centers
    _assert_rows_match_points(spec, centers)
    # leading axes of any shape
    _assert_rows_match_points(spec, centers.reshape(4, -1, 2), (4.0,))


@pytest.mark.parametrize("d", [2, 3])
def test_complex_modes_match_per_point_off_the_grid(d):
    pts = np.random.default_rng(d).random((64, d)) * 7.0 - 3.0
    _assert_rows_match_points(_complex_coupled_spec(d), pts)


# --------------------------------------------------------------------------
# the callers: copies of the per-cell loops they replaced
# --------------------------------------------------------------------------

def _effective_drifts_loops(spec, mu, R):
    try:
        b_inf = mu_average(mu, lambda pts: np.array(
            [full_drift(spec, x) for x in pts]))
    except IntegrabilityError:
        b_inf = None
    trunc = mu.weights @ np.array([truncated_drift(spec, x, R)
                                   for x in mu.centers])
    return b_inf, trunc


def _corrector_rhs_loops(spec, mu, mode, R=None):
    centers = mu.centers
    if mode == "full":
        tail = np.array([full_drift(spec, x) for x in centers])
    else:
        tail = np.array([truncated_drift(spec, x, R) for x in centers])
    bvals = spec.drift(centers).reshape(len(centers), spec.d)
    tail_avg = mu.weights @ tail
    b_avg = mu.weights @ bvals
    values = -(tail + bvals) + (tail_avg + b_avg)[None, :]
    shift = mu.weights @ values
    values = values - shift[None, :]
    return values, {"enforced_shift": shift.tolist(),
                    "tail_average": tail_avg.tolist(),
                    "drift_average": b_avg.tolist()}


def _caller_spec(name):
    return _coupled_spec_2d() if name == "coupled_d2" else _fixture_spec(name)


CALLER_SPECS = ["ex4_1_diffusive", "ex4_3_mixed", "ex4_1_critical",
                "coupled_d2"]


@pytest.mark.parametrize("name", CALLER_SPECS)
def test_effective_drifts_match_cell_loops(name):
    spec = _caller_spec(name)
    mu = _measure(spec)
    drifts = effective_drifts(spec, mu)
    for R in (2.0, 8.0):
        b_inf, trunc = _effective_drifts_loops(spec, mu, R)
        assert np.array_equal(drifts.b_trunc_bar(R), trunc)
    if b_inf is None:
        assert drifts.b_inf_bar is None
    else:
        assert np.array_equal(drifts.b_inf_bar, b_inf)


@pytest.mark.parametrize("name", CALLER_SPECS)
def test_corrector_rhs_matches_cell_loops(name):
    spec = _caller_spec(name)
    mu = _measure(spec)
    cases = [("truncated", 4.0)]
    if spec.phi.tail_integrable():
        cases.append(("full", None))
    for mode, R in cases:
        values, info = corrector_rhs(spec, mu, mode=mode, R=R)
        ref_values, ref_info = _corrector_rhs_loops(spec, mu, mode, R)
        assert np.array_equal(values, ref_values), mode
        assert info == ref_info, mode
