"""Statistical verification layer: null calibration and negative controls."""

import json
import math

import numpy as np
import pytest

from levyhom.config import fixture_config, load_config
from levyhom.limits import LimitLaw, sample_limit
from levyhom.pathsim import SimConfig, philox_key
from levyhom.spec_model import SphericalMeasure
from levyhom.verify import (ROW_META_KEYS, ecf_distance, ks_projection,
                            ks_statistic, projection_directions, theorem_check)

from conftest import make_spec
from oracles import exact_symmetric_stable_1d


def stable_law(alpha=0.5, kbar=1.0):
    rho = SphericalMeasure.uniform(1, 1.0)
    return LimitLaw(kind="stable", alpha=alpha, rho0=rho,
                    kbar0=np.full(2, kbar))


# --------------------------------------------------------------------------
# KS machinery
# --------------------------------------------------------------------------

def test_ks_identical_batches_zero():
    x = np.random.default_rng(0).standard_normal(500)
    assert ks_statistic(x, x) == 0.0
    assert ks_statistic(x, np.random.default_rng(1).permutation(x)) == 0.0


def test_ks_projection_normalizes_direction():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((400, 2))
    assert ks_projection(a, a, [3.0, 4.0]) == 0.0


def test_ks_null_distribution_calibration():
    # same-sampler draws with different seeds stay below the 1% critical value
    law = stable_law()
    crit = 1.63 * math.sqrt(2.0 / 5000)
    hits = 0
    reps = 20
    for rep in range(reps):
        a = sample_limit(law, 1.0, 5000, seed=100 + rep)
        b = sample_limit(law, 1.0, 5000, seed=900 + rep)
        if ks_statistic(a.samples[:, 0], b.samples[:, 0]) < crit:
            hits += 1
    assert hits >= 0.95 * reps


def test_projection_directions_deterministic():
    d1 = projection_directions(2, seed=5)
    d2 = projection_directions(2, seed=5)
    assert len(d1) == 2 + 4
    for u, v in zip(d1, d2):
        assert np.array_equal(u, v)


def test_projection_directions_share_no_path_stream():
    # theorem_check's first batch is seeded like the directions; none of
    # its paths may draw the directions' normals
    seed, d = 7, 2
    first = projection_directions(d, seed)[d]
    for i in range(64):
        gen = np.random.Generator(np.random.Philox(key=philox_key(seed, i)))
        v = gen.standard_normal(d)
        assert not np.allclose(v / np.linalg.norm(v), first), i


# --------------------------------------------------------------------------
# empirical characteristic function distance
# --------------------------------------------------------------------------

def test_ecf_zero_batch_against_zero_law():
    law = LimitLaw(kind="gaussian", A=np.zeros((1, 1)))
    batch = np.zeros((200, 1))
    worst, rows = ecf_distance(batch, law, t=1.0)
    assert worst == 0.0


def test_ecf_gaussian_matches_within_3se():
    law = LimitLaw(kind="gaussian", A=np.eye(1))
    misses = 0
    reps = 20
    for rep in range(reps):
        batch = sample_limit(law, 1.0, 4000, seed=rep)
        _, rows = ecf_distance(batch, law)
        if not all(r["within_3se"] for r in rows):
            misses += 1
    assert misses <= 0.05 * reps + 1


def test_ecf_negative_control_mismatched_index():
    rho = SphericalMeasure.uniform(1, 1.0)
    law_wrong = LimitLaw(kind="stable", alpha=1.5, rho0=rho,
                         kbar0=np.full(2, 1.0))
    batch = sample_limit(stable_law(alpha=0.5), 1.0, 5000, seed=4)
    _, rows = ecf_distance(batch, law_wrong)
    z_scores = [r["gap"] / max(r["se"], 1e-12) for r in rows]
    assert max(z_scores) > 5.0


def test_negative_seed_keys_its_twos_complement():
    # every seeded stream keys seed mod 2^64, so -1 draws what 2^64 - 1 does
    top = 2 ** 64 - 1
    assert np.array_equal(projection_directions(2, -1),
                          projection_directions(2, top))
    x = exact_symmetric_stable_1d(0.5, 1.0, 1.0, 400, seed=-1)
    assert np.array_equal(x, exact_symmetric_stable_1d(0.5, 1.0, 1.0, 400,
                                                       seed=top))
    law = LimitLaw(kind="gaussian", A=np.eye(1))
    assert np.array_equal(sample_limit(law, 1.0, 50, -1).samples,
                          sample_limit(law, 1.0, 50, top).samples)


# --------------------------------------------------------------------------
# theorem-level checks (small smoke versions; the full-size runs live in
# the acceptance suite)
# --------------------------------------------------------------------------

def test_theorem_check_pure_stable_passes():
    spec = make_spec(alpha=0.5, alpha0=0.5)
    report = theorem_check(spec, [1.0 / 8, 1.0 / 32],
                           n=2000, seed=3, sim=SimConfig(delta=0.1))
    assert report.verdict == "PASS", report.to_json()


def test_theorem_check_negative_control_fails():
    spec = make_spec(alpha=0.5, alpha0=0.5)
    rho = spec.rho0
    wrong = LimitLaw(kind="stable", alpha=0.5, rho0=rho,
                     kbar0=np.full(len(rho.weights), 2.0))
    report = theorem_check(spec, [1.0 / 8, 1.0 / 32],
                           n=2000, seed=3, law=wrong,
                           sim=SimConfig(delta=0.1))
    assert report.verdict == "FAIL"


@pytest.mark.parametrize("name, verdict", [("ex4_1_cauchy", "PASS"),
                                           ("ex4_0_axes", "FAIL"),
                                           ("ex4_1_critical", "FAIL")])
def test_theorem_check_fixture_defaults(name, verdict):
    # the `levyhom verify` call at fixture defaults (ladder 1/8, 1/32), its
    # verdict pinned as measured; the axes FAIL is the slow eps^{1/4} decay
    # of the mean of the missing sub-eps jumps, and the critical FAIL the
    # slow (logarithmic) approach of its finite-eps law to the Gaussian
    # limit, not a wrong limit. Two workers give the same bits as one and
    # halve the wall time.
    settings = load_config(fixture_config(name))
    settings.sim.workers = 2
    report = theorem_check(settings.spec, [1.0 / 8, 1.0 / 32],
                           n=settings.sim.paths, seed=settings.sim.seed,
                           sim=settings.sim, t=settings.sim.horizon)
    assert not any(r.error for r in report.rows)
    assert report.verdict == verdict
    for row in report.rows:
        _check_row_meta(row.meta)
    assert report.rows[0].meta["accept"]["route"] == \
        {"ex4_1_cauchy": "constant", "ex4_0_axes": "z_modes",
         "ex4_1_critical": "constant"}[name]
    assert report.meta["mu"]["route"] == "fourier_galerkin"
    assert report.meta["mu"]["clipped_mass"] >= 0.0
    assert np.isfinite(report.meta["mu"]["residual"])


def test_theorem_check_numpy_integer_seed_matches_python_int():
    # a NumPy integer seed keys the same streams, the Gaussian reference
    # included, and the report serializes as for the Python int
    settings = load_config(fixture_config("ex4_1_diffusive"))
    reports = [theorem_check(settings.spec, [1.0 / 8], n=300,
                             seed=seed, sim=settings.sim).to_json()
               for seed in (5, np.int64(5))]
    assert reports[0]["verdict"] != "ERROR"
    assert json.dumps(reports[1]) == json.dumps(reports[0])


def _check_row_meta(meta):
    """A row carries its batch's deterministic settings and counters, and no
    timing: traced and untraced reports must be byte-identical."""
    assert tuple(meta) == ROW_META_KEYS
    assert 0 <= meta["accepted"] <= meta["candidates"]
    assert meta["branch"] in ("levy", "thinning", "stepped")
    assert meta["dt"] > 0 and 0 < meta["delta"] <= 1 <= meta["rmax"]
    assert meta["chunk_paths"] >= 1 and meta["pool_processes"] >= 0


def test_theorem_check_annotates_upstream_errors():
    spec = make_spec(alpha=0.5, alpha0=0.5)
    report = theorem_check(spec, [0.25], n=50, seed=1,
                           sim=SimConfig(delta=0.1, rmax=2.0))
    assert report.verdict == "ERROR"
    assert report.rows[0].error and report.rows[0].meta == {}


def test_report_serialization(tmp_path):
    spec = make_spec(alpha=0.5, alpha0=0.5)
    report = theorem_check(spec, [0.25], n=500, seed=2,
                           sim=SimConfig(delta=0.1))
    payload = report.to_json(tmp_path / "report.json")
    assert "marginal" in payload["scope"]
    _check_row_meta(payload["rows"][0]["meta"])
    assert payload["rows"][0]["meta"]["accept"] == {"route": "constant",
                                                    "envelope": False}
    again = theorem_check(spec, [0.25], n=500, seed=2,
                          sim=SimConfig(delta=0.1))
    assert json.dumps(again.to_json(), sort_keys=True) == \
        json.dumps(payload, sort_keys=True)
    report.to_csv(tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_text().startswith("eps,")
