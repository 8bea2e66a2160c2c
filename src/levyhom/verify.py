"""Statistical checks that turn the weak-convergence statements into tests.

Everything here compares fixed-time marginals only: scaled endpoint batches
against sampled draws of the predicted limit (two-sample projections) and
against the limit's characteristic function. Reports state this limitation
explicitly; nothing claims path-space convergence.

Thresholds (final Kolmogorov-Smirnov distance 0.05 at 5000 paths, monotone
slack 0.02) are calibration constants of this repository, not claims imported
from the theory.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .limits import LimitLaw, char_fn, predicted_limit, sample_limit
from .pathsim import (EndpointBatch, SimConfig, philox_key,
                      scaled_endpoint_batch)
from .regimes import Regime
from .spec_model import JumpSpec

KS_FINAL_THRESHOLD = 0.05
MONOTONE_SLACK = 0.02
DEFAULT_FREQ_COUNT = 20


# ---------------------------------------------------------------------------
# elementary statistics
# ---------------------------------------------------------------------------

def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic of 1d samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_projection(batch_a, batch_b, direction):
    """KS statistic of the two batches projected on a direction."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    sa = np.asarray(batch_a.samples if isinstance(batch_a, EndpointBatch)
                    else batch_a)
    sb = np.asarray(batch_b.samples if isinstance(batch_b, EndpointBatch)
                    else batch_b)
    return ks_statistic(sa @ direction, sb @ direction)


def projection_directions(d, seed):
    """The d axes plus 2d seeded random unit vectors (Cramer-Wold surrogate),
    drawn from a stream that no path of a batch seeded with ``seed`` reads."""
    dirs = [np.eye(d)[a] for a in range(d)]
    gen = np.random.Generator(np.random.Philox(key=philox_key(seed, -1)))
    for _ in range(2 * d):
        v = gen.standard_normal(d)
        dirs.append(v / np.linalg.norm(v))
    return dirs


def ecf_distance(batch, law: LimitLaw, freqs=None, t=None):
    """Sup over the frequency grid of |empirical CF - predicted CF|.

    Returns (distance, rows); each row carries the frequency, the absolute
    gap, and the Monte Carlo standard error of the empirical CF there.
    """
    samples = np.asarray(batch.samples if isinstance(batch, EndpointBatch)
                         else batch)
    n, d = samples.shape
    t = t if t is not None else (batch.t if isinstance(batch, EndpointBatch)
                                 else 1.0)
    if freqs is None:
        base = np.linspace(0.3, 5.0, DEFAULT_FREQ_COUNT)
        freqs = [u * np.eye(d)[a] for a in range(d) for u in base]
    if len(freqs) > 100:
        raise ValueError("frequency grid capped at 100 points")
    rows = []
    worst = 0.0
    for u in freqs:
        u = np.asarray(u, dtype=float)
        phase = samples @ u
        re, im = np.cos(phase), np.sin(phase)
        emp = complex(re.mean(), im.mean())
        se = math.sqrt((re.var() + im.var()) / n)
        target = char_fn(law, u, t)
        gap = abs(emp - target)
        worst = max(worst, gap)
        rows.append({"freq": u.tolist(), "gap": gap, "se": se,
                     "within_3se": bool(gap <= 3 * se)})
    return worst, rows


# ---------------------------------------------------------------------------
# theorem-level convergence report
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    eps: float
    ks_by_direction: list
    ks_max: float
    ecf_gap: float
    n: int
    error: str = ""
    meta: dict = field(default_factory=dict)


# the deterministic settings and counters a row keeps from its batch's meta;
# timings are left out, so that a report's bytes depend on its inputs only
ROW_META_KEYS = ("branch", "dt", "rmax", "delta", "candidates", "accepted",
                 "chunk_paths", "pool_processes", "accept")


@dataclass
class ConvergenceReport:
    regime: str
    rows: list
    verdict: str                   # "PASS" | "FAIL" | "ERROR"
    thresholds: dict
    meta: dict = field(default_factory=dict)

    def to_json(self, path=None):
        payload = {
            "regime": self.regime, "verdict": self.verdict,
            "thresholds": self.thresholds,
            "rows": [{"eps": r.eps, "ks_max": r.ks_max,
                      "ks_by_direction": r.ks_by_direction,
                      "ecf_gap": r.ecf_gap, "n": r.n, "error": r.error,
                      "meta": r.meta}
                     for r in self.rows],
            "meta": self.meta,
            "scope": "fixed-time marginal agreement at t=1 only; no "
                     "path-space statement is tested",
        }
        if path:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2)
        return payload

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "ks_max", "ecf_gap", "n", "error"])
            for r in self.rows:
                w.writerow([f"{r.eps:.17g}", f"{r.ks_max:.17g}",
                            f"{r.ecf_gap:.17g}", r.n, r.error])


def theorem_check(spec: JumpSpec, eps_ladder, n=5000, seed=0,
                  law: Optional[LimitLaw] = None,
                  sim: Optional[SimConfig] = None, t=1.0
                  ) -> ConvergenceReport:
    """Marginal-convergence check of the spec's regime on an epsilon ladder.

    For each epsilon the scaled recentered batch is compared against a fresh
    sample of the predicted limit (two-sample KS on the projection
    directions, plus the CF gap). PASS requires the final-epsilon KS below
    ``KS_FINAL_THRESHOLD`` on every direction and a KS sequence that does
    not rise by more than ``MONOTONE_SLACK``. ``law`` overrides the
    predicted limit (negative controls).
    """
    from .ergodic import effective_drifts, stationary_measure

    eps_ladder = sorted(eps_ladder, reverse=True)
    mu = stationary_measure(spec)
    if law is None:
        law = predicted_limit(spec, mu)
    regime = Regime.of(spec.phi.index)
    drifts = effective_drifts(spec, mu) if regime.needs_centering() else None

    sim = sim or SimConfig()
    dirs = projection_directions(spec.d, seed)
    rows = []
    for i, eps in enumerate(eps_ladder):
        try:
            cfg = replace(sim, paths=n, horizon=t, seed=seed + 1009 * i,
                          eps=eps)
            batch = scaled_endpoint_batch(spec, cfg, drifts,
                                          start_measure=mu)
            ref = sample_limit(law, t, n, seed + 1009 * i + 499)
            ks_list = [ks_projection(batch, ref, v) for v in dirs]
            gap, _ = ecf_distance(batch, law)
            rows.append(ConvergenceRow(
                eps, ks_list, max(ks_list), gap, n,
                meta={k: batch.meta[k] for k in ROW_META_KEYS}))
        except Exception as exc:             # annotate, keep the ladder going
            rows.append(ConvergenceRow(eps, [], float("nan"), float("nan"),
                                       n, error=f"{type(exc).__name__}: {exc}"))
    verdict = _verdict(rows)
    return ConvergenceReport(regime=regime.name, rows=rows, verdict=verdict,
                             thresholds={"ks_final": KS_FINAL_THRESHOLD,
                                         "monotone_slack": MONOTONE_SLACK},
                             meta={"directions": [list(map(float, v))
                                                  for v in dirs],
                                   "paths": n, "seed": int(seed), "t": t,
                                   "law": law.kind,
                                   "mu": dict(mu.meta)})


def _verdict(rows):
    if any(r.error for r in rows):
        return "ERROR"
    seq = [r.ks_max for r in rows]
    final_ok = rows[-1].ks_max <= KS_FINAL_THRESHOLD and \
        all(k <= KS_FINAL_THRESHOLD for k in rows[-1].ks_by_direction)
    monotone_ok = all(b <= a + MONOTONE_SLACK for a, b in zip(seq, seq[1:]))
    return "PASS" if (final_ok and monotone_ok) else "FAIL"
