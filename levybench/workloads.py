"""The benchmark's workloads and the checks on their CLI outputs.

Each workload is one ``levyhom`` CLI command on a named fixture. The
benchmark seed becomes the config's ``sim.seed``, the only random input.
Why each workload exists, and which layer it should stress, is in NOTE.md.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

NPROC = os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str
    command: str                      # "verify" | "effective"
    flags: tuple = ()
    sim: dict = field(default_factory=dict)
    dominant: tuple = ()              # layers the traced run should find on top

    @property
    def takes_workers(self):
        return self.command == "verify"

    def config(self, seed):
        """Fixture document with the benchmark's overrides and seed."""
        from levyhom.config import fixture_config
        raw = fixture_config(self.fixture)
        raw["sim"].update(self.sim, seed=int(seed))
        return raw

    def argv(self, config_path, out_dir, workers=NPROC):
        argv = [self.command, str(config_path), "--out", str(out_dir),
                *self.flags]
        if self.takes_workers:
            argv += ["--workers", str(workers)]
        return argv

    @property
    def output(self):
        """The CLI output file whose bytes a traced run must reproduce."""
        return ("convergence.json" if self.command == "verify"
                else "effective.json")

    def check(self, rc, out_dir):
        """Failure reason for one CLI execution, or "" when it passed."""
        if self.command == "verify":
            return _check_verify(rc, out_dir)
        return _check_effective(rc, out_dir)


WORKLOADS = {w.name: w for w in [
    Workload("verify-diffusive", "ex4_1_diffusive", "verify",
             flags=("--ladder", "1/64"), dominant=("pathsim",)),
    Workload("verify-axes", "ex4_0_axes", "verify",
             flags=("--ladder", "1/8"), sim={"paths": 400},
             dominant=("pathsim",)),
    Workload("effective-critical", "ex4_1_critical", "effective",
             dominant=("corrector",)),
]}


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _check_verify(rc, out_dir):
    # 0 is PASS, 3 a recorded FAIL verdict; anything else is a failure
    if rc not in (0, 3):
        return f"exit code {rc}"
    report = json.loads((out_dir / "convergence.json").read_text())
    if (report["verdict"] == "PASS") != (rc == 0):
        return f"verdict {report['verdict']} with exit code {rc}"
    for row in report["rows"]:
        if row["error"]:
            return f"eps={row['eps']:g}: {row['error']}"
        if not _finite(row["ks_max"], row["ecf_gap"],
                       *row["ks_by_direction"]):
            return f"eps={row['eps']:g}: non-finite statistic"
    return ""


def _check_effective(rc, out_dir):
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads((out_dir / "effective.json").read_text())
    if not payload["kernel_tail_constant"]["cauchy"]:
        return "kernel_tail_constant is not flagged Cauchy"
    if not _finite(*payload["drift_average"],
                   payload["kernel_tail_constant"]["value"],
                   *payload["effective_kernel_table"]):
        return "non-finite effective quantity"
    with open(out_dir / "invariant_measure.csv", newline="") as fh:
        weights = [float(row["weight"]) for row in csv.DictReader(fh)]
    # the fixture's kernel and drift are constant, so mu is exactly uniform
    tv = 0.5 * sum(abs(w - 1.0 / len(weights)) for w in weights)
    if not tv <= 1e-9:
        return f"invariant measure is {tv:.3e} from uniform in TV"
    return ""
