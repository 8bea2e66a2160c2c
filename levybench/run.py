"""levyhom benchmark runner.

    python3 levybench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 levybench/run.py --self-check [--workload NAME] [--seed N]
    python3 levybench/run.py --summary [RESULTS_DIR]

Run from the root of a checkout. Every CLI command runs in a fresh process
(levybench/child.py) with BLAS limited to one thread.

``--trace 0`` measures the end-to-end metrics: set-up time (median over
several fresh processes), and the wall time and peak RSS of the workload's
CLI command, repeated while the ``--seconds`` budget lasts (medians).
``--trace 1`` runs the command once untraced and once with spans around the
public functions of each module, and reports the per-layer metrics.

Every run checks the CLI outputs (workloads.py), writes its record
(environment, samples, spans, digests) under levybench/out/results/, prints
a table, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--self-check`` asserts the reproducibility contract on the traced run's
output digests: two runs agree, and ``--workers 1`` agrees with
``--workers nproc``. ``--summary`` prints medians and quartile spreads of
the saved results per workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RESULTS = OUT / "results"
SETUP_PROCESSES = 5
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from workloads import NPROC, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy
    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "blas_threads": BLAS_THREADS, "git_commit": _git_commit(),
        "source_sha256": _source_digest(), "seed": seed,
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def spawn(mode, work_dir, config, seed, argv=(), run_id=""):
    """Run one fresh child; returns its result dict plus ``setup_s``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    request = work_dir / "request.json"
    result = work_dir / "result.json"
    request.write_text(json.dumps({
        "mode": mode, "config": str(config), "argv": list(argv),
        "result": str(result), "seed": seed, "run_id": run_id}))
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(request)],
            env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.exists():
        return {"error": f"child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    out = json.loads(result.read_text())
    out["setup_s"] = out["setup_done"] - launched
    return out


def run_command(workload, mode, work_dir, config, seed, workers=NPROC):
    """One CLI execution; returns (record, failure reason or "")."""
    cli_out = work_dir / "cli_out"
    argv = workload.argv(config, cli_out, workers)
    rec = spawn(mode, work_dir, config, seed, argv,
                run_id=f"{workload.name}-{seed}-{uuid.uuid4().hex[:8]}")
    if rec.get("error"):
        return rec, rec["error"].strip().splitlines()[-1]
    try:
        reason = workload.check(rec["rc"], cli_out)
        if not reason:
            rec["output_sha256"] = hashlib.sha256(
                (cli_out / workload.output).read_bytes()).hexdigest()
    except (OSError, ValueError, KeyError) as exc:
        reason = f"unreadable CLI output: {type(exc).__name__}: {exc}"
    if mode == "trace":
        from tracing import nonfinite_outputs
        bad = nonfinite_outputs(rec["trace"])
        if bad and not reason:
            reason = f"non-finite output in {', '.join(bad)}"
    return rec, reason


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def _setup_config(workload, seed, run_dir):
    from levyhom.config import dump_config
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / f"{workload.fixture}.json"
    config.write_text(dump_config(workload.config(seed)))
    return config


def measure_end_to_end(workload, seed, seconds, run_dir, config):
    setups = []
    for i in range(SETUP_PROCESSES):
        rec = spawn("setup", run_dir / f"setup{i}", config, seed)
        if rec.get("error"):
            raise BenchError(f"set-up process failed: {rec['error']}")
        setups.append(rec["setup_s"])
    reps, failures = [], []
    t_start = time.monotonic()
    while True:
        rec, reason = run_command(workload, "run", run_dir / f"rep{len(reps)}",
                                  config, seed)
        reps.append(rec)
        if reason:
            failures.append(reason)
        # stop where the measured window ends nearest to the budget
        elapsed = time.monotonic() - t_start
        if elapsed + 0.5 * elapsed / len(reps) >= seconds:
            break
    ok = [r for r in reps if "wall_s" in r] or reps
    metrics = {
        "setup_s": statistics.median(
            setups + [r["setup_s"] for r in ok if "setup_s" in r]),
        "wall_s": statistics.median(r.get("wall_s", float("nan"))
                                    for r in ok),
        "peak_rss_mb": statistics.median(r.get("peak_rss_mb", float("nan"))
                                         for r in ok),
    }
    record = {"setup_samples": setups,
              "reps": [{k: r.get(k) for k in ("rc", "wall_s", "peak_rss_mb",
                                               "setup_s", "output_sha256",
                                               "error")} for r in reps]}
    units = {k: END_TO_END_UNITS[k] for k in metrics}
    return metrics, units, len(reps), failures, record


def measure_per_layer(workload, seed, run_dir, config):
    from tracing import digests, layer_metrics
    plain, reason_plain = run_command(workload, "run", run_dir / "untraced",
                                      config, seed)
    traced, reason_traced = run_command(workload, "trace", run_dir / "traced",
                                        config, seed)
    failures = [r for r in (reason_plain, reason_traced) if r]
    if not failures and plain["output_sha256"] != traced["output_sha256"]:
        failures.append("traced output differs from the untraced output")
    if "trace" not in traced:
        raise BenchError(f"traced run produced no trace: {reason_traced}")
    trace = traced["trace"]
    named = layer_metrics(trace, plain.get("wall_s", float("nan")),
                          workload.dominant)
    metrics = {k: v for k, (v, _) in named.items()}
    units = {k: u for k, (_, u) in named.items()}
    record = {"untraced_wall_s": plain.get("wall_s"),
              "digests": digests(trace), "missing_targets": trace["missing"],
              "spans": trace["spans"], "probe": trace["probe"]}
    return metrics, units, 2, failures, record


def run_once(workload, seed, seconds, trace):
    run_id = f"{workload.name}_seed{seed}_trace{trace}_{os.getpid()}"
    run_dir = OUT / "work" / run_id
    try:
        config = _setup_config(workload, seed, run_dir)
        env = environment(seed)
        if trace:
            metrics, units, attempted, failures, record = measure_per_layer(
                workload, seed, run_dir, config)
        else:
            metrics, units, attempted, failures, record = measure_end_to_end(
                workload, seed, seconds, run_dir, config)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{run_id}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "seconds": seconds,
         "trace": trace, "environment": env, "failures": failures,
         "result": result, **record}, indent=1))
    return result, failures, record


def _print_table(workload, result, failures, record):
    print(f"workload {workload.name}: {result['failed']}/{result['attempted']}"
          f" operations failed "
          f"({result['failed'] / result['attempted']:.0%})")
    for reason in failures:
        print(f"  failed: {reason}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    cov = result["metrics"].get("trace.coverage")
    if cov is not None and cov["value"] < 0.95:
        print(f"  warning: top-level spans cover only {cov['value']:.1%} of "
              "the traced run; self.cli_s is an unmeasured layer")
    if record.get("missing_targets"):
        print(f"  warning: not traced (gone from levyhom): "
              f"{', '.join(record['missing_targets'])}")


# ---------------------------------------------------------------------------
# self-check and summary
# ---------------------------------------------------------------------------

def self_check(names, seed):
    from tracing import digests
    ok = True
    for name in names:
        workload = WORKLOADS[name]
        run_dir = OUT / "work" / f"selfcheck_{name}_{os.getpid()}"
        try:
            config = _setup_config(workload, seed, run_dir)
            # "run" uses --workers nproc where the command takes the flag
            variants = [("run1", NPROC), ("run2", NPROC)]
            if workload.takes_workers:
                variants.append(("workers1", 1))
            seen = []
            for label, workers in variants:
                rec, reason = run_command(workload, "trace", run_dir / label,
                                          config, seed, workers=workers)
                if reason or "trace" not in rec:
                    raise BenchError(f"{name} {label}: {reason}")
                seen.append((label, digests(rec["trace"])))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        base_label, base = seen[0]
        for label, dig in seen[1:]:
            same = dig == base
            ok &= same
            print(f"{name}: {label} vs {base_label}: "
                  f"{'identical' if same else 'DIFFERENT'} "
                  f"({len(dig)} digests)")
        if not base:
            ok = False
            print(f"{name}: no output digests recorded")
    return ok


def summary(results_dir):
    groups = {}
    for path in sorted(Path(results_dir).glob("*.json")):
        rec = json.loads(path.read_text())
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    out = {}
    for (name, trace), recs in sorted(groups.items()):
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        print(f"{name} trace={trace}: {len(recs)} runs, seeds "
              f"{sorted(r['seed'] for r in recs)}, {failed}/{attempted} "
              f"operations failed")
        rows = {}
        for metric in recs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][metric]["value"] for r in recs]
            unit = recs[0]["result"]["metrics"][metric]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": spread, "unit": unit, "runs": len(vals)}
            print(f"  {metric:32s} median {med:>12.6g} {unit:6s} "
                  f"q1 {q1:>12.6g} q3 {q3:>12.6g} spread {spread:7.2%}")
        out[f"{name}/trace{trace}"] = {"runs": len(recs),
                                       "attempted": attempted,
                                       "failed": failed, "metrics": rows,
                                       "environment": recs[0]["environment"]}
    print(json.dumps(out))


# ---------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--summary", nargs="?", const=str(RESULTS))
    args = p.parse_args(argv)
    if args.summary:
        summary(args.summary)
        return 0
    if not (ROOT / "src" / "levyhom" / "__init__.py").is_file():
        print(f"no levyhom sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.workload is not None and args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.workload is None and not args.self_check:
        p.error("--workload is required")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.self_check:
            names = [args.workload] if args.workload else list(WORKLOADS)
            return 0 if self_check(names, args.seed) else 1
        workload = WORKLOADS[args.workload]
        result, failures, record = run_once(workload, args.seed, args.seconds,
                                            args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    _print_table(workload, result, failures, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
