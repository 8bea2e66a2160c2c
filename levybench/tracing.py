"""Spans around the public functions of each levyhom module.

The traced run installs wrappers around the functions listed in ``TARGETS``
(in every levyhom module namespace that imported them, so calls across
modules are caught too) and then runs the same CLI command as the untraced
run. Spans are kept in memory and written out when the run ends.

``layer_metrics`` turns a span list into the per-layer metrics. It needs no
levyhom import, so the parent process can call it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import statistics
import sys
import time

# (layer, module, qualified names); a layer is the module whose code runs
TARGETS = [
    ("pathsim", "pathsim", ["driver_from_spec", "run_paths",
                            "scaled_endpoint_batch", "simulate_snapshots"]),
    ("corrector", "corrector", ["jump_nodes", "assemble_operator",
                                "AssembledOperator.stationary_weights",
                                "solve_poisson", "solve_recentering_corrector",
                                "corrector_rhs", "covariance_matrix",
                                "critical_covariance", "fourier_multiplier"]),
    ("ergodic", "ergodic", ["stationary_measure", "effective_drifts",
                            "kernel_tail_constant", "mixing_rate"]),
    ("averaging", "averaging", ["effective_kernel_table"]),
    ("limits", "limits", ["predicted_limit", "sample_limit"]),
    ("verify", "verify", ["theorem_check", "ks_projection", "ecf_distance"]),
    ("io", "verify", ["ConvergenceReport.to_json", "ConvergenceReport.to_csv"]),
    ("io", "ergodic", ["TorusMeasure.to_csv"]),
    ("io", "averaging", ["write_kernel_table_csv"]),
]

LAYERS = ["pathsim", "corrector", "ergodic", "averaging", "limits", "verify",
          "io", "cli"]


def digest(array):
    import numpy as np
    a = np.ascontiguousarray(array, dtype=np.float64)
    return hashlib.sha256(a.tobytes()).hexdigest()


def _finite(array):
    import numpy as np
    return bool(np.all(np.isfinite(array)))


def _ancestors(spans, span):
    """Names of a span's ancestors; ``spans`` is indexed by span id."""
    out = []
    while span["parent"] is not None:
        span = spans[span["parent"]]
        out.append(span["name"])
    return out


class Tracer:
    """In-memory span recorder; spans of one run share ``run_id``."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self.drivers = []       # (span, JumpDriver) in call order
        self.measures = []      # TorusMeasure results of stationary_measure
        self._stack = []

    def open(self, name, layer):
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "run_id": self.run_id, "start": time.monotonic(),
                "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.monotonic()
        self._stack.pop()

    def call(self, name, layer, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            self.close(span)

    def wrap(self, name, layer, fn):
        annotate = _ANNOTATORS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if annotate is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    annotate(self, span, bound.arguments, out)
                except (AttributeError, KeyError, TypeError) as exc:
                    # the function changed shape; keep the timing
                    span["attrs"]["annotate_error"] = repr(exc)
            return out

        return wrapper

    def install(self):
        """Wrap every target; records the ones the package no longer has."""
        for layer, module, names in TARGETS:
            mod = sys.modules.get(f"levyhom.{module}")
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.missing.append(f"{module}.{qual}")
                    continue
                wrapper = self.wrap(f"{module}.{qual}", layer, orig)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").startswith("levyhom"):
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, key, wrapper)


# ---------------------------------------------------------------------------
# annotators: counters, digests and captured objects, taken after the span
# closes so that they cost the span nothing
# ---------------------------------------------------------------------------

def _ann_driver(tracer, span, args, out):
    tracer.drivers.append((span, out))


def _ann_run_paths(tracer, span, args, out):
    drv, T, n, dt = args["driver"], args["T"], args["n_paths"], args["dt"]
    # mirrors the branch test in pathsim.run_paths: with no Gaussian part,
    # no state-dependent drift and no observers the engine needs no grid
    thinning = (drv.has_jumps and drv.drift_fn is None and not drv.has_gauss
                and not args["collectors"] and args["jump_hook"] is None)
    span["attrs"].update({
        "paths": int(n), "horizon": float(T),
        "candidates": float(drv.rate * T * n),
        "steps": 0 if thinning else
        max(1, int(math.ceil(T / dt - 1e-12))) * int(n),
        "branch": "thinning" if thinning else "stepped"})


def _ann_samples(tracer, span, args, out):
    span["attrs"].update({"digest": digest(out.samples),
                          "finite": _finite(out.samples),
                          "eps": float(out.eps), "paths": int(out.n)})


def _ann_snapshots(tracer, span, args, out):
    span["attrs"].update({"digest": digest(out), "finite": _finite(out),
                          "paths": int(out.shape[0])})


def _ann_measure(tracer, span, args, out):
    import numpy as np
    w = out.weights
    tracer.measures.append(out)
    span["attrs"].update({
        "digest": digest(w), "finite": _finite(w), "cells": int(w.size),
        "tv_uniform": 0.5 * float(np.abs(w - 1.0 / w.size).sum())})


def _ann_assemble(tracer, span, args, out):
    span["attrs"]["grid_cells"] = int(out.grid.size)


def _ann_jump_nodes(tracer, span, args, out):
    span["attrs"]["nodes"] = int(len(out[1]))


def _dense_solve_flops(n):
    return 2.0 / 3.0 * float(n) ** 3


def _ann_stationary_weights(tracer, span, args, out):
    span["attrs"]["flops"] = _dense_solve_flops(args["self"].grid.size + 1)


def _ann_poisson(tracer, span, args, out):
    if args["method"] == "grid":
        span["attrs"]["flops"] = _dense_solve_flops(out.grid.size + 1)
    span["attrs"]["residual_rel"] = float(out.residual_rel)


def _ann_recentering(tracer, span, args, out):
    span["attrs"]["residual_rel"] = float(out.residual_rel)


def _ann_drifts(tracer, span, args, out):
    if out.b_trunc_bar is not None:
        out.b_trunc_bar = functools.partial(
            tracer.call, "ergodic.b_trunc_bar", "ergodic", out.b_trunc_bar)


def _ann_kernel_tail(tracer, span, args, out):
    span["attrs"].update({"value": float(out[0]), "cauchy": bool(out[1])})


def _ann_stat(tracer, span, args, out):
    value = out[0] if isinstance(out, tuple) else out
    span["attrs"].update({"value": float(value),
                          "finite": bool(math.isfinite(value))})


def _ann_theorem(tracer, span, args, out):
    final = min(out.rows, key=lambda r: r.eps)
    span["attrs"].update({"verdict": out.verdict,
                          "ks_final": float(final.ks_max),
                          "ecf_gap_final": float(final.ecf_gap),
                          "row_errors": [r.error for r in out.rows if r.error]})


_ANNOTATORS = {
    "pathsim.driver_from_spec": _ann_driver,
    "pathsim.run_paths": _ann_run_paths,
    "pathsim.scaled_endpoint_batch": _ann_samples,
    "pathsim.simulate_snapshots": _ann_snapshots,
    "corrector.assemble_operator": _ann_assemble,
    "corrector.jump_nodes": _ann_jump_nodes,
    "corrector.AssembledOperator.stationary_weights": _ann_stationary_weights,
    "corrector.solve_poisson": _ann_poisson,
    "corrector.solve_recentering_corrector": _ann_recentering,
    "ergodic.stationary_measure": _ann_measure,
    "ergodic.effective_drifts": _ann_drifts,
    "ergodic.kernel_tail_constant": _ann_kernel_tail,
    "limits.sample_limit": _ann_samples,
    "verify.theorem_check": _ann_theorem,
    "verify.ks_projection": _ann_stat,
    "verify.ecf_distance": _ann_stat,
}


# ---------------------------------------------------------------------------
# JumpDriver callables at states drawn from the invariant measure
# ---------------------------------------------------------------------------

def _time_per_call(fn, min_seconds=0.5, min_calls=5):
    times = []
    t_end = time.monotonic() + min_seconds
    while len(times) < min_calls or time.monotonic() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def driver_probe(tracer, seed, points=1000, ratio_points=20000):
    """Cost per 1000 states of the engine's per-step callables, and the
    thinning acceptance ratio, for the JumpDriver of the workload's first
    engine run (endpoint batch, else snapshots)."""
    chosen = None
    for owner in ("pathsim.scaled_endpoint_batch",
                  "pathsim.simulate_snapshots"):
        for span, drv in tracer.drivers:
            if owner in _ancestors(tracer.spans, span):
                chosen = drv
                break
        if chosen is not None:
            break
    out = {"gauss_coef_us": 0.0, "drift_fn_us": 0.0, "accept_us": 0.0,
           "accept_ratio": 0.0}
    if chosen is None or not tracer.measures:
        return out
    try:
        _probe(chosen, tracer.measures[0], seed, points, ratio_points, out)
    except (AttributeError, TypeError, ValueError) as exc:
        # the JumpDriver changed shape; the probe reads 0 and says why
        out["error"] = repr(exc)
    return out


def _probe(chosen, mu, seed, points, ratio_points, out):
    import numpy as np
    from levyhom.pathsim import measure_start_sampler

    gen = np.random.Generator(np.random.Philox(
        key=np.array([np.uint64(seed), np.uint64(0xBE4C)], dtype=np.uint64)))
    sampler = measure_start_sampler(mu)
    X = np.asarray(sampler(gen.random((ratio_points, 2))), dtype=float)
    X = X.reshape(ratio_points, chosen.dim)
    per_k = 1e6 * 1000.0 / points
    Xs = X[:points]
    if chosen.gauss_coef is not None:
        out["gauss_coef_us"] = per_k * _time_per_call(
            lambda: chosen.gauss_coef(Xs))
    if chosen.drift_fn is not None:
        out["drift_fn_us"] = per_k * _time_per_call(
            lambda: chosen.drift_fn(Xs))
    if chosen.has_jumps:
        z = chosen.z_from_packets(gen.random((ratio_points, 5)))
        zs = z[:points]
        out["accept_us"] = per_k * _time_per_call(
            lambda: chosen.accept_fraction(Xs, zs))
        out["accept_ratio"] = float(np.mean(chosen.accept_fraction(X, z)))


# ---------------------------------------------------------------------------
# per-layer metrics from a finished trace
# ---------------------------------------------------------------------------

def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(trace, untraced_wall, dominant_layers):
    """Per-layer metrics (name -> (value, unit)) from a traced run's record."""
    spans = trace["spans"]

    def named(name, under=None, not_under=None):
        return [s for s in spans if s["name"] == name
                and (under is None or under in _ancestors(spans, s))
                and (not_under is None or
                     not_under not in _ancestors(spans, s))]

    def total(name, **kw):
        return sum(_dur(s) for s in named(name, **kw))

    def attr_sum(items, key):
        return sum(s["attrs"].get(key, 0) for s in items)

    root = next(s for s in spans if s["parent"] is None)
    root_s = _dur(root)
    child_s = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += _dur(s)
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_s[s["layer"]] += _dur(s) - child_s[s["id"]]
    top_level = sum(_dur(s) for s in spans if s["parent"] == root["id"])

    batch = "pathsim.scaled_endpoint_batch"
    engine = named("pathsim.run_paths", under=batch)
    engine_s = sum(_dur(s) for s in engine)
    stepped = [s for s in engine if s["attrs"].get("branch") == "stepped"]
    stepped_s = sum(_dur(s) for s in stepped)
    candidates = attr_sum(engine, "candidates")
    steps = attr_sum(stepped, "steps")
    snaps = named("pathsim.simulate_snapshots")
    snaps_s = sum(_dur(s) for s in snaps)
    assemblies = named("corrector.assemble_operator")
    nodes = named("corrector.jump_nodes", under="corrector.assemble_operator")
    solves = named("corrector.AssembledOperator.stationary_weights",
                   not_under="corrector.solve_poisson")
    poisson = named("corrector.solve_poisson")
    recentering = named("corrector.solve_recentering_corrector")
    theorem = named("verify.theorem_check")
    final = theorem[-1]["attrs"] if theorem else {}
    probe = trace["probe"]

    m = {
        "pathsim.batch_s": (total(batch), "s"),
        "pathsim.driver_s": (total("pathsim.driver_from_spec"), "s"),
        "pathsim.candidates": (candidates, "count"),
        "pathsim.candidates_per_s": (
            candidates / engine_s if engine_s else 0.0, "1/s"),
        "pathsim.steps": (steps, "count"),
        "pathsim.steps_per_s": (steps / stepped_s if stepped_s else 0.0,
                                "1/s"),
        "pathsim.gauss_coef_us": (probe["gauss_coef_us"], "us"),
        "pathsim.drift_fn_us": (probe["drift_fn_us"], "us"),
        "pathsim.accept_us": (probe["accept_us"], "us"),
        "pathsim.accept_ratio": (probe["accept_ratio"], "ratio"),
        "pathsim.snapshot_paths_per_s": (
            attr_sum(snaps, "paths") / snaps_s if snaps_s else 0.0, "1/s"),
        "corrector.assemble_s": (total("corrector.assemble_operator"), "s"),
        "corrector.stationary_solve_s": (sum(_dur(s) for s in solves), "s"),
        "corrector.grid_cells": (
            max((s["attrs"].get("grid_cells", 0) for s in assemblies),
                default=0),
            "count"),
        "corrector.jump_nodes": (
            max((s["attrs"].get("nodes", 0) for s in nodes), default=0),
            "count"),
        "corrector.dense_flops": (
            attr_sum(named("corrector.AssembledOperator.stationary_weights"),
                     "flops") + attr_sum(poisson, "flops"), "flop"),
        "corrector.poisson_s": (total("corrector.solve_poisson"), "s"),
        "corrector.covariance_s": (total("corrector.covariance_matrix") +
                                   total("corrector.critical_covariance"),
                                   "s"),
        "corrector.residual_rel": (
            max((s["attrs"].get("residual_rel", 0.0) for s in recentering),
                default=0.0), "ratio"),
        "ergodic.stationary_measure_s": (total("ergodic.stationary_measure"),
                                         "s"),
        "ergodic.effective_drifts_s": (total("ergodic.effective_drifts"), "s"),
        "ergodic.trunc_ladder_s": (total("ergodic.b_trunc_bar"), "s"),
        "ergodic.kernel_tail_s": (total("ergodic.kernel_tail_constant"), "s"),
        "ergodic.mixing_s": (total("ergodic.mixing_rate"), "s"),
        "averaging.kernel_table_s": (total("averaging.effective_kernel_table"),
                                     "s"),
        "limits.predicted_limit_s": (total("limits.predicted_limit"), "s"),
        "limits.sample_limit_s": (total("limits.sample_limit"), "s"),
        "verify.stats_s": (total("verify.ks_projection") +
                           total("verify.ecf_distance"), "s"),
        "verify.ks_final": (final.get("ks_final", 0.0), "ratio"),
        "verify.ecf_gap_final": (final.get("ecf_gap_final", 0.0), "ratio"),
        "trace.total_s": (root_s, "s"),
        "trace.overhead_s": (root_s - untraced_wall, "s"),
        "trace.coverage": (top_level / root_s, "ratio"),
        "trace.spans": (len(spans), "count"),
        "share.dominant": (sum(self_s[k] for k in dominant_layers) / root_s,
                           "ratio"),
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (self_s[layer], "s")
    return m


def digests(trace):
    """Output digests of a traced run, keyed by producer and call order."""
    out, seen = {}, {}
    for s in trace["spans"]:
        if "digest" in s["attrs"]:
            k = seen.get(s["name"], 0)
            seen[s["name"]] = k + 1
            out[f"{s['name']}#{k}"] = s["attrs"]["digest"]
    return out


def nonfinite_outputs(trace):
    """Names of spans whose samples, statistics or weights were not finite."""
    return sorted({s["name"] for s in trace["spans"]
                   if s["attrs"].get("finite") is False})
