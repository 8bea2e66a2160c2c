"""Command-line pipeline: validate, effective, corrector, simulate, verify,
fixture.

Every command is a pure function of (config file, flags, seed): outputs land
in the chosen directory together with a manifest recording the config hash,
seed, package version and any flag overrides. Exit codes: 0 success or PASS,
2 validation failure, 3 verification FAIL, 4 malformed configuration or a
spec past the mode cap. The regime is read off phi's tail index.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import write_kernel_table_csv
from .config import (ConfigSchemaError, FIXTURES, dump_config, fixture_config,
                     load_config)
from .corrector import covariance_matrix, solve_recentering_corrector
from .ergodic import (effective_drifts, kernel_tail_constant, mixing_rate,
                      stationary_measure)
from .pathsim import ConfigError, SimConfig, scaled_endpoint_batch
from .regimes import CAUCHY_CENTER
from .spec_model import IntegrabilityError, validate
from .trigpoly import TrigPoly
from .verify import theorem_check

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY_FAIL = 3
EXIT_CONFIG = 4


def _manifest(settings, out_dir, command, artifacts, overrides):
    payload = {
        "command": command,
        "config_hash": settings.config_hash(),
        "seed": settings.sim.seed,
        "regime": settings.regime,
        "package_version": __version__,
        "artifacts": sorted(artifacts),
        "flag_overrides": overrides,
    }
    path = Path(out_dir) / f"manifest_{command}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _load(path):
    try:
        return load_config(path)
    except (ConfigSchemaError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _flags(args):
    """The value flags given on the command line, for the manifest."""
    return {name: getattr(args, name)
            for name in ("grid", "eps", "paths", "seed", "workers")
            if getattr(args, name, None) is not None}


def _apply_overrides(sim: SimConfig, args):
    overrides = {name: val for name, val in _flags(args).items()
                 if name != "grid"}
    try:
        replace(sim, **overrides)          # validates the overridden values
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    for name, val in overrides.items():
        setattr(sim, name, val)


def _check_positive_flags(args):
    """Exit 4, before anything is written, on a non-positive --eps, --paths
    or --grid."""
    for name in ("eps", "paths", "grid"):
        val = getattr(args, name, None)
        if val is not None and val <= 0:
            print(f"config error: --{name} must be positive, got {val:g}",
                  file=sys.stderr)
            raise SystemExit(EXIT_CONFIG)


def _ladder(text):
    """The eps values of a comma separated list such as '1/8,1/32'."""
    ladder = [float(Fraction(tok.strip())) for tok in text.split(",")]
    if min(ladder) <= 0:
        raise ValueError("eps values must be positive")
    return ladder


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    settings = _load(args.config)
    report = validate(settings.spec,
                      require_positive_kmin=args.require_positive_kmin)
    print(report.summary())
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "validation.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
        _manifest(settings, args.out, "validate", ["validation.json"], {})
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_effective(args):
    settings = _load(args.config)
    spec = settings.spec
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    e1 = np.eye(spec.d, dtype=int)[0]
    try:
        mu = stationary_measure(spec, args.grid)
        mix = mixing_rate(spec, [TrigPoly.cos_x(spec.d, 0, e1),
                                 TrigPoly.sin_x(spec.d, 0, e1)],
                          np.linspace(0.05, 0.8, 8), mu=mu)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    drifts = effective_drifts(spec, mu)
    k0, k0_cauchy, kbar0 = kernel_tail_constant(spec, mu)
    ladder = {}
    for R in (2.0, 4.0, 8.0, 16.0):
        ladder[str(R)] = np.atleast_1d(drifts.b_trunc_bar(R)).tolist()
    payload = {
        "drift_average": np.atleast_1d(drifts.b_bar).tolist(),
        "truncated_drift_average_ladder": ladder,
        "tail_drift_average": (None if drifts.b_inf_bar is None
                               else np.atleast_1d(drifts.b_inf_bar).tolist()),
        "effective_kernel_table": kbar0.tolist(),
        "kernel_tail_constant": {"value": k0, "cauchy": k0_cauchy},
        "invariant_measure": {**mu.meta, "grid_n": mu.grid.n,
                              "min_weight": float(mu.weights.min()),
                              "max_weight": float(mu.weights.max())},
        "mixing": mix.to_json(),
    }
    (out / "effective.json").write_text(json.dumps(payload, indent=2) + "\n")
    mu.to_csv(out / "invariant_measure.csv")
    write_kernel_table_csv(out / "effective_kernel.csv", spec.rho0, kbar0)
    _manifest(settings, out, "effective",
              ["effective.json", "invariant_measure.csv",
               "effective_kernel.csv"], _flags(args))
    print(json.dumps(payload["drift_average"]))
    return EXIT_OK


def cmd_corrector(args):
    settings = _load(args.config)
    spec = settings.spec
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mode = "truncated" if settings.regime == CAUCHY_CENTER else "full"
    R = None
    if mode == "truncated":
        R = 16.0 if args.eps is None else 1.0 / args.eps
    try:
        mu = stationary_measure(spec, args.grid)
        psi = solve_recentering_corrector(spec, mu, mode=mode, R=R)
    except IntegrabilityError as exc:
        print(f"corrector unavailable: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"corrector setup error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    artifacts = []
    for a, comp in enumerate(psi.components):
        name = f"corrector_{a}.csv"
        comp.to_csv(out / name)
        artifacts.append(name)
    info = {"sup_norm": psi.sup_norm, "grad_sup_norm": psi.grad_sup_norm,
            "residual_rel": psi.residual_rel, "mode": mode,
            "method": psi.components[0].method}
    try:
        cov = covariance_matrix(spec, mu, psi=psi)
        cov.to_json(out / "covariance.json")
        artifacts.append("covariance.json")
        info["covariance_eigenvalues"] = cov.eigenvalues.tolist()
    except IntegrabilityError:
        info["covariance"] = "second moment infinite; no diffusive matrix"
    (out / "corrector.json").write_text(json.dumps(info, indent=2) + "\n")
    artifacts.append("corrector.json")
    _manifest(settings, out, "corrector", artifacts, _flags(args))
    print(json.dumps(info))
    return EXIT_OK


def cmd_simulate(args):
    settings = _load(args.config)
    spec = settings.spec
    _apply_overrides(settings.sim, args)
    sim = settings.sim
    if sim.eps is None:
        print("config error: simulate needs eps (flag --eps)", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        mu = stationary_measure(spec, args.grid)
        batch = scaled_endpoint_batch(spec, sim, effective_drifts(spec, mu))
    except (ValueError, IntegrabilityError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    stem = f"batch_eps{sim.eps:g}_seed{sim.seed}"
    batch.save(out / f"{stem}.npz")
    batch.to_csv(out / f"{stem}.csv")
    _manifest(settings, out, "simulate",
              [f"{stem}.npz", f"{stem}.csv"], _flags(args))
    print(f"{stem}.npz")
    return EXIT_OK


def cmd_verify(args):
    settings = _load(args.config)
    spec = settings.spec
    _apply_overrides(settings.sim, args)
    try:
        ladder = _ladder(args.ladder) if args.ladder else [1.0 / 8, 1.0 / 32]
    except (ValueError, ZeroDivisionError) as exc:
        print(f"config error: --ladder {args.ladder!r}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = theorem_check(
            spec, ladder, n=settings.sim.paths,
            seed=settings.sim.seed, sim=settings.sim, t=settings.sim.horizon)
    except (ValueError, IntegrabilityError) as exc:
        print(f"verification setup error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report.to_json(out / "convergence.json")
    report.to_csv(out / "convergence.csv")
    _manifest(settings, out, "verify",
              ["convergence.json", "convergence.csv"],
              dict(_flags(args), ladder=ladder))
    for row in report.rows:
        print(f"eps={row.eps:g} ks_max={row.ks_max:.4f} "
              f"ecf_gap={row.ecf_gap:.4f} {row.error}")
    print(f"verdict: {report.verdict}")
    return EXIT_OK if report.verdict == "PASS" else EXIT_VERIFY_FAIL


def cmd_fixture(args):
    try:
        raw = fixture_config(args.name)
    except ConfigSchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = dump_config(raw)
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="levyhom",
        description="Levy-type jump processes in periodic media: effective "
                    "limits and statistical verification")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="screen the coefficient hypotheses")
    v.add_argument("config")
    v.add_argument("--out", default=None)
    v.add_argument("--require-positive-kmin", action="store_true")
    v.set_defaults(fn=cmd_validate)

    e = sub.add_parser("effective", help="invariant measure and averages")
    e.add_argument("config")
    e.add_argument("--out", default="out_effective")
    e.add_argument("--grid", type=int, default=None)
    e.set_defaults(fn=cmd_effective)

    c = sub.add_parser("corrector", help="solve the recentering corrector")
    c.add_argument("config")
    c.add_argument("--out", default="out_corrector")
    c.add_argument("--grid", type=int, default=None)
    c.add_argument("--eps", type=float, default=None)
    c.set_defaults(fn=cmd_corrector)

    s = sub.add_parser("simulate", help="scaled recentered endpoint batch")
    s.add_argument("config")
    s.add_argument("--out", default="out_simulate")
    s.add_argument("--grid", type=int, default=None)
    s.add_argument("--eps", type=float, default=None)
    s.add_argument("--paths", type=int, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--workers", type=int, default=None)
    s.set_defaults(fn=cmd_simulate)

    w = sub.add_parser("verify", help="marginal convergence report")
    w.add_argument("config")
    w.add_argument("--out", default="out_verify")
    w.add_argument("--ladder", default=None,
                   help="comma separated eps values, e.g. '1/8,1/32'")
    w.add_argument("--paths", type=int, default=None)
    w.add_argument("--seed", type=int, default=None)
    w.add_argument("--workers", type=int, default=None)
    w.set_defaults(fn=cmd_verify)

    f = sub.add_parser("fixture", help="write a named example configuration")
    f.add_argument("name", choices=sorted(FIXTURES))
    f.add_argument("--out", default=None)
    f.set_defaults(fn=cmd_fixture)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    _check_positive_flags(args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
