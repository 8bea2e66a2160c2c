"""JSON configuration schema for jump specifications and run settings.

A config is a single JSON object with keys: dimension, small, rho0, phi,
kappa, kernel, drift, regime, sim. Loading produces a JumpSpec plus run
settings; dumping produces a canonical (sorted-key) document. A canonical
document round-trips bit-exactly through load/dump.

The regime is read off phi's tail index (``Regime.of``); the optional
``regime`` key must name that case.

Kernel and drift trig polynomials are sums of product terms::

    {"amplitude": 0.5, "x_mode": [1], "x_phase": "cos",
     "z_mode": [1, 1], "z_phase": "cos"}

meaning amplitude * cos(2 pi <x_mode, x>) * cos(2 pi <z_mode, z>); omitted
mode blocks are constant factors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .pathsim import ConfigError, SimConfig
from .regimes import Regime
from .spec_model import (DriftField, JumpSpec, PeriodicKernel,
                         RadialPerturbation, ScalingFunction, SmallJumpPart,
                         SphericalMeasure)
from .trigpoly import TrigPoly


class ConfigSchemaError(ValueError):
    """Malformed configuration; the message carries the offending key path."""


def _object(obj, path):
    if not isinstance(obj, dict):
        raise ConfigSchemaError(f"{path or 'document'}: expected an object")
    return obj


def _need(obj, key, path):
    if key not in _object(obj, path):
        raise ConfigSchemaError(f"missing key {path}/{key}")
    return obj[key]


# ---------------------------------------------------------------------------
# component parsers
# ---------------------------------------------------------------------------

def _parse_small(obj, path="small"):
    v = _need(obj, "variant", path)
    if v == "stable_density":
        return SmallJumpPart.stable_density(float(_need(obj, "alpha0", path)))
    if v == "zero":
        return SmallJumpPart.zero()
    raise ConfigSchemaError(f"{path}/variant: unknown value {v!r}")


def _parse_rho0(obj, d, path="rho0"):
    v = _need(obj, "variant", path)
    if v == "uniform":
        return SphericalMeasure.uniform(
            d, float(_need(obj, "total_mass", path)),
            n_nodes=obj.get("n_nodes"))
    if v == "atoms":
        pairs = [(tuple(a["theta"]), float(a["weight"]))
                 for a in _need(obj, "atoms", path)]
        return SphericalMeasure.atoms(d, pairs)
    if v == "density_fourier":
        if d != 2:
            raise ConfigSchemaError(f"{path}: density_fourier needs d=2")
        rows = _need(obj, "coefficients", path)

        def fn(theta, rows=rows):
            ang = np.arctan2(theta[1], theta[0])
            val = 0.0
            for j, a, b in rows:
                val += a * np.cos(j * ang) + b * np.sin(j * ang)
            return val

        return SphericalMeasure.density(2, fn, n_nodes=obj.get("n_nodes"))
    raise ConfigSchemaError(f"{path}/variant: unknown value {v!r}")


def _parse_phi(obj, path="phi"):
    v = _need(obj, "variant", path)
    if v == "power":
        return ScalingFunction.power(float(_need(obj, "alpha", path)))
    if v == "power_log":
        return ScalingFunction.power_log(float(_need(obj, "alpha", path)))
    if v == "mixed":
        return ScalingFunction.mixed(
            [(float(b), float(w)) for b, w in _need(obj, "nu", path)])
    raise ConfigSchemaError(f"{path}/variant: unknown value {v!r}")


def _parse_kappa(obj, rho0, path="kappa"):
    v = _need(obj, "variant", path)
    if v == "none":
        return RadialPerturbation.none()
    if v == "power_ratio":
        if obj.get("base", "rho0") != "rho0":
            raise ConfigSchemaError(f"{path}/base: only 'rho0' is supported")
        return RadialPerturbation.power_ratio(
            float(_need(obj, "beta", path)), float(_need(obj, "alpha", path)),
            base=rho0)
    raise ConfigSchemaError(f"{path}/variant: unknown value {v!r}")


def _term_to_poly(term, dim_x, dim_z, path):
    amp = float(_need(term, "amplitude", path))
    poly = TrigPoly.const(dim_x, dim_z, amp)
    if "x_mode" in term:
        phase = term.get("x_phase", "cos")
        maker = TrigPoly.cos_x if phase == "cos" else TrigPoly.sin_x
        poly = poly * maker(dim_x, dim_z, tuple(term["x_mode"]), 1.0)
    if "z_mode" in term:
        if dim_z == 0:
            raise ConfigSchemaError(f"{path}: drift terms cannot carry z modes")
        phase = term.get("z_phase", "cos")
        if phase == "cos":
            poly = poly * TrigPoly.cos_z(dim_x, dim_z, tuple(term["z_mode"]),
                                         1.0)
        else:
            neg = tuple(-v for v in term["z_mode"])
            poly = poly * TrigPoly(dim_x, dim_z, {
                ((0,) * dim_x, tuple(term["z_mode"])): 1 / 2j,
                ((0,) * dim_x, neg): -1 / 2j})
    return poly


def _parse_kernel(obj, d, path="kernel"):
    v = _need(obj, "variant", path)
    if v != "trig":
        raise ConfigSchemaError(
            f"{path}/variant: {v!r} is not a kernel variant; only 'trig' "
            "kernels exist")
    poly = TrigPoly.const(d, d, 0.0)
    for i, term in enumerate(_need(obj, "terms", path)):
        poly = poly + _term_to_poly(term, d, d, f"{path}/terms[{i}]")
    return PeriodicKernel.trig(poly, kmin=obj.get("kmin"), kmax=obj.get("kmax"))


def _parse_drift(obj, d, path="drift"):
    v = _need(obj, "variant", path)
    if v == "zero":
        return DriftField.zero(d)
    if v != "trig":
        raise ConfigSchemaError(f"{path}/variant: unknown value {v!r}")
    comps = []
    rows = _need(obj, "components", path)
    if len(rows) != d:
        raise ConfigSchemaError(f"{path}/components: need {d} entries")
    for a, terms in enumerate(rows):
        poly = TrigPoly.const(d, 0, 0.0)
        for i, term in enumerate(terms):
            poly = poly + _term_to_poly(term, d, 0,
                                        f"{path}/components[{a}][{i}]")
        comps.append(poly)
    return DriftField(comps)


def _parse_sim(obj, path="sim"):
    known = {"paths", "horizon", "dt", "delta", "rmax", "seed", "eps",
             "workers", "stationary_start", "truncation_budget"}
    bad = set(_object(obj, path)) - known
    if bad:
        raise ConfigSchemaError(f"{path}: unknown keys {sorted(bad)}")
    try:
        return SimConfig(**obj)
    except ConfigError as exc:
        raise ConfigSchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

@dataclass
class RunSettings:
    spec: JumpSpec
    regime: str                    # read off spec.phi.index
    sim: SimConfig
    raw: dict = field(repr=False, default_factory=dict)

    def config_hash(self):
        return hashlib.sha256(dump_config(self).encode()).hexdigest()


def load_config(source) -> RunSettings:
    """Parse a config document (dict, JSON string, or file path); a value
    that its parser or constructor rejects raises ConfigSchemaError."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source
        if not str(source).lstrip().startswith("{"):
            with open(source) as fh:
                text = fh.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigSchemaError(f"not valid JSON: {exc}") from exc
    try:
        return _parse_document(raw)
    except ConfigSchemaError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigSchemaError(f"malformed value: {exc}") from exc


def _parse_document(raw):
    d = int(_need(raw, "dimension", ""))
    if d not in (1, 2, 3):
        raise ConfigSchemaError("dimension: must be 1, 2 or 3")
    rho0 = _parse_rho0(_need(raw, "rho0", ""), d)
    spec = JumpSpec(
        d=d,
        small=_parse_small(_need(raw, "small", "")),
        rho0=rho0,
        phi=_parse_phi(_need(raw, "phi", "")),
        kappa=_parse_kappa(raw.get("kappa", {"variant": "none"}), rho0),
        kernel=_parse_kernel(_need(raw, "kernel", ""), d),
        drift=_parse_drift(raw.get("drift", {"variant": "zero"}), d),
        config_dict=raw,
    )
    regime = Regime.of(spec.phi.index).name
    if raw.get("regime", regime) != regime:
        raise ConfigSchemaError(
            f"regime: {raw['regime']!r} does not match the scaling index "
            f"{spec.phi.index}, which fixes {regime!r}")
    return RunSettings(spec=spec, regime=regime,
                       sim=_parse_sim(raw.get("sim", {})), raw=raw)


def dump_config(settings_or_raw) -> str:
    """Canonical JSON document (sorted keys, fixed separators)."""
    raw = settings_or_raw.raw if isinstance(settings_or_raw, RunSettings) \
        else settings_or_raw
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------

def _const_term(a):
    return {"amplitude": a}


def _cosx_term(a, mode):
    return {"amplitude": a, "x_mode": list(mode), "x_phase": "cos"}


def _cosz_term(a, mode):
    return {"amplitude": a, "z_mode": list(mode), "z_phase": "cos"}


FIXTURES = {}


def _fixture(name):
    def deco(fn):
        FIXTURES[name] = fn
        return fn
    return deco


@_fixture("ex4_1_stable")
def _fx_stable():
    """x-modulated intensity, symmetric jumps, index 1/2, no recentering."""
    return {
        "dimension": 1,
        "small": {"variant": "stable_density", "alpha0": 0.5},
        "rho0": {"variant": "uniform", "total_mass": 1.0},
        "phi": {"variant": "power", "alpha": 0.5},
        "kappa": {"variant": "none"},
        "kernel": {"variant": "trig",
                   "terms": [_const_term(1.0), _cosx_term(0.5, [1])]},
        "drift": {"variant": "zero"},
        "regime": "stable_no_center",
        "sim": {"paths": 5000, "horizon": 1.0, "delta": 0.1, "seed": 1},
    }


@_fixture("ex4_1_cauchy")
def _fx_cauchy():
    """index-1 tail with a one-sided angular atom; truncated recentering."""
    return {
        "dimension": 1,
        "small": {"variant": "stable_density", "alpha0": 1.2},
        "rho0": {"variant": "atoms",
                 "atoms": [{"theta": [1.0], "weight": 0.5},
                           {"theta": [-1.0], "weight": 0.25}]},
        "phi": {"variant": "power", "alpha": 1.0},
        "kappa": {"variant": "none"},
        "kernel": {"variant": "trig", "terms": [_const_term(1.0)]},
        "drift": {"variant": "trig",
                  "components": [[_cosx_term(0.1, [1])]]},
        "regime": "cauchy_center",
        "sim": {"paths": 5000, "horizon": 1.0, "delta": 0.1, "seed": 2},
    }


@_fixture("ex4_1_centered")
def _fx_centered():
    """index-1.5 tail, asymmetric atoms, full-tail recentering."""
    return {
        "dimension": 1,
        "small": {"variant": "stable_density", "alpha0": 1.2},
        "rho0": {"variant": "atoms",
                 "atoms": [{"theta": [1.0], "weight": 1.0},
                           {"theta": [-1.0], "weight": 0.5}]},
        "phi": {"variant": "power", "alpha": 1.5},
        "kappa": {"variant": "none"},
        "kernel": {"variant": "trig",
                   "terms": [_const_term(1.0), _cosx_term(0.25, [1])]},
        "drift": {"variant": "trig",
                  "components": [[_cosx_term(0.1, [1])]]},
        "regime": "stable_center",
        "sim": {"paths": 5000, "horizon": 1.0, "delta": 0.1, "seed": 3},
    }


@_fixture("ex4_1_critical")
def _fx_critical():
    """index-2 tail: Brownian limit under the extra logarithmic time factor."""
    return {
        "dimension": 2,
        "small": {"variant": "stable_density", "alpha0": 1.0},
        "rho0": {"variant": "uniform", "total_mass": 1.0, "n_nodes": 32},
        "phi": {"variant": "power", "alpha": 2.0},
        "kappa": {"variant": "none"},
        "kernel": {"variant": "trig", "terms": [_const_term(1.0)]},
        "drift": {"variant": "zero"},
        "regime": "critical_log",
        "sim": {"paths": 4000, "horizon": 1.0, "delta": 0.25, "seed": 4},
    }


@_fixture("ex4_1_diffusive")
def _fx_diffusive():
    """Finite second moment, asymmetric tail, strongly modulated intensity.

    Built so the recentering corrector moves the limiting variance by a
    factor ~2: the x-modulation concentrates the invariant measure while the
    angular asymmetry makes the tail drift position dependent.
    """
    return {
        "dimension": 1,
        "small": {"variant": "zero"},
        "rho0": {"variant": "atoms",
                 "atoms": [{"theta": [1.0], "weight": 1.8},
                           {"theta": [-1.0], "weight": 0.2}]},
        "phi": {"variant": "power", "alpha": 3.0},
        "kappa": {"variant": "none"},
        "kernel": {"variant": "trig",
                   "terms": [_const_term(1.0), _cosx_term(0.9, [1])]},
        "drift": {"variant": "trig",
                  "components": [[_const_term(0.005)]]},
        "regime": "diffusive",
        "sim": {"paths": 5000, "horizon": 1.0, "delta": 1.0, "seed": 5,
                "stationary_start": True},
    }


@_fixture("ex4_3_mixed")
def _fx_mixed():
    """mixed power scaling: the largest exponent wins in the limit."""
    return {
        "dimension": 1,
        "small": {"variant": "stable_density", "alpha0": 1.2},
        "rho0": {"variant": "uniform", "total_mass": 1.0},
        "phi": {"variant": "mixed", "nu": [[0.5, 1.0], [1.5, 1.0]]},
        "kappa": {"variant": "none"},
        "kernel": {"variant": "trig",
                   "terms": [_const_term(1.0),
                             {"amplitude": 0.5, "x_mode": [1],
                              "x_phase": "cos", "z_mode": [1],
                              "z_phase": "cos"}]},
        "drift": {"variant": "zero"},
        "regime": "stable_center",
        "sim": {"paths": 5000, "horizon": 1.0, "delta": 0.1, "seed": 6},
    }


@_fixture("ex4_0_axes")
def _fx_axes():
    """angular atoms on the coordinate axes with a z-periodic kernel."""
    return {
        "dimension": 2,
        "small": {"variant": "stable_density", "alpha0": 0.5},
        "rho0": {"variant": "atoms",
                 "atoms": [{"theta": [1.0, 0.0], "weight": 1.0},
                           {"theta": [0.0, 1.0], "weight": 1.0}]},
        "phi": {"variant": "power", "alpha": 0.75},
        "kappa": {"variant": "none"},
        "kernel": {"variant": "trig",
                   "terms": [_const_term(1.0), _cosz_term(0.5, [1, 0])]},
        "drift": {"variant": "zero"},
        "regime": "stable_no_center",
        "sim": {"paths": 4000, "horizon": 1.0, "delta": 0.1, "seed": 7},
    }


def fixture_config(name):
    if name not in FIXTURES:
        raise ConfigSchemaError(
            f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    return FIXTURES[name]()
