"""Config schema round-trips and command-line pipeline contracts."""

import json
import numpy as np
import pytest

from levyhom import corrector
from levyhom.cli import main
from levyhom.config import (ConfigSchemaError, FIXTURES, dump_config,
                            fixture_config, load_config)
from levyhom.pathsim import EndpointBatch


def test_all_fixture_configs_load():
    for name in FIXTURES:
        settings = load_config(fixture_config(name))
        assert settings.spec.d in (1, 2)
        assert settings.regime is not None


def test_config_roundtrip_bit_exact():
    raw = fixture_config("ex4_1_stable")
    text1 = dump_config(raw)
    text2 = dump_config(load_config(json.loads(text1)).raw)
    assert text1 == text2
    # a second pass through the parser changes nothing either
    text3 = dump_config(load_config(json.loads(text2)).raw)
    assert text2 == text3


def test_config_rejects_bad_documents():
    with pytest.raises(ConfigSchemaError, match="dimension"):
        load_config({"small": {"variant": "zero"}})
    raw = fixture_config("ex4_1_stable")
    raw["rho0"] = {"variant": "nope"}
    with pytest.raises(ConfigSchemaError, match="rho0"):
        load_config(raw)
    raw = fixture_config("ex4_1_stable")
    raw["sim"] = {"bogus_key": 1}
    with pytest.raises(ConfigSchemaError, match="bogus_key"):
        load_config(raw)


def test_fixture_regimes_are_read_off_the_index():
    # each fixture document loads unchanged, and the regime the loader reads
    # off phi's index is the one the document's optional key names
    for name in FIXTURES:
        raw = fixture_config(name)
        settings = load_config(raw)
        assert settings.regime == raw["regime"]
        assert dump_config(settings) == dump_config(fixture_config(name))


def test_config_rejects_a_mismatched_regime():
    raw = fixture_config("ex4_1_stable")
    raw["regime"] = "diffusive"
    with pytest.raises(ConfigSchemaError, match="stable_no_center"):
        load_config(raw)


def test_config_rejects_sim_regime():
    raw = fixture_config("ex4_1_stable")
    raw["sim"]["regime"] = "stable_no_center"
    with pytest.raises(ConfigSchemaError, match="regime"):
        load_config(raw)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _number_document(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("5\n")
    return cfg


def _number_small(tmp_path):
    cfg = tmp_path / "cfg.json"
    raw = fixture_config("ex4_1_stable")
    raw["small"] = 5
    cfg.write_text(dump_config(raw))
    return cfg


def _edited(path, value):
    """A maker of the ex4_1_stable document with ``value`` at ``path``."""
    def make(tmp_path):
        cfg = tmp_path / "cfg.json"
        raw = fixture_config("ex4_1_stable")
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg.write_text(dump_config(raw))
        return cfg
    return make


_MALFORMED_VALUES = {
    "dimension": (("dimension",), "x"),
    "alpha_string": (("phi", "alpha"), "x"),
    "alpha_negative": (("phi", "alpha"), -1),
    "atoms_number": (("rho0",), {"variant": "atoms", "atoms": [5]}),
    "terms_number": (("kernel", "terms"), 5),
    "paths_string": (("sim", "paths"), "x"),
    "paths_bool": (("sim", "paths"), True),
    "seed_fraction": (("sim", "seed"), 1.5),
    "workers_fraction": (("sim", "workers"), 2.5),
    "horizon_zero": (("sim", "horizon"), 0),
    "horizon_string": (("sim", "horizon"), "x"),
    "dt_zero": (("sim", "dt"), 0),
    "eps_zero": (("sim", "eps"), 0),
    "truncation_budget_zero": (("sim", "truncation_budget"), 0),
    "delta_zero": (("sim", "delta"), 0),
}


@pytest.mark.parametrize(
    "make", [_number_document, _number_small, lambda tmp_path: tmp_path]
    + [_edited(*edit) for edit in _MALFORMED_VALUES.values()],
    ids=["number_document", "number_small", "directory", *_MALFORMED_VALUES])
def test_cli_malformed_config_exits_4(tmp_path, capsys, make):
    assert _exit_code(["validate", str(make(tmp_path))]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def _d3_config(tmp_path, *x_modes, amplitude=0.3):
    raw = fixture_config("ex4_1_critical")
    raw.update(dimension=3, phi={"variant": "power", "alpha": 3.0},
               rho0={"variant": "uniform", "total_mass": 1.0},
               regime="diffusive")
    raw["kernel"]["terms"].extend({"amplitude": amplitude, "x_mode": x_mode}
                                  for x_mode in x_modes)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(raw))
    return cfg


@pytest.mark.parametrize("argv, x_mode", [
    (["corrector"], [3, 0, 0]),
    (["corrector", "--grid", "4"], [1, 0, 0])],
    ids=["corrector_measure", "corrector_assembly"])
def test_cli_d3_specs_without_a_route_exit_4(tmp_path, capsys, argv, x_mode):
    # mu exists in d = 3 for any x-mode, but the corrector raises there,
    # where the covariance's loop over mu's n^3 cells grows out of reach
    cfg = _d3_config(tmp_path, x_mode)
    code = _exit_code([argv[0], str(cfg), "--out", str(tmp_path / "out")]
                      + argv[1:])
    assert code == 4
    err = capsys.readouterr().err
    assert "error: " in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["effective", "--grid", "4"],
    ["simulate", "--eps", "0.5", "--paths", "20"]],
    ids=["effective", "simulate"])
def test_cli_d3_long_x_modes_run(tmp_path, argv):
    # an x-mode of length 3 widens the d = 3 mode box from 8 to 12
    cfg = _d3_config(tmp_path, [3, 0, 0])
    assert main([argv[0], str(cfg), "--out", str(tmp_path / "out")]
                + argv[1:]) == 0


@pytest.mark.parametrize("argv", [
    ["effective"], ["corrector"], ["simulate", "--eps", "0.5"],
    ["verify", "--ladder", "1/8"]],
    ids=["effective", "corrector", "simulate", "verify"])
def test_cli_specs_past_the_mode_cap_exit_4(tmp_path, capsys, monkeypatch,
                                            argv):
    # x-modes e1, e2, e3 and 5 e1 reach every mode of the box 20: 41^3
    # modes, past the cap, which is found before any multiplier is built
    def no_multiplier(*args, **kwargs):
        raise AssertionError("the cap stops the walk before multipliers")

    monkeypatch.setattr(corrector, "generator_multipliers", no_multiplier)
    cfg = _d3_config(tmp_path, [1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 0, 0],
                     amplitude=0.2)
    code = _exit_code([argv[0], str(cfg), "--out", str(tmp_path / "out")]
                      + argv[1:])
    assert code == 4
    err = capsys.readouterr().err
    assert "mode cap of 20000" in err and err.count("\n") == 1


def test_cli_effective_exits_4_when_the_mixing_passes_the_cap(
        tmp_path, capsys, monkeypatch):
    # x-mode 2: mu takes the 41 even modes of the box 40, and the mixing
    # curve of cos and sin 2 pi x the 40 odd ones too, past a cap of 60
    monkeypatch.setattr(corrector, "MODE_CAP", 60)
    raw = fixture_config("ex4_1_stable")
    raw["kernel"]["terms"][1]["x_mode"] = [2]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(raw))
    out = tmp_path / "out"
    assert _exit_code(["effective", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "mode cap of 60" in err and err.count("\n") == 1
    assert not (out / "effective.json").exists()


def test_config_kernel_terms_evaluate():
    settings = load_config(fixture_config("ex4_1_stable"))
    k = settings.spec.kernel
    x = np.array([[0.0], [0.25]])
    z = np.zeros((2, 1))
    vals = k(x, z)
    assert vals[0] == pytest.approx(1.5)
    assert vals[1] == pytest.approx(1.0)


def test_cli_fixture_then_validate(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    assert main(["fixture", "ex4_0_axes", "--out", str(cfg)]) == 0
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_validate_malformed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(cfg)])
    assert exc.value.code == 4


def test_cli_effective_x_independent(tmp_path):
    cfg = tmp_path / "cfg.json"
    raw = fixture_config("ex4_1_stable")
    # make the kernel x-independent so the invariant measure is uniform
    raw["kernel"] = {"variant": "trig", "terms": [{"amplitude": 1.0}]}
    cfg.write_text(dump_config(raw))
    out = tmp_path / "eff"
    assert main(["effective", str(cfg), "--out", str(out), "--grid",
                 "32"]) == 0
    payload = json.loads((out / "effective.json").read_text())
    assert payload["drift_average"] == [0.0]
    w = np.loadtxt(out / "invariant_measure.csv", delimiter=",", skiprows=1)
    assert np.allclose(w[:, -1], 1.0 / 32, atol=1e-10)
    # the manifest says how mu was computed: no x-mode, so no unknown
    info = payload["invariant_measure"]
    assert info["route"] == "fourier_galerkin" and info["grid_n"] == 32
    assert info["mode_box"] == 40 and info["unknowns"] == 0
    assert info["clipped_mass"] >= 0.0 and np.isfinite(info["residual"])
    assert info["min_weight"] == info["max_weight"] == 1.0 / 32
    assert (out / "manifest_effective.json").exists()


def test_cli_effective_builds_the_kernel_table_once(tmp_path, monkeypatch):
    # the tail constant hands its ray-average table on to effective.json and
    # effective_kernel.csv
    from levyhom import averaging, ergodic
    from levyhom.ergodic import stationary_measure
    calls = []

    def counted(*args):
        calls.append(args)
        return averaging.effective_kernel_table(*args)

    monkeypatch.setattr(ergodic, "effective_kernel_table", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(fixture_config("ex4_1_critical")))
    out = tmp_path / "eff"
    assert main(["effective", str(cfg), "--out", str(out)]) == 0
    assert len(calls) == 1
    spec = load_config(fixture_config("ex4_1_critical")).spec
    table = averaging.effective_kernel_table(
        spec.kernel, stationary_measure(spec), spec.rho0)
    payload = json.loads((out / "effective.json").read_text())
    assert payload["effective_kernel_table"] == table.tolist()
    averaging.write_kernel_table_csv(tmp_path / "want.csv", spec.rho0, table)
    assert (out / "effective_kernel.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_cli_simulate_reproducible(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(fixture_config("ex4_1_stable")))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out, workers in ((out1, "1"), (out2, "4")):
        code = main(["simulate", str(cfg), "--out", str(out),
                     "--eps", "0.25", "--paths", "200", "--seed", "9",
                     "--workers", workers])
        assert code == 0
    a = EndpointBatch.load(out1 / "batch_eps0.25_seed9.npz")
    b = EndpointBatch.load(out2 / "batch_eps0.25_seed9.npz")
    assert np.array_equal(a.samples, b.samples)
    manifest = json.loads((out1 / "manifest_simulate.json").read_text())
    assert manifest["flag_overrides"]["eps"] == 0.25


def test_cli_simulate_writes_the_same_bytes_twice(tmp_path):
    # every output of a run is a function of its config, flags and seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(fixture_config("ex4_1_cauchy")))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["simulate", str(cfg), "--out", str(out), "--eps", "0.25",
                     "--paths", "400"]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _corrector_info(tmp_path, raw, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(raw))
    out = tmp_path / "corr"
    assert main(["corrector", str(cfg), "--out", str(out), *flags]) == 0
    assert (out / "covariance.json").exists()
    return json.loads((out / "corrector.json").read_text())


def test_cli_corrector_diffusive(tmp_path, monkeypatch):
    # x-modes inside the mode box: mu and psi from the mode operator, and no
    # grid operator is assembled
    def no_assembly(*args, **kwargs):
        raise AssertionError("the mode route assembles no grid operator")

    monkeypatch.setattr(corrector, "assemble_operator", no_assembly)
    info = _corrector_info(tmp_path, fixture_config("ex4_1_diffusive"),
                           "--grid", "64")
    assert info["residual_rel"] <= 1e-6
    assert info["method"] == "fourier"


def test_cli_corrector_past_the_least_mode_box_takes_the_mode_route(
        tmp_path):
    # an x-mode of 11 widens the d = 1 box to 44, inside mu's 128 nodes
    raw = fixture_config("ex4_1_diffusive")
    raw["kernel"]["terms"][1]["x_mode"] = [11]
    info = _corrector_info(tmp_path, raw)
    assert info["residual_rel"] <= 1e-6
    assert info["method"] == "fourier"


@pytest.mark.parametrize("command, fixture, flags, want", [
    ("effective", "ex4_1_critical", ["--grid", "32"], {"grid": 32}),
    ("corrector", "ex4_1_cauchy", ["--grid", "32", "--eps", "0.125"],
     {"grid": 32, "eps": 0.125}),
    ("simulate", "ex4_1_stable",
     ["--grid", "32", "--eps", "0.25", "--paths", "50"],
     {"grid": 32, "eps": 0.25, "paths": 50}),
])
def test_cli_manifests_record_the_flag_overrides(tmp_path, command, fixture,
                                                 flags, want):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(fixture_config(fixture)))
    assert main([command, str(cfg), "--out", str(tmp_path), *flags]) == 0
    manifest = json.loads((tmp_path / f"manifest_{command}.json").read_text())
    assert manifest["flag_overrides"] == want


def test_cli_verify_negative_seed(tmp_path):
    # a negative seed keys every stream by its two's complement and runs
    cfg = tmp_path / "cfg.json"
    raw = fixture_config("ex4_1_stable")
    raw["sim"]["paths"] = 200
    cfg.write_text(dump_config(raw))
    out = tmp_path / "ver"
    code = main(["verify", str(cfg), "--out", str(out), "--seed", "-1",
                 "--ladder", "1/4"])
    assert code in (0, 3)
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["meta"]["seed"] == -1
    assert not any(row["error"] for row in payload["rows"])


def test_cli_verify_smoke(tmp_path):
    cfg = tmp_path / "cfg.json"
    raw = fixture_config("ex4_1_stable")
    raw["sim"]["paths"] = 1500
    cfg.write_text(dump_config(raw))
    out = tmp_path / "ver"
    code = main(["verify", str(cfg), "--out", str(out),
                 "--ladder", "1/4,1/16"])
    assert code in (0, 3)
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["verdict"] in ("PASS", "FAIL")
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        assert 0 <= row["meta"]["accepted"] <= row["meta"]["candidates"]
        assert row["meta"]["accept"] == {"route": "x_modes",
                                         "envelope": False}


# each command's malformed or non-positive flags; the verify cases keep
# their original ids
@pytest.mark.parametrize("command, flags", [
    ("verify", ["--ladder", "abc"]), ("verify", ["--ladder", "1/0"]),
    ("verify", ["--ladder", "-1"]), ("verify", ["--ladder", "1/8,0"]),
    ("verify", ["--ladder", "1/8,"]), ("verify", ["--paths", "0"]),
    ("corrector", ["--eps", "0"]), ("corrector", ["--eps", "-0.5"]),
    ("corrector", ["--grid", "0"]), ("effective", ["--grid", "0"]),
    ("simulate", ["--grid", "0"]), ("simulate", ["--eps", "0"]),
    ("simulate", ["--paths", "0"]), ("verify", ["--ladder", ""])],
    ids=["ladder_word", "ladder_one_over_zero", "ladder_negative",
         "ladder_zero", "ladder_empty_entry", "paths_zero",
         "corrector_eps_zero", "corrector_eps_negative", "corrector_grid_zero",
         "effective_grid_zero", "simulate_grid_zero", "simulate_eps_zero",
         "simulate_paths_zero", "ladder_empty"])
def test_cli_verify_malformed_flags_exit_4(tmp_path, capsys, command, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dump_config(fixture_config("ex4_1_stable")))
    code = _exit_code([command, str(cfg), "--out", str(tmp_path / "out")]
                      + flags)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_verify_reads_the_regime_off_the_index(tmp_path):
    # the top-level regime key is optional: without it verify runs the case
    # phi's index fixes and writes the same report
    payloads = []
    for keep in (True, False):
        raw = fixture_config("ex4_1_stable")
        raw["sim"]["paths"] = 200
        if not keep:
            del raw["regime"]
        cfg = tmp_path / f"cfg_{keep}.json"
        cfg.write_text(dump_config(raw))
        out = tmp_path / f"ver_{keep}"
        assert main(["verify", str(cfg), "--out", str(out),
                     "--ladder", "1/4"]) in (0, 3)
        payloads.append((out / "convergence.json").read_bytes())
    assert payloads[0] == payloads[1]
    assert json.loads(payloads[0])["regime"] == "stable_no_center"
