"""Tests for file schemas, fingerprints, and the command-line interface."""

import json
from dataclasses import replace

import numpy as np
import pytest

from sctomo import cli, invert, io, validation
from sctomo.errors import SchemaError
from sctomo.forward import NoiseModel, simulate_counts
from sctomo.protocol import scenario


def write_config(path, **overrides):
    config = {
        "schema_version": 1,
        "dim": 2,
        "scenario": "B",
        "truth": {
            "state": {"rho00": 0.55, "rho11": 0.45, "rho01": 0.2, "gamma": 2.0},
            "unknowns": {"lam_c": 1.3},
        },
        "noise": {"kind": "exact"},
        "seed": 7,
    }
    config.update(overrides)
    path.write_text(io.canonical_json(config) + "\n", encoding="utf-8")
    return config


def test_canonical_json_roundtrips_floats():
    rng = np.random.default_rng(61)
    values = list(rng.standard_normal(50)) + [1e-300, 1e300, 0.1, 2 / 3]
    text = io.canonical_json({"values": values})
    back = json.loads(text)["values"]
    assert back == [float(v) for v in values]


def test_canonical_json_is_sorted_and_stable():
    a = io.canonical_json({"b": 1, "a": [True, None, "x"]})
    b = io.canonical_json({"a": [True, None, "x"], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_fingerprint_is_fnv1a_of_canonical_serialization():
    proto = scenario("B")
    data = io.canonical_json(proto.to_dict()).encode()
    assert io.protocol_fingerprint(proto) == format(io.fnv1a64(data), "016x")
    assert io.fnv1a64(b"") == 0xCBF29CE484222325


def test_simulate_writes_counts_and_is_deterministic(tmp_path):
    config = tmp_path / "config.json"
    write_config(config, noise={"kind": "poisson", "shots": 100000})
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    fingerprint, records = io.load_counts(out1)
    assert fingerprint == io.protocol_fingerprint(scenario("B"))
    assert len(records) == 5
    assert [r.setting_index for r in records] == list(range(5))


def test_seed_precedence(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    write_config(config, noise={"kind": "poisson", "shots": 1000})
    out = tmp_path / "counts.json"

    def values():
        capsys.readouterr()
        cli.main(["simulate", "--config", str(config), "--out", str(out)])
        _, records = io.load_counts(out)
        return tuple(r.value for r in records)

    base = values()
    monkeypatch.setenv("SCT_SEED", "12345")
    env = values()
    assert env != base
    capsys.readouterr()
    cli.main(["simulate", "--config", str(config), "--out", str(out),
              "--seed", "7"])
    _, records = io.load_counts(out)
    assert tuple(r.value for r in records) == base  # --seed beats SCT_SEED


def test_dim_mismatch_exits_3(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_config(config, dim=3)
    code = cli.main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_unknown_field_rejected(tmp_path):
    config = tmp_path / "config.json"
    cfg = write_config(config)
    cfg["extra_field"] = 1
    config.write_text(io.canonical_json(cfg) + "\n")
    code = cli.main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_schema_error_names_field(tmp_path, capsys):
    config = tmp_path / "config.json"
    cfg = write_config(config)
    del cfg["truth"]["state"]["gamma"]
    cfg["truth"]["state"]["gamma_typo"] = 2.0
    config.write_text(io.canonical_json(cfg) + "\n")
    code = cli.main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "gamma_typo" in err


def test_reconstruct_end_to_end(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_config(config)
    counts = tmp_path / "counts.json"
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(counts)]) == 0
    result = tmp_path / "result.json"
    capsys.readouterr()
    code = cli.main(["reconstruct", "--counts", str(counts), "--protocol", "B",
                     "--objective", "least_squares", "--out", str(result)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(result.read_text())
    assert payload["converged"] is True
    params = payload["parameters"]
    assert params["rho00"] == pytest.approx(0.55, abs=1e-6)
    assert params["lam_c"] == pytest.approx(1.3, abs=1e-6)
    assert params["gamma"] == pytest.approx(2.0, abs=1e-6)
    assert "residual" in out and "converged true" in out


def test_truncated_counts_exits_2(tmp_path):
    bad = tmp_path / "counts.json"
    bad.write_text('{"schema_version": 1, "records": [')
    code = cli.main(["reconstruct", "--counts", str(bad), "--protocol", "B",
                     "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_fingerprint_mismatch_exits_5(tmp_path):
    config = tmp_path / "config.json"
    write_config(config)
    counts = tmp_path / "counts.json"
    cli.main(["simulate", "--config", str(config), "--out", str(counts)])
    code = cli.main(["reconstruct", "--counts", str(counts),
                     "--protocol", "C-alt", "--out", str(tmp_path / "r.json")])
    assert code == 5


def test_scenario_c_reconstruct_exits_4(tmp_path):
    config = tmp_path / "config.json"
    write_config(config, scenario="C",
                 truth={"state": {"rho00": 0.55, "rho11": 0.45,
                                  "rho01": 0.2, "gamma": 2.0},
                        "unknowns": {"lam_c": 1.3, "lam_z": 1.1}})
    counts = tmp_path / "counts.json"
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(counts)]) == 0
    code = cli.main(["reconstruct", "--counts", str(counts), "--protocol", "C",
                     "--out", str(tmp_path / "r.json")])
    assert code == 4


def test_jacobian_command(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(io.canonical_json({
        "schema_version": 1,
        "state": {"rho00": 0.6, "rho11": 0.4, "rho01": 0.3, "gamma": 1.0},
    }) + "\n")
    code = cli.main(["jacobian", "--protocol", "A", "--point", str(point)])
    out = capsys.readouterr().out
    assert code == 0
    abs_det = float(out.splitlines()[0].split()[1])
    assert abs_det == pytest.approx(0.3, abs=1e-6)


def test_jacobian_pattern_flag(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(io.canonical_json({
        "schema_version": 1,
        "state": {"rho00": 0.4, "rho11": 0.35, "rho22": 0.25,
                  "rho01": 0.1, "rho02": 0.11, "rho12": 0.09,
                  "gamma01": 0.9, "gamma02": 2.2, "gamma12": 1.4},
        "unknowns": {"lam1": 1.2, "lam2": 1.7},
    }) + "\n")
    code = cli.main(["jacobian", "--protocol", "V", "--point", str(point),
                     "--pattern"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split()[1] for line in out.splitlines()
            if line.startswith("pattern")]
    assert len(rows) == 11
    # first five rows live entirely in the first five columns
    for row in rows[0:5]:
        assert row[5:] == "000000"
    # second block touches the ground population plus its own columns
    for row in rows[5:9]:
        assert row[0] == "1" and row[1:5] == "0000" and row[9:] == "00"


def test_sweep_command(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(io.canonical_json({
        "schema_version": 1,
        "state": {"rho00": 0.6, "rho11": 0.4, "rho01": 0.25, "gamma": 0.8},
        "unknowns": {"lam_c": 1.3},
    }) + "\n")
    out_csv = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--protocol", "B", "--point", str(point),
                     "--axis", "gamma=0:6.283185307179586", "--grid", "64",
                     "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "gamma,abs_det,flag"
    assert len(lines) == 65
    flagged = [float(line.split(",")[0]) for line in lines[1:]
               if line.split(",")[2] == "1"]
    assert len(flagged) == 2
    assert min(abs(g - 3 * np.pi / 4) for g in flagged) < 1e-9
    assert min(abs(g - 7 * np.pi / 4) for g in flagged) < 1e-9


def test_validate_command_plumbing(tmp_path, monkeypatch, capsys):
    calls = {}

    def fake_suite(suite, seed):
        calls["suite"] = suite
        calls["seed"] = seed
        return [validation.CheckResult("1", "alpha", True, "ok"),
                validation.CheckResult("2", "beta", True, "fine")]

    monkeypatch.setattr(validation, "run_suite", fake_suite)
    conv = tmp_path / "CONVENTIONS.txt"
    code = cli.main(["validate", "--suite", "quick",
                     "--conventions-out", str(conv)])
    out = capsys.readouterr().out
    assert code == 0
    assert calls["suite"] == "quick"
    assert out.startswith("PASS 1: alpha")
    assert conv.exists()
    text = conv.read_text()
    assert "sign convention" in text.lower()
    assert "Branch rule for exact ties" in text
    assert (f"max({invert.TIE_RTOL:g} * lowest, "
            f"{invert.TIE_ATOL:g} * max(1, |y|^2))") in text
    assert "Flat-stage rule" in text
    assert (f"at most {invert.TIE_ATOL:g} * |y|^2 at more than half"
            ) in text
    assert "flat when N is identically zero" in text
    assert f"{invert.TIE_ATOL:g} * |y|^2 * max D at each of its 2K+1" in text
    assert "Stage rule for exact ties at distinct strengths" in text
    assert f"values within {invert.SMIN_RTOL:g} of each other" in text

    def failing_suite(suite, seed):
        return [validation.CheckResult("1", "alpha", False, "broken")]

    monkeypatch.setattr(validation, "run_suite", failing_suite)
    code = cli.main(["validate", "--suite", "quick",
                     "--conventions-out", str(conv)])
    assert code == 1


def test_counts_file_schema_checks(tmp_path):
    path = tmp_path / "counts.json"
    io.write_counts(path, scenario("B"),
                    [type("R", (), {"to_dict": lambda self: d})()
                     for d in [{"setting_index": 0, "value": 0.1,
                                "shots": 0, "noise_kind": "exact"},
                               {"setting_index": 0, "value": 0.2,
                                "shots": 0, "noise_kind": "exact"}]])
    with pytest.raises(SchemaError, match="strictly increasing"):
        io.load_counts(path)


def test_protocol_file_roundtrip(tmp_path):
    path = tmp_path / "protocol.json"
    proto = scenario("C-alt")
    io.write_protocol(path, proto)
    loaded = io.load_protocol(str(path))
    assert loaded == proto
    with pytest.raises(SchemaError):
        io.load_protocol("no-such-protocol")


# field and value written into the last record of a valid 5-setting file
MALFORMED_COUNTS = {
    "value-string": ("value", "abc"),
    "value-list": ("value", [1]),
    "value-bool": ("value", True),
    "value-nan": ("value", float("nan")),
    "value-infinity": ("value", float("inf")),
    "value-negative": ("value", -0.1),
    "index-gap": ("setting_index", 9),  # indices 0, 1, 2, 3, 9
    "index-string": ("setting_index", "4"),
    "shots-float": ("shots", 1.5),
    "noise-kind-unknown": ("noise_kind", "bogus"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COUNTS))
def test_malformed_counts_exit_2(tmp_path, capsys, case):
    config = tmp_path / "config.json"
    write_config(config)
    counts = tmp_path / "counts.json"
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(counts)]) == 0
    obj = json.loads(counts.read_text())
    field, value = MALFORMED_COUNTS[case]
    obj["records"][-1][field] = value
    # json.dumps, not canonical_json: NaN and Infinity stay literal tokens
    counts.write_text(json.dumps(obj))
    capsys.readouterr()
    code = cli.main(["reconstruct", "--counts", str(counts), "--protocol", "B",
                     "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sct: error: ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name, factor, seed", [("V", 1e151, 1),
                                                ("B", 1e155, 3)])
def test_reconstruct_counts_above_1e100_exit_2(tmp_path, capsys, name, factor,
                                               seed):
    # exact counts of a sample truth, scaled until their squares overflow:
    # V's raised a LinAlgError traceback, B's gave a wrong converged result
    proto = scenario(name)
    state, unknowns = validation.sample_truth(name,
                                              np.random.default_rng(seed))
    records = simulate_counts(state, unknowns, proto, NoiseModel("exact"))
    counts = tmp_path / "counts.json"
    io.write_counts(counts, proto, [replace(r, value=r.value * factor)
                                    for r in records])
    capsys.readouterr()
    code = cli.main(["reconstruct", "--counts", str(counts), "--protocol",
                     name, "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sct: error: ") and "at most 1e+100" in err
    assert not (tmp_path / "r.json").exists()


POINT_B = {"schema_version": 1,
           "state": {"rho00": 0.6, "rho11": 0.4, "rho01": 0.25, "gamma": 0.8},
           "unknowns": {"lam_c": 1.3}}


def _with(obj, section, field, value):
    out = json.loads(json.dumps(obj))
    out[section][field] = value
    return out


# case -> (command, file contents by name, error text, output argument);
# "missing/" names a directory that does not exist, so its file cannot be
# written.  Each case exits 2 with an `sct: error:` line and writes nothing.
BAD_ARGUMENTS = {
    "jacobian-point-state-nan": (
        ["jacobian", "--protocol", "B", "--point", "{point}"],
        {"point": _with(POINT_B, "state", "rho00", float("nan"))},
        "point.state.rho00", None),
    "jacobian-point-unknown-inf": (
        ["jacobian", "--protocol", "B", "--point", "{point}"],
        {"point": _with(POINT_B, "unknowns", "lam_c", float("inf"))},
        "point.unknowns.lam_c", None),
    "sweep-point-state-nan": (
        ["sweep", "--protocol", "B", "--point", "{point}",
         "--axis", "lam_c=0.5:1", "--grid", "4", "--out", "{out}"],
        {"point": _with(POINT_B, "state", "gamma", float("nan"))},
        "point.state.gamma", "s.csv"),
    "sweep-axis-nan": (
        ["sweep", "--protocol", "B", "--point", "{point}",
         "--axis", "lam_c=nan:1", "--grid", "4", "--out", "{out}"],
        {"point": POINT_B}, "lam_c=nan:1", "s.csv"),
    "sweep-axis-inf": (
        ["sweep", "--protocol", "B", "--point", "{point}",
         "--axis", "lam_c=1:inf", "--grid", "4", "--out", "{out}"],
        {"point": POINT_B}, "lam_c=1:inf", "s.csv"),
    "sweep-axis-reversed": (
        ["sweep", "--protocol", "B", "--point", "{point}",
         "--axis", "lam_c=2:1", "--grid", "4", "--out", "{out}"],
        {"point": POINT_B}, "lam_c=2:1", "s.csv"),
    "sweep-axis-duplicate": (
        ["sweep", "--protocol", "B", "--point", "{point}",
         "--axis", "lam_c=0.5:1", "--axis", "lam_c=0.5:1", "--grid", "4",
         "--out", "{out}"],
        {"point": POINT_B}, "axis 'lam_c' given more than once", "s.csv"),
    "sweep-out-unwritable": (
        ["sweep", "--protocol", "B", "--point", "{point}",
         "--axis", "lam_c=0.5:1", "--grid", "4", "--out", "{out}"],
        {"point": POINT_B}, "cannot write", "missing/s.csv"),
    "simulate-truth-state-nan": (
        ["simulate", "--config", "{config}", "--out", "{out}"],
        {"config": "nan"}, "truth.state.rho01", "c.json"),
    "simulate-out-unwritable": (
        ["simulate", "--config", "{config}", "--out", "{out}"],
        {"config": None}, "cannot write", "missing/c.json"),
    "reconstruct-out-unwritable": (
        ["reconstruct", "--counts", "{counts}", "--protocol", "B",
         "--out", "{out}"],
        {"config": None, "counts": None}, "cannot write", "missing/r.json"),
    "reconstruct-max-iter-zero": (
        ["reconstruct", "--counts", "{counts}", "--protocol", "B",
         "--max-iter", "0", "--out", "{out}"],
        {"config": None, "counts": None}, "max_iter 0", "r.json"),
    "reconstruct-max-iter-negative": (
        ["reconstruct", "--counts", "{counts}", "--protocol", "B",
         "--max-iter", "-5", "--out", "{out}"],
        {"config": None, "counts": None}, "max_iter -5", "r.json"),
    "validate-conventions-out-unwritable": (
        ["validate", "--conventions-out", "{out}"],
        {}, "cannot write", "missing/CONVENTIONS.txt"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_exit_2(tmp_path, capsys, monkeypatch, case):
    argv, files, message, out = BAD_ARGUMENTS[case]
    paths = {"out": str(tmp_path / (out or "unused"))}
    for name, content in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        if name == "config":
            cfg = write_config(tmp_path / "config.json")
            if content == "nan":
                cfg["truth"]["state"]["rho01"] = float("nan")
                (tmp_path / "config.json").write_text(json.dumps(cfg))
        elif name == "counts":
            assert cli.main(["simulate", "--config", paths["config"],
                             "--out", paths["counts"]]) == 0
        else:
            # json.dumps, not canonical_json: NaN and Infinity stay literal
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
    monkeypatch.setattr(validation, "run_suite", lambda suite, seed: [])
    capsys.readouterr()
    code = cli.main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sct: error: ")
    assert message in err
    assert not (tmp_path / (out or "unused")).exists()


DROP = object()  # an edit that deletes the field
B_NAMES = ["rho00", "rho01", "rho11", "lam_c"]
# case -> (setting index or None for the top level, field edits, error
# text); written into scenario B's protocol file
MALFORMED_PROTOCOLS = {
    "phases-nan": (1, {"phases": [float("nan")]}, "settings[1].phases[0]"),
    "multipliers-inf": (2, {"multipliers": [float("inf")]},
                        "settings[2].multipliers[0]"),
    "fixed-couplings-nan": (0, {"fixed_couplings": [float("nan")]},
                            "settings[0].fixed_couplings[0]"),
    "mz-inf": (3, {"mz": float("-inf")}, "settings[3].mz"),
    "multipliers-string": (1, {"multipliers": ["1"]},
                           "settings[1].multipliers[0]"),
    "label-string": (1, {"label": "1"}, "settings[1].label"),
    "label-float": (1, {"label": 1.5}, "settings[1].label"),
    "label-bool": (1, {"label": True}, "settings[1].label"),
    "setting-unknown-key": (1, {"gain": 1.0}, "unknown field 'gain'"),
    "unknowns-duplicate": (None, {"unknowns": B_NAMES + ["rho00"]},
                           "unknowns[4]"),
    "unknowns-omit-strength": (None, {"unknowns": ["rho00", "rho01", "rho11",
                                                   "gamma"]},
                               "drives lam_c"),
    "unknowns-not-a-name": (None, {"unknowns": ["rho00", "rho01", "rho10",
                                                "lam_c", "gamma"]},
                            "unknowns[2]: 'rho10'"),
    "unknowns-gamma-and-beta": (None,
                                {"unknowns": B_NAMES + ["gamma", "beta"]},
                                "unknowns[5]: 'beta'"),
    "phase-known-false-with-gamma": (None, {"phase_known": False},
                                     "phase_known: false"),
    "beta-without-phase-known": (None, {"unknowns": B_NAMES + ["beta"],
                                        "phase_known": DROP},
                                 "phase_known: true"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROTOCOLS))
def test_malformed_protocol_exit_2(tmp_path, capsys, case):
    config = tmp_path / "config.json"
    write_config(config)
    counts = tmp_path / "counts.json"
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(counts)]) == 0
    protocol = tmp_path / "protocol.json"
    io.write_protocol(protocol, scenario("B"))
    obj = json.loads(protocol.read_text())
    index, edits, message = MALFORMED_PROTOCOLS[case]
    target = obj if index is None else obj["settings"][index]
    for field, value in edits.items():
        if value is DROP:
            del target[field]
        else:
            target[field] = value
    # json.dumps, not canonical_json: NaN and Infinity stay literal tokens
    protocol.write_text(json.dumps(obj))
    capsys.readouterr()
    code = cli.main(["reconstruct", "--counts", str(counts), "--protocol",
                     str(protocol), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sct: error: ")
    assert message in err
    assert not (tmp_path / "r.json").exists()
