import hashlib
import json
import math

import numpy as np
import pytest

from simplexwalk import cli, oracle
from simplexwalk.cli import _build_parser, main


def run_cli(args):
    return main(args)


def test_scheme_info(tmp_path, capsys):
    out = tmp_path / "scheme.json"
    assert run_cli(["scheme", "info", "--kind", "ngon", "--n", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["size"] == 3
    assert payload["k"] == [1, 1, 1]
    assert payload["P"][1][1]["re"] == pytest.approx(math.cos(2 * math.pi / 3))
    assert payload["intersection"][1][1][2] == 1


def test_scheme_info_stdout(capsys):
    assert run_cli(["scheme", "info", "--kind", "trivial2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classes"] == 2


def test_scheme_info_trivial2_q_has_positive_zero_imaginary_parts(capsys):
    # directed_ngon(2) has Q = conj(P), whose imaginary parts are -0.0;
    # trivial2 is built with Q = P and prints +0.0
    assert run_cli(["scheme", "info", "--kind", "trivial2"]) == 0
    text = capsys.readouterr().out
    assert "-0.0" not in text
    Q = json.loads(text)["Q"]
    assert [[math.copysign(1.0, z["im"]) for z in row] for row in Q] == [[1.0, 1.0], [1.0, 1.0]]


def test_krawtchouk_eval(tmp_path):
    out = tmp_path / "value.json"
    rc = run_cli(
        ["krawtchouk", "eval", "--scheme", "ngon", "--n", "3", "--N", "4",
         "--index", "2-1-1", "--index-tilde", "1-2-1", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"value_re", "value_im", "method", "residual"}
    assert payload["residual"] < 1e-10


def test_walk_amplitudes_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["walk", "amplitudes", "--scheme", "ngon", "--n", "3", "--N", "3",
            "--weights", "canonical", "--t-min", "0", "--t-max", "6.2832", "--steps", "40"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "t,beta,re,im,prob"
    assert len(lines) == 1 + 40 * 10
    assert "\r" not in out1.read_text()


def test_walk_amplitudes_explicit_weights(tmp_path):
    out = tmp_path / "a.csv"
    rc = run_cli(["walk", "amplitudes", "--scheme", "trivial2", "--N", "2",
                  "--weights", "1+0j", "--t-min", "0", "--t-max", "3.14159",
                  "--steps", "10", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 31


def test_walk_bmatrix(tmp_path):
    out = tmp_path / "bm.json"
    rc = run_cli(["walk", "bmatrix", "--scheme", "ngon", "--n", "3", "--N", "3",
                  "--weights", "canonical", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["order"][0] == [3, 0, 0]
    assert len(payload["entries"]) == 10
    assert payload["hermiticity_residual"] < 1e-12
    w1 = 1.0 / (np.exp(-2j * math.pi / 3) - 1.0)
    cell = payload["entries"][0][1]
    assert cell["re"] == pytest.approx((math.sqrt(3) * w1).real)
    assert cell["im"] == pytest.approx((math.sqrt(3) * w1).imag)


def test_walk_bmatrix_solver_weights(tmp_path):
    out = tmp_path / "bm.json"
    rc = run_cli(["walk", "bmatrix", "--scheme", "ow", "--d", "3", "--N", "2",
                  "--solve-targets", "6.283185307179586,6.283185307179586,1.5707963267948966",
                  "--solve-time", str(math.pi / 2), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["hermiticity_residual"] < 1e-9


def test_walk_bmatrix_has_no_time_flags(tmp_path):
    # the projected matrix does not depend on time
    with pytest.raises(SystemExit) as exc:
        run_cli(["walk", "bmatrix", "--scheme", "ngon", "--n", "3", "--N", "3", "--steps", "5",
                 "--out", str(tmp_path / "bm.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "bm.json").exists()


def test_walk_detect_ngon(tmp_path):
    out = tmp_path / "events.json"
    rc = run_cli(["walk", "detect", "--scenario", "ngon", "--n", "3", "--N", "2",
                  "--t-min", "0", "--t-max", "6.2832", "--steps", "150", "--out", str(out)])
    assert rc == 0
    events = json.loads(out.read_text())
    psts = [ev for ev in events if ev["kind"] == "PST"]
    supports = {tuple(tuple(b) for b in ev["support"]) for ev in psts}
    assert ((0, 0, 2),) in supports
    assert ((0, 2, 0),) in supports
    for ev in events:
        assert set(ev) == {"t", "kind", "support", "fidelity", "phase"}


def test_walk_detect_hypercube(tmp_path):
    out = tmp_path / "events.json"
    rc = run_cli(["walk", "detect", "--scenario", "hypercube", "--N", "4",
                  "--t-min", "0", "--t-max", "3.1416", "--steps", "120", "--out", str(out)])
    assert rc == 0
    events = json.loads(out.read_text())
    assert any(ev["support"] == [[0, 4]] and abs(ev["t"] - math.pi / 2) < 1e-6 for ev in events)


def test_walk_detect_ow(tmp_path):
    out = tmp_path / "events.json"
    rc = run_cli(["walk", "detect", "--scenario", "ow", "--d", "3", "--N", "3", "--k", "2",
                  "--t-min", "0", "--t-max", "3.15", "--steps", "90", "--tol", "1e-6",
                  "--out", str(out)])
    assert rc == 0
    events = json.loads(out.read_text())
    frs = [ev for ev in events if ev["kind"] == "FR"]
    assert any(abs(ev["t"] - math.pi / 2) < 1e-3 for ev in frs)


def test_verify_suite_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--suite", "axioms", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert capsys.readouterr().err.startswith("suite axioms")


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_guard_env_exit_code(monkeypatch, capsys, value):
    monkeypatch.setenv("SIMPLEXWALK_GUARD", value)
    assert run_cli(["verify", "--suite", "amplitudes"]) == 2
    assert capsys.readouterr().err == f"error: SIMPLEXWALK_GUARD must be a positive integer, got {value!r}\n"


def test_invalid_config_exit_code(capsys):
    assert run_cli(["walk", "amplitudes", "--scheme", "ngon", "--N", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli(["walk", "amplitudes", "--scheme", "ow", "--d", "2", "--N", "1",
                    "--weights", "canonical"]) == 2
    assert run_cli(["scheme", "info", "--kind", "ngon"]) == 2


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "walk-amplitudes",
        "kind": "trivial2",
        "copies": 2,
        "weights": "1",
        "t_min": 0.0,
        "t_max": 3.0,
        "steps": 5,
    }))
    out = tmp_path / "sweep.csv"
    rc = run_cli(["--config", str(config), "walk", "amplitudes", "--steps", "7",
                  "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 7 * 3


def test_config_file_unknown_field(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "verify", "nonsense": 1}))
    assert run_cli(["--config", str(config), "verify"]) == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", "3"),
        ("n", 3.0),
        ("n", True),
        ("steps", "40"),
        ("t_max", "6.28"),
        ("t_max", 10 ** 400),
        ("tol", False),
        ("weights", 1),
        ("kind", ["ngon"]),
    ],
)
def test_config_file_value_types_checked(tmp_path, capsys, field, value):
    payload = {"command": "scheme-info", "kind": "ngon", "n": 3}
    payload[field] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert run_cli(["--config", str(config), "scheme", "info"]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err


def test_config_file_null_and_int_values_accepted(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "command": "walk-amplitudes", "kind": "trivial2", "copies": 1, "weights": None,
        "t_min": 0, "t_max": 1, "steps": None,
    }))
    out = tmp_path / "sweep.csv"
    assert run_cli(["--config", str(config), "walk", "amplitudes", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 200 * 2


def test_config_file_not_an_object(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(["verify"]))
    assert run_cli(["--config", str(config), "verify"]) == 2


@pytest.mark.parametrize("weights", ["nan", "1,1e400"])
def test_non_finite_weights_exit_code(tmp_path, capsys, weights):
    out = tmp_path / "a.csv"
    rc = run_cli(["walk", "amplitudes", "--scheme", "ngon", "--n", str(1 + len(weights.split(","))),
                  "--N", "2", "--weights", weights, "--steps", "3", "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "1.0", "1.5"])
def test_detect_rejects_non_positive_tol(tmp_path, capsys, tol):
    out = tmp_path / "events.json"
    rc = run_cli(["walk", "detect", "--scenario", "hypercube", "--N", "2",
                  "--steps", "20", "--tol", tol, "--out", str(out)])
    assert rc == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


def test_bmatrix_rejects_non_finite_solve_time(tmp_path, capsys):
    out = tmp_path / "bm.json"
    rc = run_cli(["walk", "bmatrix", "--scheme", "ow", "--d", "2", "--N", "1",
                  "--solve-targets", "1,1", "--solve-time", "inf", "--out", str(out)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_verify_parser_accepts_every_suite():
    parser = _build_parser()
    for name in [*oracle.SUITES, "all"]:
        assert parser.parse_args(["verify", "--suite", name]).suite == name


@pytest.mark.parametrize("t_min, t_max", [("3", "1"), ("0", "inf"), ("nan", "1")])
def test_amplitudes_rejects_bad_time_range(tmp_path, capsys, t_min, t_max):
    out = tmp_path / "a.csv"
    rc = run_cli(["walk", "amplitudes", "--scheme", "trivial2", "--N", "2",
                  "--t-min", t_min, "--t-max", t_max, "--steps", "5", "--out", str(out)])
    assert rc == 2
    assert "--t-m" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("index, index_tilde", [("1-1", "1-1"), ("1-1-0", "1-1")])
def test_krawtchouk_eval_rejects_index_length(tmp_path, capsys, index, index_tilde):
    out = tmp_path / "value.json"
    rc = run_cli(["krawtchouk", "eval", "--scheme", "ngon", "--n", "3", "--N", "2",
                  "--index", index, "--index-tilde", index_tilde, "--out", str(out)])
    assert rc == 2
    assert "3 parts" in capsys.readouterr().err
    assert not out.exists()


def test_verify_summary_shows_nan_residual(monkeypatch, capsys):
    from simplexwalk import oracle

    checks = [{"name": "a", "passed": True, "residual": 0.1},
              {"name": "b", "passed": False, "residual": math.nan},
              {"name": "c", "passed": True, "residual": 0.2}]
    monkeypatch.setattr(oracle, "run_suite", lambda name: {"suite": name, "checks": checks, "passed": False})
    assert run_cli(["verify", "--suite", "axioms"]) == 1
    assert capsys.readouterr().err == "suite axioms: 3 checks, 1 failures, max residual nan\n"


# sha256 of stdout, taken before the sweep was evaluated as one T x D array
GOLDEN_SWEEPS = {
    "readme": (["--scheme", "ngon", "--n", "3", "--N", "3", "--weights", "canonical",
                "--t-min", "0", "--t-max", "6.2832", "--steps", "600"],
               "205778a92b0a678d09c1f4c71d96d62a1581fa9cab9014edddbafd4fcdfa7b2a"),
    "trivial2-940": (["--scheme", "trivial2", "--N", "940", "--t-min", "0.1", "--t-max", "3.0",
                      "--steps", "7"],
                     "50d685eb7b0d56e8b98bf81402efff71f6d6bc741fa58d0f3bba20c165c8ab49"),
    "ow3-solved": (["--scheme", "ow", "--d", "3", "--N", "5", "--solve-targets",
                    "6.283185307179586,6.283185307179586,1.5707963267948966",
                    "--solve-time", "1.5707963267948966", "--t-min", "0", "--t-max", "3.2",
                    "--steps", "40"],
                   "e88f666e6f5bdf07d95d46a45968024810e356aa15940af858e545b913d90662"),
    "ngon4-non-hermitian": (["--scheme", "ngon", "--n", "4", "--N", "4",
                             "--weights", "0.5+0.1j,0.3+0.2j,0.2-0.4j",
                             "--t-min", "0.25", "--t-max", "5", "--steps", "30"],
                            "ba322724e73f872893ec6b834080e9d06e5899ebb96349b312857f66b117bf6c"),
}


@pytest.mark.filterwarnings("ignore:weights are not Hermitian")
@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_walk_amplitudes_golden_csv(tmp_path, capsys, name):
    args, digest = GOLDEN_SWEEPS[name]
    assert run_cli(["walk", "amplitudes", *args]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    out = tmp_path / "a.csv"
    assert run_cli(["walk", "amplitudes", *args, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    rows = text.count("\n") - 1
    assert capsys.readouterr().out == f"wrote {rows} rows to {out}\n"


def test_walk_amplitudes_opens_no_file_before_rows_are_computed(tmp_path, monkeypatch):
    def fail(spec, times):
        raise OverflowError("amplitudes out of range")

    monkeypatch.setattr(cli, "_amplitude_rows", fail)
    out = tmp_path / "a.csv"
    with pytest.raises(OverflowError):
        run_cli(["walk", "amplitudes", "--scheme", "trivial2", "--N", "3", "--out", str(out)])
    assert not out.exists()


PARSER_SEQUENCE = [
    ["scheme", "info", "--kind", "trivial2"],
    ["walk", "amplitudes", "-h"],
    ["walk", "amplitudes", "--scheme", "trivial2", "--N", "2", "--steps", "3"],
    ["walk", "amplitudes", "--bogus"],
    ["walk", "amplitudes", "--scheme", "trivial2", "--steps", "3"],
    ["-h"],
    ["krawtchouk", "eval", "--scheme", "ngon", "--n", "3", "--N", "2",
     "--index", "1-1-0", "--index-tilde", "0-1-1"],
    ["verify", "--suite", "nope"],
    ["walk", "bmatrix", "--scheme", "ngon", "--n", "3", "--N", "2"],
    ["walk", "detect", "--scenario", "hypercube", "--N", "2", "--steps", "40", "--tol", "2"],
    [],
    ["scheme", "info", "--kind", "trivial2"],
]


def _run_sequence(capsys):
    seen = []
    for argv in PARSER_SEQUENCE:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("exit", exc.code)
        captured = capsys.readouterr()
        seen.append((rc, captured.out, captured.err))
    return seen


def test_parser_built_once_matches_fresh_parsers(monkeypatch, capsys):
    _build_parser.cache_clear()
    cached = _run_sequence(capsys)
    assert _build_parser.cache_info().misses == 1
    assert _run_sequence(capsys) == cached
    monkeypatch.setattr(cli, "_build_parser", _build_parser.__wrapped__)
    assert _run_sequence(capsys) == cached
    assert [rc for rc, _, _ in cached] == [0, ("exit", 0), 0, ("exit", 2), 2, ("exit", 0), 0,
                                           ("exit", 2), 0, 2, 2, 0]
