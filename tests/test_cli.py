import hashlib
import json
import math

import numpy as np
import pytest

from simplexwalk import cli, oracle, schemes
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


def test_scheme_built_once_per_kind_and_size(monkeypatch, tmp_path):
    # runs on one base scheme share its build; another size is another build
    calls = []
    monkeypatch.setattr(cli, "directed_ngon", lambda n: calls.append(n) or schemes.directed_ngon(n))
    cli._scheme.cache_clear()
    outs = [tmp_path / f"{n}-{i}.json" for n in (4, 5) for i in range(2)]
    for out in outs:
        n = out.name[0]
        assert run_cli(["scheme", "info", "--kind", "ngon", "--n", n, "--out", str(out)]) == 0
    assert calls == [4, 5]
    assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes() == outs[3].read_bytes()
    cli._scheme.cache_clear()


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, args, message", [
    ("amplitudes", ["--weights", "1e308,1e308"], "weights are too large"),
    ("amplitudes", ["--t-max", "1e308"], "time 1e+308 is too large"),
    ("detect", ["--t-max", "1e308"], "time 1e+308 is too large"),
    ("amplitudes", ["--solve-targets", "1,2", "--solve-time", "1e-320"], "weights must be finite"),
], ids=["huge-weights", "huge-time", "detect-huge-time", "tiny-solve-time"])
def test_out_of_range_input_exit_code(tmp_path, capsys, command, args, message):
    # finite input past the float range wrote NaN rows and exited 0, or
    # leaked a RuntimeWarning before its error
    out = tmp_path / "out.txt"
    scheme = ["--scenario", "ngon"] if command == "detect" else ["--scheme", "ngon"]
    rc = run_cli(["walk", command, *scheme, "--n", "3", "--N", "2", "--steps", "2", *args, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_amplitudes_past_the_float_range_exit_code(tmp_path, capsys):
    # the ngon-3 class table at N = 700 has valencies past the float range
    out = tmp_path / "a.csv"
    rc = run_cli(["walk", "amplitudes", "--scheme", "ngon", "--n", "3", "--N", "700",
                  "--steps", "1", "--out", str(out)])
    assert rc == 2
    assert "N = 700 exceed the float range" in capsys.readouterr().err
    assert not out.exists()


def test_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    # an allocation past the machine's memory, as the ow scenario's support
    # list at N = 400, is reported without a traceback
    def fail(d, copies, k):
        raise MemoryError("Unable to allocate 8.15 GiB for an array")

    monkeypatch.setattr(cli, "ow_fr_scenario", fail)
    out = tmp_path / "events.json"
    rc = run_cli(["walk", "detect", "--scenario", "ow", "--d", "4", "--N", "400", "--k", "4",
                  "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: Unable to allocate 8.15 GiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize("index, index_tilde", [("1-1", "1-1"), ("1-1-0", "1-1")])
def test_krawtchouk_eval_rejects_index_length(tmp_path, capsys, index, index_tilde):
    out = tmp_path / "value.json"
    rc = run_cli(["krawtchouk", "eval", "--scheme", "ngon", "--n", "3", "--N", "2",
                  "--index", index, "--index-tilde", index_tilde, "--out", str(out)])
    assert rc == 2
    assert "3 parts" in capsys.readouterr().err
    assert not out.exists()


KR = ["krawtchouk", "eval", "--scheme", "ngon", "--n", "3", "--N", "2"]
AMP = ["walk", "amplitudes", "--scheme", "trivial2", "--N", "1"]
BM = ["walk", "bmatrix", "--scheme"]
CONFIG_ERRORS = [
    (KR + ["--index", "1-x", "--index-tilde", "2-0-0"], None,
     "bad multi-index '1-x'; expected dash-joined integers"),
    (["scheme", "info", "--kind", "ngon"], None, "--n is required for kind 'ngon'"),
    (["scheme", "info", "--kind", "ow"], None, "--d is required for kind 'ow'"),
    (["scheme", "info"], None, "unknown scheme kind None"),
    (BM + ["ngon", "--n", "3", "--N", "1", "--solve-targets", "1,1"], None,
     "--solve-time is required with --solve-targets"),
    (BM + ["ow", "--d", "2", "--N", "1"], None, "no canonical weights for kind 'ow'"),
    (BM + ["ngon", "--n", "3", "--N", "1", "--weights", "1,x"], None, "bad weight list '1,x'"),
    (KR, None, "krawtchouk eval needs --N, --index and --index-tilde"),
    (AMP + ["--steps", "0"], None, "--steps must be positive"),
    (AMP + ["--t-max", "inf"], None, "--t-min and --t-max must be finite"),
    (AMP + ["--t-min", "2", "--t-max", "1"], None, "--t-min must not exceed --t-max"),
    (["walk", "amplitudes", "--scheme", "trivial2"], None, "--N is required"),
    (BM + ["trivial2"], None, "--N is required"),
    (["walk", "detect", "--scenario", "ngon", "--n", "3"], None, "scenario 'ngon' needs --n and --N"),
    (["walk", "detect", "--scenario", "hypercube"], None, "scenario 'hypercube' needs --N"),
    (["walk", "detect", "--scenario", "ow", "--d", "3", "--N", "2"], None,
     "scenario 'ow' needs --d, --N and --k"),
    (["walk", "detect"], None, "unknown scenario None"),
    (["walk", "detect", "--scenario", "hypercube", "--N", "1", "--tol", "2"], None,
     "--tol must be positive and below 1"),
    ([], {"command": "bogus"}, "unknown command 'bogus'"),
    (["verify"], ["verify"], "the config file must hold a JSON object"),
    (["verify"], {"nonsense": 1}, "unknown config field 'nonsense'"),
    (["scheme", "info"], {"kind": "ngon", "n": "3"}, "config field 'n' must be int, got '3'"),
    (["scheme", "info"], {"kind": "ngon", "n": 3, "t_max": 10 ** 400},
     "config field 't_max' is out of range"),
    ([], {}, "no command given (and none found in the config file)"),
]


@pytest.mark.parametrize("args, payload, message", CONFIG_ERRORS, ids=[m for _, _, m in CONFIG_ERRORS])
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, args, payload, message):
    if payload is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        args = ["--config", str(config)] + args
    assert run_cli(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    # d >= 2 and class counts past the other sweeps; both were taken before
    # the class table was read off the index matrix
    "ngon3-40": (["--scheme", "ngon", "--n", "3", "--N", "40", "--weights", "canonical",
                  "--t-min", "0.1", "--t-max", "3.0", "--steps", "3"],
                 "24617b7c8d0efba5ce0b2cb03ad862835f78319a4882c33e49a3bb5bd5a5874d"),
    "ow3-21-solved": (["--scheme", "ow", "--d", "3", "--N", "21", "--solve-targets",
                       "6.283185307179586,6.283185307179586,1.5707963267948966",
                       "--solve-time", "1.5707963267948966", "--t-min", "0", "--t-max", "3.2",
                       "--steps", "3"],
                      "4939a1ce6453ff5f31d8acc08641c05af1e218c203df2379a59b2e9bc5e5363d"),
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


# sha256 of stdout, taken after each peak began to be refined by safeguarded
# Newton steps on the closed-form derivative of its face mass; the
# zero-width brackets of the two degenerate grids keep their earlier digests
GOLDEN_DETECTS = {
    "readme-ngon": (["--scenario", "ngon", "--n", "3", "--N", "2", "--t-min", "0",
                     "--t-max", "6.2832", "--steps", "400"],
                    "cdc50e91d2553f09122cb3f4d753c90add6b39e188bc75604c1029aae5395a98"),
    "readme-ow": (["--scenario", "ow", "--d", "3", "--N", "5", "--k", "2", "--t-min", "0",
                   "--t-max", "3.1416", "--steps", "200", "--tol", "1e-6"],
                  "1154e72ccc12c8e8c4552bc9bfc8a076cf04591d046b99c3af8d4e20a81ce002"),
    "hypercube-12": (["--scenario", "hypercube", "--N", "12", "--t-min", "0",
                      "--t-max", "3.141592653589793", "--steps", "120"],
                     "8c39cbb690d98360f66cfe67d7289e6be4fbe8c2027bec1cfff88c25c6ca1deb"),
    # FR revivals at pi/2 and pi
    "ow3-k3": (["--scenario", "ow", "--d", "3", "--N", "2", "--k", "3", "--t-min", "0",
                "--t-max", "3.141592653589793", "--steps", "200"],
               "7e8cd2401388bea28f49ab5c611bde195c4183419213af87ec3434001950671b"),
    "ngon5-57": (["--scenario", "ngon", "--n", "5", "--N", "3", "--t-min", "0",
                  "--t-max", "6.283185307179586", "--steps", "57"],
                 "ae0b6a758c544ec7a22310c7847438ee161089d0a751f10b6a3dec1d8db15373"),
    # one repeated time: every bracket has zero width
    "degenerate": (["--scenario", "hypercube", "--N", "3", "--t-min", "1", "--t-max", "1",
                    "--steps", "5"],
                   "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "degenerate-revival": (["--scenario", "ow", "--d", "3", "--N", "2", "--k", "3",
                            "--t-min", "1.5707963267948966", "--t-max", "1.5707963267948966",
                            "--steps", "5"],
                           "cbc232ffeb77d3b0d86772720484c571d9752f42369a2e30fff41632c2aa27d5"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DETECTS))
def test_walk_detect_golden_json(tmp_path, capsys, name):
    args, digest = GOLDEN_DETECTS[name]
    assert run_cli(["walk", "detect", *args]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    out = tmp_path / "e.json"
    assert run_cli(["walk", "detect", *args, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


# sha256 of stdout, taken before the series carried its products down the
# cells and the expansion keyed monomials by integers
GOLDEN_KRAWTCHOUK = {
    "readme": (["krawtchouk", "eval", "--scheme", "ngon", "--n", "3", "--N", "4",
                "--index", "2-1-1", "--index-tilde", "1-2-1"],
               "4ddbdd8ddf65ce7dce80eeea4515ba86fb989a53f6a4b98228f9531c1ac2efda"),
    "ow3": (["krawtchouk", "eval", "--scheme", "ow", "--d", "3", "--N", "4",
             "--index", "0-1-2-1", "--index-tilde", "1-2-1-0"],
            "867003e60274dfaeadf9e57b1372ebd8cee76d991153a7c6502de0f9b85fccf8"),
    "ngon5": (["krawtchouk", "eval", "--scheme", "ngon", "--n", "5", "--N", "4",
               "--index", "1-0-1-1-1", "--index-tilde", "0-2-1-0-1"],
              "c8261b791a0941899d7ee483ecad4349047136d97139a31ed22cf6987dc152a6"),
    "verify": (["verify", "--suite", "krawtchouk"],
               "a6f07b83e33890492819bf6f829b809b1ebf904bdb5b7ed0f3d8331506c2fded"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_KRAWTCHOUK))
def test_krawtchouk_golden_json(capsys, name):
    args, digest = GOLDEN_KRAWTCHOUK[name]
    assert run_cli(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


GOLDEN_SCHEMES = {
    "trivial2": (["scheme", "info", "--kind", "trivial2"],
                 "bc0e21f12a21303d3fa2c6b2c581e153214c0d6491aff39d67c4bbef041da81a"),
    "ngon3": (["scheme", "info", "--kind", "ngon", "--n", "3"],
              "03a147e2f38b64282a25a1a4f0ba5006ce1c675c8e93501e57f54ccce1379512"),
    "ngon12": (["scheme", "info", "--kind", "ngon", "--n", "12"],
               "c12c0299d3421b69514c070efaccb9e80978dbe87f382672cf495d7db6860c7b"),
    "ngon31": (["scheme", "info", "--kind", "ngon", "--n", "31"],
               "52675980fb0370d0e929858aafa875587d478208433ce9c0ef02a0ef90b80f9b"),
    "ow3": (["scheme", "info", "--kind", "ow", "--d", "3"],
            "d6a7ad98624ef28da3c109cc478fe5179bac4dae5929dd10b933d6ae128ed240"),
    "ow7": (["scheme", "info", "--kind", "ow", "--d", "7"],
            "4b9665bbfb0bf484497eddecb8cfcd0db77ac0f7aed7eda96c7da5e4d33e23de"),
    "verify": (["verify", "--suite", "axioms"],
               "30a25c763d64da0743ce2fc8efc0da2ac0a23a33e5c00a6345e33454e71c8133"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCHEMES))
def test_scheme_golden_json(capsys, name):
    args, digest = GOLDEN_SCHEMES[name]
    assert run_cli(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of stdout, taken while the projected matrix was still filled by a
# per-class loop over a dict of class positions
GOLDEN_BMATRICES = {
    "ngon3-3": (["walk", "bmatrix", "--scheme", "ngon", "--n", "3", "--N", "3",
                 "--weights", "canonical"],
                "5dabbe0a536fbd6636a9bb5d0493ea260d5bbcbad0d7a8889fc7d5bf985ed25c"),
    "ngon5-6": (["walk", "bmatrix", "--scheme", "ngon", "--n", "5", "--N", "6",
                 "--weights", "canonical"],
                "78791b60bb9c2c9f1d463a62f774979a270563785db7d53c9c90a24b7af58b65"),
    "ow3-5": (["walk", "bmatrix", "--scheme", "ow", "--d", "3", "--N", "5",
               "--weights", "0.7,-0.3,0.25"],
              "4baa1cc6a7c590d95ee39fc646b4f23147d1898412c212cc026cc75fb8e6ba75"),
    "trivial2-9": (["walk", "bmatrix", "--scheme", "trivial2", "--N", "9"],
                   "acd1f623077c7749873506ec91fbd3341a5d85f0cd2534b722b4444b77e6efdc"),
    # d = 0: one class, no move
    "ngon1-4": (["walk", "bmatrix", "--scheme", "ngon", "--n", "1", "--N", "4"],
                "1eca92e19936fa851343ace028e1eb14222824bb384a6455578ab7772df03290"),
    "verify-bmatrix": (["verify", "--suite", "bmatrix"],
                       "1d1b739f7e53694ab0a4f644e62e49eeaa9be7c60053255f53a500aefd03b229"),
    # taken after the "eig" method became the Kronecker product of one-copy
    # eigh columns: every residual moved at rounding level (all <= 6e-15),
    # every tolerance stayed 1e-9
    "verify-amplitudes": (["verify", "--suite", "amplitudes"],
                          "fc50e3d4fa89907fe90946e5e61158b741b7622cbc7e0496fa72064ae5af684d"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BMATRICES))
def test_bmatrix_golden_json(capsys, name):
    args, digest = GOLDEN_BMATRICES[name]
    assert run_cli(args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
