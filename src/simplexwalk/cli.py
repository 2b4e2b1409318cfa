"""Command-line front end: scheme inspection, polynomial evaluation, time
sweeps, projected-matrix export, event detection, and verification suites.

Configs are plain JSON documents; command-line flags override fields, and
output files are byte-identical across runs with the same config (floats
printed with 17 significant digits, LF line endings).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import oracle
from .detect import hypercube_pst_scenario, ngon_mpst_scenario, ow_fr_scenario, scan
from .krawtchouk import krawtchouk_genfun, krawtchouk_series
from .schemes import directed_ngon, ordered_word_scheme, trivial_scheme_2
from .walk import _amplitude_rows, canonical_ngon_weights, projected_matrix, solve_weights, walk_spec


@dataclasses.dataclass
class ExperimentConfig:
    command: str = None
    kind: str = None            # ngon | trivial2 | ow
    n: int = None
    d: int = None
    copies: int = None
    weights: str = None         # "canonical" or comma list of python complexes
    solve_targets: str = None   # comma list of phases (radians)
    solve_time: float = None
    t_min: float = 0.0
    t_max: float = 2.0 * math.pi
    steps: int = 200
    scenario: str = None        # ngon | hypercube | ow
    k: int = None
    tol: float = 1e-8
    index: str = None           # dash-joined multi-index
    index_tilde: str = None
    suite: str = "all"
    out: str = None


class ConfigError(ValueError):
    pass


def _complex_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _matrix_json(m) -> list:
    return [[_complex_json(z) for z in row] for row in np.asarray(m)]


def _parse_index(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split("-"))
    except ValueError:
        raise ConfigError(f"bad multi-index {text!r}; expected dash-joined integers")


def _build_scheme(config: ExperimentConfig):
    kind = config.kind
    if kind == "trivial2":
        return trivial_scheme_2()
    if kind == "ngon":
        if config.n is None:
            raise ConfigError("--n is required for kind 'ngon'")
        return directed_ngon(config.n)
    if kind == "ow":
        if config.d is None:
            raise ConfigError("--d is required for kind 'ow'")
        return ordered_word_scheme(config.d)
    raise ConfigError(f"unknown scheme kind {config.kind!r}")


def _build_weights(config: ExperimentConfig, scheme) -> np.ndarray:
    if config.solve_targets is not None:
        if config.solve_time is None:
            raise ConfigError("--solve-time is required with --solve-targets")
        targets = [float(v) for v in config.solve_targets.split(",")]
        return solve_weights(scheme, config.solve_time, targets).weights
    source = config.weights or "canonical"
    if source == "canonical":
        if config.kind == "ngon":
            return canonical_ngon_weights(config.n)
        if config.kind == "trivial2":
            return np.array([1.0 + 0.0j])
        raise ConfigError(f"no canonical weights for kind {config.kind!r}")
    try:
        return np.array([complex(v) for v in source.split(",")])
    except ValueError:
        raise ConfigError(f"bad weight list {source!r}")


def _write_text(path: str, chunks) -> None:
    """Write the strings of ``chunks`` in turn to ``path``, or to stdout."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", newline="\n") as fh:
        fh.writelines(chunks)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _run_scheme_info(config: ExperimentConfig) -> int:
    scheme = _build_scheme(config)
    payload = {
        "kind": config.kind,
        "size": scheme.size,
        "classes": scheme.classes,
        "P": _matrix_json(scheme.first_eigenmatrix),
        "Q": _matrix_json(scheme.second_eigenmatrix),
        "C": _matrix_json(scheme.cosine),
        "k": scheme.valencies.tolist(),
        "m": scheme.multiplicities.tolist(),
        "transpose_map": list(scheme.transpose_map),
        "intersection": scheme.intersection.tolist(),
    }
    _write_text(config.out, [_json_text(payload)])
    return 0


def _run_krawtchouk_eval(config: ExperimentConfig) -> int:
    scheme = _build_scheme(config)
    if config.copies is None or config.index is None or config.index_tilde is None:
        raise ConfigError("krawtchouk eval needs --N, --index and --index-tilde")
    n = _parse_index(config.index)
    nt = _parse_index(config.index_tilde)
    series = krawtchouk_series(n, nt, config.copies, scheme.cosine)
    genfun = krawtchouk_genfun(nt, config.copies, scheme.cosine)[n]
    payload = {
        "value_re": float(series.real),
        "value_im": float(series.imag),
        "method": "series",
        "residual": abs(series - genfun),
    }
    _write_text(config.out, [_json_text(payload)])
    return 0


def _sweep_times(config: ExperimentConfig):
    if config.steps < 1:
        raise ConfigError("--steps must be positive")
    if not math.isfinite(config.t_min) or not math.isfinite(config.t_max):
        raise ConfigError("--t-min and --t-max must be finite")
    if config.t_min > config.t_max:
        raise ConfigError("--t-min must not exceed --t-max")
    return np.linspace(config.t_min, config.t_max, config.steps)


def _csv_blocks(table, times, f):
    """The CSV header, then one block of rows per time: t, dash-joined beta,
    re f_beta, im f_beta and k_beta |f_beta|^2, one % per row."""
    yield "t,beta,re,im,prob\n"
    labels = ["-".join(map(str, beta)) for beta in table.order]
    for t, row in zip(times.tolist(), f):
        template = ("%.17g" % t) + ",%s,%.17g,%.17g,%.17g\n"
        prob = table.valency * np.abs(row) ** 2
        yield "".join(map(template.__mod__, zip(labels, row.real.tolist(), row.imag.tolist(),
                                                prob.tolist())))


def _run_walk_amplitudes(config: ExperimentConfig) -> int:
    scheme = _build_scheme(config)
    if config.copies is None:
        raise ConfigError("--N is required")
    spec = walk_spec(scheme, config.copies, _build_weights(config, scheme))
    times = _sweep_times(config)
    table, f = _amplitude_rows(spec, times)
    _write_text(config.out, _csv_blocks(table, times, f))
    if config.out:
        print(f"wrote {f.size} rows to {config.out}")
    return 0


def _run_walk_bmatrix(config: ExperimentConfig) -> int:
    scheme = _build_scheme(config)
    if config.copies is None:
        raise ConfigError("--N is required")
    spec = walk_spec(scheme, config.copies, _build_weights(config, scheme))
    pm = projected_matrix(spec)
    payload = {
        "order": [list(b) for b in pm.order],
        "entries": _matrix_json(pm.entries),
        "hermiticity_residual": pm.hermiticity_residual,
    }
    _write_text(config.out, [_json_text(payload)])
    return 0


def _build_scenario(config: ExperimentConfig):
    if config.scenario == "ngon":
        if config.n is None or config.copies is None:
            raise ConfigError("scenario 'ngon' needs --n and --N")
        return ngon_mpst_scenario(config.n, config.copies)
    if config.scenario == "hypercube":
        if config.copies is None:
            raise ConfigError("scenario 'hypercube' needs --N")
        return hypercube_pst_scenario(config.copies)
    if config.scenario == "ow":
        if config.d is None or config.copies is None or config.k is None:
            raise ConfigError("scenario 'ow' needs --d, --N and --k")
        return ow_fr_scenario(config.d, config.copies, config.k)
    raise ConfigError(f"unknown scenario {config.scenario!r}")


def _run_walk_detect(config: ExperimentConfig) -> int:
    if not 0 < config.tol < 1:
        raise ConfigError("--tol must be positive and below 1")
    scenario = _build_scenario(config)
    events = scan(scenario.spec, _sweep_times(config), tol=config.tol)
    payload = [
        {
            "t": ev.time,
            "kind": ev.kind,
            "support": [list(b) for b in ev.support],
            "fidelity": ev.fidelity,
            "phase": ev.phase,
        }
        for ev in events
    ]
    _write_text(config.out, [_json_text(payload)])
    if config.out:
        print(f"{scenario.label}: {len(events)} events -> {config.out}")
    return 0


def _run_verify(config: ExperimentConfig) -> int:
    report = oracle.run_suite(config.suite)
    _write_text(config.out, [_json_text(report)])
    # np.max propagates NaN, as in ValidationReport.max_residual
    worst = float(np.max([c["residual"] for c in report["checks"]], initial=0.0))
    n_fail = sum(1 for c in report["checks"] if not c["passed"])
    print(
        f"suite {config.suite}: {len(report['checks'])} checks, "
        f"{n_fail} failures, max residual {worst:.3e}",
        file=sys.stderr,
    )
    return 0 if report["passed"] else 1


_RUNNERS = {
    "scheme-info": _run_scheme_info,
    "krawtchouk-eval": _run_krawtchouk_eval,
    "walk-amplitudes": _run_walk_amplitudes,
    "walk-bmatrix": _run_walk_bmatrix,
    "walk-detect": _run_walk_detect,
    "verify": _run_verify,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    if config.command not in _RUNNERS:
        raise ConfigError(f"unknown command {config.command!r}")
    return _RUNNERS[config.command](config)


def _add_scheme_flags(p, flag):
    p.add_argument(flag, dest="kind", choices=["ngon", "trivial2", "ow"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)


def _add_weight_flags(p):
    p.add_argument("--N", dest="copies", type=int, default=None)
    p.add_argument("--weights", default=None, help="'canonical' or comma list of complexes")
    p.add_argument("--solve-targets", default=None, help="comma list of phases (radians)")
    p.add_argument("--solve-time", type=float, default=None)


def _add_time_flags(p):
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexwalk",
        description="quantum walks on symmetric tensor powers of association schemes",
    )
    parser.add_argument("--config", default=None, help="JSON config file; flags override")
    sub = parser.add_subparsers(dest="group")

    scheme = sub.add_parser("scheme").add_subparsers(dest="action")
    info = scheme.add_parser("info")
    _add_scheme_flags(info, "--kind")
    info.add_argument("--out", default=None)

    kr = sub.add_parser("krawtchouk").add_subparsers(dest="action")
    ev = kr.add_parser("eval")
    _add_scheme_flags(ev, "--scheme")
    ev.add_argument("--N", dest="copies", type=int, default=None)
    ev.add_argument("--index", default=None)
    ev.add_argument("--index-tilde", default=None)
    ev.add_argument("--out", default=None)

    walk = sub.add_parser("walk").add_subparsers(dest="action")
    for name in ("amplitudes", "bmatrix"):
        p = walk.add_parser(name)
        _add_scheme_flags(p, "--scheme")
        _add_weight_flags(p)
        if name == "amplitudes":
            _add_time_flags(p)
        p.add_argument("--out", default=None)
    det = walk.add_parser("detect")
    det.add_argument("--scenario", choices=["ngon", "hypercube", "ow"], default=None)
    det.add_argument("--n", type=int, default=None)
    det.add_argument("--d", type=int, default=None)
    det.add_argument("--N", dest="copies", type=int, default=None)
    det.add_argument("--k", type=int, default=None)
    _add_time_flags(det)
    det.add_argument("--tol", type=float, default=None)
    det.add_argument("--out", default=None)

    ver = sub.add_parser("verify")
    ver.add_argument("--suite", choices=[*oracle.SUITES, "all"], default=None)
    ver.add_argument("--out", default=None)
    return parser


# JSON values accepted for each annotated ExperimentConfig field type.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ConfigError("the config file must hold a JSON object")
        types = {field.name: field.type for field in dataclasses.fields(ExperimentConfig)}
        for key, value in payload.items():
            if key not in types:
                raise ConfigError(f"unknown config field {key!r}")
            if value is None:
                continue  # null leaves the default in place, like an omitted flag
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[types[key]]):
                raise ConfigError(f"config field {key!r} must be {types[key]}, got {value!r}")
            if types[key] == "float":
                try:
                    value = float(value)
                except OverflowError:
                    raise ConfigError(f"config field {key!r} is out of range") from None
            setattr(config, key, value)

    group = getattr(args, "group", None)
    action = getattr(args, "action", None)
    if group == "verify":
        config.command = "verify"
    elif group and action:
        config.command = f"{group}-{action}"
    elif config.command is None:
        raise ConfigError("no command given (and none found in the config file)")

    for field in dataclasses.fields(ExperimentConfig):
        if hasattr(args, field.name) and getattr(args, field.name) is not None:
            setattr(config, field.name, getattr(args, field.name))
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
