"""Seeded, single-process, closed-loop benchmark of simplexwalk.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (see workloads.py): detect, sweep, evolve, verify.  One client
sends the next op as soon as the previous one returns, cycling over whole
rounds of the seeded op list until ``--seconds`` have passed.  Every op's
result is checked against its pinned tolerance.

``--trace 0`` prints the end-to-end metrics.  Op times and set-up time are
scaled to a reference machine speed, measured by a fixed probe that calls
nothing in simplexwalk and runs between every two ops; the unscaled values
are in the metadata line.  ``--trace 1`` is a separate run that executes
each op twice, once plain and once with spans around the calls into every
module (tracing.py), alternating which goes first; it prints the per-layer
metrics, in unscaled seconds, and the tracing overhead of the traced runs
over the plain ones.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  ``correct`` is false when an
op returned a result outside its tolerance or raised.  After the timed
phase, each input of the workload that hits a known library defect runs
once, untimed and outside attempted and failed, and is reported as present
or fixed; it makes the run incorrect only if it fails in another way.
"""

import os

# Pin BLAS to one thread before numpy is imported, here or in any child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import bisect  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("detect", "sweep", "evolve", "verify")
SETUP_SAMPLES = 5
# Timings are scaled to the speed at which the probe below takes this long.
# A shared machine's speed drifts by 20-30% within seconds and between
# minutes; the probe, run between every two ops, measures that drift and
# the scaling removes most of it.
PROBE_REF_S = 0.002
PROBE_DIM = 48
PROBE_SETUP_RUNS = 7
PROBE_WINDOW_S = 0.25
CHILD_TIMEOUT_S = 120

# (name, unit); rows_per_s applies to sweep only and error_rate repeats
# failed / attempted, so neither is one of the gated metrics of the last line.
GATED = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
         ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
REPORTED = GATED + (("error_rate", "fraction"), ("rows_per_s", "rows/s"))


@dataclasses.dataclass
class Outcome:
    latency: float
    ok: bool
    wrong: str = None   # why the run is incorrect, if this op makes it so
    rows: int = 0


def set_up(workload: str, seed: int, work_dir: str):
    """Import the library, build the op list and run one warm-up op;
    returns the workload, its module and the seconds this took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import simplexwalk

    if not Path(simplexwalk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"simplexwalk was imported from {simplexwalk.__file__}, not {SRC}")
    import workloads

    wl = workloads.BUILD[workload](seed, work_dir)
    warm = run_op(wl.warmup, workloads)
    if not warm.ok:
        raise SystemExit(f"warm-up op failed: {warm.wrong}")
    return wl, workloads, time.perf_counter() - t0


def run_op(op, workloads, tracer=None) -> Outcome:
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # every failure is counted, none stops the run
        name = type(exc).__name__
        return failure(op, time.perf_counter() - t0, name, f"{name}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    latency = time.perf_counter() - t0
    try:
        rows = op.check(result)
    except workloads.WrongResult as exc:
        return failure(op, latency, exc.what, str(exc))
    return Outcome(latency, ok=True, rows=rows)


def failure(op, latency: float, name: str, detail: str) -> Outcome:
    if name == op.known_defect:
        return Outcome(latency, ok=False)
    return Outcome(latency, ok=False, wrong=f"{detail} in {op.params}")


def closed_loop(wl, seconds: float, step) -> None:
    """Call ``step(op)`` for every op of whole rounds until ``seconds``
    have passed, cycling over the op list."""
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        for op in wl.rounds[r % len(wl.rounds)]:
            step(op)
        r += 1
        if time.perf_counter() >= deadline:
            return


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics; a failed op counts
    as +inf, so a rank that touches one is infinite."""
    v = sorted(values)
    h = (len(v) - 1) * q
    lo, hi = math.floor(h), math.ceil(h)
    if math.isinf(v[hi]):
        return math.inf
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def scaled_setup(raw_s: float) -> tuple:
    """(scaled, raw) set-up seconds, scaled by probes run right after."""
    probe = make_probe()
    return raw_s * speed_scale([probe() for _ in range(PROBE_SETUP_RUNS)]), raw_s


def setup_children(args) -> list:
    """(scaled, raw) set-up seconds of fresh child processes, each of which
    imports, builds and warms up from scratch."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(tuple(json.loads(proc.stdout.splitlines()[-1])["setup_s"]))
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "simplexwalk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def metadata(args, wl, outcomes, extra) -> dict:
    import numpy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_list_sha256": wl.digest(),
        "op_list_length": wl.op_count,
        "ops_run": len(outcomes),
        "percentiles": {"p50": {"samples": len(outcomes)},
                        "p90": {"samples": len(outcomes),
                                "beyond": len(outcomes) - math.ceil(0.9 * len(outcomes))}},
        "succeeded": sum(1 for o in outcomes if o.ok),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        **extra,
    }


def summarize(outcomes) -> tuple:
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    wrong = [o.wrong for o in outcomes if o.wrong]
    return attempted, failed, wrong


def make_probe():
    """A fixed calibration kernel that calls nothing in simplexwalk: dict,
    tuple and big-integer work like the library's index bookkeeping, plus a
    small complex eigh.  Returns a function that runs it once and returns
    its seconds."""
    import numpy

    a = numpy.random.default_rng(0).standard_normal((2, PROBE_DIM, PROBE_DIM))
    m = a[0] + 1j * a[1]
    m = m + m.conj().T

    def probe() -> float:
        t0 = time.perf_counter()
        table = {}
        for i in range(2000):
            key = (i % 17, i % 29, i % 3)
            table[key] = table.get(key, 0) + math.factorial(i % 60) // math.factorial(i % 30)
        vals, vecs = numpy.linalg.eigh(m)
        vecs @ numpy.exp(-1j * vals)
        return time.perf_counter() - t0

    return probe


def speed_scale(probe_times) -> float:
    """Factor that turns seconds measured while the probe took
    ``probe_times`` into seconds at the reference speed."""
    return PROBE_REF_S / statistics.median(probe_times)


def run_plain(args, wl, workloads, setup_s) -> tuple:
    probe = make_probe()
    outcomes, starts, probes, probed_at = [], [], [], []

    def run_probe():
        probed_at.append(time.perf_counter())
        probes.append(probe())

    def step(op):
        starts.append(time.perf_counter())
        outcomes.append(run_op(op, workloads))
        run_probe()

    run_probe()

    closed_loop(wl, args.seconds, step)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = [setup_s] + setup_children(args)
    attempted, failed, wrong = summarize(outcomes)
    # scale each op by the probes run just before and after it and within
    # PROBE_WINDOW_S of its midpoint: the speed of a shared machine changes
    # within seconds, so only nearby probes track it
    scaled = []
    for i, o in enumerate(outcomes):
        mid = starts[i] + o.latency / 2
        lo = min(i, bisect.bisect_left(probed_at, mid - PROBE_WINDOW_S))
        hi = max(i + 2, bisect.bisect_right(probed_at, mid + PROBE_WINDOW_S))
        scaled.append(o.latency * speed_scale(probes[lo:hi]))
    busy = sum(scaled)
    lat_ms = [1e3 * t if o.ok else math.inf for o, t in zip(outcomes, scaled)]
    values = {
        "setup_s": statistics.median(t for t, _ in setup),
        "ops_per_s": (attempted - failed) / busy,
        "op_p50_ms": percentile(lat_ms, 0.5),
        "op_p90_ms": percentile(lat_ms, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / attempted,
        "rows_per_s": sum(o.rows for o in outcomes) / busy if wl.name == "sweep" else None,
    }
    for name, unit in REPORTED:
        if values[name] is not None:
            print(f"{wl.name} {name} = {values[name]!r} {unit}")
    raw_busy = sum(o.latency for o in outcomes)
    raw_ms = [1e3 * o.latency if o.ok else math.inf for o in outcomes]
    meta = metadata(args, wl, outcomes, {
        "probe_ref_s": PROBE_REF_S,
        "probe_median_s": statistics.median(probes),
        "setup_samples": [{"scaled_s": t, "raw_s": raw} for t, raw in setup],
        "unscaled": {"ops_per_s": (attempted - failed) / raw_busy,
                     "op_p50_ms": _finite(percentile(raw_ms, 0.5)),
                     "op_p90_ms": _finite(percentile(raw_ms, 0.9)),
                     "busy_s": raw_busy},
    })
    metrics = {name: {"value": _finite(values[name]), "unit": unit} for name, unit in GATED}
    return outcomes, meta, metrics


def check_known_defects(wl, workloads) -> tuple:
    """Run each known-defect input once, untimed; returns a report per input
    and the lines that make the run incorrect."""
    report, wrong = [], []
    for op in wl.known_defects:
        o = run_op(op, workloads)
        status = "fixed" if o.ok else "wrong" if o.wrong else "present"
        print(f"{wl.name} known defect {op.known_defect} {status}: {json.dumps(op.params)}")
        report.append({"params": op.params, "defect": op.known_defect, "status": status})
        if o.wrong:
            wrong.append(o.wrong)
    return report, wrong


def run_traced(args, wl, workloads) -> tuple:
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []

    def step(op):
        first_traced = len(traced) % 2 == 1
        for use in (first_traced, not first_traced):
            if use:
                traced.append(run_op(op, workloads, tracer))
            else:
                plain.append(run_op(op, workloads))

    closed_loop(wl, args.seconds, step)
    overhead = sum(o.latency for o in traced) / sum(o.latency for o in plain) - 1.0
    spans_path = OUT_DIR / f"spans-{wl.name}.npz"
    tracer.write(spans_path)
    metrics = tracer.metrics(overhead)
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']!r} {m['unit']}")
    meta = metadata(args, wl, traced, {
        "spans": tracer.span_count,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_s": sum(o.latency for o in plain),
        "traced_s": sum(o.latency for o in traced),
        "missing_targets": tracer.missing,
        "per_layer_moves": {name: moves for name, _, _, moves in tracing.PER_LAYER},
    })
    return plain + traced, meta, metrics


def _finite(x):
    # JSON has no infinity: a percentile that lands on a failed op is null
    return None if math.isinf(x) else x


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "simplexwalk" / "__init__.py").is_file():
        print(f"error: no simplexwalk sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        wl, workloads, setup_raw_s = set_up(args.workload, args.seed, work_dir)
        setup_s = scaled_setup(setup_raw_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            outcomes, meta, metrics = run_traced(args, wl, workloads)
        else:
            outcomes, meta, metrics = run_plain(args, wl, workloads, setup_s)
        meta["known_defects"], defects_wrong = check_known_defects(wl, workloads)
    attempted, failed, wrong = summarize(outcomes)
    wrong += defects_wrong
    for line in wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
