"""Self-check of the benchmark; run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that the same seed yields the same op list and a different seed a
different one, that BENCHMARK.json names exactly the metrics the benchmark
emits, and that a short run of every workload, plain and traced, is correct,
has no failed op and emits every end-to-end and per-layer metric with its
unit.  Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import tracing  # noqa: E402
import workloads  # noqa: E402


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def check_op_lists(work_dir: str) -> None:
    for name, build in workloads.BUILD.items():
        a = build(7, work_dir).digest()
        b = build(7, work_dir).digest()
        c = build(8, work_dir).digest()
        if a != b:
            fail(f"{name}: seed 7 built two different op lists")
        if a == c:
            fail(f"{name}: seeds 7 and 8 built the same op list")
        print(f"ok   {name}: op list is a function of the seed ({a[:12]})")


def check_declared() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(run.GATED):
        fail(f"BENCHMARK.json end_to_end {declared} != run.GATED {list(run.GATED)}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    emitted = [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]
    if declared != emitted:
        fail("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    if not names == list(workloads.BUILD) == list(run.WORKLOADS):
        fail("BENCHMARK.json, workloads.BUILD and run.WORKLOADS name different workloads")
    print("ok   BENCHMARK.json matches the metrics and workloads in the code")
    return spec


def check_runs(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.BUILD:
            cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{name} --trace {trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                fail(f"{name} --trace {trace}: correct={result['correct']}, "
                     f"{result['failed']} failed:\n{proc.stderr}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                fail(f"{name} --trace {trace}: metrics {sorted(got)} != {sorted(want)}")
            print(f"ok   {name} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as work_dir:
        check_op_lists(work_dir)
    check_runs(check_declared())
    return 0


if __name__ == "__main__":
    sys.exit(main())
