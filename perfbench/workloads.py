"""Seeded op lists for the four benchmark workloads.

Every workload is a list of rounds.  A round holds a fixed number of ops
from each cost tier of the workload; the seed picks the parameters inside
each tier and the order within the round.  A run always completes whole
rounds, so every run executes the same mix of tiers whatever its seed,
which keeps throughput and percentiles comparable from seed to seed.

Ops call the library through module attributes (``detect.scan``, not a
name bound at import) so that a traced run can wrap them in place.

No op of a round fails at the parent commit.  Inputs that hit a known
library defect are kept out of the rounds and listed instead in a
workload's ``known_defects``: the runner executes each of those once per
run, untimed, and reports whether the defect is still there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
from typing import Callable

import numpy as np

from simplexwalk import cli, detect, krawtchouk, oracle, schemes, walk

ROUNDS = 64

# Tolerances the repository pins for these comparisons; never looser.
PROB_SUM_TOL = 1e-9      # walk amplitudes: class probabilities sum to one
EVOLVE_TOL = 1e-9        # evolve_projected against the product formula
KRAWTCHOUK_TOL = 1e-10   # generating function against the hypergeometric sum
ORACLE_TOL = 1e-9        # dense oracle against the closed form

TWO_PI = 2.0 * math.pi
UNDERFLOW_N = 976
OVERFLOW_N = 1024
HALF_PI = 0.5 * math.pi


class WrongResult(Exception):
    """An op returned a result outside its pinned tolerance; ``what`` names
    the check that failed."""

    def __init__(self, what: str, detail: str):
        super().__init__(detail)
        self.what = what


@dataclasses.dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    ``params`` is a JSON-ready description hashed into the op-list digest;
    ``call`` does the library work that is timed; ``check`` verifies its
    result, raising WrongResult, and returns the number of output rows it
    verified.  ``known_defect`` names the failure, an exception class or a
    WrongResult check, that a known library defect causes on this op; such a
    failure is reported but does not make the run incorrect.
    """

    params: dict
    call: Callable[[], object]
    check: Callable[[object], int]
    known_defect: str = None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    rounds: tuple
    warmup: Op
    known_defects: tuple = ()

    def digest(self) -> str:
        payload = json.dumps([[op.params for op in r] for r in self.rounds], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def op_count(self) -> int:
        return sum(len(r) for r in self.rounds)


def _classes(N: int, d: int) -> int:
    return math.comb(N + d, d)


def _rounds(rng: random.Random, tiers, make) -> tuple:
    """``tiers`` is a list of (ops per round, candidate parameter tuples).

    The candidates of a tier cost about the same, so the seed changes the
    op list but hardly the cost of a round.  Tier sizes put the median and
    the p90 rank inside a tier, not on the cost gap between two tiers.
    ``make(rng, candidate, u)`` gets ``u`` in [0, 1) stratified over the ops
    of the tier, for the one size parameter that the cost depends on.
    """
    rounds = []
    for _ in range(ROUNDS):
        ops = [make(rng, rng.choice(cands), (i + rng.random()) / count)
               for count, cands in tiers for i in range(count)]
        rng.shuffle(ops)
        rounds.append(tuple(ops))
    return tuple(rounds)


# -- detect: one scan per op --------------------------------------------------

# Scenarios are (kind, args); the comments give the mean scan time on a
# 2-core x86 box at the parent commit.  A run holds more than 100 scans;
# the last tier, the scans over the most classes, sets op_p90_ms.  Its
# hypercube scans cost about the same whatever the grid, unlike ngon-3 at
# N=3 or ngon-4 at N=2, which would make the p90 swing with the seed.
# ow_fr_scenario cases whose expected revival covers more than half of the
# classes, such as (3, 2, 3) and (3, 1, 3), are left out: scan drops those
# by design (max_support_fraction=0.5).  ngon scenarios at N = 1 are known
# defects: scan misses transfers that fall between the points of a coarse
# grid (about 55 steps or fewer over 2*pi), so they are only probed.
DETECT_TIERS = [
    (2, [("ngon", 2, 2), ("hypercube", 2), ("ow", 3, 1, 2)]),               # 0.04 s
    (3, [("ngon", 2, 3), ("hypercube", 4), ("ow", 2, 2, 2)]),               # 0.09 s
    (4, [("ngon", 2, 4), ("hypercube", 5), ("ow", 2, 2, 1)]),               # 0.13 s
    (2, [("ngon", 2, 5), ("ngon", 3, 2), ("hypercube", 7), ("hypercube", 8),
         ("ow", 2, 3, 2), ("ow", 3, 2, 2)]),                                # 0.25 s
    (2, [("hypercube", 11), ("hypercube", 12)]),                            # 0.45 s
]
DETECT_WARMUP = ("ngon", 2, 2)
DETECT_DEFECTS = [("ngon", 3, 1), ("ngon", 4, 1)]


def _scenario(key, cache):
    if key not in cache:
        kind, *args = key
        make = {
            "ngon": detect.ngon_mpst_scenario,
            "hypercube": detect.hypercube_pst_scenario,
            "ow": detect.ow_fr_scenario,
        }[kind]
        cache[key] = make(*args)
    return cache[key]


def _detect_op(rng, key, u, cache, stretch=None) -> Op:
    scenario = _scenario(key, cache)
    last = max(t for t, _, _ in scenario.expected_events)
    t_max = last * (stretch or rng.uniform(1.05, 1.25))
    steps = 40 + int(81 * u)
    grid = np.linspace(0.0, t_max, steps)
    spacing = t_max / (steps - 1)

    def check(events) -> int:
        for t, kind, support in scenario.expected_events:
            # expected supports are in canonical (descending) order and
            # TransferEvent.support is ascending: compare as sets
            if not any(ev.kind == kind and set(ev.support) == set(support)
                       and abs(ev.time - t) <= spacing for ev in events):
                raise WrongResult("events", f"{scenario.label}: no {kind} at t={t:.6g} "
                                            f"among {len(events)} events")
        return steps

    return Op(
        params={"scenario": list(key), "t_max": t_max, "steps": steps},
        call=lambda: detect.scan(scenario.spec, grid),
        check=check,
    )


def build_detect(seed: int, work_dir: str) -> Workload:
    cache = {}
    rounds = _rounds(random.Random(seed), DETECT_TIERS,
                     lambda r, k, u: _detect_op(r, k, u, cache))
    warmup = _detect_op(random.Random(0), DETECT_WARMUP, 0.5, cache)
    # 40 steps over 1.05 times the last event: a grid on which both miss
    defects = tuple(dataclasses.replace(_detect_op(None, key, 0.0, cache, stretch=1.05),
                                        known_defect="events") for key in DETECT_DEFECTS)
    return Workload("detect", seed, rounds, warmup, defects)


# -- sweep: one in-process `walk amplitudes` CLI run per op -------------------

# (kind, size, copies range, rows per op).  Steps follow from the row
# target so that op cost tracks rows, not the class count.  Two known
# defects of walk.amplitudes on trivial2, both from evaluating 2**-N and
# the powers p_k**beta_k in linear floating point, fail at the parent
# commit: from N = 976 class probabilities underflow at some times and no
# longer sum to one, and from N = 1024 float(2)**N overflows (cli.main lets
# the OverflowError escape).  Those sizes are only probed (SWEEP_DEFECTS);
# the rounds' trivial2 sweeps stay below them.
SWEEP_TIERS = [
    (10, [("ngon", 3, (10, 20), 1200), ("ngon", 5, (4, 6), 1200),
         ("ow", 3, (4, 8), 1200), ("ow", 4, (4, 6), 1200)]),
    (6, [("ngon", 3, (10, 20), 2400), ("ngon", 5, (4, 8), 2400),
         ("ow", 3, (4, 8), 2400), ("ow", 4, (4, 6), 2400)]),
    (5, [("ngon", 3, (30, 40), 4800), ("ngon", 5, (6, 8), 4800), ("ow", 4, (5, 7), 4800)]),
    (6, [("trivial2", 2, (930, 950), 1500)]),
]
SWEEP_WARMUP = ("ngon", 3, (10, 10), 600)
# 15 steps at N = 1000 include times at which the probabilities underflow
SWEEP_DEFECTS = [("trivial2", 2, (1000, 1000), 15000),
                 ("trivial2", 2, (OVERFLOW_N, OVERFLOW_N), 1500)]


def _sweep_op(rng, tier, u, work_dir, counter) -> Op:
    kind, size, (lo, hi), rows_target = tier
    N = lo + int((hi - lo + 1) * u)
    d = size - 1 if kind != "ow" else size
    classes = _classes(N, d)
    steps = max(2, round(rows_target / classes))
    t_min = rng.uniform(0.0, 1.0)
    t_max = t_min + rng.uniform(2.0, TWO_PI)
    argv = ["walk", "amplitudes", "--scheme", kind, "--N", str(N)]
    if kind == "ngon":
        argv += ["--n", str(size), "--weights", "canonical"]
    elif kind == "ow":
        targets = [TWO_PI if l <= d // 2 else rng.uniform(0.5, TWO_PI) for l in range(1, d + 1)]
        argv += ["--d", str(size), "--solve-targets", ",".join(repr(x) for x in targets),
                 "--solve-time", repr(HALF_PI)]
    counter[0] += 1
    out = os.path.join(work_dir, f"sweep-{counter[0]}.csv")
    argv += ["--t-min", repr(t_min), "--t-max", repr(t_max), "--steps", str(steps), "--out", out]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(rc) -> int:
        if rc != 0:
            raise WrongResult("exit_code", f"exit code {rc}")
        with open(out) as fh:
            header = fh.readline().rstrip("\n")
            lines = fh.read().splitlines()
        os.remove(out)
        if header != "t,beta,re,im,prob":
            raise WrongResult("header", f"bad header {header!r}")
        if len(lines) != steps * classes:
            raise WrongResult("rows", f"{len(lines)} rows, expected {steps} x {classes}")
        sums = {}
        for line in lines:
            t, _, _, _, prob = line.split(",")
            sums[t] = sums.get(t, 0.0) + float(prob)
        if len(sums) != steps:
            raise WrongResult("rows", f"{len(sums)} distinct times, expected {steps}")
        worst = max(abs(s - 1.0) for s in sums.values())
        if worst > PROB_SUM_TOL:
            raise WrongResult("prob_sum", f"probabilities sum off by {worst:.3e}")
        return len(lines)

    known_defect = None
    if kind == "trivial2" and N >= OVERFLOW_N:
        known_defect = "OverflowError"
    elif kind == "trivial2" and N >= UNDERFLOW_N:
        known_defect = "prob_sum"
    return Op(params={"argv": argv[:-1]}, call=call, check=check, known_defect=known_defect)


def build_sweep(seed: int, work_dir: str) -> Workload:
    counter = [0]
    rounds = _rounds(random.Random(seed), SWEEP_TIERS,
                     lambda r, t, u: _sweep_op(r, t, u, work_dir, counter))
    warmup = _sweep_op(random.Random(0), SWEEP_WARMUP, 0.5, work_dir, counter)
    defects = tuple(_sweep_op(random.Random(0), tier, 0.0, work_dir, counter)
                    for tier in SWEEP_DEFECTS)
    return Workload("sweep", seed, rounds, warmup, defects)


# -- evolve: projected matrix, its evolution, and one Krawtchouk value --------

# (kind, size, copies), grouped by the dimension D of the projected
# matrix; in the largest tier (D 286-330) dense eigh dominates.  Larger D
# (about 460) made op_p90_ms swing by 10-12% from run to run on a shared
# 2-core box, as its eigh slows down more than the speed probe does.
EVOLVE_TIERS = [
    (2, [("ngon", 3, 8), ("ngon", 3, 9), ("ngon", 4, 5), ("ngon", 5, 3), ("ow", 3, 4),
         ("ow", 3, 5)]),                                                    # D 35-56
    (3, [("ngon", 3, 14), ("ngon", 3, 15), ("ngon", 4, 7), ("ngon", 5, 5),
         ("ow", 3, 7)]),                                                    # D 120-136
    (1, [("ngon", 3, 19), ("ngon", 3, 20), ("ngon", 4, 9), ("ngon", 5, 6),
         ("ow", 3, 9)]),                                                    # D 210-231
    (2, [("ngon", 3, 23), ("ngon", 4, 10), ("ngon", 5, 7), ("ow", 3, 10)]),  # D 286-330
]
EVOLVE_WARMUP = ("ngon", 3, 8)
OW_TARGETS = (TWO_PI, TWO_PI, HALF_PI)


def _evolve_spec(key, cache):
    if key not in cache:
        kind, size, N = key
        if kind == "ngon":
            cache[key] = walk.walk_spec(schemes.directed_ngon(size), N,
                                        walk.canonical_ngon_weights(size))
        else:
            scheme = schemes.ordered_word_scheme(size)
            sol = walk.solve_weights(scheme, HALF_PI, OW_TARGETS)
            cache[key] = walk.walk_spec(scheme, N, sol.weights)
    return cache[key]


def _evolve_op(rng, key, cache) -> Op:
    spec = _evolve_spec(key, cache)
    d = spec.base.d
    t = rng.uniform(0.1, TWO_PI)
    start = (spec.copies,) + (0,) * d
    nk = rng.randint(3, 6)
    n_tilde = tuple(rng.choice(_compositions(nk, d)))
    n = tuple(rng.choice(_compositions(nk, d)))
    U = spec.base.cosine

    def call():
        pm = walk.projected_matrix(spec)
        state = walk.evolve_projected(pm, t, start)
        profile = walk.amplitudes(spec, t)
        table = krawtchouk.krawtchouk_genfun(n_tilde, nk, U)
        return pm.order, state, profile, table[n], krawtchouk.krawtchouk_series(n, n_tilde, nk, U)

    def check(result) -> int:
        order, state, profile, genfun, series = result
        if len(order) != _classes(spec.copies, d):
            raise WrongResult("rows", f"projected matrix has {len(order)} rows")
        expected = np.array([profile.site_amplitudes[b] for b in order])
        err = float(np.abs(state - expected).max())
        if not err <= EVOLVE_TOL:
            raise WrongResult("evolve", f"evolve_projected off by {err:.3e}")
        kerr = abs(genfun - series)
        if not kerr <= KRAWTCHOUK_TOL:
            raise WrongResult("krawtchouk", f"krawtchouk genfun and series differ by {kerr:.3e}")
        return len(order)

    return Op(
        params={"spec": list(key), "t": t, "krawtchouk": [nk, list(n_tilde), list(n)]},
        call=call,
        check=check,
    )


def _compositions(N: int, d: int) -> list:
    """Compositions of N into d+1 parts, built here so that the op list does
    not depend on the library's enumeration."""
    if d == 0:
        return [(N,)]
    return [(a,) + rest for a in range(N, -1, -1) for rest in _compositions(N - a, d - 1)]


def build_evolve(seed: int, work_dir: str) -> Workload:
    cache = {}
    rounds = _rounds(random.Random(seed), EVOLVE_TIERS, lambda r, k, u: _evolve_op(r, k, cache))
    warmup = _evolve_op(random.Random(0), EVOLVE_WARMUP, cache)
    return Workload("evolve", seed, rounds, warmup)


# -- verify: scheme axioms, dense oracle comparisons, verification suites -----

# ("ngon", n) and ("ow", d) build and validate a scheme; ("compare", kind,
# size, N) runs the dense oracle on at most 256 rows; ("suite", name) runs
# one verification suite.
VERIFY_TIERS = [
    (4, [("ngon", n) for n in range(3, 9)] + [("ow", d) for d in range(2, 6)]
     + [("suite", "bmatrix"), ("compare", "ow", 3, 2)]),                   # 2-15 ms
    (3, [("ngon", 12), ("ngon", 13), ("suite", "axioms"),
         ("compare", "ngon", 3, 4)]),                                       # 30 ms
    (2, [("ngon", 23), ("ngon", 24), ("suite", "krawtchouk"), ("compare", "ngon", 3, 5),
         ("compare", "ngon", 4, 4)]),                                       # 0.2-0.3 s
    (2, [("ngon", 31), ("ngon", 32), ("ow", 7)]),                          # 0.6 s
]
VERIFY_WARMUP = ("ngon", 4)
COMPARE_TIMES = 4
OW_COMPARE_WEIGHTS = (0.7, -0.3, 0.25)


def _compare_spec(key, cache):
    if key not in cache:
        _, kind, size, N = key
        if kind == "ngon":
            spec = walk.walk_spec(schemes.directed_ngon(size), N, walk.canonical_ngon_weights(size))
        elif kind == "ow":
            spec = walk.walk_spec(schemes.ordered_word_scheme(size), N, OW_COMPARE_WEIGHTS)
        else:
            spec = walk.walk_spec(schemes.trivial_scheme_2(), N, [1.0])
        cache[key] = spec
    return cache[key]


def _verify_op(rng, key, cache) -> Op:
    kind = key[0]
    if kind in ("ngon", "ow"):
        constructor = "directed_ngon" if kind == "ngon" else "ordered_word_scheme"
        size = key[1]
        points = size if kind == "ngon" else 2 ** size

        def call():
            scheme = getattr(schemes, constructor)(size)
            return scheme, schemes.validate_scheme(scheme)

        def check(result) -> int:
            scheme, report = result
            if scheme.size != points or not report.ok:
                raise WrongResult("validation", f"{kind}({size}) failed validation:\n{report}")
            return len(report.checks)

        return Op(params={"validate": list(key)}, call=call, check=check)

    if kind == "compare":
        spec = _compare_spec(key, cache)
        times = [rng.uniform(0.0, 8.0) for _ in range(COMPARE_TIMES)]

        def check(report) -> int:
            if len(report.times) != len(times) or not report.max_error <= ORACLE_TOL:
                raise WrongResult("oracle", f"oracle max error {report.max_error:.3e}")
            return len(times)

        return Op(
            params={"compare": list(key), "times": times},
            call=lambda: oracle.compare_amplitudes(spec, times),
            check=check,
        )

    suite = key[1]

    def check_suite(report) -> int:
        if not report["checks"] or not report["passed"]:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            raise WrongResult("suite", f"suite {suite} failed: {failed}")
        return len(report["checks"])

    return Op(params={"suite": suite}, call=lambda: oracle.run_suite(suite), check=check_suite)


def build_verify(seed: int, work_dir: str) -> Workload:
    cache = {}
    rounds = _rounds(random.Random(seed), VERIFY_TIERS, lambda r, k, u: _verify_op(r, k, cache))
    warmup = _verify_op(random.Random(0), VERIFY_WARMUP, cache)
    return Workload("verify", seed, rounds, warmup)


BUILD = {
    "detect": build_detect,
    "sweep": build_sweep,
    "evolve": build_evolve,
    "verify": build_verify,
}
