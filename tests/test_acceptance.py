"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured residual and pinned tolerance."""

import math
import time

import numpy as np

from simplexwalk import (
    amplitudes,
    bivariate_orthogonality_residual,
    bivariate_recurrence_residual,
    canonical_ngon_weights,
    cascade_residual,
    directed_ngon,
    enumerate_indices,
    evolve_projected,
    krawtchouk_series,
    krawtchouk_table,
    ordered_word_scheme,
    orthogonality_residual,
    ow_fr_scenario,
    params_from_scheme,
    projected_matrix,
    trivial_scheme_2,
    validate_scheme,
    walk_spec,
)
from simplexwalk.oracle import (
    _oracle_specs,
    compare_amplitudes,
    golden_bmatrix_residual,
    ngon_spectrum_residual,
)


def report(number, name, residual, tolerance):
    status = "PASS" if residual <= tolerance else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} "
          f"(residual {residual:.3e}, tolerance {tolerance:.0e})")
    assert residual <= tolerance


def test_01_golden_projected_matrix():
    start = time.perf_counter()
    residual = golden_bmatrix_residual()
    elapsed = time.perf_counter() - start
    report(1, "golden-10x10-projected-matrix", residual, 1e-12)
    assert elapsed < 1.0


def test_02_mpst_bijection():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for N in (1, 2, 3):
            spec = walk_spec(directed_ngon(n), N, canonical_ngon_weights(n))
            arrivals = []
            for k in range(1, n):
                prof = amplitudes(spec, 2.0 * math.pi * k / n)
                ranked = max(prof.class_probabilities.items(), key=lambda kv: kv[1])
                beta, q = ranked
                worst = max(worst, 1.0 - q)
                assert max(beta) == N and sum(beta) == N  # extreme class
                arrivals.append(beta)
            expected = {tuple(N if j == i else 0 for j in range(n)) for i in range(1, n)}
            assert set(arrivals) == expected
            assert len(set(arrivals)) == n - 1
    elapsed = time.perf_counter() - start
    report(2, "mpst-arrival-bijection", worst, 1e-9)
    assert elapsed < 5.0


def test_03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20250811)
    worst = 0.0
    cases = _oracle_specs()
    assert len(cases) == 12
    for _, spec in cases:
        times = rng.uniform(0.0, 8.0, size=20)
        worst = max(worst, compare_amplitudes(spec, times).max_error)
    elapsed = time.perf_counter() - start
    report(3, "oracle-equivalence", worst, 1e-9)
    assert elapsed < 30.0


def test_04_krawtchouk_identities():
    start = time.perf_counter()
    worst = 0.0
    for scheme in (trivial_scheme_2(), directed_ngon(3), ordered_word_scheme(2)):
        for N in range(0, 5):
            table = krawtchouk_table(N, scheme.cosine)
            for nt in enumerate_indices(N, scheme.d):
                for n in enumerate_indices(N, scheme.d):
                    series = krawtchouk_series(n, nt, N, scheme.cosine)
                    worst = max(worst, abs(series - table[nt][n]))
        gp = params_from_scheme(scheme)
        for N in range(0, 5):
            worst = max(worst, orthogonality_residual(gp, N))
    for N in range(1, 5):
        worst = max(worst, bivariate_orthogonality_residual(N))
    elapsed = time.perf_counter() - start
    report(4, "krawtchouk-identities", worst, 1e-10)
    assert elapsed < 20.0


def test_05_bivariate_recurrence():
    worst = max(bivariate_recurrence_residual(N) for N in range(1, 5))
    report(5, "orthonormal-bivariate-recurrence", worst, 1e-9)


def test_06_hypercube_pst():
    worst = 0.0
    for N in range(1, 7):
        spec = walk_spec(trivial_scheme_2(), N, [1.0])
        prof = amplitudes(spec, math.pi / 2.0)
        worst = max(worst, 1.0 - prof.class_probabilities[(0, N)])
        pm = projected_matrix(spec)
        for start in pm.order:
            state = evolve_projected(pm, math.pi / 2.0, start)
            arrival = pm.order.index((start[1], start[0]))
            worst = max(worst, 1.0 - abs(state[arrival]))
    report(6, "hypercube-antipodal-and-conjugated-pst", worst, 1e-9)


def test_07_ow_fractional_revival():
    d, N = 3, 5
    worst = 0.0
    for k in (1, 2, 3):
        scenario = ow_fr_scenario(d, N, k)
        t_star, _, support = scenario.expected_events[0]
        prof = amplitudes(scenario.spec, t_star)
        leak = sum(q for beta, q in prof.class_probabilities.items() if beta not in support)
        worst = max(worst, leak)
        assert cascade_residual(scenario.spec, [t_star]) == 0.0
    report(7, "ordered-word-subsimplex-revival", worst, 1e-8)


def test_08_integral_spectrum():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for N in (1, 2, 3):
            worst = max(worst, ngon_spectrum_residual(n, N))
            spec = walk_spec(directed_ngon(n), N, canonical_ngon_weights(n))
            vals = np.linalg.eigvalsh(projected_matrix(spec).entries)
            diffs = vals[:, None] - vals[None, :]
            worst = max(worst, float(np.abs(diffs - np.round(diffs)).max()))
    report(8, "projected-spectrum-integral-differences-and-shift", worst, 1e-9)


def test_09_normalization():
    rng = np.random.default_rng(99)
    specs = [
        walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3)),
        walk_spec(trivial_scheme_2(), 4, [1.0]),
        ow_fr_scenario(3, 3, 2).spec,
    ]
    worst = 0.0
    for spec in specs:
        for t in rng.uniform(0.0, 12.0, size=50):
            worst = max(worst, abs(amplitudes(spec, t).total_probability() - 1.0))
    report(9, "profile-normalization", worst, 1e-10)


def test_10_scheme_axioms_exact():
    worst = 0.0
    exact_names = {
        "identity-class",
        "partition-of-ones",
        "transpose-closure",
        "commuting-integer-products",
    }
    schemes = [trivial_scheme_2()]
    schemes += [directed_ngon(n) for n in range(1, 8)]
    schemes += [ordered_word_scheme(d) for d in range(1, 5)]
    for scheme in schemes:
        rep = validate_scheme(scheme)
        assert rep.ok
        for check in rep.checks:
            if check.name in exact_names:
                assert check.residual == 0.0
            else:
                worst = max(worst, check.residual)
    report(10, "scheme-axioms-exact", worst, 1e-10)
