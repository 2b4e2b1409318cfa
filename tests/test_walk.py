import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    WalkSpec,
    amplitudes,
    bivariate_recurrence_residual,
    canonical_ngon_weights,
    class_valency,
    directed_ngon,
    eigenvalue_lambda,
    enumerate_indices,
    evolve_projected,
    extension_scheme,
    multinomial,
    ordered_word_scheme,
    projected_matrix,
    site_factors,
    solve_weights,
    trivial_scheme_2,
    walk_spec,
    z_factors,
)
from simplexwalk import extension, oracle, walk
from simplexwalk.oracle import GOLDEN_BM3_W1, GOLDEN_BM3_W2


def canonical_spec(n, N):
    return walk_spec(directed_ngon(n), N, canonical_ngon_weights(n))


def test_canonical_weights_hermitian_exactly():
    for n in range(2, 8):
        w = canonical_ngon_weights(n)
        scheme = directed_ngon(n)
        for i in range(1, n):
            assert w[scheme.transpose_map[i] - 1] == np.conj(w[i - 1])


def test_weight_count_checked():
    with pytest.raises(ValueError):
        walk_spec(directed_ngon(3), 2, [1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, float("-inf"))])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        walk_spec(directed_ngon(3), 2, [1.0, bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_rejected(bad):
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="finite"):
        amplitudes(spec, bad)
    with pytest.raises(ValueError, match="finite"):
        evolve_projected(projected_matrix(spec), bad, (2, 0, 0))
    with pytest.raises(ValueError, match="t must be finite"):
        site_factors(spec, bad)
    with pytest.raises(ValueError, match="t must be finite"):
        z_factors(spec, np.float64(bad))


@pytest.mark.parametrize("t", [0.5 + 0j, 1j, np.complex128(0.5), True, "0.1", [0.1, 0.2], np.zeros(2)],
                         ids=["complex", "imaginary", "numpy-complex", "bool", "str", "list", "array"])
def test_amplitudes_take_one_real_time(t):
    # the rule of scan's time grids, applied to the one time
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="one-dimensional sequence of real numbers"):
            amplitudes(spec, t)


def test_amplitudes_take_integer_times_as_floats():
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    assert amplitudes(spec, 1).coefficients == amplitudes(spec, 1.0).coefficients
    f_int = walk._amplitude_rows(spec, np.arange(3))[1]
    assert f_int.tobytes() == walk._amplitude_rows(spec, [0.0, 1.0, 2.0])[1].tobytes()


def test_non_hermitian_warns():
    with pytest.warns(UserWarning):
        spec = walk_spec(directed_ngon(3), 1, [1.0, 0.5])
    assert not spec.is_hermitian


@pytest.mark.parametrize("copies, weights, match", [
    (2.5, canonical_ngon_weights(3), "integers"),
    (True, canonical_ngon_weights(3), "integers"),
    (np.bool_(True), canonical_ngon_weights(3), "integers"),
    ("2", canonical_ngon_weights(3), "integers"),
    (-1, canonical_ngon_weights(3), "non-negative"),
    (2, [1.0], "expected 2 weights"),
    (2, [[1.0, 1.0]], "expected 2 weights"),
    (2, [1.0, float("nan")], "finite"),
    (2, [complex(1.0, float("inf")), 1.0], "finite"),
])
def test_walk_spec_constructor_checks_its_fields(copies, weights, match):
    # the dataclass itself checks, not only the walk_spec factory
    with pytest.raises(ValueError, match=match):
        WalkSpec(directed_ngon(3), copies, weights)
    with pytest.raises(ValueError, match=match):
        walk_spec(directed_ngon(3), copies, weights)


def test_walk_spec_constructor_normalizes_its_fields():
    w = np.array([1.0, 2.0])
    spec = WalkSpec(directed_ngon(3), np.int64(3), w)
    assert type(spec.copies) is int and spec.copies == 3
    assert spec.weights.dtype == complex and not spec.weights.flags.writeable
    assert w.flags.writeable  # the caller's array is copied, not frozen
    assert WalkSpec(trivial_scheme_2(), 2.0, [1]).copies == 2
    assert dataclasses.replace(spec, copies=1).copies == 1
    with pytest.raises(ValueError, match="integers"):
        dataclasses.replace(spec, copies=1.5)


def test_direct_construction_does_not_warn():
    # solve_weights and the oracle's probes build non-Hermitian specs on purpose
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = WalkSpec(directed_ngon(3), 1, [1.0, 0.5])
        assert not spec.is_hermitian
        solve_weights(ordered_word_scheme(3), 1.0, [0.3, 1.1, 2.0])
        oracle.golden_bmatrix_residual()
        bivariate_recurrence_residual(2, 1.0, 0.5)


def test_total_probability_of_a_direct_spec_is_finite():
    spec = WalkSpec(directed_ngon(3), 2, canonical_ngon_weights(3))
    assert abs(amplitudes(spec, 0.7).total_probability() - 1.0) < 1e-12


def test_eigenvalues_ngon3_single_copy():
    spec = canonical_spec(3, 1)
    vals = sorted(
        eigenvalue_lambda(spec, alpha).real for alpha in enumerate_indices(1, 2)
    )
    np.testing.assert_allclose(vals, [-1.0, 0.0, 1.0], atol=1e-12)
    for alpha in enumerate_indices(1, 2):
        assert abs(eigenvalue_lambda(spec, alpha).imag) < 1e-12


def test_eigenvalue_top_index():
    spec = walk_spec(trivial_scheme_2(), 5, [1.0])
    assert abs(eigenvalue_lambda(spec, (5, 0)) - 5.0) < 1e-12


@pytest.mark.parametrize("alpha", [(-1, 2), (2, -1), (3, -2)])
def test_eigenvalue_rejects_negative_entries(alpha):
    # each index sums to N = 1 with the right length; only the sign is wrong
    spec = walk_spec(trivial_scheme_2(), 1, [1.0])
    with pytest.raises(ValueError, match="not a valid index"):
        eigenvalue_lambda(spec, alpha)


@pytest.mark.parametrize("start", [(2, 1, 0), (1, 1), (3, -1, 0), (1, 1, 0, 0)])
def test_evolve_projected_rejects_a_start_that_is_not_a_class(start):
    pm = projected_matrix(walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3)))
    with pytest.raises(ValueError, match="not a valid index"):
        evolve_projected(pm, 0.5, start)


def test_eigenvalue_differences_integral():
    for n in (2, 3, 5):
        spec = canonical_spec(n, 2)
        vals = [eigenvalue_lambda(spec, a) for a in enumerate_indices(2, n - 1)]
        for i, a in enumerate(vals):
            assert abs(a.imag) < 1e-10
            for b in vals[i + 1:]:
                diff = (a - b).real
                assert abs(diff - round(diff)) < 1e-9


def test_z_factors_at_zero():
    spec = canonical_spec(5, 2)
    np.testing.assert_allclose(z_factors(spec, 0.0), np.ones(4), atol=1e-15)


def test_z_factor_hypercube():
    spec = walk_spec(trivial_scheme_2(), 3, [1.0])
    assert abs(z_factors(spec, math.pi / 2)[0] - (-1.0)) < 1e-12
    t = 0.37
    assert abs(z_factors(spec, t)[0] - np.exp(2j * t)) < 1e-12


def test_z_factors_unit_modulus():
    spec = walk_spec(ordered_word_scheme(3), 2, [0.4, -0.1, 0.9])
    z = z_factors(spec, 1.7)
    np.testing.assert_allclose(np.abs(z), np.ones(3), atol=1e-12)


def test_z_factors_at_transfer_times():
    n = 5
    spec = canonical_spec(n, 1)
    zeta = np.exp(2j * np.pi / n)
    for k in range(1, n):
        z = z_factors(spec, 2 * math.pi * k / n)
        expected = np.array([zeta ** (-k * l) for l in range(1, n)])
        np.testing.assert_allclose(z, expected, atol=1e-12)


def test_amplitudes_at_zero_concentrate():
    spec = walk_spec(ordered_word_scheme(3), 3, [0.3, 0.1, -0.2])
    prof = amplitudes(spec, 0.0)
    assert abs(prof.coefficients[(3, 0, 0, 0)] - 1.0) < 1e-12
    for beta, f in prof.coefficients.items():
        if beta != (3, 0, 0, 0):
            assert abs(f) < 1e-12


def test_amplitudes_transfer_extremes():
    n, N = 4, 2
    spec = canonical_spec(n, N)
    for k in range(1, n):
        prof = amplitudes(spec, 2 * math.pi * k / n)
        target = tuple(N if j == (n - k) % n else 0 for j in range(n))
        assert prof.class_probabilities[target] > 1.0 - 1e-12
        for beta, q in prof.class_probabilities.items():
            if beta != target:
                assert q < 1e-12


def test_amplitudes_normalized_random_times():
    rng = np.random.default_rng(7)
    specs = [
        canonical_spec(3, 2),
        walk_spec(trivial_scheme_2(), 4, [1.0]),
        walk_spec(ordered_word_scheme(3), 3, [0.25, -0.5, 0.75]),
    ]
    for spec in specs:
        for t in rng.uniform(0, 10, size=50):
            assert abs(amplitudes(spec, t).total_probability() - 1.0) < 1e-10


def _amplitudes_per_class(spec, t):
    # reference: the per-class loop that the array pass over the class
    # table replaced, with one class_valency call per class
    ext = extension_scheme(spec.base, spec.copies)
    p = site_factors(spec, t)
    sizeN = float(spec.base.size) ** spec.copies
    total_rate = complex((spec.base.first_eigenmatrix[:, 1:] @ spec.weights)[0])
    prefactor = np.exp(-1j * t * spec.copies * total_rate) / sizeN
    coeffs, sites, probs = {}, {}, {}
    for beta in ext.index_set:
        f = prefactor
        for k, bk in enumerate(beta):
            if bk:
                f = f * p[k] ** bk
        kb = float(class_valency(ext, beta))
        coeffs[beta] = complex(f)
        sites[beta] = complex(f * math.sqrt(kb))
        probs[beta] = float(kb * abs(f) ** 2)
    return coeffs, sites, probs


OW3_WEIGHTS = [0.7, -0.3, 0.25]


@pytest.mark.parametrize(
    "base, weights, max_N",
    [
        (directed_ngon(3), canonical_ngon_weights(3), 20),
        (directed_ngon(5), canonical_ngon_weights(5), 6),
        (ordered_word_scheme(3), OW3_WEIGHTS, 6),
        (trivial_scheme_2(), [1.0], 40),
    ],
    ids=["ngon-3", "ngon-5", "ow-3", "trivial2"],
)
def test_amplitudes_match_per_class_loop(base, weights, max_N):
    times = np.random.default_rng(11).uniform(0.0, 10.0, size=20)
    for N in range(max_N + 1):
        spec = walk_spec(base, N, weights)
        for t in times:
            prof = amplitudes(spec, t)
            views = (prof.coefficients, prof.site_amplitudes, prof.class_probabilities)
            for view, ref in zip(views, _amplitudes_per_class(spec, t)):
                assert list(view) == list(ref)
                assert max(abs(view[b] - ref[b]) for b in ref) <= 1e-15


def _hermitian_weights(scheme, re, im):
    # average w with its transpose-paired conjugate: exactly Hermitian
    w = np.array(re[: scheme.d]) + 1j * np.array(im[: scheme.d])
    pair = [scheme.transpose_map[i + 1] - 1 for i in range(scheme.d)]
    return (w + np.conj(w[pair])) / 2


KERNEL_SCHEMES = [directed_ngon(3), directed_ngon(4), directed_ngon(5),
                  ordered_word_scheme(3), trivial_scheme_2()]


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(KERNEL_SCHEMES),
    N=st.integers(0, 12),
    t=st.floats(0.0, 10.0),
    re=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    im=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
def test_class_distribution_is_multinomial(scheme, N, t, re, im):
    # k_beta |f_beta|^2 = multinomial(N; beta) prod_k q_k^beta_k with
    # q_k = k_k |p_k|^2 / |X|^2, a distribution on the simplex
    spec = walk_spec(scheme, N, _hermitian_weights(scheme, re, im))
    assert spec.is_hermitian
    q = scheme.valencies * np.abs(site_factors(spec, t)) ** 2 / scheme.size ** 2
    prof = amplitudes(spec, t)
    for beta, prob in prof.class_probabilities.items():
        expected = multinomial(N, beta) * math.prod(qk ** b for qk, b in zip(q, beta))
        assert abs(prob - expected) <= 1e-12 * expected + 1e-300
    assert abs(prof.total_probability() - 1.0) <= 1e-12


ROW_SCHEMES = [directed_ngon(n) for n in range(1, 6)] + [ordered_word_scheme(3), trivial_scheme_2()]


@settings(max_examples=80, deadline=None)
@given(
    scheme=st.sampled_from(ROW_SCHEMES),
    N=st.integers(0, 12),
    times=st.one_of(st.just([]), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=1),
                    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=30)),
    re=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    im=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    hermitian=st.booleans(),
)
def test_amplitude_rows_match_amplitudes_bitwise(scheme, N, times, re, im, hermitian):
    # every row of the T x D kernel, in all three views, is the profile at
    # that time, bit for bit; non-Hermitian couplings included, whose
    # amplitudes may grow past the float range (inf and nan compared too)
    w = np.array(re[: scheme.d]) + 1j * np.array(im[: scheme.d])
    if hermitian:
        w = _hermitian_weights(scheme, re, im)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = walk_spec(scheme, N, w)
    with np.errstate(over="ignore", invalid="ignore"):
        table, f = walk._amplitude_rows(spec, np.array(times))
        assert f.shape == (len(times), math.comb(N + scheme.d, scheme.d))
        views = (f, f * np.sqrt(table.valency), table.valency * np.abs(f) ** 2)
        for i, t in enumerate(times):
            prof = amplitudes(spec, t)
            assert tuple(prof.coefficients) == table.index_set
            for view, expected in zip(views, (prof.coefficients, prof.site_amplitudes,
                                              prof.class_probabilities)):
                assert view[i].tobytes() == np.array(list(expected.values()), dtype=view.dtype).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(ROW_SCHEMES),
    times=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20),
    re=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    im=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
def test_site_factors_is_one_row_of_the_batched_kernel(scheme, times, re, im):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = walk_spec(scheme, 1, np.array(re[: scheme.d]) + 1j * np.array(im[: scheme.d]))
    rows = walk._site_factor_rows(spec, np.array(times))
    assert rows.shape == (len(times), scheme.classes)
    for t, row in zip(times, rows):
        assert site_factors(spec, t).tobytes() == row.tobytes()
        assert site_factors(spec, np.float64(t)).tobytes() == row.tobytes()


@pytest.mark.parametrize("spec", [canonical_spec(3, 2), walk_spec(ordered_word_scheme(3), 2, [0.7, -0.3, 0.25]),
                                  walk_spec(trivial_scheme_2(), 4, [1.0])])
def test_site_factor_kernel_takes_its_times_as_floats(spec):
    # integer times are converted to float before the product with i mu:
    # 2**70 does not fit int64, so without the conversion it would make an
    # object array that exp cannot take
    assert site_factors(spec, 2**70).tobytes() == site_factors(spec, float(2**70)).tobytes()
    assert walk._site_factor_rows(spec, [3]).tobytes() == walk._site_factor_rows(spec, [3.0]).tobytes()
    assert (walk._site_factor_rows(spec, [3, 2**70, -1]).tobytes()
            == walk._site_factor_rows(spec, [3.0, float(2**70), -1.0]).tobytes())


def test_vanishing_rule():
    spec = walk_spec(trivial_scheme_2(), 5, [1.0])
    t = math.pi / 2
    p = site_factors(spec, t)
    assert abs(p[0]) < 1e-12
    prof = amplitudes(spec, t)
    for beta, f in prof.coefficients.items():
        if beta[0] != 0:
            assert abs(f) < 1e-12


def test_site_factors_column_orthogonality_at_zero():
    spec = walk_spec(ordered_word_scheme(3), 2, [0.3, 0.4, 0.5])
    p = site_factors(spec, 0.0)
    np.testing.assert_allclose(p, [8.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_solve_weights_hypercube():
    sol = solve_weights(trivial_scheme_2(), math.pi / 2, [math.pi])
    np.testing.assert_allclose(sol.weights, [1.0 + 0.0j], atol=1e-12)
    assert sol.hermiticity_residual < 1e-12
    assert sol.roundtrip_residual < 1e-12


def test_solve_weights_zero_targets():
    sol = solve_weights(directed_ngon(4), 1.3, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(sol.weights, np.zeros(3), atol=1e-14)


def test_solve_weights_recovers_canonical_phases():
    n = 5
    scheme = directed_ngon(n)
    tau = 2 * math.pi / n
    canonical = canonical_ngon_weights(n)
    z_target = z_factors(walk_spec(scheme, 1, canonical), tau)
    args = np.angle(z_target)
    sol = solve_weights(scheme, tau, args)
    z_back = z_factors(walk_spec(scheme, 1, sol.weights), tau)
    np.testing.assert_allclose(z_back, z_target, atol=1e-9)
    # solutions differ from the canonical ones by phase multiples of 2*pi/tau
    P = scheme.first_eigenmatrix
    system = P[0, 1:][np.newaxis, :] - P[1:, 1:]
    shift = system @ (sol.weights - canonical) * tau / (2 * math.pi)
    np.testing.assert_allclose(shift, np.round(shift.real), atol=1e-9)


def test_solve_weights_singular_system():
    # duplicated eigenmatrix rows make the phase system singular; with
    # inconsistent targets either the factorization or the round-trip
    # check must fail
    s = directed_ngon(3)
    P = s.first_eigenmatrix.copy()
    P[2, :] = P[1, :]
    broken = dataclasses.replace(s, first_eigenmatrix=P)
    with pytest.raises((np.linalg.LinAlgError, ValueError)):
        solve_weights(broken, 1.0, [0.5, 0.7])


def test_solve_weights_rejects_t_zero():
    for t, targets in [(0.0, [0.1, 0.1]), (math.inf, [0.1, 0.1]), (math.nan, [0.1, 0.1]),
                       (1.0, [0.1, math.inf]), (1.0, [math.nan, 0.1])]:
        with pytest.raises(ValueError):
            solve_weights(directed_ngon(3), t, targets)


def test_solve_weights_with_one_class_and_wrong_shapes():
    sol = solve_weights(directed_ngon(1), 1.0, [])
    assert sol.weights.shape == (0,) and sol.weights.dtype == complex
    assert sol.hermiticity_residual == sol.roundtrip_residual == 0.0
    with pytest.raises(ValueError, match=r"expected 2 target phases, got \(1,\)"):
        solve_weights(directed_ngon(3), 1.0, [0.5])


def test_projected_matrix_golden():
    scheme = directed_ngon(3)
    w = canonical_ngon_weights(3)
    pm = projected_matrix(walk_spec(scheme, 3, w))
    expected = w[0] * GOLDEN_BM3_W1 + w[1] * GOLDEN_BM3_W2
    np.testing.assert_allclose(pm.entries, expected, atol=1e-12)
    assert pm.order[0] == (3, 0, 0)
    assert pm.order == tuple(enumerate_indices(3, 2))


def test_projected_matrix_ngon_entries():
    n, N = 4, 2
    spec = canonical_spec(n, N)
    pm = projected_matrix(spec)
    w = spec.weights
    pos = {b: i for i, b in enumerate(pm.order)}
    for beta in pm.order:
        for s in range(n):
            for t in range(n):
                if s == t or beta[s] == 0:
                    continue
                gamma = list(beta)
                gamma[s] -= 1
                gamma[t] += 1
                entry = pm.entries[pos[beta], pos[tuple(gamma)]]
                expected = math.sqrt(beta[s] * (beta[t] + 1)) * w[(t - s) % n - 1]
                assert abs(entry - expected) < 1e-12
    np.testing.assert_allclose(np.diag(pm.entries), np.zeros(len(pm.order)), atol=1e-12)


def _entries_loop(pm):
    # the earlier per-class fill, kept as the bitwise reference of the scatter
    h, pos = pm.one_body, {beta: i for i, beta in enumerate(pm.order)}
    B = np.diag(np.array([sum(b * h[j, j] for j, b in enumerate(beta)) for beta in pm.order],
                         dtype=complex))
    for r, beta in enumerate(pm.order):
        for s, t in itertools.permutations(range(len(beta)), 2):
            if beta[s]:
                gamma = list(beta)
                gamma[s] -= 1
                gamma[t] += 1
                B[r, pos[tuple(gamma)]] = math.sqrt(beta[s] * (beta[t] + 1)) * h[s, t]
    return B


def _assert_entries_match_loop(pm):
    # the float views compared as raw words, so that signed zeros count
    np.testing.assert_array_equal(pm.entries.view(np.uint64), _entries_loop(pm).view(np.uint64))


def _random_weights(d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=d) + 1j * rng.normal(size=d)


# d + 1 >= 9 is where a numpy row sum of the diagonal would switch to
# blocked summation and move bits
@pytest.mark.parametrize("spec", [canonical_spec(5, 7),
                                  WalkSpec(base=ordered_word_scheme(8), copies=5, weights=_random_weights(8, 8)),
                                  WalkSpec(base=ordered_word_scheme(9), copies=4, weights=_random_weights(9, 9))],
                         ids=["ngon5-N7", "ow8-N5", "ow9-N4"])
def test_projected_matrix_entries_match_loop_bitwise(spec):
    _assert_entries_match_loop(projected_matrix(spec))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(0, 4), N=st.integers(0, 8))
def test_projected_matrix_entries_of_random_hermitian_h_match_loop_bitwise(seed, d, N):
    # zeros of either sign in h, where a changed order of operations would
    # flip the sign of a zero entry
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
    zeros = rng.random(a.shape) < 0.3
    a.real[zeros], a.imag[zeros] = rng.choice([-0.0, 0.0], size=(2, zeros.sum()))
    h = a + a.conj().T
    _assert_entries_match_loop(walk.ProjectedMatrix(table=extension_scheme(directed_ngon(d + 1), N), one_body=h))


def test_projected_matrix_single_copy():
    spec = canonical_spec(3, 1)
    w = spec.weights
    expected = np.array(
        [[0, w[0], w[1]], [w[1], 0, w[0]], [w[0], w[1], 0]]
    )
    np.testing.assert_allclose(projected_matrix(spec).entries, expected, atol=1e-14)


def test_projected_matrix_shares_one_read_only_h_per_spec():
    # h is summed once per spec; every projected matrix reads the same array
    spec = walk_spec(ordered_word_scheme(3), 2, [0.3, 0.7, -0.2])
    first, second = projected_matrix(spec), projected_matrix(spec)
    assert first is not second and first.one_body is second.one_body
    assert not first.one_body.flags.writeable
    with pytest.raises(ValueError):
        first.one_body[0, 0] = 1.0


def test_projected_matrix_hermitian():
    for spec in (canonical_spec(5, 2), walk_spec(ordered_word_scheme(3), 2, [0.3, 0.7, -0.2])):
        assert projected_matrix(spec).hermiticity_residual < 1e-12


def test_evolve_identity_at_zero():
    pm = projected_matrix(canonical_spec(3, 2))
    state = evolve_projected(pm, 0.0, (1, 1, 0))
    expected = np.zeros(len(pm.order), dtype=complex)
    expected[pm.order.index((1, 1, 0))] = 1.0
    np.testing.assert_allclose(state, expected, atol=1e-12)


def test_evolve_unitary():
    rng = np.random.default_rng(3)
    w1 = rng.normal() + 1j * rng.normal()
    spec = walk_spec(directed_ngon(3), 2, [w1, np.conj(w1)])
    pm = projected_matrix(spec)
    for t in rng.uniform(0, 5, size=5):
        assert abs(np.linalg.norm(evolve_projected(pm, t, (2, 0, 0))) - 1.0) < 1e-12


def test_evolve_matches_amplitudes():
    for spec in (canonical_spec(3, 3), walk_spec(trivial_scheme_2(), 4, [1.0])):
        pm = projected_matrix(spec)
        start = pm.order[0]
        for t in (0.35, 1.1, 2.0):
            state = evolve_projected(pm, t, start)
            prof = amplitudes(spec, t)
            expected = np.array([prof.site_amplitudes[b] for b in pm.order])
            np.testing.assert_allclose(state, expected, atol=1e-9)


def _evolve_dense(pm, t, start):
    # reference: eigendecomposition of the D x D coordinate generator
    vals, vecs = np.linalg.eigh(pm.entries.T)
    coeffs = np.conj(vecs[pm.order.index(start), :])
    return vecs @ (np.exp(-1j * t * vals) * coeffs)


@pytest.mark.parametrize(
    "spec",
    [
        canonical_spec(3, 4),
        canonical_spec(4, 3),
        walk_spec(ordered_word_scheme(3), 3, [0.7, -0.3, 0.25]),
    ],
)
def test_evolve_symmetric_power_matches_dense_eigh(spec, monkeypatch):
    pm = projected_matrix(spec)
    single = projected_matrix(walk_spec(spec.base, 1, spec.weights))
    np.testing.assert_array_equal(pm.one_body, single.entries)
    times = (0.3, 1.7, 4.1)
    expected = {(s, t): _evolve_dense(pm, t, s) for s in pm.order for t in times}

    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for (start, t), ref in expected.items():
        np.testing.assert_allclose(evolve_projected(pm, t, start), ref, rtol=0, atol=1e-12)
    # eigh runs on h and on the Givens lift's (n+1) x (n+1) blocks, n <= N,
    # never on a D x D matrix
    assert (spec.base.classes, spec.base.classes) in shapes
    assert max(rows for rows, _ in shapes) <= max(spec.base.classes, spec.copies + 1)


def test_evolve_never_expands_the_symmetric_power(monkeypatch):
    def fail(*args):
        raise AssertionError("evolve_projected called symmetric_power_row")

    monkeypatch.setattr(extension, "symmetric_power_row", fail)
    monkeypatch.setattr(walk, "symmetric_power_row", fail, raising=False)
    for spec in (canonical_spec(3, 4), walk_spec(ordered_word_scheme(3), 3, [0.7, -0.3, 0.25])):
        pm = projected_matrix(spec)
        for start in (pm.order[0], pm.order[-1], pm.order[len(pm.order) // 2]):
            assert abs(np.linalg.norm(evolve_projected(pm, 1.3, start)) - 1.0) < 1e-13


def test_evolve_balanced_start_matches_dense_eigh_at_large_N():
    # the term-by-term expansion drifted to 5.6e-13 here; the Givens lift,
    # each rotation lifted by the symmetric-power recursion, is unitary to
    # about n * 1e-16 at n units
    pm = projected_matrix(canonical_spec(3, 45))
    start = (15, 15, 15)
    vals, vecs = np.linalg.eigh(pm.entries.T)
    coeffs = np.conj(vecs[extension._rank(start, pm.table.copies), :])
    for t in (0.7, 2.3):
        ref = vecs @ (np.exp(-1j * t * vals) * coeffs)
        np.testing.assert_allclose(evolve_projected(pm, t, start), ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("spec", [walk_spec(ordered_word_scheme(3), 8, [0.7, -0.3, 0.25]),
                                  canonical_spec(4, 10)])
def test_evolve_random_starts_match_dense_eigh(spec):
    pm = projected_matrix(spec)
    rng = np.random.default_rng(spec.copies)
    inner = [beta for beta in pm.order if np.count_nonzero(beta) > 1]
    for i in rng.choice(len(inner), size=4, replace=False):
        for t in (0.4, 2.9):
            np.testing.assert_allclose(evolve_projected(pm, t, inner[i]), _evolve_dense(pm, t, inner[i]),
                                       rtol=0, atol=1e-13)


@pytest.mark.parametrize("N", [30, 60, 90])
def test_evolve_norm_from_balanced_start(N):
    pm = projected_matrix(canonical_spec(3, N))
    for t in (0.7, 2.3):
        assert abs(np.linalg.norm(evolve_projected(pm, t, (N // 3,) * 3)) - 1.0) <= 1e-12


def test_evolve_never_builds_dense_matrix():
    spec = canonical_spec(5, 20)
    pm = projected_matrix(spec)
    assert len(pm.order) == 10626
    t = 0.9
    state = evolve_projected(pm, t, pm.order[0])
    assert "entries" not in vars(pm)
    prof = amplitudes(spec, t)
    expected = np.array([prof.site_amplitudes[b] for b in pm.order])
    np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("base", [directed_ngon(3), directed_ngon(4), ordered_word_scheme(3)])
@pytest.mark.parametrize("N", [0, 1, 2, 5])
def test_hermiticity_residual_is_that_of_the_lift(base, N):
    rng = np.random.default_rng(N)
    w = rng.normal(size=base.d) + 1j * rng.normal(size=base.d)
    pm = projected_matrix(WalkSpec(base=base, copies=N, weights=w))
    dense = float(np.abs(pm.entries - pm.entries.conj().T).max())
    assert abs(pm.hermiticity_residual - dense) <= 1e-15 * dense


def test_evolve_rejects_lift_that_is_not_hermitian():
    # h is within 1e-9 of Hermitian, but its lift to N = 4 copies is not:
    # each off-diagonal defect grows by sqrt(2 * 3)
    w = canonical_ngon_weights(3)
    spec = WalkSpec(base=directed_ngon(3), copies=4, weights=np.array([w[0], w[1] + 6e-10]))
    pm = projected_matrix(spec)
    h = pm.one_body
    assert np.abs(h - h.conj().T).max() < 1e-9 < pm.hermiticity_residual
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve_projected(pm, 1.0, (4, 0, 0))


def test_evolve_mpst_extreme_arrival():
    spec = canonical_spec(3, 3)
    pm = projected_matrix(spec)
    state = evolve_projected(pm, 2 * math.pi / 3, (3, 0, 0))
    arrival = pm.order.index((0, 0, 3))
    assert abs(abs(state[arrival]) - 1.0) < 1e-9
    others = np.abs(np.delete(state, arrival))
    assert others.max() < 1e-9


def test_evolve_rejects_non_hermitian():
    with pytest.warns(UserWarning):
        spec = walk_spec(directed_ngon(3), 1, [1.0, 0.3])
    pm = projected_matrix(spec)
    with pytest.raises(ValueError):
        evolve_projected(pm, 1.0, (1, 0, 0))


def test_projected_spectrum_shift():
    # sorted spectrum equals {sum_j j*gamma_j} shifted down by N(n-1)/2
    n, N = 4, 3
    pm = projected_matrix(canonical_spec(n, N))
    vals = np.sort(np.linalg.eigvalsh(pm.entries))
    expected = sorted(
        sum(j * g for j, g in enumerate(gamma)) - N * (n - 1) / 2
        for gamma in enumerate_indices(N, n - 1)
    )
    np.testing.assert_allclose(vals, expected, atol=1e-9)


def test_profile_views_consistent():
    spec = canonical_spec(3, 2)
    prof = amplitudes(spec, 0.9)
    for beta, f in prof.coefficients.items():
        site = prof.site_amplitudes[beta]
        prob = prof.class_probabilities[beta]
        assert abs(abs(site) ** 2 - prob) < 1e-12
        assert abs(np.angle(site) - np.angle(f)) < 1e-12 or abs(f) < 1e-15


@pytest.mark.parametrize("spec", [canonical_spec(3, 2), canonical_spec(5, 1),
                                  walk_spec(ordered_word_scheme(3), 2, [0.7, -0.3, 0.25]),
                                  walk_spec(trivial_scheme_2(), 4, [1.0])])
def test_site_terms_are_formed_once_and_keep_every_bit(spec):
    times = np.array([0.0, -0.0, 0.4, math.pi, 7.25])
    assert "_site_terms" not in vars(spec)
    rows = walk._site_factor_rows(spec, times)
    terms = spec._site_terms
    walk._site_factor_rows(spec, times[::-1])
    assert spec._site_terms is terms
    # the expressions the site factors read before the spec held its terms
    P = spec.base.first_eigenmatrix[:, 1:]
    mu = (P[0] - P[1:]) @ spec.weights
    m = spec.base.multiplicities.astype(float)
    mz = m[1:] * np.exp(1j * times[:, None] * mu)
    expected = 1.0 + np.matmul(np.conj(spec.base.cosine[1:, :]).T, mz[:, :, None])[..., 0]
    assert rows.tobytes() == expected.tobytes()
    for t in times:
        assert z_factors(spec, t).tobytes() == np.exp(1j * t * mu).tobytes()


@pytest.mark.parametrize("spec", [canonical_spec(3, 2), canonical_spec(5, 1),
                                  walk_spec(ordered_word_scheme(3), 2, [0.7, -0.3, 0.25]),
                                  walk_spec(trivial_scheme_2(), 4, [1.0])])
def test_site_factor_jets_are_the_site_factors_and_their_derivatives(spec):
    times = np.array([0.0, 0.4, math.pi, 7.25])
    jets = walk._site_factor_jets(spec, times)
    assert jets.shape == (len(times), 3, spec.base.classes)
    scale = float(spec.base.size)  # |p_k| <= |X|
    np.testing.assert_allclose(jets[:, 0], walk._site_factor_rows(spec, times), rtol=0, atol=1e-13 * scale)
    # fourth-order central differences of the row above it
    h = 1e-3
    for row, deriv in ((0, 1), (1, 2)):
        def f(t):
            return walk._site_factor_jets(spec, times + t)[:, row]
        diff = (8 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12 * h)
        rate = max(1.0, float(np.abs(spec._site_terms[0]).max()))
        np.testing.assert_allclose(jets[:, deriv], diff, rtol=0, atol=1e-8 * scale * rate ** (deriv + 4))
    # each row is its own reduction: no row depends on the other times
    for i, t in enumerate(times):
        assert walk._site_factor_jets(spec, [t]).tobytes() == jets[i:i + 1].tobytes()
