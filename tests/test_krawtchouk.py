import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    ProjectedMatrix,
    WalkSpec,
    bivariate_G,
    bivariate_orthogonality_residual,
    bivariate_recurrence_residual,
    directed_ngon,
    enumerate_indices,
    griffiths_params,
    krawtchouk,
    krawtchouk_genfun,
    krawtchouk_series,
    krawtchouk_table,
    multinomial,
    ordered_word_scheme,
    orthogonality_residual,
    params_from_scheme,
    pochhammer,
    projected_matrix,
    trivial_scheme_2,
)
from simplexwalk import extension, oracle
from simplexwalk.krawtchouk import spectral_residual
from simplexwalk.oracle import _oracle_specs

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex)


def test_pochhammer():
    assert pochhammer(1.5, 0) == 1
    assert pochhammer(-2, 3) == 0
    assert pochhammer(3, 2) == 12
    assert pochhammer(-4, 2) == 12


def test_params_trivial2_exact():
    gp = params_from_scheme(trivial_scheme_2())
    assert gp.nu == 2
    np.testing.assert_allclose(gp.p, [0.5, 0.5])
    np.testing.assert_allclose(gp.p_tilde, [0.5, 0.5])
    np.testing.assert_array_equal(gp.U, HADAMARD)
    assert gp.unitarity_residual == 0.0


@pytest.mark.parametrize("scheme", [directed_ngon(3), directed_ngon(5), ordered_word_scheme(3)])
def test_params_unitarity(scheme):
    assert params_from_scheme(scheme).unitarity_residual < 1e-12


def test_params_reject_bad():
    with pytest.raises(ValueError):
        griffiths_params(2.0, [0.5, 0.5], [0.5, 0.5], [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        griffiths_params(3.0, [0.5, 0.5], [0.5, 0.5], HADAMARD)
    # a 0-d, 1-D or 3-D U is refused by the shape rule of both evaluators
    for U in (5, [1.0, 1.0], [[[1.0]]]):
        with pytest.raises(ValueError, match="square matrix"):
            griffiths_params(1.0, [1.0], [1.0], U)


@pytest.mark.parametrize("nu, p, p_tilde, U", [
    (2.0, [math.nan, 0.5], [0.5, 0.5], HADAMARD),
    (2.0, [0.5, 0.5], [math.nan, 0.5], HADAMARD),
    (2.0, [0.5, math.nan], [0.5, 0.5], HADAMARD),
    (2.0, [0.5, 0.5], [0.5, 0.5], [[1, 1], [1, math.nan]]),
    (2.0, [0.5, 0.5], [0.5, 0.5], [[1, math.nan], [1, -1]]),
], ids=["p0", "p_tilde0", "p1", "U11", "U01"])
def test_params_reject_nan(nu, p, p_tilde, U):
    with pytest.raises(ValueError):
        griffiths_params(nu, p, p_tilde, U)


@pytest.mark.parametrize("nu", [0, 0.0, -2.0, math.nan, math.inf, -math.inf])
def test_params_require_finite_positive_nu(nu):
    with pytest.raises(ValueError, match="nu must be finite and positive"):
        griffiths_params(nu, [0.5, 0.5], [0.5, 0.5], HADAMARD)


def test_series_top_row_is_one():
    U = directed_ngon(3).cosine
    for N in range(4):
        top = (N, 0, 0)
        for n in enumerate_indices(N, 2):
            assert abs(krawtchouk_series(n, top, N, U) - 1) < 1e-12


def test_series_weight_mismatch():
    with pytest.raises(ValueError):
        krawtchouk_series((1, 1), (2, 1), 2, HADAMARD)


def test_series_and_genfun_with_one_class():
    # d = 0: the only index is (N,), and K((N,); (N,)) = 1
    for N in range(4):
        assert krawtchouk_series((N,), (N,), N, [[1.0]]) == 1.0
        assert krawtchouk_genfun((N,), N, [[1.0]]) == {(N,): 1.0}


@pytest.mark.parametrize("n, n_tilde", [((1, 1), (1, 1)), ((1, 1, 0), (1, 1)), ((1, 1), (1, 1, 0))])
def test_index_length_must_match_U(n, n_tilde):
    U = directed_ngon(3).cosine
    with pytest.raises(ValueError, match="3 parts"):
        krawtchouk_series(n, n_tilde, 2, U)
    if len(n_tilde) != 3:
        with pytest.raises(ValueError, match="3 parts"):
            krawtchouk_genfun(n_tilde, 2, U)


@pytest.mark.parametrize("U", [np.ones((3, 4)), np.ones((3, 2)), np.ones(3), np.ones((3, 3, 1))])
def test_U_must_be_a_square_matrix(U):
    # a 3 x 4 U used to give 1+0j from the series and KeyError from genfun
    with pytest.raises(ValueError, match="square matrix"):
        krawtchouk_series((1, 1, 0), (1, 0, 1), 2, U)
    with pytest.raises(ValueError, match="square matrix"):
        krawtchouk_genfun((1, 0, 1), 2, U)


def test_series_univariate_frozen_value():
    # (1+z)(1-z)^2 = 1 - z - z^2 + z^3; coefficient of z is -1, over C(3;2,1)=3
    value = krawtchouk_series((2, 1), (1, 2), 3, HADAMARD)
    assert abs(value - (-1.0 / 3.0)) < 1e-14


def test_genfun_hadamard_frozen_value():
    # (1-z)^2 expands to 1 - 2z + z^2; K((1,1),(0,2)) = -2/2
    table = krawtchouk_genfun((0, 2), 2, HADAMARD)
    assert abs(table[(1, 1)] - (-1.0)) < 1e-14


def test_genfun_top_column():
    U = ordered_word_scheme(2).cosine
    for N in range(4):
        table = krawtchouk_genfun((N, 0, 0), N, U)
        for n, value in table.items():
            assert abs(value - 1) < 1e-12


@pytest.mark.parametrize(
    "scheme",
    [
        trivial_scheme_2(),
        directed_ngon(3),
        ordered_word_scheme(2),
        directed_ngon(4),
        ordered_word_scheme(3),
    ],
)
def test_series_matches_genfun(scheme):
    U = scheme.cosine
    worst = 0.0
    for N in range(5):
        table = krawtchouk_table(N, U)
        for nt in enumerate_indices(N, scheme.d):
            for n in enumerate_indices(N, scheme.d):
                worst = max(worst, abs(krawtchouk_series(n, nt, N, U) - table[nt][n]))
    assert worst < 1e-10


def test_orthogonality_trivial2():
    gp = params_from_scheme(trivial_scheme_2())
    assert orthogonality_residual(gp, 4) < 1e-10


def test_orthogonality_ngon3():
    gp = params_from_scheme(directed_ngon(3))
    assert orthogonality_residual(gp, 3) < 1e-10


@pytest.mark.parametrize("scheme", [directed_ngon(4), ordered_word_scheme(3)])
def test_orthogonality_three_variables(scheme):
    gp = params_from_scheme(scheme)
    assert max(orthogonality_residual(gp, N) for N in range(5)) < 1e-10


# Eigenmatrix of the Petersen graph scheme: m = (1, 5, 4) differs from
# k = (1, 3, 6), so p != p_tilde and U is not symmetric, and the relation over
# the rows is tested apart from the one over the columns.
PETERSEN_P = np.array([[1, 3, 6], [1, 1, -2], [1, -2, 1]], dtype=float)
PETERSEN_K = np.array([1.0, 3.0, 6.0])
PETERSEN_M = np.array([1.0, 5.0, 4.0])


@pytest.mark.parametrize("N", range(5))
def test_orthogonality_not_self_dual(N):
    gp = griffiths_params(10.0, PETERSEN_M / 10, PETERSEN_K / 10, PETERSEN_P / PETERSEN_K)
    assert orthogonality_residual(gp, N) <= 1e-12
    if N:
        swapped = dataclasses.replace(gp, p=gp.p_tilde, p_tilde=gp.p)
        assert orthogonality_residual(swapped, N) > 1e-3
        assert orthogonality_residual(dataclasses.replace(gp, U=gp.U.T), N) > 1e-3


def test_orthogonality_N0_exact():
    gp = params_from_scheme(trivial_scheme_2())
    assert orthogonality_residual(gp, 0) == 0.0


def test_bivariate_constant():
    for N in range(1, 4):
        for x in range(N + 1):
            for y in range(N + 1 - x):
                assert bivariate_G(0, 0, x, y, N) == 1.0


def test_bivariate_range_checks():
    with pytest.raises(ValueError):
        bivariate_G(2, 2, 0, 0, 3)
    with pytest.raises(ValueError):
        bivariate_G(0, 0, 3, 1, 3)


@pytest.mark.parametrize("N", range(1, 5))
def test_bivariate_orthogonality(N):
    assert bivariate_orthogonality_residual(N) < 1e-10


def test_bivariate_matches_series():
    U = directed_ngon(3).cosine
    worst = 0.0
    for N in range(1, 4):
        for m in range(N + 1):
            for n in range(N + 1 - m):
                for x in range(N + 1):
                    for y in range(N + 1 - x):
                        g = bivariate_G(m, n, x, y, N)
                        s = krawtchouk_series((N - x - y, x, y), (N - m - n, m, n), N, U)
                        worst = max(worst, abs(g - s))
    assert worst < 1e-12


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_bivariate_G_tilde_is_orthonormal(N):
    # G-tilde = sqrt(3^N multinomial(N; N-m-n, m, n)) G, orthonormal under
    # the trinomial weight multinomial(N; N-x-y, x, y) / 9^N
    idx = enumerate_indices(N, 2)
    G = np.array([[krawtchouk.bivariate_G_tilde(m, n, x, y, N) for _, x, y in idx]
                  for _, m, n in idx])
    for (_, m, n), row in zip(idx, G):
        scale = math.sqrt(3 ** N * multinomial(N, (N - m - n, m, n)))
        assert list(row) == [scale * bivariate_G(m, n, x, y, N) for _, x, y in idx]
    w = np.array([multinomial(N, b) for b in idx]) / 9 ** N
    np.testing.assert_allclose(G.conj() @ (w[:, None] * G.T), np.eye(len(idx)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("N", range(1, 5))
def test_bivariate_recurrence(N):
    assert bivariate_recurrence_residual(N) < 1e-9


def test_bivariate_recurrence_generic_weights():
    # the identity is linear in the couplings, so it holds for any pair,
    # conjugate or not
    w1 = 0.3 + 0.25j
    assert bivariate_recurrence_residual(3, w1, np.conj(w1)) < 1e-9
    assert bivariate_recurrence_residual(3, 0.3 + 0.25j, 0.1 - 0.7j) < 1e-9


@pytest.mark.parametrize("name, spec", _oracle_specs())
def test_spectral_identity_oracle_cases(name, spec):
    assert spectral_residual(spec) <= 1e-12


SPECTRAL_SCHEMES = [directed_ngon(3), directed_ngon(4), directed_ngon(5), ordered_word_scheme(3)]
UNIT_SQUARE = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(SPECTRAL_SCHEMES),
    N=st.integers(0, 4),
    parts=st.lists(st.tuples(UNIT_SQUARE, UNIT_SQUARE), min_size=4, max_size=4),
    hermitian=st.booleans(),
)
def test_spectral_identity_random_weights(scheme, N, parts, hermitian):
    w = np.array([complex(re, im) for re, im in parts[:scheme.d]])
    if hermitian:
        # w of the transposed class is conj(w); self-paired classes get real weights
        for i in range(scheme.d):
            j = scheme.transpose_map[i + 1] - 1
            if j == i:
                w[i] = w[i].real
            elif j < i:
                w[i] = np.conj(w[j])
    spec = WalkSpec(base=scheme, copies=N, weights=w)
    if hermitian:
        assert spec.is_hermitian
    assert spectral_residual(spec) <= 1e-12


def _transposed(h, spec):
    return h.T


def _adjoint(h, spec):
    return h.conj().T


def _without_valency_ratio(h, spec):
    return sum(w * p for w, p in zip(spec.weights, spec.base.intersection[1:]))


@pytest.mark.parametrize(
    "scheme, weights, mutate",
    [
        (directed_ngon(3), [0.3 + 0.25j, 0.1 - 0.7j], _transposed),
        (ordered_word_scheme(3), [0.3 + 0.25j, 0.1 - 0.7j, -0.6 + 0.2j], _adjoint),
        (ordered_word_scheme(3), [0.3 + 0.25j, 0.1 - 0.7j, -0.6 + 0.2j], _without_valency_ratio),
    ],
)
def test_spectral_identity_catches_wrong_projected_matrix(monkeypatch, scheme, weights, mutate):
    # OW(3) has only self-paired classes, so its h is complex symmetric and a
    # plain transpose leaves it unchanged; the adjoint and the dropped
    # valency ratio do change it
    spec = WalkSpec(base=scheme, copies=2, weights=np.asarray(weights, dtype=complex))
    assert spectral_residual(spec) <= 1e-12

    def wrong(s):
        pm = projected_matrix(s)
        return ProjectedMatrix(table=pm.table, one_body=mutate(pm.one_body, s))

    monkeypatch.setattr(krawtchouk, "projected_matrix", wrong)
    assert spectral_residual(spec) > 1e-3


def test_recurrence_eigenvalue_factors():
    # the two factors multiplying G-tilde in the recurrence equal the
    # one-hop class eigenvalues on the idempotent grid
    N = 2
    zeta = np.exp(2j * np.pi / 3)
    for x in range(N + 1):
        for y in range(N + 1 - x):
            lam1 = N + math.sqrt(3.0) * 1j * (zeta * y - zeta ** -1 * x)
            lam2 = N + math.sqrt(3.0) * 1j * (zeta * x - zeta ** -1 * y)
            assert abs(lam1 - ((N - x - y) + x * zeta + y * zeta ** 2)) < 1e-12
            assert abs(lam2 - ((N - x - y) + x * zeta ** 2 + y * zeta)) < 1e-12


def test_genfun_values_scale_with_multinomial():
    # coefficient extraction divides by the multinomial; spot-check once
    U = directed_ngon(3).cosine
    N, nt = 3, (1, 1, 1)
    table = krawtchouk_genfun(nt, N, U)
    poly_value = sum(
        multinomial(N, n) * table[n] for n in enumerate_indices(N, 2)
    )
    # evaluating the generating product at z = (1, 1)
    expected = np.prod([(1 + U[i, 1] + U[i, 2]) ** nt[i] for i in range(3)])
    assert abs(poly_value - expected) < 1e-10


@pytest.mark.parametrize("d", range(5))
@pytest.mark.parametrize("N", range(9))
def test_genfun_divides_by_exact_multinomials(N, d):
    # one factorial row gives the same exact multinomials as the validating
    # multinomial(N, n), so every value is bitwise that of the plain division
    rng = np.random.default_rng(10 * N + d)
    U = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
    compositions = enumerate_indices(N, d)
    n_tilde = compositions[rng.integers(len(compositions))]
    row = krawtchouk.symmetric_power_row(U, n_tilde)
    table = krawtchouk_genfun(n_tilde, N, U)
    assert list(table) == compositions
    assert table == {n: row[n] / multinomial(N, n) for n in compositions}


# -- the evaluators against test-local copies of their earlier forms ---------

def _admissible_matrices(row_budget, col_budget):
    """d x d non-negative integer matrices with row sums <= row_budget and
    column sums <= col_budget."""
    d = len(row_budget)
    cells = [(i, j) for i in range(d) for j in range(d)]
    mat = [[0] * d for _ in range(d)]
    rows = list(row_budget)
    cols = list(col_budget)

    def rec(c):
        if c == len(cells):
            yield [row[:] for row in mat]
            return
        i, j = cells[c]
        for v in range(min(rows[i], cols[j]) + 1):
            mat[i][j] = v
            rows[i] -= v
            cols[j] -= v
            yield from rec(c + 1)
            rows[i] += v
            cols[j] += v
        mat[i][j] = 0

    yield from rec(0)


def _reference_series(n, n_tilde, N, U):
    """The sum over every admissible matrix, with a fresh product per matrix."""
    U = np.asarray(U, dtype=complex)
    d = len(n) - 1
    if d == 0:
        return 1.0 + 0.0j
    omega = 1.0 - U
    total = 0.0 + 0.0j
    for A in _admissible_matrices(n_tilde[1:], n[1:]):
        rsum = [sum(row) for row in A]
        csum = [sum(A[i][j] for i in range(d)) for j in range(d)]
        num = 1
        for j in range(d):
            num *= pochhammer(-n[j + 1], csum[j])
        for i in range(d):
            num *= pochhammer(-n_tilde[i + 1], rsum[i])
        den = pochhammer(-N, sum(rsum))
        wprod = 1.0 + 0.0j
        for i in range(d):
            for j in range(d):
                a = A[i][j]
                if a:
                    den *= math.factorial(a)
                    wprod *= omega[i + 1, j + 1] ** a
        total += num / den * wprod
    return total


def _reference_power_row(M, beta):
    """The expansion on tuple keys, one slice per raised exponent."""
    rows = np.asarray(M, dtype=complex).tolist()
    nc = len(rows)
    poly = {(0,) * nc: 1.0 + 0.0j}
    for i, b in enumerate(beta):
        for _ in range(b):
            new = {}
            for mono, coeff in poly.items():
                for j, m in enumerate(rows[i]):
                    shifted = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    new[shifted] = new.get(shifted, 0.0 + 0.0j) + coeff * m
            poly = new
    return poly


def _bits(z):
    return complex(z).real.hex(), complex(z).imag.hex()


def _assert_same_bits(n, n_tilde, N, U):
    assert _bits(krawtchouk_series(n, n_tilde, N, U)) == _bits(_reference_series(n, n_tilde, N, U))
    ref = _reference_power_row(U, n_tilde)
    row = krawtchouk.symmetric_power_row(U, n_tilde)
    assert list(row) == enumerate_indices(N, len(n) - 1)
    assert {g: _bits(v) for g, v in row.items()} == {g: _bits(v) for g, v in ref.items()}
    table = krawtchouk_genfun(n_tilde, N, U)
    assert [_bits(v) for v in table.values()] == [_bits(ref[g] / multinomial(N, g)) for g in table]


# zeros of either sign in omega = 1 - U and in U itself, where a changed
# order of operations would flip the sign of a zero
SIGNED_ZEROS = np.array([[1, 1, 1], [1, 1, complex(-0.0, -0.0)], [1, complex(-0.0, 0.0), 0]])
BIT_SCHEMES = [trivial_scheme_2(), directed_ngon(3), directed_ngon(4), directed_ngon(5),
               ordered_word_scheme(2), ordered_word_scheme(3)]
BIT_MATRICES = [s.cosine for s in BIT_SCHEMES] + [SIGNED_ZEROS]


@pytest.mark.parametrize("case", range(len(BIT_MATRICES) + 4))
def test_evaluators_keep_the_bits_of_their_reference(case):
    rng = np.random.default_rng(case)
    if case < len(BIT_MATRICES):
        U = BIT_MATRICES[case]
    else:  # seeded random complex U, d = 1..4
        d = case - len(BIT_MATRICES) + 1
        U = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
    d = len(U) - 1
    for N in range(7):
        compositions = enumerate_indices(N, d)
        for _ in range(3):
            n, n_tilde = (compositions[rng.integers(len(compositions))] for _ in range(2))
            _assert_same_bits(n, n_tilde, N, U)


WIDE_MATRICES = [ordered_word_scheme(6).cosine, directed_ngon(7).cosine, directed_ngon(8).cosine,
                 SIGNED_ZEROS]


@pytest.mark.parametrize("case", range(len(WIDE_MATRICES) + 3))
def test_evaluators_keep_the_bits_of_their_reference_at_larger_d_and_N(case):
    # d = 5..7 and N = 7, 8: every layer of the expansion plan adds the terms
    # of each monomial in the order the reference's dict does
    rng = np.random.default_rng(100 + case)
    if case < len(WIDE_MATRICES):
        U = WIDE_MATRICES[case]
    else:  # seeded random complex U, d = 5..7
        d = case - len(WIDE_MATRICES) + 5
        U = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
    d = len(U) - 1
    for N in (7, 8):
        compositions = enumerate_indices(N, d)
        for _ in range(3):
            n, n_tilde = (compositions[rng.integers(len(compositions))] for _ in range(2))
            _assert_same_bits(n, n_tilde, N, U)


BIT_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(0, 3), N=st.integers(0, 4))
def test_evaluators_keep_the_bits_of_their_reference_random(data, d, N):
    entries = st.lists(st.builds(complex, BIT_ENTRIES, BIT_ENTRIES),
                       min_size=(d + 1) ** 2, max_size=(d + 1) ** 2)
    U = np.array(data.draw(entries), dtype=complex).reshape(d + 1, d + 1)
    compositions = st.sampled_from(enumerate_indices(N, d))
    _assert_same_bits(data.draw(compositions), data.draw(compositions), N, U)


def _assert_table_keeps_the_bits(N, U):
    # every pair of the table is the single value and the reference, bit for bit
    compositions = enumerate_indices(N, len(U) - 1)
    S = krawtchouk._series_table(N, U)
    assert S.shape == (len(compositions),) * 2
    for row, n_tilde in zip(S.tolist(), compositions):
        bits = [_bits(v) for v in row]
        assert bits == [_bits(krawtchouk_series(n, n_tilde, N, U)) for n in compositions]
        assert bits == [_bits(_reference_series(n, n_tilde, N, U)) for n in compositions]


@pytest.mark.parametrize("case", range(len(BIT_MATRICES)))
def test_series_table_keeps_the_bits_of_the_single_value(case):
    U = BIT_MATRICES[case]
    for N in range(5 if len(U) <= 4 else 4):
        _assert_table_keeps_the_bits(N, U)


@pytest.mark.parametrize("case", range(len(WIDE_MATRICES)))
def test_series_table_keeps_the_bits_at_larger_d(case):
    U = WIDE_MATRICES[case]
    for N in (2, 3) if len(U) <= 4 else (2,):
        _assert_table_keeps_the_bits(N, U)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), d=st.integers(0, 3), N=st.integers(0, 4))
def test_series_table_keeps_the_bits_random(data, d, N):
    entries = st.lists(st.builds(complex, BIT_ENTRIES, BIT_ENTRIES),
                       min_size=(d + 1) ** 2, max_size=(d + 1) ** 2)
    _assert_table_keeps_the_bits(N, np.array(data.draw(entries), dtype=complex).reshape(d + 1, d + 1))


@pytest.mark.parametrize("N, U", [(-1, HADAMARD), (1.5, HADAMARD), (2, np.ones((2, 3)))])
def test_series_table_rejects_bad_input(N, U):
    with pytest.raises(ValueError):
        krawtchouk._series_table(N, U)


@pytest.mark.parametrize("evaluate", [
    lambda: krawtchouk_series((1, 2, 0, 1), (2, 0, 1, 1), 4, directed_ngon(4).cosine),
    lambda: krawtchouk._series_table(3, ordered_word_scheme(3).cosine),
    lambda: oracle.run_suite("krawtchouk"),
], ids=["series", "table", "suite"])
def test_series_leaves_no_reference_cycle(evaluate):
    # a recursion that closes over nothing leaves nothing for the cycle
    # collector: a self-calling closure left 30 objects per series call
    evaluate()  # warm the caches that outlive the call
    gc.collect()
    gc.disable()
    try:
        evaluate()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_krawtchouk_matrix_builds_one_bounded_plan():
    # every row of the matrix is expanded on one shared plan, and the plan
    # cache holds a bounded number of (N, d) keys
    extension._power_plan.cache_clear()
    labels, K = krawtchouk._krawtchouk_matrix(6, directed_ngon(4).cosine)
    info = extension._power_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.maxsize is not None and 0 < info.maxsize < math.inf
    assert list(labels) == enumerate_indices(6, 3) and K.shape == (len(labels),) * 2


def test_cold_genfun_memory_is_bounded():
    # a cold call builds and caches the (20, 4) plan: one shared (row, slot)
    # tuple per term and one tuple of them per composition of n <= 20, about
    # 8 MiB, plus one layer's index arrays at the peak: 12.7 MiB measured
    # (a plan of one fresh pair tuple per term held about 25 MiB)
    U = directed_ngon(5).cosine
    extension._power_plan.cache_clear()
    tracemalloc.start()
    try:
        table = krawtchouk_genfun((4, 4, 4, 4, 4), 20, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == math.comb(24, 4)
    assert peak <= 15 * 2 ** 20


def test_evaluators_stay_independent(monkeypatch):
    # the series never expands the symmetric power, and the generating
    # function never sums over matrices, so each checks the other
    def fail(*args):
        raise AssertionError("one evaluator called the other's kernel")

    U = directed_ngon(4).cosine
    series = krawtchouk_series((1, 2, 0, 1), (2, 0, 1, 1), 4, U)
    table = krawtchouk_genfun((2, 0, 1, 1), 4, U)
    series_table = krawtchouk._series_table(4, U)
    with monkeypatch.context() as m:
        m.setattr(extension, "symmetric_power_row", fail)
        m.setattr(krawtchouk, "symmetric_power_row", fail)
        m.setattr(extension, "_expand", fail)
        m.setattr(krawtchouk, "_expand", fail)
        assert krawtchouk_series((1, 2, 0, 1), (2, 0, 1, 1), 4, U) == series
        assert np.array_equal(krawtchouk._series_table(4, U), series_table)
    monkeypatch.setattr(krawtchouk, "krawtchouk_series", fail)
    assert krawtchouk_genfun((2, 0, 1, 1), 4, U) == table
