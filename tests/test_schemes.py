import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    SchemeError,
    directed_ngon,
    intersection_numbers,
    ordered_word_scheme,
    trivial_scheme_2,
    validate_scheme,
)
from simplexwalk import schemes
from simplexwalk.schemes import CheckResult, ValidationReport


def test_trivial2_eigenmatrices():
    s = trivial_scheme_2()
    H = np.array([[1, 1], [1, -1]], dtype=complex)
    np.testing.assert_array_equal(s.first_eigenmatrix, H)
    np.testing.assert_array_equal(s.second_eigenmatrix, H)
    np.testing.assert_array_equal(s.cosine, H)
    assert s.valencies.tolist() == [1, 1]
    assert s.multiplicities.tolist() == [1, 1]


def test_trivial2_idempotent_eigen_relation():
    s = trivial_scheme_2()
    E1 = s.idempotent(1)
    np.testing.assert_allclose(s.adjacency[1] @ E1, -E1, atol=1e-15)
    E0 = s.idempotent(0)
    np.testing.assert_allclose(E0, np.full((2, 2), 0.25) * 2, atol=1e-15)


def test_trivial2_validates():
    assert validate_scheme(trivial_scheme_2()).ok


def test_ngon2_matches_trivial2():
    g2 = directed_ngon(2)
    t2 = trivial_scheme_2()
    for a, b in zip(g2.adjacency, t2.adjacency):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(g2.first_eigenmatrix, t2.first_eigenmatrix, atol=1e-15)


def test_ngon3_entry():
    g3 = directed_ngon(3)
    zeta2 = np.exp(4j * np.pi / 3)
    assert abs(g3.first_eigenmatrix[1, 2] - zeta2) < 1e-15


def test_ngon1_degenerate():
    g1 = directed_ngon(1)
    assert g1.classes == 1
    np.testing.assert_array_equal(g1.adjacency[0], np.eye(1, dtype=np.int64))
    np.testing.assert_array_equal(g1.first_eigenmatrix, np.eye(1, dtype=complex))


def test_ngon_rejects_zero():
    with pytest.raises(ValueError):
        directed_ngon(0)


@pytest.mark.parametrize("n", range(1, 33))
def test_ngon_validates(n):
    report = validate_scheme(directed_ngon(n))
    assert report.ok
    assert report.max_residual < 1e-12


def test_ngon_cosine_and_dual():
    g = directed_ngon(5)
    np.testing.assert_allclose(g.cosine, g.first_eigenmatrix, atol=1e-15)
    np.testing.assert_allclose(g.second_eigenmatrix, np.conj(g.first_eigenmatrix), atol=1e-15)


def test_ngon_transpose_map():
    g = directed_ngon(6)
    assert g.transpose_map == tuple((-k) % 6 for k in range(6))


def test_ow1_matches_trivial2():
    ow = ordered_word_scheme(1)
    t2 = trivial_scheme_2()
    for a, b in zip(ow.adjacency, t2.adjacency):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ow.first_eigenmatrix, t2.first_eigenmatrix)


def test_ow3_valencies():
    ow = ordered_word_scheme(3)
    assert ow.valencies.tolist() == [1, 1, 2, 4]
    assert ow.multiplicities.tolist() == [1, 1, 2, 4]


def test_ow2_axioms_brute_force():
    ow = ordered_word_scheme(2)
    eye = np.eye(4, dtype=np.int64)
    np.testing.assert_array_equal(ow.adjacency[0], eye)
    np.testing.assert_array_equal(sum(ow.adjacency), np.ones((4, 4), dtype=np.int64))
    for i, a in enumerate(ow.adjacency):
        assert any(np.array_equal(a.T, b) for b in ow.adjacency)
        for b in ow.adjacency:
            np.testing.assert_array_equal(a @ b, b @ a)
    assert validate_scheme(ow).ok


@pytest.mark.parametrize("d", range(1, 9))
def test_ow_validates(d):
    report = validate_scheme(ordered_word_scheme(d))
    assert report.ok
    assert report.max_residual < 1e-12


def test_max_residual_keeps_nan():
    report = ValidationReport((CheckResult("a", True, 0.0), CheckResult("b", False, float("nan"))))
    assert not report.ok
    assert np.isnan(report.max_residual)


def test_validation_report_prints_one_line_per_check():
    report = ValidationReport((CheckResult("a", True, 0.0), CheckResult("b", False, float("nan"))))
    assert str(report) == "a: pass (residual 0.000e+00)\nb: FAIL (residual nan)"
    report = validate_scheme(directed_ngon(3))
    lines = str(report).split("\n")
    assert len(lines) == len(report.checks) and all(": pass (residual " in line for line in lines)


def test_ow_classes_are_symmetric():
    ow = ordered_word_scheme(4)
    assert ow.transpose_map == (0, 1, 2, 3, 4)


def test_ngon_intersection_closed_form():
    n = 5
    g = directed_ngon(n)
    p = intersection_numbers(g)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert p[i, j, k] == (1 if (i + j) % n == k else 0)


def test_intersection_identity_slice():
    for s in (trivial_scheme_2(), directed_ngon(4), ordered_word_scheme(3)):
        p = s.intersection
        for i in range(s.classes):
            for k in range(s.classes):
                assert p[i, 0, k] == (1 if i == k else 0)


def test_ow3_first_class_is_involution():
    p = ordered_word_scheme(3).intersection
    assert p[1, 1, 0] == 1


def test_intersection_reconstructs_products():
    s = ordered_word_scheme(3)
    p = s.intersection
    for i in range(s.classes):
        for j in range(s.classes):
            lhs = s.adjacency[i] @ s.adjacency[j]
            rhs = sum(int(p[i, j, k]) * s.adjacency[k] for k in range(s.classes))
            np.testing.assert_array_equal(lhs, rhs)


def test_flipped_entry_fails_validation():
    s = directed_ngon(4)
    broken = [a.copy() for a in s.adjacency]
    broken[1][0, 1] = 0
    broken[1][0, 2] += 1  # keep the row sum so only the algebra axioms break
    broken = dataclasses.replace(s, adjacency=tuple(broken))
    report = validate_scheme(broken)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.passed}
    assert failed & {"transpose-closure", "commuting-integer-products", "partition-of-ones"}


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, bool, float, complex])
def test_as_int_matrix_reads_integral_input_of_any_type(dtype):
    # int and bool input is copied as int64 straight away; float and complex
    # input is rounded and checked
    ref = np.array([[1, 0], [0, 1]], dtype=np.int64)
    src = ref.astype(dtype)
    out = schemes._as_int_matrix(src)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, ref)
    assert not np.shares_memory(out, src)


@pytest.mark.parametrize("bad", [[[0.5, 1.0], [1.0, 0.0]], [[1 + 0.5j, 0], [0, 1]], [[1.0 + 1e-12, 0], [0, 1]]])
def test_as_int_matrix_rejects_non_integral_entries(bad):
    with pytest.raises(SchemeError, match="integer entries"):
        schemes._as_int_matrix(bad)


def test_partition_of_ones_needs_zero_one_entries():
    # on two points A_1 = 2S and A_2 = -S sum with A_0 = I to J, but their
    # products give p_11^0 = 4 and p_12^0 = -2; only 0/1 entries partition X x X
    eye = np.eye(2, dtype=np.int64)
    swap = eye[::-1].copy()
    broken = dataclasses.replace(directed_ngon(3), size=2, adjacency=(eye, 2 * swap, -swap))
    report = validate_scheme(broken)
    assert [c.name for c in report.checks] == CHECK_NAMES
    checks = {c.name: c for c in report.checks}
    assert checks["identity-class"].passed
    assert not checks["partition-of-ones"].passed
    assert checks["partition-of-ones"].residual == 1.0
    assert intersection_numbers(broken)[1, 1:, 0].tolist() == [4, -2]


def test_intersection_numbers_stay_exact_past_float32():
    # as above, A_0 + A_1 + A_2 = J on two points, now with A_1 = 4097 S and
    # A_2 = -4096 S; p_11^0 = 4097^2 = 16785409 is odd and above 2^24, so
    # float32 products cannot hold it
    eye = np.eye(2, dtype=np.int64)
    swap = eye[::-1].copy()
    broken = dataclasses.replace(directed_ngon(3), size=2, adjacency=(eye, 4097 * swap, -4096 * swap))
    assert intersection_numbers(broken)[1, 1:, 0].tolist() == [16785409, -16781312]


def test_intersection_raises_on_non_scheme():
    s = directed_ngon(3)
    broken = [a.copy() for a in s.adjacency]
    broken[1][0, 1] = 0
    broken = dataclasses.replace(s, adjacency=tuple(broken))
    with pytest.raises(SchemeError):
        intersection_numbers(broken)


def _perturbed(scheme, *entries):
    adjacency = [a.copy() for a in scheme.adjacency]
    for k, r, c, delta in entries:
        adjacency[k][r, c] += delta
    return adjacency


_EYE3 = np.eye(3, dtype=np.int64)
_SHIFT3 = np.roll(_EYE3, 1, axis=1)
_E01 = np.zeros((3, 3), dtype=np.int64)
_E01[0, 1] = 1
_E12 = np.zeros((3, 3), dtype=np.int64)
_E12[1, 2] = 1


@pytest.mark.parametrize("adjacency, message", [
    ([_EYE3, np.ones((3, 3), dtype=np.int64) - _EYE3, 0 * _EYE3], "relation 2 is empty"),
    ([_EYE3, _SHIFT3], "A_1 A_1 leaves the adjacency span"),
    ([_EYE3, _E01, _E12], "A_1 and A_2 do not commute"),
    (_perturbed(directed_ngon(4), (1, 0, 1, -1), (1, 0, 2, 1)),
     "A_0 A_1 is not constant on relation 2: not an association scheme"),
    (_perturbed(directed_ngon(3), (1, 0, 1, -1)),
     "A_1 A_1 is not constant on relation 2: not an association scheme"),
], ids=["empty", "span", "commute", "constant-ngon4", "constant-ngon3"])
def test_intersection_tensor_failure_messages(adjacency, message):
    with pytest.raises(SchemeError) as err:
        schemes._intersection_tensor(adjacency)
    assert str(err.value) == message


def test_intersection_tensor_tests_constancy_off_partitions():
    # A_1 and A_2 share their cells and hold entries other than 0/1; A_0 A_1 =
    # A_1 = 2 A_1 + 2 A_2 is in their span, yet it is not constant on relation 1
    eye = np.eye(2, dtype=np.int64)
    a1 = np.array([[0, 2], [4, 0]], dtype=np.int64)
    with pytest.raises(SchemeError) as err:
        schemes._intersection_tensor([eye, a1, -a1 // 2])
    assert str(err.value) == "A_0 A_1 is not constant on relation 1: not an association scheme"


@settings(max_examples=60, deadline=None)
@given(s=st.one_of(st.builds(directed_ngon, st.integers(1, 8)),
                   st.builds(ordered_word_scheme, st.integers(1, 4))),
       seed=st.integers(0, 2**32 - 1))
def test_intersection_numbers_invariant_under_relabelling(s, seed):
    perm = np.random.default_rng(seed).permutation(s.size)
    relabelled = dataclasses.replace(s, adjacency=tuple(a[perm][:, perm] for a in s.adjacency))
    np.testing.assert_array_equal(intersection_numbers(relabelled), s.intersection)
    # the whole report, bit for bit: the stacked exact checks and the
    # contractions see the same relations in another vertex order
    bits = [[(c.name, c.passed, float(c.residual).hex()) for c in validate_scheme(x).checks]
            for x in (s, relabelled)]
    assert bits[0] == bits[1]


def test_column_orthogonality():
    for s in (trivial_scheme_2(), directed_ngon(5), ordered_word_scheme(3)):
        m = s.multiplicities
        for k in range(s.classes):
            acc = sum(m[l] * np.conj(s.cosine[l, k]) for l in range(s.classes))
            expected = s.size if k == 0 else 0.0
            assert abs(acc - expected) < 1e-10


@pytest.mark.parametrize("build", [trivial_scheme_2, lambda: directed_ngon(6), lambda: ordered_word_scheme(4)])
def test_transpose_map_involution(build):
    s = build()
    t = s.transpose_map
    assert all(t[t[i]] == i for i in range(s.classes))
    assert all(s.valencies[t[i]] == s.valencies[i] for i in range(s.classes))


def test_adjacency_is_readonly():
    s = directed_ngon(3)
    with pytest.raises(ValueError):
        s.adjacency[0][0, 0] = 5


def _ow_class_by_words(d, j):
    # sum of the word matrices whose last one sits at position j
    eye, swap = np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]], dtype=np.int64)
    total = np.zeros((2 ** d, 2 ** d), dtype=np.int64)
    for word in itertools.product((0, 1), repeat=d):
        if max((t + 1 for t in range(d) if word[t]), default=0) == j:
            total += functools.reduce(np.kron, [swap if w else eye for w in word])
    return total


@pytest.mark.parametrize("d", range(1, 6))
def test_ow_classes_match_word_sums(d):
    ow = ordered_word_scheme(d)
    for j in range(d + 1):
        np.testing.assert_array_equal(ow.adjacency[j], _ow_class_by_words(d, j))
        assert ow.adjacency[j].dtype == np.int64


SPECTRAL_BUILDS = ([("trivial2", trivial_scheme_2)]
                   + [(f"ngon{n}", lambda n=n: directed_ngon(n)) for n in range(1, 33)]
                   + [(f"ow{d}", lambda d=d: ordered_word_scheme(d)) for d in range(1, 9)])


@pytest.mark.parametrize("build", [b for _, b in SPECTRAL_BUILDS], ids=[n for n, _ in SPECTRAL_BUILDS])
def test_spectral_data_match_dense_products(build):
    s = build()
    np.testing.assert_array_equal(s.intersection, intersection_numbers(s))
    assert s.intersection.dtype == np.int64
    dense = tuple(next(j for j, b in enumerate(s.adjacency) if np.array_equal(a.T, b))
                  for a in s.adjacency)
    assert s.transpose_map == dense


def test_construction_never_forms_dense_products(monkeypatch):
    def forbidden(adjacency):
        raise AssertionError("construction formed the dense intersection tensor")

    monkeypatch.setattr(schemes, "_intersection_tensor", forbidden)
    trivial_scheme_2()
    for n in range(1, 10):
        directed_ngon(n)
    for d in range(1, 7):
        ordered_word_scheme(d)


def test_mislabelled_eigenmatrices_fail_dense_cross_checks():
    g = directed_ngon(5)
    swap = [0, 2, 1, 3, 4]
    P = g.first_eigenmatrix[:, swap]
    Q = g.second_eigenmatrix[swap, :]
    s = schemes._make_scheme(g.adjacency, P, Q)
    report = validate_scheme(s)
    failed = {c.name for c in report.checks if not c.passed}
    assert {"commuting-integer-products", "transpose-closure"} <= failed


def test_non_integral_structure_constants_rejected():
    # PQ = 3 I with integral valencies and multiplicities, yet p_00^0 = 3/4
    P = [[1, 2], [0.5, -2]]
    Q = [[2, 2], [0.5, -1]]
    adjacency = [np.eye(3, dtype=np.int64), np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)]
    with pytest.raises(SchemeError, match="intersection numbers are not integers"):
        schemes._make_scheme(adjacency, P, Q)


@pytest.mark.parametrize("hits", [[[1, 0], [0, 0]], [[1, 0], [1, 1]]])
def test_transpose_map_needs_one_hit_per_row(hits):
    inter = np.zeros((2, 2, 2), dtype=np.int64)
    inter[:, :, 0] = hits
    with pytest.raises(SchemeError, match="exactly one"):
        schemes._spectral_transpose(inter)


CHECK_NAMES = [
    "identity-class", "partition-of-ones", "transpose-closure", "commuting-integer-products",
    "eigenmatrix-inverse", "adjacency-reconstruction", "idempotency", "eigen-relation",
    "valency-row", "multiplicity-row", "cosine-duality", "column-orthogonality",
]


def _dense_spectral_residuals(s):
    """Reference for the algebra-level checks: every idempotent E_j formed as
    an |X| x |X| matrix and every relation checked entry by entry."""
    nc, P, Q, m = s.classes, s.first_eigenmatrix, s.second_eigenmatrix, s.multiplicities
    E = [s.idempotent(j) for j in range(nc)]
    pairs = [(i, j) for i in range(nc) for j in range(nc)]
    return {
        "adjacency-reconstruction": np.max([
            np.abs(s.adjacency[i] - sum(P[j, i] * E[j] for j in range(nc))).max() for i in range(nc)]),
        "idempotency": np.max([np.abs(E[i] @ E[j] - (E[i] if i == j else 0)).max() for i, j in pairs]),
        "eigen-relation": np.max([np.abs(s.adjacency[i] @ E[j] - P[j, i] * E[j]).max() for i, j in pairs]),
        "cosine-duality": np.max([abs(s.cosine[i, j] - np.conj(Q[j, i]) / m[i]) for i, j in pairs]),
        "column-orthogonality": np.max([
            abs(sum(m[l] * np.conj(s.cosine[l, k]) for l in range(nc)) - (s.size if k == 0 else 0))
            for k in range(nc)]),
    }


def _assert_matches_dense(s):
    report = validate_scheme(s)
    assert [c.name for c in report.checks] == CHECK_NAMES
    dense = _dense_spectral_residuals(s)
    for c in report.checks:
        if c.name in dense:
            assert c.passed == (dense[c.name] <= schemes.SPECTRAL_TOL), c.name
            assert abs(c.residual - dense[c.name]) <= 1e-13, c.name
    return report


@pytest.mark.parametrize("build", [b for _, b in SPECTRAL_BUILDS], ids=[n for n, _ in SPECTRAL_BUILDS])
def test_validation_matches_dense_idempotents(build):
    assert _assert_matches_dense(build()).ok


@pytest.mark.parametrize("build", [lambda n=n: directed_ngon(n) for n in range(1, 9)]
                         + [lambda d=d: ordered_word_scheme(d) for d in range(1, 5)],
                         ids=[f"ngon{n}" for n in range(1, 9)] + [f"ow{d}" for d in range(1, 5)])
def test_validation_matches_dense_idempotents_on_mutants(build):
    s = build()
    rng = np.random.default_rng(s.size * 100 + s.classes)
    for field in ("first_eigenmatrix", "second_eigenmatrix"):
        for delta in (1e-6, 1e-9):
            M = getattr(s, field).copy()
            M[tuple(rng.integers(s.classes, size=2))] += delta
            report = _assert_matches_dense(dataclasses.replace(s, **{field: M}))
            assert delta < 1e-6 or not report.ok
    shuffled = s.first_eigenmatrix[rng.permutation(s.classes)]
    _assert_matches_dense(dataclasses.replace(s, first_eigenmatrix=shuffled))


def test_validation_forms_no_idempotent(monkeypatch):
    def forbidden(self, j):
        raise AssertionError("validate_scheme formed a dense idempotent")

    monkeypatch.setattr(schemes.AssociationScheme, "idempotent", forbidden)
    for s in (trivial_scheme_2(), directed_ngon(5), ordered_word_scheme(3)):
        assert validate_scheme(s).ok


def test_non_scheme_fails_algebra_checks_with_inf():
    s = directed_ngon(3)
    broken = [a.copy() for a in s.adjacency]
    broken[1][0, 1] = 0
    with pytest.raises(SchemeError):
        schemes._intersection_tensor(broken)
    report = validate_scheme(dataclasses.replace(s, adjacency=tuple(broken)))
    checks = {c.name: c for c in report.checks}
    for name in ("commuting-integer-products", "idempotency", "eigen-relation"):
        assert checks[name].residual == float("inf")
        assert not checks[name].passed


@pytest.mark.parametrize("build, field, entry", [
    (lambda: directed_ngon(3), "cosine", (1, 1)),
    (lambda: ordered_word_scheme(2), "second_eigenmatrix", (2, 1)),
], ids=["ngon3-cosine", "ow2-Q"])
def test_nan_spectral_entry_fails_validation(build, field, entry):
    s = build()
    M = getattr(s, field).copy()
    M[entry] = np.nan
    report = validate_scheme(dataclasses.replace(s, **{field: M}))
    assert not report.ok
    assert np.isnan(report.max_residual)


def _reference_ngon(n):
    """directed_ngon's relations and eigenmatrices, by n^2 unit-root calls."""
    adjacency = [np.roll(np.eye(n, dtype=np.int64), k, axis=1) for k in range(n)]
    P = np.array([[schemes.unit_root(k * l, n) for l in range(n)] for k in range(n)])
    return adjacency, P, np.conj(P)


def _reference_ow(d):
    """ordered_word_scheme's relations and eigenmatrices, by d-fold Kronecker products."""
    eye = np.eye(2, dtype=np.int64)
    swap = eye[::-1].copy()
    adjacency = [functools.reduce(np.kron, [eye] * d)] + [
        functools.reduce(np.kron, [eye + swap] * (j - 1) + [swap] + [eye] * (d - j)) for j in range(1, d + 1)]
    k = np.array([1] + [2 ** (j - 1) for j in range(1, d + 1)], dtype=np.int64)
    i, j = np.indices((d + 1, d + 1))
    C = np.where(i + j <= d, 1.0, np.where(i + j == d + 1, -1.0, 0.0))
    return adjacency, C * k[np.newaxis, :], (C * k[:, np.newaxis]).T


def _reference_fields(adjacency, P, Q):
    """Spectral data, dense structure constants and residuals through float64
    products and einsums with ``optimize=True``."""
    size, nc = len(adjacency[0]), len(adjacency)
    P, Q = np.asarray(P, dtype=complex), np.asarray(Q, dtype=complex)
    k, m = np.rint(P[0].real).astype(np.int64), np.rint(Q[0].real).astype(np.int64)
    C = P / k[np.newaxis, :]
    raw = np.einsum("l,li,lj,lk->ijk", m, P, P, np.conj(P), optimize=True) / (size * k)
    inter = np.rint(raw.real).astype(np.int64)
    A = np.array(adjacency, dtype=float)
    first = [int(np.flatnonzero(a)[0]) for a in A]
    p = np.array([[(A[i] @ A[j]).flat[first] for j in range(nc)] for i in range(nc)]).astype(np.int64)
    eye = np.eye(nc)
    Qn = Q / size
    idem = np.einsum("ki,lj,klm->ijm", Qn, Qn, p, optimize=True) - eye[:, :, None] * Qn.T[:, None, :]
    eigrel = np.einsum("kj,ikm->ijm", Qn, p, optimize=True) - P.T[:, :, None] * Qn.T[None, :, :]
    # the three combinatorial checks read 0 on a scheme
    residuals = [0.0, 0.0, 0.0, float(np.abs(p - inter).max())] + [float(np.abs(r).max()) for r in (
        P @ Q - size * eye, eye - Q @ P / size, idem, eigrel, P[0] - k, Q[0] - m,
        C - np.conj(Q).T / m[:, None], m @ np.conj(C) - size * eye[0])]
    return {"P": P, "Q": Q, "C": C, "k": k, "m": m, "intersection": inter, "tensor": p,
            "residuals": np.array(residuals)}


def _hex(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return [_hex(a.real), _hex(a.imag)]
    return [float(x).hex() for x in a.ravel()]


BITWISE_BUILDS = ([("trivial2", trivial_scheme_2, lambda: _reference_ow(1))]
                  + [(f"ngon{n}", functools.partial(directed_ngon, n), functools.partial(_reference_ngon, n))
                     for n in range(1, 41)]
                  + [(f"ow{d}", functools.partial(ordered_word_scheme, d), functools.partial(_reference_ow, d))
                     for d in range(1, 9)])


@pytest.mark.parametrize("build, reference", [b[1:] for b in BITWISE_BUILDS],
                         ids=[b[0] for b in BITWISE_BUILDS])
def test_scheme_bits_match_float64_reference(build, reference):
    # float32 products, fixed contraction paths and the gathered roots and
    # Kronecker factors give every bit of the float64 / optimize=True path
    s = build()
    adjacency, P, Q = reference()
    for a, b in zip(s.adjacency, adjacency):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype
    ref = _reference_fields(adjacency, P, Q)
    report = validate_scheme(s)
    assert report.ok
    ours = {"P": s.first_eigenmatrix, "Q": s.second_eigenmatrix, "C": s.cosine, "k": s.valencies,
            "m": s.multiplicities, "intersection": s.intersection, "tensor": intersection_numbers(s),
            "residuals": [c.residual for c in report.checks]}
    for name, value in ours.items():
        assert np.shape(value) == np.shape(ref[name]), name
        assert _hex(value) == _hex(ref[name]), name


@pytest.mark.parametrize("field, value", [
    ("adjacency", directed_ngon(4).adjacency[:3]),
    ("transpose_map", (0, 3, 2)),
    ("valencies", np.ones(3, dtype=np.int64)),
    ("multiplicities", np.ones((4, 1), dtype=np.int64)),
    ("first_eigenmatrix", np.eye(3, dtype=complex)),
    ("cosine", np.eye(4, dtype=complex)[:, :3]),
    ("intersection", np.zeros((4, 4), dtype=np.int64)),
], ids=["adjacency", "transpose_map", "valencies", "multiplicities", "P", "cosine", "intersection"])
def test_misshaped_field_is_named(field, value):
    with pytest.raises(ValueError) as err:
        validate_scheme(dataclasses.replace(directed_ngon(4), **{field: value}))
    assert str(err.value) == f"dimension mismatch between {field} and classes"


@pytest.mark.parametrize("tmap", [(0, 3, 2, 4), (0, -1, 2, 1), (0, 3, 2, 1.5), (0, 3, None, 1)],
                         ids=["past-d", "negative", "fraction", "none"])
def test_bad_transpose_map_entry_fails_transpose_closure(tmap):
    report = validate_scheme(dataclasses.replace(directed_ngon(4), transpose_map=tmap))
    checks = {c.name: c for c in report.checks}
    assert not checks["transpose-closure"].passed
    assert checks["transpose-closure"].residual == 1.0
    assert all(c.passed for c in report.checks if c.name != "transpose-closure")


@pytest.mark.parametrize("offset, accepted", [
    (2e-9, False), (2e-9j, False), (5e-10, True), (5e-10j, True),
    # each part is tested on its own, so this entry 1.13e-9 from 3 is accepted
    (8e-10 + 8e-10j, True),
])
def test_rounded_integers_tolerance(offset, accepted):
    values = np.array([1, 3 + offset, 0], dtype=complex)
    if accepted:
        assert schemes._rounded_integers(values, "valencies", 0).tolist() == [1, 3, 0]
        return
    with pytest.raises(SchemeError) as err:
        schemes._rounded_integers(values, "valencies", 0)
    assert str(err.value) == f"valencies are not integers: {values}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [("P", 1, 1), ("P", 0, 1), ("Q", 2, 1)])
def test_nan_spectral_data_is_refused_before_any_cast(entry):
    g = directed_ngon(3)
    mats = {"P": np.array(g.first_eigenmatrix), "Q": np.array(g.second_eigenmatrix)}
    name, i, j = entry
    mats[name][i, j] = np.nan
    with pytest.raises(SchemeError, match=r"PQ != \|X\| I \(residual nan\)"):
        schemes._make_scheme(g.adjacency, mats["P"], mats["Q"])
    values = np.array([1, np.nan, 2], dtype=complex)
    with pytest.raises(SchemeError) as err:
        schemes._rounded_integers(values, "valencies", 1)
    assert str(err.value) == f"valencies are not integers: {values}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.inf * 1j], ids=["inf", "-inf", "inf*1j"])
def test_infinite_entries_are_refused_without_a_warning(entry):
    # inf - rint(inf) is NaN with an "invalid value" RuntimeWarning, which
    # warnings as errors turned into the raised exception
    values = np.array([1, entry], dtype=complex)
    with pytest.raises(SchemeError) as err:
        schemes._rounded_integers(values, "valencies", 1)
    assert str(err.value) == f"valencies are not integers: {values}"


def test_rounded_integers_lower_bound_message():
    with pytest.raises(SchemeError) as err:
        schemes._rounded_integers(np.array([1, 0], dtype=complex), "multiplicities", 1)
    assert str(err.value) == "multiplicities must be at least 1: [1 0]"
