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


@settings(max_examples=60, deadline=None)
@given(s=st.one_of(st.builds(directed_ngon, st.integers(1, 8)),
                   st.builds(ordered_word_scheme, st.integers(1, 4))),
       seed=st.integers(0, 2**32 - 1))
def test_intersection_numbers_invariant_under_relabelling(s, seed):
    perm = np.random.default_rng(seed).permutation(s.size)
    relabelled = dataclasses.replace(s, adjacency=tuple(a[perm][:, perm] for a in s.adjacency))
    np.testing.assert_array_equal(intersection_numbers(relabelled), s.intersection)


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
