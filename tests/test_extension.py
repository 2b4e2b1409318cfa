import json
import math

import numpy as np
import pytest

from simplexwalk import (
    class_valency,
    directed_ngon,
    enumerate_indices,
    extension_cosine,
    extension_scheme,
    indices_json,
    materialize_class,
    materialize_idempotent,
    multinomial,
    multiset_arrangements,
    ordered_word_scheme,
    trivial_scheme_2,
)
from simplexwalk import extension, walk
from simplexwalk.extension import class_table, symmetric_power_row


def test_enumerate_counts():
    assert len(enumerate_indices(3, 2)) == 10
    for N in range(6):
        for d in range(4):
            assert len(enumerate_indices(N, d)) == math.comb(N + d, d)


def test_enumerate_degenerate():
    assert enumerate_indices(0, 3) == [(0, 0, 0, 0)]
    assert enumerate_indices(4, 0) == [(4,)]


def test_enumerate_order():
    assert enumerate_indices(2, 1) == [(2, 0), (1, 1), (0, 2)]
    idx = enumerate_indices(3, 2)
    assert idx[0] == (3, 0, 0)
    assert idx == sorted(idx, reverse=True)
    assert all(sum(b) == 3 for b in idx)
    assert len(set(idx)) == len(idx)


def test_multinomial_values():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(5, (5, 0, 0)) == 1
    assert multinomial(5, (2, 2, 1)) == 30
    assert multinomial(40, (20, 20)) == math.comb(40, 20)
    big = (300, 0, 457, 183)
    assert multinomial(940, big) == math.factorial(940) // math.prod(math.factorial(b) for b in big)


def test_multinomial_mismatch():
    with pytest.raises(ValueError):
        multinomial(4, (1, 1, 1))


def test_arrangement_enumeration():
    arr = list(multiset_arrangements((1, 2)))
    assert arr == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert arr == sorted(arr)
    assert len(list(multiset_arrangements((2, 2, 1)))) == multinomial(5, (2, 2, 1))


def test_class_valency_ngon_is_multinomial():
    ext = extension_scheme(directed_ngon(3), 3)
    for beta in ext.index_set:
        kb = class_valency(ext, beta)
        assert kb == multinomial(3, beta)
        A = materialize_class(ext, beta)
        assert set(np.unique(A)) <= {0, 1}
        np.testing.assert_array_equal(A.sum(axis=1), np.full(27, kb))


def test_class_valency_identity_class():
    ext = extension_scheme(ordered_word_scheme(3), 4)
    assert class_valency(ext, (4, 0, 0, 0)) == 1


def test_class_valency_ow_with_row_sums():
    ext = extension_scheme(ordered_word_scheme(2), 2)
    beta = (0, 0, 2)
    assert class_valency(ext, beta) == 4
    A = materialize_class(ext, beta)
    np.testing.assert_array_equal(A.sum(axis=1), np.full(16, 4))


def test_materialize_identity():
    ext = extension_scheme(trivial_scheme_2(), 3)
    np.testing.assert_array_equal(materialize_class(ext, (3, 0)), np.eye(8, dtype=np.int64))


def test_materialized_classes_partition():
    for base, N in ((directed_ngon(3), 2), (trivial_scheme_2(), 3), (ordered_word_scheme(2), 2)):
        ext = extension_scheme(base, N)
        size = base.size ** N
        total = sum(materialize_class(ext, beta) for beta in ext.index_set)
        np.testing.assert_array_equal(total, np.ones((size, size), dtype=np.int64))
        mats = [materialize_class(ext, beta) for beta in ext.index_set]
        for i, a in enumerate(mats):
            for b in mats[i + 1:]:
                assert not np.any(a & b)
                np.testing.assert_array_equal(a @ b, b @ a)


def test_valencies_partition_size():
    for base, N in ((directed_ngon(4), 3), (ordered_word_scheme(3), 2)):
        ext = extension_scheme(base, N)
        assert sum(class_valency(ext, b) for b in ext.index_set) == base.size ** N


def test_ngon2_class_row_sums():
    ext = extension_scheme(directed_ngon(3), 2)
    A = materialize_class(ext, (0, 1, 1))
    np.testing.assert_array_equal(A.sum(axis=1), np.full(9, 2))


def test_materialize_guard(monkeypatch):
    ext = extension_scheme(trivial_scheme_2(), 3)
    monkeypatch.setenv("SIMPLEXWALK_GUARD", "4")
    with pytest.raises(ValueError):
        materialize_class(ext, (3, 0))
    monkeypatch.delenv("SIMPLEXWALK_GUARD")
    materialize_class(ext, (3, 0))


@pytest.mark.parametrize("value", ["abc", "-3", "0", "2.5"])
def test_size_guard_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("SIMPLEXWALK_GUARD", value)
    with pytest.raises(ValueError) as err:
        extension.size_guard()
    assert str(err.value) == f"SIMPLEXWALK_GUARD must be a positive integer, got {value!r}"
    monkeypatch.setenv("SIMPLEXWALK_GUARD", "7")
    assert extension.size_guard() == 7


def test_extension_cosine_trivial_rows():
    ext = extension_scheme(directed_ngon(3), 2)
    top = (2, 0, 0)
    for beta in ext.index_set:
        assert abs(extension_cosine(ext, top, beta) - 1) < 1e-12
        assert abs(extension_cosine(ext, beta, top) - 1) < 1e-12


def _dense_cosine(E, A, k_beta):
    idx = np.unravel_index(np.abs(E).argmax(), E.shape)
    eigenvalue = (A @ E)[idx] / E[idx]
    return eigenvalue / k_beta


@pytest.mark.parametrize("N", [1, 2, 3])
def test_extension_cosine_against_dense(N):
    ext = extension_scheme(directed_ngon(3), N)
    classes = {b: materialize_class(ext, b).astype(complex) for b in ext.index_set}
    worst = 0.0
    for alpha in ext.index_set:
        E = materialize_idempotent(ext, alpha)
        for beta in ext.index_set:
            dense = _dense_cosine(E, classes[beta], class_valency(ext, beta))
            worst = max(worst, abs(dense - extension_cosine(ext, alpha, beta)))
    assert worst < 1e-9


def test_idempotent_trace_is_multiplicity():
    ext = extension_scheme(ordered_word_scheme(2), 2)
    for alpha in ext.index_set:
        E = materialize_idempotent(ext, alpha)
        m = multinomial(2, alpha) * math.prod(
            int(v) ** a for v, a in zip(ext.base.multiplicities, alpha)
        )
        assert abs(np.trace(E) - m) < 1e-9
        np.testing.assert_allclose(E @ E, E, atol=1e-12)


def test_indices_json_roundtrip():
    ext = extension_scheme(directed_ngon(3), 2)
    payload = json.dumps(indices_json(ext))
    assert json.loads(payload) == [list(b) for b in ext.index_set]


def test_symmetric_power_row_two_by_two():
    # (a x0 + b x1)(c x0 + d x1) = ac x0^2 + (ad + bc) x0 x1 + bd x1^2
    a, b, c, d = 2.0, 3.0 - 1.0j, 0.5j, 5.0
    row = symmetric_power_row([[a, b], [c, d]], (1, 1))
    assert row == {(2, 0): a * c, (1, 1): a * d + b * c, (0, 2): b * d}
    assert symmetric_power_row([[a, b], [c, d]], (0, 0)) == {(0, 0): 1.0}


def test_symmetric_power_row_sums_to_row_product():
    # evaluating the expansion at x = 1 gives prod_i (sum_j M[i,j])^beta_i
    rng = np.random.default_rng(7)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    beta = (2, 0, 1, 3)
    row = symmetric_power_row(M, beta)
    assert set(row) == set(enumerate_indices(6, 3))
    expected = np.prod(M.sum(axis=1) ** np.array(beta))
    assert abs(sum(row.values()) - expected) < 1e-10 * abs(expected)


@pytest.mark.parametrize("base, N", [(ordered_word_scheme(3), 4), (directed_ngon(4), 0),
                                     (trivial_scheme_2(), 7)])
def test_class_table_matches_exact_bookkeeping(base, N):
    table = class_table(base, N)
    ext = extension_scheme(base, N)
    assert table.order == tuple(enumerate_indices(N, base.d)) == ext.index_set
    assert table.position == {beta: i for i, beta in enumerate(table.order)}
    np.testing.assert_array_equal(table.index, np.array(table.order))
    assert table.valency.tolist() == [float(class_valency(ext, b)) for b in table.order]
    assert table.multinomial.tolist() == [float(multinomial(N, b)) for b in table.order]


def test_class_table_shared_by_equal_valencies():
    # the table depends on N, d and the base valencies only
    assert class_table(directed_ngon(3), 5) is class_table(directed_ngon(3), 5)
    assert class_table(directed_ngon(3), 5) is not class_table(directed_ngon(3), 4)


def test_amplitudes_compute_valencies_once_per_table(monkeypatch):
    # one exact multinomial per class per build; the valency is derived from it
    spec = walk.walk_spec(directed_ngon(3), 17, walk.canonical_ngon_weights(3))
    calls = []
    exact = extension.multinomial

    def counting(N, beta):
        calls.append(beta)
        return exact(N, beta)

    monkeypatch.setattr(extension, "multinomial", counting)
    extension._class_table.cache_clear()
    for t in (0.1, 0.2, 0.3):
        walk.amplitudes(spec, t)
    assert len(calls) == math.comb(17 + 2, 2)
