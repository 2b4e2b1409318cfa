import dataclasses
import functools
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    ExtensionScheme,
    directed_ngon,
    enumerate_indices,
    extension_scheme,
    materialize_class,
    multinomial,
    ordered_word_scheme,
    trivial_scheme_2,
)
from simplexwalk import detect, extension, krawtchouk, oracle, walk
from simplexwalk.extension import (
    _expand,
    _givens_state,
    _index_matrix,
    _power_plan,
    _rank,
    _symmetric_power_state,
)


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
    for N in range(7):
        for d in range(4):
            every = [b for b in itertools.product(range(N + 1), repeat=d + 1) if sum(b) == N]
            assert enumerate_indices(N, d) == sorted(every, reverse=True)


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


def _class_valency(ext, beta):
    """k_beta = multinomial(N; beta) * prod_i k_i^beta_i, exact."""
    return multinomial(ext.copies, beta) * math.prod(int(k) ** b for k, b in zip(ext.base.valencies, beta))


def test_class_valency_ngon_is_multinomial():
    ext = extension_scheme(directed_ngon(3), 3)
    for beta, kb in zip(ext.index_set, ext.valency):
        assert kb == multinomial(3, beta)
        A = materialize_class(ext, beta)
        assert set(np.unique(A)) <= {0, 1}
        np.testing.assert_array_equal(A.sum(axis=1), np.full(27, kb))


def test_class_valency_identity_class():
    ext = extension_scheme(ordered_word_scheme(3), 4)
    assert ext.valency[_rank((4, 0, 0, 0), 4)] == 1


def test_class_valency_ow_with_row_sums():
    ext = extension_scheme(ordered_word_scheme(2), 2)
    beta = (0, 0, 2)
    assert ext.valency[_rank(beta, 2)] == 4
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
        assert ext.valency.sum() == base.size ** N


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


def test_large_hypercube_class_is_hamming_distance():
    # multinomial(10; 5, 5) = 252 arrangements; the class is read off the
    # per-copy relation counts in one pass, whatever that number
    ext = extension_scheme(trivial_scheme_2(), 10)
    v = np.arange(2 ** 10)
    expected = (np.bitwise_count(v[:, None] ^ v[None, :]) == 5).astype(np.int64)
    A = materialize_class(ext, (5, 5))
    assert A.dtype == np.int64
    np.testing.assert_array_equal(A, expected)


@pytest.mark.parametrize("value", ["abc", "-3", "0", "2.5"])
def test_size_guard_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("SIMPLEXWALK_GUARD", value)
    with pytest.raises(ValueError) as err:
        oracle.size_guard()
    assert str(err.value) == f"SIMPLEXWALK_GUARD must be a positive integer, got {value!r}"
    monkeypatch.setenv("SIMPLEXWALK_GUARD", "7")
    assert oracle.size_guard() == 7


def test_extension_cosine_trivial_rows():
    ext = extension_scheme(directed_ngon(3), 2)
    top = (2, 0, 0)
    for beta in ext.index_set:
        assert abs(krawtchouk.krawtchouk_series(beta, top, 2, ext.base.cosine) - 1) < 1e-12
        assert abs(krawtchouk.krawtchouk_series(top, beta, 2, ext.base.cosine) - 1) < 1e-12


def _dense_idempotent(ext, alpha):
    """The primitive idempotent alpha of the power scheme: the sum over the
    distinct arrangements of alpha of the Kronecker products of the base
    idempotents."""
    base_idem = [ext.base.idempotent(j) for j in range(ext.base.classes)]
    slots = [j for j, a in enumerate(alpha) for _ in range(a)]
    return sum(functools.reduce(np.kron, [base_idem[j] for j in arrangement], np.eye(1, dtype=complex))
               for arrangement in sorted(set(itertools.permutations(slots))))


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
        E = _dense_idempotent(ext, alpha)
        for beta in ext.index_set:
            dense = _dense_cosine(E, classes[beta], _class_valency(ext, beta))
            worst = max(worst, abs(dense - krawtchouk.krawtchouk_series(beta, alpha, N, ext.base.cosine)))
    assert worst < 1e-9


def test_idempotent_trace_is_multiplicity():
    ext = extension_scheme(ordered_word_scheme(2), 2)
    for alpha in ext.index_set:
        E = _dense_idempotent(ext, alpha)
        m = multinomial(2, alpha) * math.prod(
            int(v) ** a for v, a in zip(ext.base.multiplicities, alpha)
        )
        assert abs(np.trace(E) - m) < 1e-9
        np.testing.assert_allclose(E @ E, E, atol=1e-12)


@pytest.mark.parametrize("base, N", [(ordered_word_scheme(3), 4), (directed_ngon(4), 0),
                                     (trivial_scheme_2(), 7)]
                         # up to the sizes the sweeps reach
                         + [(trivial_scheme_2(), N) for N in (0, 1, 2, 100, 500, 940, 975)]
                         + [(directed_ngon(3), N) for N in range(41)]
                         + [(ordered_word_scheme(4), N) for N in range(9)]
                         # either side of 2^N = 2^1024: the valencies still fit
                         + [(trivial_scheme_2(), N) for N in (1023, 1024)]
                         # one class, whose multinomial reads no binomial row
                         + [(directed_ngon(1), N) for N in (66, 67, 200)])
def test_class_table_matches_exact_bookkeeping(base, N):
    table = extension_scheme(base, N)
    assert table.index_set == tuple(enumerate_indices(N, base.d))
    np.testing.assert_array_equal(table.index, np.array(table.index_set))
    np.testing.assert_array_equal(_rank(table.index, N), np.arange(table.dimension))
    assert table.valency.tolist() == [float(_class_valency(table, b)) for b in table.index_set]
    assert table.multinomial.tolist() == [float(multinomial(N, b)) for b in table.index_set]


@settings(max_examples=60, deadline=None)
@given(d=st.integers(0, 5), N=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_rank_is_the_row_of_each_composition(d, N, seed):
    index = _index_matrix(N, d)
    np.testing.assert_array_equal(_rank(index, N), np.arange(len(index)))
    rows = np.random.default_rng(seed).integers(len(index), size=(3, 4))
    np.testing.assert_array_equal(_rank(index[rows], N), rows)


@pytest.mark.parametrize("spec", [
    walk.walk_spec(directed_ngon(3), 3, walk.canonical_ngon_weights(3)),
    walk.walk_spec(directed_ngon(4), 0, walk.canonical_ngon_weights(4)),
    walk.walk_spec(ordered_word_scheme(2), 2, [0.5, 0.5]),
    walk.walk_spec(trivial_scheme_2(), 4, [1.0]),
], ids=["ngon3-N3", "ngon4-N0", "ow2-N2", "trivial2-N4"])
def test_walk_table_is_the_extension_scheme(spec):
    # a walk's own table and a fresh build agree field by field, and every
    # index-level function reads either the same way
    table, ext = spec.table, extension_scheme(spec.base, spec.copies)
    assert type(table) is ExtensionScheme and table is not ext
    for field in dataclasses.fields(ExtensionScheme):
        mine, fresh = getattr(table, field.name), getattr(ext, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.dtype == fresh.dtype and mine.shape == fresh.shape
            assert mine.tobytes() == fresh.tobytes() and not mine.flags.writeable
        else:
            assert mine == fresh, field.name
    assert table.base is spec.base and table.copies == spec.copies
    for beta in ext.index_set:
        assert materialize_class(table, beta).tobytes() == materialize_class(ext, beta).tobytes()


def test_walk_builds_its_class_table_once(monkeypatch):
    # 12 specs visited round-robin, each with amplitudes and an evolution:
    # a process-wide cache smaller than the working set would rebuild them
    builds = []

    def counting(base, N):
        builds.append((id(base), N))
        return extension.extension_scheme(base, N)

    monkeypatch.setattr(walk, "extension_scheme", counting)
    specs = [walk.walk_spec(directed_ngon(3), N, walk.canonical_ngon_weights(3)) for N in range(1, 13)]
    for _ in range(3):
        for spec in specs:
            walk.amplitudes(spec, 0.4)
            walk.evolve_projected(walk.projected_matrix(spec), 0.4, (spec.copies, 0, 0))
    assert len(builds) == len(specs)


def test_amplitudes_compute_valencies_once_per_table(monkeypatch):
    # three amplitudes calls on one spec build its class table once; the
    # build reads binomial rows and calls neither multinomial nor math.comb
    def fail(*args):
        raise AssertionError("the class table build called an exact per-class helper")

    spec = walk.walk_spec(directed_ngon(3), 17, walk.canonical_ngon_weights(3))
    monkeypatch.setattr(extension, "multinomial", fail)
    monkeypatch.setattr(math, "comb", fail)
    for t in (0.1, 0.2, 0.3):
        walk.amplitudes(spec, t)
    assert spec.table is walk.projected_matrix(spec).table


def test_class_table_past_the_float_range_raises_value_error():
    # multinomial(700; 233, 233, 234) is about 1.1e331; trivial2 at N = 1024
    # still fits, C(1024, 512) being about 4.5e306
    with pytest.raises(ValueError, match=r"N = 700 exceed the float range"):
        extension_scheme(directed_ngon(3), 700)
    assert extension_scheme(trivial_scheme_2(), 1024).valency.max() == float(math.comb(1024, 512))


def test_class_table_build_leaves_no_garbage_cycles():
    gc.collect()
    gc.disable()
    try:
        table = extension_scheme(trivial_scheme_2(), 940)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(table.index_set) == 941


def _random_unitary(seed, d):
    # exp(-i h) for a random Hermitian h, by eigh of h
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d + 1, d + 1)) + 1j * rng.normal(size=(d + 1, d + 1))
    vals, vecs = np.linalg.eigh(a + a.conj().T)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def _rescaled_row(V, start, table):
    # the expansion reference: row ``start`` of Sym^N(V) on the normalised
    # states, from the term-by-term expansion keyed by exponent
    layers, labels, _ = _power_plan(table.copies, table.base.d)
    row = dict(zip(labels, _expand(V.tolist(), start, layers)))
    scale = np.sqrt(table.multinomial[_rank(start, table.copies)] / table.multinomial)
    return np.array([row[g] for g in table.index_set]) * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(0, 4), N=st.integers(0, 6))
def test_symmetric_power_state_matches_expansion(seed, d, N):
    V = _random_unitary(seed, d)
    table = extension_scheme(directed_ngon(d + 1), N)
    for start in table.index_set:
        ref = _rescaled_row(V, start, table)
        np.testing.assert_allclose(_symmetric_power_state(V, start, table), ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_givens_state(V, start, table), ref, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4), N=st.integers(0, 20))
def test_product_form_matches_givens_lift(seed, d, N):
    # from each extreme start the product form and the Givens lift are two
    # independent routes to the same state
    V = _random_unitary(seed, d)
    table = extension_scheme(directed_ngon(d + 1), N)
    for s in range(d + 1):
        start = tuple(N if j == s else 0 for j in range(d + 1))
        product = _symmetric_power_state(V, start, table)
        np.testing.assert_allclose(product, _givens_state(V, start, table), rtol=0, atol=1e-13)


@pytest.mark.parametrize("start", [(1, 1, 0), (0, 2, 1), (1, 1, 1)])
def test_givens_state_of_a_diagonal_unitary_is_a_phase(start):
    # no slot pair needs a rotation: the start class only picks up its monomial
    phases = np.exp(1j * np.array([0.3, -1.1, 2.0]))
    table = extension_scheme(directed_ngon(3), sum(start))
    expected = np.zeros(table.dimension, dtype=complex)
    expected[_rank(start, table.copies)] = np.prod(phases ** np.array(start))
    np.testing.assert_allclose(_givens_state(np.diag(phases), start, table), expected, rtol=0, atol=1e-15)


def _eigh_givens_state(V, start, table):
    # the earlier library lift, kept here as the reference of the recursion:
    # the same Givens rotations, each G^+ lifted on the classes with n units
    # in slots s and t as exp(-i |kappa| P J_n P^+), kappa the SU(2) logarithm
    # of G, P = diag(exp(i a arg kappa)), a = beta_s, and J_n[a+1, a] =
    # J_n[a, a+1] = sqrt((a+1)(n-a)) exponentiated through its eigh
    V = np.array(V, dtype=complex)
    N = table.copies
    state = np.zeros(table.dimension, dtype=complex)
    state[_rank(start, N)] = 1.0
    spins = []
    for n in range(N + 1):
        off = np.sqrt(np.arange(1.0, n + 1) * np.arange(n, 0, -1))
        spins.append(np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1)))
    for (s, t), blocks in table._pair_blocks.items():
        a, b = V[s, s], V[t, s]
        if b == 0:
            continue
        r = math.hypot(abs(a), abs(b))
        c, sn = abs(a) / r, -b * (np.conj(a) / abs(a) if a else 1.0) / r
        V[[s, t]] = np.array([[c, -np.conj(sn)], [sn, c]]) @ V[[s, t]]
        angle, arg = math.atan2(abs(sn), c), np.angle(-1j * sn)
        for n in range(1, N + 1):
            lam, Q = spins[n]
            p = np.exp(1j * arg * np.arange(n + 1))
            step = (p.conj()[:, None] * Q * np.exp(-1j * angle * lam)) @ (Q.T * p)
            state[blocks[n]] = state[blocks[n]] @ step
    return table.monomials(np.diagonal(V), state)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4), N=st.integers(0, 40))
def test_givens_state_matches_eigh_lift(seed, d, N):
    V = _random_unitary(seed, d)
    table = extension_scheme(directed_ngon(d + 1), N)
    start = table.index_set[np.random.default_rng(seed).integers(table.dimension)]
    np.testing.assert_allclose(_givens_state(V, start, table), _eigh_givens_state(V, start, table),
                               rtol=0, atol=1e-13)


def _ngon3_balanced(N, t=0.7):
    # the walk's one-copy unitary on canonical ngon-3 and the balanced start
    spec = walk.walk_spec(directed_ngon(3), N, walk.canonical_ngon_weights(3))
    vals, vecs = np.linalg.eigh(walk.projected_matrix(spec).one_body)
    V = (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T
    return V, (N - 2 * (N // 3), N // 3, N // 3), spec.table


@pytest.mark.parametrize("N", [100, 200])
def test_givens_state_matches_eigh_lift_at_large_N(N):
    V, start, table = _ngon3_balanced(N)
    np.testing.assert_allclose(_givens_state(V, start, table), _eigh_givens_state(V, start, table),
                               rtol=0, atol=1e-13)


def test_givens_state_memory_stays_quadratic_in_N():
    # the recursion holds S_{n-1} and S_n, (N+1)^2 floats each; the eigh lift
    # held all N+1 eigendecompositions, about 24 MiB here
    V, start, table = _ngon3_balanced(200)
    table._pair_blocks  # built once per table, outside the lift
    tracemalloc.start()
    try:
        _givens_state(V, start, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_class_table_build_memory_is_bounded():
    # the exact products run in blocks of rows, so the peak is the table
    # itself (its arrays; the label tuples wait for their first reader),
    # the binomial rows and one block of Python ints: about 5.1 MiB
    tracemalloc.start()
    try:
        extension_scheme(directed_ngon(3), 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


def test_extreme_start_evolution_builds_no_label_tuples():
    # the table stores its labels once, as the index matrix; the tuples
    # are built by the first reader that needs them, and kept
    pm = walk.projected_matrix(walk.walk_spec(directed_ngon(3), 300, walk.canonical_ngon_weights(3)))
    walk.evolve_projected(pm, 0.7, (300, 0, 0))
    assert "index_set" not in vars(pm.table)
    assert pm.order is pm.table.index_set is vars(pm.table)["index_set"]
    assert pm.order == tuple(enumerate_indices(300, 2))


def test_pair_blocks_are_built_lazily_and_partition_the_table():
    table = extension_scheme(ordered_word_scheme(3), 5)
    assert "_pair_blocks" not in vars(table)
    blocks = table._pair_blocks
    assert list(blocks) == list(itertools.combinations(range(4), 2))
    for (s, t), by_n in blocks.items():
        assert sorted(np.concatenate([b.ravel() for b in by_n]).tolist()) == list(range(len(table.index_set)))
        for n, rows in enumerate(by_n):
            for block in table.index[rows]:
                assert block[:, s].tolist() == list(range(n + 1))
                assert (block[:, s] + block[:, t] == n).all()
                others = np.delete(block, (s, t), axis=1)
                assert (others == others[0]).all()


def _class_products(table, x, out):
    """out[..., r] times prod over k with beta_k > 0 of x[..., k]^beta_k, one
    class at a time."""
    ref = np.array(out, copy=True)
    for r, beta in enumerate(table.index_set):
        for k, b in enumerate(beta):
            if b:
                ref[..., r] = ref[..., r] * x[..., k] ** b
    return ref


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(0, 4), N=st.integers(0, 6),
       batch=st.sampled_from([(), (1,), (5,)]), is_complex=st.booleans())
def test_monomials_match_per_class_product(seed, d, N, batch, is_complex):
    rng = np.random.default_rng(seed)
    table = extension_scheme(directed_ngon(d + 1), N)
    x = rng.normal(size=batch + (d + 1,))
    out = rng.normal(size=batch + (len(table.index_set),))
    if is_complex:
        x = x + 1j * rng.normal(size=x.shape)
        out = out + 1j * rng.normal(size=out.shape)
    ref = _class_products(table, x, out)
    got = table.monomials(x, out)
    assert got is out and got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_monomials_skip_zeroth_powers():
    # N = 0: the one class has beta = 0, so nothing is multiplied, not even
    # nan^0 = 1 or (1 + 0j) on a signed zero
    out = np.array([complex(0.0, -0.0)])
    extension_scheme(directed_ngon(3), 0).monomials(np.array([np.nan, 1j, -0.0]), out)
    assert out.tobytes() == np.array([complex(0.0, -0.0)]).tobytes()
    # (-1) * 1j = -0.0 - 1j; a further (1 + 0j) for the unused slot would
    # turn the real part to +0.0
    table = extension_scheme(trivial_scheme_2(), 1)
    out = table.monomials(np.array([1j, 1j]), np.full(2, -1.0 + 0.0j))
    np.testing.assert_array_equal(out, [-1j, -1j])
    assert np.signbit(out.real).all()
    # real signed zeros: -0.0 in out flips its sign once per factor -0.0
    table = extension_scheme(directed_ngon(3), 2)
    out = table.monomials(np.array([0.0, 2.0, -0.0]), np.full(len(table.index_set), -0.0))
    for beta, value in zip(table.index_set, out):
        assert value == 0.0 and np.signbit(value) == (beta[2] % 2 == 0), beta


def test_call_sites_reach_the_class_monomials(monkeypatch):
    calls = []
    real = extension.ExtensionScheme.monomials

    def counting(self, x, out):
        calls.append(np.shape(x))
        return real(self, x, out)

    monkeypatch.setattr(extension.ExtensionScheme, "monomials", counting)
    spec = walk.walk_spec(directed_ngon(3), 4, walk.canonical_ngon_weights(3))
    walk.amplitudes(spec, 0.3)
    assert calls == [(1, 3)]
    pm = walk.projected_matrix(spec)
    for start in ((4, 0, 0), (2, 1, 1)):  # product form, then the Givens lift
        calls.clear()
        walk.evolve_projected(pm, 0.7, start)
        assert calls == [(3,)]
    calls.clear()
    detect.zt_candidates(spec, np.linspace(0.0, 1.0, 7))
    assert calls == [(3,)] * 7


def _bad_calls():
    ngon3 = walk.walk_spec(directed_ngon(3), 2, walk.canonical_ngon_weights(3))
    pm = walk.projected_matrix(ngon3)
    ext = extension_scheme(directed_ngon(3), 2)
    U = directed_ngon(3).cosine
    return {
        "walk_spec": lambda v: walk.walk_spec(trivial_scheme_2(), v, [1.0]),
        "multinomial": lambda v: multinomial(2, (v, 1)),
        "materialize_class": lambda v: materialize_class(ext, (v, 1, 0)),
        "eigenvalue_lambda": lambda v: walk.eigenvalue_lambda(ngon3, (v, 1, 0)),
        "evolve_projected": lambda v: walk.evolve_projected(pm, 0.5, (v, 1, 0)),
        "krawtchouk_series": lambda v: krawtchouk.krawtchouk_series((v, 1, 0), (2, 0, 0), 2, U),
        "krawtchouk_series_n_tilde": lambda v: krawtchouk.krawtchouk_series((2, 0, 0), (v, 1, 0), 2, U),
        "krawtchouk_genfun": lambda v: krawtchouk.krawtchouk_genfun((v, 1, 0), 2, U),
    }


@pytest.mark.parametrize("name", list(_bad_calls()))
@pytest.mark.parametrize("bad", [1.5, 0.9, True, np.True_, np.float64(1.1), math.nan, math.inf,
                                 -math.inf, "1", None], ids=repr)
def test_integer_inputs_are_checked_not_truncated(name, bad):
    call = _bad_calls()[name]
    with pytest.raises(ValueError, match="must be integers"):
        call(bad)
    for good in (1, np.int64(1), 1.0, np.float32(1.0)):
        if name == "walk_spec":
            good = 2 * good
            assert type(call(good).copies) is int
        else:
            call(good)


def test_truncating_examples_are_rejected():
    spec = walk.walk_spec(directed_ngon(3), 2, walk.canonical_ngon_weights(3))
    for call in (lambda: walk.evolve_projected(walk.projected_matrix(spec), 0.5, (2.9, 0.1, 0)),
                 lambda: walk.eigenvalue_lambda(spec, (2.9, 0.1, 0)),
                 lambda: materialize_class(extension_scheme(directed_ngon(3), 2), (1.5, 1.5, 0)),
                 lambda: multinomial(2, (1.9, 1.2)),
                 lambda: krawtchouk.krawtchouk_series((2.5, 0, 0), (2, 0, 0), 2, directed_ngon(3).cosine)):
        with pytest.raises(ValueError, match="must be integers"):
            call()


@pytest.mark.parametrize("call", [
    lambda v: extension_scheme(trivial_scheme_2(), v).index_set,
    lambda v: enumerate_indices(v, 1),
    lambda v: walk.canonical_ngon_weights(v),
    lambda v: directed_ngon(v).adjacency,
    lambda v: ordered_word_scheme(v).adjacency,
    lambda v: detect.ngon_mpst_scenario(v, 2).expected_events,
    lambda v: detect.ngon_mpst_scenario(3, v).expected_events,
    lambda v: detect.hypercube_pst_scenario(v).expected_events,
    lambda v: detect.ow_fr_scenario(v, 2, 2).expected_events,
    lambda v: detect.ow_fr_scenario(3, v, 2).expected_events,
    lambda v: detect.ow_fr_scenario(3, 2, v).expected_events,
], ids=["extension_scheme", "enumerate_indices", "canonical_ngon_weights",
        "directed_ngon", "ordered_word_scheme", "ngon_mpst_n", "ngon_mpst_N", "hypercube_pst_N",
        "ow_fr_d", "ow_fr_N", "ow_fr_k"])
def test_counts_are_checked_as_integers(call):
    for bad in (True, np.True_, 1.5, math.nan, "2", None):
        with pytest.raises(ValueError, match="must be integers"):
            call(bad)
    with pytest.raises(ValueError):
        call(-1)
    assert [len(call(good)) for good in (2, 2.0, np.int64(2))] == [len(call(2))] * 3
    ext = extension_scheme(trivial_scheme_2(), 2.0)
    assert type(ext.copies) is int and ext.copies == 2
