import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    amplitudes,
    canonical_ngon_weights,
    directed_ngon,
    evolve_projected,
    extension_scheme,
    materialize_class,
    multinomial,
    ordered_word_scheme,
    projected_matrix,
    trivial_scheme_2,
    walk_spec,
)
from simplexwalk import extension, krawtchouk, oracle
from simplexwalk.oracle import (
    ComparisonReport,
    compare_amplitudes,
    dense_evolution,
    dense_hamiltonian,
    golden_bmatrix_residual,
    ngon_spectrum_residual,
    run_suite,
    vertex_classes,
)
from simplexwalk.walk import WalkSpec


def hypercube_adjacency(N):
    size = 2 ** N
    A = np.zeros((size, size), dtype=int)
    for v in range(size):
        for b in range(N):
            A[v, v ^ (1 << b)] = 1
    return A


def test_dense_hamiltonian_hypercube():
    spec = walk_spec(trivial_scheme_2(), 3, [1.0])
    H = dense_hamiltonian(spec)
    np.testing.assert_allclose(H, hypercube_adjacency(3), atol=0)


def test_dense_hamiltonian_single_copy_cycle():
    w = canonical_ngon_weights(3)
    spec = walk_spec(directed_ngon(3), 1, w)
    Z = np.roll(np.eye(3), 1, axis=1)
    np.testing.assert_allclose(dense_hamiltonian(spec), w[0] * Z + w[1] * (Z @ Z), atol=1e-15)


def test_dense_hamiltonian_kronecker_sum():
    w = canonical_ngon_weights(3)
    spec = walk_spec(directed_ngon(3), 2, w)
    Z = np.roll(np.eye(3), 1, axis=1)
    R = w[0] * Z + w[1] * (Z @ Z)
    eye = np.eye(3)
    expected = np.kron(R, eye) + np.kron(eye, R)
    np.testing.assert_allclose(dense_hamiltonian(spec), expected, atol=1e-15)


def test_dense_evolution_identity():
    spec = walk_spec(trivial_scheme_2(), 3, [1.0])
    psi = dense_evolution(spec, 0.0, 5)
    expected = np.zeros(8)
    expected[5] = 1.0
    np.testing.assert_allclose(psi, expected, atol=1e-12)


def test_dense_evolution_unitary():
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    for t in (0.3, 1.7, 4.0):
        assert abs(np.linalg.norm(dense_evolution(spec, t, 0)) - 1.0) < 1e-12


def test_dense_evolution_methods_agree():
    specs = [
        walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3)),
        walk_spec(trivial_scheme_2(), 4, [1.0]),
        walk_spec(ordered_word_scheme(3), 2, [0.7, -0.3, 0.25]),
    ]
    rng = np.random.default_rng(11)
    for spec in specs:
        for t in rng.uniform(0, 6, size=5):
            a = dense_evolution(spec, t, 0, method="eig")
            b = dense_evolution(spec, t, 0, method="projector")
            assert np.abs(a - b).max() < 1e-10


def test_projector_method_equals_the_dense_idempotent_sum():
    # the relation-table gather against the sum of the dense E_j, bit for bit
    rng = np.random.default_rng(3)
    specs = [walk_spec(directed_ngon(n), 2, canonical_ngon_weights(n)) for n in range(1, 7)]
    specs += [walk_spec(ordered_word_scheme(d), 1, rng.normal(size=d)) for d in range(1, 5)]
    specs += [walk_spec(trivial_scheme_2(), 3, [0.8])]
    for spec in specs:
        base = spec.base
        rates = base.first_eigenmatrix[:, 1:] @ spec.weights
        for t in rng.uniform(-8.0, 8.0, size=10):
            F = sum(np.exp(-1j * t * rate) * base.idempotent(j) for j, rate in enumerate(rates))
            u = int(rng.integers(base.size ** spec.copies))
            expected = np.ones(1, dtype=complex)
            for x in np.unravel_index(u, (base.size,) * spec.copies):
                expected = np.kron(expected, F[:, x])
            assert dense_evolution(spec, t, u, "projector").tobytes() == expected.tobytes()


def test_dense_evolution_single_copy_transfer():
    spec = walk_spec(directed_ngon(3), 1, canonical_ngon_weights(3))
    psi = dense_evolution(spec, 2 * math.pi / 3, 0)
    mods = np.abs(psi)
    assert mods.max() > 1 - 1e-12
    assert sorted(mods)[-2] < 1e-12


def test_dense_evolution_rejects_bad_method():
    spec = walk_spec(trivial_scheme_2(), 2, [1.0])
    with pytest.raises(ValueError):
        dense_evolution(spec, 1.0, 0, method="magic")


@pytest.mark.parametrize("method", ["eig", "projector"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_dense_evolution_rejects_non_finite_time(t, method):
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="finite"):
        dense_evolution(spec, t, 0, method=method)


@pytest.mark.parametrize("start", [True, False, 2.5, 1.0, np.float64(1.0), "1", None],
                         ids=["True", "False", "2.5", "float", "float64", "str", "None"])
def test_start_vertex_must_be_an_integer(start):
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    for method in ("eig", "projector"):
        with pytest.raises(ValueError, match="integer"):
            dense_evolution(spec, 0.5, start, method=method)
    with pytest.raises(ValueError, match="integer"):
        vertex_classes(spec, start)


def test_numpy_integer_start_vertex_accepted():
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    np.testing.assert_array_equal(dense_evolution(spec, 0.5, np.int64(4)), dense_evolution(spec, 0.5, 4))
    members = vertex_classes(spec, np.intp(4))
    for beta, verts in vertex_classes(spec, 4).items():
        np.testing.assert_array_equal(members[beta], verts)


def test_compare_amplitudes_rejects_empty_times():
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="empty"):
        compare_amplitudes(spec, [])


def test_compare_amplitudes_refuses_a_string_of_times():
    # a string is not read character by character as the times 1.0 and 2.0
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="one-dimensional sequence of real numbers"):
        compare_amplitudes(spec, "12")


def test_compare_amplitudes_refuses_a_2d_grid():
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="one-dimensional sequence of real numbers"):
        compare_amplitudes(spec, [[0.5, 1.0], [1.5, 2.0]])


def test_compare_amplitudes_refuses_a_complex_grid():
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="one-dimensional sequence of real numbers"):
        compare_amplitudes(spec, [0.5, 1.0 + 0.5j])


@pytest.mark.parametrize("method", ["eig", "projector"])
def test_dense_evolution_refuses_a_complex_time(method):
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="t must be a finite real number"):
        dense_evolution(spec, 0.5 + 1j, 0, method=method)


@pytest.mark.parametrize("method", ["eig", "projector"])
def test_dense_evolution_refuses_a_string_time(method):
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="t must be a finite real number"):
        dense_evolution(spec, "0.5", 0, method=method)


def test_vertex_classes_partition():
    spec = walk_spec(ordered_word_scheme(2), 2, [0.5, 0.5])
    members = vertex_classes(spec)
    seen = np.concatenate(list(members.values()))
    assert sorted(seen.tolist()) == list(range(16))


@pytest.mark.parametrize("start", [-1, 16])
def test_vertex_classes_rejects_start_out_of_range(start):
    spec = walk_spec(ordered_word_scheme(2), 2, [0.5, 0.5])
    with pytest.raises(ValueError, match="start vertex out of range"):
        vertex_classes(spec, start_vertex=start)


@pytest.mark.parametrize("spec", [
    walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3)),
    walk_spec(ordered_word_scheme(2), 2, [0.5, 0.5]),
    walk_spec(trivial_scheme_2(), 3, [1.0]),
], ids=["ngon3-N2", "ow2-N2", "trivial2-N3"])
def test_vertex_classes_match_class_columns(spec, monkeypatch):
    ext = extension_scheme(spec.base, spec.copies)
    classes = {beta: materialize_class(ext, beta) for beta in ext.index_set}

    def forbidden(*args):
        raise AssertionError("vertex_classes formed a dense class matrix")

    monkeypatch.setattr(oracle, "materialize_class", forbidden)
    for v in range(spec.base.size ** spec.copies):
        members = vertex_classes(spec, start_vertex=v)
        assert list(members) == list(ext.index_set)
        for beta, A in classes.items():
            np.testing.assert_array_equal(members[beta], np.flatnonzero(A[:, v]))


def _arrangements(beta):
    """Distinct sequences with beta_k entries equal to k."""
    if not any(beta):
        yield ()
        return
    for k, b in enumerate(beta):
        if b:
            rest = list(beta)
            rest[k] -= 1
            yield from ((k,) + tail for tail in _arrangements(rest))


def _chain(mats):
    out = np.eye(1, dtype=np.int64)
    for m in mats:
        out = np.kron(out, m)
    return out


def _reference_class(scheme, N, beta):
    """Class beta as a sum of one Kronecker chain of base relations per
    arrangement of beta."""
    rows = scheme.size ** N
    total = np.zeros((rows, rows), dtype=np.int64)
    for arr in _arrangements(beta):
        total += _chain([scheme.adjacency[k] for k in arr])
    return total


def _reference_vertex_classes(scheme, N, order, u):
    digits = np.unravel_index(u, (scheme.size,) * N)
    return {beta: np.flatnonzero(sum(
                _chain([scheme.adjacency[k][:, [v]] for v, k in zip(digits, arr)])
                for arr in _arrangements(beta)))
            for beta in order}


_REFERENCE_WALKS = (
    [(trivial_scheme_2(), [1.0])]
    + [(directed_ngon(n), canonical_ngon_weights(n)) for n in range(1, 6)]
    + [(ordered_word_scheme(d), [0.7, -0.3, 0.25][:d]) for d in range(1, 4)]
)


@st.composite
def _reference_cases(draw):
    scheme, weights = draw(st.sampled_from(_REFERENCE_WALKS))
    N = draw(st.integers(0, max(n for n in range(9) if scheme.size ** n <= 256)))
    rows = scheme.size ** N
    starts = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=3))
    return walk_spec(scheme, N, weights), starts


@settings(max_examples=60, deadline=None)
@given(case=_reference_cases())
def test_dense_oracle_matches_arrangement_sum_reference(case):
    spec, starts = case
    scheme, N = spec.base, spec.copies
    ext = extension_scheme(scheme, N)
    reference = {beta: _reference_class(scheme, N, beta) for beta in ext.index_set}
    for beta, expected in reference.items():
        A = materialize_class(ext, beta)
        assert A.dtype == expected.dtype
        np.testing.assert_array_equal(A, expected)
    for u in starts:
        members = vertex_classes(spec, u)
        expected = _reference_vertex_classes(scheme, N, ext.index_set, u)
        assert list(members) == list(expected)
        for beta, verts in expected.items():
            assert members[beta].dtype == verts.dtype
            np.testing.assert_array_equal(members[beta], verts)
    H = np.zeros((scheme.size ** N,) * 2, dtype=complex)
    for i in range(1, scheme.classes) if N else ():
        H += spec.weights[i - 1] * reference[(N - 1,) + (0,) * (i - 1) + (1,) + (0,) * (scheme.d - i)]
    assert dense_hamiltonian(spec).tobytes() == H.tobytes()


def test_compare_amplitudes_builds_one_relation_table(monkeypatch):
    # the class positions, the one-copy h and the projector's gather all
    # read the one table that the compare builds
    calls = []
    real = oracle._relation_table
    monkeypatch.setattr(oracle, "_relation_table", lambda adjacency: calls.append(1) or real(adjacency))
    spec = walk_spec(directed_ngon(4), 2, canonical_ngon_weights(4))
    assert compare_amplitudes(spec, [0.3, 1.2]).max_error < 1e-9
    assert len(calls) == 1


def test_compare_amplitudes_makes_one_one_copy_eigh(monkeypatch):
    # one eigh of the 3 x 3 one-copy h serves every time, never one of
    # the 27 x 27 dense H
    calls = []
    eigh = np.linalg.eigh

    def counted(H):
        calls.append(H.shape)
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    spec = walk_spec(directed_ngon(3), 3, canonical_ngon_weights(3))
    report = compare_amplitudes(spec, [0.0, 0.4, 1.1, 2.0, 3.7])
    assert calls == [(3, 3)]
    assert report.max_error < 1e-9


def test_eig_method_reads_no_spectral_data():
    # zeroed P and Q leave the relation table and the weights, which are
    # all that the "eig" method reads
    base = ordered_word_scheme(3)
    blank = dataclasses.replace(base, first_eigenmatrix=np.zeros_like(base.first_eigenmatrix),
                                second_eigenmatrix=np.zeros_like(base.second_eigenmatrix))
    spec = walk_spec(blank, 2, [0.7, -0.3, 0.25])
    H = dense_hamiltonian(spec)
    for u in (0, 17, 63):
        for t in (0.4, 2.9, 7.6):
            assert np.abs(dense_evolution(spec, t, u, method="eig") - _eigh_evolution(H, t, u)).max() <= 1e-12


def _eigh_evolution(H, t, u):
    """exp(-i t H) e_u by one eigh of the whole dense H: the reference that
    the Kronecker product of one-copy columns must match."""
    vals, vecs = np.linalg.eigh(H)
    return vecs @ (np.exp(-1j * t * vals) * np.conj(vecs[u, :]))


ORACLE_SPECS = dict(oracle._oracle_specs())


@pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS)
def test_eig_evolution_matches_the_full_eigh(spec):
    H = dense_hamiltonian(spec)
    rng = np.random.default_rng(len(H))
    for u in {0, len(H) // 2, len(H) - 1}:
        for t in rng.uniform(0.0, 8.0, size=4):
            psi = dense_evolution(spec, t, u)
            assert np.abs(psi - _eigh_evolution(H, t, u)).max() <= 1e-12


_HERMITIAN_SCHEMES = ([trivial_scheme_2()] + [directed_ngon(n) for n in (2, 3, 4)]
                      + [ordered_word_scheme(d) for d in (1, 2, 3)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), scheme=st.sampled_from(_HERMITIAN_SCHEMES),
       re=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       im=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       t=st.floats(0.0, 8.0))
def test_eig_evolution_matches_the_full_eigh_on_hermitian_weights(data, scheme, re, im, t):
    # w averaged with its transpose-paired conjugate is exactly Hermitian
    w = np.array(re[: scheme.d]) + 1j * np.array(im[: scheme.d])
    w = (w + np.conj(w[[scheme.transpose_map[i + 1] - 1 for i in range(scheme.d)]])) / 2
    N = data.draw(st.integers(0, max(n for n in range(9) if scheme.size ** n <= 256)))
    spec = walk_spec(scheme, N, w)
    H = dense_hamiltonian(spec)
    u = data.draw(st.integers(0, len(H) - 1))
    assert np.abs(dense_evolution(spec, t, u) - _eigh_evolution(H, t, u)).max() <= 1e-12


def test_eig_method_matches_the_projector_on_generic_weights():
    # OW(3) at N = 4 (4096 rows, D = 35), under the default guard, on
    # generic real weights, whose one-copy h has no special spectrum
    spec = walk_spec(ordered_word_scheme(3), 4, [0.7, -0.3, 0.25])
    for t in (0.4, 2.9, 7.6):
        eig = dense_evolution(spec, t, 0, method="eig")
        assert np.abs(eig - dense_evolution(spec, t, 0, method="projector")).max() <= 1e-12


@settings(max_examples=4, deadline=None)
@given(data=st.data(),
       re=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       im=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_hermitian_weights_at_1024_rows_match_the_full_eigh(data, re, im):
    # ngon-4 at N = 5 (D = 56) on generic Hermitian weights; one full eigh
    # per draw serves every start and time
    scheme = directed_ngon(4)
    w = np.array(re) + 1j * np.array(im)
    w = (w + np.conj(w[[scheme.transpose_map[i + 1] - 1 for i in range(scheme.d)]])) / 2
    spec = walk_spec(scheme, 5, w)
    vals, vecs = np.linalg.eigh(dense_hamiltonian(spec))
    for _ in range(3):
        u, t = data.draw(st.integers(0, 1023)), data.draw(st.floats(0.0, 8.0))
        expected = vecs @ (np.exp(-1j * t * vals) * np.conj(vecs[u, :]))
        assert np.abs(dense_evolution(spec, t, u) - expected).max() <= 1e-12


def test_non_hermitian_weights_are_refused():
    spec = WalkSpec(directed_ngon(3), 2, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="not Hermitian"):
        dense_evolution(spec, 0.5, 0)


# the suite's specs, the larger compares of the benchmark and the two
# 1024-row specs that the CI compare runs in a fresh process
SHIPPED_SPECS = {
    **ORACLE_SPECS,
    "ngon-3 N=5": walk_spec(directed_ngon(3), 5, canonical_ngon_weights(3)),
    "ngon-4 N=4": walk_spec(directed_ngon(4), 4, canonical_ngon_weights(4)),
    "ngon-4 N=5": walk_spec(directed_ngon(4), 5, canonical_ngon_weights(4)),
    "trivial2 N=10": walk_spec(trivial_scheme_2(), 10, [1.0]),
}


@pytest.mark.parametrize("spec", SHIPPED_SPECS.values(), ids=SHIPPED_SPECS)
def test_eig_method_makes_one_one_copy_eigh_per_evolution(spec, monkeypatch):
    # each "eig" evolution diagonalizes the |X| x |X| one-copy h once,
    # never an |X|^N x |X|^N matrix, and its unit state agrees with the
    # projector method at the first, middle and last start vertex
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rows = spec.base.size ** spec.copies
    evolutions = 0
    for u in {0, rows // 2, rows - 1}:
        for t in (0.3, 1.7, 4.2, 7.9):
            psi = dense_evolution(spec, t, u, method="eig")
            evolutions += 1
            assert psi.shape == (rows,)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
            assert np.abs(psi - dense_evolution(spec, t, u, method="projector")).max() <= 1e-12
    assert calls == [(spec.base.size, spec.base.size)] * evolutions


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_product_state_is_the_kronecker_sum_evolution_of_an_unstructured_h(copies):
    # the product loop reads F = exp(-i t h) and the start vertex alone: a
    # random 4 x 4 Hermitian h, from no scheme, evolves as the dense
    # Kronecker sum of its copies does
    rng = np.random.default_rng(copies)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (A + A.conj().T) / 4
    H = np.zeros((1, 1), dtype=complex)
    for _ in range(copies):
        H = np.kron(np.eye(4), H) + np.kron(h, np.eye(len(H)))
    vals, vecs = np.linalg.eigh(h)
    for t in (0.4, 3.3, 7.9):
        F = oracle._eigh_propagator(t, vals, vecs)
        for u in {0, len(H) // 2, len(H) - 1}:
            assert np.abs(oracle._product_state(F, u, copies) - _eigh_evolution(H, t, u)).max() <= 1e-12


def test_compare_amplitudes_builds_no_base_idempotent(monkeypatch):
    from simplexwalk.schemes import AssociationScheme

    calls = []
    idempotent = AssociationScheme.idempotent

    def counted(self, j):
        calls.append(j)
        return idempotent(self, j)

    monkeypatch.setattr(AssociationScheme, "idempotent", counted)
    spec = walk_spec(directed_ngon(4), 2, canonical_ngon_weights(4))
    times = [0.0, 0.4, 1.1, 2.0, 3.7]
    report = compare_amplitudes(spec, times)
    assert calls == []  # the projector gathers one sum per relation by the relation table
    assert report.max_error < 1e-9


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_compare_amplitudes_rejects_non_finite_times(t):
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    with pytest.raises(ValueError, match="finite"):
        compare_amplitudes(spec, [0.5, t])


def test_comparison_report_keeps_nan_and_plain_floats():
    report = compare_amplitudes(walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3)), [0.5, 1.5])
    fields = (report.max_amplitude_error, report.max_within_class_error,
              report.max_method_disagreement, report.max_normalization_error, report.max_error)
    assert all(type(x) is float for x in fields)
    nan_report = ComparisonReport((0.5,), 0.0, math.nan, 0.0, 0.0)
    assert math.isnan(nan_report.max_error)


def test_guard_env_override(monkeypatch):
    spec = walk_spec(trivial_scheme_2(), 4, [1.0])
    monkeypatch.setenv("SIMPLEXWALK_GUARD", "8")
    with pytest.raises(ValueError):
        dense_hamiltonian(spec)
    monkeypatch.setenv("SIMPLEXWALK_GUARD", "16")
    dense_hamiltonian(spec)


@pytest.mark.parametrize("call, rows, guard", [
    (lambda: dense_hamiltonian(walk_spec(trivial_scheme_2(), 13, [1.0])), 8192, 4096),
    (lambda: materialize_class(extension_scheme(trivial_scheme_2(), 13), (13, 0)), 8192, 4096),
    (lambda: dense_evolution(walk_spec(trivial_scheme_2(), 17, [1.0]), 0.5, 0), 131072, 65536),
], ids=["dense_hamiltonian", "materialize_class", "dense_evolution"])
def test_every_dense_object_raises_the_one_guard_message(call, rows, guard, monkeypatch):
    # the rows x rows matrices keep the size guard, the evolutions at least SWEEP_GUARD
    monkeypatch.delenv("SIMPLEXWALK_GUARD", raising=False)
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"{rows} rows exceed the dense oracle's guard ({guard})"


@pytest.mark.parametrize("N", [4, 16])
@pytest.mark.parametrize("t", [math.pi / 2, math.pi])
def test_eig_method_at_the_hypercube_transfer_times(N, t):
    # the one-copy propagator is -i X at t = pi/2, so e_0 moves to e_(2^N - 1),
    # and -I at t = pi: each digit's column is one basis vector up to a phase
    spec = walk_spec(trivial_scheme_2(), N, [1.0])
    eig = dense_evolution(spec, t, 0, method="eig")
    assert np.abs(eig - dense_evolution(spec, t, 0, method="projector")).max() <= 1e-12


def test_compare_amplitudes_at_the_hypercube_transfer_time():
    assert compare_amplitudes(walk_spec(trivial_scheme_2(), 4, [1.0]), [math.pi / 2]).max_error < 1e-9


def test_guard_env_only_raises_the_oracle_guard(monkeypatch):
    spec = walk_spec(trivial_scheme_2(), 4, [1.0])
    monkeypatch.setenv("SIMPLEXWALK_GUARD", "8")
    assert compare_amplitudes(spec, [0.5]).max_error < 1e-9
    assert len(vertex_classes(spec)[(4, 0)]) == 1
    monkeypatch.delenv("SIMPLEXWALK_GUARD")
    with pytest.raises(ValueError, match=r"131072 rows exceed the dense oracle's guard \(65536\)"):
        dense_evolution(walk_spec(trivial_scheme_2(), 17, [1.0]), 0.5, 0)


def test_compare_amplitudes_hypercube_transfer_class():
    spec = walk_spec(trivial_scheme_2(), 5, [1.0])
    report = compare_amplitudes(spec, [math.pi / 2])
    assert report.max_error < 1e-9
    psi = dense_evolution(spec, math.pi / 2, 0)
    members = vertex_classes(spec)[(0, 5)]
    assert np.abs(psi[members]).max() > 1 - 1e-9


def _class_loop_errors(spec, times):
    """The amplitude and within-class errors class by class, one mean per
    class and time, against the one-time ``amplitudes`` profiles."""
    amp_err = cls_err = 0.0
    members = vertex_classes(spec)
    for t in times:
        psi = dense_evolution(spec, t, 0)
        coefficients = amplitudes(spec, t).coefficients
        for beta, verts in members.items():
            mean = psi[verts].mean()
            cls_err = max(cls_err, np.abs(psi[verts] - mean).max())
            amp_err = max(amp_err, abs(mean - coefficients[beta]))
    return amp_err, cls_err


@pytest.mark.parametrize("spec", [
    walk_spec(directed_ngon(3), 4, canonical_ngon_weights(3)),
    walk_spec(ordered_word_scheme(3), 2, [0.7, -0.3, 0.25]),
    walk_spec(trivial_scheme_2(), 6, [1.0]),
], ids=["ngon3-N4", "ow3-N2", "trivial2-N6"])
def test_compare_amplitudes_matches_the_class_loop(spec):
    # the bincount means sum in another order than a per-class mean, so
    # the errors may differ by a few ulps of the unit-norm state's entries
    times = np.random.default_rng(11).uniform(0.0, 8.0, size=6)
    report = compare_amplitudes(spec, times)
    amp_err, cls_err = _class_loop_errors(spec, times)
    tol = 8 * np.finfo(float).eps
    assert abs(report.max_amplitude_error - amp_err) <= tol
    assert abs(report.max_within_class_error - cls_err) <= tol


def test_compare_amplitudes_within_class_constancy():
    spec = walk_spec(ordered_word_scheme(3), 2, [0.7, -0.3, 0.25])
    rng = np.random.default_rng(5)
    report = compare_amplitudes(spec, rng.uniform(0, 8, size=5))
    assert report.max_within_class_error < 1e-10
    assert report.max_amplitude_error < 1e-9


def _dense_projection(spec):
    """<Y_gamma|M|Y_beta> computed from materialized classes."""
    base = spec.base
    ext = extension_scheme(base, spec.copies)
    M = dense_hamiltonian(spec)
    x0 = np.zeros(base.size ** spec.copies)
    x0[0] = 1.0
    cols = []
    for beta in ext.index_set:
        A = materialize_class(ext, beta).astype(complex)
        k_beta = multinomial(spec.copies, beta) * math.prod(
            int(k) ** b for k, b in zip(base.valencies, beta))
        cols.append(A @ x0 / math.sqrt(k_beta))
    Y = np.array(cols).T
    gram = Y.conj().T @ Y
    np.testing.assert_allclose(gram, np.eye(len(ext.index_set)), atol=1e-12)
    return Y.conj().T @ M @ Y


@pytest.mark.parametrize(
    "spec",
    [
        walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3)),
        walk_spec(ordered_word_scheme(3), 2, [0.4, -0.3, 0.8]),
        walk_spec(ordered_word_scheme(2), 3, [0.5, 0.25]),
    ],
)
def test_projected_matrix_matches_dense_projection(spec):
    S = _dense_projection(spec)
    pm = projected_matrix(spec)
    np.testing.assert_allclose(pm.entries.T, S, atol=1e-12)


def test_evolve_projected_matches_amplitudes_ow():
    spec = walk_spec(ordered_word_scheme(3), 3, [0.7, -0.3, 0.25])
    pm = projected_matrix(spec)
    for t in (0.4, 1.9):
        state = evolve_projected(pm, t, (3, 0, 0, 0))
        prof = amplitudes(spec, t)
        expected = np.array([prof.site_amplitudes[b] for b in pm.order])
        np.testing.assert_allclose(state, expected, atol=1e-9)


def test_golden_bmatrix():
    assert golden_bmatrix_residual() <= 1e-12


def test_ngon_spectrum_residuals():
    for n in (2, 3, 4):
        for N in (1, 2, 3):
            assert ngon_spectrum_residual(n, N) < 1e-9


def test_run_suite_axioms():
    report = run_suite("axioms")
    assert report["passed"]
    assert all(isinstance(c["residual"], float) for c in report["checks"])
    assert all(list(c) == ["name", "passed", "residual", "tolerance"] for c in report["checks"])
    assert [c["name"] for c in report["checks"]][:2] == ["axioms:trivial2", "axioms:ngon-1"]


ALL_CHECKS = (
    ["axioms:trivial2"] + [f"axioms:ngon-{n}" for n in range(1, 8)]
    + [f"axioms:ow-{d}" for d in range(1, 5)]
    + [f"krawtchouk:{kind}:{name}" for name in ("trivial2", "ngon-3", "ow-2")
       for kind in ("series-vs-genfun", "orthogonality")]
    + ["krawtchouk:bivariate-orthogonality", "krawtchouk:bivariate-recurrence"]
    + [f"amplitudes:dense-vs-closed:{name}" for name in
       [f"ngon-3 N={N}" for N in range(1, 5)] + [f"trivial2 N={N}" for N in range(1, 7)]
       + [f"ow-3 N={N}" for N in range(1, 3)]]
    + ["bmatrix:golden-10x10", "bmatrix:evolution-consistency", "bmatrix:integral-spectrum-shift"]
)


def test_run_suite_all_passes():
    # every closed form against the dense oracle, as ``verify --suite all`` runs it
    report = run_suite("all")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["passed"] and not failed
    assert [c["name"] for c in report["checks"]] == ALL_CHECKS and len(ALL_CHECKS) == 35


def _suite_check(suite, name):
    return next(c for c in run_suite(suite)["checks"] if c["name"] == name)


def test_krawtchouk_suite_keeps_nan(monkeypatch):
    # one NaN pair among the finite ones, as the fifth pair of trivial2
    table = krawtchouk._series_table

    def last_pair_at_N1_is_nan(N, U):
        S = table(N, U)
        if N == 1:
            S[-1, -1] = math.nan
        return S

    monkeypatch.setattr(krawtchouk, "_series_table", last_pair_at_N1_is_nan)
    check = _suite_check("krawtchouk", "krawtchouk:series-vs-genfun:trivial2")
    assert not check["passed"]
    assert math.isnan(check["residual"])


def test_bmatrix_suite_keeps_nan(monkeypatch):
    # the suite runs ngon_spectrum_residual's body on its own prebuilt n-gons
    spectrum = oracle._spectrum_residual
    monkeypatch.setattr(oracle, "_spectrum_residual",
                        lambda s, N: math.nan if (s.size, N) == (3, 2) else spectrum(s, N))
    check = _suite_check("bmatrix", "bmatrix:integral-spectrum-shift")
    assert not check["passed"]
    assert math.isnan(check["residual"])


def test_golden_bmatrix_keeps_nan(monkeypatch):
    build = oracle.projected_matrix
    calls = []

    def second_is_nan(spec):
        calls.append(spec)
        pm = build(spec)
        return types.SimpleNamespace(entries=np.full_like(pm.entries, np.nan)) if len(calls) == 2 else pm

    monkeypatch.setattr(oracle, "projected_matrix", second_is_nan)
    assert math.isnan(golden_bmatrix_residual())


@pytest.mark.parametrize("suite", sorted(oracle.SUITES))
def test_suite_builds_each_base_scheme_once(suite, monkeypatch):
    builds = []
    for module in (oracle, krawtchouk):
        for name in ("trivial_scheme_2", "directed_ngon", "ordered_word_scheme"):
            if hasattr(module, name):
                build = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *args, _build=build, _name=name: builds.append((_name, args))
                                    or _build(*args))
    assert run_suite(suite)["passed"]
    assert builds and len(builds) == len(set(builds)), builds


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def _dense_hamiltonian_by_classes(spec):
    """sum_i w_i x the class (N-1) e_0 + e_i, as dense_hamiltonian summed it
    before the Kronecker sum."""
    ext = extension_scheme(spec.base, spec.copies)
    H = np.zeros((spec.base.size ** spec.copies,) * 2, dtype=complex)
    for i in range(1, spec.base.classes) if spec.copies else ():
        beta = [0] * spec.base.classes
        beta[0], beta[i] = spec.copies - 1, 1
        H += spec.weights[i - 1] * materialize_class(ext, tuple(beta))
    return H


def _signed_zero_weights(d, seed):
    rng = np.random.default_rng(seed)
    parts = rng.choice([0.0, -0.0, 1.0, -2.5, 0.3], size=(d, 2))
    return parts[:, 0] + 1j * parts[:, 1] if d else np.zeros(0, dtype=complex)


DENSE_H_SPECS = (
    [walk_spec(directed_ngon(n), N, canonical_ngon_weights(n)) for n in range(1, 6) for N in range(4)]
    + [WalkSpec(directed_ngon(n), N, _signed_zero_weights(n - 1, 7 * n + N))
       for n in range(2, 5) for N in range(4)]
    + [walk_spec(trivial_scheme_2(), N, [1.0]) for N in range(0, 9)]
    + [WalkSpec(ordered_word_scheme(d), N, _signed_zero_weights(d, d + N)) for d in (1, 2, 3)
       for N in range(3)]
    + [walk_spec(directed_ngon(32), 2, canonical_ngon_weights(32))]
)


@pytest.mark.parametrize("spec", DENSE_H_SPECS,
                         ids=lambda s: f"{s.base.size}-{s.base.classes}-N{s.copies}")
def test_dense_hamiltonian_is_the_class_sum_bitwise(spec, monkeypatch):
    expected = _dense_hamiltonian_by_classes(spec)

    def forbidden(*args):
        raise AssertionError("dense_hamiltonian formed a class matrix")

    monkeypatch.setattr(oracle, "materialize_class", forbidden)
    monkeypatch.setattr(extension, "extension_scheme", forbidden)
    H = dense_hamiltonian(spec)
    assert H.dtype == complex and H.shape == expected.shape
    assert H.tobytes() == expected.tobytes()
