import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    WalkSpec,
    amplitudes,
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
from simplexwalk import walk
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


def test_non_hermitian_warns():
    with pytest.warns(UserWarning):
        spec = walk_spec(directed_ngon(3), 1, [1.0, 0.5])
    assert not spec.is_hermitian


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
    # that time, bit for bit; non-Hermitian couplings included
    w = np.array(re[: scheme.d]) + 1j * np.array(im[: scheme.d])
    if hermitian:
        w = _hermitian_weights(scheme, re, im)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = walk_spec(scheme, N, w)
    table, f = walk._amplitude_rows(spec, np.array(times))
    assert f.shape == (len(times), math.comb(N + scheme.d, scheme.d))
    views = (f, f * np.sqrt(table.valency), table.valency * np.abs(f) ** 2)
    for i, t in enumerate(times):
        prof = amplitudes(spec, t)
        assert tuple(prof.coefficients) == table.order
        for view, expected in zip(views, (prof.coefficients, prof.site_amplitudes,
                                          prof.class_probabilities)):
            assert view[i].tobytes() == np.array(list(expected.values()), dtype=view.dtype).tobytes()


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


def test_projected_matrix_single_copy():
    spec = canonical_spec(3, 1)
    w = spec.weights
    expected = np.array(
        [[0, w[0], w[1]], [w[1], 0, w[0]], [w[0], w[1], 0]]
    )
    np.testing.assert_allclose(projected_matrix(spec).entries, expected, atol=1e-14)


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
    assert set(shapes) == {(spec.base.classes, spec.base.classes)}


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
