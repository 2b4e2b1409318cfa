import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexwalk import (
    amplitudes,
    canonical_ngon_weights,
    cascade_residual,
    classify,
    directed_ngon,
    evolve_projected,
    hypercube_pst_scenario,
    ngon_mpst_scenario,
    ordered_word_scheme,
    ow_fr_scenario,
    projected_matrix,
    scan,
    site_factors,
    solve_weights,
    trivial_scheme_2,
    walk_spec,
    zt_candidates,
)
from simplexwalk import schemes, walk


def test_classify_identity():
    spec = walk_spec(directed_ngon(3), 2, canonical_ngon_weights(3))
    ev = classify(amplitudes(spec, 0.0))
    assert ev.kind == "PST"
    assert ev.support == ((2, 0, 0),)
    assert abs(ev.phase) < 1e-12
    assert ev.fidelity > 1 - 1e-12


def test_classify_transfer_event():
    spec = walk_spec(directed_ngon(4), 2, canonical_ngon_weights(4))
    ev = classify(amplitudes(spec, math.pi / 2))
    assert ev.kind == "PST"
    assert ev.support == ((0, 0, 0, 2),)


def test_classify_gme_half_time():
    spec = walk_spec(trivial_scheme_2(), 1, [1.0])
    ev = classify(amplitudes(spec, math.pi / 4))
    assert ev.kind == "GME"
    assert len(ev.support) == 2


def test_classify_fr_binomial_tail():
    # at half the transfer time both sites hold 0.5: the binomial tail below
    # tolerance is no face, so there is no event, as scan finds
    spec = walk_spec(trivial_scheme_2(), 30, [1.0])
    ev = classify(amplitudes(spec, math.pi / 4))
    assert (ev.kind, ev.support) == ("none", tuple(sorted(spec.table.index_set)))
    assert len(ev.support) == 31
    assert scan(spec, np.linspace(0.6, 1.0, 21)) == []


@pytest.mark.parametrize("N", [1, 2, 5, 10, 20, 50, 200])
def test_generic_time_is_no_event_at_any_N(N):
    # the multinomial bulk narrows as N grows, but it fills the face of
    # every site: an event means the same thing at N = 1 and at N = 200
    spec = walk_spec(directed_ngon(3), N, canonical_ngon_weights(3))
    ev = classify(amplitudes(spec, 0.7))
    assert (ev.kind, ev.support) == ("none", tuple(sorted(spec.table.index_set)))
    assert scan(spec, np.linspace(0.6, 0.8, 41)) == []


def test_classify_spread_is_none():
    spec = walk_spec(trivial_scheme_2(), 2, [1.0])
    ev = classify(amplitudes(spec, math.pi / 4))
    assert ev.kind == "none"


def test_classify_rejects_non_normalized():
    spec = walk_spec(directed_ngon(3), 1, canonical_ngon_weights(3))
    prof = amplitudes(spec, 0.4)
    bad = dataclasses.replace(prof, class_probabilities={b: 0.5 * q for b, q in prof.class_probabilities.items()})
    with pytest.raises(ValueError):
        classify(bad)
    with pytest.warns(UserWarning):
        lop = walk_spec(directed_ngon(3), 1, [0.7, 0.1])
    with pytest.raises(ValueError):
        classify(amplitudes(lop, 0.4))


@pytest.mark.parametrize("N", [0, 2])
def test_classify_rejects_nan_total(N):
    # a NaN total is not within the normalization tolerance of 1
    spec = walk_spec(directed_ngon(3), N, canonical_ngon_weights(3))
    prof = amplitudes(spec, 0.4)
    bad = dataclasses.replace(prof, class_probabilities=dict.fromkeys(prof.class_probabilities, math.nan))
    with pytest.raises(ValueError, match="normalized"):
        classify(bad)


def test_scan_finds_mpst_events():
    sc = ngon_mpst_scenario(3, 2)
    events = scan(sc.spec, np.linspace(0.0, 2 * math.pi, 200))
    psts = [ev for ev in events if ev.kind == "PST"]
    found = {ev.support[0]: ev for ev in psts}
    for time, kind, support in sc.expected_events:
        assert support[0] in found
        assert abs(found[support[0]].time - time) < 1e-6
        assert found[support[0]].fidelity > 1 - 1e-9


def test_scan_hypercube():
    sc = hypercube_pst_scenario(3)
    events = scan(sc.spec, np.linspace(0.0, math.pi, 120))
    hits = [ev for ev in events if ev.support == ((0, 3),)]
    assert len(hits) == 1
    assert abs(hits[0].time - math.pi / 2) < 1e-6
    assert hits[0].fidelity > 1 - 1e-9


def test_scan_zero_weights_trivial():
    spec = walk_spec(trivial_scheme_2(), 3, [0.0])
    events = scan(spec, np.linspace(0.0, math.pi, 50))
    assert all(ev.support == ((3, 0),) for ev in events)
    assert len(events) == 1


def test_scan_requires_sorted_grid():
    spec = walk_spec(trivial_scheme_2(), 2, [1.0])
    with pytest.raises(ValueError):
        scan(spec, [1.0, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scan_and_zt_candidates_reject_non_finite_times(bad):
    spec = walk_spec(trivial_scheme_2(), 2, [1.0])
    with pytest.raises(ValueError, match="finite"):
        scan(spec, [0.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        zt_candidates(spec, [bad])


@pytest.mark.parametrize("times, tol", [([math.nan], 1e-9), ([0.0, math.inf], 1e-9),
                                        ([-math.inf], 1e-9), ([0.5], math.nan), ([0.5], 0.0)])
def test_cascade_residual_rejects_non_finite_times_and_bad_tol(times, tol):
    spec = ow_fr_scenario(3, 2, 1).spec
    with pytest.raises(ValueError):
        cascade_residual(spec, times, tol)


@pytest.mark.parametrize("grid", [np.array([0.1, 0.2], dtype=complex), [0.1, 0.2 + 0j], 0.5,
                                  np.float64(0.5), np.zeros((2, 2)), [[0.0, 0.5], [1.0, 1.5]],
                                  [True, False], ["0.1"]],
                         ids=["complex-array", "complex-entry", "scalar", "numpy-scalar", "2-D",
                              "nested-list", "bool", "str"])
def test_time_grids_must_be_real_and_one_dimensional(grid):
    spec = walk_spec(trivial_scheme_2(), 2, [1.0])
    calls = [lambda: scan(spec, grid), lambda: zt_candidates(spec, grid),
             lambda: cascade_residual(ow_fr_scenario(3, 2, 1).spec, grid),
             lambda: walk._amplitude_rows(spec, grid)]  # under amplitudes and `walk amplitudes`
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="one-dimensional sequence of real numbers"):
                call()


def test_time_grids_of_integers_are_taken_as_floats():
    spec = walk_spec(trivial_scheme_2(), 2, [1.0])
    for grid in ([0, 1, 2], np.arange(3), np.arange(3, dtype=np.int32), (0, 1.0, 2)):
        assert _event_bits(scan(spec, grid)) == _event_bits(scan(spec, [0.0, 1.0, 2.0]))
    assert cascade_residual(ow_fr_scenario(3, 2, 1).spec, (0,)) == 0.0


def test_cascade_residual_takes_unsorted_times():
    spec = ow_fr_scenario(3, 2, 1).spec
    assert cascade_residual(spec, [math.pi / 2, 0.0]) == cascade_residual(spec, [0.0, math.pi / 2]) == 0.0


def test_cascade_residual_detects_a_live_tail():
    # at t = 2 pi / 3 the 3-cycle walk sits on one extreme class: p_1
    # vanishes while p_2 carries everything
    spec = walk_spec(directed_ngon(3), 1, canonical_ngon_weights(3))
    assert cascade_residual(spec, [2 * math.pi / 3]) == pytest.approx(1.0, abs=1e-12)
    assert cascade_residual(spec, [0.0]) == 0.0


def test_face_events_one_site_short_of_a_transfer_is_no_event():
    # one site holds more than 1 - FR_TOL but less than 1 - tol: no face is named
    from simplexwalk import detect

    spec = walk_spec(directed_ngon(3), 1, canonical_ngon_weights(3))
    t = 2 * math.pi / 3 + 3e-4
    p = site_factors(spec, t)[None, :]
    assert 1e-8 < 1.0 - detect._site_masses(spec, p).max() < detect.FR_TOL
    assert detect._face_events(spec, [t], p, 1e-8) == [None]
    assert detect._face_events(spec, [t], p, 1e-6)[0].kind == "PST"


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, 1.0, 1.5])
@pytest.mark.parametrize("name", ["classify", "scan", "zt_candidates"])
def test_tol_must_be_positive(name, tol):
    spec = walk_spec(trivial_scheme_2(), 2, [1.0])
    grid = np.linspace(0.0, 3.2, 30)
    call = {
        "classify": lambda: classify(amplitudes(spec, 0.3), tol),
        "scan": lambda: scan(spec, grid, tol=tol),
        "zt_candidates": lambda: zt_candidates(spec, grid, tol=tol),
    }[name]
    with pytest.raises(ValueError, match="tol must be positive"):
        call()


def test_scan_rejects_non_hermitian_walk():
    with pytest.warns(UserWarning):
        spec = walk_spec(directed_ngon(3), 1, [0.7, 0.1])
    with pytest.raises(ValueError):
        scan(spec, np.linspace(0.0, 1.0, 10))


@pytest.mark.parametrize("n", [3, 4])
def test_scan_finds_single_copy_transfers_on_coarse_grid(n):
    # 40 steps over 1.05 times the last arrival: no grid point comes close
    # to a transfer, yet each one is a peak of the heaviest site mass
    sc = ngon_mpst_scenario(n, 1)
    last = max(t for t, _, _ in sc.expected_events)
    events = scan(sc.spec, np.linspace(0.0, 1.05 * last, 40))
    for time, kind, support in sc.expected_events:
        assert any(ev.kind == kind and ev.support == support and abs(ev.time - time) < 1e-6
                   and ev.fidelity > 1 - 1e-9 for ev in events)


def test_scan_hypercube_many_copies_only_transfers():
    # the binomial spread between the transfers is not confined to a face
    N = 200
    events = scan(hypercube_pst_scenario(N).spec, np.linspace(0.0, math.pi, 100))
    assert [(ev.kind, ev.support) for ev in events] == [
        ("PST", ((N, 0),)), ("PST", ((0, N),)), ("PST", ((N, 0),))]
    np.testing.assert_allclose([ev.time for ev in events], [0.0, math.pi / 2, math.pi], atol=1e-6)


def test_scan_ngon_many_copies_only_transfers():
    N = 40
    sc = ngon_mpst_scenario(3, N)
    events = scan(sc.spec, np.linspace(0.0, 2 * math.pi, 200))
    expected = [(0.0, "PST", ((N, 0, 0),))] + list(sc.expected_events)
    assert [(ev.kind, ev.support) for ev in events] == [(k, s) for _, k, s in expected]
    np.testing.assert_allclose([ev.time for ev in events], [t for t, _, _ in expected], atol=1e-6)


ORACLE_SCANS = [
    (ngon_mpst_scenario(3, 2), 0.0, 6.2832, 400, 1e-8),
    (ngon_mpst_scenario(3, 2), 0.0, 2 * math.pi, 200, 1e-8),
    (ngon_mpst_scenario(3, 2), 0.0, 6.2832, 150, 1e-8),
    (hypercube_pst_scenario(3), 0.0, math.pi, 120, 1e-8),
    (hypercube_pst_scenario(4), 0.0, 3.1416, 120, 1e-8),
    (ow_fr_scenario(3, 3, 2), 0.0, 3.15, 90, 1e-6),
    (ow_fr_scenario(3, 5, 2), 0.0, 3.1416, 200, 1e-6),
    (ow_fr_scenario(3, 1, 2), 0.0, 3.1416, 120, 1e-8),
    (ow_fr_scenario(3, 1, 3), 0.0, 3.1416, 120, 1e-8),
    (ow_fr_scenario(3, 2, 3), 0.0, 3.1416, 200, 1e-6),
]


@pytest.mark.parametrize("sc, t_min, t_max, steps, tol", ORACLE_SCANS,
                         ids=[f"{sc.label}-{steps}" for sc, *_, steps, _ in ORACLE_SCANS])
def test_scan_events_agree_with_class_level_classify(sc, t_min, t_max, steps, tol):
    events = scan(sc.spec, np.linspace(t_min, t_max, steps), tol=tol)
    assert events
    for ev in events:
        ref = classify(amplitudes(sc.spec, ev.time), tol)
        assert (ref.kind, ref.support) == (ev.kind, ev.support)
        assert abs(ref.fidelity - ev.fidelity) < 1e-12
        if ev.phase is None:
            assert ref.phase is None
        else:
            assert abs(np.angle(np.exp(1j * (ref.phase - ev.phase)))) < 1e-12


def _hermitian_weights(scheme, re, im):
    # average w with its transpose-paired conjugate: exactly Hermitian
    w = np.array(re[: scheme.d]) + 1j * np.array(im[: scheme.d])
    pair = [scheme.transpose_map[i + 1] - 1 for i in range(scheme.d)]
    return (w + np.conj(w[pair])) / 2


def _face_sites(support):
    return {k for beta in support for k, b in enumerate(beta) if b}


AGREE_SCHEMES = ([trivial_scheme_2()] + [directed_ngon(n) for n in range(2, 6)]
                 + [ordered_word_scheme(d) for d in range(1, 4)])


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(AGREE_SCHEMES),
    N=st.integers(0, 12),
    re=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    im=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    uniform=st.lists(st.floats(0.0, 2 * math.pi), max_size=3),
    tol=st.sampled_from([1e-8, 1e-6, 1e-3, 0.1]),
)
def test_classify_agrees_with_face_events(scheme, N, re, im, uniform, tol):
    # the class-level and the site-level reading of one event rule; scan's
    # event times reach the PST and FR branches, and the midpoints between
    # them the GME of d = 1 at N = 1, where uniform times rarely reach any
    from simplexwalk import detect

    spec = walk_spec(scheme, N, _hermitian_weights(scheme, re, im))
    times = [ev.time for ev in scan(spec, np.linspace(0.0, 2 * math.pi, 64), tol=tol)]
    times += [(a + b) / 2 for a, b in zip(times, times[1:])] + uniform
    p = walk._site_factor_rows(spec, times)
    for t, row, ev in zip(times, p, detect._face_events(spec, times, p, tol)):
        ref = classify(amplitudes(spec, t), tol)
        assert ref.support == tuple(sorted(ref.support))
        if ev is None:
            assert ref.kind == "none"
            continue
        assert ref.kind == ev.kind
        if ref.support != ev.support:
            # two faces of one size hold the same mass, as under the
            # reflection of a cycle with real weights: rounding picks one,
            # and the sites in only one of them pair off with equal masses
            q = detect._site_masses(spec, row)
            ours, theirs = _face_sites(ref.support), _face_sites(ev.support)
            np.testing.assert_allclose(sorted(q[list(ours - theirs)]), sorted(q[list(theirs - ours)]),
                                       rtol=0, atol=1e-12)
        assert abs(ref.fidelity - ev.fidelity) < 1e-12
        if ev.phase is None:
            assert ref.phase is None
        else:
            assert abs(np.angle(np.exp(1j * (ref.phase - ev.phase)))) < 1e-12


@pytest.mark.parametrize("d, N, k", [(3, 1, 3), (3, 2, 3), (4, 1, 4)])
def test_scan_names_revival_by_its_face_at_any_N(d, N, k):
    # the revival face holds 3 or 4 of d+1 sites, which is more than half of
    # the classes at these N; the event is a property of the face alone
    sc = ow_fr_scenario(d, N, k)
    (t_star, kind, support), = sc.expected_events
    events = scan(sc.spec, np.linspace(0.0, 3.1416, 200), tol=1e-6)
    assert kind == "FR"
    assert any(ev.kind == kind and set(ev.support) == set(support) and abs(ev.time - t_star) < 1e-6
               and ev.fidelity > 1 - 1e-6 for ev in events)


def _face_jets_scalar(spec, sites, times):
    # F, F', F'' and the rounding scale of F' of the face on ``sites``, one
    # row per time, without the common factors 1 / |X|^2 and 2 / |X|^2
    w = np.zeros(spec.base.classes)
    w[sites] = spec.base.valencies[sites]
    jets = walk._site_factor_jets(spec, times)
    p, dp, ddp = jets[:, 0], jets[:, 1], jets[:, 2]
    mass = ((np.conj(p) * p).real * w).sum(-1)
    slope = ((np.conj(p) * dp).real * w).sum(-1)
    curvature = ((np.conj(dp) * dp).real * w).sum(-1) + ((np.conj(p) * ddp).real * w).sum(-1)
    noise = (np.abs(np.conj(p) * dp) * w).sum(-1)
    return mass.tolist(), slope.tolist(), curvature.tolist(), noise.tolist()


def _newton_max_scalar(spec, sites, a, b):
    # the peak of the face mass in [a, b] and the number of evaluations after
    # the seeds: seed at 9 equally spaced times, bracket the best one by a
    # sign change of F', then safeguarded Newton steps on F'
    eps, rounding = np.finfo(float).eps, 8 * np.finfo(float).eps * spec.base.classes
    s = [a + j * ((b - a) / 8) for j in range(8)] + [b]
    mass, slope, curvature, noise = _face_jets_scalar(spec, sites, s)
    m = mass.index(max(mass))
    if m < 8 and slope[m] > 0 > slope[m + 1]:
        lo, hi = s[m], s[m + 1]
    elif m > 0 and slope[m - 1] > 0 > slope[m]:
        lo, hi = s[m - 1], s[m]
    else:
        return s[m], 0
    t, f1, f2, scale = s[m], slope[m], curvature[m], noise[m]
    xtol = 4 * eps * max(1.0, abs(a), abs(b))
    for steps in range(60):
        newton = f2 < 0 and lo - xtol <= t - f1 / f2 <= hi + xtol
        new = min(max(t - f1 / f2, lo), hi) if newton else (lo + hi) / 2
        if abs(f1) <= rounding * scale or hi - lo <= xtol or newton and abs(new - t) <= xtol:
            return (new if newton else t), steps
        t = new
        _, (f1,), (f2,), (scale,) = _face_jets_scalar(spec, sites, [t])
        if f1 > 0:
            lo = t
        if f1 < 0:
            hi = t
    return t, 60


def _peak_brackets(spec, grid):
    # (a, b, sites) of each peak run, one time per site-mass evaluation, in
    # scan's order: by face size r, then by time
    from simplexwalk import detect

    def masses(t):
        return detect._site_masses(spec, site_factors(spec, t))

    grid = np.asarray(grid, dtype=float)
    if spec.copies == 0:
        grid = grid[:1]
    q = np.array([masses(t) for t in grid]).reshape(len(grid), spec.base.classes)
    ranked = np.argsort(-q, axis=1, kind="stable")
    heaviest = np.cumsum(np.take_along_axis(q, ranked, axis=1), axis=1)
    brackets = []
    for r in range(1, spec.base.d + 1):
        mass = heaviest[:, r - 1]
        peak = np.ones(len(grid), dtype=bool)
        peak[1:] &= mass[1:] >= mass[:-1]
        peak[:-1] &= mass[:-1] >= mass[1:]
        runs = []
        for i in np.flatnonzero(peak):
            sites = sorted(ranked[i, :r].tolist())
            if runs and runs[-1][1] == i - 1 and runs[-1][2] == sites:
                runs[-1][1] = i
            else:
                runs.append([i, i, sites])
        brackets += [(float(grid[max(first - 1, 0)]), float(grid[min(last + 1, len(grid) - 1)]), sites)
                     for first, last, sites in runs]
    return brackets


def _scan_one_run_at_a_time(spec, grid, tol):
    # scan with each peak run refined on its own
    from simplexwalk import detect

    events = []
    for a, b, sites in _peak_brackets(spec, grid):
        t, _ = _newton_max_scalar(spec, sites, a, b)
        ev = detect._face_events(spec, [t], site_factors(spec, t)[None, :], tol)[0]
        if ev is not None:
            events.append(ev)
    events.sort(key=lambda ev: ev.time)
    grid = np.asarray(grid, dtype=float)
    return detect._dedupe(events, detect._grid_spacing(grid[:1] if spec.copies == 0 else grid))


def _event_bits(events):
    def bits(x):
        return None if x is None else float(x).hex()
    return [(ev.kind, bits(ev.time), ev.support, bits(ev.fidelity), bits(ev.phase)) for ev in events]


LOCKSTEP_SPECS = [sc.spec for sc in (
    ngon_mpst_scenario(2, 3), ngon_mpst_scenario(3, 1), ngon_mpst_scenario(4, 2),
    ngon_mpst_scenario(9, 1), hypercube_pst_scenario(1), hypercube_pst_scenario(12),
    ow_fr_scenario(3, 2, 2), ow_fr_scenario(3, 2, 3), ow_fr_scenario(4, 1, 2))]
LOCKSTEP_GRIDS = st.one_of(
    st.just([]),
    st.lists(st.floats(-1.0, 7.0), min_size=1, max_size=1),
    st.lists(st.floats(-1.0, 7.0), min_size=2, max_size=60).map(sorted),
    # lattice points: repeats are likely
    st.lists(st.integers(0, 48), min_size=2, max_size=60).map(lambda ks: sorted(k / 8.0 for k in ks)),
)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(LOCKSTEP_SPECS), grid=LOCKSTEP_GRIDS, tol=st.sampled_from([1e-8, 1e-6, 0.1]))
def test_scan_lockstep_matches_one_run_at_a_time_bitwise(spec, grid, tol):
    assert _event_bits(scan(spec, grid, tol=tol)) == _event_bits(_scan_one_run_at_a_time(spec, grid, tol))


@pytest.mark.parametrize("sc, steps", [
    (ngon_mpst_scenario(9, 1), 400), (ngon_mpst_scenario(12, 1), 1000),
    (ow_fr_scenario(3, 2, 2), 400), (ngon_mpst_scenario(5, 2), 400),
], ids=lambda x: getattr(x, "label", str(x)))
@pytest.mark.parametrize("tol", [1e-8, 0.1])
def test_scan_lockstep_matches_one_run_at_a_time_bitwise_on_many_runs(sc, steps, tol):
    grid = np.linspace(0.0, 4 * math.pi, steps)
    assert len(_peak_brackets(sc.spec, grid)) >= 40
    events = scan(sc.spec, grid, tol=tol)
    assert events and _event_bits(events) == _event_bits(_scan_one_run_at_a_time(sc.spec, grid, tol))


@pytest.mark.parametrize("sc", [ngon_mpst_scenario(3, 2), ngon_mpst_scenario(4, 1),
                                hypercube_pst_scenario(3), ow_fr_scenario(3, 2, 2)],
                         ids=lambda sc: sc.label)
def test_scan_reads_the_trivial_eigenvalue_at_most_once(monkeypatch, sc):
    from simplexwalk import detect, walk

    calls = []

    def counting(spec, alpha):
        calls.append(tuple(alpha))
        return walk.eigenvalue_lambda(spec, alpha)

    monkeypatch.setattr(detect, "eigenvalue_lambda", counting)
    events = scan(sc.spec, np.linspace(0.0, 4 * math.pi, 400))
    assert len(calls) <= 1
    if any(ev.kind == "PST" for ev in events):
        assert calls == [(sc.spec.copies,) + (0,) * sc.spec.base.d]


@pytest.mark.parametrize("sc", [hypercube_pst_scenario(12), ow_fr_scenario(3, 2, 2)],
                         ids=lambda sc: sc.label)
def test_scan_kernel_calls_do_not_grow_with_peak_runs(monkeypatch, sc):
    # one call for the grid, one to seed every bracket at 9 times, one per
    # Newton step of the bracket that takes the most, over the brackets still
    # live, and one for the events, however many runs peak
    calls, runs, steps = _kernel_calls(monkeypatch, sc.spec, np.linspace(0.0, 4 * math.pi, 400))
    assert len(calls) == 3 + steps <= 12
    assert runs >= 8 and calls[1] == 9 * runs and calls[-1] == runs
    live = calls[2:-1]
    assert live == sorted(live, reverse=True) and all(n <= runs for n in live)


def _kernel_calls(monkeypatch, spec, grid):
    # the batch size of each kernel call of a scan that finds events, its
    # number of brackets, and the most Newton steps any of them takes by the
    # one-bracket reference above
    from simplexwalk import detect, walk

    calls = []

    def counting(kernel):
        def count(spec, times):
            calls.append(len(times))
            return kernel(spec, times)
        return count

    with monkeypatch.context() as m:
        m.setattr(detect, "_site_factor_rows", counting(walk._site_factor_rows))
        m.setattr(detect, "_site_factor_jets", counting(walk._site_factor_jets))
        assert scan(spec, grid)
    brackets = _peak_brackets(spec, grid)
    return calls, len(brackets), max(_newton_max_scalar(spec, sites, a, b)[1] for a, b, sites in brackets)


SHIPPED_SCENARIOS = (
    [ngon_mpst_scenario(n, N) for n in (2, 3, 4, 5) for N in (1, 2, 3)]
    + [hypercube_pst_scenario(N) for N in (1, 4, 12)]
    + [ow_fr_scenario(*args) for args in [(3, 2, 2), (3, 5, 2), (3, 2, 3)]]
)


@pytest.mark.parametrize("sc", SHIPPED_SCENARIOS, ids=lambda sc: sc.label)
def test_scan_stops_each_bracket_at_the_time_resolution(monkeypatch, sc):
    # each bracket stops once F' or the Newton step is at rounding level;
    # the cap of 60 steps would take 63 calls
    last = max(t for t, _, _ in sc.expected_events)
    calls, _, steps = _kernel_calls(monkeypatch, sc.spec, np.linspace(0.0, 1.1 * last, 400))
    assert len(calls) == 3 + steps <= 12


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_scan_on_one_class_base_finds_nothing(N):
    # d = 0: no face below the whole simplex and no site-factor rate
    spec = walk_spec(directed_ngon(1), N, [])
    assert spec._site_terms[0].size == 0
    assert scan(spec, np.linspace(0.0, 2 * math.pi, 50)) == []


def _event_time_errors(sc, steps, factor):
    # the signed error of the nearest event of each expected kind and
    # support; scaling the weights by f scales every rate by f and every
    # event time by 1/f, and the grid runs a little past the last event
    spec = walk_spec(sc.spec.base, sc.spec.copies, np.asarray(sc.spec.weights) * factor)
    last = max(t for t, _, _ in sc.expected_events) / factor
    events = scan(spec, np.linspace(0.0, 1.1 * last, steps))
    errors = []
    for t, kind, support in sc.expected_events:
        found = [ev.time - t / factor for ev in events if ev.kind == kind and set(ev.support) == set(support)]
        assert found, (t / factor, kind, events)
        errors.append(min(found, key=abs))
    return errors


@pytest.mark.parametrize("factor", [1.0, 50.0, 0.02])
@pytest.mark.parametrize("steps", [40, 97, 400])
@pytest.mark.parametrize("sc", SHIPPED_SCENARIOS, ids=lambda sc: sc.label)
def test_scan_finds_every_expected_event_near_its_exact_time(sc, steps, factor):
    assert max(map(abs, _event_time_errors(sc, steps, factor))) <= 1e-12


@pytest.mark.parametrize("factor", [1.0, 50.0, 0.02])
def test_scan_event_times_are_not_biased(factor):
    # a refinement that settles on one side of a flat stretch finds nearly
    # every event early; measured in the time scale 1 / f of the walk, the
    # mean signed error stays at rounding level
    errors = [e * factor for sc in SHIPPED_SCENARIOS for steps in (40, 97, 400)
              for e in _event_time_errors(sc, steps, factor)]
    assert abs(np.mean(errors)) <= 1e-14


def _hamming_4_2():
    # H(4,2) on the binary words of length 4, classed by Hamming distance: P
    # is the Krawtchouk matrix P[j, i] = K_i(j), and Q = P
    words = np.array(list(itertools.product((0, 1), repeat=4)))
    distance = (words[:, None] != words[None]).sum(-1)
    krawtchouk = [[sum((-1) ** s * math.comb(j, s) * math.comb(4 - j, i - s) for s in range(i + 1))
                   for i in range(5)] for j in range(5)]
    return schemes._make_scheme([(distance == i).astype(np.int64) for i in range(5)], krawtchouk, krawtchouk)


@pytest.mark.parametrize("steps", [401, 400])
def test_scan_stops_on_the_flat_maxima_of_the_4_cube(monkeypatch, steps):
    # the walk on the 4-cube reaches the antipode at pi/2 and returns at pi;
    # around each transfer the far two-site face fills to fourth order in
    # t - t_PST, so its mass peaks flat and F'' vanishes with F'.  The FR
    # shadows beside the transfers are a known defect and are not pinned
    from simplexwalk import detect

    spec = walk_spec(_hamming_4_2(), 1, [1.0, 0.0, 0.0, 0.0])
    grid = np.linspace(0.0, 2 * math.pi, steps)
    calls, _, most = _kernel_calls(monkeypatch, spec, grid)
    assert len(calls) == 3 + most <= 20
    events = scan(spec, grid)
    for k in range(5):
        support = ((0, 0, 0, 0, 1),) if k % 2 else ((1, 0, 0, 0, 0),)
        assert any(ev.kind == "PST" and ev.support == support and abs(ev.time - k * math.pi / 2) <= 1e-12
                   for ev in events), (k, events)
    # a bracket around the flat peak of the face on distances 3 and 4 stops
    # at the rounding level of F', where the mass is 1 to within 1e-20,
    # long before the cap of 60 steps
    t, taken = _newton_max_scalar(spec, [3, 4], 1.55, 1.575)
    assert abs(t - math.pi / 2) <= 1e-4 and 5 <= taken <= 20
    weights = np.zeros((1, 5))
    weights[0, 3:] = spec.base.valencies[3:]
    assert detect._newton_max(spec, weights, [1.55], [1.575]) == [t]


def test_scan_never_evaluates_class_profiles(monkeypatch):
    from simplexwalk import detect, walk

    def forbidden(spec, t):
        raise AssertionError("scan evaluated a class profile")

    monkeypatch.setattr(walk, "amplitudes", forbidden)
    monkeypatch.setattr(detect, "amplitudes", forbidden, raising=False)
    for sc, t_min, t_max, steps, tol in ORACLE_SCANS:
        assert scan(sc.spec, np.linspace(t_min, t_max, steps), tol=tol)


def test_zt_candidates_zero_weights():
    spec = walk_spec(trivial_scheme_2(), 2, [0.0])
    cands = zt_candidates(spec, np.linspace(0.0, math.pi, 30))
    assert [ev.support[0] for ev in cands] == [(0, 2), (1, 1)]
    assert all(ev.kind == "ZT-candidate" for ev in cands)


def test_zt_candidates_empty_for_live_walk():
    spec = walk_spec(trivial_scheme_2(), 2, [1.0])
    assert zt_candidates(spec, np.linspace(0.0, math.pi, 60)) == []


def test_ngon_scenario_expected_events_cover_extremes():
    n, N = 5, 2
    sc = ngon_mpst_scenario(n, N)
    arrivals = [support[0] for _, _, support in sc.expected_events]
    extremes = {tuple(N if j == i else 0 for j in range(n)) for i in range(n)}
    assert set(arrivals) == extremes
    assert len(arrivals) == len(set(arrivals))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_ngon_scenario_events_hold(n):
    N = 2
    sc = ngon_mpst_scenario(n, N)
    for time, kind, support in sc.expected_events:
        prof = amplitudes(sc.spec, time)
        assert prof.class_probabilities[support[0]] > 1 - 1e-9


def test_ngon2_single_copy():
    sc = ngon_mpst_scenario(2, 1)
    time, kind, support = sc.expected_events[0]
    assert abs(time - math.pi) < 1e-12
    prof = amplitudes(sc.spec, time)
    assert prof.class_probabilities[(0, 1)] > 1 - 1e-12


def test_hypercube_scenario_fidelity():
    sc = hypercube_pst_scenario(4)
    prof = amplitudes(sc.spec, math.pi / 2)
    assert prof.class_probabilities[(0, 4)] > 1 - 1e-9


def test_hypercube_single_copy():
    sc = hypercube_pst_scenario(1)
    prof = amplitudes(sc.spec, math.pi / 2)
    assert prof.class_probabilities[(0, 1)] > 1 - 1e-12


def test_hypercube_conjugated_swap():
    sc = hypercube_pst_scenario(3)
    pm = projected_matrix(sc.spec)
    state = evolve_projected(pm, math.pi / 2, (2, 1))
    assert abs(abs(state[pm.order.index((1, 2))]) - 1.0) < 1e-9


def test_hypercube_conjugated_swap_all_starts():
    sc = hypercube_pst_scenario(5)
    pm = projected_matrix(sc.spec)
    for start in pm.order:
        state = evolve_projected(pm, math.pi / 2, start)
        swapped = (start[1], start[0])
        assert abs(abs(state[pm.order.index(swapped)]) - 1.0) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ow_scenario_support(k):
    d, N = 3, 4
    sc = ow_fr_scenario(d, N, k)
    time, kind, support = sc.expected_events[0]
    prof = amplitudes(sc.spec, time)
    leak = sum(q for beta, q in prof.class_probabilities.items() if beta not in support)
    assert leak < 1e-8
    assert all(all(beta[j] == 0 for j in range(k, d + 1)) for beta in support)


def test_ow_scenario_rejects_bad_k():
    with pytest.raises(ValueError):
        ow_fr_scenario(3, 4, 0)
    with pytest.raises(ValueError):
        ow_fr_scenario(3, 4, 4)


def test_ow_concentration_after_vanishing_top_factor():
    # trivial phases on the first two levels and a half turn on the last
    # leave only the second extreme class populated
    scheme = ordered_word_scheme(3)
    sol = solve_weights(scheme, math.pi / 2, [2 * math.pi, 2 * math.pi, math.pi])
    spec = walk_spec(scheme, 5, sol.weights)
    prof = amplitudes(spec, math.pi / 2)
    assert prof.class_probabilities[(0, 5, 0, 0)] > 1 - 1e-9
    p = site_factors(spec, math.pi / 2)
    assert abs(p[0]) < 1e-12 and abs(p[2]) < 1e-12 and abs(p[3]) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cascade_property(d):
    scheme = ordered_word_scheme(d)
    for k in range(1, d + 1):
        sc = ow_fr_scenario(d, 2, k)
        grid = np.linspace(0.0, math.pi, 40)
        assert cascade_residual(sc.spec, grid) == 0.0


def test_cascade_detects_violations_in_principle():
    # a synthetic profile with p_1 = 0 but p_2 != 0 cannot come from the
    # ordered-word cosine matrix; check the residual reports it if forced
    scheme = ordered_word_scheme(2)
    spec = walk_spec(scheme, 1, [0.5, 0.25])
    grid = np.linspace(0.0, 2 * math.pi, 60)
    assert cascade_residual(spec, grid) == 0.0


def test_unoriented_walk_has_two_destinations_only():
    # fixed start, unoriented base: destinations of perfect events never
    # exceed the start class and its antipode
    N = 3
    spec = walk_spec(trivial_scheme_2(), N, [1.0])
    destinations = set()
    for t in np.linspace(0.0, math.pi, 2001):
        prof = amplitudes(spec, t)
        for beta, q in prof.class_probabilities.items():
            if q > 1 - 1e-8:
                destinations.add(beta)
    assert destinations <= {(N, 0), (0, N)}


def test_scenario_specs_are_hermitian():
    for sc in (ngon_mpst_scenario(5, 2), hypercube_pst_scenario(3), ow_fr_scenario(3, 4, 2)):
        assert sc.spec.is_hermitian


def test_ow_generic_weights_spread():
    scheme = ordered_word_scheme(3)
    spec = walk_spec(scheme, 2, [0.31, -0.17, 0.53])
    ev = classify(amplitudes(spec, 0.83))
    assert ev.kind in ("none", "FR")
    assert len(ev.support) > 1


@pytest.mark.parametrize("spec, t_max, steps", [
    (walk_spec(trivial_scheme_2(), 0, [1.0]), math.pi, 5),
    (walk_spec(directed_ngon(3), 0, canonical_ngon_weights(3)), 2 * math.pi, 9),
])
def test_scan_without_copies_reports_one_transfer(spec, t_max, steps):
    grid = np.linspace(0.0, t_max, steps)
    events = scan(spec, grid)
    assert len(events) == 1
    ev = events[0]
    assert (ev.kind, ev.support, ev.fidelity, ev.phase) == ("PST", ((0,) * spec.base.classes,), 1.0, 0.0)
    assert ev.time in grid
    assert scan(spec, []) == []
    # no site mass is divided by N = 0: the one class is the whole profile
    ref = classify(amplitudes(spec, t_max / 3))
    assert (ref.kind, ref.support, ref.fidelity, ref.phase) == ("PST", ((0,) * spec.base.classes,), 1.0, 0.0)


def _zt_by_class(spec, t_grid, tol=1e-8):
    # class-level reference: the largest class probability over the grid
    worst = {}
    for t in t_grid:
        for beta, prob in amplitudes(spec, t).class_probabilities.items():
            worst[beta] = max(worst.get(beta, 0.0), prob)
    return [beta for beta in sorted(worst) if worst[beta] < tol]


ZT_CASES = [(sc, grid) for sc in (ow_fr_scenario(3, 3, 2), ow_fr_scenario(4, 2, 2), ow_fr_scenario(3, 4, 1),
                                  ngon_mpst_scenario(3, 2), ngon_mpst_scenario(5, 2))
            for grid in ([0.0], [sc.expected_events[0][0]], np.linspace(0.0, math.pi, 40))]


def test_zt_candidates_read_site_masses(monkeypatch):
    from simplexwalk import detect, walk

    expected = [_zt_by_class(sc.spec, grid) for sc, grid in ZT_CASES]
    assert any(expected) and not all(expected)

    def forbidden(spec, t):
        raise AssertionError("zt_candidates evaluated a class profile")

    monkeypatch.setattr(walk, "amplitudes", forbidden)
    monkeypatch.setattr(detect, "amplitudes", forbidden, raising=False)
    for (sc, grid), ref in zip(ZT_CASES, expected):
        assert [ev.support[0] for ev in zt_candidates(sc.spec, grid)] == ref, sc.label


def test_zt_candidates_empty_grid():
    assert zt_candidates(walk_spec(trivial_scheme_2(), 2, [0.0]), []) == []


def _zt_by_class_product(spec, grid, tol):
    """zt_candidates' supports by the broadcast formula it used before the
    class monomials: multinomial(N; beta) * prod(q ** beta) at each time."""
    from simplexwalk.detect import _site_masses
    from simplexwalk.walk import _site_factor_rows

    table = spec.table
    worst = np.zeros(len(table.index_set))
    for q in _site_masses(spec, _site_factor_rows(spec, np.asarray(grid, dtype=float))):
        worst = np.maximum(worst, table.multinomial * np.prod(q ** table.index, axis=1))
    return sorted(b for b, w in zip(table.index_set, worst) if w < tol)


SHIPPED_SCENARIOS = ([ngon_mpst_scenario(n, N) for n in range(2, 6) for N in range(1, 5)]
                     + [hypercube_pst_scenario(N) for N in (1, 2, 5, 12)]
                     + [ow_fr_scenario(d, N, k) for d in (2, 3, 4) for N in (1, 2, 3)
                        for k in range(1, d + 1)])


@pytest.mark.parametrize("sc", SHIPPED_SCENARIOS, ids=lambda sc: sc.label)
def test_zt_candidates_match_the_class_product_formula(sc):
    grids = ([0.0], [t for t, _, _ in sc.expected_events][:1] or [1.0],
             np.linspace(0.0, math.pi, 40), np.linspace(0.0, 2 * math.pi, 90))
    for grid in grids:
        for tol in (1e-9, 1e-3, 0.1):
            got = [ev.support[0] for ev in zt_candidates(sc.spec, grid, tol=tol)]
            assert got == _zt_by_class_product(sc.spec, grid, tol), (list(grid)[:3], tol)
