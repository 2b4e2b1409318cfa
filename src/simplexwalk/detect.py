"""Classify amplitude profiles into transfer events, scan time grids for
events on the faces of the base simplex, and package the ready-made
scenarios (cycle hopping, hypercube flip, ordered-word revival).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .extension import enumerate_indices
from .schemes import _integers, directed_ngon, ordered_word_scheme, trivial_scheme_2
from .walk import (
    WalkSpec,
    _finite_times,
    _site_factor_jets,
    _site_factor_rows,
    canonical_ngon_weights,
    eigenvalue_lambda,
    solve_weights,
    walk_spec,
)

PST_TOL = 1e-8
FR_TOL = 1e-6
NORMALIZATION_TOL = 1e-6


@dataclasses.dataclass(frozen=True, eq=False)
class TransferEvent:
    """A detected concentration of probability at one time.

    ``support`` is the classes of the smallest face of the base simplex
    holding at least 1 - max(tol, FR_TOL) of the probability; ``phase`` is
    filled for single-site events.
    """

    kind: str  # PST | GME | FR | ZT-candidate | none
    time: float
    support: tuple
    fidelity: float
    phase: float = None


@dataclasses.dataclass(frozen=True, eq=False)
class Scenario:
    label: str
    spec: WalkSpec
    expected_events: tuple  # of (time, kind, support tuple)


def _check_tol(tol: float) -> None:
    if not 0 < tol < 1:  # NaN fails too
        raise ValueError(f"tol must be positive and below 1, got {tol!r}")


def classify(profile, tol: float = PST_TOL) -> TransferEvent:
    """Name the event at ``profile.time`` by the smallest face of the base
    simplex holding 1 - max(tol, FR_TOL) of the probability, as ``scan``
    does: one site is a perfect transfer (gated by the stricter ``tol``),
    two balanced classes a maximal entanglement, any other proper face a
    revival, and the face of every site no event.

    Only the class probabilities are read: site k ranks by
    sum_beta P(beta) beta_k = N q_k, and a face holds the classes whose
    support lies in it.
    """
    _check_tol(tol)
    if not profile.hermitian:
        raise ValueError("cannot classify a non-unitary profile")
    total = profile.total_probability()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
        raise ValueError(f"profile is not normalized (total {total!r})")
    betas = np.array(list(profile.class_probabilities))
    probs = np.array(list(profile.class_probabilities.values()))
    N, d = int(betas[0].sum()), betas.shape[1] - 1
    means = probs @ betas
    ranked = np.argsort(-means, kind="stable")
    # a class lies in the face of the r heaviest sites iff its lowest ranked
    # site is among them; the one class of N = 0 lies in every face
    reach = np.where(betas > 0, ranked.argsort(), 0).max(axis=1)
    held = np.cumsum(np.bincount(reach, weights=probs, minlength=d + 1))
    kind, sites, fidelity = _named_face(held.tolist(), ranked.tolist(), means.tolist(), N, tol)
    support = _face_classes(sites, N, d)
    phase = float(np.angle(profile.site_amplitudes[support[0]])) if kind == "PST" else None
    return TransferEvent(kind=kind, time=profile.time, support=support, fidelity=fidelity, phase=phase)


def _named_face(held, ranked, q, N: int, tol: float) -> tuple:
    """The event rule of ``classify`` and ``scan``: (kind, sites, fidelity)
    of the smallest face holding 1 - max(tol, FR_TOL), where ``held[r - 1]``
    is the mass of the face on the r heaviest sites ``ranked[:r]`` and
    ``q[k]`` the mass of site k at N = 1."""
    fr_tol = max(tol, FR_TOL)
    d = len(ranked) - 1
    size = next((r for r in range(1, d + 1) if held[r - 1] >= 1.0 - fr_tol), d + 1)
    sites = sorted(ranked[:size])
    fidelity = held[size - 1]
    if size == 1:
        kind = "none" if fidelity < 1.0 - tol else "PST"
    elif size == 2 and N == 1 and all(abs(q[k] - 0.5) <= fr_tol for k in sites):
        kind = "GME"
    else:
        # the face of every site is unconfined
        kind = "FR" if size <= d else "none"
    return kind, sites, fidelity


_SEEDS = 9
_NEWTON_STEPS = 60
_EPS = float(np.finfo(float).eps)


def _face_jets(spec: WalkSpec, weights: np.ndarray, times) -> tuple:
    """For row i of ``weights`` (k_k on the sites k of a face S, 0 elsewhere)
    at ``times[i]``: the face mass F = sum_k w_k |p_k|^2, its derivatives
    F' = sum_k w_k Re(conj(p_k) p_k') and
    F'' = sum_k w_k (|p_k'|^2 + Re(conj(p_k) p_k'')), and the scale
    sum_k w_k |p_k| |p_k'| of the rounding in F', each without the common
    factor 1 / |X|^2 (2 / |X|^2 for the derivatives), which moves no sign,
    no argmax and no ratio."""
    jets = _site_factor_jets(spec, times)
    # [i, a, b, k] = conj(p_k^(a)) p_k^(b) at times[i], for a < 2
    products = np.conj(jets[:, :2, None]) * jets[:, None]
    sums = (products.real * weights[:, None, None]).sum(-1)
    noise = (np.abs(products[:, 0, 1]) * weights).sum(-1)
    return sums[:, 0, 0], sums[:, 0, 1], sums[:, 1, 1] + sums[:, 0, 2], noise


def _newton_max(spec: WalkSpec, weights: np.ndarray, a, b) -> list:
    """The time at which the face mass of row i of ``weights`` peaks in
    [a[i], b[i]], every bracket refined in lockstep.

    Each bracket is sampled at _SEEDS equally spaced times, ends included,
    in one kernel call for all brackets.  Where F' falls from + to - between
    the best sample (the largest F) and a neighbour, those two samples
    bracket the maximum; otherwise the best sample is the answer (a
    zero-width bracket keeps t = a).  Inside [lo, hi] each step takes the
    Newton step t - F'/F'' when F'' < 0 and it lands within xtol of the
    bracket, clipped into it, and bisects otherwise (the rtsafe scheme of
    Press et al., Numerical Recipes, section 9.4); the sign of F' at the
    new t moves lo or hi to it.  A bracket stops when |F'| is at rounding
    level (8 eps (d+1) times its rounding scale), when
    hi - lo <= xtol = 4 eps max(1, |a|, |b|) or when the Newton step is at
    most xtol, and answers its last Newton step, or t where it took none;
    after _NEWTON_STEPS evaluations it answers t.  Each step is one kernel
    call over the brackets still live, so each answer depends on its own
    bracket alone.
    """
    rounding = 8.0 * _EPS * weights.shape[1]
    samples = [[lo + j * ((hi - lo) / (_SEEDS - 1)) for j in range(_SEEDS - 1)] + [hi]
               for lo, hi in zip(a, b)]
    mass, slope, curvature, noise = (x.reshape(-1, _SEEDS) for x in _face_jets(
        spec, np.repeat(weights, _SEEDS, axis=0), np.ravel(samples)))
    times, live = [], []  # live: (bracket, t, lo, hi, F'(t), F''(t), rounding scale, xtol)
    for i, (s, m, f1) in enumerate(zip(samples, mass.argmax(axis=1).tolist(), slope.tolist())):
        times.append(s[m])
        if m < _SEEDS - 1 and f1[m] > 0 > f1[m + 1]:
            lo, hi = s[m], s[m + 1]
        elif m > 0 and f1[m - 1] > 0 > f1[m]:
            lo, hi = s[m - 1], s[m]
        else:
            continue
        live.append((i, s[m], lo, hi, f1[m], float(curvature[i, m]), float(noise[i, m]),
                     4.0 * _EPS * max(1.0, abs(s[0]), abs(s[-1]))))
    for _ in range(_NEWTON_STEPS):
        moved = []
        for i, t, lo, hi, f1, f2, scale, xtol in live:
            newton = f2 < 0 and lo - xtol <= t - f1 / f2 <= hi + xtol
            new = min(max(t - f1 / f2, lo), hi) if newton else 0.5 * (lo + hi)
            if abs(f1) <= rounding * scale or hi - lo <= xtol or newton and abs(new - t) <= xtol:
                times[i] = new if newton else t
            else:
                moved.append((i, new, lo, hi, xtol))
        if not moved:
            break
        _, slope, curvature, noise = _face_jets(spec, weights[[i for i, *_ in moved]],
                                                [t for _, t, *_ in moved])
        live = [(i, t, t if f1 > 0 else lo, t if f1 < 0 else hi, f1, f2, scale, xtol)
                for (i, t, lo, hi, xtol), f1, f2, scale
                in zip(moved, slope.tolist(), curvature.tolist(), noise.tolist())]
    else:
        for i, t, *_ in live:
            times[i] = t
    return times


def _time_grid(t_grid) -> np.ndarray:
    grid = _finite_times(t_grid)
    if (np.diff(grid) < 0).any():
        raise ValueError("time grid must be sorted")
    return grid


def _site_masses(spec: WalkSpec, p: np.ndarray) -> np.ndarray:
    """q_k(t) = k_k |p_k(t)|^2 / |X|^2 from site factor rows p: the class
    distribution is multinomial(N; q), so the face of the base simplex on
    the sites S holds probability (sum_{k in S} q_k)^N."""
    return spec.base.valencies * np.abs(p) ** 2 / float(spec.base.size) ** 2


def _face_classes(sites, N: int, d: int) -> tuple:
    """The classes beta with beta_k = 0 off ``sites``, in ascending order:
    the compositions come largest first, and scattering them onto the
    ascending ``sites`` keeps that order."""
    out = []
    for part in enumerate_indices(N, len(sites) - 1):
        beta = [0] * (d + 1)
        for k, b in zip(sites, part):
            beta[k] = b
        out.append(tuple(beta))
    return tuple(reversed(out))


def _face_events(spec: WalkSpec, times, p: np.ndarray, tol: float) -> list:
    """The event at each of ``times``, whose site factors are the rows of
    ``p``, by ``_named_face`` on the face masses (sum_{k in S} q_k)^N;
    None where there is no event.  The masses, their ranking and the face
    masses come from one pass over every row."""
    N, d = spec.copies, spec.base.d
    q = _site_masses(spec, p)
    ranked = np.argsort(-q, axis=1, kind="stable")
    helds = np.cumsum(q[np.arange(len(q))[:, None], ranked], axis=1) ** N
    # N theta_0 is the eigenvalue on the trivial idempotent (N, 0, ..., 0)
    lam = eigenvalue_lambda(spec, _extreme_index(d, N, 0))

    def named(t, row, q, ranked, held):
        kind, sites, fidelity = _named_face(held, ranked, q, N, tol)
        if kind == "none":
            return None
        phase = float(np.angle(np.exp(-1j * t * lam) * row[sites[0]] ** N)) if kind == "PST" else None
        return TransferEvent(kind=kind, time=t, support=_face_classes(sites, N, d),
                             fidelity=fidelity, phase=phase)

    return list(map(named, times, p, q.tolist(), ranked.tolist(), helds.tolist()))


def scan(spec: WalkSpec, t_grid, tol: float = PST_TOL) -> list:
    """Locate transfer events along a sorted time grid.

    Every event lives on a face of the base simplex and is fixed by the d+1
    site masses q(t).  For r = 1..d, each run of grid points where the mass
    of the r heaviest sites peaks on one site set S is bracketed by its
    neighbouring grid points, the mass of S is maximized there by a
    safeguarded Newton iteration on its closed-form derivative
    (``_newton_max``), and the face holding the probability at that time
    names the event (PST, GME or FR; the face of every site is unconfined
    and names no event).  Adjacent duplicates are merged on the best
    fidelity.  The runs are refined in lockstep: one ``_site_factor_jets``
    call seeds every bracket and one more serves each step, so a scan
    makes 3 + max(steps) kernel calls in all.

    Event times are resolved to rounding: each bracket stops once the
    Newton step or the bracket is a few ulps of t wide, or once F' is no
    larger than its own rounding error.  A flat (higher-order) maximum
    stops at that F' noise level, where the face mass no longer tells the
    times apart.
    """
    _check_tol(tol)
    grid = _time_grid(t_grid)
    if not spec.is_hermitian:
        raise ValueError("cannot scan a non-unitary walk")
    if spec.copies == 0:
        # the one class holds probability 1 at every time: one event at most
        grid = grid[:1]
    q = _site_masses(spec, _site_factor_rows(spec, grid))
    ranked = np.argsort(-q, axis=1, kind="stable")
    heaviest = np.cumsum(q[np.arange(len(q))[:, None], ranked], axis=1)

    d = spec.base.d
    peak = np.ones((len(grid), d), dtype=bool)  # [i, r - 1]: the mass of r sites peaks at i
    peak[1:] &= heaviest[1:, :d] >= heaviest[:-1, :d]
    peak[:-1] &= heaviest[:-1, :d] >= heaviest[1:, :d]
    rs, at = np.nonzero(peak.T)
    runs = []  # [first, last, sites], by r and then by time
    for r, i, top in zip((rs + 1).tolist(), at.tolist(), ranked[at].tolist()):
        sites = sorted(top[:r])
        # a run of another r has another number of sites
        if runs and runs[-1][1] == i - 1 and runs[-1][2] == sites:
            runs[-1][1] = i
        else:
            runs.append([i, i, sites])
    if not runs:
        return []
    first, last, sites = zip(*runs)
    a = grid[np.maximum(np.array(first) - 1, 0)]
    b = grid[np.minimum(np.array(last) + 1, len(grid) - 1)]
    # row j weighs the sites of run j by their valencies
    weights = np.zeros((len(runs), d + 1))
    rows = np.repeat(np.arange(len(runs)), [len(s) for s in sites])
    cols = np.concatenate(sites)
    weights[rows, cols] = spec.base.valencies[cols]
    times = _newton_max(spec, weights, a.tolist(), b.tolist())
    events = [ev for ev in _face_events(spec, times, _site_factor_rows(spec, times), tol)
              if ev is not None]
    events.sort(key=lambda ev: ev.time)
    return _dedupe(events, _grid_spacing(grid))


def _grid_spacing(t_grid) -> float:
    return float(np.diff(t_grid).max()) if len(t_grid) > 1 else 0.0


def _dedupe(events, spacing) -> list:
    out = []
    for ev in events:
        prev = out[-1] if out else None
        if (prev is not None and prev.kind == ev.kind and prev.support == ev.support
                and abs(ev.time - prev.time) <= 2.0 * spacing + 1e-12):
            if ev.fidelity > prev.fidelity:
                out[-1] = ev
        else:
            out.append(ev)
    return out


def zt_candidates(spec: WalkSpec, t_grid, tol: float = PST_TOL) -> list:
    """Classes whose probability multinomial(N; beta) prod_k q_k^beta_k stays
    below tol over the whole grid; the products are the class monomials of
    the site masses (``ExtensionScheme.monomials``), one time at a time.

    Only candidates: a finite grid cannot certify vanishing for all times.
    """
    _check_tol(tol)
    grid = _time_grid(t_grid)
    if not len(grid):
        return []
    table = spec.table
    worst = np.zeros(table.dimension)
    for q in _site_masses(spec, _site_factor_rows(spec, grid)):
        worst = np.maximum(worst, table.multinomial * table.monomials(q, np.ones(len(worst))))
    return [TransferEvent(kind="ZT-candidate", time=None, support=(beta,), fidelity=0.0)
            for beta in sorted(b for b, w in zip(table.index_set, worst) if w < tol)]


def cascade_residual(spec: WalkSpec, times, tol: float = 1e-9) -> float:
    """Largest |p_k'| found above a vanishing p_k with k' > k >= 1.

    Zero when every vanishing site factor is followed only by vanishing
    ones, which is the expected pattern for the ordered-word scheme.
    """
    _check_tol(tol)
    scale = float(spec.base.multiplicities.sum())
    worst = 0.0
    for p in np.abs(_site_factor_rows(spec, _finite_times(times))) / scale:
        for k in range(1, len(p) - 1):
            if p[k] < tol:
                tail_max = float(p[k + 1:].max())
                if tail_max >= tol:
                    worst = max(worst, tail_max)
    return worst


def _extreme_index(d: int, N: int, j: int) -> tuple:
    out = [0] * (d + 1)
    out[j] = N
    return tuple(out)


def ngon_mpst_scenario(n: int, N: int) -> Scenario:
    """Canonical-weight walk on the n-cycle power scheme: at each time
    2*pi*k/n the profile sits entirely on one extreme class; over
    k = 1..n the arrivals sweep every extreme class once."""
    n, N = _integers((n, N), "n and N")
    if n < 2 or N < 1:
        raise ValueError("need n >= 2 and N >= 1")
    scheme = directed_ngon(n)
    spec = walk_spec(scheme, N, canonical_ngon_weights(n))
    expected = []
    for k in range(1, n + 1):
        arrival = _extreme_index(n - 1, N, (n - k) % n)
        expected.append((2.0 * math.pi * k / n, "PST", (arrival,)))
    return Scenario(label=f"ngon-mpst(n={n}, N={N})", spec=spec, expected_events=tuple(expected))


def hypercube_pst_scenario(N: int) -> Scenario:
    """Unit-weight walk on the binary power scheme: antipodal transfer at
    t = pi/2, and the swap beta -> reversed(beta) for every start class."""
    (N,) = _integers((N,), "N")
    if N < 1:
        raise ValueError("need N >= 1")
    spec = walk_spec(trivial_scheme_2(), N, [1.0])
    expected = ((math.pi / 2.0, "PST", ((0, N),)),)
    return Scenario(label=f"hypercube-pst(N={N})", spec=spec, expected_events=expected)


def ow_fr_scenario(d: int, N: int, k: int) -> Scenario:
    """Ordered-word walk with solved couplings whose phases are trivial up
    to position d-k+1 and a quarter turn beyond, so the probability at
    t = pi/2 is confined to the classes with beta_k = ... = beta_d = 0."""
    d, N, k = _integers((d, N, k), "d, N and k")
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if N < 1:
        raise ValueError("need N >= 1")
    scheme = ordered_word_scheme(d)
    t_star = math.pi / 2.0
    args = [2.0 * math.pi if l <= d - k + 1 else math.pi / 2.0 for l in range(1, d + 1)]
    sol = solve_weights(scheme, t_star, args)
    spec = walk_spec(scheme, N, sol.weights)
    support = tuple(
        beta for beta in spec.table.index_set if all(beta[j] == 0 for j in range(k, d + 1))
    )
    if len(support) == 1:
        kind = "PST"
    elif len(support) == 2:
        kind = "GME"
    else:
        kind = "FR"
    expected = ((t_star, kind, support),)
    return Scenario(label=f"ow-fr(d={d}, N={N}, k={k})", spec=spec, expected_events=expected)
