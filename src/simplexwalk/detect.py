"""Classify amplitude profiles into transfer events and package the
ready-made scenarios (cycle hopping, hypercube flip, ordered-word revival).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .extension import class_table
from .schemes import directed_ngon, ordered_word_scheme, trivial_scheme_2
from .walk import (
    WalkSpec,
    amplitudes,
    canonical_ngon_weights,
    site_factors,
    solve_weights,
    walk_spec,
)

PST_TOL = 1e-8
FR_TOL = 1e-6
COARSE_TOL = 1e-3
MAX_SUPPORT_FRACTION = 0.5
NORMALIZATION_TOL = 1e-6


@dataclasses.dataclass(frozen=True, eq=False)
class TransferEvent:
    """A detected concentration of probability at one time.

    ``support`` is the smallest set of class indices holding at least
    1 - tol of the probability; ``phase`` is filled for single-site events.
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


def classify(profile, tol: float = PST_TOL) -> TransferEvent:
    """Name the event at ``profile.time`` by its minimal high-probability
    support: one site is a perfect transfer, two balanced sites a maximal
    entanglement, any proper subset a revival.

    The support is taken at ``max(tol, FR_TOL)``; the stricter ``tol``
    gates the single-site perfect-transfer claim.
    """
    if not profile.hermitian:
        raise ValueError("cannot classify a non-unitary profile")
    total = profile.total_probability()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"profile is not normalized (total {total!r})")
    fr_tol = max(tol, FR_TOL)

    ranked = sorted(profile.class_probabilities.items(), key=lambda kv: (-kv[1], kv[0]))
    cum = 0.0
    support = []
    for beta, prob in ranked:
        support.append((beta, prob))
        cum += prob
        if cum >= 1.0 - fr_tol:
            break

    indices = tuple(sorted(beta for beta, _ in support))
    if len(support) == 1:
        beta = support[0][0]
        if cum < 1.0 - tol:
            return TransferEvent(kind="none", time=profile.time, support=indices, fidelity=cum)
        phase = float(np.angle(profile.site_amplitudes[beta]))
        return TransferEvent(kind="PST", time=profile.time, support=indices, fidelity=cum, phase=phase)
    if len(support) == 2 and all(abs(p - 0.5) <= fr_tol for _, p in support):
        return TransferEvent(kind="GME", time=profile.time, support=indices, fidelity=cum)
    if len(support) == len(ranked):
        # probability reaches every class: no confinement, hence no event
        return TransferEvent(kind="none", time=profile.time, support=indices, fidelity=cum)
    return TransferEvent(kind="FR", time=profile.time, support=indices, fidelity=cum)


def _support_probability(spec: WalkSpec, t: float, support) -> float:
    prof = amplitudes(spec, t)
    return sum(prof.class_probabilities[beta] for beta in support)


def _golden_max(fun, a: float, b: float, iters: int = 60) -> float:
    """Golden-section maximization on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
    return (a + b) / 2.0


def scan(spec: WalkSpec, t_grid, tol: float = PST_TOL) -> list:
    """Locate transfer events along a sorted time grid.

    Event times rarely fall on grid points, so detection is two-pass: grid
    points are classified at ``max(tol, COARSE_TOL)``, maximal stretches of
    identical coarse classification are bracketed, each bracket's time is
    refined by golden-section fidelity maximization, and the refined
    profile is classified at the strict tolerance.  Revival events whose
    support exceeds ``MAX_SUPPORT_FRACTION`` of the classes are treated as
    unconfined and dropped; adjacent duplicates are merged on the best
    fidelity.
    """
    coarse_tol = max(tol, COARSE_TOL)
    t_grid = list(t_grid)
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("time grid must be sorted")

    candidates = {}
    for i, t in enumerate(t_grid):
        ev = classify(amplitudes(spec, t), coarse_tol)
        if ev.kind != "none":
            candidates[i] = ev

    segments = []
    run = []
    for i in sorted(candidates):
        if run and (i != run[-1] + 1
                    or candidates[i].kind != candidates[run[-1]].kind
                    or candidates[i].support != candidates[run[-1]].support):
            segments.append(run)
            run = []
        run.append(i)
    if run:
        segments.append(run)

    spacing = _grid_spacing(t_grid)
    events = []
    for seg in segments:
        ev = _refine_segment(spec, t_grid, seg, candidates, tol, coarse_tol)
        if ev is None or ev.kind == "none":
            continue
        if ev.kind == "FR" and len(ev.support) > MAX_SUPPORT_FRACTION * _class_count(spec):
            continue
        if not _is_local_fidelity_max(spec, ev, spacing, t_grid):
            continue
        events.append(ev)
    events = _drop_shoulders(events, spacing)
    return _dedupe(events, spacing)


def _class_count(spec: WalkSpec) -> int:
    return len(class_table(spec.base, spec.copies).order)


def _grid_spacing(t_grid) -> float:
    gaps = [b - a for a, b in zip(t_grid, t_grid[1:])]
    return max(gaps) if gaps else 0.0


def _is_local_fidelity_max(spec, ev, spacing, t_grid) -> bool:
    """True when the support probability peaks at the event time rather
    than still rising toward a concentration elsewhere."""
    if spacing == 0.0:
        return True
    here = 1.0 - _support_probability(spec, ev.time, ev.support)
    lo = max(ev.time - spacing, t_grid[0])
    hi = min(ev.time + spacing, t_grid[-1])
    for other in (lo, hi):
        if abs(other - ev.time) < spacing / 4.0:
            continue
        if 1.0 - _support_probability(spec, other, ev.support) < here - 1e-15:
            return False
    return True


def _drop_shoulders(events, spacing) -> list:
    """Drop revival events whose support strictly contains that of a nearby
    sharper event: they are the flanks of the sharper concentration."""
    keep = []
    for ev in events:
        shadowed = any(
            set(other.support) < set(ev.support)
            and abs(other.time - ev.time) <= 2.0 * spacing + 1e-12
            for other in events
            if other is not ev
        )
        if not shadowed:
            keep.append(ev)
    return keep


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


def _refine_segment(spec, t_grid, seg, candidates, tol, coarse_tol):
    best_i = max(seg, key=lambda i: candidates[i].fidelity)
    candidate = candidates[best_i]
    a = t_grid[max(seg[0] - 1, 0)]
    b = t_grid[min(seg[-1] + 1, len(t_grid) - 1)]
    t_ref = t_grid[best_i]

    def objective_for(event):
        if event.kind == "GME":
            # balance point: maximize the smaller of the two probabilities
            return lambda t: min(
                amplitudes(spec, t).class_probabilities[beta] for beta in event.support
            )
        return lambda t: _support_probability(spec, t, event.support)

    if b > a:
        # re-maximize whenever the support sharpens: the first pass can
        # stall on the plateau of a support larger than the true one
        current = candidate
        for _ in range(4):
            t_ref = _golden_max(objective_for(current), a, b)
            sharper = classify(amplitudes(spec, t_ref), coarse_tol)
            if sharper.support == current.support or not set(sharper.support) < set(current.support):
                break
            current = sharper
    for t in (t_ref, t_grid[best_i]):
        ev = classify(amplitudes(spec, t), tol)
        if ev.kind != "none":
            return ev
    return None


def zt_candidates(spec: WalkSpec, t_grid, tol: float = PST_TOL) -> list:
    """Classes whose probability stays below tol over the whole grid.

    Only candidates: a finite grid cannot certify vanishing for all times.
    """
    worst = {}
    for t in t_grid:
        prof = amplitudes(spec, t)
        for beta, prob in prof.class_probabilities.items():
            worst[beta] = max(worst.get(beta, 0.0), prob)
    return [TransferEvent(kind="ZT-candidate", time=None, support=(beta,), fidelity=0.0)
            for beta in sorted(worst) if worst[beta] < tol]


def cascade_residual(spec: WalkSpec, times, tol: float = 1e-9) -> float:
    """Largest |p_k'| found above a vanishing p_k with k' > k >= 1.

    Zero when every vanishing site factor is followed only by vanishing
    ones, which is the expected pattern for the ordered-word scheme.
    """
    scale = float(spec.base.multiplicities.sum())
    worst = 0.0
    for t in times:
        p = np.abs(site_factors(spec, t)) / scale
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
    if N < 1:
        raise ValueError("need N >= 1")
    spec = walk_spec(trivial_scheme_2(), N, [1.0])
    expected = ((math.pi / 2.0, "PST", ((0, N),)),)
    return Scenario(label=f"hypercube-pst(N={N})", spec=spec, expected_events=expected)


def ow_fr_scenario(d: int, N: int, k: int, t_star: float = math.pi / 2.0) -> Scenario:
    """Ordered-word walk with solved couplings whose phases are trivial up
    to position d-k+1 and a quarter turn beyond, so the probability at
    t_star is confined to the classes with beta_k = ... = beta_d = 0."""
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    if N < 1:
        raise ValueError("need N >= 1")
    scheme = ordered_word_scheme(d)
    args = [2.0 * math.pi if l <= d - k + 1 else math.pi / 2.0 for l in range(1, d + 1)]
    sol = solve_weights(scheme, t_star, args)
    spec = walk_spec(scheme, N, sol.weights)
    support = tuple(
        beta for beta in class_table(scheme, N).order if all(beta[j] == 0 for j in range(k, d + 1))
    )
    if len(support) == 1:
        kind = "PST"
    elif len(support) == 2:
        kind = "GME"
    else:
        kind = "FR"
    expected = ((t_star, kind, support),)
    return Scenario(label=f"ow-fr(d={d}, N={N}, k={k})", spec=spec, expected_events=expected)
