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


_GOLDEN_STEPS = 60
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(a: float, b: float, steps: int):
    """Golden-section maximization on [a, b] in ``steps`` steps, as a
    generator: it yields the steps + 2 times to evaluate, takes the value at
    each by ``send``, then yields the maximizer for ever after, so that a
    finished run can wait in lockstep with longer ones.  A zero-width
    bracket keeps t = a."""
    lo, hi = a, b
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = yield x1
    f2 = yield x2
    for _ in range(steps):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = yield x2
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = yield x1
    t = (a + b) / 2.0 if hi > lo else lo
    while True:
        yield t


def _golden_max(fun, a, b, tau: float) -> list:
    """``_golden_section`` on every bracket [a_i, b_i] in lockstep, each in
    its own step count: the smallest n <= _GOLDEN_STEPS with
    (b_i - a_i) phi^n <= tau, phi = _INVPHI, past which a smooth maximum
    no longer moves by more than rounding.  ``fun`` maps one time per
    bracket to one value per bracket and is called max(n) + 2 times; a
    finished bracket is evaluated at its answer and ignores the value, so
    each answer depends on its own bracket alone."""
    widths = np.subtract(b, a)
    steps = (np.multiply.outer(widths, _INVPHI ** np.arange(_GOLDEN_STEPS)) > tau).sum(axis=1)
    runs = [_golden_section(lo, hi, n) for lo, hi, n in zip(a, b, steps.tolist())]
    ts = [next(run) for run in runs]
    for _ in range(int(steps.max()) + 2):
        ts = [run.send(f) for run, f in zip(runs, fun(ts).tolist())]
    return ts


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
    neighbouring grid points, the mass of S is maximized there by golden
    section, and the face holding the probability at that time names the
    event (PST, GME or FR; the face of every site is unconfined and names no
    event).  Adjacent duplicates are merged on the best fidelity.  The runs
    are refined in lockstep: one ``_site_factor_rows`` call per step.

    Event times are resolved to about sqrt(eps) / max(1, max_l |mu_l|): a
    smooth maximum is flat to rounding over about sqrt(eps) of the fastest
    time scale 1 / max_l |mu_l| of the site factors z_l(t) = exp(i t mu_l),
    so each bracket stops once it is that narrow, and a scan makes
    4 + max(steps) kernel calls in all.  On slower walks (max_l |mu_l| < 1)
    the flat stretch, not the bracket, bounds the error.
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

    d, classes = spec.base.d, spec.base.classes
    peak = np.ones((len(grid), d), dtype=bool)  # [i, r - 1]: the mass of r sites peaks at i
    peak[1:] &= heaviest[1:, :d] >= heaviest[:-1, :d]
    peak[:-1] &= heaviest[:-1, :d] >= heaviest[1:, :d]
    rs, at = np.nonzero(peak.T)
    runs = {r: [] for r in range(1, d + 1)}  # per r, [first, last, sites]
    for r, i, top in zip((rs + 1).tolist(), at.tolist(), ranked[at].tolist()):
        sites = sorted(top[:r])
        same = runs[r]
        if same and same[-1][1] == i - 1 and same[-1][2] == sites:
            same[-1][1] = i
        else:
            same.append([i, i, sites])
    # per run (first, last); the sites of every run as flat indices into
    # the (runs, d+1) masses, r per run and in order of r; per r, the
    # (start, stop, r) of its runs' indices there
    bounds, gathers, blocks = [], [], []
    for r, same in runs.items():
        if same:
            gathers += [j * classes + k for j, (_, _, sites) in enumerate(same, len(bounds))
                        for k in sites]
            blocks.append((len(gathers) - len(same) * r, len(gathers), r))
            bounds += [(first, last) for first, last, _ in same]
    if not bounds:
        return []
    first, last = np.array(bounds).T
    a, b = grid[np.maximum(first - 1, 0)], grid[np.minimum(last + 1, len(grid) - 1)]
    gathers = np.array(gathers)
    # r = 1 always peaks and comes first: a face of one site holds its mass
    singles = blocks.pop(0)[1]
    # _site_masses on the gathered sites only, with the valency of each
    # read once per scan
    valencies = spec.base.valencies.astype(float)[gathers % classes]
    size2 = float(spec.base.size) ** 2

    def face_mass(ts):
        q = valencies * np.abs(_site_factor_rows(spec, ts).take(gathers)) ** 2 / size2
        if not blocks:
            return q
        # each larger face is summed by the same reduction as q[sites].sum()
        return np.concatenate([q[:singles]] + [np.add.reduce(q[lo:hi].reshape(-1, r), 1)
                                               for lo, hi, r in blocks])

    tau = math.sqrt(np.finfo(float).eps) / max(1.0, float(np.abs(spec._site_terms[0]).max()))
    times = _golden_max(face_mass, a.tolist(), b.tolist(), tau)
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
