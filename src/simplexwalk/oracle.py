"""Dense brute-force verification of every closed form.

The walk is evolved on all |X|^N vertices, matrix-free, by two independent
methods: exp(-i t H) e_u as the Kronecker product over the copies of the
one-copy columns sum_j exp(-i t theta_j) E_j[:, u_s] (the factorized
idempotent phases), and by Lanczos from e_u on H v, stopped on a breakdown
or on an error bound integrated over the times, with one
eigendecomposition of the small tridiagonal it leaves.  H v is the
Kronecker sum over the copies of the one-copy h = sum_i w_i A_i, read off
the relation table, applied copy by copy; no |X|^N x |X|^N array is formed.
The two states must agree, and both must match the product-formula
amplitudes class by class.  Class membership is read from per-copy relation
counts: (v, w) lies in class beta when beta_k copies s have A_k[v_s, w_s] = 1.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import krawtchouk
from .extension import (_guarded_rows, _rank, _relation_counts, _relation_table, enumerate_indices,
                        size_guard)
from .schemes import (
    SPECTRAL_TOL,
    directed_ngon,
    ordered_word_scheme,
    trivial_scheme_2,
    validate_scheme,
)
from .walk import (
    WalkSpec,
    _amplitude_rows,
    _finite_times,
    amplitudes,
    canonical_ngon_weights,
    evolve_projected,
    projected_matrix,
    walk_spec,
)

# Row guard of the matrix-free evolutions and of the comparison: the Lanczos
# basis holds k vectors of |X|^N complex entries, about 16 k |X|^N bytes
# (34 MB for k = 32 at 2^16 rows).  SIMPLEXWALK_GUARD only raises it, as it
# also sets ``DEFAULT_GUARD``, the guard that the rows^2 materializations
# (``dense_hamiltonian``, ``materialize_class``) keep.
SWEEP_GUARD = 2 ** 16


def _start_index(spec: WalkSpec, start_vertex) -> int:
    rows, guard = spec.base.size ** spec.copies, max(size_guard(), SWEEP_GUARD)
    if rows > guard:
        raise ValueError(f"{rows} rows exceed the dense oracle's guard ({guard})")
    if isinstance(start_vertex, bool) or not isinstance(start_vertex, (int, np.integer)):
        raise ValueError(f"start vertex must be an integer, got {start_vertex!r}")
    if not 0 <= start_vertex < rows:
        raise ValueError("start vertex out of range")
    return int(start_vertex)


def _one_copy_hamiltonian(spec: WalkSpec) -> np.ndarray:
    """h = sum_i w_i A_i, read off the relation table: each entry has at
    most one nonzero term, so h holds the weights exactly."""
    return np.append(0.0, spec.weights)[_relation_table(spec.base.adjacency)]


def dense_hamiltonian(spec: WalkSpec) -> np.ndarray:
    """Materialize the walk Hamiltonian on the full vertex set: the
    Kronecker sum over the copies of the one-copy h.  Each entry has at
    most one nonzero term, so H holds the weights exactly; adding 0.0 turns
    the signed zeros to +0.0."""
    _guarded_rows(spec.base, spec.copies)
    h = _one_copy_hamiltonian(spec)
    H = np.zeros((1, 1), dtype=complex)
    for _ in range(spec.copies):
        H, step = np.kron(np.eye(spec.base.size), H), np.kron(h, np.eye(len(H)))
        H += step
    H += 0.0
    return H


def _base_idempotents(spec: WalkSpec) -> list:
    """The d+1 dense base idempotents E_j."""
    return [spec.base.idempotent(j) for j in range(spec.base.classes)]


def _projector_evolution(spec: WalkSpec, t: float, start_vertex: int, idempotents) -> np.ndarray:
    """exp(-i t M) applied to the vertex indicator: M is a Kronecker sum, so
    the state is the Kronecker product over the copies s of the columns
    F[:, u_s], u_s the base-|X| digits of the start vertex and F = exp(-i t
    R) = sum_j exp(-i t theta_j) E_j, R the one-copy Hamiltonian and E_j =
    ``idempotents[j]``."""
    scheme = spec.base
    rates = scheme.first_eigenmatrix[:, 1:] @ spec.weights
    F = sum(np.exp(-1j * t * rate) * E for rate, E in zip(rates, idempotents))
    digits = np.unravel_index(start_vertex, (scheme.size,) * spec.copies)
    state = np.ones(1, dtype=complex)
    for x in digits:
        state = (state[:, None] * F[:, x]).reshape(-1)
    return state


def dense_evolution(spec: WalkSpec, t: float, start_vertex: int, method: str = "eig") -> np.ndarray:
    """exp(-i t M) applied to the vertex indicator, on at most SWEEP_GUARD
    rows and with no rows x rows array.

    method "projector" is the Kronecker product of the one-copy columns of
    the factorized idempotent phases; method "eig" runs Lanczos on the
    matrix-free H from the vertex indicator until it breaks down or its
    error bound over [0, |t|] is at rounding level (``_dense_eigh``).  Both
    are exact up to roundoff and must agree.  t must be one finite real
    number, under the grid rule of ``walk._finite_times``.
    """
    start_vertex = _start_index(spec, start_vertex)
    try:
        (t,) = _finite_times([t])
    except ValueError:
        raise ValueError("t must be a finite real number") from None
    if method == "projector":
        return _projector_evolution(spec, t, start_vertex, _base_idempotents(spec))
    if method == "eig":
        vals, vecs, overlaps = _dense_eigh(spec, start_vertex, [t])
        return vecs @ (np.exp(-1j * t * vals) * overlaps)
    raise ValueError(f"unknown method {method!r}")


def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1] by Golub-Welsch: the
    nodes are the eigenvalues of the Jacobi matrix of the Legendre
    polynomials, the weights twice the squared first eigenvector entries."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4 * k * k - 1)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2 * vecs[0] ** 2


_KRYLOV_STOP = 64  # Lanczos stops once beta <= _KRYLOV_STOP eps ||H||
_EXPM_STOP = 1e-13  # ... or once its error bound on exp(-i t H) e_u is this small
_GAUSS_NODES, _GAUSS_WEIGHTS = _gauss_legendre(8)  # the bound's rule, ...
_GAUSS_PANELS = 512  # ... on at most this many panels


def _hamiltonian_matvec(h: np.ndarray, copies: int, v: np.ndarray) -> np.ndarray:
    """H v, H the Kronecker sum over the copies of the one-copy h: the sum
    over the copies a of h applied to the middle axis of the (|X|^a, |X|,
    |X|^(N-a-1)) view of v, in O(N |X|^(N+1)) with no |X|^N x |X|^N array."""
    n = len(h)
    w = np.zeros(len(v), dtype=complex)
    for a in range(copies):
        w += np.matmul(h, v.reshape(n ** a, n, -1)).reshape(-1)
    return w


def _dense_eigh(spec: WalkSpec, start: int, times):
    """Eigenpairs of the walk Hamiltonian H, checked Hermitian, on the
    Krylov space of the start vertex's indicator e_u, accurate at ``times``:
    ``_lanczos`` on the matrix-free ``_hamiltonian_matvec``, with ||H||_inf
    = N ||h||_inf.  H is Hermitian when the one-copy h is, since off the
    diagonal each entry of H - H^T* is one entry of h - h^T* and both
    diagonals vanish; the evaluator reads the relation table and the
    weights alone, never the class structure it checks.
    """
    h, copies = _one_copy_hamiltonian(spec), spec.copies
    if copies and np.abs(h - h.conj().T).max() > 1e-9:
        raise ValueError("materialized Hamiltonian is not Hermitian")
    return _lanczos(functools.partial(_hamiltonian_matvec, h, copies), start, len(h) ** copies,
                    copies * np.linalg.norm(h, np.inf), times)


def _leaks(theta: np.ndarray, c: np.ndarray, tau: float, limit: float) -> bool:
    """Whether int_0^tau |g(s)| ds exceeds ``limit``, g(s) = sum_j c_j
    exp(-i s theta_j).  Each |int_0^tau g(s) exp(i s theta_m) ds| is at
    most that integral and has a closed form, so a limit that one of them
    passes needs no quadrature; otherwise the integral is taken by the
    8-point Gauss-Legendre rule on equal panels, each at most one period
    2 pi / (max theta - min theta) of the fastest beat in |g|, so no zero
    of g can hide the mass between nodes.  The phases are taken about the
    mean of theta, which leaves |g| unchanged and halves their rounding.
    Past _GAUSS_PANELS panels the integral is not resolved and counts as
    leaking, so the run stops on a breakdown or a full basis instead."""
    beats = tau * np.subtract.outer(theta, theta)
    if tau * np.abs(c @ (np.exp(-0.5j * beats) * np.sinc(beats / (2 * np.pi)))).max() > limit:
        return True
    panels = 1 + int(tau * np.ptp(theta) / (2 * np.pi))
    if panels > _GAUSS_PANELS:
        return True
    s = tau / panels * (np.arange(panels)[:, None] + (_GAUSS_NODES + 1) / 2).reshape(-1)
    mass = np.abs(np.exp(-1j * np.outer(s, theta - theta.mean())) @ c)
    return tau / (2 * panels) * (np.tile(_GAUSS_WEIGHTS, panels) @ mass) > limit


def _lanczos(matvec, start: int, rows: int, norm: float, times):
    """Eigenpairs of a Hermitian H (given by ``matvec``, with ||H||_inf =
    ``norm``) on the Krylov space of e_start, accurate at every |t| <= tau,
    tau the largest |t| in ``times``.

    Lanczos from e_u, every new vector re-orthogonalized against all the
    earlier ones by two classical Gram-Schmidt passes, stops at the first
    of: the next beta_k is at most _KRYLOV_STOP eps ||H||_inf (a breakdown,
    which leaks at most beta_k t of the state by time t); the a-posteriori
    bound beta_k int_0^tau |e_k^T exp(-i s T_k) e_1| ds on the error of the
    exponential (Saad 1992; Hochbruck & Lubich 1997) is at most _EXPM_STOP,
    tested with one eigh of T_k at k = 2, 4, 8, ... (``_leaks``);
    the basis V fills all rows.  The bound holds because the error of
    V exp(-i t T_k) e_1 is the integral over s in [0, t] of exp(-i (t - s)
    H) q_{k+1} beta_k e_k^T exp(-i s T_k) e_1, and the propagator is
    unitary; T_k is real, so the integrand is even in s and one integral
    serves negative times.  The pointwise value beta_k |e_k^T exp(-i t T_k)
    e_1| at the times alone is no bound: it vanishes at the zeros of that
    entry, which fall on the transfer times of a walk with integer
    spectrum (trivial2 at t = pi/2 stops at k = 2 on -e_0).
    The k x k real tridiagonal T = S diag(theta) S^T gives theta, the Ritz
    vectors V S and the first row of S (real, so its own conjugate):
    exp(-i t H) e_u = V S (exp(-i t theta) * S[0]).  The basis grows by
    doubling with the schedule, so it holds at most 2k vectors.  In exact
    arithmetic a breakdown comes at k the number of distinct eigenvalues
    that e_u touches, at most the class count D on a scheme walk; on a
    matrix with no such structure, or on generic weights whose computed
    vectors drift off that space, the bound stops the run instead.
    """
    stop = _KRYLOV_STOP * np.finfo(float).eps * norm
    tau = np.abs(np.asarray(times, dtype=float)).max(initial=0.0)
    basis = np.zeros((1, rows), dtype=complex)  # row j holds q_j
    basis[0, start] = 1.0
    alpha, beta = [], []
    for k in range(1, rows + 1):
        q = basis[:k]
        w = matvec(q[-1])
        alpha.append(np.vdot(q[-1], w).real)
        w -= np.conj(q @ np.conj(w)) @ q
        w -= np.conj(q @ np.conj(w)) @ q
        b = np.linalg.norm(w)
        last = b <= stop or k == rows
        if last or (k > 1 and not k & (k - 1)):
            theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            if last or not _leaks(theta, S[-1] * S[0], tau, _EXPM_STOP / b):
                return theta, basis[:k].T @ S, S[0]
        if not k & (k - 1):
            basis = np.concatenate([basis, np.empty((min(k, rows - k), rows), dtype=complex)])
        beta.append(b)
        basis[k] = w / b


def _class_positions(spec: WalkSpec, start) -> np.ndarray:
    """pos[v] = the table position of the class holding vertex v: v is in
    class beta when beta_k of its copies s have A_k[v_s, u_s] = 1, u the
    start vertex.  The per-copy relation counts are read from the start
    column alone, never from a class matrix, and ranked all at once
    (``extension._rank``)."""
    u = _start_index(spec, start)
    R = _relation_table(spec.base.adjacency)
    digits = np.unravel_index(u, (spec.base.size,) * spec.copies)
    counts = _relation_counts([R[:, [x]] for x in digits], range(spec.base.classes))[:, :, 0].T
    return _rank(counts, spec.copies)


def vertex_classes(spec: WalkSpec, start_vertex: int = 0) -> dict:
    """Map each class index to the vertices related to the start vertex
    (``_class_positions``), in increasing order."""
    pos, table = _class_positions(spec, start_vertex), spec.table
    bounds = np.cumsum(np.bincount(pos, minlength=table.dimension))[:-1]
    return dict(zip(table.index_set, np.split(np.argsort(pos, kind="stable"), bounds)))


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    times: tuple
    max_amplitude_error: float
    max_within_class_error: float
    max_method_disagreement: float
    max_normalization_error: float

    @property
    def max_error(self) -> float:
        # np.max propagates NaN, so a NaN error is never hidden
        return float(np.max(dataclasses.astuple(self)[1:]))


def compare_amplitudes(spec: WalkSpec, times) -> ComparisonReport:
    """Dense evolution versus the closed-form class amplitudes, on at most
    SWEEP_GUARD rows.

    ``times`` must pass ``walk._finite_times`` and must not be empty.  For
    each time, checks that the dense state is constant on every class
    (membership taken relative to the start vertex), equals f_beta there,
    agrees between the two matrix-free methods, and stays normalized.  One
    Lanczos run from the start vertex, stopped once its error bound over
    [0, max |t|] is at rounding level (``_dense_eigh``), and one set of
    dense base idempotents serve every time.
    """
    times = _finite_times(times)
    if times.size == 0:
        raise ValueError("times must not be empty")
    pos = _class_positions(spec, 0)
    sizes = np.bincount(pos)
    vals, vecs, overlaps = _dense_eigh(spec, 0, times)
    idempotents = _base_idempotents(spec)
    _, f = _amplitude_rows(spec, times)
    # np.maximum propagates NaN, where Python's max(0.0, nan) keeps 0.0
    amp_err = cls_err = mth_err = nrm_err = 0.0
    for t, f_t in zip(times, f):
        psi = vecs @ (np.exp(-1j * t * vals) * overlaps)
        psi_proj = _projector_evolution(spec, t, 0, idempotents)
        mth_err = np.maximum(mth_err, np.abs(psi - psi_proj).max())
        nrm_err = np.maximum(nrm_err, abs(np.linalg.norm(psi) - 1.0))
        mean = (np.bincount(pos, psi.real) + 1j * np.bincount(pos, psi.imag)) / sizes
        cls_err = np.maximum(cls_err, np.abs(psi - mean[pos]).max())
        amp_err = np.maximum(amp_err, np.abs(mean - f_t).max())
    return ComparisonReport(
        times=tuple(times.tolist()),
        max_amplitude_error=float(amp_err),
        max_within_class_error=float(cls_err),
        max_method_disagreement=float(mth_err),
        max_normalization_error=float(nrm_err),
    )


# -- golden data: the projected matrix of the 3-cycle walk with N = 3 -------

_S3 = math.sqrt(3.0)
_S2 = math.sqrt(2.0)

# Coefficients of w_1 (hops one step forward) in canonical index order
# (3,0,0), (2,1,0), (2,0,1), (1,2,0), (1,1,1), (1,0,2),
# (0,3,0), (0,2,1), (0,1,2), (0,0,3).
GOLDEN_BM3_W1 = np.array(
    [
        [0, _S3, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 2, 0, 0, 0, 0, 0, 0],
        [_S3, 0, 0, 0, _S2, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, _S2, 0, _S3, 0, 0, 0],
        [0, _S2, 0, 0, 0, _S2, 0, _S2, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, _S3, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 2, 0],
        [0, 0, 0, 0, _S2, 0, 0, 0, 0, _S3],
        [0, 0, 0, 0, 0, _S3, 0, 0, 0, 0],
    ]
)

# Coefficients of w_2 (hops one step backward).
GOLDEN_BM3_W2 = np.array(
    [
        [0, 0, _S3, 0, 0, 0, 0, 0, 0, 0],
        [_S3, 0, 0, 0, _S2, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 2, 0, 0, 0, 0],
        [0, 2, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, _S2, _S2, 0, 0, 0, 0, _S2, 0],
        [0, 0, 0, 0, _S2, 0, 0, 0, 0, _S3],
        [0, 0, 0, _S3, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, _S2, 0, _S3, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 2, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, _S3, 0],
    ]
)


def golden_bmatrix_residual() -> float:
    """Rebuild the 10x10 projected matrix of the 3-cycle walk at N = 3 and
    compare its w_1 and w_2 coefficient matrices against the transcription.

    The canonical graded-lexicographic row order reproduces the reference
    layout with the identity permutation.
    """
    scheme = directed_ngon(3)
    worst = 0.0
    for weights, expected in (((1.0, 0.0), GOLDEN_BM3_W1), ((0.0, 1.0), GOLDEN_BM3_W2)):
        # probe weights isolate one coefficient matrix; hermiticity is not
        # needed for assembly, so bypass the warning in the factory
        probe = WalkSpec(base=scheme, copies=3, weights=np.asarray(weights, dtype=complex))
        pm = projected_matrix(probe)
        worst = np.maximum(worst, np.abs(pm.entries - expected).max())
    return float(worst)


def ngon_spectrum_residual(n: int, N: int) -> float:
    """Check that the projected-matrix spectrum under canonical weights is,
    after sorting, the multiset {sum_j j*gamma_j - N(n-1)/2} over
    compositions gamma of N into n parts (integers shifted by N(n-1)/2)."""
    spec = walk_spec(directed_ngon(n), N, canonical_ngon_weights(n))
    pm = projected_matrix(spec)
    vals = np.sort(np.linalg.eigvalsh(pm.entries))
    expected = sorted(
        sum(j * g for j, g in enumerate(gamma)) - N * (n - 1) / 2.0
        for gamma in enumerate_indices(N, n - 1)
    )
    return float(np.abs(vals - np.array(expected)).max())


# -- verification suites -----------------------------------------------------

def _check(name: str, residual, tolerance: float) -> dict:
    """One JSON-ready check: it passes when the residual is within the
    tolerance (a NaN residual fails)."""
    return {
        "name": name,
        "passed": bool(residual <= tolerance),
        "residual": float(residual),
        "tolerance": float(tolerance),
    }


def _suite_axioms() -> list:
    builders = [("trivial2", trivial_scheme_2())]
    builders += [(f"ngon-{n}", directed_ngon(n)) for n in range(1, 8)]
    builders += [(f"ow-{d}", ordered_word_scheme(d)) for d in range(1, 5)]
    # validate_scheme passes a numerical check within SPECTRAL_TOL and an
    # exact one only at residual 0 (exact residuals are integers), so this
    # pass rule is report.ok.
    return [
        _check(f"axioms:{name}", validate_scheme(scheme).max_residual, SPECTRAL_TOL)
        for name, scheme in builders
    ]


def _suite_krawtchouk() -> list:
    # np.max and np.maximum propagate NaN, where Python's max may drop it
    checks = []
    schemes = [
        ("trivial2", trivial_scheme_2()),
        ("ngon-3", directed_ngon(3)),
        ("ow-2", ordered_word_scheme(2)),
    ]
    for name, scheme in schemes:
        worst = 0.0
        for N in range(0, 5):
            table = krawtchouk.krawtchouk_table(N, scheme.cosine)
            for nt in enumerate_indices(N, scheme.d):
                for n in enumerate_indices(N, scheme.d):
                    series = krawtchouk.krawtchouk_series(n, nt, N, scheme.cosine)
                    worst = np.maximum(worst, abs(series - table[nt][n]))
        checks.append(_check(f"krawtchouk:series-vs-genfun:{name}", worst, 1e-10))
        gp = krawtchouk.params_from_scheme(scheme)
        worst = np.max([krawtchouk.orthogonality_residual(gp, N) for N in range(0, 5)])
        checks.append(_check(f"krawtchouk:orthogonality:{name}", worst, 1e-10))
    worst = np.max([krawtchouk.bivariate_orthogonality_residual(N) for N in range(1, 5)])
    checks.append(_check("krawtchouk:bivariate-orthogonality", worst, 1e-10))
    worst = np.max([krawtchouk.bivariate_recurrence_residual(N) for N in range(1, 5)])
    checks.append(_check("krawtchouk:bivariate-recurrence", worst, 1e-9))
    return checks


def _oracle_specs() -> list:
    specs = []
    g3 = directed_ngon(3)
    for N in range(1, 5):
        specs.append((f"ngon-3 N={N}", walk_spec(g3, N, canonical_ngon_weights(3))))
    x2 = trivial_scheme_2()
    for N in range(1, 7):
        specs.append((f"trivial2 N={N}", walk_spec(x2, N, [1.0])))
    ow3 = ordered_word_scheme(3)
    for N in range(1, 3):
        specs.append((f"ow-3 N={N}", walk_spec(ow3, N, [0.7, -0.3, 0.25])))
    return specs


def _suite_amplitudes() -> list:
    checks = []
    rng = np.random.default_rng(20250811)
    for name, spec in _oracle_specs():
        times = rng.uniform(0.0, 8.0, size=20)
        report = compare_amplitudes(spec, times)
        checks.append(_check(f"amplitudes:dense-vs-closed:{name}", report.max_error, 1e-9))
    return checks


def _suite_bmatrix() -> list:
    checks = [_check("bmatrix:golden-10x10", golden_bmatrix_residual(), 1e-12)]
    spec = walk_spec(directed_ngon(3), 3, canonical_ngon_weights(3))
    pm = projected_matrix(spec)
    worst = 0.0
    for t in (0.7, 2.0 * math.pi / 3.0):
        state = evolve_projected(pm, t, (3, 0, 0))
        prof = amplitudes(spec, t)
        expected = np.array([prof.site_amplitudes[b] for b in pm.order])
        worst = np.maximum(worst, np.abs(state - expected).max())
    checks.append(_check("bmatrix:evolution-consistency", worst, 1e-9))
    worst = np.max([ngon_spectrum_residual(n, N) for n in range(2, 6) for N in range(1, 4)])
    checks.append(_check("bmatrix:integral-spectrum-shift", worst, 1e-9))
    return checks


SUITES = {
    "axioms": _suite_axioms,
    "krawtchouk": _suite_krawtchouk,
    "amplitudes": _suite_amplitudes,
    "bmatrix": _suite_bmatrix,
}


def run_suite(name: str) -> dict:
    """Run one verification suite (or all) and return a JSON-ready report."""
    if name == "all":
        checks = [check for suite in SUITES.values() for check in suite()]
    elif name in SUITES:
        checks = SUITES[name]()
    else:
        raise ValueError(f"unknown suite {name!r}")
    return {
        "suite": name,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
