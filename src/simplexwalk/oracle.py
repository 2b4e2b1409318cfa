"""Dense brute-force verification of every closed form.

The Hamiltonian is materialized on all |X|^N vertices and evolved exactly,
once through the factorized idempotent phases and once by Lanczos on the
materialized matrix from the start vertex, with one eigendecomposition of
the small tridiagonal it leaves; the two must agree, and both must match
the product-formula amplitudes class by class.  Class membership is read from
per-copy relation counts: (v, w) lies in class beta when beta_k copies s
have A_k[v_s, w_s] = 1.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import krawtchouk
from .extension import _guarded_rows, _rank, _relation_counts, _relation_table, enumerate_indices
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
    amplitudes,
    canonical_ngon_weights,
    evolve_projected,
    projected_matrix,
    walk_spec,
)

SWEEP_GUARD = 1024


def _start_index(spec: WalkSpec, start_vertex) -> int:
    rows = _guarded_rows(spec.base, spec.copies)
    if isinstance(start_vertex, bool) or not isinstance(start_vertex, (int, np.integer)):
        raise ValueError(f"start vertex must be an integer, got {start_vertex!r}")
    if not 0 <= start_vertex < rows:
        raise ValueError("start vertex out of range")
    return int(start_vertex)


def dense_hamiltonian(spec: WalkSpec) -> np.ndarray:
    """Materialize the walk Hamiltonian on the full vertex set: the
    Kronecker sum over the copies of h = sum_i w_i A_i, read off the
    relation table.  Each entry has at most one nonzero term, so H holds
    the weights exactly; adding 0.0 turns the signed zeros to +0.0."""
    _guarded_rows(spec.base, spec.copies)
    h = np.append(0.0, spec.weights)[_relation_table(spec.base.adjacency)]
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
    """exp(-i t M) applied to the vertex indicator, slot by slot: each copy
    is phased by exp(-i t R) = sum_j exp(-i t theta_j) E_j, R the one-copy
    Hamiltonian and E_j = ``idempotents[j]``."""
    scheme = spec.base
    P = scheme.first_eigenmatrix
    F = np.zeros((scheme.size, scheme.size), dtype=complex)
    for j, E in enumerate(idempotents):
        rate = sum(spec.weights[i - 1] * P[j, i] for i in range(1, scheme.classes))
        F += np.exp(-1j * t * rate) * E
    rows = scheme.size ** spec.copies
    state = np.zeros(rows, dtype=complex)
    state[start_vertex] = 1.0
    tensor = state.reshape((scheme.size,) * spec.copies) if spec.copies else state
    for axis in range(spec.copies):
        tensor = np.moveaxis(np.tensordot(F, tensor, axes=(1, axis)), 0, axis)
    return tensor.reshape(rows)


def dense_evolution(spec: WalkSpec, t: float, start_vertex: int, method: str = "eig") -> np.ndarray:
    """exp(-i t M) applied to the vertex indicator.

    method "projector" phases the factorized idempotents slot by slot;
    method "eig" diagonalizes the materialized Hamiltonian on the Krylov
    space of the vertex indicator (``_dense_eigh``).  Both are exact up to
    roundoff and must agree.
    """
    start_vertex = _start_index(spec, start_vertex)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if method == "projector":
        return _projector_evolution(spec, t, start_vertex, _base_idempotents(spec))
    if method == "eig":
        vals, vecs, overlaps = _dense_eigh(spec, start_vertex)
        return vecs @ (np.exp(-1j * t * vals) * overlaps)
    raise ValueError(f"unknown method {method!r}")


_KRYLOV_STOP = 64  # Lanczos stops once beta <= _KRYLOV_STOP eps ||H||


def _dense_eigh(spec: WalkSpec, start: int):
    """Eigenpairs of the materialized Hamiltonian H, checked Hermitian, on
    the Krylov space of the start vertex's indicator e_u.

    Lanczos from e_u, every new vector re-orthogonalized against all the
    earlier ones by two classical Gram-Schmidt passes, stops once the next
    beta is at most _KRYLOV_STOP eps ||H||_inf or the basis V fills all
    rows; one eigh of the k x k real tridiagonal T = S diag(theta) S^T
    follows.  Returns theta, the Ritz vectors V S and the first row of S
    (real, so its own conjugate): exp(-i t H) e_u = V S (exp(-i t theta) *
    S[0]).  Stopping at beta leaks at most beta t of the state by time t.
    In exact arithmetic k is the number of distinct eigenvalues that e_u
    touches, at most the class count D, since the Krylov space lies in the
    span of the class columns; the evaluator reads H and u alone, and on a
    matrix with no such structure it runs to full dimension, still exact.
    """
    H = dense_hamiltonian(spec)
    if np.abs(H - H.conj().T).max() > 1e-9:
        raise ValueError("materialized Hamiltonian is not Hermitian")
    rows = len(H)
    stop = _KRYLOV_STOP * np.finfo(float).eps * np.linalg.norm(H, np.inf)
    basis = np.empty((rows, rows), dtype=complex)  # row j holds q_j; rows past k stay untouched
    basis[0] = 0.0
    basis[0, start] = 1.0
    alpha, beta = [], []
    for k in range(1, rows + 1):
        q = basis[:k]
        w = H @ q[-1]
        alpha.append(np.vdot(q[-1], w).real)
        w -= (q.conj() @ w) @ q
        w -= (q.conj() @ w) @ q
        b = np.linalg.norm(w)
        if b <= stop or k == rows:
            break
        beta.append(b)
        basis[k] = w / b
    theta, S = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    return theta, basis[:k].T @ S, S[0]


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
    """Dense evolution versus the closed-form class amplitudes.

    For each time, checks that the dense state is constant on every class
    (membership taken relative to the start vertex), equals f_beta there,
    agrees between the two dense methods, and stays normalized.  One
    Krylov-space eigendecomposition of the dense Hamiltonian from the start
    vertex (``_dense_eigh``), and one set of dense base idempotents, serves
    every time.
    """
    times = np.fromiter(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must not be empty")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    _guarded_rows(spec.base, spec.copies, SWEEP_GUARD)
    pos = _class_positions(spec, 0)
    sizes = np.bincount(pos)
    vals, vecs, overlaps = _dense_eigh(spec, 0)
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
