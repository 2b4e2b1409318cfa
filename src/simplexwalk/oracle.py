"""Dense brute-force verification of every closed form.

The walk is evolved on all |X|^N vertices by two independent methods.  The
Hamiltonian H is the Kronecker sum over the copies of the one-copy h =
sum_i w_i A_i, read off the relation table, so exp(-i t H) is the Kronecker
product of N copies of exp(-i t h), and exp(-i t H) e_u is the Kronecker
product over the copies s of the one-copy columns F[:, u_s] (Christandl,
Datta, Ekert & Landahl, PRL 92, 2004); no |X|^N x |X|^N array is formed.
The methods differ in F: the factorized idempotent phases sum_j exp(-i t
theta_j) E_j, or V diag(exp(-i t lambda)) V^H from one eigh of h.  The two
states must agree, and both must match the product-formula amplitudes class
by class.  Class membership is read from per-copy relation counts: (v, w)
lies in class beta when beta_k copies s have A_k[v_s, w_s] = 1.
"""

from __future__ import annotations

import dataclasses
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

# Row guard of the evolutions and of the comparison, which hold a few
# states of |X|^N complex entries (1 MB each at 2^16 rows).
# SIMPLEXWALK_GUARD only raises it, as it also sets ``DEFAULT_GUARD``, the
# guard that the rows^2 materializations (``dense_hamiltonian``,
# ``materialize_class``) keep.
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


def _one_copy_eigh(spec: WalkSpec):
    """Eigenpairs of the one-copy h, checked Hermitian.  H is Hermitian
    when h is, since off the diagonal each entry of H - H^T* is one entry
    of h - h^T* and both diagonals vanish.  This reads the relation table
    and the weights alone, never the spectral data that it checks."""
    h = _one_copy_hamiltonian(spec)
    if spec.copies and np.abs(h - h.conj().T).max() > 1e-9:
        raise ValueError("materialized Hamiltonian is not Hermitian")
    return np.linalg.eigh(h)


def _eigh_propagator(t: float, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """exp(-i t h) = V diag(exp(-i t lambda)) V^H from the eigenpairs of h."""
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def _base_idempotents(spec: WalkSpec) -> list:
    """The d+1 dense base idempotents E_j."""
    return [spec.base.idempotent(j) for j in range(spec.base.classes)]


def _projector_propagator(spec: WalkSpec, t: float, idempotents) -> np.ndarray:
    """exp(-i t h) = sum_j exp(-i t theta_j) E_j, theta_j the one-copy
    eigenvalues read off P and E_j = ``idempotents[j]``."""
    rates = spec.base.first_eigenmatrix[:, 1:] @ spec.weights
    return sum(np.exp(-1j * t * rate) * E for rate, E in zip(rates, idempotents))


def _product_state(F: np.ndarray, start_vertex: int, copies: int) -> np.ndarray:
    """exp(-i t H) applied to the vertex indicator, given F = exp(-i t h):
    H is a Kronecker sum, so the state is the Kronecker product over the
    copies s of the columns F[:, u_s], u_s the base-|X| digits of the start
    vertex."""
    state = np.ones(1, dtype=complex)
    for x in np.unravel_index(start_vertex, (len(F),) * copies):
        state = (state[:, None] * F[:, x]).reshape(-1)
    return state


def dense_evolution(spec: WalkSpec, t: float, start_vertex: int, method: str = "eig") -> np.ndarray:
    """exp(-i t M) applied to the vertex indicator, on at most SWEEP_GUARD
    rows and with no rows x rows array.

    Both methods are the Kronecker product over the copies of the columns
    of the one-copy propagator at the start vertex's digits.  Method
    "projector" forms it from the factorized idempotent phases, method
    "eig" from one eigh of the one-copy h.  Both are exact up to roundoff
    and must agree.  t must be one finite real number, under the grid rule
    of ``walk._finite_times``.
    """
    start_vertex = _start_index(spec, start_vertex)
    try:
        (t,) = _finite_times([t])
    except ValueError:
        raise ValueError("t must be a finite real number") from None
    if method == "projector":
        F = _projector_propagator(spec, t, _base_idempotents(spec))
    elif method == "eig":
        F = _eigh_propagator(t, *_one_copy_eigh(spec))
    else:
        raise ValueError(f"unknown method {method!r}")
    return _product_state(F, start_vertex, spec.copies)


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
    agrees between the two methods, and stays normalized.  One eigh of the
    one-copy h and one set of dense base idempotents serve every time.  A
    compare of four times takes about 0.8 ms at 81 rows (ngon-3 N = 4),
    1.2 ms at 1024 rows and 0.02 s at 2^16 rows (trivial2 N = 16, ngon-4
    N = 8) on one thread of a 2-CPU Xeon.
    """
    times = _finite_times(times)
    if times.size == 0:
        raise ValueError("times must not be empty")
    pos = _class_positions(spec, 0)
    sizes = np.bincount(pos)
    vals, vecs = _one_copy_eigh(spec)
    idempotents = _base_idempotents(spec)
    _, f = _amplitude_rows(spec, times)
    # np.maximum propagates NaN, where Python's max(0.0, nan) keeps 0.0
    amp_err = cls_err = mth_err = nrm_err = 0.0
    for t, f_t in zip(times, f):
        psi = _product_state(_eigh_propagator(t, vals, vecs), 0, spec.copies)
        psi_proj = _product_state(_projector_propagator(spec, t, idempotents), 0, spec.copies)
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
    return _golden_residual(directed_ngon(3))


def _golden_residual(scheme) -> float:
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
    return _spectrum_residual(directed_ngon(n), N)


def _spectrum_residual(scheme, N: int) -> float:
    n = scheme.size
    pm = projected_matrix(walk_spec(scheme, N, canonical_ngon_weights(n)))
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
    return {"name": name, "passed": bool(residual <= tolerance), "residual": float(residual),
            "tolerance": float(tolerance)}


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
    checks, orthogonality = [], {}
    g3 = directed_ngon(3)
    for name, scheme in (("trivial2", trivial_scheme_2()), ("ngon-3", g3), ("ow-2", ordered_word_scheme(2))):
        worst = 0.0
        for N in range(0, 5):
            _, table = krawtchouk._krawtchouk_matrix(N, scheme.cosine)
            series = krawtchouk._series_table(N, scheme.cosine)
            # Python's abs of each pair: numpy's complex abs rounds differently
            worst = np.maximum(worst, np.max(list(map(abs, (series - table).ravel().tolist()))))
        checks.append(_check(f"krawtchouk:series-vs-genfun:{name}", worst, 1e-10))
        gp = krawtchouk.params_from_scheme(scheme)
        orthogonality[name] = [krawtchouk.orthogonality_residual(gp, N) for N in range(0, 5)]
        checks.append(_check(f"krawtchouk:orthogonality:{name}", np.max(orthogonality[name]), 1e-10))
    # bivariate_orthogonality_residual and bivariate_recurrence_residual on the one 3-gon
    checks.append(_check("krawtchouk:bivariate-orthogonality", np.max(orthogonality["ngon-3"][1:]), 1e-10))
    specs = [WalkSpec(g3, N, canonical_ngon_weights(3)) for N in range(1, 5)]
    worst = np.max([krawtchouk.spectral_residual(spec) for spec in specs])
    checks.append(_check("krawtchouk:bivariate-recurrence", worst, 1e-9))
    return checks


def _oracle_specs() -> list:
    g3, x2, ow3 = directed_ngon(3), trivial_scheme_2(), ordered_word_scheme(3)
    return ([(f"ngon-3 N={N}", walk_spec(g3, N, canonical_ngon_weights(3))) for N in range(1, 5)]
            + [(f"trivial2 N={N}", walk_spec(x2, N, [1.0])) for N in range(1, 7)]
            + [(f"ow-3 N={N}", walk_spec(ow3, N, [0.7, -0.3, 0.25])) for N in range(1, 3)])


def _suite_amplitudes() -> list:
    checks = []
    rng = np.random.default_rng(20250811)
    for name, spec in _oracle_specs():
        times = rng.uniform(0.0, 8.0, size=20)
        report = compare_amplitudes(spec, times)
        checks.append(_check(f"amplitudes:dense-vs-closed:{name}", report.max_error, 1e-9))
    return checks


def _suite_bmatrix() -> list:
    ngons = {n: directed_ngon(n) for n in range(2, 6)}
    checks = [_check("bmatrix:golden-10x10", _golden_residual(ngons[3]), 1e-12)]
    spec = walk_spec(ngons[3], 3, canonical_ngon_weights(3))
    pm = projected_matrix(spec)
    worst = 0.0
    for t in (0.7, 2.0 * math.pi / 3.0):
        state = evolve_projected(pm, t, (3, 0, 0))
        prof = amplitudes(spec, t)
        expected = np.array([prof.site_amplitudes[b] for b in pm.order])
        worst = np.maximum(worst, np.abs(state - expected).max())
    checks.append(_check("bmatrix:evolution-consistency", worst, 1e-9))
    worst = np.max([_spectrum_residual(ngons[n], N) for n in range(2, 6) for N in range(1, 4)])
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
