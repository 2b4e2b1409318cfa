"""Multivariate Krawtchouk polynomials of Griffiths type, complex coefficients.

Two independent evaluators are provided: a hypergeometric sum over small
integer matrices and an exact generating-function expansion.  They must
agree; tests and the verification suites cross-check them.  Integer parts
(Pochhammer symbols, factorials) are kept exact and only combined with the
complex weight factors at the last moment.  The sum is one module-level
recursion with two entry points: the single value ``krawtchouk_series``
and the table ``_series_table`` over every pair of compositions of N,
which builds its factorial, falling-factorial and omega-power tables once.

The table K[n_tilde, n] = K(n; n_tilde) is one D x D matrix: both
orthogonality relations (``orthogonality_residual``) and the spectral
identity B V = V Lambda of the projected matrix on any scheme
(``spectral_residual``) are matrix identities on it.  The bivariate
recurrence and orthogonality of the paper are their 3-cycle instances.
"""

from __future__ import annotations

import dataclasses
import math
from operator import truediv

import numpy as np

from .extension import _composition, _expand, _power_plan, enumerate_indices
from .schemes import AssociationScheme, _integers, directed_ngon
from .walk import WalkSpec, canonical_ngon_weights, eigenvalue_lambda, projected_matrix

PARAM_TOL = 1e-8


def _square_matrix(M) -> np.ndarray:
    """``M`` as a complex array; ValueError unless a non-empty square matrix."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise ValueError(f"expected a non-empty square matrix, got shape {M.shape}")
    return M


def pochhammer(x, r: int):
    """Rising factorial x (x+1) ... (x+r-1); 1 when r = 0."""
    if r < 0:
        raise ValueError("r must be non-negative")
    out = 1
    for s in range(r):
        out = out * (x + s)
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class GriffithsParams:
    """Parameter tuple (nu, p, p_tilde, U) of a Griffiths-type family.

    U has first row and column all ones, p_0 = p_tilde_0 = 1/nu, and
    nu * diag(p) U diag(p_tilde) U^dagger is the identity.
    """

    dimension: int
    nu: float
    p: np.ndarray
    p_tilde: np.ndarray
    U: np.ndarray

    @property
    def unitarity_residual(self) -> float:
        lhs = self.nu * np.diag(self.p) @ self.U @ np.diag(self.p_tilde) @ self.U.conj().T
        return float(np.abs(lhs - np.eye(self.dimension + 1)).max())


def griffiths_params(nu, p, p_tilde, U) -> GriffithsParams:
    """Check (nu, p, p_tilde, U) and hold it; ValueError when a relation
    fails by more than PARAM_TOL or cannot be evaluated (NaN fails too)."""
    nu = float(nu)
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be finite and positive, got {nu!r}")
    p = np.asarray(p, dtype=float)
    p_tilde = np.asarray(p_tilde, dtype=float)
    U = _square_matrix(U)
    if p.shape != U.shape[:1] or p_tilde.shape != U.shape[:1]:
        raise ValueError("parameter shapes do not match")
    if not (abs(p[0] - 1.0 / nu) <= PARAM_TOL and abs(p_tilde[0] - 1.0 / nu) <= PARAM_TOL):
        raise ValueError("p_0 and p_tilde_0 must equal 1/nu")
    ones = np.abs(U[0, :] - 1).max() + np.abs(U[:, 0] - 1).max()
    if not ones <= PARAM_TOL:
        raise ValueError("first row and column of U must be all ones")
    gp = GriffithsParams(dimension=len(U) - 1, nu=nu, p=p, p_tilde=p_tilde, U=U)
    if not gp.unitarity_residual <= PARAM_TOL:
        raise ValueError(
            f"parameters violate the unitarity relation (residual {gp.unitarity_residual:.3e})"
        )
    return gp


def params_from_scheme(scheme: AssociationScheme) -> GriffithsParams:
    """Griffiths parameters of a scheme: nu = |X|, U = cosine matrix,
    p from multiplicities, p_tilde from valencies."""
    nu = float(scheme.size)
    p = scheme.multiplicities / nu
    p_tilde = scheme.valencies / nu
    return griffiths_params(nu, p, p_tilde, scheme.cosine)


def _matrix_sum(steps, used_rows, used_cols, factorial, falling_N, c, wprod, num, den, s, total):
    """The recursion of the hypergeometric sum from cell c on: total plus the
    terms of every admissible choice of A at cells c, c+1, ...  A step is
    (i, j, row budget, column budget, omega_ij powers, row factor, column
    factor, last cell?); ``used_rows`` and ``used_cols`` hold the sums of A
    so far.  It closes over nothing, so a call leaves no reference cycle."""
    i, j, row_budget, col_budget, power, row_factor, col_factor, last = steps[c]
    r, k = used_rows[i], used_cols[j]
    for a in range(min(row_budget - r, col_budget - k) + 1):
        w = wprod * power[a] if a else wprod
        m = num * row_factor[r + a] * col_factor[k + a]
        if last:
            total += m / (den * factorial[a] * falling_N[s + a]) * w
        else:
            used_rows[i], used_cols[j] = r + a, k + a
            total = _matrix_sum(steps, used_rows, used_cols, factorial, falling_N,
                                c + 1, w, m, den * factorial[a], s + a, total)
    used_rows[i], used_cols[j] = r, k
    return total


def _series_value(n, n_tilde, powers, falling, factorial) -> complex:
    """K(n, n_tilde) from the pair-free tables: ``powers[i, j][a]`` is
    complex(omega_ij ** a), ``falling[m][r]`` is (-m)_r and ``factorial[a]``
    is a!, each for every index the pair reads."""
    cells = [(i, j) for i in range(1, len(n)) for j in range(1, len(n)) if n_tilde[i] and n[j]]
    if not cells:
        return 1.0 + 0.0j
    N = len(factorial) - 1
    row_end = {i: c for c, (i, _) in enumerate(cells)}
    col_end, ones = {j: c for c, (_, j) in enumerate(cells)}, [1] * (N + 1)
    steps = [(i, j, n_tilde[i], n[j], powers[i, j],
              falling[n_tilde[i]] if row_end[i] == c else ones,
              falling[n[j]] if col_end[j] == c else ones, c + 1 == len(cells))
             for c, (i, j) in enumerate(cells)]
    return _matrix_sum(steps, [0] * len(n), [0] * len(n), factorial, falling[N],
                       0, 1.0 + 0.0j, 1, 1, 0, 0.0 + 0.0j)


def krawtchouk_series(n, n_tilde, N: int, U) -> complex:
    """Hypergeometric-sum evaluation of K(n, n_tilde) for the matrix U.

    The sum runs over d x d non-negative integer matrices A, cells in
    row-major order, with row sums at most n_tilde[1:] and column sums at
    most n[1:]: the Pochhammer factors vanish beyond, and a cell with a zero
    budget is dropped.  The product of the omega_ij^A_ij and the exact
    denominator are carried down the cells; a row's and a column's
    Pochhammer factor join the exact numerator at its last cell.

    One module-level recursion, ``_matrix_sum``, runs the sum for both
    entry points: this one builds only the omega powers and falling
    factorials that the pair reads, and ``_series_table`` builds them once
    for every pair of compositions of N.
    """
    U = _square_matrix(U)
    n = _composition(n, N, len(U))
    n_tilde = _composition(n_tilde, N, len(U))
    omega = 1.0 - U
    powers = {(i, j): [complex(omega[i, j] ** a) for a in range(min(n_tilde[i], n[j]) + 1)]
              for i in range(1, len(n)) for j in range(1, len(n)) if n_tilde[i] and n[j]}
    falling = {m: [pochhammer(-m, r) for r in range(m + 1)] for m in {N, *n, *n_tilde}}
    return _series_value(n, n_tilde, powers, falling, [math.factorial(k) for k in range(N + 1)])


def _series_table(N: int, U) -> np.ndarray:
    """The matrix S[n_tilde, n] = krawtchouk_series(n, n_tilde, N, U) over
    the compositions of N in canonical order, bit for bit: N and U are
    checked once, the factorials, the falling factorials (-m)_r for m <= N
    and the omega powers are built once, and each pair runs the same steps
    as the single value."""
    (N,) = _integers((N,), "N")
    U = _square_matrix(U)
    labels = enumerate_indices(N, len(U) - 1)
    omega = 1.0 - U
    powers = {(i, j): [complex(omega[i, j] ** a) for a in range(N + 1)]
              for i in range(1, len(U)) for j in range(1, len(U))}
    falling = [[pochhammer(-m, r) for r in range(m + 1)] for m in range(N + 1)]
    factorial = [math.factorial(k) for k in range(N + 1)]
    return np.array([[_series_value(n, nt, powers, falling, factorial) for n in labels]
                     for nt in labels], dtype=complex)


def krawtchouk_genfun(n_tilde, N: int, U) -> dict:
    """Exact generating-function evaluation: expand the product of the row
    polynomials of U (first column all ones) and read off every
    K(n, n_tilde) at once.

    Returns a map from each composition n, in canonical order, to the value
    K(n, n_tilde): the row n_tilde of the symmetric power of U, expanded on
    the cached (N, d) plan and divided by the plan's exact multinomials.
    """
    U = _square_matrix(U)
    n_tilde = _composition(n_tilde, N, len(U))
    layers, labels, multinomials = _power_plan(sum(n_tilde), len(U) - 1)
    return dict(zip(labels, map(truediv, _expand(U.tolist(), n_tilde, layers), multinomials)))


def krawtchouk_table(N: int, U) -> dict:
    """Values K(n, n_tilde) for every pair of compositions, via the
    generating function: the rows of ``_krawtchouk_matrix`` keyed by
    n_tilde, then n."""
    labels, K = _krawtchouk_matrix(N, U)
    return {nt: dict(zip(labels, row)) for nt, row in zip(labels, K.tolist())}


def _krawtchouk_matrix(N: int, U):
    """The compositions of N in canonical order and the matrix
    K[n_tilde, n] = K(n; n_tilde) over them, one generating-function row
    per n_tilde, all expanded on one plan and divided by its multinomials."""
    (N,) = _integers((N,), "N")
    if N < 0:
        raise ValueError("N must be non-negative")
    U = _square_matrix(U)
    layers, labels, multinomials = _power_plan(N, len(U) - 1)
    rows = U.tolist()
    K = [list(map(truediv, _expand(rows, nt, layers), multinomials)) for nt in labels]
    return labels, np.array(K, dtype=complex)


def orthogonality_residual(gp: GriffithsParams, N: int) -> float:
    """Max deviation from the two sesquilinear orthogonality relations:
    conj(K) diag(w_tilde) K^T = diag(1 / (nu^N w)), and the same on K^T with
    w and w_tilde exchanged, where w_n = multinomial(N; n) prod_i p_i^n_i and
    w_tilde is w with p_tilde in place of p.  The exact multinomials are
    those of the (N, d) plan that the matrix was expanded on."""
    idx, K = _krawtchouk_matrix(N, gp.U)
    multi = np.array(_power_plan(int(N), len(gp.U) - 1)[2], dtype=float)
    w, w_tilde = (multi * np.prod(q ** np.array(idx), axis=1) for q in (gp.p, gp.p_tilde))

    def relation(M, weight, dual):
        gram = M.conj() @ (weight[:, None] * M.T)
        return float(np.abs(gram - np.diag(1.0 / (gp.nu ** N * dual))).max())

    return max(relation(K, w_tilde, w), relation(K.T, w, w_tilde))


# -- the spectral identity and its bivariate instance on the 3-cycle --------

def spectral_residual(spec: WalkSpec) -> float:
    """max |B V - V Lambda| for the projected matrix B: the columns
    v_alpha[beta] = sqrt(k_beta) K(beta; alpha) of V = diag(sqrt(k)) K^T
    diagonalize B for any couplings, with Lambda_alpha = eigenvalue_lambda."""
    pm = projected_matrix(spec)
    order, K = _krawtchouk_matrix(spec.copies, spec.base.cosine)
    V = np.sqrt(pm.table.valency)[:, None] * K.T
    lam = np.array([eigenvalue_lambda(spec, alpha) for alpha in order])
    return float(np.abs(pm.entries @ V - V * lam).max())


def bivariate_G(m: int, n: int, x: int, y: int, N: int) -> complex:
    """Bivariate Krawtchouk value G_{m,n}(x, y) on the triangular grid.

    Equals krawtchouk_series((N-x-y, x, y), (N-m-n, m, n), N, U) with U the
    cosine matrix of the directed 3-gon.
    """
    if not (0 <= m and 0 <= n and m + n <= N):
        raise ValueError(f"degree indices ({m},{n}) out of range for N={N}")
    if not (0 <= x and 0 <= y and x + y <= N):
        raise ValueError(f"grid point ({x},{y}) out of range for N={N}")
    return krawtchouk_series((N - x - y, x, y), (N - m - n, m, n), N, directed_ngon(3).cosine)


def bivariate_orthogonality_residual(N: int) -> float:
    """Weighted orthogonality of the G_{m,n} under the trinomial weight with
    site probabilities 1/3: the 3-cycle instance of orthogonality_residual."""
    return orthogonality_residual(params_from_scheme(directed_ngon(3)), N)


def bivariate_recurrence_residual(N: int, w1: complex = None, w2: complex = None) -> float:
    """The six-term recurrence of the orthonormal G-tilde values with the
    couplings (w1, w2) (canonical when either is None): the 3-cycle
    instance of spectral_residual.  The spec is built directly, since the
    identity holds for any pair, Hermitian or not."""
    weights = canonical_ngon_weights(3) if w1 is None or w2 is None else [w1, w2]
    spec = WalkSpec(base=directed_ngon(3), copies=N, weights=np.asarray(weights, dtype=complex))
    return spectral_residual(spec)
