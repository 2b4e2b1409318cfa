"""Multivariate Krawtchouk polynomials of Griffiths type, complex coefficients.

Two independent evaluators are provided: a hypergeometric sum over small
integer matrices and an exact generating-function expansion.  They must
agree; tests and the verification suites cross-check them.  Integer parts
(Pochhammer symbols, factorials) are kept exact and only combined with the
complex weight factors at the last moment.

The table K[n_tilde, n] = K(n; n_tilde) is one D x D matrix: both
orthogonality relations (``orthogonality_residual``) and the spectral
identity B V = V Lambda of the projected matrix on any scheme
(``spectral_residual``) are matrix identities on it.  The bivariate
recurrence and orthogonality of the paper are their 3-cycle instances.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .extension import _composition, enumerate_indices, multinomial, symmetric_power_row
from .schemes import AssociationScheme, directed_ngon
from .walk import WalkSpec, canonical_ngon_weights, eigenvalue_lambda, projected_matrix

PARAM_TOL = 1e-8


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
    p = np.asarray(p, dtype=float)
    p_tilde = np.asarray(p_tilde, dtype=float)
    U = np.asarray(U, dtype=complex)
    d = U.shape[0] - 1
    if p.shape != (d + 1,) or p_tilde.shape != (d + 1,) or U.shape != (d + 1, d + 1):
        raise ValueError("parameter shapes do not match")
    if abs(p[0] - 1.0 / nu) > PARAM_TOL or abs(p_tilde[0] - 1.0 / nu) > PARAM_TOL:
        raise ValueError("p_0 and p_tilde_0 must equal 1/nu")
    ones = np.abs(U[0, :] - 1).max() + np.abs(U[:, 0] - 1).max()
    if ones > PARAM_TOL:
        raise ValueError("first row and column of U must be all ones")
    gp = GriffithsParams(dimension=d, nu=float(nu), p=p, p_tilde=p_tilde, U=U)
    if gp.unitarity_residual > PARAM_TOL:
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


def _admissible_matrices(row_budget, col_budget):
    """d x d non-negative integer matrices with row sums <= row_budget and
    column sums <= col_budget."""
    d = len(row_budget)
    cells = [(i, j) for i in range(d) for j in range(d)]
    mat = [[0] * d for _ in range(d)]
    rows = list(row_budget)
    cols = list(col_budget)

    def rec(c):
        if c == len(cells):
            yield [row[:] for row in mat]
            return
        i, j = cells[c]
        for v in range(min(rows[i], cols[j]) + 1):
            mat[i][j] = v
            rows[i] -= v
            cols[j] -= v
            yield from rec(c + 1)
            rows[i] += v
            cols[j] += v
        mat[i][j] = 0

    yield from rec(0)


def krawtchouk_series(n, n_tilde, N: int, U) -> complex:
    """Hypergeometric-sum evaluation of K(n, n_tilde) for the matrix U.

    The sum runs over d x d non-negative integer matrices; entries whose row
    sums exceed n_tilde or column sums exceed n are pruned since their
    Pochhammer factors vanish.
    """
    U = np.asarray(U, dtype=complex)
    n = _composition(n, N, len(U))
    n_tilde = _composition(n_tilde, N, len(U))
    d = len(n) - 1
    if d == 0:
        return 1.0 + 0.0j
    omega = 1.0 - U

    total = 0.0 + 0.0j
    for A in _admissible_matrices(n_tilde[1:], n[1:]):
        rsum = [sum(row) for row in A]
        csum = [sum(A[i][j] for i in range(d)) for j in range(d)]
        s = sum(rsum)
        num = 1
        for j in range(d):
            num *= pochhammer(-n[j + 1], csum[j])
        for i in range(d):
            num *= pochhammer(-n_tilde[i + 1], rsum[i])
        den = pochhammer(-N, s)
        wprod = 1.0 + 0.0j
        for i in range(d):
            for j in range(d):
                a = A[i][j]
                if a:
                    den *= math.factorial(a)
                    wprod *= omega[i + 1, j + 1] ** a
        total += num / den * wprod
    return total


def krawtchouk_genfun(n_tilde, N: int, U) -> dict:
    """Exact generating-function evaluation: expand the product of the row
    polynomials of U (first column all ones) and read off every
    K(n, n_tilde) at once.

    Returns a map from each composition n to the value K(n, n_tilde); the
    exact multinomials are read off one factorial row.
    """
    n_tilde = _composition(n_tilde, N, len(U))
    row = symmetric_power_row(U, n_tilde)
    factorial = [math.factorial(k) for k in range(N + 1)]
    return {n: row[n] / (factorial[N] // math.prod(factorial[v] for v in n))
            for n in enumerate_indices(N, len(n_tilde) - 1)}


def krawtchouk_table(N: int, U) -> dict:
    """Values K(n, n_tilde) for every pair of compositions, via the
    generating function."""
    d = np.asarray(U).shape[0] - 1
    return {nt: krawtchouk_genfun(nt, N, U) for nt in enumerate_indices(N, d)}


def _krawtchouk_matrix(N: int, U):
    """The compositions of N in canonical order and the matrix
    K[n_tilde, n] = K(n; n_tilde) over them."""
    table = krawtchouk_table(N, U)
    idx = list(table)
    return idx, np.array([[table[nt][n] for n in idx] for nt in idx], dtype=complex)


def orthogonality_residual(gp: GriffithsParams, N: int) -> float:
    """Max deviation from the two sesquilinear orthogonality relations:
    conj(K) diag(w_tilde) K^T = diag(1 / (nu^N w)), and the same on K^T with
    w and w_tilde exchanged, where w_n = multinomial(N; n) prod_i p_i^n_i and
    w_tilde is w with p_tilde in place of p."""
    idx, K = _krawtchouk_matrix(N, gp.U)
    multi = np.array([multinomial(N, n) for n in idx], dtype=float)
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


def bivariate_G_tilde(m: int, n: int, x: int, y: int, N: int) -> complex:
    """Orthonormalized value: sqrt(3^N multinomial) * G_{m,n}(x,y)."""
    scale = math.sqrt(3 ** N * multinomial(N, (N - m - n, m, n)))
    return scale * bivariate_G(m, n, x, y, N)


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
