"""Commutative association schemes with closed-form spectral data.

Adjacency matrices are kept as exact integer arrays; eigenmatrices are
complex floating arrays built from closed forms (roots of unity, signed
powers of two), never from a generic eigensolver.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

SPECTRAL_TOL = 1e-10


class SchemeError(ValueError):
    """Matrices fail the association-scheme axioms."""


def unit_root(k: int, n: int) -> complex:
    """k-th power of exp(2*pi*i/n); exact on quarter turns."""
    k = k % n
    if 4 * k % n == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * k // n]
    angle = 2.0 * math.pi * k / n
    return complex(math.cos(angle), math.sin(angle))


@dataclasses.dataclass(frozen=True, eq=False)
class AssociationScheme:
    """A commutative association scheme together with its spectral data.

    ``adjacency`` holds the 0/1 integer matrices A_0..A_d, ``first_eigenmatrix``
    and ``second_eigenmatrix`` are P and Q with A_i = sum_j P[j,i] E_j and
    E_i = (1/|X|) sum_j Q[j,i] A_j, ``cosine`` is C with C[i,j] = P[i,j]/k_j,
    and ``intersection[i,j,k]`` is the structure constant of A_i A_j on A_k.
    """

    size: int
    classes: int
    adjacency: tuple
    first_eigenmatrix: np.ndarray
    second_eigenmatrix: np.ndarray
    cosine: np.ndarray
    valencies: np.ndarray
    multiplicities: np.ndarray
    transpose_map: tuple
    intersection: np.ndarray

    @property
    def d(self) -> int:
        return self.classes - 1

    def idempotent(self, j: int) -> np.ndarray:
        """E_j reconstructed from Q and the adjacency matrices."""
        Q = self.second_eigenmatrix
        E = np.zeros((self.size, self.size), dtype=complex)
        for k in range(self.classes):
            E += Q[k, j] * self.adjacency[k]
        return E / self.size


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        # np.max propagates NaN, so a NaN residual is never hidden
        return float(np.max([c.residual for c in self.checks], initial=0.0))

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{c.name}: {status} (residual {c.residual:.3e})")
        return "\n".join(lines)


def _as_int_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    out = np.rint(a.real if np.iscomplexobj(a) else a).astype(np.int64)
    if np.abs(out - a).max() > 0:
        raise SchemeError("adjacency matrices must have integer entries")
    return out


def _intersection_tensor(adjacency) -> np.ndarray:
    """Structure constants of the products A_i A_j, exact integers.

    The products run in float64 on BLAS; products of 0/1 matrices have
    integer entries of at most |X| < 2^53, so they are exact.  Raises
    SchemeError, for the first failing (i, j, k), if products do not commute
    or a coefficient is not constant across a relation (i.e. the matrices
    are not a scheme).
    """
    nc = len(adjacency)
    A = np.array(adjacency, dtype=float)
    flat = A.reshape(nc, -1)
    cells = [np.flatnonzero(f) for f in flat]
    empty = [c.size == 0 for c in cells]
    # flat cells relation by relation, then a sentinel so that every segment
    # of `starts`, an empty one too, reduces over at least one cell
    order = np.concatenate(cells + [[0]])
    starts = np.cumsum([0] + [c.size for c in cells])
    p = np.zeros((nc, nc, nc), dtype=np.int64)
    for i in range(nc):
        prod = A[i] @ A[i:]
        commute = (prod == A[i:] @ A[i]).all(axis=(1, 2))
        pf = prod.reshape(nc - i, -1)
        v = pf[:, order[starts[:-1]]]
        spanned = ~(pf != v @ flat).any(axis=1)
        on = pf[:, order]
        constant = np.maximum.reduceat(on, starts, axis=1) == np.minimum.reduceat(on, starts, axis=1)
        if any(empty) or not (commute.all() and constant.all() and spanned.all()):
            for j, com, const, span in zip(range(i, nc), commute, constant.tolist(), spanned):
                if not com:
                    raise SchemeError(f"A_{i} and A_{j} do not commute")
                for k in range(nc):
                    if empty[k]:
                        raise SchemeError(f"relation {k} is empty")
                    if not const[k]:
                        raise SchemeError(f"A_{i} A_{j} is not constant on relation {k}: "
                                          "not an association scheme")
                if not span:
                    raise SchemeError(f"A_{i} A_{j} leaves the adjacency span")
        p[i, i:] = v
        p[i:, i] = v
        del prod, pf, on  # free this block before the next one is formed
    return p


def _integers(values, what: str, least: int) -> np.ndarray:
    vals = np.rint(values.real).astype(np.int64)
    if np.abs(vals - values).max() > 1e-9:
        raise SchemeError(f"{what} are not integers: {values}")
    if np.any(vals < least):
        raise SchemeError(f"{what} must be at least {least}: {vals}")
    return vals


def _spectral_intersection(P, size: int, valencies, multiplicities) -> np.ndarray:
    """p_ij^k = (1/(|X| k_k)) sum_l m_l P_li P_lj conj(P_lk) (Bannai & Ito),
    rounded to the exact non-negative integers it must be."""
    raw = np.einsum("l,li,lj,lk->ijk", multiplicities, P, P, np.conj(P), optimize=True)
    return _integers(raw / (size * valencies), "intersection numbers", 0)


def _spectral_transpose(inter) -> tuple:
    """The transpose of class i is the one class j with p_ij^0 != 0."""
    hits = inter[:, :, 0] != 0
    if np.any(hits.sum(axis=1) != 1):
        raise SchemeError("transpose map: p_ij^0 must be non-zero for exactly one j per i")
    return tuple(int(j) for j in hits.argmax(axis=1))


def _make_scheme(adjacency, P, Q) -> AssociationScheme:
    adjacency = tuple(_as_int_matrix(a) for a in adjacency)
    size = adjacency[0].shape[0]
    nc = len(adjacency)
    for a in adjacency:
        if a.shape != (size, size):
            raise ValueError("dimension mismatch among adjacency matrices")
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if P.shape != (nc, nc) or Q.shape != (nc, nc):
        raise ValueError("dimension mismatch between eigenmatrices and classes")

    resid = np.abs(P @ Q - size * np.eye(nc)).max()
    if resid > SPECTRAL_TOL * size:
        raise SchemeError(f"PQ != |X| I (residual {resid:.3e})")

    valencies = _integers(P[0], "valencies", 1)
    multiplicities = _integers(Q[0], "multiplicities", 1)
    cosine = P / valencies[np.newaxis, :]
    inter = _spectral_intersection(P, size, valencies, multiplicities)
    tmap = _spectral_transpose(inter)

    for arr in adjacency:
        arr.setflags(write=False)
    for arr in (P, Q, cosine, valencies, multiplicities, inter):
        arr.setflags(write=False)
    return AssociationScheme(
        size=size,
        classes=nc,
        adjacency=adjacency,
        first_eigenmatrix=P,
        second_eigenmatrix=Q,
        cosine=cosine,
        valencies=valencies,
        multiplicities=multiplicities,
        transpose_map=tmap,
        intersection=inter,
    )


def trivial_scheme_2() -> AssociationScheme:
    """The two-point scheme: identity plus the swap."""
    a0 = np.eye(2, dtype=np.int64)
    a1 = np.array([[0, 1], [1, 0]], dtype=np.int64)
    P = np.array([[1, 1], [1, -1]], dtype=complex)
    return _make_scheme([a0, a1], P, P)


def directed_ngon(n: int) -> AssociationScheme:
    """Cyclic scheme on n points: A_k is the k-th power of the forward shift."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    eye = np.eye(n, dtype=np.int64)
    adjacency = [np.roll(eye, k, axis=1) for k in range(n)]
    P = np.array([[unit_root(k * l, n) for l in range(n)] for k in range(n)])
    Q = np.conj(P)
    return _make_scheme(adjacency, P, Q)


def ordered_word_scheme(d: int) -> AssociationScheme:
    """Binary-word scheme of depth d on 2^d points.

    Built by fusing the d-fold tensor power of the two-point scheme under
    the group generated by "flip position j-1 whenever position j holds a
    one"; class j collects the words whose last one sits at position j, so
    k_0 = 1 and k_j = 2^(j-1).  Summing those words position by position
    gives the closed form A_j = J_2^(x)(j-1) (x) S (x) I_2^(x)(d-j), with
    J_2 the all-ones and S the swap matrix of the two-point scheme.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    eye, swap = trivial_scheme_2().adjacency
    ones = eye + swap
    adjacency = [functools.reduce(np.kron, [eye] * d)] + [
        functools.reduce(np.kron, [ones] * (j - 1) + [swap] + [eye] * (d - j)) for j in range(1, d + 1)]

    k = np.array([1] + [2 ** (j - 1) for j in range(1, d + 1)], dtype=np.int64)
    i, j = np.indices((d + 1, d + 1))
    C = np.where(i + j <= d, 1.0, np.where(i + j == d + 1, -1.0, 0.0))
    P = C * k[np.newaxis, :]
    Q = (C * k[:, np.newaxis]).T  # the scheme is self-dual: m = k
    return _make_scheme(adjacency, P, Q)


def intersection_numbers(scheme: AssociationScheme) -> np.ndarray:
    """Recompute the structure-constant tensor from the adjacency matrices."""
    return _intersection_tensor(scheme.adjacency)


def validate_scheme(scheme: AssociationScheme) -> ValidationReport:
    """Check the four axioms exactly and the spectral data numerically.

    The spectral checks are identities on (d+1)-sized arrays in the
    Bose-Mesner algebra, with E_j = (1/|X|) sum_k Q[k,j] A_k and p the
    intersection tensor of the adjacency products (never the P-derived
    ``scheme.intersection``).  Each array holds the coefficients c_m of
    sum_m c_m A_m: I - QP/|X| for A_i - sum_j P[j,i] E_j (adjacency-
    reconstruction), sum_kl Q[k,i] Q[l,j] p_kl^m/|X|^2 - delta_ij Q[m,i]/|X|
    for E_i E_j - delta_ij E_i (idempotency), and sum_k Q[k,j] p_ik^m/|X| -
    P[j,i] Q[m,j]/|X| for A_i E_j - P[j,i] E_j (eigen-relation).  When the
    A_m are 0/1 matrices with non-empty disjoint supports covering X x X,
    the largest entry of sum_m c_m A_m is max_m |c_m|, so these equal the
    dense |X| x |X| residuals.  They are inf when p cannot be formed, and
    every reduction propagates NaN.
    """
    size = scheme.size
    nc = scheme.classes
    for a in scheme.adjacency:
        if a.shape != (size, size):
            raise ValueError("dimension mismatch among adjacency matrices")

    checks = []

    def exact(name, diff):
        r = float(np.abs(diff).max()) if np.size(diff) else 0.0
        checks.append(CheckResult(name, r == 0.0, r))

    def approx(name, diff, tol=SPECTRAL_TOL):
        r = float(np.abs(diff).max())
        checks.append(CheckResult(name, r <= tol, r))

    exact("identity-class", scheme.adjacency[0] - np.eye(size, dtype=np.int64))
    # the relations sum to J, and every entry lies in {0, 1}
    exact("partition-of-ones", [sum(scheme.adjacency) - np.ones((size, size), dtype=np.int64)]
          + [np.minimum(np.abs(a), np.abs(a - 1)) for a in scheme.adjacency])

    tr_ok = all(
        np.array_equal(scheme.adjacency[i].T, scheme.adjacency[scheme.transpose_map[i]])
        for i in range(nc)
    )
    invol = all(scheme.transpose_map[scheme.transpose_map[i]] == i for i in range(nc))
    checks.append(CheckResult("transpose-closure", tr_ok and invol, 0.0 if (tr_ok and invol) else 1.0))

    try:
        p = _intersection_tensor(scheme.adjacency)
        exact("commuting-integer-products", p - scheme.intersection)
    except SchemeError:
        p = None
        checks.append(CheckResult("commuting-integer-products", False, float("inf")))

    P = scheme.first_eigenmatrix
    Q = scheme.second_eigenmatrix
    m = scheme.multiplicities
    eye = np.eye(nc)
    approx("eigenmatrix-inverse", P @ Q - size * eye)
    approx("adjacency-reconstruction", eye - Q @ P / size)
    Qn = Q / size  # Qn[m, j]: coefficient of A_m in E_j
    idem = eigrel = np.inf  # the adjacency products are not a scheme
    if p is not None:
        idem = np.einsum("ki,lj,klm->ijm", Qn, Qn, p, optimize=True) - eye[:, :, None] * Qn.T[:, None, :]
        eigrel = np.einsum("kj,ikm->ijm", Qn, p, optimize=True) - P.T[:, :, None] * Qn.T[None, :, :]
    approx("idempotency", idem)
    approx("eigen-relation", eigrel)
    approx("valency-row", P[0] - scheme.valencies)
    approx("multiplicity-row", Q[0] - m)
    approx("cosine-duality", scheme.cosine - np.conj(Q).T / m[:, None])
    approx("column-orthogonality", m @ np.conj(scheme.cosine) - size * eye[0])

    return ValidationReport(tuple(checks))
