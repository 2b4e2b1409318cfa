"""Commutative association schemes with closed-form spectral data.

Adjacency matrices are kept as exact integer arrays; eigenmatrices are
complex floating arrays built from closed forms (roots of unity, signed
powers of two), never from a generic eigensolver.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

SPECTRAL_TOL = 1e-10


class SchemeError(ValueError):
    """Matrices fail the association-scheme axioms."""


def _integers(values, what: str = "multi-index entries") -> tuple:
    """``values`` as a tuple of ints; ValueError on a bool, a non-integral or
    a non-finite entry, where int() would truncate or overflow."""
    out = []
    for v in values:
        try:
            i = int(v)
        except (OverflowError, TypeError, ValueError):
            i = None
        if i is None or i != v or isinstance(v, (bool, np.bool_)):
            raise ValueError(f"{what} must be integers, got {v!r}")
        out.append(i)
    return tuple(out)


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
    if np.can_cast(a.dtype, np.int64):  # int and bool input is exact as it is
        return a.astype(np.int64)
    out = np.rint(a.real if np.iscomplexobj(a) else a).astype(np.int64)
    if np.abs(out - a).max() > 0:
        raise SchemeError("adjacency matrices must have integer entries")
    return out


def _intersection_tensor(adjacency) -> np.ndarray:
    """Structure constants of the products A_i A_j, exact integers.

    The products run on BLAS.  For integer entries of magnitude at most M,
    every partial sum formed here (the products, and the span test that
    recombines their entries with the relations) is an integer of magnitude
    at most (d+1) M^3 |X|; up to 2^24 (every 0/1 scheme with (d+1) |X| <=
    2^24) that is exact in float32, so the products run in float32.  Any
    other input keeps float64, which is exact below 2^53.  Raises
    SchemeError, for the first failing (i, j, k), if products do not commute
    or a coefficient is not constant across a relation (i.e. the matrices
    are not a scheme).
    """
    nc = len(adjacency)
    A = np.array(adjacency)
    dtype = float
    if A.dtype.kind in "biu" and A.size:
        top = max(int(A.max()), -int(A.min()))
        if nc * top ** 3 * A.shape[-1] <= 2 ** 24:
            dtype = np.float32
    A = A.astype(dtype)
    flat = A.reshape(nc, -1)
    cells = [np.flatnonzero(f) for f in flat]
    empty = [c.size == 0 for c in cells]
    # the first cell of each relation (cell 0 for an empty one), and each
    # cell of `order` labelled with its relation
    order = np.concatenate(cells)
    first = np.array([c[0] if c.size else 0 for c in cells])
    label = np.repeat(np.arange(nc), [c.size for c in cells])
    # a product that 0/1 relations on disjoint cells span is constant on each
    # of them, so only other input needs the test of constancy
    partition = bool(((flat == 0) | (flat == 1)).all() and flat.sum(axis=0).max(initial=0) <= 1)
    p = np.zeros((nc, nc, nc), dtype=np.int64)
    for i in range(nc):
        prod = A[i] @ A[i:]
        commute = (prod == A[i:] @ A[i]).all(axis=(1, 2))
        pf = prod.reshape(nc - i, -1)
        v = pf[:, first]
        spanned = (pf == v @ flat).all(axis=1)
        ok = commute & spanned
        if not partition:
            ok &= (pf[:, order] == v[:, label]).all(axis=1)
        if any(empty) or not ok.all():
            for j, row, com, span in zip(range(i, nc), pf, commute, spanned):
                if not com:
                    raise SchemeError(f"A_{i} and A_{j} do not commute")
                for k in range(nc):
                    if empty[k]:
                        raise SchemeError(f"relation {k} is empty")
                    if (row[cells[k]] != row[first[k]]).any():
                        raise SchemeError(f"A_{i} A_{j} is not constant on relation {k}: "
                                          "not an association scheme")
                if not span:
                    raise SchemeError(f"A_{i} A_{j} leaves the adjacency span")
        p[i, i:] = v
        p[i:, i] = v
        del prod, pf  # free this block before the next one is formed
    return p


def _rounded_integers(values, what: str, least: int) -> np.ndarray:
    """``values`` rounded to int64; SchemeError unless each entry is finite,
    each real part is within 1e-9 of its rounding and each imaginary part
    within 1e-9 of 0, tested before the cast (finiteness first, before any
    subtraction), so a NaN or an infinity fails here."""
    rounded = np.rint(values.real)
    if not (np.isfinite(values).all() and np.abs(rounded - values.real).max() <= 1e-9
            and np.abs(values.imag).max() <= 1e-9):
        raise SchemeError(f"{what} are not integers: {values}")
    vals = rounded.astype(np.int64)
    if np.any(vals < least):
        raise SchemeError(f"{what} must be at least {least}: {vals}")
    return vals


def _spectral_intersection(P, size: int, valencies, multiplicities) -> np.ndarray:
    """p_ij^k = (1/(|X| k_k)) sum_l m_l P_li P_lj conj(P_lk) (Bannai & Ito),
    rounded to the exact non-negative integers it must be."""
    nc = len(P)
    raw = (multiplicities[:, None, None] * P[:, :, None] * P[:, None, :]).reshape(nc, -1).T @ np.conj(P)
    return _rounded_integers(raw.reshape(nc, nc, nc) / (size * valencies), "intersection numbers", 0)


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
    if not resid <= SPECTRAL_TOL * size:  # NaN fails too
        raise SchemeError(f"PQ != |X| I (residual {resid:.3e})")

    valencies = _rounded_integers(P[0], "valencies", 1)
    multiplicities = _rounded_integers(Q[0], "multiplicities", 1)
    cosine = P / valencies[np.newaxis, :]
    inter = _spectral_intersection(P, size, valencies, multiplicities)
    tmap = _spectral_transpose(inter)

    for arr in adjacency + (P, Q, cosine, valencies, multiplicities, inter):
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
    (n,) = _integers((n,), "n")
    if n < 1:
        raise ValueError("n must be a positive integer")
    x = np.arange(n)
    A = np.zeros((n, n, n), dtype=bool)
    A[(x - x[:, None]) % n, x[:, None], x] = True  # A_k[x, y] = 1 where y - x = k mod n
    adjacency = list(A)
    roots = np.array([unit_root(j, n) for j in range(n)])
    P = roots[np.multiply.outer(np.arange(n), np.arange(n)) % n]
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
    (d,) = _integers((d,), "d")
    if d < 1:
        raise ValueError("d must be a positive integer")
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    adjacency = [np.eye(2 ** d, dtype=np.int64)]
    for j in range(1, d + 1):
        ones = np.ones((2 ** (j - 1), 2 ** (j - 1)), dtype=np.int64)
        adjacency.append(np.kron(np.kron(ones, swap), np.eye(2 ** (d - j), dtype=np.int64)))

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

    A field of the wrong shape raises ValueError.  The exact checks read the
    adjacency matrices as one stack; a transpose map that is not an
    involution of 0..d fails transpose-closure with residual 1.0.  The
    spectral checks are identities on (d+1)-sized arrays in the Bose-Mesner
    algebra, with E_j = (1/|X|) sum_k Q[k,j] A_k and p the intersection
    tensor of the adjacency products (never the P-derived
    ``scheme.intersection``).  Each array holds the coefficients c_m of
    sum_m c_m A_m: I - QP/|X| for A_i - sum_j P[j,i] E_j (adjacency-
    reconstruction), sum_kl Q[k,i] Q[l,j] p_kl^m/|X|^2 - delta_ij Q[m,i]/|X|
    for E_i E_j - delta_ij E_i (idempotency), and sum_k Q[k,j] p_ik^m/|X| -
    P[j,i] Q[m,j]/|X| for A_i E_j - P[j,i] E_j (eigen-relation), the last
    two as tensordots.  When the A_m are 0/1 matrices with non-empty
    disjoint supports covering X x X, the largest entry of sum_m c_m A_m is
    max_m |c_m|, so these equal the dense |X| x |X| residuals.  They are
    inf when p cannot be formed, and every reduction propagates NaN.
    """
    size, nc = scheme.size, scheme.classes
    for name, rank in (("adjacency", 1), ("transpose_map", 1), ("valencies", 1), ("multiplicities", 1),
                       ("first_eigenmatrix", 2), ("second_eigenmatrix", 2), ("cosine", 2),
                       ("intersection", 3)):
        value = getattr(scheme, name)
        shape = (len(value),) if isinstance(value, (tuple, list)) else np.shape(value)
        if shape != (nc,) * rank:
            raise ValueError(f"dimension mismatch between {name} and classes")
    for a in scheme.adjacency:
        if np.shape(a) != (size, size):
            raise ValueError("dimension mismatch among adjacency matrices")
    A = np.asarray(scheme.adjacency)

    checks = []

    def exact(name, diff):
        r = float(np.abs(diff).max()) if np.size(diff) else 0.0
        checks.append(CheckResult(name, r == 0.0, r))

    def approx(name, diff, tol=SPECTRAL_TOL):
        r = float(np.abs(diff).max())
        checks.append(CheckResult(name, r <= tol, r))

    exact("identity-class", A[0] - np.eye(size, dtype=np.int64))
    # sum(A) = J, and every integer entry a has max(a - 1, -a) = 0, so it is 0 or 1
    exact("partition-of-ones", [np.abs(A.sum(axis=0) - 1).max(initial=0),
                                A.max(initial=1) - 1, 0 - A.min(initial=0)])

    tmap = scheme.transpose_map
    ok = all(isinstance(t, (int, np.integer)) and 0 <= t < nc and tmap[t] == i for i, t in enumerate(tmap))
    # a symmetric scheme needs no gathered copy of the stack
    ok = ok and np.array_equal(A.transpose(0, 2, 1), A if tmap == tuple(range(nc)) else A[list(tmap)])
    checks.append(CheckResult("transpose-closure", ok, 0.0 if ok else 1.0))
    del A  # the products form their own stack, and this one would add to their peak

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
        p = p.astype(complex)  # on BLAS, laid out [i, m, j] like both results
        idem = np.tensordot(np.tensordot(Qn, p, (0, 0)), Qn, (1, 0)) - eye[:, None, :] * Qn.T[:, :, None]
        eigrel = np.tensordot(p, Qn, (1, 0)) - P.T[:, None, :] * Qn[None, :, :]
    approx("idempotency", idem)
    approx("eigen-relation", eigrel)
    approx("valency-row", P[0] - scheme.valencies)
    approx("multiplicity-row", Q[0] - m)
    approx("cosine-duality", scheme.cosine - np.conj(Q).T / m[:, None])
    approx("column-orthogonality", m @ np.conj(scheme.cosine) - size * eye[0])

    return ValidationReport(tuple(checks))
