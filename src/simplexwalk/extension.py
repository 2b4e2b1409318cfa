"""Multi-index bookkeeping for the N-fold symmetric tensor power of a scheme.

The power scheme is never stored as matrices in the main path: classes are
labelled by compositions of N into d+1 parts, and everything downstream
(valencies, cosines, spectra) is computed at the index level.  Classes can
still be materialized as dense 0/1 matrices for small sizes, from the
per-copy relation counts, which is what the brute-force oracle feeds on.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os

import numpy as np

from .schemes import AssociationScheme, _integers

DEFAULT_GUARD = 4096


def size_guard(default: int = DEFAULT_GUARD) -> int:
    """Row guard for materialized matrices; SIMPLEXWALK_GUARD overrides."""
    env = os.environ.get("SIMPLEXWALK_GUARD")
    if not env:
        return default
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"SIMPLEXWALK_GUARD must be a positive integer, got {env!r}")
    return int(env)


def enumerate_indices(N: int, d: int) -> list:
    """All compositions of N into d+1 parts, largest first coordinate first.

    This graded-lexicographic order is the canonical row/column order for
    projected matrices and all serialized output.
    """
    N, d = _integers((N, d), "N and d")
    if N < 0 or d < 0:
        raise ValueError("N and d must be non-negative")
    prefixes = [()]
    for _ in range(d):
        prefixes = [prefix + (v,) for prefix in prefixes for v in range(N - sum(prefix), -1, -1)]
    return [prefix + (N - sum(prefix),) for prefix in prefixes]


def _composition(values, N: int, parts: int = None) -> tuple:
    """``values`` as a tuple of ints when it is a composition of N into
    ``parts`` parts (any number of parts when None): the one check of a
    class label, a lattice point of the simplex."""
    beta = _integers(values)
    parts = len(beta) if parts is None else parts
    if len(beta) != parts or min(beta, default=0) < 0 or sum(beta) != N:
        raise ValueError(f"{beta} is not a valid index: "
                         f"not a composition of {N} into {parts} parts")
    return beta


def multinomial(N: int, beta) -> int:
    """Exact N! / prod(beta_i!)."""
    beta = _composition(beta, N)
    return math.prod(math.comb(total, b) for total, b in zip(itertools.accumulate(beta), beta))


def multiset_arrangements(beta):
    """Distinct arrangements of the multiset {i repeated beta_i times}, in
    lexicographic order."""
    total = sum(_integers(beta))
    counts = list(_composition(beta, total))
    acc = []

    def rec():
        if len(acc) == total:
            yield tuple(acc)
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                acc.append(i)
                yield from rec()
                acc.pop()
                counts[i] += 1

    return rec()


def _square_matrix(M) -> np.ndarray:
    """``M`` as a complex array; ValueError unless a non-empty square matrix."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise ValueError(f"expected a non-empty square matrix, got shape {M.shape}")
    return M


def symmetric_power_row(M, beta) -> dict:
    """Coefficients of prod_i (sum_j M[i,j] x_j)^beta_i, keyed by the
    exponent composition of each monomial, in canonical order.

    This is the row beta of the N-th symmetric power of the square matrix M
    in the monomial basis, expanded term by term, checked and keyed: the
    Krawtchouk generating function expands the same ``_expand`` on the same
    cached ``_power_plan`` of (N, d) directly, so its values are these
    divided by the multinomials, bit for bit.  The sums cancel more as N
    grows, so the projected evolution runs on ``_symmetric_power_state``
    instead.  The arithmetic is plain Python complex.
    """
    rows = _square_matrix(M).tolist()
    N = sum(_integers(beta))
    beta = _composition(beta, N, len(rows))
    layers, labels, _ = _power_plan(N, len(rows) - 1)
    return dict(zip(labels, _expand(rows, beta, layers)))


@functools.lru_cache(maxsize=32)
def _power_plan(N: int, d: int) -> tuple:
    """(layers, labels, multinomials) for expanding products of N linear
    forms in d+1 variables.  Layer n - 1 lists, for each composition gamma
    of n in canonical order, the pairs (row of gamma - e_j among the
    compositions of n - 1, j) for j = d, ..., 0 with gamma_j > 0: the order
    in which multiplying out the factors one by one, monomials in canonical
    order and slots ascending, adds the terms of x^gamma.  Each (row, j)
    pair is one shared tuple.  ``labels`` are the compositions of N in
    canonical order and ``multinomials`` their exact multinomial(N; gamma)."""
    slots = np.arange(d + 1)
    pairs = [(s, j) for s in range(math.comb(N - 1 + d, d) if N else 0) for j in slots.tolist()]
    layers = []
    for n in range(1, N + 1):
        index = _index_matrix(n, d)
        r, c = np.nonzero(index[:, ::-1])  # per row, slots descending
        j = d - c
        source = _rank(index[r] - (slots == j[:, None]), n - 1)
        flat = list(map(pairs.__getitem__, (source * (d + 1) + j).tolist()))
        ends = np.cumsum(np.count_nonzero(index, axis=1)).tolist()
        layers.append(tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends)))
    labels = tuple(zip(*_index_matrix(N, d).T.tolist()))
    factorial = [math.factorial(k) for k in range(N + 1)]
    multinomials = tuple(factorial[N] // math.prod(map(factorial.__getitem__, g)) for g in labels)
    return tuple(layers), labels, multinomials


def _expand(rows, beta, layers) -> list:
    """The coefficients of prod_i (sum_j rows[i][j] x_j)^beta_i in canonical
    order, one layer of ``_power_plan`` per factor: each coefficient starts
    at 0j and adds its terms in the plan's order, so its bits are those of
    multiplying the factors out one at a time on a dict of monomials.  The
    products stay Python complex ones: numpy's vectorised complex multiply
    rounds differently."""
    poly = [1.0 + 0.0j]
    factors = (row for row, b in zip(rows, beta) for _ in range(b))
    for row, layer in zip(factors, layers):
        new = []
        for terms in layer:
            acc = 0j
            for s, j in terms:
                acc = acc + poly[s] * row[j]
            new.append(acc)
        poly = new
    return poly


@dataclasses.dataclass(frozen=True, eq=False)
class ExtensionScheme:
    """The N-th symmetric tensor power of ``base``, N = ``copies``, as its
    class table in canonical order: ``index`` row r, ``valency`` and
    ``multinomial`` hold index_set[r], k_beta and multinomial(N; beta),
    the last two as the exact integers rounded once to float64.  The
    arrays are read-only; ``_rank`` maps each beta back to its row."""

    base: AssociationScheme
    copies: int
    index_set: tuple
    index: np.ndarray
    valency: np.ndarray
    multinomial: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.index_set)

    def monomials(self, x, out) -> np.ndarray:
        """out[..., r] *= prod_k x[..., k]^beta_k in place, beta = index_set[r]:
        the powers 0..N of each x_k are formed once and gathered by the
        table's exponent column, and x_k^0 is skipped, so the zeros and
        signs of ``out`` stay where beta_k = 0."""
        powers = np.asarray(x)[..., None] ** np.arange(self.copies + 1)
        for k, (exponents, used) in enumerate(zip(self.index.T, self.index.T > 0)):
            np.multiply(out, powers[..., k, exponents], out=out, where=used)
        return out

    @functools.cached_property
    def _pair_blocks(self) -> dict:
        """Per slot pair s < t, entry n holds one row per set of classes with
        n units in slots s and t that agree on every other slot, columns
        ordered by beta_s = 0..n.  Built on first access only, so tables
        that never take a two-slot step do not grow."""
        index = self.index
        blocks = {}
        for s, t in itertools.combinations(range(index.shape[1]), 2):
            n = index[:, s] + index[:, t]
            rows = np.lexsort((index[:, s], *np.delete(index, (s, t), axis=1).T, n))
            segments = np.split(rows, np.cumsum(np.bincount(n, minlength=self.copies + 1))[:-1])
            blocks[s, t] = [seg.reshape(-1, k + 1) for k, seg in enumerate(segments)]
        return blocks


def _index_matrix(N: int, d: int) -> np.ndarray:
    """``enumerate_indices(N, d)`` as a D x (d+1) intp matrix, slot by slot:
    a row with ``left`` copies still to place repeats left+1 times, with
    left, left-1, ..., 0 in the new slot, and the last slot takes the rest."""
    columns, left = [], np.array([N], dtype=np.intp)
    for _ in range(d):
        counts = left + 1
        runs = np.repeat(np.arange(left.size), counts)
        rest = np.arange(runs.size) - (np.cumsum(counts) - counts)[runs]
        columns = [c[runs] for c in columns] + [left[runs] - rest]
        left = rest
    return np.stack(columns + [left], axis=1)


def _rank(index, N: int) -> np.ndarray:
    """The table row of each composition of N on the last axis of ``index``,
    which must hold valid compositions: the canonical order is the
    combinatorial number system with the first slot descending, so beta is
    row sum_{i<d} C(l_i + d - i - 1, d - i), l_i the copies left after slot
    i.  Each C(l + k - 1, k) is built by the exact integer steps C(l + j,
    j + 1) = C(l + j - 1, j) (l + j) / (j + 1), which reach 0 at l = 0 and
    never pass the rank.  All zeros when d = 0."""
    index = np.asarray(index, dtype=np.intp)
    d, left = index.shape[-1] - 1, N - np.cumsum(index[..., :-1], axis=-1)
    rank = np.zeros(index.shape[:-1], dtype=np.intp)
    for i in range(d):
        c = np.ones_like(rank)
        for j in range(d - i):
            c = c * (left[..., i] + j) // (j + 1)
        rank += c
    return rank


def _binomial_row(r: int) -> list:
    """[C(r, 0), ..., C(r, r)], exact, by C(r, j+1) = C(r, j) (r - j) / (j + 1)."""
    row = [1]
    for j in range(r):
        row.append(row[-1] * (r - j) // (j + 1))
    return row


_BLOCK_ROWS = 4096  # classes per block of exact products


def extension_scheme(base: AssociationScheme, N: int) -> ExtensionScheme:
    """The N-th power of ``base`` with its class table, uncached: a walk
    holds its own as ``WalkSpec.table``.  The table is read off the index
    matrix, in blocks of rows: multinomial(N; beta) = prod_{i<d} C(r_i,
    beta_i), r_i the copies left before slot i, gathered from binomial rows,
    and k_beta = multinomial(N; beta) * prod_i k_i^beta_i, from one power
    column per slot with k_i != 1.  The products are exact Python ints in
    object arrays, each rounded once, to nearest, into the float columns.
    ValueError when a valency is past the float range."""
    (N,) = _integers((N,), "copies")
    if N < 0:
        raise ValueError("copies must be non-negative")
    d, valencies = base.d, base.valencies.tolist()
    index = _index_matrix(N, d)
    index_set = tuple(zip(*index.T.tolist()))
    start, binomials = np.zeros(N + 1, dtype=np.intp), []
    for r in range(N + 1) if d > 1 else (N,) * d:  # d = 1 reads row N only, d = 0 none
        start[r] = len(binomials)
        binomials += _binomial_row(r)
    binomials = np.array(binomials, dtype=object)
    powers = [(i, np.array([k ** b for b in range(N + 1)], dtype=object))
              for i, k in enumerate(valencies) if k != 1]
    multinomials, valency = np.empty(len(index)), np.empty(len(index))
    for lo in range(0, len(index), _BLOCK_ROWS):
        block, part = index[lo:lo + _BLOCK_ROWS], slice(lo, lo + _BLOCK_ROWS)
        m, left = 1, N
        for b in block[:, :-1].T:
            m = m * binomials[start[left] + b]
            left = left - b
        k = m
        for i, column in powers:
            k = k * column[block[:, i]]
        try:
            multinomials[part], valency[part] = m, k
        except OverflowError:
            raise ValueError(f"class valencies at N = {N} exceed the float range "
                             f"(largest float {np.finfo(float).max:.6g})") from None
    for a in (index, valency, multinomials):
        a.setflags(write=False)
    return ExtensionScheme(base=base, copies=N, index_set=index_set, index=index, valency=valency,
                           multinomial=multinomials)


def _symmetric_power_state(V, start, table: ExtensionScheme) -> np.ndarray:
    """Sym^N of the unitary V applied to the class state ``start``, on the
    normalised class states: entry gamma is the coefficient of x^gamma in
    prod_i (sum_j V[i,j] x_j)^start_i times sqrt(gamma! / start!).  From an
    extreme start N e_s that is sqrt(multinomial(N; gamma)) prod_j
    V[s,j]^gamma_j (``ExtensionScheme.monomials``); else ``_givens_state``."""
    V = np.asarray(V, dtype=complex)
    if np.count_nonzero(start) <= 1:
        state = np.sqrt(table.multinomial).astype(complex)
        return table.monomials(V[int(np.argmax(start))], state)
    return _givens_state(V, start, table)


def _givens_state(V, start, table: ExtensionScheme) -> np.ndarray:
    """``_symmetric_power_state`` from any start.  Givens rotations G_k on
    the slot pairs s < t, column by column, bring V to the diagonal
    D = G_m ... G_1 V, so the state is lifted through each G_k^+ in turn,
    then through D as prod_j D_jj^gamma_j (``ExtensionScheme.monomials``).
    On the slot order (t, s), G_k^+ = [[c, -sn], [conj(sn), c]] = P^+ O P,
    P = diag(1, sn/|sn|), O = [[c, -|sn|], [|sn|, c]].  On the classes with
    n units in slots s and t, a = beta_s, P lifts to diag((sn/|sn|)^a) and
    O to the real S_n = (1/n) sum_ij O_ij R_i S_{n-1} R_j^T, R_0[a, a] =
    sqrt(n-a), R_1[a+1, a] = sqrt(a+1), S_0 = [[1]] (Risbo's D-function
    recursion).  Each S_n acts once built; only S_{n-1} is kept."""
    V = np.array(V, dtype=complex)
    state = np.zeros(table.dimension, dtype=complex)
    state[_rank(start, table.copies)] = 1.0
    for (s, t), blocks in table._pair_blocks.items():  # column-major pair order
        a, b = V[s, s], V[t, s]
        if b == 0:
            continue
        r = math.hypot(abs(a), abs(b))
        c, sn = abs(a) / r, -b * (np.conj(a) / abs(a) if a else 1.0) / r
        V[[s, t]] = np.array([[c, -np.conj(sn)], [sn, c]]) @ V[[s, t]]
        S, sin, arg = np.ones((1, 1)), abs(sn), np.angle(sn)
        for n in range(1, table.copies + 1):
            root = np.sqrt(np.arange(n + 1) / n)  # row a of R_0, R_1 over sqrt(n): root[n-a], root[a]
            padded = np.zeros((n + 2, n + 2))
            padded[1:-1, 1:-1] = S
            right0, right1 = padded[:, 1:] * root[::-1], padded[:, :-1] * root
            S = (root[::-1, None] * (c * right0[1:] - sin * right1[1:])
                 + root[:, None] * (sin * right0[:-1] + c * right1[:-1]))
            p = np.exp(1j * arg * np.arange(n + 1))
            state[blocks[n]] = (state[blocks[n]] * p.conj() @ S) * p
    return table.monomials(np.diagonal(V), state)


def class_valency(ext: ExtensionScheme, beta) -> int:
    """k_beta = multinomial(N; beta) * prod_i k_i^beta_i, exact."""
    beta = _composition(beta, ext.copies, ext.base.classes)
    out = multinomial(ext.copies, beta)
    for b, k in zip(beta, ext.base.valencies):
        out *= int(k) ** b
    return out


def _guarded_rows(base: AssociationScheme, copies: int, default: int = DEFAULT_GUARD) -> int:
    """|X|^N, the rows of a dense matrix on the N-th power, within the guard."""
    rows = base.size ** copies
    guard = size_guard(default)
    if rows > guard:
        raise ValueError(f"materialization of {rows} rows exceeds the guard ({guard})")
    return rows


def _materialize(ext: ExtensionScheme, index, factors, dtype) -> np.ndarray:
    rows = _guarded_rows(ext.base, ext.copies)
    total = np.zeros((rows, rows), dtype=dtype)
    for arrangement in multiset_arrangements(index):
        mats = [factors[s] for s in arrangement]
        total += functools.reduce(np.kron, mats, np.eye(1, dtype=dtype))
    return total


def _relation_table(adjacency) -> np.ndarray:
    """R[x, y] = k where A_k[x, y] = 1, read once off the 0/1 relations."""
    return sum(k * np.asarray(a) for k, a in enumerate(adjacency))


def _relation_counts(relations, classes) -> np.ndarray:
    """Entry (i, v, w) counts the copies s with relations[s][v_s, w_s] equal
    to classes[i], v_s and w_s the base-|X| digits of v and w: a Kronecker
    sum over the copies, one broadcast add per copy, in the smallest
    integer type that holds the number of copies.  Each add puts its copy
    in front, so the inner axes of the sum stay long."""
    dtype = np.min_scalar_type(len(relations))
    classes = np.asarray(classes, dtype=np.intp)[:, None, None]
    out = np.zeros((len(classes), 1, 1), dtype=dtype)
    for r in reversed(relations):
        hit = (r == classes).astype(dtype)
        out = (hit[:, :, None, :, None] + out[:, None, :, None, :]).reshape(
            len(classes), r.shape[0] * out.shape[1], -1)
    return out


def materialize_class(ext: ExtensionScheme, beta) -> np.ndarray:
    """Dense 0/1 adjacency matrix of the class labelled by beta: (v, w) is
    in it when, for each k with beta_k > 0, exactly beta_k copies s have
    A_k[v_s, w_s] = 1 (the other counts are then 0, as beta sums to N)."""
    beta = _composition(beta, ext.copies, ext.base.classes)
    rows = _guarded_rows(ext.base, ext.copies)
    ks = [k for k, b in enumerate(beta) if b]
    counts = _relation_counts([_relation_table(ext.base.adjacency)] * ext.copies, ks)
    member = np.ones((rows, rows), dtype=bool)
    for count, k in zip(counts, ks):
        member &= count == beta[k]
    return member.astype(np.int64)


def materialize_idempotent(ext: ExtensionScheme, alpha) -> np.ndarray:
    """Dense primitive idempotent labelled by alpha (sum of arrangement
    tensor products of the base idempotents)."""
    alpha = _composition(alpha, ext.copies, ext.base.classes)
    base_idem = [ext.base.idempotent(j) for j in range(ext.base.classes)]
    return _materialize(ext, alpha, base_idem, complex)


def extension_cosine(ext: ExtensionScheme, alpha, beta) -> complex:
    """Cosine of the class beta on the idempotent alpha of the power scheme."""
    alpha = _composition(alpha, ext.copies, ext.base.classes)
    beta = _composition(beta, ext.copies, ext.base.classes)
    from . import krawtchouk

    return krawtchouk.krawtchouk_series(beta, alpha, ext.copies, ext.base.cosine)


def indices_json(ext: ExtensionScheme) -> list:
    """Index set as a JSON-ready list of integer lists, canonical order."""
    return [list(beta) for beta in ext.index_set]
