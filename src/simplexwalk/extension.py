"""Multi-index bookkeeping for the N-fold symmetric tensor power of a scheme.

The power scheme is never stored as matrices in the main path: classes are
labelled by compositions of N into d+1 parts, and everything downstream
(valencies, cosines, spectra) is computed at the index level.  Classes can
still be materialized as dense 0/1 matrices for small sizes, which is what
the brute-force oracle feeds on.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import types

import numpy as np

from .schemes import AssociationScheme

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
    if N < 0 or d < 0:
        raise ValueError("N and d must be non-negative")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), N, d + 1)
    return out


def multinomial(N: int, beta) -> int:
    """Exact N! / prod(beta_i!)."""
    beta = tuple(int(b) for b in beta)
    if any(b < 0 for b in beta):
        raise ValueError("multi-index entries must be non-negative")
    if sum(beta) != N:
        raise ValueError(f"multi-index {beta} does not sum to {N}")
    return math.prod(math.comb(total, b) for total, b in zip(itertools.accumulate(beta), beta))


def multiset_arrangements(beta):
    """Distinct arrangements of the multiset {i repeated beta_i times}, in
    lexicographic order."""
    counts = [int(b) for b in beta]
    total = sum(counts)
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

    yield from rec()


def symmetric_power_row(M, beta) -> dict:
    """Coefficients of prod_i (sum_j M[i,j] x_j)^beta_i, keyed by the
    exponent composition of each monomial.

    This is the row beta of the N-th symmetric power of the square matrix M
    in the monomial basis: the Krawtchouk generating function and the
    projected evolution both read their values off it.
    """
    rows = np.asarray(M, dtype=complex).tolist()
    nc = len(rows)
    poly = {(0,) * nc: 1.0 + 0.0j}
    for i, b in enumerate(beta):
        for _ in range(b):
            new = {}
            for mono, coeff in poly.items():
                for j, m in enumerate(rows[i]):
                    shifted = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    new[shifted] = new.get(shifted, 0.0 + 0.0j) + coeff * m
            poly = new
    return poly


@dataclasses.dataclass(frozen=True, eq=False)
class ExtensionScheme:
    """Symbolic handle on the N-th symmetric tensor power of ``base``."""

    base: AssociationScheme
    copies: int
    index_set: tuple
    position: dict

    @property
    def dimension(self) -> int:
        return len(self.index_set)


def extension_scheme(base: AssociationScheme, N: int) -> ExtensionScheme:
    table = class_table(base, N)
    return ExtensionScheme(base=base, copies=N, index_set=table.order, position=table.position)


@dataclasses.dataclass(frozen=True, eq=False)
class ClassTable:
    """Classes of an N-th power scheme in canonical order; ``index`` row r,
    ``valency`` and ``multinomial`` hold order[r], k_beta and multinomial(N; beta)."""

    order: tuple
    position: types.MappingProxyType
    index: np.ndarray
    valency: np.ndarray
    multinomial: np.ndarray


def class_table(base: AssociationScheme, N: int) -> ClassTable:
    """The class table of the N-th power of ``base``, cached on N, d and the
    base valencies, so that schemes with equal valencies share one table."""
    return _class_table(N, base.d, tuple(base.valencies.tolist()))


@functools.lru_cache(maxsize=8)
def _class_table(N: int, d: int, valencies: tuple) -> ClassTable:
    order = tuple(enumerate_indices(N, d))
    position = types.MappingProxyType({beta: i for i, beta in enumerate(order)})
    index = np.array(order, dtype=np.intp)
    exact = [multinomial(N, beta) for beta in order]
    # k_beta = multinomial(N; beta) * prod_i k_i^beta_i, as in class_valency
    valency = np.array([float(m * math.prod(int(k) ** b for k, b in zip(valencies, beta)))
                        for m, beta in zip(exact, order)])
    multinomials = np.array([float(m) for m in exact])
    for a in (index, valency, multinomials):
        a.setflags(write=False)
    return ClassTable(order=order, position=position, index=index, valency=valency,
                      multinomial=multinomials)


def _check_index(ext: ExtensionScheme, beta) -> tuple:
    beta = tuple(int(b) for b in beta)
    if beta not in ext.position:
        raise ValueError(f"{beta} is not a composition of {ext.copies} into {ext.base.d + 1} parts")
    return beta


def class_valency(ext: ExtensionScheme, beta) -> int:
    """k_beta = multinomial(N; beta) * prod_i k_i^beta_i, exact."""
    beta = _check_index(ext, beta)
    out = multinomial(ext.copies, beta)
    for b, k in zip(beta, ext.base.valencies):
        out *= int(k) ** b
    return out


def _kron_chain(mats, dtype) -> np.ndarray:
    out = np.eye(1, dtype=dtype)
    for m in mats:
        out = np.kron(out, m)
    return out


def _materialize(ext: ExtensionScheme, index, factors, dtype) -> np.ndarray:
    rows = ext.base.size ** ext.copies
    guard = size_guard()
    if rows > guard:
        raise ValueError(f"materialization of {rows} rows exceeds the guard ({guard})")
    total = np.zeros((rows, rows), dtype=dtype)
    for arrangement in multiset_arrangements(index):
        total += _kron_chain([factors[s] for s in arrangement], dtype)
    return total


def materialize_class(ext: ExtensionScheme, beta) -> np.ndarray:
    """Dense 0/1 adjacency matrix of the class labelled by beta."""
    beta = _check_index(ext, beta)
    return _materialize(ext, beta, ext.base.adjacency, np.int64)


def materialize_idempotent(ext: ExtensionScheme, alpha) -> np.ndarray:
    """Dense primitive idempotent labelled by alpha (sum of arrangement
    tensor products of the base idempotents)."""
    alpha = _check_index(ext, alpha)
    base_idem = [ext.base.idempotent(j) for j in range(ext.base.classes)]
    return _materialize(ext, alpha, base_idem, complex)


def extension_cosine(ext: ExtensionScheme, alpha, beta) -> complex:
    """Cosine of the class beta on the idempotent alpha of the power scheme."""
    alpha = _check_index(ext, alpha)
    beta = _check_index(ext, beta)
    from . import krawtchouk

    return krawtchouk.krawtchouk_series(beta, alpha, ext.copies, ext.base.cosine)


def indices_json(ext: ExtensionScheme) -> list:
    """Index set as a JSON-ready list of integer lists, canonical order."""
    return [list(beta) for beta in ext.index_set]
