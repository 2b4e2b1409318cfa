"""Walk Hamiltonians on power schemes: spectra, closed-form amplitudes,
weight solving, and the projected matrix on the class-representative basis.

The Hamiltonian couples the start vertex to the classes that perturb a
single tensor slot, with one complex weight per base class.  Amplitudes are
evaluated through a product formula whose factors are phase sums over the
base idempotents; no matrix of the full power scheme is ever formed here.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np

from .extension import ClassTable, class_table, symmetric_power_row
from .schemes import AssociationScheme, unit_root

HERMITIAN_TOL = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class WalkSpec:
    """Base scheme, number of copies, and the coupling weights w_1..w_d."""

    base: AssociationScheme
    copies: int
    weights: np.ndarray

    @property
    def hermiticity_residual(self) -> float:
        w = self.weights
        tmap = self.base.transpose_map
        if len(w) == 0:
            return 0.0
        return float(max(abs(w[tmap[i + 1] - 1] - np.conj(w[i])) for i in range(len(w))))

    @property
    def is_hermitian(self) -> bool:
        return self.hermiticity_residual <= HERMITIAN_TOL


def walk_spec(base: AssociationScheme, copies: int, weights) -> WalkSpec:
    weights = np.asarray(weights, dtype=complex)
    if weights.shape != (base.d,):
        raise ValueError(f"expected {base.d} weights, got {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if copies < 0:
        raise ValueError("copies must be non-negative")
    weights.setflags(write=False)
    spec = WalkSpec(base=base, copies=copies, weights=weights)
    if not spec.is_hermitian:
        warnings.warn("weights are not Hermitian; evolution will not be unitary", stacklevel=2)
    return spec


def canonical_ngon_weights(n: int) -> np.ndarray:
    """w_j = 1/(zeta^-j - 1): the Hermitian couplings whose walk hops among
    the extreme classes of the n-gon power scheme at times 2*pi*k/n.

    The pairing w_{n-j} = conj(w_j) is enforced bitwise so that specs built
    from these weights are Hermitian exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    w = np.zeros(n - 1, dtype=complex)
    for j in range(1, n):
        if n - j < j:
            w[j - 1] = np.conj(w[n - j - 1])
        else:
            w[j - 1] = 1.0 / (unit_root(-j, n) - 1.0)
    return w


def _one_copy_spectrum(spec: WalkSpec) -> np.ndarray:
    """theta_j = sum_i w_i P[j,i]: the one-copy Hamiltonian's eigenvalue on
    the base idempotent j, for j = 0..d."""
    return spec.base.first_eigenmatrix[:, 1:] @ spec.weights


def _coupling_rates(spec: WalkSpec) -> np.ndarray:
    """mu_l = theta_0 - theta_l = sum_i w_i k_i (1 - c_{l,i}) for l = 1..d.

    The rows of P are subtracted before the product: subtracting theta
    values instead moves every amplitude in the last bits.
    """
    P = spec.base.first_eigenmatrix[:, 1:]
    return (P[0] - P[1:]) @ spec.weights


def eigenvalue_lambda(spec: WalkSpec, alpha) -> complex:
    """Eigenvalue of the Hamiltonian on the idempotent labelled by alpha."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != spec.base.classes or sum(alpha) != spec.copies or min(alpha) < 0:
        raise ValueError(f"{alpha} is not a valid index for this walk")
    return complex(np.dot(alpha, _one_copy_spectrum(spec)))


def z_factors(spec: WalkSpec, t: float) -> np.ndarray:
    """Unit phases z_l(t) = exp(i t mu_l), one per nontrivial idempotent."""
    return np.exp(1j * t * _coupling_rates(spec))


def site_factors(spec: WalkSpec, t: float) -> np.ndarray:
    """p_k(t) = 1 + sum_l conj(c_{l,k}) m_l z_l(t) for k = 0..d.

    Whenever p_k vanishes, every class with beta_k > 0 carries zero
    amplitude at time t.
    """
    z = z_factors(spec, t)
    C = spec.base.cosine
    m = spec.base.multiplicities.astype(float)
    if spec.base.d == 0:
        return np.ones(1, dtype=complex)
    return 1.0 + np.conj(C[1:, :]).T @ (m[1:] * z)


@dataclasses.dataclass(frozen=True, eq=False)
class AmplitudeProfile:
    """Closed-form amplitudes at one time, in three views.

    ``coefficients`` maps beta to f_beta(t); ``site_amplitudes`` to
    f_beta * sqrt(k_beta) (the amplitude on the normalized class state);
    ``class_probabilities`` to k_beta |f_beta|^2.
    """

    time: float
    coefficients: dict
    site_amplitudes: dict
    class_probabilities: dict
    hermitian: bool

    def total_probability(self) -> float:
        return float(sum(self.class_probabilities.values()))


def _amplitude_rows(spec: WalkSpec, times) -> tuple:
    """The class table and the T x D array of f_beta(times[i]) = prefactor *
    prod_k p_k^beta_k (k = 0..d in turn, p_k^0 skipped), row i per time.

    Site factors and prefactors are formed one time at a time; the powers
    p_k^0..p_k^N of every site and time are formed at once, and each site's
    are gathered by the table's exponent column.
    """
    table = class_table(spec.base, spec.copies)
    sizeN = float(spec.base.size) ** spec.copies
    theta0 = complex(_one_copy_spectrum(spec)[0])
    p = np.empty((spec.base.classes, len(times)), dtype=complex)
    f = np.empty((len(times), len(table.order)), dtype=complex)
    for i, t in enumerate(times):
        p[:, i] = site_factors(spec, t)
        f[i] = np.exp(-1j * t * spec.copies * theta0) / sizeN
    powers = p[:, :, None] ** np.arange(spec.copies + 1)  # [k, i, e] = p_k(times[i])^e
    for pk, exponents, used in zip(powers, table.index.T, table.index.T > 0):
        np.multiply(f, pk[:, exponents], out=f, where=used)
    return table, f


def amplitudes(spec: WalkSpec, t: float) -> AmplitudeProfile:
    """The profile at one time: the one row of ``_amplitude_rows(spec, [t])``."""
    table, (f,) = _amplitude_rows(spec, (t,))
    return AmplitudeProfile(
        time=float(t),
        coefficients=dict(zip(table.order, f.tolist())),
        site_amplitudes=dict(zip(table.order, (f * np.sqrt(table.valency)).tolist())),
        class_probabilities=dict(zip(table.order, (table.valency * np.abs(f) ** 2).tolist())),
        hermitian=spec.is_hermitian,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class WeightSolution:
    weights: np.ndarray
    hermiticity_residual: float
    roundtrip_residual: float


def solve_weights(scheme: AssociationScheme, t: float, target_args) -> WeightSolution:
    """Solve for couplings realizing z_l(t) = exp(i * target_args[l-1]).

    The phases are taken literally (no branch reduction), so targets that
    are nonzero multiples of 2*pi yield nontrivial couplings with trivial
    phases.  Solutions are unique only up to adding 2*pi/t to any phase.
    """
    if t == 0:
        raise ValueError("t must be nonzero")
    target_args = np.asarray(target_args, dtype=float)
    if not (math.isfinite(t) and np.isfinite(target_args).all()):
        raise ValueError("t and the target phases must be finite")
    d = scheme.d
    if target_args.shape != (d,):
        raise ValueError(f"expected {d} target phases, got {target_args.shape}")
    if d == 0:
        return WeightSolution(np.zeros(0, dtype=complex), 0.0, 0.0)

    P = scheme.first_eigenmatrix
    system = P[0, 1:][np.newaxis, :] - P[1:, 1:]
    w = np.linalg.solve(system, target_args / t)

    spec = WalkSpec(base=scheme, copies=1, weights=w)
    z = z_factors(spec, t)
    roundtrip = float(np.abs(z - np.exp(1j * target_args)).max())
    if not roundtrip <= 1e-9:  # NaN fails too
        raise ValueError(f"weight solution failed to reproduce targets (residual {roundtrip:.3e})")
    return WeightSolution(
        weights=w,
        hermiticity_residual=spec.hermiticity_residual,
        roundtrip_residual=roundtrip,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class ProjectedMatrix:
    """Matrix of the Hamiltonian on the orthonormal class-representative
    states, rows indexed by the source class and columns by the target.

    ``one_body`` is the (d+1)x(d+1) one-copy matrix h (the projected matrix
    at N = 1); ``entries`` is its bosonic one-body lift to N copies, built
    on first access.
    """

    table: ClassTable
    one_body: np.ndarray

    @property
    def order(self) -> tuple:
        return self.table.order

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """Diagonal sum_j beta_j h[j,j]; for a move of one unit from slot s
        to slot t, sqrt(beta_s (beta_t + 1)) h[s,t]."""
        h, pos = self.one_body, self.table.position
        B = np.diag(np.array([sum(b * h[j, j] for j, b in enumerate(beta)) for beta in self.order],
                             dtype=complex))
        for r, beta in enumerate(self.order):
            for s, t in itertools.permutations(range(len(beta)), 2):
                if beta[s]:
                    gamma = list(beta)
                    gamma[s] -= 1
                    gamma[t] += 1
                    B[r, pos[tuple(gamma)]] = math.sqrt(beta[s] * (beta[t] + 1)) * h[s, t]
        return B

    @property
    def hermiticity_residual(self) -> float:
        """max |B - B^dagger|, read off h: the lift scales the off-diagonal
        defects of h by at most max_x sqrt(x (N - x + 1)), the diagonal by N."""
        N = sum(self.order[0])
        x = (N + 1) // 2
        scale = np.full(self.one_body.shape, math.sqrt(x * (N - x + 1)))
        np.fill_diagonal(scale, N)
        return float((scale * np.abs(self.one_body - self.one_body.conj().T)).max())


def projected_matrix(spec: WalkSpec) -> ProjectedMatrix:
    """The projected matrix of ``spec``, held as the one-copy matrix
    h[s,t] = sqrt(k_t / k_s) sum_i w_i p[i,s,t] and lifted on demand.

    The valency ratio drops out when all base valencies are equal; in
    general it is forced by the normalization of the class states, and with
    it Hermitian couplings yield a Hermitian matrix.
    """
    kv = spec.base.valencies.astype(float)
    ratio = np.sqrt(kv[np.newaxis, :] / kv[:, np.newaxis])
    h = np.zeros((spec.base.classes,) * 2, dtype=complex)
    for w, p in zip(spec.weights, spec.base.intersection[1:]):
        h += w * p * ratio
    return ProjectedMatrix(table=class_table(spec.base, spec.copies), one_body=h)


def evolve_projected(pm: ProjectedMatrix, t: float, start) -> np.ndarray:
    """Apply exp(-i t H) to the basis state at ``start``, where H is the
    generator read off the projected matrix; spectral decomposition, so the
    input must be Hermitian.

    H is the one-body lift of h = ``pm.one_body``, so exp(-i t H) is the
    N-th symmetric power of exp(-i t h): only h is diagonalized, and the
    coefficient of x^gamma in the row ``start`` of that power, times
    sqrt(gamma! / start!) = sqrt(multinomial(N; start) / multinomial(N; gamma)),
    is the amplitude on the class state gamma.
    """
    if pm.hermiticity_residual > 1e-9:
        raise ValueError("projected matrix is not Hermitian")
    start = tuple(int(b) for b in start)
    if start not in pm.table.position:
        raise ValueError(f"{start} is not an index of this projected matrix")
    vals, vecs = np.linalg.eigh(pm.one_body)
    row = symmetric_power_row((vecs * np.exp(-1j * t * vals)) @ vecs.conj().T, start)
    scale = np.sqrt(pm.table.multinomial[pm.table.position[start]] / pm.table.multinomial)
    return np.array([row[g] for g in pm.order]) * scale
