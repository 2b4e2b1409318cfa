"""Walk Hamiltonians on power schemes: spectra, closed-form amplitudes,
weight solving, and the projected matrix on the class-representative basis.

The Hamiltonian couples the start vertex to the classes that perturb a
single tensor slot, with one complex weight per base class.  Amplitudes are
evaluated through a product formula whose factors are phase sums over the
base idempotents; no matrix of the full power scheme is ever formed here.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .extension import (
    class_valency,
    enumerate_indices,
    extension_scheme,
    multinomial,
    symmetric_power_row,
)
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
        warnings.warn(
            "weights are not Hermitian; evolution will not be unitary",
            stacklevel=2,
        )
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


def _total_rate(spec: WalkSpec) -> complex:
    return complex(_one_copy_spectrum(spec)[0])


def eigenvalue_lambda(spec: WalkSpec, alpha) -> complex:
    """Eigenvalue of the Hamiltonian on the idempotent labelled by alpha."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != spec.base.classes or sum(alpha) != spec.copies:
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


def amplitudes(spec: WalkSpec, t: float) -> AmplitudeProfile:
    """Evaluate f_beta(t) for every class of the power scheme."""
    ext = extension_scheme(spec.base, spec.copies)
    p = site_factors(spec, t)
    sizeN = float(spec.base.size) ** spec.copies
    prefactor = np.exp(-1j * t * spec.copies * _total_rate(spec)) / sizeN

    coeffs = {}
    sites = {}
    probs = {}
    for beta in ext.index_set:
        f = prefactor
        for k, bk in enumerate(beta):
            if bk:
                f = f * p[k] ** bk
        kb = float(class_valency(ext, beta))
        coeffs[beta] = complex(f)
        sites[beta] = complex(f * math.sqrt(kb))
        probs[beta] = float(kb * abs(f) ** 2)
    return AmplitudeProfile(
        time=float(t),
        coefficients=coeffs,
        site_amplitudes=sites,
        class_probabilities=probs,
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
    if roundtrip > 1e-9:
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
    at N = 1); ``entries`` is its bosonic one-body lift to N copies.
    """

    order: tuple
    entries: np.ndarray
    one_body: np.ndarray

    @property
    def hermiticity_residual(self) -> float:
        return float(np.abs(self.entries - self.entries.conj().T).max())


def projected_matrix(spec: WalkSpec) -> ProjectedMatrix:
    """Entries: one-copy matrix h[s,t] = sqrt(k_t / k_s) sum_i w_i p[i,s,t];
    diagonal sum_j beta_j h[j,j]; for a move of one unit from slot s to
    slot t, sqrt(beta_s (beta_t + 1)) h[s,t].

    The valency ratio drops out when all base valencies are equal; in
    general it is forced by the normalization of the class states, and with
    it Hermitian couplings yield a Hermitian matrix.
    """
    order = tuple(enumerate_indices(spec.copies, spec.base.d))
    pos = {beta: i for i, beta in enumerate(order)}
    ptensor = spec.base.intersection
    nc = spec.base.classes
    w = spec.weights
    kv = spec.base.valencies.astype(float)

    h = np.zeros((nc, nc), dtype=complex)
    for i in range(1, nc):
        for j in range(nc):
            for k in range(nc):
                h[j, k] += w[i - 1] * ptensor[i, j, k] * math.sqrt(kv[k] / kv[j])

    B = np.zeros((len(order), len(order)), dtype=complex)
    for beta in order:
        r = pos[beta]
        B[r, r] = sum(beta[j] * h[j, j] for j in range(nc))
        for s in range(nc):
            if beta[s] == 0:
                continue
            for t in range(nc):
                if s == t:
                    continue
                gamma = list(beta)
                gamma[s] -= 1
                gamma[t] += 1
                c = pos[tuple(gamma)]
                B[r, c] = math.sqrt(beta[s] * (beta[t] + 1)) * h[s, t]
    return ProjectedMatrix(order=order, entries=B, one_body=h)


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
    if start not in pm.order:
        raise ValueError(f"{start} is not an index of this projected matrix")
    vals, vecs = np.linalg.eigh(pm.one_body)
    row = symmetric_power_row((vecs * np.exp(-1j * t * vals)) @ vecs.conj().T, start)
    N = sum(start)
    top = multinomial(N, start)
    return np.array([row[g] * math.sqrt(top / multinomial(N, g)) for g in pm.order])
