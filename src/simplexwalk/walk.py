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
import math
import warnings

import numpy as np

from .extension import ExtensionScheme, _composition, _rank, _symmetric_power_state, extension_scheme
from .schemes import AssociationScheme, _integers, unit_root

HERMITIAN_TOL = 1e-12


@dataclasses.dataclass(frozen=True, eq=False)
class WalkSpec:
    """Base scheme, number of copies, and the coupling weights w_1..w_d."""

    base: AssociationScheme
    copies: int
    weights: np.ndarray

    def __post_init__(self):
        """Check the fields and hold the weights as a read-only complex copy."""
        weights = np.array(self.weights, dtype=complex)
        if weights.shape != (self.base.d,):
            raise ValueError(f"expected {self.base.d} weights, got {weights.shape}")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        (copies,) = _integers((self.copies,), "copies")
        if copies < 0:
            raise ValueError("copies must be non-negative")
        weights.setflags(write=False)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "weights", weights)

    @functools.cached_property
    def table(self) -> ExtensionScheme:
        """The N-th power scheme with its class table, built on first use."""
        return extension_scheme(self.base, self.copies)

    @functools.cached_property
    def _one_body(self) -> np.ndarray:
        """h[s,t] = sqrt(k_t / k_s) sum_i w_i p[i,s,t], summed once and held
        read-only: what ``projected_matrix`` reads of the spec."""
        kv = self.base.valencies.astype(float)
        ratio = np.sqrt(kv[np.newaxis, :] / kv[:, np.newaxis])
        h = np.zeros((self.base.classes,) * 2, dtype=complex)
        for w, p in zip(self.weights, self.base.intersection[1:]):
            h += w * p * ratio
        h.setflags(write=False)
        return h

    @functools.cached_property
    def _site_terms(self) -> tuple:
        """mu_l = theta_0 - theta_l = sum_i w_i k_i (1 - c_{l,i}), i mu_l, m_l
        as complex and the columns conj(c_{l,k}), l = 1..d: what z_l(t) and
        p_k(t) read of the spec.  The rows of P are subtracted before the
        product: subtracting theta values instead moves every amplitude in
        the last bits."""
        P = self.base.first_eigenmatrix[:, 1:]
        mu = (P[0] - P[1:]) @ self.weights
        m = self.base.multiplicities[1:].astype(complex)
        return mu, 1j * mu, m, np.conj(self.base.cosine[1:, :]).T

    @functools.cached_property
    def _jet_terms(self) -> np.ndarray:
        """The columns conj(c_{l,k}) scaled by m_l (i mu_l)^j for j = 0, 1, 2,
        stacked into 3(d+1) rows: what p_k(t) and its first two derivatives
        read of the spec."""
        _, i_mu, m, conj_cosine = self._site_terms
        return np.vstack([conj_cosine * m, conj_cosine * (i_mu * m), conj_cosine * (i_mu * i_mu * m)])

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
    """``WalkSpec(base, copies, weights)``, with a warning when the weights
    are not Hermitian."""
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
    (n,) = _integers((n,), "n")
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


def eigenvalue_lambda(spec: WalkSpec, alpha) -> complex:
    """Eigenvalue of the Hamiltonian on the idempotent labelled by alpha."""
    alpha = _composition(alpha, spec.copies, spec.base.classes)
    return complex(np.dot(alpha, _one_copy_spectrum(spec)))


def z_factors(spec: WalkSpec, t: float) -> np.ndarray:
    """Unit phases z_l(t) = exp(i t mu_l), one per nontrivial idempotent."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return np.exp(1j * t * spec._site_terms[0])


def _finite_times(times) -> np.ndarray:
    """``times`` as a float array; ValueError unless it is a one-dimensional
    grid of finite real numbers (a complex grid is refused, not truncated)."""
    grid = np.asarray(times)
    if grid.ndim != 1 or grid.dtype.kind not in "iuf":
        raise ValueError(f"time grid must be a one-dimensional sequence of real numbers, "
                         f"got a {grid.dtype} array of shape {grid.shape}")
    grid = grid.astype(float)
    if not np.isfinite(grid).all():
        raise ValueError("time grid must be finite")
    return grid


def _site_factor_rows(spec: WalkSpec, times) -> np.ndarray:
    """The T x (d+1) array of p_k(times[i]), row i per time: one stacked
    matrix-vector product per time, as one 2-D product over all times
    moves the last bits of p_k.  With i mu and m held as complex, the
    float times are the one operand cast, inside the outer product; the
    bytes are those of m * exp(1j * t * mu) on float m."""
    _, i_mu, m, conj_cosine = spec._site_terms
    mz = m * np.exp(np.multiply.outer(np.asarray(times, dtype=float), i_mu))
    return 1.0 + np.matmul(conj_cosine, mz[:, :, None])[..., 0]


def _site_factor_jets(spec: WalkSpec, times) -> np.ndarray:
    """The T x 3 x (d+1) array of p_k, p_k' and p_k'' at each of ``times``:
    the j-th derivative of p_k(t) = 1 + sum_l conj(c_{l,k}) m_l z_l(t) takes
    the factor (i mu_l)^j into each term, and all three come from one
    stacked matrix-vector product per time, so no row depends on the other
    times."""
    z = np.exp(np.multiply.outer(np.asarray(times, dtype=float), spec._site_terms[1]))
    jets = np.matmul(spec._jet_terms, z[:, :, None]).reshape(len(z), 3, spec.base.classes)
    jets[:, 0] += 1.0
    return jets


def site_factors(spec: WalkSpec, t: float) -> np.ndarray:
    """p_k(t) = 1 + sum_l conj(c_{l,k}) m_l z_l(t) for k = 0..d: the one
    row of ``_site_factor_rows(spec, [t])``.

    Whenever p_k vanishes, every class with beta_k > 0 carries zero
    amplitude at time t.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return _site_factor_rows(spec, [t])[0]


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

    The site factors come from one ``_site_factor_rows`` call, and the
    products from one ``ExtensionScheme.monomials`` call over every time.
    ``times`` must pass ``_finite_times``, the grid rule of ``detect.scan``.
    """
    times = _finite_times(times)
    table = spec.table
    theta0 = complex(_one_copy_spectrum(spec)[0])
    prefactor = np.exp(-1j * times * spec.copies * theta0) / float(spec.base.size) ** spec.copies
    f = np.repeat(prefactor[:, None], table.dimension, axis=1)
    return table, table.monomials(_site_factor_rows(spec, times), f)


def amplitudes(spec: WalkSpec, t: float) -> AmplitudeProfile:
    """The profile at one time: the one row of ``_amplitude_rows(spec, [t])``."""
    table, (f,) = _amplitude_rows(spec, (t,))
    return AmplitudeProfile(
        time=float(t),
        coefficients=dict(zip(table.index_set, f.tolist())),
        site_amplitudes=dict(zip(table.index_set, (f * np.sqrt(table.valency)).tolist())),
        class_probabilities=dict(zip(table.index_set, (table.valency * np.abs(f) ** 2).tolist())),
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

    table: ExtensionScheme
    one_body: np.ndarray

    @property
    def order(self) -> tuple:
        return self.table.index_set

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """Diagonal sum_j beta_j h[j,j], added slot by slot (a numpy row sum
        adds in blocks from 9 slots on, which rounds differently); for a
        move of one unit from slot s to slot t, sqrt(beta_s (beta_t + 1))
        h[s,t] at the column of beta - e_s + e_t, every class and ordered
        slot pair scattered at once."""
        h, index, slots = self.one_body, self.table.index, np.arange(len(self.one_body))
        B = np.diag(sum(index[:, j] * h[j, j] for j in slots))
        r, s, t = np.nonzero(index[:, :, None] * (slots[:, None] != slots))
        gamma = index[r] - (slots == s[:, None]) + (slots == t[:, None])
        B[r, _rank(gamma, self.table.copies)] = np.sqrt(index[r, s] * (index[r, t] + 1)) * h[s, t]
        return B

    @property
    def hermiticity_residual(self) -> float:
        """max |B - B^dagger|, read off h: the lift scales the off-diagonal
        defects of h by at most max_x sqrt(x (N - x + 1)), the diagonal by N."""
        N = self.table.copies
        x = (N + 1) // 2
        scale = np.full(self.one_body.shape, math.sqrt(x * (N - x + 1)))
        np.fill_diagonal(scale, N)
        return float((scale * np.abs(self.one_body - self.one_body.conj().T)).max())


def projected_matrix(spec: WalkSpec) -> ProjectedMatrix:
    """The projected matrix of ``spec``, held as the one-copy matrix
    h[s,t] = sqrt(k_t / k_s) sum_i w_i p[i,s,t] and lifted on demand; h is
    summed once per spec and shared read-only (``WalkSpec._one_body``).

    The valency ratio drops out when all base valencies are equal; in
    general it is forced by the normalization of the class states, and with
    it Hermitian couplings yield a Hermitian matrix.
    """
    return ProjectedMatrix(table=spec.table, one_body=spec._one_body)


def evolve_projected(pm: ProjectedMatrix, t: float, start) -> np.ndarray:
    """Apply exp(-i t H) to the basis state at ``start``, where H is the
    generator read off the projected matrix; spectral decomposition, so the
    input must be Hermitian.

    H is the one-body lift of h = ``pm.one_body``, so exp(-i t H) is the
    N-th symmetric power of the unitary exp(-i t h): only h is
    diagonalized, and the state is that power applied to ``start`` on the
    normalised class states (``extension._symmetric_power_state``).
    """
    if pm.hermiticity_residual > 1e-9:
        raise ValueError("projected matrix is not Hermitian")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    start = _composition(start, pm.table.copies, pm.table.base.classes)
    vals, vecs = np.linalg.eigh(pm.one_body)
    return _symmetric_power_state((vecs * np.exp(-1j * t * vals)) @ vecs.conj().T, start, pm.table)
