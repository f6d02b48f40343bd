"""Truncated Floquet operators, their spectra from the secular equation, and
dynamics.

The one-period operator of a rank-N kicked system decomposes as
V = U + sum_k R_k with R_k = (e^{i lambda_k/hbar} - 1) |psi_k><psi_k| U and
U the diagonal unperturbed evolution.  Each R_k has a single nonzero singular
value |e^{i lambda_k/hbar} - 1| = sqrt(2(1 - cos lambda_k/hbar)), so the
perturbation is trace class with an explicitly checkable norm.

The kick factor is always e^{+i lambda_k/hbar}: the sign of the physics
lives in the signed strengths lambda_k alone.  The product form
exp(-i lambda P/hbar) U used elsewhere in the kicked-evolution literature is
the same operator at lambda -> -lambda, since exp(-i lambda P/hbar) =
I + (e^{-i lambda/hbar} - 1) P for a projector P.

Nothing here factorises a dense matrix.  When the kick states have pairwise
disjoint supports, V is a direct sum of rank-1 problems plus untouched basis
states.  The eigenphases of each rank-1 block are the roots of the cotangent
secular equation sum_n |a_n|^2 cot((x - theta_n)/2) = cot(lambda/(2 hbar)),
one in each gap between the weighted poles theta_n.  The spectral weights
are those of the operator's own kick states: state k's point masses
B(x)/sin^2(lambda_k/(2 hbar)) at the roots of its block.  A block is built
from its poles' unit phases and weights alone.  Roots are found in the
offset from the nearer pole (Bunch, Nielsen and Sorensen 1978; Gragg and
Reichel 1990 for the unitary case), O(dim^2) per block, with the secular
sums of ``spectral._secular_sums``, the kernel that ``cotangent_residual``
shares.  Dynamics apply V matrix-free, O(dim * N) per kick.  Operators
stop at dim 4096, where the rounding floor of ``max_secular_residual``
reaches 2.7e-5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EnsembleError,
    ProvenanceError,
    ResourceLimitError,
    ToleranceError,
)
from .spectral import (
    BaseSpectrum,
    KickEnsemble,
    KickState,
    ThetaSequence,
    _distinct_poles,
    _kick_cot,
    _kick_sine,
    _secular_sums,
    alpha_sequence,
    point_mass,
    theta_sequence,
)

__all__ = [
    "MAX_DIM",
    "MAX_KICKS",
    "FloquetMatrix",
    "EigenDecomposition",
    "DynamicsTrace",
    "build_floquet",
    "truncate_state",
    "perturbation_trace_norm",
    "eigen_decompose",
    "evolve",
    "wiener_average",
]

# Not a cost limit: the secular residual that ``spectrum`` reports, taken at
# the float-rounded eigenphase, has a rounding floor |f'(x)| ulp(x) / 2 that
# reads 8.9e-7 at dim 1024 and 2.7e-5 at dim 4096.
MAX_DIM = 4096
MAX_KICKS = 10**7
UNITARITY_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-10
TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(np.float64).eps)
# A root is accepted once |f| is within this many ulps of the sum of the
# magnitudes of its terms, the rounding error of evaluating f itself.
_RESIDUAL_ULPS = 8.0
_MAX_ITERATIONS = 100
# Complex elements per block of recorded states in evolve (4 MB).
_RECORD_ELEMENTS = 1 << 18


# Dataclasses holding arrays take eq=False and so compare and hash by
# identity: a generated __eq__ or __hash__ over an array field raises.
@dataclass(frozen=True, eq=False)
class FloquetMatrix:
    """Truncated Floquet operator V = (I + sum_k mu_k P_k) U by its parts.

    ``ensemble`` holds the kick states truncated to ``dim`` = len(theta).
    Everything else is derived: ``u`` = e^{i theta}, ``kick_phases[k]`` =
    lambda_k/hbar and ``mu``.
    """

    spectrum: BaseSpectrum
    ensemble: KickEnsemble
    theta: ThetaSequence
    unitarity_defect: float

    @property
    def dim(self) -> int:
        return len(self.theta)

    @cached_property
    def u(self) -> np.ndarray:
        """The diagonal e^{i theta_n} of U, read-only."""
        u = np.exp(1j * self.theta.values)
        u.setflags(write=False)
        return u

    @property
    def kick_phases(self) -> tuple[float, ...]:
        """The signed kick phases lambda_k/hbar."""
        return tuple(s / self.spectrum.hbar for s in self.ensemble.strengths)

    @property
    def mu(self) -> np.ndarray:
        """Kick factors mu_k = e^{i kick_phases[k]} - 1."""
        return _kick_factors(self.kick_phases)


def _kick_factors(kick_phases) -> np.ndarray:
    return np.exp(1j * np.asarray(kick_phases, dtype=float)) - 1.0


def _check_dim(dim: int) -> None:
    """Raise ResourceLimitError for a dim above MAX_DIM, before anything of
    that size is built."""
    if dim > MAX_DIM:
        raise ResourceLimitError(f"dim = {dim} exceeds the dense limit {MAX_DIM}")


def truncate_state(state: KickState, dim: int) -> KickState:
    """Fit a kick state to ``dim`` coefficients: cut or zero-pad, renormalise."""
    if state.dim == dim:
        return state
    if state.dim < dim:
        coeffs = np.zeros(dim, dtype=np.complex128)
        coeffs[: state.dim] = state.coefficients
        return KickState(coefficients=coeffs, gamma=state.gamma)
    coeffs = np.array(state.coefficients[:dim])
    kept = float(np.sum(np.abs(coeffs) ** 2))
    if kept <= 0.0:
        raise EnsembleError("truncation removed all of the state's weight")
    coeffs /= math.sqrt(kept)
    return KickState(coefficients=coeffs, gamma=state.gamma)


def perturbation_trace_norm(lambda_over_hbar: float) -> float:
    """sqrt(2(1 - cos lambda/hbar)) = |e^{i lambda/hbar} - 1|.

    The single nonzero singular value of R_k, hence its trace norm.
    """
    return math.sqrt(max(0.0, 2.0 * (1.0 - math.cos(lambda_over_hbar))))


def build_floquet(spec: BaseSpectrum, ensemble: KickEnsemble,
                  dim: int) -> FloquetMatrix:
    """Assemble the dim-truncated Floquet operator V for the given kicks.

    U = diag(e^{i theta_n}) carries the unperturbed eigenphases; the kick
    factor is I + sum_k (e^{i lambda_k/hbar} - 1) P_k applied from the left.
    A negative strength gives the product form exp(-i |lambda| P/hbar) U.
    A no-op kick (``spectral._kick_sine``) raises TrivialPerturbationError
    before any work.  Ensemble states are truncated and renormalised to
    ``dim`` first; the ensemble must stay orthonormal after that cut.  When
    no state changes, the given ensemble is kept as it is.

    V is unitary exactly when every |1 + mu_k| = 1 and the truncated states
    are orthonormal, so ``unitarity_defect`` is the largest deviation from
    either condition; the ensemble measured the second when it was built.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    _check_dim(dim)
    kick_phases = tuple(s / spec.hbar for s in ensemble.strengths)
    for strength, phase in zip(ensemble.strengths, kick_phases):
        if not math.isfinite(phase):
            raise ValueError(f"kick strength {strength} with hbar {spec.hbar} "
                             "gives a non-finite phase lambda/hbar")
        _kick_sine(phase)

    theta = theta_sequence(spec, dim)
    states = tuple(truncate_state(s, dim) for s in ensemble.states)
    if any(cut is not s for cut, s in zip(states, ensemble.states)):
        ensemble = KickEnsemble(states=states, strengths=ensemble.strengths)

    mu = _kick_factors(kick_phases)
    defect = max((abs(abs(1.0 + mu_k) - 1.0) for mu_k in mu), default=0.0)
    return FloquetMatrix(spectrum=spec, ensemble=ensemble, theta=theta,
                         unitarity_defect=max(defect, ensemble.gram_defect))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Sorted eigenphases of V with the spectral weights of its kick states.

    weights[k, i] is the point mass of kick state k at eigenphase i,
    |<psi_k | v_i>|**2 for an orthonormal eigenbasis v_i of V, so each row
    sums to 1.  It is nonzero only at the roots of state k's own block.
    """

    eigenphases: np.ndarray
    weights: np.ndarray
    source: FloquetMatrix

    def point_mass_sum(self, k: int) -> float:
        """sum_i w_{k,i}**2, the Wiener limit of the survival time average."""
        return float(np.sum(self.weights[k] ** 2))


def _secular_block(unit: np.ndarray, weights: np.ndarray,
                   kick_phase: float) -> tuple[np.ndarray, np.ndarray]:
    """One rank-1 block (I + mu |a><a|) U from the unit phases and weights
    |a_n|**2 of its support: its eigenphases, the roots and then the
    deflated phases, and the point masses of its own kick state at them.

    Exactly coincident poles are deflated: each extra copy of a pole stays
    an eigenphase with no weight on the state, and the group's merged weight
    enters the secular sum, which has one root in each gap between the
    distinct poles.  The secular function f decreases from +inf to -inf
    across a gap.  Its sign at the midpoint picks the nearer pole as the
    origin, and the root is solved as origin plus an offset tau, so
    distances to nearby poles are known without cancellation: a safeguarded
    Newton iteration in y = cot(tau/2) models the origin's term w_o * y
    exactly and the other poles to first order, bisecting when a step would
    leave the bracket or the last one failed to halve |f|.  A root is
    accepted on a residual test: |f| within rounding of its terms.
    """
    poles, weights, _, counts = _distinct_poles(unit, weights)
    cot_kick = _kick_cot(kick_phase)
    m = poles.size
    gap = np.empty(m)
    gap[:-1] = np.diff(poles)
    gap[-1] = (poles[0] - poles[-1]) + 1.0  # wraps past 2*pi
    left = np.arange(m)
    right = (left + 1) % m
    mid = math.pi * gap
    f_mid = _secular_sums(poles, weights, left, mid)[0] - cot_kick
    f_mid += weights / np.tan(0.5 * mid)
    toward_right = f_mid > 0.0
    origin = np.where(toward_right, right, left)
    sign = np.where(toward_right, -1.0, 1.0)
    w_o = weights[origin]
    lo = np.where(toward_right, -mid, 0.0)
    hi = np.where(toward_right, 0.0, mid)
    tau = sign * mid
    b_inverse = np.empty(m)
    last_f = np.full(m, np.inf)
    newton = np.zeros(m, dtype=bool)
    active = np.arange(m)
    for _ in range(_MAX_ITERATIONS):
        t = tau[active]
        o = origin[active]
        psi, scale, b_other = _secular_sums(poles, weights, o, t)
        psi -= cot_kick
        scale += abs(cot_kick)
        s = np.sin(0.5 * t)
        y = np.cos(0.5 * t) / s
        f = w_o[active] * y + psi
        b_inverse[active] = w_o[active] / (s * s) + b_other
        done = np.abs(f) <= _RESIDUAL_ULPS * _EPS * (
            scale + w_o[active] * np.abs(y))
        # f decreases in tau: a positive value puts the root above t
        lo[active] = np.where(f > 0.0, t, lo[active])
        hi[active] = np.where(f > 0.0, hi[active], t)
        width = hi[active] - lo[active]
        done |= width <= 2.0 * _EPS * np.maximum(np.abs(lo[active]),
                                                 np.abs(hi[active]))
        slow = np.abs(f) > 0.5 * last_f[active]
        last_f[active] = np.abs(f)
        # Newton in y: df/dy = w_o + sin^2(tau/2) * b_other
        y_new = y - f / (w_o[active] + s * s * b_other)
        sg = sign[active]
        step = sg * 2.0 * np.arctan2(1.0, sg * y_new)
        inside = (step > lo[active]) & (step < hi[active])
        use_newton = inside & ~(newton[active] & slow)
        newton[active] = use_newton
        tau[active] = np.where(use_newton, step,
                               0.5 * (lo[active] + hi[active]))
        tau[active[done]] = t[done]
        active = active[~done]
        if active.size == 0:
            x = TWO_PI * poles[origin] + tau
            x = np.where(x < 0.0, x + TWO_PI, x)
            x = np.where(x >= TWO_PI, x - TWO_PI, x)
            masses = np.zeros(unit.size)
            masses[:m] = point_mass(kick_phase, b_inverse)
            return np.r_[x, TWO_PI * np.repeat(poles, counts - 1)], masses
    raise ToleranceError(
        f"secular iteration left {active.size} roots unconverged after "
        f"{_MAX_ITERATIONS} steps")


def eigen_decompose(matrix: FloquetMatrix) -> EigenDecomposition:
    """Eigenphases of V and the spectral weights of its kick states.

    A state's support is where its weight |a_n|**2 is positive, so a
    coefficient whose square underflows is no pole.  Kick states must have
    pairwise disjoint supports (EnsembleError otherwise); V is then a direct
    sum of rank-1 blocks, solved through the cotangent secular equation, and
    of the basis states e_n outside every support, which keep the phase
    theta_n.  The weights of kick state k are its point masses
    B(x)/sin^2(lambda_k/(2 hbar)) at the roots of its block; each row must sum
    to 1 within WEIGHT_SUM_TOL, else ToleranceError.
    """
    if matrix.unitarity_defect > UNITARITY_TOL * matrix.dim:
        raise ToleranceError("input matrix is not unitary to tolerance")
    state_weights = [s.weights() for s in matrix.ensemble.states]
    supports = [np.flatnonzero(w > 0.0) for w in state_weights]
    touched = np.bincount(np.concatenate([np.zeros(0, np.int64), *supports]),
                          minlength=matrix.dim)
    if np.any(touched > 1):
        raise EnsembleError(
            "kick states share basis index "
            f"{int(np.flatnonzero(touched > 1)[0])}; the secular solver "
            "needs pairwise disjoint supports")
    blocks = [_secular_block(matrix.theta.unit_values[support], w[support],
                             phase)
              for support, w, phase in zip(supports, state_weights,
                                           matrix.kick_phases)]
    bare = np.flatnonzero(touched == 0)
    phases = np.concatenate([matrix.theta.values[bare]]
                            + [part for part, _ in blocks])
    weights = np.zeros((len(blocks), phases.size))
    offset = bare.size
    for k, (part, masses) in enumerate(blocks):
        weights[k, offset:offset + part.size] = masses
        offset += part.size
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    weights = weights[:, order]
    sums_defect = np.abs(weights.sum(axis=1) - 1.0)
    if sums_defect.size and float(sums_defect.max()) > WEIGHT_SUM_TOL:
        raise ToleranceError(
            f"spectral weights sum to 1 only within "
            f"{float(sums_defect.max()):.3e} > {WEIGHT_SUM_TOL:.0e}")
    phases.setflags(write=False)
    weights.setflags(write=False)
    return EigenDecomposition(eigenphases=phases, weights=weights,
                              source=matrix)


@dataclass(frozen=True, eq=False)
class DynamicsTrace:
    """Per-kick survival amplitudes c_n = <psi|V^n|psi> and energies <H0>_n."""

    amplitudes: np.ndarray
    energies: np.ndarray
    source: FloquetMatrix
    state: KickState

    @property
    def n_kicks(self) -> int:
        return int(self.amplitudes.size) - 1

    def survival(self) -> np.ndarray:
        """|c_n|**2 for n = 0..n_kicks."""
        return np.abs(self.amplitudes) ** 2

    def cesaro_mean(self) -> float:
        """(1/T) sum_{n=1}^{T} |c_n|**2 at the largest available T."""
        if self.n_kicks < 1:
            raise ValueError("need at least one kick for a time average")
        return float(np.mean(self.survival()[1:]))


def evolve(matrix: FloquetMatrix, state: KickState,
           n_kicks: int = 1) -> DynamicsTrace:
    """Iterate V on a state for n_kicks periods, matrix-free.

    Each kick is psi <- U psi, then psi += Psi (mu * (Psi^H psi)) with the
    kick states as the columns of Psi: O(dim * N) per kick and no
    decomposition.  States are recorded in blocks of bounded size, from which
    c_n = <psi_0, psi_n> and <H0>_n are taken, with H0 the eigenvalues alpha_n
    of the spectrum the operator was built from.  More than MAX_KICKS kicks
    raise ResourceLimitError before anything is allocated.
    """
    if n_kicks < 1:
        raise ValueError("n_kicks must be at least 1")
    if n_kicks > MAX_KICKS:
        raise ResourceLimitError(
            f"{n_kicks} kicks exceed the limit {MAX_KICKS}")
    psi0 = truncate_state(state, matrix.dim).coefficients
    h0 = alpha_sequence(matrix.spectrum, matrix.dim)
    u = matrix.u
    kicks = np.array([s.coefficients for s in matrix.ensemble.states],
                     dtype=np.complex128).reshape(-1, matrix.dim).T
    kicks_h = kicks.conj().T
    mu = matrix.mu

    amplitudes = np.empty(n_kicks + 1, dtype=np.complex128)
    energies = np.empty(n_kicks + 1, dtype=np.float64)
    rows = min(1024, _RECORD_ELEMENTS // matrix.dim)
    block = np.empty((rows, matrix.dim), dtype=np.complex128)
    psi = psi0
    for lo in range(0, n_kicks + 1, rows):
        hi = min(lo + rows, n_kicks + 1)
        for j in range(hi - lo):
            # each kick is written straight into its record row; psi is the
            # previous row (or the same row, when a block holds one)
            row = block[j]
            if lo + j:
                np.multiply(u, psi, out=row)
                row += kicks @ (mu * (kicks_h @ row))
            else:
                row[:] = psi0
            psi = row
        recorded = block[: hi - lo]
        amplitudes[lo:hi] = recorded @ psi0.conj()
        energies[lo:hi] = (recorded.real ** 2 + recorded.imag ** 2) @ h0
    return DynamicsTrace(amplitudes=amplitudes, energies=energies,
                         source=matrix, state=state)


def wiener_average(trace: DynamicsTrace, decomposition: EigenDecomposition,
                   k: int) -> tuple[float, float]:
    """Cesaro mean of |c_n|**2 against the point-mass sum sum_i w_{k,i}**2.

    For a finite (hence pure point) matrix the two converge together as the
    averaging time grows; the pair is returned for comparison.  The trace and
    the decomposition must come from the same operator, and the evolved state
    must be the ensemble state k.
    """
    if trace.source is not decomposition.source:
        raise ProvenanceError("trace and decomposition come from different operators")
    ensemble = decomposition.source.ensemble
    if not 0 <= k < len(ensemble):
        raise ProvenanceError(f"ensemble has no state {k}")
    reference = ensemble.states[k].coefficients
    evolved = truncate_state(trace.state, decomposition.source.dim).coefficients
    if not np.allclose(reference, evolved, atol=1e-12):
        raise ProvenanceError("trace was not generated from ensemble state k")
    return trace.cesaro_mean(), decomposition.point_mass_sum(k)
