"""Spectra of the unperturbed evolution and the rank-N kick machinery.

A base spectrum is the phase polynomial of one evolution period: basis state
n picks up the phase 2*pi*(beta_0 + beta_1 n + ... + beta_p n**p) * T, with
the coefficients beta_j stored as exact rationals in *turn* units (cycles per
n**j).  The eigenphase sequence

    theta_n = 2*pi * { alpha_n T / (2*pi*hbar) },   alpha_n = 2*pi*hbar*sum_j beta_j n**j

is therefore reduced mod 1 in integer arithmetic before any float appears.

The kick side: power-law states a_n proportional to n**(-gamma) (the
square-summable but not summable regime 1/2 < gamma <= 1), orthonormal
ensembles over interleaved index classes, the divergence diagnostic
B^-1(x) = sum |a_n|^2 / sin^2((x - theta_n)/2), the point-mass formula, and
the cotangent secular condition whose roots are the kicked eigenphases.
Three rules of the kick are decided here and nowhere else: a weighted pole
makes B^-1(x) = inf, where the point mass B(x)/sin^2(lambda/(2*hbar)) is 0
(``_CircleWindow.fill_state``); a kick with
|sin(lambda/(2*hbar))| < POLE_TOL is a no-op (``_kick_sine``); and a power
law belongs to the divergent regime 1/2 < gamma <= 1 (``_check_gamma``).
The secular sums have one home too, ``_secular_sums``, which takes each
point as a pole plus an offset: the Floquet solver calls it, and
``cotangent_residual`` calls it at a float x's nearest weighted pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import EnsembleError, PoleError, TrivialPerturbationError
from .rationals import (
    Real,
    as_fraction,
    integer_polynomial,
    polynomial_fractional_parts,
)

__all__ = [
    "BaseSpectrum",
    "ThetaSequence",
    "KickState",
    "KickEnsemble",
    "GammaWindow",
    "alpha_sequence",
    "theta_sequence",
    "power_law_state",
    "full_support_state",
    "orthonormal_ensemble",
    "b_inverse_partial",
    "point_mass",
    "cotangent_residual",
    "gamma_window",
    "circle_distance",
]

TWO_PI = 2.0 * math.pi
NORM_TOL = 1e-12
POLE_TOL = 1e-12
# Elements per (points x poles) tile of the secular sums: each temporary
# array of a tile stays at 512 kB.
_TILE_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class BaseSpectrum:
    """Polynomial eigenvalue law of the unkicked evolution.

    ``beta[j]`` is the coefficient of n**j in turns, so
    alpha_n = 2*pi*hbar * sum_j beta[j] * n**j.  ``period`` is the kick
    period T entering the one-period phase alpha_n * T / hbar; it defaults
    to 1 so theta_n = 2*pi*{alpha_n / (2*pi*hbar)} with no hidden constant.
    """

    beta: tuple[Fraction, ...]
    hbar: float = 1.0
    period: Fraction = Fraction(1)

    def __post_init__(self):
        coeffs = tuple(as_fraction(b) for b in self.beta)
        if len(coeffs) < 2:
            raise ValueError("need a polynomial of degree >= 1 (beta_0, beta_1, ...)")
        if all(c == 0 for c in coeffs[1:]):
            raise ValueError("at least one coefficient beta_j with j >= 1 must be nonzero")
        if not 0 < self.hbar < math.inf:  # false for nan
            raise ValueError("hbar must be positive and finite")
        period = as_fraction(self.period)
        if period <= 0:
            raise ValueError("period must be positive")
        object.__setattr__(self, "beta", coeffs)
        object.__setattr__(self, "period", period)

    @classmethod
    def harmonic(cls, frequency: Real, hbar: float = 1.0,
                 period: Real = 1) -> "BaseSpectrum":
        """Linear law alpha_n = 2*pi*hbar*frequency*n (frequency in turns)."""
        return cls(beta=(Fraction(0), as_fraction(frequency)), hbar=hbar,
                   period=as_fraction(period))


def alpha_sequence(spec: BaseSpectrum, n_terms: int) -> np.ndarray:
    """Eigenvalues alpha_n = 2*pi*hbar*sum_j beta_j n**j for n = 0..n_terms-1."""
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    nums, den = integer_polynomial(spec.beta)
    out = np.empty(n_terms, dtype=np.float64)
    scale = TWO_PI * spec.hbar
    for n in range(n_terms):
        acc = 0
        for c in reversed(nums):
            acc = acc * n + c
        # int true division is correctly rounded, as float(Fraction) is
        out[n] = scale * (acc / den)
    return out


# Dataclasses holding arrays take eq=False and so compare and hash by
# identity: a generated __eq__ or __hash__ over an array field raises.
@dataclass(frozen=True, eq=False)
class ThetaSequence:
    """Eigenphases theta_n in [0, 2*pi) of one unkicked period.

    ``unit_values`` are the same phases divided by 2*pi, i.e. the point set in
    [0, 1) whose equidistribution the counting arguments live on.
    """

    unit_values: np.ndarray

    def __post_init__(self):
        unit = np.asarray(self.unit_values, dtype=np.float64)
        unit.setflags(write=False)
        values = TWO_PI * unit
        values.setflags(write=False)
        object.__setattr__(self, "unit_values", unit)
        object.__setattr__(self, "_values", values)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return int(self.unit_values.size)


def theta_sequence(spec: BaseSpectrum, n_terms: int) -> ThetaSequence:
    """theta_n = 2*pi*{alpha_n T / (2*pi*hbar)} for n = 0..n_terms-1.

    hbar cancels out of the reduction, which runs on exact rationals
    period * beta_j; the single rounding step is the final drop onto the
    2**-53 grid.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    coeffs = [spec.period * b for b in spec.beta]
    unit = polynomial_fractional_parts(coeffs, n_terms, start=0)
    return ThetaSequence(unit_values=unit)


def _fill_circle_distance(x, angles: np.ndarray, out: np.ndarray,
                          spare: np.ndarray) -> np.ndarray:
    """Distance on the circle of circumference 2*pi, in [0, pi], into ``out``.

    The one home of the reduction.  On the nonnegative |angle - x|, ``fmod``
    equals numpy's ``%`` bit for bit (an infinite difference gives nan), at
    about half the cost; ``spare``, of the same shape, takes 2*pi - d.
    ``angles`` is only read.
    """
    np.subtract(angles, x, out=out)
    np.abs(out, out=out)
    np.fmod(out, TWO_PI, out=out)
    np.subtract(TWO_PI, out, out=spare)
    return np.minimum(out, spare, out=out)


def circle_distance(x, angles: np.ndarray) -> np.ndarray:
    """Distance on the circle of circumference 2*pi, in [0, pi], as a fresh
    array of the broadcast shape of ``x`` and ``angles``."""
    angles = np.asarray(angles, dtype=np.float64)
    out = np.empty(np.broadcast(angles, x).shape)
    return _fill_circle_distance(x, angles, out, np.empty_like(out))


@dataclass(frozen=True, eq=False)
class KickState:
    """One kick vector as coefficients over the basis of the base spectrum.

    ``gamma`` is the exponent of a power-law state and None otherwise.
    """

    coefficients: np.ndarray
    gamma: float | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a nonempty vector")
        if not np.any(coeffs):
            raise ValueError("kick state has empty support")
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm**2 = {norm_sq} deviates from 1 "
                             f"beyond {NORM_TOL}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return int(self.coefficients.size)

    def weights(self) -> np.ndarray:
        """|a_n|**2 as a real vector."""
        return np.abs(self.coefficients) ** 2


def _check_gamma(gamma: float) -> None:
    """Reject an exponent outside the divergent regime (1/2, 1]."""
    if not 0.5 < gamma <= 1.0:
        raise ValueError(f"gamma = {gamma} outside the divergent regime (1/2, 1]")


def _power_law_amplitudes(gamma: float, dim: int,
                          support: Iterable[int] | None = None) -> np.ndarray:
    """Real coefficients C * n**(-gamma) on the support and 0 elsewhere.

    The one home of the power law: ``power_law_state`` wraps it, and the
    counting sweep reads it as |a_n| without building a complex state.
    """
    _check_gamma(gamma)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if support is None:
        idx = slice(1, dim)
        raw = np.arange(1, dim, dtype=np.float64)
    else:
        indices = sorted(int(i) for i in support)
        if not indices:
            raise ValueError("support must be nonempty")
        if indices[0] < 1 or indices[-1] >= dim:
            raise ValueError("support must lie inside {1, ..., dim-1}")
        if len(set(indices)) != len(indices):
            raise ValueError("support has repeated indices")
        idx = np.asarray(indices)
        raw = idx.astype(np.float64)
    raw **= -gamma
    raw *= 1.0 / math.sqrt(float(np.sum(raw**2)))
    coeffs = np.zeros(dim)
    coeffs[idx] = raw
    return coeffs


def power_law_state(gamma: float, dim: int,
                    support: Iterable[int] | None = None) -> KickState:
    """Normalised state with a_n = C * n**(-gamma) on the support, 0 elsewhere.

    Requires 1/2 < gamma <= 1: square-summable so C exists, but not summable,
    which is the regime where the kicked operator can grow a continuous
    spectral component.  Index 0 is excluded (n**(-gamma) is undefined there).
    """
    return KickState(coefficients=_power_law_amplitudes(gamma, dim, support),
                     gamma=gamma)


def full_support_state(gamma: float, dim: int) -> KickState:
    """Shifted power law a_n = C * (n+1)**(-gamma) with no zero coefficient.

    power_law_state leaves a_0 = 0, so the kicked operator keeps the bare
    eigenphase theta_0 and the secular identity cannot cover the whole
    spectrum.  This variant weights every basis state, which is what the
    all-eigenphase cotangent checks need.
    """
    _check_gamma(gamma)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    raw = (np.arange(dim) + 1.0) ** (-gamma)
    raw /= math.sqrt(float(np.sum(raw**2)))
    return KickState(coefficients=raw.astype(np.complex128), gamma=gamma)


@dataclass(frozen=True, eq=False)
class KickEnsemble:
    """Orthonormal kick states with their strengths lambda_k (action units)."""

    states: tuple[KickState, ...]
    strengths: tuple[float, ...]

    def __post_init__(self):
        states = tuple(self.states)
        strengths = tuple(float(s) for s in self.strengths)
        if len(states) != len(strengths):
            raise EnsembleError("need exactly one strength per state")
        dims = {s.dim for s in states}
        if len(dims) > 1:
            raise EnsembleError("kick states live in different dimensions")
        for k in range(len(states)):
            for l in range(k + 1, len(states)):
                overlap = abs(np.vdot(states[k].coefficients,
                                      states[l].coefficients))
                if overlap > NORM_TOL:
                    raise EnsembleError(
                        f"states {k} and {l} overlap by {overlap:.3e}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "strengths", strengths)

    def __len__(self) -> int:
        return len(self.states)


def orthonormal_ensemble(gamma: float, n_states: int, dim: int,
                         strengths: Sequence[float]) -> KickEnsemble:
    """Power-law states on interleaved index classes n = k+1 (mod n_states).

    Disjoint supports make the Gram matrix exactly the identity while each
    state stays an exact power law on its own class.
    """
    if n_states < 1:
        raise ValueError("n_states must be positive")
    if n_states > dim - 1:
        raise EnsembleError(f"dim = {dim} too small for {n_states} "
                            "disjoint supports in {1, ..., dim-1}")
    if len(strengths) != n_states:
        raise EnsembleError("need exactly one strength per state")
    states = []
    for k in range(n_states):
        support = range(k + 1, dim, n_states)
        states.append(power_law_state(gamma, dim, support))
    return KickEnsemble(states=tuple(states), strengths=tuple(strengths))


def _check_prefix(n: int, length: int) -> None:
    """Reject a prefix length outside 1..length, the shorter of the state
    and the phases."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > length:
        raise ValueError("n exceeds the available state or phase length")


def b_inverse_partial(x: float, state: KickState, theta: ThetaSequence,
                      n_terms: int) -> float:
    """Partial sum of B^-1(x) = sum_n |a_n|^2 / sin^2((x - theta_n)/2).

    Nondecreasing in n_terms.  Returns ``math.inf`` when x coincides with
    some theta_n carrying nonzero weight (distance on the circle below
    POLE_TOL); zero-weight terms never contribute and never make a pole.
    """
    _check_prefix(n_terms, min(state.dim, len(theta)))
    return _CircleWindow.over(x, theta.values[:n_terms],
                              np.abs(state.coefficients[:n_terms])
                              ).b_inverse(n_terms)


@dataclass(frozen=True, eq=False)
class _Amplitudes:
    """``values`` |a_n| of one state with its two supports: ``nonzero``,
    |a_n| > 0, and ``weighted``, |a_n|**2 > 0, which a 1e-170 amplitude is
    not.

    ``run`` is the weighted support as one slice when it is contiguous, as
    for a power law, which is zero only at n = 0; it is None otherwise.
    """

    values: np.ndarray
    nonzero: np.ndarray
    weighted: np.ndarray
    run: slice | None


def _amplitudes(values: np.ndarray) -> _Amplitudes:
    weighted = np.square(values) > 0.0
    first = int(np.argmax(weighted))
    stop = weighted.size - int(np.argmax(weighted[::-1]))
    contiguous = weighted[first] and np.count_nonzero(weighted) == stop - first
    return _Amplitudes(values=values, nonzero=values > 0.0, weighted=weighted,
                       run=slice(first, stop) if contiguous else None)


class _CircleWindow:
    """What one x and one state give every prefix of the phases to read.

    ``fill_x`` puts the circle distances d_n = dist(x, theta_n) and
    sin^2(d_n/2) in place, and ``fill_state`` the S(x) hit mask, the first
    weighted pole and the B^-1 terms.  Every array is elementwise, so a
    prefix of the window is the window of the prefix, bit for bit.
    """

    def __init__(self, size: int):
        self.dist = np.empty(size)
        self.sin2 = np.empty(size)
        self.hits = np.empty(size, dtype=bool)
        self.terms = np.empty(size)

    @classmethod
    def over(cls, x: float, angles: np.ndarray,
             values: np.ndarray) -> "_CircleWindow":
        """The window of x over ``angles`` and amplitudes |a_n| ``values``."""
        window = cls(angles.size)
        window.fill_x(x, angles)
        window.fill_state(_amplitudes(values))
        return window

    def fill_x(self, x: float, angles: np.ndarray) -> None:
        """The one place sin^2 of a circle distance is computed."""
        _fill_circle_distance(x, angles, self.dist, self.sin2)
        sin2 = np.multiply(self.dist, 0.5, out=self.sin2)
        np.sin(sin2, out=sin2)
        sin2 *= sin2

    def fill_state(self, amplitudes: _Amplitudes) -> None:
        """The pole: the first index with weight w_n = |a_n|**2 > 0 within
        POLE_TOL of x.  The terms w_n / sin^2(d_n/2) over w_n > 0 before it,
        packed as a view when the weighted support is one run.  ``hits``
        takes the pole test, then the S(x) mask 0 < |a_n| and d_n <= |a_n|.
        """
        near = np.less(self.dist, POLE_TOL, out=self.hits)
        np.logical_and(near, amplitudes.weighted, out=near)
        poles = np.flatnonzero(near)
        self.pole = int(poles[0]) if poles.size else None
        stop = amplitudes.weighted.size if self.pole is None else self.pole
        terms = self.terms[:stop]
        weighted = amplitudes.weighted[:stop]
        np.square(amplitudes.values[:stop], out=terms)
        np.divide(terms, self.sin2[:stop], out=terms, where=weighted)
        run = amplitudes.run
        self.packed = terms[weighted] if run is None else terms[run]
        self.weighted = amplitudes.weighted
        hits = np.less_equal(self.dist, amplitudes.values, out=self.hits)
        np.logical_and(hits, amplitudes.nonzero, out=hits)

    def s_count(self, n: int) -> int:
        return int(np.count_nonzero(self.hits[:n]))

    def b_inverse(self, n: int) -> float:
        """``math.inf`` once the prefix reaches the pole, else the first
        count(w_m > 0, m < n) packed terms: the same elements in the same
        order as a sum over the masked prefix."""
        if self.pole is not None and self.pole < n:
            return math.inf
        return float(np.sum(self.packed[:np.count_nonzero(self.weighted[:n])]))


def _kick_sine(phase: float) -> float:
    """sin(phase/2) of a kick phase lambda/hbar.

    Raises TrivialPerturbationError when |sin(phase/2)| < POLE_TOL: the kick
    factor e^{i phase} is then 1 to within 2*POLE_TOL and the kick is a no-op.
    """
    s = math.sin(0.5 * phase)
    if abs(s) < POLE_TOL:
        raise TrivialPerturbationError(
            f"lambda/hbar = {phase} is congruent to 0 mod 2*pi")
    return s


def point_mass(lambda_over_hbar: float, b_inverse):
    """Spectral point mass at e^{ix} from the partial B^-1(x) value.

    Equals B(x) / sin^2(lambda/(2*hbar)), the real form of the prefactor
    -4(1+mu)/mu**2 with mu = e^{i lambda/hbar} - 1.  B^-1 = ``math.inf``
    (a weighted pole) means B(x) = 0, and 1/inf gives the point no mass.  An
    array of B^-1 values (one per point x) gives the array of masses.
    """
    s = _kick_sine(lambda_over_hbar)
    if not np.all(np.asarray(b_inverse) > 0.0):
        raise ValueError("B^-1 partial sums are positive for nonempty states")
    return (1.0 / b_inverse) / (s * s)


def _kick_cot(phase: float) -> float:
    """cot(phase/2) of a kick phase lambda/hbar, the secular equation's
    right-hand side, once ``_kick_sine`` has ruled out a no-op kick."""
    _kick_sine(phase)
    return 1.0 / math.tan(0.5 * phase)


def _distinct_poles(unit: np.ndarray, weights: np.ndarray):
    """Exactly coincident unit poles merged: the distinct poles in
    increasing order, the summed weight of each, the input position of its
    first copy (the lowest: the sort is stable) and its number of copies."""
    order = np.argsort(unit, kind="stable")
    unit = unit[order]
    starts = np.flatnonzero(np.r_[True, unit[1:] != unit[:-1]])
    return (unit[starts], np.add.reduceat(weights[order], starts),
            order[starts], np.diff(np.r_[starts, unit.size]))


def _secular_sums(poles: np.ndarray, weights: np.ndarray, origin: np.ndarray,
                  tau: np.ndarray):
    """The one home of the secular sums: at each x = 2*pi*poles[origin] +
    tau, the rows sum w cot(d/2), its term magnitudes and w / sin^2(d/2),
    d = x - theta_n, over every pole but the origin.

    ``poles`` are distinct unit phases on the 2**-53 grid, so their
    differences, reduced to [-1/2, 1/2] turns, are exact and only tau
    carries the distance to the origin.  Tiles hold at most _TILE_ELEMENTS
    terms, and each term is one tangent: cot = 1/tan, 1/sin^2 = 1 + cot^2.
    """
    sums = np.empty((3, tau.size))
    f, scale, b_inv = sums
    step = max(1, _TILE_ELEMENTS // poles.size)
    for lo in range(0, tau.size, step):
        tile = slice(lo, lo + step)
        o = origin[tile]
        cot = poles[o, None] - poles[None, :]
        cot -= np.rint(cot)
        cot *= TWO_PI
        cot += tau[tile, None]
        cot *= 0.5
        np.tan(cot, out=cot)
        np.divide(1.0, cot, out=cot)
        rows = np.arange(cot.shape[0])
        cot[rows, o] = 0.0
        terms = weights * cot
        f[tile] = terms.sum(axis=1)
        scale[tile] = np.abs(terms, out=terms).sum(axis=1)
        cot *= cot
        cot += 1.0
        cot *= weights
        cot[rows, o] = 0.0
        b_inv[tile] = cot.sum(axis=1)
    return sums


def cotangent_residual(x, state: KickState, theta: ThetaSequence,
                       lambda_over_hbar: float):
    """sum_n |a_n|^2 cot((x - theta_n)/2) - cot(lambda/(2*hbar)).

    A root in x is an eigenphase of the rank-1 kicked operator built from
    this state.  ``x`` is one point, which gives a float, or an array of
    points, which gives an array of the same shape whose every value is
    bit-identical to the call at that point.  Each point, reduced mod 2*pi,
    is its nearest weighted pole plus an offset, summed as the solver sums
    it (``_secular_sums``), with exactly coincident poles merged.  Raises
    PoleError for the first point within POLE_TOL of a pole with nonzero
    weight, naming the pole's index (the lowest of coincident ones).
    """
    w = state.weights()[:len(theta)]
    support = np.flatnonzero(w > 0.0)
    if not support.size:
        raise ValueError("state carries no weight inside the phase window")
    cot_kick = _kick_cot(lambda_over_hbar)
    poles, w, first, _ = _distinct_poles(theta.unit_values[support],
                                         w[support])
    points = np.mod(np.asarray(x, dtype=np.float64).reshape(-1), TWO_PI)
    # the nearest pole, cyclically: midpoints between neighbours bound the
    # cell of each pole
    cells = 0.5 * (np.r_[poles[-1] - 1.0, poles] + np.r_[poles, poles[0] + 1.0])
    origin = (np.searchsorted(cells, points / TWO_PI, "right") - 1) % poles.size
    tau = points - TWO_PI * poles[origin]
    tau -= TWO_PI * np.rint(tau / TWO_PI)
    hits = np.flatnonzero(np.abs(tau) < POLE_TOL)
    if hits.size:
        raise PoleError(int(support[first[origin[hits[0]]]]))
    totals, _, _ = _secular_sums(poles, w, origin, tau)
    totals += w[origin] / np.tan(0.5 * tau)
    totals -= cot_kick
    return float(totals[0]) if np.ndim(x) == 0 else totals.reshape(np.shape(x))


@dataclass(frozen=True)
class GammaWindow:
    """Open interval of power-law exponents forcing B^-1(x) -> infinity."""

    lo: float
    hi: float

    def __contains__(self, gamma: float) -> bool:
        return self.lo < gamma < self.hi


def gamma_window(j: int, eta: float) -> GammaWindow:
    """(1/2, 1/2 + 1/(2*eta*j)): the exponent window for power j and type eta."""
    if j < 1:
        raise ValueError("j must be a positive integer")
    if eta < 1.0:
        raise ValueError("every irrationality type satisfies eta >= 1")
    return GammaWindow(0.5, 0.5 + 1.0 / (2.0 * eta * j))
