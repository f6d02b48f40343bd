"""Exact rational arithmetic: fractional parts, continued fractions, and
irrationality-type estimation.

Irrationals are represented by high-precision rationals produced from their
continued-fraction expansions (``golden_ratio``, ``sqrt_two``), so every
fractional-part reduction downstream is exact instead of float.  Floats lose
all fractional-part accuracy once n**j * beta grows past 2**53, which happens
immediately at the sequence lengths used here.

``polynomial_fractional_parts`` is a certified vectorised kernel: each block
of indices is anchored exactly in big integers, the block's local polynomial
is evaluated in 128-bit fixed point over numpy limbs, and the few values the
truncation error could push across a 2**-53 grid boundary are recomputed
exactly ("float nominates, exact settles").  Its output is bit-identical to
reducing every term exactly and rounding it with ``unit_float``.
``linear_distances`` runs the same kernel on degree-1 polynomials for the
j = 1 Erdos-Turan closed form of ``equidistribution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import PrecisionError, ResourceLimitError

__all__ = [
    "MAX_ANCHOR_WORK",
    "MAX_TERMS",
    "RationalApprox",
    "ContinuedFraction",
    "TypeEstimate",
    "continued_fraction",
    "irrational_type_estimate",
    "golden_ratio",
    "sqrt_two",
    "linear_distances",
    "polynomial_fractional_parts",
    "unit_float",
]

Real = Union[int, float, Fraction, "RationalApprox"]

#: Denominator of the dyadic lattice every rounded fractional part lands on.
UNIT_SCALE = 1 << 53
_UNIT_SCALE_F = float(UNIT_SCALE)
#: Most sequence terms one call may produce (80 MB of float64).
MAX_TERMS = 10**7
#: Most big-integer products one call may spend on block anchors: each of
#: the ceil(n_terms / B) anchors costs about (degree + 1)**2 of them, and B
#: falls to 2 from degree 23, so high degrees would otherwise run as a
#: nearly per-point big-integer loop.
MAX_ANCHOR_WORK = 10**7
#: Largest block of indices sharing one exact anchor.
_MAX_BLOCK = 4096
#: Points evaluated per vectorised pass; keeps the limb temporaries at a few MB.
_CHUNK_POINTS = 1 << 16
_LIMB_MASK = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class RationalApprox:
    """A reduced fraction standing in for a (possibly irrational) real."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        num, den = self.numerator, self.denominator
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "RationalApprox":
        return cls(value.numerator, value.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.numerator / self.denominator


def as_fraction(x: Real) -> Fraction:
    """Coerce ints, floats, Fractions and RationalApprox to an exact Fraction."""
    if isinstance(x, RationalApprox):
        return x.as_fraction()
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents of a continued-fraction expansion.

    ``terminated`` is set when the input was rational and its exact expansion
    ended before the requested depth.
    """

    quotients: tuple[int, ...]
    convergents: tuple[RationalApprox, ...]
    terminated: bool

    def __len__(self) -> int:
        return len(self.quotients)


def continued_fraction(x: Real, depth: int) -> ContinuedFraction:
    """Expand x to ``depth`` partial quotients by the Euclidean algorithm.

    Convergents p_k/q_k follow the standard recurrence
    p_k = a_k p_{k-1} + p_{k-2}, q_k = a_k q_{k-1} + q_{k-2}, so the
    denominators are strictly increasing past the first terms and each
    convergent is a best rational approximation.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    r = as_fraction(x)
    quotients: list[int] = []
    convergents: list[RationalApprox] = []
    p_prev, q_prev = 0, 1  # p_{-2}, q_{-2}
    p_cur, q_cur = 1, 0  # p_{-1}, q_{-1}
    terminated = False
    for _ in range(depth):
        a = r.numerator // r.denominator
        quotients.append(a)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        convergents.append(RationalApprox(p_cur, q_cur))
        rem = r - a
        if rem == 0:
            terminated = True
            break
        r = 1 / rem
    return ContinuedFraction(tuple(quotients), tuple(convergents), terminated)


@dataclass(frozen=True)
class TypeEstimate:
    """Finite-sample estimate of the irrationality type eta.

    eta is the supremum of all tau with liminf_q q**tau * <q*beta> = 0; every
    real has eta >= 1 and badly approximable numbers (bounded partial
    quotients) have eta = 1.
    """

    eta_hat: float
    witness_q: int


def irrational_type_estimate(x: Real, q_max: int) -> TypeEstimate:
    """Estimate the irrationality type of x from denominators up to q_max.

    The exponent log(1 / <q*x>) / log(q) is maximised over q <= q_max at a
    continued-fraction convergent denominator (convergents are the best
    approximations), but at small q the finite constant in
    <q_k*x> ~ c / q_{k+1} inflates the ratio, so the estimate is read off at
    the largest convergent denominator q_K <= q_max, where the bias
    log(1/c)/log(q_K) is smallest.

    Raises PrecisionError when x itself is too coarse a stand-in: the
    estimate is only meaningful while x's own denominator exceeds q_max**2.
    """
    if q_max < 2:
        raise ValueError("q_max must be at least 2")
    f = as_fraction(x)
    if f.denominator <= q_max * q_max:
        raise PrecisionError(
            f"denominator {f.denominator} of the rational stand-in must exceed "
            f"q_max**2 = {q_max * q_max} for a type estimate up to q_max"
        )
    # More expansion terms than any plausible q_max growth; the loop below
    # stops at the convergent bound anyway.
    expansion = continued_fraction(f, depth=4 * max(64, q_max.bit_length() * 8))
    witness = None
    for conv in expansion.convergents:
        if 2 <= conv.denominator <= q_max:
            witness = conv
    if witness is None:
        raise PrecisionError("no convergent denominator in [2, q_max]")
    q = witness.denominator
    dist = abs(q * f - q * witness.as_fraction())
    if dist == 0:  # unreachable under the precision precondition
        raise PrecisionError("exact rational hit inside the search bound")
    log_dist = math.log(dist.numerator) - math.log(dist.denominator)
    eta_hat = -log_dist / math.log(q)
    return TypeEstimate(eta_hat=eta_hat, witness_q=q)


def golden_ratio(depth: int = 200) -> RationalApprox:
    """(1+sqrt(5))/2 truncated to ``depth`` continued-fraction terms [1;1,1,...]."""
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0  # empty expansion, then a_0 = 1
    for _ in range(depth):
        p_prev, p_cur = p_cur, p_cur + p_prev
        q_prev, q_cur = q_cur, q_cur + q_prev
    return RationalApprox(p_cur, q_cur)


def sqrt_two(depth: int = 200) -> RationalApprox:
    """sqrt(2) truncated to ``depth`` continued-fraction terms [1;2,2,...]."""
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 1, 1  # a_0 = 1
    for _ in range(depth - 1):
        p_prev, p_cur = p_cur, 2 * p_cur + p_prev
        q_prev, q_cur = q_cur, 2 * q_cur + q_prev
    return RationalApprox(p_cur, q_cur)


def integer_polynomial(coeffs: Sequence[Real]) -> tuple[list[int], int]:
    """Integer numerators ``nums`` over the common denominator ``den``, so
    that sum_m c_m n**m = sum_m nums[m] n**m / den."""
    fracs = [as_fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def unit_float(numerator: int, denominator: int) -> float:
    """Round the exact value numerator/denominator in [0, 1) onto the 2**-53 grid.

    The single floor division is the one rounding step between exact integer
    arithmetic and float output; every result is exactly representable and
    strictly below 1.
    """
    return ((numerator << 53) // denominator) / _UNIT_SCALE_F


def polynomial_fractional_parts(
    coeffs: Sequence[Fraction | Real],
    n_terms: int,
    start: int = 0,
) -> np.ndarray:
    """Fractional parts {c_0 + c_1 n + ... + c_p n**p} for n = start..start+n_terms-1.

    The polynomial is reduced mod 1 over the common denominator ``den`` of
    the coefficients.  Indices are split into blocks of B points; at each
    block start ``a`` the local Taylor coefficients
    D_k = sum_m c_m C(m, k) a**(m-k) mod den are computed exactly and
    truncated to F_k = floor(D_k 2**128 / den).  Inside the block,
    sum_k F_k i**k mod 2**128 is a lower bound on 2**128 {P(a + i)} that
    falls short by less than sum_k i**k units, so its top 53 bits are the
    exact floor(2**53 {P(a + i)}) unless its low 75 bits lie within that
    error of a carry; those points are recomputed exactly.  The result
    equals ``unit_float`` of every exact value, bit for bit.  More than
    MAX_TERMS terms, or anchor work ceil(n_terms / B) * (degree + 1)**2 above
    MAX_ANCHOR_WORK, raise ResourceLimitError before anything is allocated.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    if n_terms > MAX_TERMS:
        raise ResourceLimitError(
            f"{n_terms} sequence terms exceed the limit {MAX_TERMS}")
    nums, den = integer_polynomial(coeffs)
    if not nums:
        raise ValueError("need at least one coefficient")
    degree = len(nums) - 1
    block = _block_size(degree)
    n_blocks = -(-n_terms // block)
    if n_blocks * (degree + 1) ** 2 > MAX_ANCHOR_WORK:
        raise ResourceLimitError(
            f"{n_blocks} block anchors of degree {degree} exceed the anchor "
            f"work limit {MAX_ANCHOR_WORK}")

    out = np.empty(n_terms, dtype=np.float64)
    offsets = np.arange(block, dtype=np.uint64)
    # 2**64 - sum_k i**k: the low 64 bits at or above which a value with all
    # eleven bits 64..74 set may carry into the output bits
    error_units = np.ones(block, dtype=np.uint64)
    for _ in range(degree):
        error_units = error_units * offsets + np.uint64(1)
    thresholds = ~(error_units - np.uint64(1))

    per_chunk = max(1, _CHUNK_POINTS // block)
    flagged = []
    for first in range(0, n_blocks, per_chunk):
        count = min(per_chunk, n_blocks - first)
        lo = first * block
        hi = min(lo + count * block, n_terms)
        anchors = _block_anchors(nums, den, start + lo, block, count)
        limbs = _fixed_point_blocks(anchors, offsets)
        top = ((limbs[3] << 21) | (limbs[2] >> 11)).ravel()
        low = (limbs[1] << 32) | limbs[0]
        near = (((limbs[2] & 0x7FF) == 0x7FF) & (low >= thresholds)).ravel()
        np.multiply(top[:hi - lo], 1.0 / _UNIT_SCALE_F, out=out[lo:hi])
        flagged.append(np.flatnonzero(near[:hi - lo]) + lo)
    for i in np.concatenate(flagged).tolist():
        out[i] = unit_float(_value_mod(nums, start + i, den), den)
    return out


def linear_distances(numerators: Sequence[int], den: int, first: int,
                     count: int) -> np.ndarray:
    """Distances ||h c / den|| to the nearest integer for every c in
    ``numerators`` (rows) and h = first, ..., first + count - 1 (columns).

    Row c is one block of h c / den anchored at h = first (D_0 = first c
    and D_1 = c, both mod den).  At offset i = h - first its 128-bit value
    falls short by fewer than 1 + i units; one past one half is folded to
    its complement 2**128 - 1 - v, one unit below the distance.  So every
    distance is within (1 + i) 2**-128, plus a few ulp from the floats.
    """
    anchors = np.concatenate([_block_anchors([0, c], den, first, count, 1)
                              for c in numerators])
    limbs = _fixed_point_blocks(anchors, np.arange(count, dtype=np.uint64))
    limbs ^= (limbs[3] >> np.uint64(31)) * _LIMB_MASK
    dist = limbs[3] * 2.0 ** -32
    for k in (2, 1, 0):  # most significant limb first
        dist += limbs[k] * 2.0 ** (32 * k - 128)
    return dist


def _block_size(degree: int) -> int:
    """Largest power of two B <= 4096 with degree * B**degree <= 2**50.

    The truncation error sum_k i**k then stays below about 2**51 units of
    2**-128, so a value is flagged for the exact path with probability
    about 2**-24.
    """
    block = _MAX_BLOCK
    while block > 1 and degree * block**degree > 1 << 50:
        block //= 2
    return block


def _block_anchors(nums: list[int], den: int, first: int, block: int,
                   count: int) -> np.ndarray:
    """Limbs of F_k = floor(D_k 2**128 / den) at ``count`` block starts.

    Block b starts at a = first + b * block; D_k(a) are the Taylor
    coefficients of the numerator polynomial about a, reduced mod den.
    Returns uint64 of shape (count, degree + 1, 4), least significant 32-bit
    limb first.
    """
    degree = len(nums) - 1
    binom = [[math.comb(m, k) * nums[m] for m in range(degree + 1)]
             for k in range(degree + 1)]
    words = bytearray()
    for b in range(count):
        a = first + b * block
        powers = [1]
        for _ in range(degree):
            powers.append(powers[-1] * a)
        for k in range(degree + 1):
            d_k = sum(binom[k][m] * powers[m - k]
                      for m in range(k, degree + 1)) % den
            words += ((d_k << 128) // den).to_bytes(16, "little")
    limbs = np.frombuffer(bytes(words), dtype="<u4").astype(np.uint64)
    return limbs.reshape(count, degree + 1, 4)


def _fixed_point_blocks(anchors: np.ndarray,
                        offsets: np.ndarray) -> np.ndarray:
    """Horner sum_k F_k i**k mod 2**128 for every block and offset i.

    With offsets below 2**13 each limb product stays below 2**45 and each
    limb sum below 2**46, so uint64 carries are exact.  Returns uint64 of
    shape (4, blocks, offsets), least significant 32-bit limb first.
    """
    degree = anchors.shape[1] - 1
    shape = (anchors.shape[0], offsets.size)
    limbs = np.empty((4,) + shape, dtype=np.uint64)
    np.copyto(limbs, anchors[:, degree].T[:, :, None])
    t = np.empty(shape, dtype=np.uint64)
    carry = np.empty(shape, dtype=np.uint64)
    for k in range(degree - 1, -1, -1):
        for limb in range(4):
            np.multiply(limbs[limb], offsets, out=t)
            t += anchors[:, k, limb, None]
            if limb:
                t += carry
            np.bitwise_and(t, _LIMB_MASK, out=limbs[limb])
            if limb < 3:
                np.right_shift(t, 32, out=carry)
    return limbs


def _value_mod(nums: list[int], n: int, den: int) -> int:
    """Exact numerator polynomial at n, reduced mod den (Horner)."""
    acc = 0
    for c in reversed(nums):
        acc = acc * n + c
    return acc % den
