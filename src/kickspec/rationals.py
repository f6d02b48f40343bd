"""Exact rational arithmetic: fractional parts, continued fractions, and
irrationality-type estimation.

Irrationals are represented by high-precision rationals produced from their
continued-fraction expansions (``golden_ratio``, ``sqrt_two``), so every
fractional-part reduction downstream can run on arbitrary-precision integers
instead of floats.  Floats lose all fractional-part accuracy once n**j * beta
grows past 2**53, which happens immediately at the sequence lengths used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import PrecisionError, ResourceLimitError

__all__ = [
    "MAX_TERMS",
    "RationalApprox",
    "ContinuedFraction",
    "TypeEstimate",
    "fractional_part",
    "nearest_integer_distance",
    "continued_fraction",
    "irrational_type_estimate",
    "golden_ratio",
    "sqrt_two",
    "liouville_number",
    "polynomial_fractional_parts",
    "unit_float",
]

Real = Union[int, float, Fraction, "RationalApprox"]

#: Denominator of the dyadic lattice every rounded fractional part lands on.
UNIT_SCALE = 1 << 53
_UNIT_SCALE_F = float(UNIT_SCALE)
#: Most sequence terms one call may produce (80 MB of float64).
MAX_TERMS = 10**7


@dataclass(frozen=True)
class RationalApprox:
    """A reduced fraction standing in for a (possibly irrational) real.

    ``source_depth`` records how many continued-fraction terms produced it,
    zero for exact rationals.
    """

    numerator: int
    denominator: int
    source_depth: int = 0

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
    def from_fraction(cls, value: Fraction, source_depth: int = 0) -> "RationalApprox":
        return cls(value.numerator, value.denominator, source_depth)

    @classmethod
    def from_float(cls, value: float) -> "RationalApprox":
        return cls.from_fraction(Fraction(value))

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


def fractional_part(x: Real):
    """{x} = x - floor(x), always in [0, 1).

    Exact (a Fraction) for exact inputs, float for float inputs.  For floats
    a hair below an integer the subtraction rounds to 1.0; the result is
    clamped to the largest float under 1 to keep the half-open range.
    """
    if isinstance(x, float):
        r = x - math.floor(x)
        return math.nextafter(1.0, 0.0) if r >= 1.0 else r
    f = as_fraction(x)
    return f - math.floor(f)


def nearest_integer_distance(x: Real):
    """<x> = min({x}, 1 - {x}), the distance from x to the nearest integer."""
    frac = fractional_part(x)
    return min(frac, 1 - frac)


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
    for k in range(depth):
        a = r.numerator // r.denominator
        quotients.append(a)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        convergents.append(RationalApprox(p_cur, q_cur, source_depth=k + 1))
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
    q_max: int


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
    return TypeEstimate(eta_hat=eta_hat, witness_q=q, q_max=q_max)


def golden_ratio(depth: int = 200) -> RationalApprox:
    """(1+sqrt(5))/2 truncated to ``depth`` continued-fraction terms [1;1,1,...]."""
    p_prev, q_prev, p_cur, q_cur = 0, 1, 1, 0  # empty expansion, then a_0 = 1
    for _ in range(depth):
        p_prev, p_cur = p_cur, p_cur + p_prev
        q_prev, q_cur = q_cur, q_cur + q_prev
    return RationalApprox(p_cur, q_cur, source_depth=depth)


def sqrt_two(depth: int = 200) -> RationalApprox:
    """sqrt(2) truncated to ``depth`` continued-fraction terms [1;2,2,...]."""
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 1, 1  # a_0 = 1
    for _ in range(depth - 1):
        p_prev, p_cur = p_cur, 2 * p_cur + p_prev
        q_prev, q_cur = q_cur, 2 * q_cur + q_prev
    return RationalApprox(p_cur, q_cur, source_depth=depth)


def liouville_number(terms: int = 4) -> RationalApprox:
    """Truncation of the classic fast-approximable sum 10**(-k!), k = 1..terms."""
    total = sum(Fraction(1, 10 ** math.factorial(k)) for k in range(1, terms + 1))
    return RationalApprox.from_fraction(total, source_depth=terms)


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

    The polynomial is reduced mod 1 with integer arithmetic over the common
    denominator of the coefficients; successive values are advanced with a
    forward-difference table (degree-many big-int additions per step, no
    multiplications), then rounded once onto the 2**-53 grid.  More than
    MAX_TERMS terms raise ResourceLimitError before anything is allocated.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    if n_terms > MAX_TERMS:
        raise ResourceLimitError(
            f"{n_terms} sequence terms exceed the limit {MAX_TERMS}")
    fracs = [as_fraction(c) for c in coeffs]
    if not fracs:
        raise ValueError("need at least one coefficient")
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    degree = len(nums) - 1

    def value_at(n: int) -> int:
        acc = 0
        power = 1
        for c in nums:
            acc += c * power
            power *= n
        return acc % den

    out = np.empty(n_terms, dtype=np.float64)
    if degree == 0:
        out.fill(unit_float(nums[0] % den, den))
        return out

    # Forward differences of the integer sequence value_at(start + i) mod den.
    table = [value_at(start + i) for i in range(degree + 1)]
    diffs = []
    for _ in range(degree + 1):
        diffs.append(table[0])
        table = [(b - a) % den for a, b in zip(table, table[1:])]
    for i in range(n_terms):
        out[i] = unit_float(diffs[0], den)
        for lev in range(degree):
            diffs[lev] = (diffs[lev] + diffs[lev + 1]) % den
    return out
