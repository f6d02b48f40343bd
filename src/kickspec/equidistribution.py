"""Equidistribution diagnostics for power sequences n**j * beta mod 1.

Covers Weyl sums, the extreme (two-sided) discrepancy with an independent
brute-force oracle, the explicit Erdos-Turan bound, and log-log scaling fits
of D_N against the irrationality-type prediction.

Discrepancy values are computed exactly: a vectorised float pass locates the
extremal intervals, the winners are re-evaluated in integer/rational
arithmetic, and the correctly rounded float of the exact value is returned.
That is what lets the closed-form routine and the quadratic oracle agree
bit-for-bit instead of merely to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import OracleSizeError
from .rationals import UNIT_SCALE, RationalApprox, polynomial_fractional_parts

__all__ = [
    "MAX_ET_PRODUCTS",
    "SequenceSpec",
    "WeylSum",
    "DiscrepancyReport",
    "ScalingFit",
    "sequence_points",
    "weyl_sum",
    "classical_exponent",
    "conjectured_exponent",
    "discrepancy_exact",
    "discrepancy_oracle",
    "erdos_turan_bound",
    "discrepancy_scaling_fit",
]

#: Most harmonic-times-point products the Erdos-Turan bounds of one run may
#: take (m times the summed grid sizes); about 4 s at 4.4 ns per product.
MAX_ET_PRODUCTS = 10**9
_UNIT_F = float(UNIT_SCALE)
_ORACLE_MAX_POINTS = 2000
# Float deviations carry a few ulp of error; anything this close to the float
# maximum is re-checked exactly.
_EXACT_BAND = 1e-12
# On x86 long double has a 64-bit mantissa, enough to hold the deviation
# numerators (below 2000 * 2**53 < 2**64) exactly.
_HAVE_EXTENDED = np.finfo(np.longdouble).nmant >= 63


@dataclass(frozen=True)
class SequenceSpec:
    """The sequence (n**j * beta mod 1)_{n>=1} for a fixed power j."""

    j: int
    beta: RationalApprox
    label: str = ""

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("power j must be a positive integer")
        if self.beta.denominator < 1:
            raise ValueError("beta must have a positive denominator")


@dataclass(frozen=True)
class WeylSum:
    value: complex
    modulus: float


@dataclass(frozen=True)
class DiscrepancyReport:
    """Extreme discrepancy of a finite point set, optionally with its
    Erdos-Turan upper bound."""

    n_points: int
    d_n: float
    et_bound: float | None = None
    m_used: int | None = None

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("report needs at least one point")
        if not 0.0 < self.d_n <= 1.0:
            raise ValueError(f"discrepancy {self.d_n} outside (0, 1]")
        if self.et_bound is not None and self.d_n > self.et_bound:
            raise ValueError("Erdos-Turan bound below the exact discrepancy")


def sequence_points(spec: SequenceSpec, n_terms: int) -> np.ndarray:
    """First ``n_terms`` values of {n**j * beta}, n = 1..n_terms.

    The mod-1 reduction runs on exact integers and is rounded once onto the
    2**-53 grid, so outputs are bit-reproducible regardless of n or j.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    coeffs = [Fraction(0)] * spec.j + [spec.beta.as_fraction()]
    return polynomial_fractional_parts(coeffs, n_terms, start=1)


def weyl_sum(spec: SequenceSpec, h: int, n_terms: int) -> WeylSum:
    """S = sum_{n=1}^{N} exp(2 pi i h n**j beta).

    The phase h n**j beta is reduced mod 1 in integer arithmetic before any
    trigonometric call; |S| <= n_terms always holds.
    """
    if h < 1:
        raise ValueError("harmonic h must be a positive integer")
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    coeffs = [Fraction(0)] * spec.j + [h * spec.beta.as_fraction()]
    phases = polynomial_fractional_parts(coeffs, n_terms, start=1)
    value = complex(np.exp(2j * np.pi * phases).sum())
    return WeylSum(value=value, modulus=abs(value))


def classical_exponent(j: int) -> float:
    """Unconditional Weyl-sum saving exponent 1 / (3 (j-1)**2 log(12 j (j-1)))."""
    if j < 2:
        raise ValueError("the classical exponent needs j >= 2")
    return 1.0 / (3.0 * (j - 1) ** 2 * math.log(12 * j * (j - 1)))


def conjectured_exponent(j: int, epsilon: float) -> float:
    """Conjectured modulus exponent 1 - 1/j + epsilon for |S| <= c N**(...)."""
    if j < 1:
        raise ValueError("j must be a positive integer")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return 1.0 - 1.0 / j + epsilon


# ---------------------------------------------------------------------------
# Exact discrepancy
# ---------------------------------------------------------------------------


def _checked_points(points: Iterable[float]) -> np.ndarray:
    xs = np.asarray(list(points) if not isinstance(points, np.ndarray) else points,
                    dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("need a nonempty one-dimensional point list")
    if np.any(xs < 0.0) or np.any(xs >= 1.0):
        raise ValueError("points must lie in the half-open unit interval [0, 1)")
    return xs


def _lattice_numerators(xs: np.ndarray) -> np.ndarray | None:
    """Integer k with x = k / 2**53 for every point, or None off the grid."""
    scaled = xs * _UNIT_F  # exact: multiplication by a power of two
    if np.all(scaled == np.floor(scaled)):
        return scaled.astype(np.int64)
    return None


def discrepancy_exact(points: Iterable[float]) -> DiscrepancyReport:
    """Extreme discrepancy over all half-open intervals [a, b) in [0, 1).

    Uses the order-statistics closed form
    D_N = 1/N + max_i (i/N - x_(i)) - min_i (i/N - x_(i)), evaluated exactly:
    a float pass nominates extremal indices and near-ties, which are settled
    in integer (lattice points) or rational arithmetic.  O(N log N).
    """
    xs = np.sort(_checked_points(points))
    n = xs.size
    ks = _lattice_numerators(xs)
    terms = np.arange(1, n + 1, dtype=np.float64) / n - xs

    def exact_extreme(float_extreme: float, sign: int) -> Fraction:
        # sign +1 for the maximum, -1 for the minimum; every index whose
        # float term is within rounding error of the extreme is re-checked
        idx = np.nonzero(sign * terms >= sign * float_extreme - _EXACT_BAND)[0]
        if ks is not None:
            best_num = None
            for i in idx:
                num = (int(i) + 1) * UNIT_SCALE - n * int(ks[i])
                if best_num is None or sign * (num - best_num) > 0:
                    best_num = num
            return Fraction(best_num, n * UNIT_SCALE)
        best = None
        for i in idx:
            val = Fraction(int(i) + 1, n) - Fraction(float(xs[i]))
            if best is None or sign * (val - best) > 0:
                best = val
        return best

    hi = exact_extreme(float(terms.max()), +1)
    lo = exact_extreme(float(terms.min()), -1)
    d_exact = Fraction(1, n) + hi - lo
    return DiscrepancyReport(n_points=n, d_n=float(d_exact))


def discrepancy_oracle(points: Iterable[float]) -> float:
    """Brute-force extreme discrepancy, independent of the closed form.

    Enumerates every interval [a, b) whose endpoints are sample points or
    0/1, in all four one-sided-limit variants (endpoint included or
    approached from above), counting with half-open semantics.  Quadratic in
    the number of distinct points; inputs are capped at 2000 points.

    On the 2**-53 lattice the deviation numerators count*2**53 - N*(k_b-k_a)
    stay below 2**64, so the whole enumeration runs exactly in 80-bit
    extended floats with no rounding anywhere; off-lattice inputs fall back
    to a float scan whose near-maximal candidates are settled in rational
    arithmetic.
    """
    xs = np.sort(_checked_points(points))
    n = xs.size
    if n > _ORACLE_MAX_POINTS:
        raise OracleSizeError(
            f"oracle input has {n} > {_ORACLE_MAX_POINTS} points")
    values = np.unique(np.concatenate([xs, [0.0, 1.0]]))
    m = values.size
    left = np.searchsorted(xs, values, side="left")
    right = np.searchsorted(xs, values, side="right")
    upper = np.triu(np.ones((m, m), dtype=bool), k=1)
    below_one = (values < 1.0)[None, :]

    # (start counts, end counts, validity mask) for the four limit variants:
    # [v, u), [v, u+), [v+, u), [v+, u+)
    combos = (
        (left, left, upper),
        (left, right, (np.triu(np.ones((m, m), dtype=bool), k=0)) & below_one),
        (right, left, upper),
        (right, right, upper & below_one),
    )

    ks = _lattice_numerators(values)
    if ks is not None and _HAVE_EXTENDED:
        # exact integer arithmetic, vectorised: numerators of the deviation
        # over the common denominator N * 2**53
        scale = np.longdouble(UNIT_SCALE)
        gap_num = (ks[None, :] - ks[:, None]).astype(np.longdouble) * n
        best_num = -1
        for start, end, mask in combos:
            counts = (end[None, :] - start[:, None]).astype(np.longdouble)
            dev_num = np.abs(counts * scale - gap_num)
            dev_num[~mask] = -1.0
            best_num = max(best_num, int(dev_num.max()))
        return float(Fraction(best_num, n * UNIT_SCALE))

    lengths = values[None, :] - values[:, None]
    float_best = -1.0
    combo_results = []
    for start, end, mask in combos:
        counts = end[None, :] - start[:, None]
        dev = np.abs(counts / n - lengths)
        dev[~mask] = -1.0
        float_best = max(float_best, float(dev.max()))
        combo_results.append((counts, dev))
    best_exact: Fraction | None = None
    for counts, dev in combo_results:
        for i, j in zip(*np.nonzero(dev >= float_best - _EXACT_BAND)):
            if ks is not None:
                gap = Fraction(int(ks[j] - ks[i]), UNIT_SCALE)
            else:
                gap = Fraction(float(values[j])) - Fraction(float(values[i]))
            exact = abs(Fraction(int(counts[i, j]), n) - gap)
            if best_exact is None or exact > best_exact:
                best_exact = exact
    assert best_exact is not None
    return float(best_exact)


def erdos_turan_bound(points: Iterable[float], m: int) -> float:
    """Explicit Erdos-Turan bound 6/(m+1) + (4/pi) sum_{h<=m} |S_h| / (h N).

    Valid for every point list and every m >= 1, and never below the exact
    discrepancy of the same points.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    xs = _checked_points(points)
    n = xs.size
    base = np.exp(2j * np.pi * xs)
    current = base.copy()
    total = 0.0
    for h in range(1, m + 1):
        if h > 1:
            current *= base
        total += abs(complex(current.sum())) / (h * n)
    return 6.0 / (m + 1) + (4.0 / math.pi) * total


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log D_N against log N plus the per-N table."""

    slope: float
    table: tuple[tuple[int, float], ...]
    reference_slope: float


def discrepancy_scaling_fit(
    spec: SequenceSpec,
    n_grid: Sequence[int],
    eta: float = 1.0,
) -> ScalingFit:
    """Fit the decay exponent of D_N over a geometric grid of lengths.

    The reference slope is -1/(eta*j), the finite-type prediction for the
    sequence (n**j beta); rational beta plateaus instead (slope near zero).
    """
    sizes = sorted(int(n) for n in n_grid)
    if len(sizes) < 4:
        raise ValueError("need at least 4 grid sizes")
    if sizes[0] < 1:
        raise ValueError("grid sizes must be positive")
    if sizes[-1] < 100 * sizes[0]:
        raise ValueError("grid must span at least two decades")
    pts = sequence_points(spec, sizes[-1])
    table = []
    for size in sizes:
        table.append((size, discrepancy_exact(pts[:size]).d_n))
    logs_n = np.log([row[0] for row in table])
    logs_d = np.log([row[1] for row in table])
    slope = float(np.polyfit(logs_n, logs_d, 1)[0])
    return ScalingFit(slope=slope, table=tuple(table),
                      reference_slope=-1.0 / (eta * spec.j))
