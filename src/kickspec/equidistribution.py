"""Equidistribution diagnostics for power sequences n**j * beta mod 1.

Covers Weyl sums, the extreme (two-sided) discrepancy with an independent
brute-force oracle, the explicit Erdos-Turan bound (from the geometric Weyl
sums in closed form at j = 1), and the least-squares
log-log slope of D_N against N that the ``discrepancy`` command reports.

Discrepancy values are computed exactly: a vectorised float pass locates the
extremal intervals, the winners are re-evaluated in integer arithmetic, and
the correctly rounded float of the exact value is returned.
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
from .rationals import (
    _LIMB_MASK,
    RationalApprox,
    polynomial_fractional_parts,
)

__all__ = [
    "ET_SIZE_FLOOR",
    "MAX_ET_PRODUCTS",
    "SequenceSpec",
    "DiscrepancyReport",
    "sequence_points",
    "weyl_sum",
    "weyl_sums",
    "classical_exponent",
    "conjectured_exponent",
    "discrepancy_exact",
    "discrepancy_oracle",
    "erdos_turan_bound",
    "erdos_turan_bounds",
    "linear_erdos_turan_bounds",
]

#: Most harmonic-times-point products the Erdos-Turan bounds of one run may
#: take: m times the summed grid sizes, each size counted as at least
#: ``ET_SIZE_FLOOR`` points.  About 2.5 s at 2.2-2.7 ns per product (m of
#: 1e3 and more, 2 shared vCPUs, one BLAS thread).  At j = 1 the closed form
#: ``linear_erdos_turan_bounds`` costs about 30 ns per (harmonic, size) pair
#: whatever the size, and the limit admits at most 1e9 / ET_SIZE_FLOOR =
#: 3.9e6 pairs.  The worst such request, one size, m = 3,906,250 and a
#: 4096-bit beta, takes 0.12 s in that call and 0.2 s end to end.
MAX_ET_PRODUCTS = 10**9
#: A harmonic costs 0.7-1.0 us per grid size however few points the size
#: holds, as much as about 300 products, so a size counts as at least this
#: many points against ``MAX_ET_PRODUCTS``.
ET_SIZE_FLOOR = 256
# Points per block and harmonics per band of ``erdos_turan_bounds``.
_ET_BLOCK = 8192
_ET_BAND = 64
# (harmonic, size) pairs per chunk of ``linear_erdos_turan_bounds``, so the
# harmonic offsets within a chunk stay below 2**13; larger chunks run no
# faster and hold more memory
_LINEAR_BLOCK = 1 << 13
_ORACLE_MAX_POINTS = 2000
# Pairs per row block of the oracle's enumeration.  At the 2000-point cap,
# blocks of 2**16 ran faster than 2**18 or 2**20 and hold a few MB.
_ORACLE_BLOCK = 1 << 16
# Float terms of ``discrepancy_exact`` carry a few ulp of error; every term
# this close to an extreme is settled exactly.
_EXACT_BAND = 1e-12
# On x86 long double has a 64-bit mantissa, enough to hold every integer
# below 2**64 exactly.
_HAVE_EXTENDED = np.finfo(np.longdouble).nmant >= 63


@dataclass(frozen=True)
class SequenceSpec:
    """The sequence (n**j * beta mod 1)_{n>=1} for a fixed power j."""

    j: int
    beta: RationalApprox

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("power j must be a positive integer")
        if self.beta.denominator < 1:
            raise ValueError("beta must have a positive denominator")


@dataclass(frozen=True)
class DiscrepancyReport:
    """Extreme discrepancy ``d_n`` of a set of ``n_points`` points."""

    n_points: int
    d_n: float

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("report needs at least one point")
        if not 0.0 < self.d_n <= 1.0:
            raise ValueError(f"discrepancy {self.d_n} outside (0, 1]")


def sequence_points(spec: SequenceSpec, n_terms: int) -> np.ndarray:
    """First ``n_terms`` values of {n**j * beta}, n = 1..n_terms.

    The mod-1 reduction runs on exact integers and is rounded once onto the
    2**-53 grid, so outputs are bit-reproducible regardless of n or j.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    coeffs = [Fraction(0)] * spec.j + [spec.beta.as_fraction()]
    return polynomial_fractional_parts(coeffs, n_terms, start=1)


def weyl_sum(spec: SequenceSpec, h: int, n_terms: int) -> complex:
    """S = sum_{n=1}^{N} exp(2 pi i h n**j beta).

    The phase h n**j beta is reduced mod 1 in integer arithmetic before any
    trigonometric call; |S| <= n_terms always holds.  The one-size view of
    ``weyl_sums``.
    """
    return weyl_sums(spec, h, [n_terms])[0]


def weyl_sums(spec: SequenceSpec, h: int, sizes: Sequence[int]) -> list[complex]:
    """``weyl_sum(spec, h, n)`` for every n in ``sizes`` from one exact pass.

    The phases are computed once up to the largest size and each sum runs
    over a contiguous prefix of the same terms, so every value equals the
    one-size call bit for bit.
    """
    if h < 1:
        raise ValueError("harmonic h must be a positive integer")
    sizes = [int(n) for n in sizes]
    if any(n < 1 for n in sizes):
        raise ValueError("n_terms must be at least 1")
    coeffs = [Fraction(0)] * spec.j + [h * spec.beta.as_fraction()]
    phases = polynomial_fractional_parts(coeffs, max(sizes), start=1)
    terms = np.exp(2j * np.pi * phases)
    return [complex(terms[:n].sum()) for n in sizes]


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


def discrepancy_exact(points: Iterable[float]) -> DiscrepancyReport:
    """Extreme discrepancy over all half-open intervals [a, b) in [0, 1).

    Uses the order-statistics closed form
    D_N = 1/N + max_i (i/N - x_(i)) - min_i (i/N - x_(i)), evaluated exactly:
    a float pass nominates extremal indices and near-ties, which are settled
    in integer arithmetic.  O(N log N).

    A float x is k * 2**-s exactly (k from the 53-bit mantissa), so over the
    candidates' largest s = S each term is the Python int
    (i+1) * 2**S - N * k * 2**(S-s) over the common denominator N * 2**S.
    """
    xs = np.sort(_checked_points(points))
    n = xs.size
    terms = np.arange(1, n + 1, dtype=np.float64) / n - xs
    # every index whose float term is within rounding error of an extreme
    hi = np.flatnonzero(terms >= terms.max() - _EXACT_BAND)
    lo = np.flatnonzero(terms <= terms.min() + _EXACT_BAND)
    idx = np.concatenate([hi, lo])
    mantissa, exponent = np.frexp(xs[idx])
    ks = (mantissa * 2.0 ** 53).astype(np.int64).tolist()
    shifts = (53 - exponent).tolist()
    top = max(shifts)
    nums = [((i + 1) << top) - ((n * k) << (top - s))
            for i, k, s in zip(idx.tolist(), ks, shifts)]
    numerator = (1 << top) + max(nums[:hi.size]) - min(nums[hi.size:])
    # int / int is correctly rounded
    return DiscrepancyReport(n_points=n, d_n=numerator / (n << top))


def discrepancy_oracle(points: Iterable[float]) -> float:
    """Brute-force extreme discrepancy, independent of the closed form.

    Enumerates every interval [a, b) whose endpoints are sample points or
    0/1, in all four one-sided-limit variants (endpoint included or
    approached from above), counting with half-open semantics.  Quadratic in
    the number of distinct points, walked in row blocks of bounded memory;
    inputs are capped at 2000 points.

    Every float is k / d exactly, with d a power of two.  Over the largest
    denominator D of the distinct values an interval's deviation is
    |count D - N (k_b - k_a)| / (N D), and that numerator is the difference
    of two per-endpoint integers c D - N k.  They are held in 80-bit
    extended floats when N D < 2**64, as on the 2**-53 lattice, and in
    Python integers otherwise, so no step rounds.
    """
    xs = np.sort(_checked_points(points))
    n = xs.size
    if n > _ORACLE_MAX_POINTS:
        raise OracleSizeError(
            f"oracle input has {n} > {_ORACLE_MAX_POINTS} points")
    values = np.unique(np.concatenate([xs, [0.0, 1.0]]))
    m = values.size
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    denominator = max(d for _, d in ratios)
    if _HAVE_EXTENDED and n * denominator < 1 << 64:
        scale = np.longdouble(denominator)
        nk = (values * float(denominator)).astype(np.longdouble) * n
    else:
        scale = denominator
        nk = np.array([n * k * (denominator // d) for k, d in ratios],
                           dtype=object)
    # c D - N k per endpoint, with c the count of points below it (left) or
    # at or below it (right)
    lefts, rights = (np.searchsorted(xs, values, side=side).astype(
        nk.dtype) * scale - nk for side in ("left", "right"))

    best = 0
    rows = max(1, _ORACLE_BLOCK // m)
    for lo in range(0, m, rows):
        i = np.arange(lo, min(lo + rows, m))[:, None]
        j = np.arange(lo, m)
        after = j > i
        # [v, u), [v, u+), [v+, u), [v+, u+); u+ needs u < 1, the last value
        for starts, ends, mask in ((lefts, lefts, after),
                                   (lefts, rights, (j >= i) & (j < m - 1)),
                                   (rights, lefts, after),
                                   (rights, rights, after & (j < m - 1))):
            dev = np.abs(ends[lo:] - starts[i])
            best = max(best, int(np.max(dev, where=mask, initial=0)))
    return best / (n * denominator)  # int / int is correctly rounded


def erdos_turan_bounds(points: Iterable[float], sizes: Sequence[int],
                       m: int) -> list[float]:
    """Erdos-Turan bound of every prefix ``points[:n]``, n in ``sizes``.

    One pass over the points per band of at most ``_ET_BAND`` harmonics:
    the points are cut into blocks of ``_ET_BLOCK`` at fixed offsets, each
    block's harmonic sums come from one small matrix product, full blocks
    are summed once and every size adds only its partial tail block.  The
    fixed offsets make each bound independent of the other sizes, so
    ``erdos_turan_bound(points[:n], m)`` equals the batched value exactly.
    Working memory is O(_ET_BLOCK * sqrt(_ET_BAND)) whatever m and N are.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    xs = _checked_points(points)
    sizes = [int(n) for n in sizes]
    if any(not 1 <= n <= xs.size for n in sizes):
        raise ValueError(f"prefix sizes must lie in 1..{xs.size}")
    totals = [0.0] * len(sizes)  # sum_h |S_h| / h per size
    order = sorted(range(len(sizes)), key=sizes.__getitem__)
    for first in range(1, m + 1, _ET_BAND):
        count = min(_ET_BAND, m - first + 1)
        r = math.isqrt(count - 1) + 1
        harmonics = np.arange(first, first + count, dtype=np.float64)
        tables = np.empty((2, r, min(_ET_BLOCK, xs.size)), dtype=np.complex128)
        running = np.zeros((r, r), dtype=np.complex128)
        done = 0
        for i in order:
            n = sizes[i]
            while done + _ET_BLOCK <= n:
                running += _harmonic_block(xs[done:done + _ET_BLOCK], first,
                                           tables)
                done += _ET_BLOCK
            sums = running
            if done < n:
                sums = running + _harmonic_block(xs[done:n], first, tables)
            totals[i] += float(np.sum(np.abs(sums.ravel()[:count]) / harmonics))
    return [6.0 / (m + 1) + (4.0 / math.pi) * total / n
            for total, n in zip(totals, sizes)]


def _harmonic_block(xs: np.ndarray, first: int,
                    tables: np.ndarray) -> np.ndarray:
    """The r x r matrix whose entry (a, b) is S_h over ``xs``, h = first + a r + b.

    With z = exp(2 pi i x), ``low`` holds z^1..z^r and ``high`` holds
    z^(first-1), z^(first-1+r), ...; their product over the points gives
    all r*r harmonic sums with 2r multiplications per point.  ``tables``
    (2, r, >= len(xs)) is scratch reused across blocks: fresh arrays per
    block would cost a page fault per 4 kB written.
    """
    r = tables.shape[1]
    low, high = tables[0, :, :xs.size], tables[1, :, :xs.size]
    np.exp(np.multiply(xs, 2j * np.pi, out=low[0]), out=low[0])
    for b in range(1, r):
        np.multiply(low[b - 1], low[0], out=low[b])
    if first == 1:
        high[0] = 1.0
    else:
        np.exp(np.multiply(xs, 2j * np.pi * (first - 1), out=high[0]),
               out=high[0])
    for a in range(1, r):
        np.multiply(high[a - 1], low[r - 1], out=high[a])
    return high @ low.T


def erdos_turan_bound(points: Iterable[float], m: int) -> float:
    """Explicit Erdos-Turan bound 6/(m+1) + (4/pi) sum_{h<=m} |S_h| / (h N).

    Valid for every point list and every m >= 1, and never below the exact
    discrepancy of the same points.  The one-size view of
    ``erdos_turan_bounds``.
    """
    xs = _checked_points(points)
    return erdos_turan_bounds(xs, [xs.size], m)[0]


def linear_erdos_turan_bounds(beta: RationalApprox, sizes: Sequence[int],
                              m: int) -> list[float]:
    """``erdos_turan_bounds`` of {n beta}, n = 1..N, for every N in ``sizes``.

    At j = 1 the harmonic sums are geometric,
    |S_h(N)| = sin(pi ||h N beta||) / sin(pi ||h beta||), so the bounds cost
    O(m len(sizes)) whatever N is.  Both distances come from fixed-point
    residues of the exact beta (``_linear_weyl_moduli``).
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    sizes = [int(n) for n in sizes]
    if any(n < 1 for n in sizes):
        raise ValueError("prefix sizes must be positive")
    if not sizes:
        return []
    totals = np.zeros(len(sizes))  # sum_h |S_h| / h per size
    width = max(1, _LINEAR_BLOCK // len(sizes))
    for first in range(1, m + 1, width):
        count = min(width, m - first + 1)
        moduli = _linear_weyl_moduli(beta, sizes, first, count)
        totals += (moduli / np.arange(first, first + count)).sum(axis=1)
    return [6.0 / (m + 1) + (4.0 / math.pi) * total / n
            for total, n in zip(totals.tolist(), sizes)]


def _linear_weyl_moduli(beta: RationalApprox, sizes: Sequence[int],
                        first: int, count: int) -> np.ndarray:
    """|S_h(N)| of {n beta} for N in ``sizes`` (rows) and h = first, ...,
    first + count - 1 (columns).

    With F = round({beta} 2**K), each residue (h N F) mod 2**K is an exact
    integer in 32-bit limbs and sits within h N / 2 of (h N beta) mod 1
    scaled by 2**K; K exceeds 128 + log2(h N) for every h and N here.  So
    the distances carry absolute error below h N 2**-K and the float
    conversion a few ulp.  |S_h| is N once pi N ||h beta|| < 1e-8 (relative
    error below 1e-16, and exactly N when q | h) and 0 when ||h N beta|| is
    within twice its error of 0 (exactly 0 when q | h N, q not dividing h).
    """
    limbs = -(-(128 + ((first + count - 1) * max(sizes)).bit_length()) // 32)
    bits = 32 * limbs
    unit = 1 << bits
    q = beta.denominator
    frac = ((beta.numerator % q) * unit + q // 2) // q % unit
    # row 0 holds ||h beta||, row 1 + s holds ||h N_s beta||
    steps = [frac] + [n * frac % unit for n in sizes]

    def limb_table(values):
        data = b"".join(v.to_bytes(4 * limbs, "little") for v in values)
        table = np.frombuffer(data, dtype="<u4").reshape(len(values), limbs)
        return table.T.astype(np.uint64)

    step_limbs = limb_table(steps)
    base_limbs = limb_table([first * v % unit for v in steps])
    offsets = np.arange(count, dtype=np.uint64)
    # (first + i) v = first v + i v: limb products stay below 2**45
    residues = np.empty((limbs, len(steps), count), dtype=np.uint64)
    carry = np.zeros((len(steps), count), dtype=np.uint64)
    for k in range(limbs):
        t = np.multiply.outer(step_limbs[k], offsets)
        t += base_limbs[k][:, None]
        t += carry
        np.bitwise_and(t, _LIMB_MASK, out=residues[k])
        np.right_shift(t, np.uint64(32), out=carry)
    # a residue past one half is folded to its complement 2**K - 1 - r,
    # one unit below the distance
    residues ^= (residues[-1] >> np.uint64(31)) * _LIMB_MASK
    dist = np.zeros((len(steps), count))
    for k in range(limbs - 1, -1, -1):  # most significant limb first
        dist += residues[k] * 2.0 ** (32 * k - bits)

    ns = np.array(sizes, dtype=np.float64)[:, None]
    harmonics = np.arange(first, first + count, dtype=np.float64)
    near = np.pi * ns * dist[0] < 1e-8
    moduli = np.sin(np.pi * dist[1:])
    np.divide(moduli, np.sin(np.pi * dist[0]), out=moduli, where=~near)
    moduli[dist[1:] <= ns * harmonics * 2.0 ** (1 - bits)] = 0.0
    return np.where(near, ns, moduli)


def _log_log_slope(table: Sequence[tuple[int, float]]) -> float:
    """Least-squares slope of log D against log N over (N, D) rows; nan
    below two rows."""
    if len(table) < 2:
        return math.nan
    logs_n = np.log([row[0] for row in table])
    logs_d = np.log([row[1] for row in table])
    return float(np.polyfit(logs_n, logs_d, 1)[0])
