"""Counting experiments: shrinking intervals, S(x) sets, and divergence scans.

The divergence argument estimates B^-1(x) from below by counting how many
eigenphases theta_n fall close to x.  Two windows are in play:

* the per-index window |x - theta_n| <= |a_n| (the set S(x)), which gives the
  unconditional per-term bound B^-1 >= 4 #S(x);
* the N-dependent window 2*pi*N**(2(1/2-gamma)) / sqrt(log N), which shrinks
  more slowly and trades per-term quality for a bigger count, the route that
  extends the argument to j >= 2.

Interval counts A(J_N(x), N) are tied to the exact discrepancy through
|A(J, N) - N*|J|| <= N * D_N, which holds for every interval by definition of
the discrepancy, and is asserted in every sweep cell.

``divergence_scan`` and ``gamma_sweep`` share one sweep core.  It builds the
phases theta_n, the exact D_N for every grid size and the amplitudes |a_n|
of one window state per gamma once for the whole sweep.  The x grid is cut
into at most ``threads`` contiguous chunks.  Each chunk holds one
``spectral._CircleWindow`` over all N_max + 1 phases and refills it in
place: once per x with the distances to every phase and sin^2(d_n/2), then
once per gamma with the S(x) hit mask, the first weighted pole and the
packed B^-1 terms.  A cell's ``CountReport`` is built in one step, from
the inequality sides and one ``b_lower_bounds`` call that reads prefixes
of the window: two counts, the widened count and one sum.  Each formula
has one private home (``_wide_count`` and the window's fills);
``count_set_S``, ``count_set_bourget`` and ``b_inverse_partial`` are
single-cell views of the same code on fresh arrays.

Distances are circular on [0, 2*pi): plain absolute differences undercount
near the wrap-around, and eigenphases live on the circle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .equidistribution import SequenceSpec, discrepancy_exact
from .errors import IntervalRangeError, ResourceLimitError, ToleranceError
from .rationals import RationalApprox, golden_ratio
from .spectral import (
    BaseSpectrum,
    KickState,
    ThetaSequence,
    _amplitudes,
    _check_gamma,
    _check_prefix,
    _CircleWindow,
    _power_law_amplitudes,
    circle_distance,
    theta_sequence,
)

__all__ = [
    "MAX_X_COUNT",
    "MAX_THREADS",
    "MAX_SWEEP_BYTES",
    "IntervalJ",
    "CountReport",
    "BInverseBounds",
    "SweepResult",
    "make_interval",
    "count_interval",
    "count_set_S",
    "count_set_bourget",
    "bourget_half_width",
    "b_lower_bounds",
    "divergence_scan",
    "gamma_sweep",
    "default_x_grid",
]

TWO_PI = 2.0 * math.pi
Variant = Literal["combescure", "bourget"]
GrowthLabel = Literal["divergent-trend", "bounded", "inconclusive"]
#: Float slack absorbing the rounding between exact reals and float counts.
_INEQ_SLACK = 1e-12
#: Most x values ``default_x_grid`` builds (it may try 1000 candidates each).
MAX_X_COUNT = 10**4
#: Most worker threads a sweep starts.
MAX_THREADS = 64
#: Most bytes a sweep's buffers may take.  Over its N_max + 1 phases a
#: sweep holds theta (16 bytes per phase), the amplitudes and two masks of
#: each exponent (10 bytes) and one window per worker (25 bytes).  Above
#: the 34 MB of the imported package, peak RSS ran 1.13-1.19 times that
#: charge at N_max = 10^6 and 1.02 times at 10^7 - 1, where the largest
#: sweeps admitted (one exponent and 3 workers, or 6 exponents and one)
#: peaked at 1018 MB.  The README and benchmark sweeps charge under 30 MB.
MAX_SWEEP_BYTES = 2**30


def _check_threads(threads: int) -> None:
    """Reject more than MAX_THREADS worker threads before any work."""
    if threads > MAX_THREADS:
        raise ResourceLimitError(
            f"{threads} threads exceed the limit {MAX_THREADS}")


def _check_sweep_bytes(n_max: int, gammas: int, threads: int,
                       x_count: int) -> None:
    """Reject a sweep whose buffers exceed MAX_SWEEP_BYTES before any is
    allocated; it runs min(threads, x_count) workers."""
    workers = max(1, min(threads, x_count))
    charged = (n_max + 1) * (16 + 10 * gammas + 25 * workers)
    if charged > MAX_SWEEP_BYTES:
        raise ResourceLimitError(
            f"{n_max + 1} phases with {gammas} exponents and {workers} "
            f"workers charge {charged} bytes, which exceed the limit "
            f"{MAX_SWEEP_BYTES}")


def bourget_half_width(n: int, gamma: float) -> float:
    """Half-width N**(2(1/2-gamma)) / sqrt(log N) of the widened interval.

    The one home of the rule n >= 3, which keeps log N > 1:
    ``count_set_bourget`` and ``b_lower_bounds`` reach it through
    ``_wide_count``.
    """
    if n < 3:
        raise ValueError("bourget window needs n >= 3")
    return n ** (2.0 * (0.5 - gamma)) / math.sqrt(math.log(n))


@dataclass(frozen=True)
class IntervalJ:
    """Shrinking interval centred at x/(2*pi) on the unit circle."""

    center: float
    half_width: float

    @property
    def lower(self) -> float:
        return self.center - self.half_width

    @property
    def upper(self) -> float:
        return self.center + self.half_width

    @property
    def length(self) -> float:
        return self.upper - self.lower


def make_interval(x: float, n: int, gamma: float,
                  variant: Variant = "combescure") -> IntervalJ:
    """Interval J_N(x) = [x/2pi - w, x/2pi + w) with the variant's half-width.

    combescure: w = N**(-gamma); bourget: w = N**(2(1/2-gamma))/sqrt(log N).
    The interval must fit inside [0, 1); callers pick a larger N or another x
    when it spills.
    """
    if not 0.0 < x < TWO_PI:
        raise ValueError("x must lie strictly inside (0, 2*pi)")
    if variant == "combescure":
        if n < 1:
            raise ValueError("n must be positive")
        half_width = float(n) ** (-gamma)
    elif variant == "bourget":
        half_width = bourget_half_width(n, gamma)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    center = x / TWO_PI
    if center - half_width < 0.0 or center + half_width > 1.0:
        raise IntervalRangeError(
            f"interval around {center:.6f} with half-width {half_width:.6f} "
            "spills outside [0, 1)")
    return IntervalJ(center=center, half_width=half_width)


def count_interval(points: Iterable[float], interval: IntervalJ) -> int:
    """A([a, b), N): how many of the points fall in the half-open interval."""
    xs = np.asarray(points, dtype=np.float64)
    return int(np.count_nonzero((xs >= interval.lower) & (xs < interval.upper)))


def count_set_S(x: float, state: KickState, theta: ThetaSequence,
                n: int) -> int:
    """#S(x) = #{m < n : dist(x, theta_m) <= |a_m|} with circular distance.

    Uses the state's actual (normalised) coefficients as the per-index
    window; indices with a_m = 0 can never qualify.
    """
    _check_prefix(n, min(state.dim, len(theta)))
    return _CircleWindow.over(x, theta.values[:n],
                              np.abs(state.coefficients[:n])).s_count(n)


def count_set_bourget(x: float, theta: ThetaSequence, n: int,
                      gamma: float) -> int:
    """#{m < n : dist(x, theta_m) <= 2*pi*N**(2(1/2-gamma))/sqrt(log N)}."""
    if n > len(theta):
        raise ValueError("n exceeds the phase length")
    return _wide_count(circle_distance(x, theta.values[:n]), n, gamma)


def _wide_count(dist: np.ndarray, n: int, gamma: float) -> int:
    """#{m : dist_m <= min(2*pi*bourget_half_width(n, gamma), pi)}."""
    window = TWO_PI * bourget_half_width(n, gamma)
    return int(np.count_nonzero(dist <= min(window, math.pi)))


@dataclass(frozen=True)
class CountReport:
    """One (x, gamma, N) sweep cell: a cells.csv row, fields in column order.

    ``lhs`` is |A(J_N(x), N) - N*|J_N||, which ``rhs`` = N * D_N bounds
    unconditionally; a violation raises ToleranceError, so ``holds`` is True
    in every report.
    """

    x: float
    gamma: float
    n: int
    a_count: int
    s_count: int
    lhs: float
    rhs: float
    b_inverse: float
    holds: bool

    def __post_init__(self):
        if self.a_count < 0 or self.s_count < 0:
            raise ValueError("counts are nonnegative")
        if self.a_count > self.n or self.s_count > self.n:
            raise ValueError("counts cannot exceed the number of terms")


def _inequality_sides(x: float, interval: IntervalJ, points: np.ndarray,
                      d_n: float) -> tuple[int, float, float]:
    """(A, lhs, rhs) of |A(J_N(x), N) - N*|J_N|| <= N * D_N on N points.

    The exact discrepancy makes the inequality unconditional; a violation
    beyond float slack is a ToleranceError, not a data point.
    """
    n = len(points)
    a_count = count_interval(points, interval)
    rhs = n * d_n
    lhs = abs(a_count - n * interval.length)
    if not lhs <= rhs * (1.0 + _INEQ_SLACK) + _INEQ_SLACK:
        raise ToleranceError(
            f"counting inequality violated at x={x}, N={n}: "
            f"lhs={lhs:.6e} > rhs={rhs:.6e}")
    return a_count, lhs, rhs


@dataclass(frozen=True)
class BInverseBounds:
    """Lower bounds for the partial sum of B^-1(x)."""

    s_count: int  # #S(x)
    per_term_bound: float  # 4 * #S(x)
    widened_bound: float  # (1/pi**2) * #S_bourget(x) * log N / N**(2(1-gamma))
    b_inverse: float


def b_lower_bounds(window: _CircleWindow, gamma: float,
                   n: int) -> BInverseBounds:
    """Evaluate both lower bounds and assert the partial sum dominates them.

    ``window`` is the ``spectral._CircleWindow`` of x over the phases,
    filled with a power-law state of exponent ``gamma``; the cell reads its
    first ``n`` entries, so one window serves every prefix.  #S(x) and the
    widened count, from the distances, are two counts over the prefix, and
    the partial sum adds the window's packed terms of the prefix.

    The per-term bound 4#S(x) is coefficient-agnostic: every counted index
    contributes at least 4 because |a_m| / dist >= 1 and sin(u) <= u.  The
    widened bound follows the same substitution with the N-dependent window;
    its textbook constant 1/pi**2 assumes coefficients of size n**(-gamma)
    without the normalisation constant, which desk-scale margins absorb.
    """
    _check_gamma(gamma)
    _check_prefix(n, window.dist.size)
    s_count = window.s_count(n)
    per_term = 4.0 * s_count
    s_wide = _wide_count(window.dist[:n], n, gamma)
    widened = (s_wide / math.pi**2) * math.log(n) / float(n) ** (2.0 * (1.0 - gamma))
    value = window.b_inverse(n)
    # a weighted pole gives inf, which passes both comparisons
    if value < per_term:
        raise ToleranceError(
            f"B^-1 partial sum {value:.6e} below per-term bound {per_term:.6e}")
    if value < widened:
        raise ToleranceError(
            f"B^-1 partial sum {value:.6e} below widened bound {widened:.6e}")
    return BInverseBounds(s_count=s_count, per_term_bound=per_term,
                          widened_bound=widened, b_inverse=value)


@dataclass(frozen=True)
class SweepResult:
    """Per-cell reports plus growth labels of a divergence scan.

    Labels are heuristics over finite data: ``divergent-trend`` when the
    count never decreases and at least doubles from the smallest to the
    largest N, ``bounded`` when it is flat over the top three grid sizes,
    ``inconclusive`` otherwise.  The raw tables are always present.
    """

    gamma_grid: tuple[float, ...]
    x_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    cells: tuple[CountReport, ...]
    labels: dict[tuple[float, float], GrowthLabel]

    def __post_init__(self):
        expected = len(self.gamma_grid) * len(self.x_grid) * len(self.n_grid)
        if len(self.cells) != expected:
            raise ValueError(f"cell table has {len(self.cells)} entries, "
                             f"grids imply {expected}")
        if len(self.labels) != len(self.gamma_grid) * len(self.x_grid):
            raise ValueError("need one growth label per (x, gamma) pair")


def _growth_label(counts: Sequence[int]) -> GrowthLabel:
    nondecreasing = all(b >= a for a, b in zip(counts, counts[1:]))
    doubled = counts[-1] >= 2 * counts[0] and counts[-1] > counts[0]
    if nondecreasing and doubled:
        return "divergent-trend"
    if len(counts) >= 3 and counts[-1] == counts[-2] == counts[-3]:
        return "bounded"
    return "inconclusive"


def _monomial_spectrum(spec: SequenceSpec) -> BaseSpectrum:
    from fractions import Fraction

    beta = [Fraction(0)] * spec.j + [spec.beta.as_fraction()]
    return BaseSpectrum(beta=tuple(beta))


def _sweep(spec: SequenceSpec, gammas: tuple[float, ...],
           x_grid: Sequence[float], n_grid: Sequence[int], variant: Variant,
           threads: int) -> SweepResult:
    """The one sweep core: cells in (gamma, x, N) order, one label per pair.

    theta, the per-N discrepancies and the amplitudes |a_n| of one window
    state per gamma are built once.  The x grid is cut into at most
    ``threads`` contiguous chunks, each pure work on those immutable arrays
    in buffers of its own, allocated once over all N_max + 1 phases and
    refilled for every x and gamma; the pool maps over chunks, and the
    parts are joined in x order.
    """
    _check_threads(threads)
    sizes = sorted(int(n) for n in n_grid)
    if len(sizes) < 2:
        raise ValueError("n_grid needs at least two sizes")
    xs = tuple(x_grid)
    # one label per (x, gamma) pair: a repeat would only fail after the sweep
    for name, values in (("gamma", gammas), ("x", xs)):
        repeated = [v for v, count in Counter(values).items() if count > 1]
        if repeated:
            raise ValueError(f"{name} grid repeats the value {repeated[0]!r}")
    # half-widths shrink as N grows: an x that fits at the smallest N fits
    # at every N, so range and spill errors come before any work
    for gamma in gammas:
        _check_gamma(gamma)
        for x in xs:
            make_interval(x, sizes[0], gamma, variant)
    n_max = sizes[-1]
    _check_sweep_bytes(n_max, len(gammas), threads, len(xs))
    theta = theta_sequence(_monomial_spectrum(spec), n_max + 1)
    d_by_n = {n: discrepancy_exact(theta.unit_values[1:n + 1]).d_n for n in sizes}
    amplitudes = {gamma: _amplitudes(_power_law_amplitudes(gamma, n_max + 1))
                  for gamma in gammas}

    def cell(x: float, window: _CircleWindow, gamma: float,
             n: int) -> CountReport:
        a_count, lhs, rhs = _inequality_sides(
            x, make_interval(x, n, gamma, variant),
            theta.unit_values[1:n + 1], d_by_n[n])
        bounds = b_lower_bounds(window, gamma, n + 1)
        return CountReport(x=x, gamma=gamma, n=n, a_count=a_count,
                           s_count=bounds.s_count, lhs=lhs, rhs=rhs,
                           b_inverse=bounds.b_inverse, holds=True)

    def scan(chunk: Sequence[float]) -> list[dict[float, list[CountReport]]]:
        window = _CircleWindow(n_max + 1)
        parts = []
        for x in chunk:
            window.fill_x(x, theta.values)
            part = {}
            for gamma in gammas:
                window.fill_state(amplitudes[gamma])
                part[gamma] = [cell(x, window, gamma, n) for n in sizes]
            parts.append(part)
        return parts

    # contiguous chunks, the larger ones first: 5 x values in 3 chunks
    # are 2 + 2 + 1
    count = max(1, min(threads, len(xs)))
    cuts = [-(-len(xs) * k // count) for k in range(count + 1)]
    chunks = [xs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    if len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            per_x = [part for parts in pool.map(scan, chunks)
                     for part in parts]
    else:
        per_x = scan(xs)
    by_pair = {(x, gamma): part[gamma]
               for gamma in gammas for x, part in zip(xs, per_x)}
    return SweepResult(
        gamma_grid=gammas, x_grid=xs, n_grid=tuple(sizes),
        cells=tuple(c for cells in by_pair.values() for c in cells),
        labels={pair: _growth_label([c.s_count for c in cells])
                for pair, cells in by_pair.items()})


def divergence_scan(spec: SequenceSpec, gamma: float,
                    x_grid: Sequence[float], n_grid: Sequence[int],
                    variant: Variant = "combescure",
                    threads: int = 1) -> SweepResult:
    """Count A(J_N(x), N) and #S(x) over a geometric N grid for several x.

    Every cell also carries the discrepancy inequality sides and the partial
    B^-1 sum, with the lower bounds asserted.  theta, the per-N
    discrepancies and the window amplitudes are computed once per scan; each
    contiguous chunk of the x grid is pure work on those immutable arrays
    and buffers of its own, so chunks may run on a thread pool, and results
    are always assembled in x-grid order regardless of completion order.
    """
    return _sweep(spec, (gamma,), x_grid, n_grid, variant, threads)


def gamma_sweep(j: int, beta: RationalApprox, gamma_grid: Sequence[float],
                x_grid: Sequence[float], n_grid: Sequence[int],
                variant: Variant = "combescure",
                threads: int = 1) -> SweepResult:
    """Run divergence scans of (n**j beta) across an exponent grid.

    theta and the per-N discrepancies depend only on (j, beta, max N), so
    they are built once for the whole grid, with the amplitudes of one
    window state per gamma; the thread pool maps over contiguous chunks of
    the x grid, each refilling one circle view per x and one window per
    (x, gamma), and cells come back in (gamma, x, N) order.  No label is
    asserted: the counting argument forces divergence only inside
    ``spectral.gamma_window``, and the regime outside it depends on the
    unproven Weyl-sum exponent.
    """
    return _sweep(SequenceSpec(j=j, beta=beta),
                  tuple(float(g) for g in gamma_grid), x_grid, n_grid,
                  variant, threads)


def default_x_grid(count: int, n_min: int, gamma: float,
                   variant: Variant = "combescure") -> tuple[float, ...]:
    """Deterministic pole-avoiding evaluation points x = 2*pi*{m*(phi-1) + 1/7}.

    The golden rotation never lands on the rational test sequences' phases,
    and the 1/7 offset keeps it off the golden sequences themselves.  Values
    whose interval at size n_min and exponent gamma would spill outside
    [0, 1) are skipped.  More than MAX_X_COUNT values raise
    ResourceLimitError before any candidate is tried.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if count > MAX_X_COUNT:
        raise ResourceLimitError(
            f"{count} x values exceed the limit {MAX_X_COUNT}")
    phi_minus_one = float(golden_ratio(64)) - 1.0
    xs: list[float] = []
    m = 1
    while len(xs) < count:
        unit = (m * phi_minus_one + 1.0 / 7.0) % 1.0
        x = TWO_PI * unit
        m += 1
        if m > 1000 * count:
            raise ValueError("could not build a fitting x grid")
        try:
            make_interval(x, n_min, gamma, variant)
        except IntervalRangeError:
            continue
        xs.append(x)
    return tuple(xs)
