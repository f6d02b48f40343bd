import cmath
import csv
import functools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickspec import equidistribution
from kickspec.cli import main
from kickspec.equidistribution import (
    SequenceSpec,
    classical_exponent,
    conjectured_exponent,
    discrepancy_exact,
    discrepancy_oracle,
    erdos_turan_bound,
    erdos_turan_bounds,
    linear_erdos_turan_bounds,
    sequence_points,
    weyl_sum,
    weyl_sums,
    _linear_weyl_moduli,
)
from kickspec.errors import OracleSizeError
from kickspec.rationals import UNIT_SCALE, RationalApprox, golden_ratio, sqrt_two

GOLDEN = golden_ratio(200)
unit_points = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
              allow_nan=False),
    min_size=1, max_size=120)


def spec(j, beta):
    return SequenceSpec(j=j, beta=beta)


# The blocked Erdos-Turan sums add in another order than the per-harmonic
# loop; both sit within 14 ulp (1.7e-15 relative) of the exact-phase
# reference on the cases below, so this leaves a margin of about six.
ET_REL_TOL = 1e-14
ET_SEQUENCES = {
    "golden-j1": spec(1, GOLDEN),
    "sqrt2-j3": spec(3, sqrt_two()),
    "rational-j2": spec(2, RationalApprox(12345, 67891)),
}
ET_HARMONICS = (1, 7, 64, 65, 200)
# one point, inside the first 8192-point block, on its boundary, one past it
REFERENCE_SIZES = (1, 5000, 8192, 8193)


def loop_erdos_turan(pts, m):
    """The per-harmonic loop the blocked bound replaced: z^h by sequential
    products, one full-array sum per harmonic."""
    base = np.exp(2j * np.pi * pts)
    current = base.copy()
    total = 0.0
    for h in range(1, m + 1):
        if h > 1:
            current *= base
        total += abs(complex(current.sum())) / (h * pts.size)
    return 6.0 / (m + 1) + (4.0 / math.pi) * total


@functools.lru_cache(maxsize=None)
def reference_harmonic_sums(name):
    """Points and {n: [S_1..S_200] over the first n points}, standard library
    only: each phase h*k (x = k / 2**53) is reduced exactly mod 2**53 before
    cmath.exp, and every sum is a math.fsum."""
    pts = sequence_points(ET_SEQUENCES[name], max(REFERENCE_SIZES))
    ks = [int(x * UNIT_SCALE) for x in pts]
    turn = 2j * math.pi / UNIT_SCALE
    sums = {n: [] for n in REFERENCE_SIZES}
    for h in range(1, max(ET_HARMONICS) + 1):
        terms = [cmath.exp(turn * ((h * k) % UNIT_SCALE)) for k in ks]
        re = [t.real for t in terms]
        im = [t.imag for t in terms]
        for n in REFERENCE_SIZES:
            sums[n].append(complex(math.fsum(re[:n]), math.fsum(im[:n])))
    return pts, sums


class TestSequencePoints:
    def test_rational_rotation(self):
        pts = sequence_points(spec(1, RationalApprox(1, 3)), 4)
        assert pts == pytest.approx([1 / 3, 2 / 3, 0.0, 1 / 3], abs=1e-15)

    def test_squares_mod_four(self):
        pts = sequence_points(spec(2, RationalApprox(1, 4)), 4)
        assert pts == pytest.approx([0.25, 0.0, 0.25, 0.0], abs=1e-15)

    def test_golden_rotation_values(self):
        pts = sequence_points(spec(1, GOLDEN), 3)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        assert pts == pytest.approx([phi, (2 * phi) % 1.0, (3 * phi) % 1.0],
                                    abs=1e-12)

    def test_deterministic(self):
        s = spec(2, GOLDEN)
        assert (sequence_points(s, 2000) == sequence_points(s, 2000)).all()

    def test_prefix_stability(self):
        s = spec(3, GOLDEN)
        assert (sequence_points(s, 50) == sequence_points(s, 200)[:50]).all()


class TestWeylSum:
    def test_zero_beta_sums_to_n(self):
        s = weyl_sum(spec(1, RationalApprox(0, 1)), 1, 100)
        assert s == pytest.approx(100.0 + 0.0j)
        assert abs(s) == pytest.approx(100.0)

    def test_alternating_squares_cancel(self):
        s = weyl_sum(spec(2, RationalApprox(1, 2)), 1, 4)
        assert abs(s) < 1e-12

    def test_golden_rotation_stays_logarithmic(self):
        s = weyl_sum(spec(1, GOLDEN), 1, 10**4)
        assert abs(s) <= 3.0 * math.log(10**4)

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 300),
           st.fractions(min_value=0, max_value=1, max_denominator=997))
    @settings(max_examples=60, deadline=None)
    def test_modulus_never_exceeds_term_count(self, j, h, n, beta):
        s = weyl_sum(spec(j, RationalApprox.from_fraction(beta)), h, n)
        assert abs(s) <= n * (1 + 1e-12)

    def test_prefix_sums_match_one_size_calls(self):
        sp = spec(2, sqrt_two())
        sizes = [4096, 1, 77, 1000]
        for n, s in zip(sizes, weyl_sums(sp, 3, sizes)):
            assert s == weyl_sum(sp, 3, n)

    def test_matches_brute_force_phases(self):
        sp = spec(2, RationalApprox(3, 7))
        s = weyl_sum(sp, 2, 50)
        brute = sum(np.exp(2j * np.pi * ((2 * 3 * n**2) % 7) / 7)
                    for n in range(1, 51))
        assert s == pytest.approx(brute, abs=1e-10)


class TestExponents:
    def test_classical_values(self):
        assert classical_exponent(2) == pytest.approx(1 / (3 * math.log(24)))
        assert classical_exponent(3) == pytest.approx(1 / (12 * math.log(72)))
        assert classical_exponent(10) == pytest.approx(
            1 / (243 * math.log(1080)))

    def test_classical_rejects_linear(self):
        with pytest.raises(ValueError):
            classical_exponent(1)

    def test_conjectured(self):
        assert conjectured_exponent(1, 0.0) == 0.0
        assert conjectured_exponent(2, 0.01) == pytest.approx(0.51)
        assert conjectured_exponent(4, 0.05) == pytest.approx(0.80)


class TestDiscrepancy:
    def test_single_point(self):
        assert discrepancy_exact([0.5]).d_n == 1.0
        assert discrepancy_oracle([0.5]) == 1.0

    def test_two_points(self):
        assert discrepancy_exact([0.25, 0.75]).d_n == 0.5
        assert discrepancy_oracle([0.25, 0.75]) == 0.5
        assert discrepancy_exact([0.0, 0.5]).d_n == 0.5
        assert discrepancy_oracle([0.0, 0.5]) == 0.5

    def test_equally_spaced_grid(self):
        # i/N floats are not exactly the lattice rationals; both routes must
        # still agree bit-for-bit on the exact value for the actual floats
        pts = np.arange(10) / 10
        d = discrepancy_exact(pts).d_n
        assert d == discrepancy_oracle(pts)
        assert d == pytest.approx(0.1, abs=1e-15)

    def test_all_equal_points(self):
        pts = [0.3] * 7
        assert discrepancy_exact(pts).d_n == 1.0
        assert discrepancy_oracle(pts) == 1.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            discrepancy_exact([0.2, 1.0])
        with pytest.raises(ValueError):
            discrepancy_exact([])
        with pytest.raises(ValueError):
            discrepancy_exact([-0.1])

    def test_oracle_size_cap(self):
        with pytest.raises(OracleSizeError):
            discrepancy_oracle(np.linspace(0, 0.999, 2001))

    @given(unit_points)
    @settings(max_examples=120, deadline=None)
    # every index a near-tie candidate; a subnormal beside a large point
    @example(list(np.arange(1024) / 1024))
    @example([5e-324, 0.5])
    def test_oracle_equality(self, pts):
        assert discrepancy_exact(pts).d_n == discrepancy_oracle(pts)

    @given(unit_points)
    @settings(max_examples=60, deadline=None)
    def test_range_bounds(self, pts):
        d = discrepancy_exact(pts).d_n
        assert 1.0 / len(pts) <= d + 1e-15
        assert d <= 1.0

    def test_lattice_and_offgrid_mixture(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 300))
            pts = rng.random(n)  # k / 2**53 lattice values
            assert discrepancy_exact(pts).d_n == discrepancy_oracle(pts)
            offgrid = np.nextafter(pts, 1.0)
            offgrid = offgrid[offgrid < 1.0]
            if offgrid.size:
                assert discrepancy_exact(offgrid).d_n == \
                    discrepancy_oracle(offgrid)

    def test_offgrid_dense_ties(self):
        # i/n grids sit off the 2**-53 lattice and tie almost everywhere,
        # so nearly every index is settled in integer arithmetic; over the
        # common denominator 2**70 the oracle runs in Python integers
        for n in (300, 1000):
            pts = (np.arange(n) / n + 1e-5) % 1.0
            assert discrepancy_exact(pts).d_n == discrepancy_oracle(pts)

    @pytest.mark.parametrize("scale", [1e-300, 1e-310],
                             ids=["tiny", "subnormal"])
    def test_tiny_and_subnormal_points(self, scale):
        # denominators up to 2**1074, each point repeated once, alone and
        # beside points near 1
        rng = np.random.default_rng(11)
        tiny = np.repeat(rng.random(60) * scale, 2)
        for pts in (tiny, np.concatenate([tiny, rng.random(40)]),
                    np.array([5e-324, 1e-320, 5e-324, 2.5e-310])):
            assert discrepancy_exact(pts).d_n == discrepancy_oracle(pts)

    def test_exact_past_a_rounding_midpoint(self):
        # D_N = 1/2 + |b - a - 1/2| = 3/4 + 2**-54 + 2**-80 lies 2**-80 above
        # a midpoint of the float grid and rounds up only if the 2**-80
        # survives; N D = 2**81 is past what 80-bit floats hold exactly
        pts = [2.0**-54 - 2.0**-80, 0.75 + 2.0**-53]
        assert discrepancy_oracle(pts) == 0.75 + 2.0**-53
        assert discrepancy_exact(pts).d_n == 0.75 + 2.0**-53

    def test_lattice_without_extended_floats(self, monkeypatch):
        # where long double has no 64-bit mantissa, lattice inputs take the
        # Python-integer enumeration and must give the same value
        rng = np.random.default_rng(5)
        lists = [rng.random(n) for n in (1, 7, 300)]
        lists += [np.repeat(rng.random(100), 3), np.arange(64) / 64]
        extended = [discrepancy_oracle(pts) for pts in lists]
        monkeypatch.setattr(equidistribution, "_HAVE_EXTENDED", False)
        assert [discrepancy_oracle(pts) for pts in lists] == extended
        assert extended == [discrepancy_exact(pts).d_n for pts in lists]


class TestErdosTuran:
    def test_all_zeros(self):
        bound = erdos_turan_bound([0.0] * 10, 1)
        assert bound == pytest.approx(3.0 + 4.0 / math.pi)
        assert bound >= discrepancy_exact([0.0] * 10).d_n

    def test_grid_bound_above_exact(self):
        pts = np.arange(100) / 100
        bound = erdos_turan_bound(pts, 10)
        assert bound >= discrepancy_exact(pts).d_n >= 0.01 - 1e-12

    @given(unit_points, st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_dominates_discrepancy(self, pts, m):
        assert erdos_turan_bound(pts, m) >= discrepancy_exact(pts).d_n

    def test_m_validation(self):
        with pytest.raises(ValueError):
            erdos_turan_bound([0.5], 0)

    def test_matches_fresh_power_products(self):
        pts = sequence_points(spec(1, GOLDEN), 5000)
        assert erdos_turan_bound(pts, 64) == pytest.approx(
            loop_erdos_turan(pts, 64), rel=ET_REL_TOL, abs=0)


class TestErdosTuranBlocked:
    @pytest.mark.parametrize("m", ET_HARMONICS)
    @pytest.mark.parametrize("name", ET_SEQUENCES)
    def test_matches_exact_phase_reference(self, name, m):
        pts, sums = reference_harmonic_sums(name)
        bounds = erdos_turan_bounds(pts, REFERENCE_SIZES, m)
        for n, bound in zip(REFERENCE_SIZES, bounds):
            total = math.fsum(abs(s) / (h * n)
                              for h, s in enumerate(sums[n][:m], start=1))
            expected = 6.0 / (m + 1) + (4.0 / math.pi) * total
            assert bound == pytest.approx(expected, rel=ET_REL_TOL, abs=0)

    @pytest.mark.parametrize("m", ET_HARMONICS)
    @pytest.mark.parametrize("name", ET_SEQUENCES)
    def test_matches_loop_and_one_size_calls(self, name, m):
        # unsorted, with two full blocks plus tails and a three-block boundary
        sizes = [30000, 1, 5000, 8192, 8193, 16384, 16385, 24576, 24577]
        pts = sequence_points(ET_SEQUENCES[name], max(sizes))
        for n, bound in zip(sizes, erdos_turan_bounds(pts, sizes, m)):
            assert bound == pytest.approx(loop_erdos_turan(pts[:n], m),
                                          rel=ET_REL_TOL, abs=0)
            assert bound == erdos_turan_bound(pts[:n], m)

    def test_size_validation(self):
        pts = np.array([0.25, 0.5])
        assert erdos_turan_bounds(pts, [], 4) == []
        for bad in ([0], [3], [1, -1]):
            with pytest.raises(ValueError, match="prefix sizes"):
                erdos_turan_bounds(pts, bad, 4)
        with pytest.raises(ValueError, match="m must be"):
            erdos_turan_bounds(pts, [2], 0)

    def test_memory_independent_of_m(self):
        # one band of r*r harmonics would need a 142 x 142 complex product
        # (323 kB) at m = 20000; bands of 64 keep every array tiny
        tracemalloc.start()
        try:
            bound = erdos_turan_bounds(np.array([0.3, 0.7]), [2], 20000)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        assert bound == pytest.approx(loop_erdos_turan(np.array([0.3, 0.7]),
                                                       20000), rel=1e-12)


_BIG = random.Random(4096)
LINEAR_BETAS = {
    "golden": GOLDEN,
    "sqrt2": sqrt_two(),
    "12345/67891": RationalApprox(12345, 67891),
    "4096-bit": RationalApprox(_BIG.getrandbits(4096),
                               _BIG.getrandbits(4096) | 1 << 4095),
    "1/3": RationalApprox(1, 3),
    "5/64": RationalApprox(5, 64),
}
LINEAR_SIZES = REFERENCE_SIZES + (10**6,)
# Where S_h(N) vanishes exactly (q | h N), the point sums of
# ``erdos_turan_bounds`` leave a residue of cancelled unit vectors: on 1/3
# and 5/64 they sit up to 8.0e-14 relative from the exact-distance
# reference below, against 4.1e-16 for the closed form.
CANCELLING_BETAS = ("1/3", "5/64")
CANCELLING_REL_TOL = 1e-13


def exact_modulus(beta, h, n):
    """|S_h(N)| of {n beta} from the geometric sum, standard library only:
    both distances to the nearest integer reduced exactly as Fractions."""
    a = h * beta % 1
    b = h * n * beta % 1
    a, b = float(min(a, 1 - a)), float(min(b, 1 - b))
    if math.pi * n * a < 1e-8:
        return float(n)
    return math.sin(math.pi * b) / math.sin(math.pi * a)


def exact_linear_bounds(beta, sizes, m):
    f = beta.as_fraction()
    return [6.0 / (m + 1) + (4.0 / math.pi) * math.fsum(
                exact_modulus(f, h, n) / h for h in range(1, m + 1)) / n
            for n in sizes]


@functools.lru_cache(maxsize=None)
def linear_points(name):
    return sequence_points(spec(1, LINEAR_BETAS[name]), max(LINEAR_SIZES))


class TestLinearErdosTuran:
    @pytest.mark.parametrize("m", ET_HARMONICS)
    @pytest.mark.parametrize("name", LINEAR_BETAS)
    def test_matches_point_sums(self, name, m):
        beta = LINEAR_BETAS[name]
        closed = linear_erdos_turan_bounds(beta, LINEAR_SIZES, m)
        summed = erdos_turan_bounds(linear_points(name), LINEAR_SIZES, m)
        exact = exact_linear_bounds(beta, LINEAR_SIZES, m)
        tol = CANCELLING_REL_TOL if name in CANCELLING_BETAS else ET_REL_TOL
        for bound, point_bound, reference in zip(closed, summed, exact):
            assert bound == pytest.approx(point_bound, rel=tol, abs=0)
            assert bound == pytest.approx(reference, rel=ET_REL_TOL, abs=0)

    @pytest.mark.parametrize("m", ET_HARMONICS)
    def test_matches_exact_phase_reference(self, m):
        _, sums = reference_harmonic_sums("golden-j1")
        bounds = linear_erdos_turan_bounds(GOLDEN, REFERENCE_SIZES, m)
        for n, bound in zip(REFERENCE_SIZES, bounds):
            total = math.fsum(abs(s) / (h * n)
                              for h, s in enumerate(sums[n][:m], start=1))
            expected = 6.0 / (m + 1) + (4.0 / math.pi) * total
            assert bound == pytest.approx(expected, rel=ET_REL_TOL, abs=0)

    @pytest.mark.parametrize("p, q", [(5, 64), (2, 7)])
    def test_exact_moduli_at_multiples_of_q(self, p, q):
        # S_h = N where q | h; S_h = 0 where q | h N but q does not divide h.
        # {5/64} is exact in fixed point, {2/7} is rounded.
        sizes = [q, 3 * q // 2, q + 1, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moduli = _linear_weyl_moduli(RationalApprox(p, q), sizes, 1, 200)
        for n, row in zip(sizes, moduli):
            for h, modulus in enumerate(row.tolist(), start=1):
                if h % q == 0:
                    assert modulus == n
                elif h * n % q == 0:
                    assert modulus == 0.0
                else:
                    assert modulus == pytest.approx(
                        exact_modulus(Fraction(p, q), h, n), rel=1e-14, abs=0)

    # ||3 beta|| = 3 * 2**-shift for beta = 1/3 + 2**-shift: at 2**-40 the
    # low limbs of the fixed-point residue carry it; at 2**-4000 it
    # underflows as a float and |S_3| is N
    @pytest.mark.parametrize("shift", [40, 4000])
    def test_small_distances(self, shift):
        beta = RationalApprox(2**shift + 3, 3 * 2**shift)
        sizes = [1, 2, 3, 3000, 10**6]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = linear_erdos_turan_bounds(beta, sizes, 64)
            moduli = _linear_weyl_moduli(beta, sizes, 1, 6)
        for n, row in zip(sizes, moduli):
            expected = [exact_modulus(beta.as_fraction(), h, n)
                        for h in range(1, 7)]
            assert row.tolist() == pytest.approx(expected, rel=1e-14, abs=0)
        for bound, reference in zip(bounds,
                                    exact_linear_bounds(beta, sizes, 64)):
            assert bound == pytest.approx(reference, rel=ET_REL_TOL, abs=0)
        if shift == 4000:
            assert bounds == linear_erdos_turan_bounds(RationalApprox(1, 3),
                                                       sizes, 64)

    def test_chunks_and_size_order(self):
        # 40000 harmonics over three sizes run in 15 chunks
        sizes = [3, 1, 2]
        pts = sequence_points(spec(1, GOLDEN), 3)
        for bound, point_bound in zip(
                linear_erdos_turan_bounds(GOLDEN, sizes, 40000),
                erdos_turan_bounds(pts, sizes, 40000)):
            assert bound == pytest.approx(point_bound, rel=ET_REL_TOL, abs=0)

    def test_argument_validation(self):
        assert linear_erdos_turan_bounds(GOLDEN, [], 4) == []
        for bad in ([0], [1, -1]):
            with pytest.raises(ValueError, match="prefix sizes"):
                linear_erdos_turan_bounds(GOLDEN, bad, 4)
        with pytest.raises(ValueError, match="m must be"):
            linear_erdos_turan_bounds(GOLDEN, [2], 0)


def discrepancy_run(tmp_path, j, beta, sizes):
    """The slope and the (N, D_N) rows that ``kickspec discrepancy`` writes."""
    out = tmp_path / "run"
    assert main(["discrepancy", "--j", str(j), "--beta", beta,
                 "--n-grid", ",".join(map(str, sizes)),
                 "--out", str(out)]) == 0
    with open(out / "discrepancy.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    return float(rows[-1][1]), [(int(n), float(d)) for n, d, _ in rows[1:-1]]


class TestScalingFit:
    def test_golden_linear_decay(self, tmp_path):
        slope, table = discrepancy_run(tmp_path, 1, "golden",
                                       [100, 1000, 10_000, 100_000])
        assert -1.1 <= slope <= -0.8
        assert [n for n, _ in table] == [100, 1000, 10_000, 100_000]

    def test_rational_beta_plateaus(self, tmp_path):
        slope, table = discrepancy_run(tmp_path, 1, "1/3",
                                       [100, 1000, 10_000, 100_000])
        assert abs(slope) < 0.05
        assert all(d >= 0.3 for _, d in table)

    def test_square_sequence_lower_bound(self, tmp_path):
        sizes = [1000, 3163, 10_000, 31_623, 100_000]
        slope, table = discrepancy_run(tmp_path, 2, "golden", sizes)
        assert slope <= -0.25
        for n, d in table:
            assert d >= 0.5 * n ** (-0.5 - 0.1)
