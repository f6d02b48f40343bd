import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickspec import rationals
from kickspec.errors import PrecisionError, ResourceLimitError
from kickspec.rationals import (
    MAX_TERMS,
    RationalApprox,
    continued_fraction,
    golden_ratio,
    irrational_type_estimate,
    polynomial_fractional_parts,
    sqrt_two,
    unit_float,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def forward_difference_oracle(coeffs, n_terms, start=0):
    """Exact per-point reduction: a forward-difference table of big ints
    advanced one index at a time, each value rounded by unit_float."""
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    degree = len(nums) - 1

    def value_at(n):
        return sum(c * n**m for m, c in enumerate(nums)) % den

    out = np.empty(n_terms, dtype=np.float64)
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


def seeded_rational(rng, bits=4096):
    """Reduced p/q in (0, 1) with a ``bits``-bit denominator."""
    while True:
        q = rng.getrandbits(bits) | (1 << (bits - 1))
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


@st.composite
def polynomials(draw):
    """Degree 0-4 over one random or 4096-bit denominator, signed numerators."""
    den = draw(st.one_of(st.integers(1, 10**12),
                         st.integers(1 << 4095, (1 << 4096) - 1)))
    degree = draw(st.integers(0, 4))
    nums = draw(st.lists(st.integers(-4 * den, 4 * den),
                         min_size=degree + 1, max_size=degree + 1))
    return [Fraction(n, den) for n in nums]


# block (4096 points up to degree 4) and chunk (65536 points) edges
EDGE_TERMS = (1, 2, 4095, 4096, 4097, 8193, 65535, 65536, 65537)


class TestRationalApprox:
    def test_normalises_gcd_and_sign(self):
        r = RationalApprox(-4, -6)
        assert (r.numerator, r.denominator) == (2, 3)
        r = RationalApprox(4, -6)
        assert (r.numerator, r.denominator) == (-2, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalApprox(1, 0)

    def test_roundtrip(self):
        f = Fraction(355, 113)
        assert RationalApprox.from_fraction(f).as_fraction() == f

    def test_equality_compares_values(self):
        last = continued_fraction(golden_ratio(10), 10).convergents[-1]
        assert last == RationalApprox(last.numerator, last.denominator)
        assert last == golden_ratio(10)


class TestContinuedFraction:
    def test_golden_all_ones(self):
        cf = continued_fraction(golden_ratio(200), 5)
        assert cf.quotients == (1, 1, 1, 1, 1)
        assert not cf.terminated

    def test_rational_terminates_early(self):
        cf = continued_fraction(Fraction(7, 3), 10)
        assert cf.quotients == (2, 3)
        assert cf.terminated
        assert cf.convergents[-1].as_fraction() == Fraction(7, 3)

    def test_sqrt_two_quotients(self):
        cf = continued_fraction(sqrt_two(200), 4)
        assert cf.quotients == (1, 2, 2, 2)

    def test_named_constants_match_floats(self):
        assert float(golden_ratio(200)) == pytest.approx(PHI, abs=1e-15)
        assert float(sqrt_two(200)) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    @given(st.fractions(min_value=0, max_value=100, max_denominator=10**9))
    @settings(max_examples=150)
    def test_convergent_invariants(self, x):
        cf = continued_fraction(x, 12)
        qs = [c.denominator for c in cf.convergents]
        # strictly increasing past the possible q_0 = q_1 = 1 repeat
        for a, b in zip(qs[1:], qs[2:]):
            assert b > a
        assert qs == sorted(qs)
        for conv in cf.convergents:
            err = abs(x - conv.as_fraction())
            assert err < Fraction(1, conv.denominator**2)

    def test_best_approximation_against_euclid_oracle(self):
        # oracle: denominators that set a new record for <q x> are exactly
        # the convergent denominators (best approximations)
        x = sqrt_two(200).as_fraction()
        cf = continued_fraction(x, 12)
        records = []
        best = Fraction(1)
        for q in range(1, 6000):
            dist = abs(q * x - round(q * x))
            if dist < best:
                best = dist
                records.append(q)
        expected = [c.denominator for c in cf.convergents if c.denominator < 6000]
        assert records[1:] == [q for q in expected[1:]]  # skip the trivial q=1


class TestTypeEstimate:
    def test_golden_is_constant_type(self):
        est = irrational_type_estimate(golden_ratio(200), 10**4)
        assert est.witness_q == 6765  # largest Fibonacci denominator <= 1e4
        assert 1.0 <= est.eta_hat <= 1.10

    def test_sqrt_two_bounded_quotients(self):
        est = irrational_type_estimate(sqrt_two(200), 10**4)
        assert est.witness_q == 5741  # largest Pell denominator <= 1e4
        assert 1.0 <= est.eta_hat <= 1.13

    def test_liouville_sticks_out(self):
        # the fast-approximable sum 10**(-k!), k = 1..4
        liouville = sum(Fraction(1, 10 ** math.factorial(k))
                        for k in range(1, 5))
        est = irrational_type_estimate(
            RationalApprox.from_fraction(liouville), 10**3)
        golden = irrational_type_estimate(golden_ratio(200), 10**3)
        assert est.eta_hat > 1.9
        assert est.eta_hat > golden.eta_hat + 0.7
        assert est.witness_q == 100

    def test_exponent_matches_direct_evaluation(self):
        est = irrational_type_estimate(sqrt_two(200), 500)
        x = sqrt_two(200).as_fraction()
        q = est.witness_q
        dist = abs(q * x - round(q * x))
        direct = -math.log(float(dist)) / math.log(q)
        assert est.eta_hat == pytest.approx(direct, rel=1e-12)

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            irrational_type_estimate(Fraction(618, 1000), 10**3)

    def test_eta_at_least_one_for_various_depths(self):
        for depth in (80, 120, 200):
            est = irrational_type_estimate(golden_ratio(depth), 10**3)
            assert est.eta_hat >= 1.0


class TestPolynomialFractionalParts:
    def test_linear_rational_cycle(self):
        vals = polynomial_fractional_parts([Fraction(0), Fraction(1, 3)], 4,
                                           start=1)
        assert vals == pytest.approx([1 / 3, 2 / 3, 0.0, 1 / 3], abs=1e-15)

    def test_quadratic(self):
        vals = polynomial_fractional_parts([Fraction(0), Fraction(0),
                                            Fraction(1, 4)], 4, start=1)
        assert vals == pytest.approx([0.25, 0.0, 0.25, 0.0], abs=1e-15)

    def test_matches_direct_evaluation(self):
        coeffs = [Fraction(1, 7), Fraction(3, 11), Fraction(2, 5)]
        vals = polynomial_fractional_parts(coeffs, 50, start=0)
        for n in range(50):
            exact = sum(c * n**j for j, c in enumerate(coeffs))
            exact -= math.floor(exact)
            assert vals[n] == unit_float(exact.numerator, exact.denominator)

    @pytest.mark.parametrize("bits", [3, 53, 128, 4096])
    @pytest.mark.parametrize("n_terms", [1, 4097, 10_000])
    def test_constant(self, bits, n_terms):
        # a degree-0 polynomial goes through the block kernel like any other
        rng = random.Random(bits * n_terms)
        den = rng.getrandbits(bits) | (1 << (bits - 1))
        num = rng.randrange(-4 * den, 4 * den)
        vals = polynomial_fractional_parts([Fraction(num, den)], n_terms,
                                           start=rng.randrange(-10**15, 10**15))
        assert np.array_equal(vals, np.full(n_terms, unit_float(num % den, den)))

    def test_outputs_on_dyadic_lattice(self):
        vals = polynomial_fractional_parts(
            [Fraction(0), golden_ratio(200).as_fraction()], 100, start=1)
        scaled = vals * 2.0**53
        assert all(v == int(v) for v in scaled)
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_term_cap(self):
        coeffs = [Fraction(0), golden_ratio(200).as_fraction()]
        assert polynomial_fractional_parts(coeffs, 1).size == 1
        with pytest.raises(ResourceLimitError):
            polynomial_fractional_parts(coeffs, MAX_TERMS + 1)

    @pytest.mark.parametrize("degree", [24, 40])
    def test_anchor_work_cap(self, degree, monkeypatch):
        def no_anchor(*args):
            raise AssertionError("an anchor was computed before the check")

        monkeypatch.setattr(rationals, "_block_anchors", no_anchor)
        coeffs = [Fraction(0)] * degree + [golden_ratio(200).as_fraction()]
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="anchor work limit"):
            polynomial_fractional_parts(coeffs, 100_000)
        assert time.perf_counter() - start < 1.0

    def test_anchor_work_boundary(self, monkeypatch):
        # degree 24 runs in blocks of 2 points, each anchor 25**2 products
        monkeypatch.setattr(rationals, "MAX_ANCHOR_WORK", 3 * 25**2)
        coeffs = [Fraction(0)] * 24 + [golden_ratio(200).as_fraction()]
        vals = polynomial_fractional_parts(coeffs, 6, start=1)
        for n, v in enumerate(vals, start=1):
            exact = coeffs[-1] * n**24
            exact -= math.floor(exact)
            assert v == unit_float(exact.numerator, exact.denominator)
        with pytest.raises(ResourceLimitError):
            polynomial_fractional_parts(coeffs, 7, start=1)

    def test_bit_determinism(self):
        coeffs = [Fraction(0), Fraction(0), golden_ratio(120).as_fraction()]
        a = polynomial_fractional_parts(coeffs, 500, start=1)
        b = polynomial_fractional_parts(coeffs, 500, start=1)
        assert (a == b).all()


class TestCertifiedKernel:
    """The block-anchored fixed-point kernel against the exact loop."""

    @pytest.fixture
    def settled(self, monkeypatch):
        calls = []
        exact = rationals._value_mod

        def counting(nums, n, den):
            calls.append(n)
            return exact(nums, n, den)

        monkeypatch.setattr(rationals, "_value_mod", counting)
        return calls

    @given(polynomials(), st.integers(1, 9000),
           st.one_of(st.sampled_from([0, 1, -1, 12345678901]),
                     st.integers(-10**15, 10**15)))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, coeffs, n_terms, start):
        assert np.array_equal(
            polynomial_fractional_parts(coeffs, n_terms, start=start),
            forward_difference_oracle(coeffs, n_terms, start=start))

    @pytest.mark.parametrize("n_terms", EDGE_TERMS)
    def test_block_and_chunk_edges(self, n_terms):
        rng = random.Random(n_terms)
        den = 2**64 - 59
        cases = [
            ([Fraction(rng.randrange(-den, den), den) for _ in range(5)],
             -10**12),
            ([0, 0, 0, seeded_rational(rng)], 12345678901),
        ]
        for coeffs, start in cases:
            assert np.array_equal(
                polynomial_fractional_parts(coeffs, n_terms, start=start),
                forward_difference_oracle(coeffs, n_terms, start=start))

    def test_block_size(self):
        assert [rationals._block_size(d) for d in (1, 2, 3, 4, 5, 8)] == \
            [4096, 4096, 4096, 4096, 512, 32]

    @pytest.mark.parametrize("n_terms, start", [(31, 0), (33, -77),
                                                (65537, 10**9 + 7)])
    def test_degree_eight_shrinks_the_block(self, n_terms, start):
        rng = random.Random(8)
        coeffs = [Fraction(rng.randrange(-10**20, 10**20), 10**20 + 39)
                  for _ in range(9)]
        assert np.array_equal(
            polynomial_fractional_parts(coeffs, n_terms, start=start),
            forward_difference_oracle(coeffs, n_terms, start=start))

    @pytest.mark.parametrize("coeffs", [
        [Fraction(0), Fraction(1, 3)],
        [Fraction(1, 2), Fraction(1, 6)],
        [Fraction(0), Fraction(-7, 12), Fraction(5, 12)],
    ])
    def test_exact_grid_values_are_settled_exactly(self, coeffs, settled):
        # values 0 and 1/2 lie on the 2**-53 grid; the truncated fixed-point
        # value sits just below them and must be flagged
        vals = polynomial_fractional_parts(coeffs, 10_000, start=-5)
        assert settled
        assert np.array_equal(vals,
                              forward_difference_oracle(coeffs, 10_000, -5))

    def test_values_just_below_a_grid_boundary(self, settled):
        c = Fraction(1, 1024) - Fraction(1, 3 << 140)
        vals = polynomial_fractional_parts([Fraction(0), c], 5000, start=1)
        assert len(settled) > 4000
        n = np.arange(1, 5001)
        below = ((n % 1024) * 2**43 - 1) % 2**53 / 2.0**53
        assert np.array_equal(vals, below)
        assert np.array_equal(vals,
                              forward_difference_oracle([0, c], 5000, 1))

    def test_benchmark_sequences(self):
        golden = golden_ratio(200).as_fraction()
        sqrt2 = sqrt_two(200).as_fraction()
        hp = seeded_rational(random.Random("numtheory:20261017"))
        cases = [([0, golden], 10**6, 1), ([0, 0, 0, hp], 3 * 10**5, 1),
                 ([0, golden], 3 * 10**5 + 1, 0)]
        cases += [([0, 0, h * sqrt2], 10**5, 1) for h in range(1, 5)]
        for coeffs, n_terms, start in cases:
            assert np.array_equal(
                polynomial_fractional_parts(coeffs, n_terms, start=start),
                forward_difference_oracle(coeffs, n_terms, start=start))
