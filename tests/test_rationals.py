import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickspec.errors import PrecisionError, ResourceLimitError
from kickspec.rationals import (
    MAX_TERMS,
    RationalApprox,
    continued_fraction,
    fractional_part,
    golden_ratio,
    irrational_type_estimate,
    liouville_number,
    nearest_integer_distance,
    polynomial_fractional_parts,
    sqrt_two,
    unit_float,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestFractionalPart:
    def test_positive_float(self):
        assert fractional_part(2.75) == 0.75

    def test_negative_float_is_nonnegative(self):
        assert fractional_part(-0.25) == 0.75

    def test_exact_rational(self):
        assert fractional_part(Fraction(7, 3)) == Fraction(1, 3)
        assert isinstance(fractional_part(Fraction(7, 3)), Fraction)

    def test_rational_approx_input(self):
        assert fractional_part(RationalApprox(7, 3)) == Fraction(1, 3)

    @given(st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_in_unit_interval(self, x):
        f = fractional_part(x)
        assert 0.0 <= f < 1.0


class TestNearestIntegerDistance:
    def test_examples(self):
        assert nearest_integer_distance(0.75) == 0.25
        assert nearest_integer_distance(3.0) == 0.0
        assert abs(nearest_integer_distance(PHI) - 0.3819660113) < 1e-9

    @given(st.fractions(max_denominator=10**6))
    def test_at_most_half(self, q):
        d = nearest_integer_distance(q)
        assert 0 <= d <= Fraction(1, 2)


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
        est = irrational_type_estimate(liouville_number(4), 10**3)
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

    def test_bit_determinism(self):
        coeffs = [Fraction(0), Fraction(0), golden_ratio(120).as_fraction()]
        a = polynomial_fractional_parts(coeffs, 500, start=1)
        b = polynomial_fractional_parts(coeffs, 500, start=1)
        assert (a == b).all()
