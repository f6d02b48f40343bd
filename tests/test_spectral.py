import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickspec.errors import (
    EnsembleError,
    PoleError,
    TrivialPerturbationError,
)
from kickspec.floquet import build_floquet, eigen_decompose, truncate_state
from kickspec.rationals import golden_ratio
from kickspec.spectral import (
    BaseSpectrum,
    KickEnsemble,
    KickState,
    ThetaSequence,
    alpha_sequence,
    b_inverse_partial,
    circle_distance,
    cotangent_residual,
    full_support_state,
    gamma_window,
    orthonormal_ensemble,
    point_mass,
    power_law_state,
    theta_sequence,
)

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(np.float64).eps)
GOLDEN = golden_ratio(200).as_fraction()


def turns(*radians):
    """Turn-unit coefficients of phase coefficients given in radians."""
    return tuple(Fraction(c) / Fraction(TWO_PI) for c in radians)


def equal_pair_state():
    return KickState(coefficients=np.array([1.0, 1.0], dtype=complex) / math.sqrt(2))


def theta_zero_pi():
    spec = BaseSpectrum(beta=(Fraction(0), Fraction(1, 2)))
    return theta_sequence(spec, 2)


class TestBaseSpectrum:
    def test_requires_degree_one(self):
        with pytest.raises(ValueError):
            BaseSpectrum(beta=(Fraction(1),))
        with pytest.raises(ValueError):
            BaseSpectrum(beta=(Fraction(1), Fraction(0)))

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
    def test_hbar_positive_and_finite(self, hbar):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            BaseSpectrum(beta=(Fraction(0), GOLDEN), hbar=hbar)

    def test_alpha_linear(self):
        omega_turns = Fraction(3, 10)
        spec = BaseSpectrum.harmonic(omega_turns)
        alpha = alpha_sequence(spec, 3)
        omega = TWO_PI * 0.3
        assert alpha == pytest.approx([0.0, omega, 2 * omega], abs=1e-12)

    def test_alpha_quadratic_from_radians(self):
        spec = BaseSpectrum(beta=turns(0.0, 0.0, 1.0), hbar=2.0)
        assert alpha_sequence(spec, 3) == pytest.approx([0.0, 2.0, 8.0],
                                                        abs=1e-12)

    def test_alpha_mixed_polynomial(self):
        spec = BaseSpectrum(beta=turns(0.0, 1.0, 0.5))
        assert alpha_sequence(spec, 3) == pytest.approx([0.0, 1.5, 4.0],
                                                        abs=1e-12)

    @pytest.mark.parametrize("spec", [
        BaseSpectrum(beta=turns(0.3, 1.0, 0.5), hbar=0.7),
        BaseSpectrum(beta=(Fraction(-1, 3), GOLDEN, Fraction(5, 7),
                           Fraction(-2, 11)), hbar=1.3),
    ])
    def test_alpha_matches_fraction_sum(self, spec):
        scale = TWO_PI * spec.hbar
        expected = np.array([
            scale * float(sum(c * n**j for j, c in enumerate(spec.beta)))
            for n in range(500)])
        assert np.array_equal(alpha_sequence(spec, 500), expected)


class TestThetaSequence:
    def test_quarter_rotation(self):
        spec = BaseSpectrum(beta=(Fraction(0), Fraction(1, 4)))
        th = theta_sequence(spec, 6)
        expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 0.0,
                    math.pi / 2]
        assert th.values == pytest.approx(expected, abs=1e-12)

    def test_integer_turns_collapse(self):
        spec = BaseSpectrum(beta=(Fraction(0), Fraction(1)))
        th = theta_sequence(spec, 5)
        assert th.values == pytest.approx([0.0] * 5, abs=0)

    def test_golden_square_phase(self):
        spec = BaseSpectrum(beta=(Fraction(0), Fraction(0), GOLDEN))
        th = theta_sequence(spec, 3)
        assert th.values[2] == pytest.approx(TWO_PI * 0.47213595499958,
                                             abs=1e-11)

    def test_period_scales_phase(self):
        spec = BaseSpectrum(beta=(Fraction(0), Fraction(1, 8)),
                            period=Fraction(2))
        th = theta_sequence(spec, 4)
        assert th.values == pytest.approx([0.0, math.pi / 2, math.pi,
                                           3 * math.pi / 2], abs=1e-12)

    def test_rational_frequency_is_periodic(self):
        spec = BaseSpectrum(beta=(Fraction(0), Fraction(3, 7)))
        th = theta_sequence(spec, 70)
        assert (th.unit_values[:7] == th.unit_values[7:14]).all()

    def test_irrational_never_repeats(self):
        spec = BaseSpectrum.harmonic(GOLDEN)
        th = theta_sequence(spec, 100_000)
        assert np.unique(th.unit_values).size == 100_000

    def test_values_in_range(self):
        spec = BaseSpectrum.harmonic(GOLDEN)
        th = theta_sequence(spec, 1000)
        assert (th.values >= 0.0).all() and (th.values < TWO_PI).all()


class TestPowerLawState:
    def test_two_point_normalisation(self):
        st_ = power_law_state(0.75, 3, {1, 2})
        c = abs(st_.coefficients[1])
        assert c == pytest.approx((1 + 2 ** (-1.5)) ** (-0.5), abs=1e-12)
        assert abs(st_.coefficients[2]) == pytest.approx(c * 2 ** (-0.75))
        assert st_.coefficients[0] == 0

    def test_single_point_support(self):
        st_ = power_law_state(1.0, 2, {1})
        assert abs(st_.coefficients[1]) == pytest.approx(1.0)

    def test_large_support_unit_norm(self):
        st_ = power_law_state(0.6, 10_000, range(1, 10_000, 2))
        assert abs(np.sum(np.abs(st_.coefficients) ** 2) - 1.0) < 1e-12

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            power_law_state(0.5, 10)
        with pytest.raises(ValueError):
            power_law_state(0.45, 10)
        with pytest.raises(ValueError):
            power_law_state(1.01, 10)

    def test_index_zero_excluded(self):
        with pytest.raises(ValueError):
            power_law_state(0.75, 4, {0, 1})

    def test_full_support_variant(self):
        st_ = full_support_state(0.75, 8)
        assert (np.abs(st_.coefficients) > 0).all()
        assert np.sum(np.abs(st_.coefficients) ** 2) == pytest.approx(1.0)

    def test_states_are_immutable(self):
        st_ = power_law_state(0.75, 8)
        with pytest.raises((ValueError, RuntimeError)):
            st_.coefficients[1] = 0.0
        theta = theta_sequence(BaseSpectrum.harmonic(GOLDEN), 8)
        with pytest.raises((ValueError, RuntimeError)):
            theta.values[0] = 1.0


def modulo_distance(x, angles):
    """circle_distance as it was written with numpy's ``%``: the oracle of
    the in-place fmod reduction."""
    d = np.abs(np.asarray(angles, dtype=np.float64) - x) % TWO_PI
    return np.minimum(d, TWO_PI - d)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


class TestCircleDistance:
    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(_ANY_FLOAT, st.floats(-1e18, 1e18),
                       st.sampled_from([0.0, -0.0, TWO_PI, -TWO_PI, math.pi])),
           angles=st.lists(st.one_of(_ANY_FLOAT, st.floats(-50.0, 50.0),
                                     st.sampled_from([0.0, -0.0, TWO_PI])),
                           min_size=1, max_size=40))
    @example(x=-0.0, angles=[0.0, -0.0, TWO_PI])
    @example(x=1e300, angles=[-1e300, math.inf, -math.inf, math.nan])
    @example(x=math.nan, angles=[1.0])
    @example(x=math.inf, angles=[math.inf, 3.0])
    @example(x=-1.0645712419042719e+297, angles=[1.79769313485167e+308])
    def test_equals_modulo_reduction_bit_for_bit(self, x, angles):
        # a difference past the float range overflows to inf on both sides
        with np.errstate(invalid="ignore", over="ignore"):
            fast = circle_distance(x, np.array(angles))
            slow = modulo_distance(x, angles)
        assert np.array_equal(fast, slow, equal_nan=True)
        assert np.array_equal(np.signbit(fast), np.signbit(slow))

    def test_caller_array_untouched(self):
        theta = theta_sequence(BaseSpectrum.harmonic(GOLDEN), 64)
        angles = np.linspace(-10.0, 20.0, 64)
        before = angles.copy()
        circle_distance(2.0, angles)
        assert np.array_equal(angles, before)
        # theta.values is read-only: a write into it would raise
        assert np.array_equal(circle_distance(2.0, theta.values),
                              modulo_distance(2.0, theta.values))


class TestDerivedSupport:
    """Each state family's nonzero coefficients sit exactly on its index
    set."""

    @pytest.mark.parametrize("gamma", [0.6, 0.75, 1.0])
    @pytest.mark.parametrize("dim", [2, 3, 50, 1001])
    def test_power_law_default(self, gamma, dim):
        state = power_law_state(gamma, dim)
        assert np.array_equal(np.flatnonzero(state.coefficients),
                              np.arange(1, dim))

    @pytest.mark.parametrize("support", [{1}, {1, 2}, {3, 1, 2},
                                         range(2, 99, 3), {1, 4, 9, 16}])
    def test_power_law_explicit(self, support):
        state = power_law_state(0.75, 100, support)
        assert np.array_equal(np.flatnonzero(state.coefficients),
                              sorted(support))

    def test_full_support(self):
        state = full_support_state(0.75, 64)
        assert np.all(state.coefficients != 0)

    @pytest.mark.parametrize("dim", [30, 100, 200])
    def test_truncation(self, dim):
        for state in (power_law_state(0.75, 100),
                      power_law_state(0.6, 100, range(1, 100, 4))):
            cut = truncate_state(state, dim)
            assert np.array_equal(np.flatnonzero(cut.coefficients),
                                  np.flatnonzero(state.coefficients[:dim]))

    @pytest.mark.parametrize("n_states", [1, 2, 3])
    def test_orthonormal_ensemble(self, n_states):
        ens = orthonormal_ensemble(0.75, n_states, 40, [1.0] * n_states)
        for k, state in enumerate(ens.states):
            assert np.array_equal(np.flatnonzero(state.coefficients),
                                  np.arange(k + 1, 40, n_states))

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty support"):
            KickState(coefficients=np.zeros(3, dtype=complex))


class TestEnsemble:
    def test_interleaved_supports(self):
        ens = orthonormal_ensemble(0.75, 2, 5, [1.0, 2.0])
        assert np.array_equal(np.flatnonzero(ens.states[0].coefficients),
                              [1, 3])
        assert np.array_equal(np.flatnonzero(ens.states[1].coefficients),
                              [2, 4])

    def test_single_state_reduces_to_power_law(self):
        ens = orthonormal_ensemble(0.75, 1, 6, [1.0])
        direct = power_law_state(0.75, 6)
        assert np.allclose(ens.states[0].coefficients, direct.coefficients)

    def test_gram_identity(self):
        ens = orthonormal_ensemble(0.6, 3, 100, [1.0, 1.0, 1.0])
        vecs = [s.coefficients for s in ens.states]
        for k in range(3):
            for l in range(3):
                expected = 1.0 if k == l else 0.0
                assert abs(np.vdot(vecs[k], vecs[l])) == pytest.approx(
                    expected, abs=1e-12)

    def test_dim_too_small(self):
        with pytest.raises(EnsembleError):
            orthonormal_ensemble(0.75, 5, 5, [1.0] * 5)

    def test_overlapping_states_rejected(self):
        a = KickState(coefficients=np.array([1.0, 0.0], dtype=complex))
        b = KickState(coefficients=np.array([1.0, 1.0], dtype=complex)
                      / math.sqrt(2))
        with pytest.raises(EnsembleError):
            KickEnsemble(states=(a, b), strengths=(1.0, 1.0))


class TestBInverse:
    def test_single_term(self):
        state = KickState(coefficients=np.array([1.0 + 0j]))
        theta = ThetaSequence(unit_values=np.array([0.0]))
        assert b_inverse_partial(math.pi, state, theta, 1) == pytest.approx(1.0)

    def test_pole_marker(self):
        state = KickState(coefficients=np.array([1.0 + 0j]))
        theta = ThetaSequence(unit_values=np.array([0.0]))
        assert b_inverse_partial(0.0, state, theta, 1) == math.inf

    def test_two_terms(self):
        value = b_inverse_partial(math.pi / 2, equal_pair_state(),
                                  theta_zero_pi(), 2)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_zero_weight_never_poles(self):
        state = KickState(coefficients=np.array([0.0, 1.0], dtype=complex))
        theta = theta_zero_pi()  # theta_0 = 0 has zero weight
        value = b_inverse_partial(0.0, state, theta, 2)
        assert isinstance(value, float)

    def test_nondecreasing_in_terms(self):
        spec = BaseSpectrum.harmonic(GOLDEN)
        theta = theta_sequence(spec, 200)
        state = power_law_state(0.75, 200)
        x = 1.2345
        values = [b_inverse_partial(x, state, theta, n)
                  for n in range(1, 201, 10)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestPointMass:
    def test_antipodal_phase(self):
        assert point_mass(math.pi, 1 / 0.3) == pytest.approx(0.3)

    def test_quarter_phase(self):
        assert point_mass(math.pi / 2, 1 / 0.2) == pytest.approx(0.4)

    def test_divergent_carries_no_mass(self):
        assert point_mass(math.pi, math.inf) == 0.0

    def test_trivial_kick_rejected(self):
        with pytest.raises(TrivialPerturbationError):
            point_mass(2 * math.pi, 2.0)

    @given(st.floats(min_value=0.05, max_value=TWO_PI - 0.05),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=100)
    def test_matches_complex_prefactor(self, lam, b_inv):
        # oracle: -4(1+mu)/mu^2 with mu = e^{i lam} - 1, evaluated in complex
        # arithmetic, times B(x)
        mu = complex(math.cos(lam) - 1.0, math.sin(lam))
        oracle = (-4.0 * (1.0 + mu) / mu**2).real / b_inv
        assert point_mass(lam, b_inv) == pytest.approx(oracle, rel=1e-11)

    def test_roundtrip_identity(self):
        for lam in (0.3, 1.0, 2.0, math.pi, 5.0):
            mass = point_mass(lam, 1 / 0.17)
            assert mass * math.sin(lam / 2) ** 2 == pytest.approx(0.17,
                                                                  rel=1e-12)


class TestCotangentResidual:
    def test_two_level_root(self):
        res = cotangent_residual(math.pi / 2, equal_pair_state(),
                                 theta_zero_pi(), math.pi)
        assert abs(res) < 1e-12

    def test_two_level_off_root(self):
        res = cotangent_residual(math.pi / 4, equal_pair_state(),
                                 theta_zero_pi(), math.pi)
        assert abs(res) > 0.5

    def test_single_level_root_at_shifted_phase(self):
        state = KickState(coefficients=np.array([1.0 + 0j]))
        theta = ThetaSequence(unit_values=np.array([0.0]))
        lam = 1.234
        assert cotangent_residual(lam, state, theta, lam) == pytest.approx(0.0)

    def test_pole_names_index(self):
        with pytest.raises(PoleError) as err:
            cotangent_residual(math.pi, equal_pair_state(), theta_zero_pi(),
                               1.0)
        assert err.value.index == 1

    @staticmethod
    def golden_setup(dim=4096):
        return (full_support_state(0.75, dim),
                theta_sequence(BaseSpectrum.harmonic(GOLDEN), dim))

    def test_array_form_matches_scalar_calls(self):
        # 4096 poles make 16 points a tile: 50 points span four tiles
        state, theta = self.golden_setup()
        xs = np.random.default_rng(17).uniform(0.0, TWO_PI, 50)
        batch = cotangent_residual(xs, state, theta, 1.0)
        scalar = [cotangent_residual(float(x), state, theta, 1.0) for x in xs]
        assert all(type(value) is float for value in scalar)
        assert batch.tobytes() == np.array(scalar).tobytes()

    def test_batch_pole_names_first_pole_hit(self):
        state, theta = self.golden_setup()
        xs = np.random.default_rng(18).uniform(0.0, TWO_PI, 50)
        xs[37] = theta.values[1234]  # in the third tile
        xs[45] = theta.values[7]
        with pytest.raises(PoleError) as err:
            cotangent_residual(xs, state, theta, 1.0)
        assert err.value.index == 1234
        with pytest.raises(PoleError) as err:
            cotangent_residual(np.array([math.pi / 4, math.pi]),
                               equal_pair_state(), theta_zero_pi(), 1.0)
        assert err.value.index == 1

    @staticmethod
    def direct_sum(xs, state, theta, lam):
        """f(x), the sum of its term magnitudes and f'(x) at each point, with
        a sine and a cosine per term, summed by math.fsum."""
        w = state.weights()[:len(theta)]
        keep = w > 0.0
        half = 0.5 * (xs[:, None] - theta.values[:w.size][keep])
        terms = w[keep] * (np.cos(half) / np.sin(half))
        slopes = -0.5 * w[keep] / np.sin(half) ** 2
        kick = -math.cos(0.5 * lam) / math.sin(0.5 * lam)
        return (np.array([math.fsum([*row, kick]) for row in terms]),
                np.array([math.fsum(np.abs(row)) + abs(kick) for row in terms]),
                np.array([math.fsum(row) for row in slopes]))

    @pytest.mark.parametrize("beta, dim", [
        pytest.param(GOLDEN, 64, id="golden-64"),
        pytest.param(GOLDEN, 512, id="golden-512"),
        pytest.param(Fraction(1, 3), 64, id="third-64"),
    ])
    def test_matches_direct_sum_at_roots(self, beta, dim):
        # the residual shares the solver's sums, so it is checked against an
        # independent sum at the same float x: within the rounding of the
        # terms and of x itself
        spec = BaseSpectrum.harmonic(beta)
        matrix = build_floquet(spec, orthonormal_ensemble(0.75, 1, dim, [1.0]),
                               dim)
        dec = eigen_decompose(matrix)
        roots = dec.eigenphases[dec.weights[0] > 0.0]
        state = matrix.ensemble.states[0]
        f = cotangent_residual(roots, state, matrix.theta, 1.0)
        f_ref, magnitude, slope = self.direct_sum(roots, state, matrix.theta,
                                                  1.0)
        bound = 8.0 * EPS * magnitude + np.abs(slope) * np.spacing(roots)
        assert np.all(np.abs(f - f_ref) <= bound)

    def test_poles_wrap_across_zero(self):
        # a point just below 2*pi is on the pole at 0, and a point just above
        # 0 is on the pole just below 2*pi
        with pytest.raises(PoleError) as err:
            cotangent_residual(TWO_PI - 1e-13, equal_pair_state(),
                               theta_zero_pi(), 1.0)
        assert err.value.index == 0
        theta = ThetaSequence(unit_values=np.array([0.25, 1.0 - 2.0**-53]))
        with pytest.raises(PoleError) as err:
            cotangent_residual(1e-13, equal_pair_state(), theta, 1.0)
        assert err.value.index == 1

    @pytest.mark.parametrize("k, lowest", [(7, 1), (9, 3), (11, 2)])
    def test_coincident_poles_name_lowest_index(self, k, lowest):
        # at beta = 1/3 the phases repeat with period 3; index 0 carries no
        # weight, so the pole at 0 is first weighted at index 3
        state = power_law_state(0.75, 12)
        theta = theta_sequence(BaseSpectrum.harmonic(Fraction(1, 3)), 12)
        for x in (theta.values[k], np.array([1.0, theta.values[k]])):
            with pytest.raises(PoleError) as err:
                cotangent_residual(x, state, theta, 1.0)
            assert err.value.index == lowest

    def test_shift_by_two_pi(self):
        state, theta = self.golden_setup(64)
        rng = np.random.default_rng(19)
        xs = np.concatenate([rng.uniform(0.0, TWO_PI, 20),
                             theta.values[[5, 17, 40]] + 1e-7])
        f = cotangent_residual(xs, state, theta, 1.0)
        _, magnitude, slope = self.direct_sum(xs, state, theta, 1.0)
        for shift in (TWO_PI, -TWO_PI, 2.0 * TWO_PI):
            shifted = xs + shift
            bound = (16.0 * EPS * magnitude
                     + np.abs(slope) * np.spacing(np.abs(shifted)))
            assert np.all(np.abs(cotangent_residual(shifted, state, theta, 1.0)
                                 - f) <= bound)
            with pytest.raises(PoleError) as err:
                cotangent_residual(theta.values[17] + shift, state, theta, 1.0)
            assert err.value.index == 17

    @pytest.mark.parametrize("x", [1.0, np.array([1.0, 2.0])],
                             ids=["scalar", "array"])
    def test_no_weight_in_window(self, x):
        # the only weight sits at index 2, past the two phases
        state = KickState(coefficients=np.array([0, 0, 1], dtype=complex))
        with pytest.raises(ValueError, match="no weight inside the phase"):
            cotangent_residual(x, state, theta_zero_pi(), 1.0)


class TestGammaWindow:
    def test_reference_values(self):
        for j, eta, hi in ((1, 1.0, 1.0), (2, 1.0, 0.75),
                           (3, 2.0, 0.5 + 1.0 / 12.0)):
            window = gamma_window(j, eta)
            assert (window.lo, window.hi) == (0.5, hi)

    def test_membership_is_open(self):
        window = gamma_window(1, 1.0)
        assert 0.75 in window
        assert 0.5 not in window
        assert 1.0 not in window

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_window(0, 1.0)
        with pytest.raises(ValueError):
            gamma_window(1, 0.9)
