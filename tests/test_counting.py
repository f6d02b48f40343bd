import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kickspec.counting as counting_mod
import kickspec.spectral as spectral_mod
from kickspec.counting import (
    BInverseBounds,
    b_lower_bounds,
    bourget_half_width,
    count_interval,
    count_set_S,
    count_set_bourget,
    default_x_grid,
    divergence_scan,
    gamma_sweep,
    make_interval,
)
from kickspec.equidistribution import (
    SequenceSpec,
    discrepancy_exact,
    sequence_points,
)
from kickspec.errors import IntervalRangeError, ResourceLimitError, ToleranceError
from kickspec.rationals import RationalApprox, golden_ratio
from kickspec.spectral import (
    POLE_TOL,
    BaseSpectrum,
    KickState,
    ThetaSequence,
    b_inverse_partial,
    circle_distance,
    full_support_state,
    power_law_state,
    theta_sequence,
)

TWO_PI = 2.0 * math.pi
GOLDEN = golden_ratio(200)


class TestMakeInterval:
    def test_combescure_reference(self):
        j = make_interval(math.pi, 16, 0.75, "combescure")
        assert j.lower == pytest.approx(0.375)
        assert j.upper == pytest.approx(0.625)
        assert j.half_width == pytest.approx(0.125)

    def test_bourget_reference(self):
        j = make_interval(math.pi, 16, 0.75, "bourget")
        assert j.half_width == pytest.approx(
            16 ** (-0.5) / math.sqrt(math.log(16.0)), rel=1e-12)
        assert j.half_width == pytest.approx(0.15014, abs=2e-5)

    def test_spillage_rejected(self):
        with pytest.raises(IntervalRangeError):
            make_interval(0.05, 4, 0.6)

    def test_bourget_needs_log_above_zero(self):
        with pytest.raises(ValueError):
            make_interval(math.pi, 2, 0.75, "bourget")


class TestCountInterval:
    def test_half_open_semantics(self):
        j = make_interval(0.25 * TWO_PI, 100, 0.5)  # [0.15, 0.35)
        assert j.lower == pytest.approx(0.15)
        assert count_interval([0.1, 0.2, 0.3], j) == 2
        assert count_interval([0.15, 0.35], j) == 1  # left in, right out

    def test_full_interval_counts_everything(self):
        pts = np.linspace(0.2, 0.8, 50)
        j = make_interval(math.pi, 4, 0.5)  # half-width 1/2: exactly [0, 1)
        assert (j.lower, j.upper) == (0.0, 1.0)
        assert count_interval(pts, j) == 50

    @given(st.lists(st.floats(0, 1, exclude_max=True, allow_nan=False),
                    min_size=1, max_size=200),
           st.floats(1.0, 5.0), st.integers(10, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_scan(self, pts, x, n):
        try:
            j = make_interval(x, n, 0.7)
        except IntervalRangeError:
            return
        brute = sum(1 for p in pts if j.lower <= p < j.upper)
        assert count_interval(pts, j) == brute

    def test_matches_exhaustive_scan_at_scale(self):
        pts = sequence_points(SequenceSpec(j=1, beta=GOLDEN), 100_000)
        j = make_interval(2.0, 50, 0.7)
        brute = sum(1 for p in pts if j.lower <= p < j.upper)
        assert count_interval(pts, j) == brute


class TestCountSetS:
    def test_constructed_hit(self):
        coeffs = np.zeros(5, dtype=complex)
        coeffs[3] = 0.5
        coeffs[1] = math.sqrt(1 - 0.25)
        state = KickState(coefficients=coeffs)
        theta = ThetaSequence(
            unit_values=np.array([0.9, 0.55, 0.9, 2.0 / TWO_PI, 0.9]))
        # index 3: |x - 2.0| = 0.3 <= 0.5 counts; index 1 is far
        assert count_set_S(2.3, state, theta, 5) == 1

    def test_no_window_reaches(self):
        state = power_law_state(0.75, 50)
        theta = theta_sequence(BaseSpectrum.harmonic(Fraction(1, 2)), 50)
        # thetas are {0, pi}; x sits a quarter turn away from both
        assert count_set_S(math.pi / 2, state, theta, 50) == 0

    def test_matches_brute_force_scan(self):
        spec = BaseSpectrum.harmonic(GOLDEN.as_fraction())
        n = 10_000
        theta = theta_sequence(spec, n)
        state = power_law_state(0.75, n)
        x = 1.0
        fast = count_set_S(x, state, theta, n)
        brute = 0
        for m in range(n):
            a = abs(state.coefficients[m])
            if a == 0:
                continue
            d = abs(x - theta.values[m]) % TWO_PI
            d = min(d, TWO_PI - d)
            if d <= a:
                brute += 1
        assert fast == brute

    def test_circular_distance_wraps(self):
        assert circle_distance(0.1, np.array([TWO_PI - 0.1]))[0] == \
            pytest.approx(0.2)


def first_cell(spec, n, variant="combescure"):
    """The (x = pi, gamma = 0.75, N = n) cell of a two-size scan."""
    return divergence_scan(spec, 0.75, [math.pi], [n, 2 * n],
                           variant=variant).cells[0]


class TestInequalityCheck:
    def test_hand_counted_quarter_cycle(self):
        # beta = 1/4: points cycle 1/4, 1/2, 3/4, 0; J = [0.375, 0.625)
        spec = SequenceSpec(j=1, beta=RationalApprox(1, 4))
        report = first_cell(spec, 16)
        assert report.a_count == 4  # the four points at 1/2
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs == pytest.approx(16 * 0.25, abs=1e-12)

    def test_hand_counted_third_cycle(self):
        # beta = 1/3: no point ever lands inside [0.375, 0.625)
        spec = SequenceSpec(j=1, beta=RationalApprox(1, 3))
        report = first_cell(spec, 16)
        assert report.a_count == 0
        assert report.lhs == pytest.approx(2 * 16 ** 0.25, abs=1e-12)
        assert report.holds

    def test_golden_large(self):
        spec = SequenceSpec(j=1, beta=GOLDEN)
        report = first_cell(spec, 4096)
        assert report.holds
        assert report.lhs <= report.rhs

    def test_bourget_variant(self):
        spec = SequenceSpec(j=2, beta=GOLDEN)
        report = first_cell(spec, 512, variant="bourget")
        assert report.holds


def one_pass_bounds(x, state, theta, n):
    """b_lower_bounds of one cell, from the window of the whole state and
    phase sequence, as the sweep passes it."""
    window = spectral_mod._CircleWindow.over(x, theta.values,
                                             np.abs(state.coefficients))
    return b_lower_bounds(window, state.gamma, n)


class TestBLowerBounds:
    def test_per_term_bound(self):
        spec = BaseSpectrum.harmonic(GOLDEN.as_fraction())
        n = 10_000
        theta = theta_sequence(spec, n)
        state = power_law_state(0.6, n)
        x = 1.0
        bounds = one_pass_bounds(x, state, theta, n)
        s = count_set_S(x, state, theta, n)
        assert bounds.s_count == s
        assert bounds.per_term_bound == 4.0 * s
        assert bounds.b_inverse >= bounds.per_term_bound
        assert bounds.b_inverse >= bounds.widened_bound
        assert bounds.widened_bound > 0

    def test_empty_set_gives_zero_bound(self):
        state = power_law_state(0.75, 40)
        theta = theta_sequence(BaseSpectrum.harmonic(Fraction(1, 2)), 40)
        bounds = one_pass_bounds(math.pi / 2, state, theta, 40)
        assert bounds.per_term_bound == 0.0

    @given(st.floats(0.3, TWO_PI - 0.3), st.integers(30, 400))
    @settings(max_examples=40, deadline=None)
    def test_per_term_bound_property(self, x, n):
        spec = BaseSpectrum.harmonic(GOLDEN.as_fraction())
        theta = theta_sequence(spec, n)
        state = power_law_state(0.75, n)
        value = b_inverse_partial(x, state, theta, n)
        assert value >= 4.0 * count_set_S(x, state, theta, n) - 1e-9


# The three-pass evaluation that b_lower_bounds replaced: each quantity
# recomputes |a_n| and the circle distances (reduced with numpy's %) of the
# prefix, and B^-1 takes sin of the weighted subset only.  The one-pass code,
# which reads prefixes of one view of the whole sequence, must agree with it
# bit for bit.
def modulo_distance(x, angles):
    d = np.abs(np.asarray(angles, dtype=np.float64) - x) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def three_pass_s_count(x, state, theta, n):
    window = np.abs(state.coefficients[:n])
    dist = modulo_distance(x, theta.values[:n])
    return int(np.count_nonzero((window > 0.0) & (dist <= window)))


def three_pass_wide_count(x, theta, n, gamma):
    window = TWO_PI * bourget_half_width(n, gamma)
    dist = modulo_distance(x, theta.values[:n])
    return int(np.count_nonzero(dist <= min(window, math.pi)))


def three_pass_b_inverse(x, state, theta, n):
    w = np.abs(state.coefficients[:n]) ** 2
    mask = w > 0.0
    d = modulo_distance(x, theta.values[:n])
    hits = np.nonzero(mask & (d < POLE_TOL))[0]
    if hits.size:
        return math.inf
    s = np.sin(0.5 * d[mask])
    return float(np.sum(w[mask] / (s * s)))


def three_pass_bounds(x, state, theta, n):
    s_count = three_pass_s_count(x, state, theta, n)
    per_term = 4.0 * s_count
    s_wide = three_pass_wide_count(x, theta, n, state.gamma)
    widened = (s_wide / math.pi**2) * math.log(n) / float(n) ** (2.0 * (1.0 - state.gamma))
    value = three_pass_b_inverse(x, state, theta, n)
    if value < per_term or value < widened:
        raise ToleranceError("B^-1 partial sum below a lower bound")
    return BInverseBounds(s_count=s_count, per_term_bound=per_term,
                          widened_bound=widened, b_inverse=value)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ToleranceError as exc:
        return type(exc)


_N = 3000
_THETA = theta_sequence(BaseSpectrum.harmonic(GOLDEN.as_fraction()), _N)


def _tiny_weight_state():
    # every seventh amplitude is 1e-170: positive, so it opens an S(x)
    # window, but its square underflows to a zero weight in B^-1
    coeffs = power_law_state(0.75, _N).coefficients.copy()
    coeffs[5::7] = 1e-170
    coeffs /= math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
    return KickState(coefficients=coeffs, gamma=0.75)


_STATES = (power_law_state(0.6, _N),
           power_law_state(0.75, _N, range(1, _N, 3)),
           _tiny_weight_state(),
           full_support_state(1.0, _N))


class TestOnePassAgainstThreePasses:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(0, len(_STATES) - 1),
           x=st.one_of(st.floats(0.0, TWO_PI, exclude_max=True),
                       st.floats(0.0, 1e-6), st.floats(TWO_PI - 1e-6, TWO_PI),
                       st.floats(-20.0, 20.0),
                       st.integers(0, _N - 1).map(lambda m: _THETA.values[m])),
           n=st.one_of(st.integers(3, _N), st.sampled_from([3, _N])))
    def test_bit_identical(self, k, x, n):
        state = _STATES[k]
        assert outcome(one_pass_bounds, x, state, _THETA, n) == \
            outcome(three_pass_bounds, x, state, _THETA, n)
        assert count_set_S(x, state, _THETA, n) == \
            three_pass_s_count(x, state, _THETA, n)
        assert count_set_bourget(x, _THETA, n, 0.7) == \
            three_pass_wide_count(x, _THETA, n, 0.7)
        assert b_inverse_partial(x, state, _THETA, n) == \
            three_pass_b_inverse(x, state, _THETA, n)

    @pytest.mark.parametrize("k", range(len(_STATES)))
    def test_wrap_and_full_length(self, k):
        state = _STATES[k]
        for x in (0.0, 1e-300, 5e-7, TWO_PI - 5e-7, np.nextafter(TWO_PI, 0.0),
                  1.0, math.pi):
            for n in (3, 4, 1000, _N - 1, _N):
                assert outcome(one_pass_bounds, x, state, _THETA, n) == \
                    outcome(three_pass_bounds, x, state, _THETA, n)
                assert b_inverse_partial(x, state, _THETA, n) == \
                    three_pass_b_inverse(x, state, _THETA, n)

    def test_pole_returns_divergent(self):
        state = _STATES[0]
        x = float(_THETA.values[17])
        bounds = one_pass_bounds(x, state, _THETA, _N)
        assert bounds.b_inverse == math.inf
        assert bounds == three_pass_bounds(x, state, _THETA, _N)

    def test_zero_weight_is_no_pole(self):
        # theta_0 = 0 carries a_0 = 0; the tiny-weight state also opens an
        # S(x) window of width 1e-170 at theta_5 while its weight is zero
        for state, m in ((_STATES[0], 0), (_STATES[2], 5)):
            x = float(_THETA.values[m])
            bounds = one_pass_bounds(x, state, _THETA, _N)
            assert isinstance(bounds.b_inverse, float)
            assert bounds == three_pass_bounds(x, state, _THETA, _N)
        assert one_pass_bounds(float(_THETA.values[5]), _STATES[2], _THETA,
                               _N).s_count >= 1

    @pytest.mark.parametrize("n, message", [
        (0, "n must be at least 1"),
        (_N + 1, "n exceeds the available state or phase length"),
        (2, "bourget window needs n >= 3"),
    ])
    def test_validation_order(self, n, message):
        with pytest.raises(ValueError) as info:
            one_pass_bounds(1.0, _STATES[0], _THETA, n)
        assert str(info.value) == message

    def test_needs_power_law_gamma(self):
        # gamma is checked first, before the prefix length
        window = spectral_mod._CircleWindow.over(
            1.0, _THETA.values, np.abs(_STATES[0].coefficients))
        for gamma in (0.45, 1.5):
            with pytest.raises(ValueError, match="outside the divergent regime"):
                b_lower_bounds(window, gamma, 0)


class TestDivergenceScan:
    def test_golden_trend(self):
        spec = SequenceSpec(j=1, beta=GOLDEN)
        xs = default_x_grid(3, n_min=1000, gamma=0.75)
        sweep = divergence_scan(spec, 0.75, xs, [1000, 10_000, 100_000])
        assert all(label == "divergent-trend"
                   for label in sweep.labels.values())
        for x in xs:
            counts = [c.s_count for c in sweep.cells
                      if c.x == x and c.gamma == 0.75]
            assert list(counts) == sorted(counts)

    def test_rational_beta_is_bounded(self):
        spec = SequenceSpec(j=1, beta=RationalApprox(1, 3))
        xs = default_x_grid(3, n_min=100, gamma=0.75)
        sweep = divergence_scan(spec, 0.75, xs, [100, 1000, 10_000])
        labels = set(sweep.labels.values())
        assert "divergent-trend" not in labels
        assert "bounded" in labels

    def test_gamma_outside_regime_rejected(self):
        spec = SequenceSpec(j=1, beta=GOLDEN)
        with pytest.raises(ValueError):
            divergence_scan(spec, 0.45, [1.0], [100, 1000])

    def test_threads_do_not_change_results(self):
        spec = SequenceSpec(j=1, beta=GOLDEN)
        xs = default_x_grid(4, n_min=1000, gamma=0.75)
        seq = divergence_scan(spec, 0.75, xs, [1000, 10_000])
        par = divergence_scan(spec, 0.75, xs, [1000, 10_000], threads=4)
        assert seq.labels == par.labels
        for a, b in zip(seq.cells, par.cells):
            assert a == b

    def test_weighted_phase_is_a_pole_from_its_index_on(self):
        n_grid = [300, 1000, 1001, 3000]
        theta = theta_sequence(
            BaseSpectrum(beta=(Fraction(0), GOLDEN.as_fraction())),
            n_grid[-1] + 1)
        # theta_1001 = 2 pi {1001 phi}, near 1.30 pi, weighs in a prefix
        # of N + 1 phases once N >= 1001
        m = 1001
        x = float(theta.values[m])
        sweep = divergence_scan(SequenceSpec(j=1, beta=GOLDEN), 0.75, [x],
                                n_grid)
        assert [c.n for c in sweep.cells] == n_grid
        for cell in sweep.cells:
            if cell.n < m:
                assert math.isfinite(cell.b_inverse)
            else:
                assert cell.b_inverse == math.inf
        # theta_0 = 0 lies outside the scan's x range (0, 2*pi), so its
        # zero weight is checked on the window the sweep builds
        window = spectral_mod._CircleWindow.over(
            float(theta.values[0]), theta.values,
            spectral_mod._power_law_amplitudes(0.75, len(theta)))
        assert window.pole is None
        for n in n_grid:
            assert math.isfinite(b_lower_bounds(window, 0.75, n + 1).b_inverse)

    def test_every_cell_satisfies_inequality(self):
        spec = SequenceSpec(j=2, beta=GOLDEN)
        xs = default_x_grid(3, n_min=1000, gamma=0.6)
        sweep = divergence_scan(spec, 0.6, xs, [1000, 10_000])
        for cell in sweep.cells:
            assert cell.holds
            assert cell.lhs <= cell.rhs * (1 + 1e-9) + 1e-9


class TestGammaSweep:
    def test_gamma_grid_validation(self):
        with pytest.raises(ValueError):
            gamma_sweep(1, GOLDEN, [0.4], [1.0], [100, 1000])

    def test_j1_window_covers_standard_range(self):
        # gamma near 1 grows like N**(1-gamma) per decade, too slowly for the
        # doubling label on short grids, so only solidly-divergent exponents
        # are asserted here
        xs = default_x_grid(2, n_min=1000, gamma=0.55)
        sweep = gamma_sweep(1, GOLDEN, [0.55, 0.75, 0.95], xs,
                            [1000, 10_000, 100_000])
        for gamma in (0.55, 0.75):
            for x in xs:
                assert sweep.labels[(x, gamma)] == "divergent-trend"

    def test_gamma_one_allowed_in_sweeps(self):
        # the endpoint gamma = 1 runs (it is square-summable) but sits
        # outside the open window, so no growth assertion applies
        xs = default_x_grid(2, n_min=1000, gamma=1.0)
        sweep = gamma_sweep(1, GOLDEN, [1.0], xs, [1000, 10_000])
        assert all(cell.holds for cell in sweep.cells)


class TestSweepCore:
    def test_shared_inputs_built_once(self, monkeypatch):
        calls = {"theta": 0, "d_n": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(counting_mod, "theta_sequence",
                            counted("theta", counting_mod.theta_sequence))
        monkeypatch.setattr(counting_mod, "discrepancy_exact",
                            counted("d_n", counting_mod.discrepancy_exact))
        n_grid = [1000, 3000, 10_000]
        xs = default_x_grid(3, n_min=1000, gamma=0.6)
        sweep = gamma_sweep(1, GOLDEN, [0.6, 0.75, 0.9], xs, n_grid,
                            threads=2)
        assert len(sweep.cells) == 3 * len(xs) * len(n_grid)
        assert calls == {"theta": 1, "d_n": len(n_grid)}

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("variant", ["combescure", "bourget"])
    def test_cells_match_public_cell_functions(self, j, variant):
        gammas = (0.6, 0.8)
        n_grid = [500, 2000]
        xs = default_x_grid(2, n_min=n_grid[0], gamma=min(gammas),
                            variant=variant)
        sweep = gamma_sweep(j, GOLDEN, gammas, xs, n_grid,
                            variant=variant, threads=2)
        spec = SequenceSpec(j=j, beta=GOLDEN)
        base = BaseSpectrum(
            beta=tuple([Fraction(0)] * j + [GOLDEN.as_fraction()]))
        theta = theta_sequence(base, n_grid[-1] + 1)
        states = {g: power_law_state(g, n_grid[-1] + 1) for g in gammas}
        assert [(c.gamma, c.x, c.n) for c in sweep.cells] == \
            [(g, x, n) for g in gammas for x in xs for n in n_grid]
        for cell in sweep.cells:
            n = cell.n
            pts = sequence_points(spec, n)
            interval = make_interval(cell.x, n, cell.gamma, variant)
            a_count = count_interval(pts, interval)
            assert (cell.a_count, cell.lhs, cell.rhs) == \
                (a_count, abs(a_count - n * interval.length),
                 n * discrepancy_exact(pts).d_n)
            state = states[cell.gamma]
            assert cell.s_count == count_set_S(cell.x, state, theta, n + 1)
            assert cell.b_inverse == b_inverse_partial(cell.x, state, theta,
                                                       n + 1)

    def test_one_distance_pass_per_x(self, monkeypatch):
        calls = []
        fill = spectral_mod._fill_circle_distance

        def counted(x, angles, out, spare):
            calls.append(len(angles))
            return fill(x, angles, out, spare)

        monkeypatch.setattr(spectral_mod, "_fill_circle_distance", counted)
        n_grid = [500, 1000, 2000]
        xs = default_x_grid(3, n_min=n_grid[0], gamma=0.6)
        sweep = gamma_sweep(1, GOLDEN, [0.6, 0.8], xs, n_grid, threads=2)
        assert len(sweep.cells) == 2 * 3 * 3
        assert calls == [n_grid[-1] + 1] * 3

    def test_threads_never_change_a_result(self):
        gammas = (0.6, 0.8)
        n_grid = [300, 1000, 3000]
        theta = theta_sequence(
            BaseSpectrum(beta=(Fraction(0), GOLDEN.as_fraction())),
            n_grid[-1] + 1)
        # theta_4 = 2 pi {4 phi}, near 0.94 pi, carries weight in every
        # prefix: x on it is a pole of every cell of that x
        pole = float(theta.values[4])
        states = {g: power_law_state(g, n_grid[-1] + 1) for g in gammas}
        grid = default_x_grid(4, n_min=n_grid[0], gamma=min(gammas))
        # 1, 2, 3 and 5 x values: uneven chunks and more threads than x
        for xs in ((pole,), (grid[0], pole), (*grid[:2], pole),
                   (*grid, pole)):
            runs = [gamma_sweep(1, GOLDEN, gammas, xs, n_grid, threads=t)
                    for t in (1, 2, 3, 8)]
            for run in runs[1:]:
                assert run.cells == runs[0].cells
                assert run.labels == runs[0].labels
            for cell in runs[0].cells:
                state = states[cell.gamma]
                assert cell.s_count == count_set_S(cell.x, state, theta,
                                                   cell.n + 1)
                assert cell.b_inverse.hex() == b_inverse_partial(
                    cell.x, state, theta, cell.n + 1).hex()
            on_pole = [c for c in runs[0].cells if c.x == pole]
            assert len(on_pole) == len(gammas) * len(n_grid)
            for cell in on_pole:
                assert cell.b_inverse == math.inf == b_inverse_partial(
                    pole, states[cell.gamma], theta, cell.n + 1)

    @pytest.mark.parametrize("threads, sizes", [
        (1, [5]), (2, [3, 2]), (3, [2, 2, 1]), (8, [1] * 5)])
    def test_each_chunk_refills_one_view(self, threads, sizes, monkeypatch):
        seen = []
        fill = spectral_mod._CircleWindow.fill_x

        def recorded(window, x, angles):
            seen.append((window, x))
            fill(window, x, angles)

        monkeypatch.setattr(spectral_mod._CircleWindow, "fill_x", recorded)
        xs = default_x_grid(5, n_min=300, gamma=0.6)
        gamma_sweep(1, GOLDEN, (0.6, 0.8), xs, [300, 1000], threads=threads)
        # seen holds every window, so no two chunks share an id
        chunks = {}
        for window, x in seen:
            chunks.setdefault(id(window), []).append(x)
        cuts = np.cumsum([0] + sizes)
        assert sorted(chunks.values()) == sorted(
            list(xs[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))

    def test_repeated_x_rejected_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("theta built for a grid with a repeat")

        monkeypatch.setattr(counting_mod, "theta_sequence", fail)
        with pytest.raises(ValueError, match="x grid repeats the value 2.0"):
            divergence_scan(SequenceSpec(j=1, beta=GOLDEN), 0.75,
                            [2.0, 3.0, 2.0], [1000, 3000])

    def test_gamma_outside_regime_rejected_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("theta built for a gamma outside (1/2, 1]")

        monkeypatch.setattr(counting_mod, "theta_sequence", fail)
        with pytest.raises(ValueError, match="outside the divergent regime"):
            divergence_scan(SequenceSpec(j=1, beta=GOLDEN), 0.45,
                            [2.0, 3.0], [1000, 3000])

    def test_thread_limit_rejected_before_any_work(self, monkeypatch):
        import concurrent.futures

        def fail(*args, **kwargs):
            raise AssertionError("work started for a refused thread count")

        monkeypatch.setattr(counting_mod, "theta_sequence", fail)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", fail)
        with pytest.raises(ResourceLimitError, match="exceed the limit 64"):
            divergence_scan(SequenceSpec(j=1, beta=GOLDEN), 0.75,
                            [2.0, 3.0], [1000, 3000],
                            threads=counting_mod.MAX_THREADS + 1)
        # the buffers of four workers over 10^7 phases are charged
        # 10^7 * (16 + 10 + 4 * 25) bytes, above MAX_SWEEP_BYTES
        with pytest.raises(ResourceLimitError, match="1260000000 bytes"):
            divergence_scan(SequenceSpec(j=1, beta=GOLDEN), 0.75,
                            [2.0, 3.0, 4.0, 5.0], [1000, 9999999], threads=4)

    # x = 0.025 spills at N = 1000 (half-width 0.0056 around 0.0040) but
    # fits at N = 3000 (half-width 0.0025): the smallest N decides
    @pytest.mark.parametrize("x, error, message", [
        (7.0, ValueError, "strictly inside"),
        (0.025, IntervalRangeError, "spills outside"),
    ])
    def test_bad_x_rejected_before_any_work(self, x, error, message,
                                            monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("theta built for an x that cannot be counted")

        monkeypatch.setattr(counting_mod, "theta_sequence", fail)
        with pytest.raises(error, match=message):
            divergence_scan(SequenceSpec(j=1, beta=GOLDEN), 0.75,
                            [2.0, x], [1000, 3000])


class TestThetaSequenceBridge:
    def test_scan_phases_match_sequence_points(self):
        # the counting side lives on theta/2pi; for a monomial spectrum the
        # values at indices 1..N must be bit-identical to the number-theory
        # sequence (n**j beta), which is what the inequality rests on
        for j in (1, 2):
            spec = SequenceSpec(j=j, beta=GOLDEN)
            base = BaseSpectrum(
                beta=tuple([Fraction(0)] * j + [GOLDEN.as_fraction()]))
            theta = theta_sequence(base, 5001)
            pts = sequence_points(spec, 5000)
            assert (theta.unit_values[1:5001] == pts).all()


class TestDefaultXGrid:
    def test_deterministic_and_pole_free(self):
        xs1 = default_x_grid(5, n_min=1000, gamma=0.75)
        xs2 = default_x_grid(5, n_min=1000, gamma=0.75)
        assert xs1 == xs2
        assert all(0.0 < x < TWO_PI for x in xs1)

    def test_skips_spilling_values(self):
        xs = default_x_grid(5, n_min=1000, gamma=0.6)
        for x in xs:
            make_interval(x, 1000, 0.6)  # must not raise

    @pytest.mark.parametrize("variant", ["combescure", "bourget"])
    @pytest.mark.parametrize("n_min, gamma", [(10, 0.6), (30, 0.55),
                                              (100, 0.75), (1000, 0.6)])
    def test_never_spills(self, n_min, gamma, variant):
        # wide intervals (small n_min and gamma) make the filter skip up to
        # 5 in 6 candidates
        xs = default_x_grid(40, n_min=n_min, gamma=gamma, variant=variant)
        assert len(xs) == 40
        for x in xs:
            make_interval(x, n_min, gamma, variant)  # must not raise

    def test_spill_filter_is_required(self):
        with pytest.raises(TypeError):
            default_x_grid(5, n_min=1000)

    def test_count_respected(self):
        assert len(default_x_grid(7, n_min=1000, gamma=0.75)) == 7

    def test_count_limit(self, monkeypatch):
        assert len(default_x_grid(counting_mod.MAX_X_COUNT, n_min=1000,
                                  gamma=0.75)) == counting_mod.MAX_X_COUNT
        monkeypatch.setattr(counting_mod, "make_interval", None)
        with pytest.raises(ResourceLimitError):
            default_x_grid(counting_mod.MAX_X_COUNT + 1, n_min=1000,
                           gamma=0.75)
