import math
from fractions import Fraction

import numpy as np
import pytest

from kickspec import floquet
from kickspec.errors import (
    ProvenanceError,
    ResourceLimitError,
    TrivialPerturbationError,
)
from kickspec.floquet import (
    MAX_KICKS,
    _EPS,
    _RECORD_ELEMENTS,
    _secular_block,
    build_floquet,
    eigen_decompose,
    evolve,
    perturbation_trace_norm,
    truncate_state,
    wiener_average,
)
from kickspec.rationals import golden_ratio
from kickspec.spectral import (
    BaseSpectrum,
    KickEnsemble,
    KickState,
    _distinct_poles,
    _kick_cot,
    _secular_sums,
    alpha_sequence,
    b_inverse_partial,
    circle_distance,
    cotangent_residual,
    full_support_state,
    orthonormal_ensemble,
    point_mass,
    power_law_state,
    theta_sequence,
)

from test_floquet_oracle import dense_matrix

TWO_PI = 2.0 * math.pi
GOLDEN = golden_ratio(200).as_fraction()
HARMONIC = BaseSpectrum.harmonic(GOLDEN)


def two_level_setup():
    """U = diag(1, -1), psi = (1, 1)/sqrt(2), lambda/hbar = pi."""
    spec = BaseSpectrum(beta=(Fraction(0), Fraction(1, 2)))
    psi = KickState(coefficients=np.array([1.0, 1.0], dtype=complex)
                    / math.sqrt(2))
    ensemble = KickEnsemble(states=(psi,), strengths=(math.pi,))
    return spec, ensemble


def rank1_full(dim, gamma=0.75, strength=1.0):
    state = full_support_state(gamma, dim)
    return KickEnsemble(states=(state,), strengths=(strength,))


class TestBuildFloquet:
    def test_two_level_analytic(self):
        spec, ensemble = two_level_setup()
        v = build_floquet(spec, ensemble, 2)
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        assert np.allclose(dense_matrix(v), expected, atol=1e-12)

    def test_empty_ensemble_gives_bare_evolution(self):
        spec, _ = two_level_setup()
        empty = KickEnsemble(states=(), strengths=())
        v = build_floquet(spec, empty, 4)
        u = np.diag(np.exp(1j * theta_sequence(spec, 4).values))
        assert np.array_equal(dense_matrix(v), u)

    def test_unitarity_across_dims(self):
        for dim in (2, 16, 64):
            v = build_floquet(HARMONIC, rank1_full(dim), dim)
            entries = dense_matrix(v)
            gram = entries.conj().T @ entries
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12

    def test_rank2_unitarity(self):
        ens = orthonormal_ensemble(0.75, 2, 64, [1.0, 0.7])
        v = build_floquet(HARMONIC, ens, 64)
        assert v.unitarity_defect <= 1e-12

    def test_negative_strength_is_product_form(self):
        # exp(-i lam P) U = (I + (e^{-i lam} - 1) P) U for a projector P
        lam = 0.83
        ens = rank1_full(16, strength=-lam)
        v = build_floquet(HARMONIC, ens, 16)
        psi = ens.states[0].coefficients
        u = np.diag(np.exp(1j * theta_sequence(HARMONIC, 16).values))
        product = (np.eye(16) + (np.exp(-1j * lam) - 1.0)
                   * np.outer(psi, psi.conj())) @ u
        assert np.max(np.abs(dense_matrix(v) - product)) <= 1e-12
        assert v.kick_phases == (-lam,)

    def test_stores_only_underivable_parts(self):
        import dataclasses

        spec = BaseSpectrum.harmonic(GOLDEN, hbar=0.5)
        ens = orthonormal_ensemble(0.75, 2, 16, [1.0, -0.7])
        v = build_floquet(spec, ens, 16)
        assert [f.name for f in dataclasses.fields(v)] == \
            ["spectrum", "ensemble", "theta", "unitarity_defect"]
        assert v.dim == len(v.theta) == 16
        assert v.kick_phases == (2.0, -1.4)
        assert np.array_equal(v.u, np.exp(1j * v.theta.values))
        assert v.u is v.u and not v.u.flags.writeable

    def test_matches_direct_sum_of_r_k(self):
        # V = U + sum_k (e^{i lam_k} - 1) |psi_k><psi_k| U, assembled naively
        ens = orthonormal_ensemble(0.6, 2, 32, [1.1, 2.3])
        v = build_floquet(HARMONIC, ens, 32)
        u = np.diag(np.exp(1j * theta_sequence(HARMONIC, 32).values))
        direct = u.astype(complex).copy()
        for state, lam in zip(ens.states, ens.strengths):
            psi = state.coefficients
            direct += (np.exp(1j * lam) - 1.0) * np.outer(psi, psi.conj()) @ u
        assert np.allclose(dense_matrix(v), direct, atol=1e-12)

    def test_trivial_kick_rejected(self):
        with pytest.raises(TrivialPerturbationError):
            build_floquet(HARMONIC, rank1_full(8, strength=TWO_PI), 8)

    def test_near_trivial_kick_rejected_before_any_work(self, monkeypatch):
        import kickspec.floquet as floquet_mod

        def fail(*args, **kwargs):
            raise AssertionError("phases built for a no-op kick")

        # |sin(lambda/2)| = 7.5e-13 < POLE_TOL while |mu| = 1.5e-12: the
        # point-mass rule, not |mu|, decides that the kick is a no-op
        monkeypatch.setattr(floquet_mod, "theta_sequence", fail)
        with pytest.raises(TrivialPerturbationError):
            build_floquet(HARMONIC, rank1_full(8, strength=TWO_PI + 1.5e-12), 8)

    def test_dim_cap(self):
        with pytest.raises(ResourceLimitError):
            build_floquet(HARMONIC, rank1_full(8), 5000)

    @pytest.mark.parametrize("strength, hbar", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, 1e-320)])
    def test_non_finite_kick_phase_rejected(self, strength, hbar, monkeypatch):
        import kickspec.floquet as floquet_mod

        # rejected before the phases are computed
        monkeypatch.setattr(floquet_mod, "theta_sequence", None)
        spec = BaseSpectrum.harmonic(GOLDEN, hbar=hbar)
        with pytest.raises(ValueError, match="non-finite"):
            build_floquet(spec, rank1_full(8, strength=strength), 8)


class TestTruncateState:
    def test_renormalises(self):
        state = full_support_state(0.75, 64)
        cut = truncate_state(state, 16)
        assert np.sum(np.abs(cut.coefficients) ** 2) == pytest.approx(1.0)

    def test_pads_shorter_states(self):
        state = KickState(coefficients=np.array([1.0 + 0j]))
        padded = truncate_state(state, 4)
        assert padded.dim == 4
        assert padded.coefficients[0] == 1.0


class TestTraceNorm:
    def test_reference_values(self):
        assert perturbation_trace_norm(math.pi) == pytest.approx(2.0)
        assert perturbation_trace_norm(math.pi / 2) == pytest.approx(
            math.sqrt(2.0))
        assert perturbation_trace_norm(0.0) == 0.0

    def test_matches_singular_values(self):
        rng = np.random.default_rng(3)
        u = np.diag(np.exp(1j * theta_sequence(HARMONIC, 48).values))
        for _ in range(5):
            lam = float(rng.uniform(0.1, TWO_PI - 0.1))
            psi = rng.normal(size=48) + 1j * rng.normal(size=48)
            psi /= np.linalg.norm(psi)
            r_k = (np.exp(1j * lam) - 1.0) * np.outer(psi, psi.conj()) @ u
            singular = np.linalg.svd(r_k, compute_uv=False)
            assert np.sum(singular) == pytest.approx(
                perturbation_trace_norm(lam), abs=1e-10)
            # rank one: a single nonzero singular value
            assert singular[1] < 1e-12


class TestEigenDecompose:
    def test_two_level_phases_and_weights(self):
        spec, ensemble = two_level_setup()
        v = build_floquet(spec, ensemble, 2)
        dec = eigen_decompose(v)
        assert dec.eigenphases == pytest.approx([math.pi / 2, 3 * math.pi / 2],
                                                abs=1e-12)
        assert dec.weights[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_diagonal_case_recovers_theta(self):
        # without a kick the eigenphases are the one-period phases theta_n
        # and there is no kick state to weigh
        empty = KickEnsemble(states=(), strengths=())
        v = build_floquet(HARMONIC, empty, 8)
        dec = eigen_decompose(v)
        theta = theta_sequence(HARMONIC, 8)
        order = np.argsort(theta.values)
        assert dec.eigenphases == pytest.approx(theta.values[order],
                                                abs=1e-12)
        assert dec.weights.shape == (0, 8)

    def test_secular_equation_across_dims(self):
        for dim in (2, 16, 64):
            v = build_floquet(HARMONIC, rank1_full(dim), dim)
            dec = eigen_decompose(v)
            theta = theta_sequence(HARMONIC, dim)
            state = v.ensemble.states[0]
            assert len(dec.eigenphases) == dim
            worst = max(abs(cotangent_residual(float(x), state, theta, 1.0))
                        for x in dec.eigenphases)
            assert worst <= 1e-6

    def test_eigenphases_interlace_theta(self):
        dim = 16
        v = build_floquet(HARMONIC, rank1_full(dim), dim)
        dec = eigen_decompose(v)
        theta = np.sort(theta_sequence(HARMONIC, dim).values)
        phases = np.sort(dec.eigenphases)
        merged = np.sort(np.concatenate([theta, phases]))
        is_theta = np.isin(merged, theta)
        assert all(a != b for a, b in zip(is_theta, is_theta[1:]))

    def test_weight_completeness(self):
        ens = orthonormal_ensemble(0.6, 3, 48, [1.0, 0.5, 2.0])
        v = build_floquet(HARMONIC, ens, 48)
        dec = eigen_decompose(v)
        for k in range(3):
            assert abs(dec.weights[k].sum() - 1.0) <= 1e-10


def _sine_cosine_sums(poles, weights, origin, tau):
    """Oracle of ``spectral._secular_sums``: the same sums in one pass with a
    sine and a cosine per term, cot = cos/sin and 1/sin^2 = 1/(sin*sin)."""
    half = poles[origin, None] - poles[None, :]
    half -= np.rint(half)
    half = 0.5 * (TWO_PI * half + tau[:, None])
    s = np.sin(half)
    cot = weights * (np.cos(half) / s)
    inv_sq = weights / (s * s)
    rows = np.arange(tau.size)
    cot[rows, origin] = 0.0
    inv_sq[rows, origin] = 0.0
    return cot.sum(axis=1), np.abs(cot).sum(axis=1), inv_sq.sum(axis=1)


def _benchmark_operator(dim, strengths):
    if len(strengths) == 1:
        ensemble = rank1_full(dim, strength=strengths[0])
    else:
        ensemble = orthonormal_ensemble(0.75, len(strengths), dim, strengths)
    return build_floquet(HARMONIC, ensemble, dim)


# the three operators of the benchmark: spectrum at rank 1 and rank 4
# (dim 512) and dynamics (rank 1, dim 256)
RANK4_STRENGTHS = (3.135432, 4.384423, 5.381215, 4.383767)
BENCHMARK_SHAPES = [
    pytest.param(512, (1.0,), id="rank1-512"),
    pytest.param(512, RANK4_STRENGTHS, id="rank4-512"),
    pytest.param(256, (1.0,), id="rank1-256"),
]


class TestTangentSecularSums:
    @pytest.mark.parametrize("dim, strengths", BENCHMARK_SHAPES)
    def test_sums_match_sine_cosine_form(self, dim, strengths):
        # at each root, seen from the pole on its left: f within half the
        # solver's 8-ulp acceptance window, the other sums within 1e-14
        v = _benchmark_operator(dim, strengths)
        for state, phase in zip(v.ensemble.states, v.kick_phases):
            support = np.flatnonzero(state.coefficients)
            unit = v.theta.unit_values[support]
            weights = state.weights()[support]
            poles, merged, _, _ = _distinct_poles(unit, weights)
            roots = _secular_block(unit, weights, phase)[0][:poles.size]
            origin = np.arange(poles.size)
            tau = roots - TWO_PI * poles
            tau = (tau + math.pi) % TWO_PI - math.pi
            # the solver's f and scale also hold the kick's cot(lambda/2)
            cot_kick = _kick_cot(phase)
            f, scale, b_inv = _secular_sums(poles, merged, origin, tau)
            f_ref, scale_ref, b_inv_ref = _sine_cosine_sums(
                poles, merged, origin, tau)
            f, f_ref = f - cot_kick, f_ref - cot_kick
            scale, scale_ref = scale + abs(cot_kick), scale_ref + abs(cot_kick)
            assert np.all(np.abs(f - f_ref) <= 4.0 * _EPS * scale_ref)
            assert np.all(np.abs(scale - scale_ref) <= 1e-14 * scale_ref)
            assert np.all(np.abs(b_inv - b_inv_ref) <= 1e-14 * b_inv_ref)

    # At rank1-256 one root passes the residual test one Newton step later
    # under the tangent sums: its offset from the pole moves by 3.3e-14
    # relative, inside the acceptance window, and its weight by 3.4e-14.
    @pytest.mark.parametrize("dim, strengths, weight_rtol", [
        pytest.param(512, (1.0,), 1e-14, id="rank1-512"),
        pytest.param(512, RANK4_STRENGTHS, 1e-14, id="rank4-512"),
        pytest.param(256, (1.0,), 5e-14, id="rank1-256"),
    ])
    def test_matches_sine_cosine_sums(self, dim, strengths, weight_rtol,
                                      monkeypatch):
        v = _benchmark_operator(dim, strengths)
        dec = eigen_decompose(v)
        monkeypatch.setattr(floquet, "_secular_sums", _sine_cosine_sums)
        ref = eigen_decompose(v)
        # eigenphases lie in [0, 2*pi): their bit patterns order as they do
        ulps = np.abs(dec.eigenphases.view(np.int64)
                      - ref.eigenphases.view(np.int64))
        assert int(ulps.max()) <= 2
        assert np.all(np.abs(dec.weights - ref.weights)
                      <= weight_rtol * ref.weights)


class TestCrossPipeline:
    @pytest.mark.parametrize("dim", [64, 512])
    def test_sweep_point_mass_matches_solver_weight(self, dim):
        # the counting pipeline's B^-1 at each float root x_i gives the
        # solver's weight w_i; float x_i is ill-conditioned near a pole, so
        # the bound scales with ulp(x_i) over the distance d_i to the nearest
        # weighted pole
        v = build_floquet(HARMONIC, rank1_full(dim), dim)
        dec = eigen_decompose(v)
        state = v.ensemble.states[0]
        poles = v.theta.values[state.weights() > 0.0]
        weighted = dec.weights[0] > 0.0
        for x, w in zip(dec.eigenphases[weighted], dec.weights[0][weighted]):
            mass = point_mass(1.0, b_inverse_partial(float(x), state, v.theta,
                                                     dim))
            d = float(circle_distance(x, poles).min())
            assert abs(mass - w) <= (2.0 * np.spacing(x) / d + 1e-13) * w


class TestEvolve:
    def test_two_level_alternation(self):
        spec, ensemble = two_level_setup()
        v = build_floquet(spec, ensemble, 2)
        trace = evolve(v, ensemble.states[0], n_kicks=9)
        expected = [(1.0 + (-1.0) ** n) / 2.0 for n in range(10)]
        assert trace.survival() == pytest.approx(expected, abs=1e-12)
        assert abs(trace.amplitudes[0] - 1.0) <= 1e-12

    def test_kick_cap(self):
        spec, ensemble = two_level_setup()
        v = build_floquet(spec, ensemble, 2)
        with pytest.raises(ResourceLimitError):
            evolve(v, ensemble.states[0], n_kicks=MAX_KICKS + 1)

    def test_diagonal_no_heating(self):
        empty = KickEnsemble(states=(), strengths=())
        v = build_floquet(HARMONIC, empty, 16)
        state = full_support_state(0.75, 16)
        trace = evolve(v, state, n_kicks=50)
        assert np.ptp(trace.energies) <= 1e-9
        assert (np.abs(trace.survival() - np.abs(trace.amplitudes[0]) ** 2)
                <= 1.0).all()

    def test_energy_bounded_by_truncation(self):
        dim = 64
        v = build_floquet(HARMONIC, rank1_full(dim, strength=1.3), dim)
        trace = evolve(v, v.ensemble.states[0], n_kicks=2000)
        ceiling = np.max(alpha_sequence(HARMONIC, dim))
        assert (trace.energies <= ceiling + 1e-9).all()
        assert (np.abs(trace.amplitudes) <= 1.0 + 1e-10).all()

    def test_eigen_route_matches_repeated_multiplication(self):
        spec, ensemble = two_level_setup()
        dim = 8
        v = build_floquet(HARMONIC, rank1_full(dim, strength=0.9), dim)
        psi0 = v.ensemble.states[0].coefficients
        trace = evolve(v, v.ensemble.states[0], n_kicks=12)
        entries = dense_matrix(v)
        psi = psi0.copy()
        for n in range(1, 13):
            psi = entries @ psi
            c_n = np.vdot(psi0, psi)
            assert trace.amplitudes[n] == pytest.approx(c_n, abs=1e-10)

    def test_chunk_boundaries(self):
        # the kick loop is evaluated in blocks; indices around the block
        # edge must agree with direct matrix powers
        dim = 4
        v = build_floquet(HARMONIC, rank1_full(dim, strength=1.1), dim)
        psi0 = v.ensemble.states[0].coefficients
        trace = evolve(v, v.ensemble.states[0], n_kicks=1030)
        entries = dense_matrix(v)
        power = np.linalg.matrix_power(entries, 1023)
        for n in (1023, 1024, 1025):
            c_n = np.vdot(psi0, power @ psi0)
            assert trace.amplitudes[n] == pytest.approx(c_n, abs=1e-9)
            power = entries @ power

    def test_record_blocks_match_plain_kick_loop(self):
        # 1024 states per record block at dim 256, so 2100 kicks cross two
        # block edges.  The oracle kicks one state at a time and reduces the
        # recorded states in the same blocks, so that only the kick loop is
        # compared, bit for bit.
        dim, n_kicks = 256, 2100
        v = build_floquet(HARMONIC, rank1_full(dim), dim)
        trace = evolve(v, v.ensemble.states[0], n_kicks)
        psi0 = v.ensemble.states[0].coefficients
        kicks = psi0.reshape(-1, dim).T
        psi = psi0
        states = [psi0]
        for _ in range(n_kicks):
            psi = v.u * psi
            psi += kicks @ (v.mu * (kicks.conj().T @ psi))
            states.append(psi)
        states = np.array(states)
        h0 = alpha_sequence(HARMONIC, dim)
        rows = min(1024, _RECORD_ELEMENTS // dim)
        assert rows < n_kicks // 2
        for lo in range(0, n_kicks + 1, rows):
            block = states[lo:lo + rows]
            assert (trace.amplitudes[lo:lo + rows].tobytes()
                    == (block @ psi0.conj()).tobytes())
            assert (trace.energies[lo:lo + rows].tobytes()
                    == ((block.real ** 2 + block.imag ** 2) @ h0).tobytes())


class TestWienerAverage:
    def test_two_level_exact_half(self):
        spec, ensemble = two_level_setup()
        v = build_floquet(spec, ensemble, 2)
        dec = eigen_decompose(v)
        trace = evolve(v, ensemble.states[0], n_kicks=100)
        mean, mass = wiener_average(trace, dec, 0)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert mass == pytest.approx(0.5, abs=1e-12)

    def test_stationary_state_gives_unity(self):
        # a basis state kicked by itself is an eigenvector: it never moves
        basis_state = KickState(coefficients=np.eye(8, dtype=complex)[3])
        v = build_floquet(HARMONIC, KickEnsemble(states=(basis_state,),
                                                 strengths=(1.0,)), 8)
        dec = eigen_decompose(v)
        trace = evolve(v, basis_state, n_kicks=32)
        assert trace.survival() == pytest.approx(np.ones(33), abs=1e-12)
        assert dec.point_mass_sum(0) == pytest.approx(1.0, abs=1e-10)

    def test_convergence_improves_with_time(self):
        dim = 32
        v = build_floquet(HARMONIC, rank1_full(dim), dim)
        dec = eigen_decompose(v)
        state = v.ensemble.states[0]
        gaps = []
        for kicks in (200, 800, 3200):
            trace = evolve(v, state, n_kicks=kicks)
            mean, mass = wiener_average(trace, dec, 0)
            gaps.append(abs(mean - mass))
        assert gaps[-1] <= gaps[0] + 0.01

    def test_provenance_mismatch_rejected(self):
        spec, ensemble = two_level_setup()
        v1 = build_floquet(spec, ensemble, 2)
        v2 = build_floquet(spec, ensemble, 2)
        dec = eigen_decompose(v1)
        trace = evolve(v2, ensemble.states[0], n_kicks=10)
        with pytest.raises(ProvenanceError):
            wiener_average(trace, dec, 0)

    def test_state_index_validated(self):
        spec, ensemble = two_level_setup()
        v = build_floquet(spec, ensemble, 2)
        dec = eigen_decompose(v)
        trace = evolve(v, ensemble.states[0], n_kicks=10)
        with pytest.raises(ProvenanceError):
            wiener_average(trace, dec, 1)


def _array_holders():
    state = power_law_state(0.75, 10)
    ensemble = KickEnsemble(states=(state,), strengths=(1.0,))
    matrix = build_floquet(HARMONIC, ensemble, 10)
    return (state, ensemble, theta_sequence(HARMONIC, 10), matrix,
            eigen_decompose(matrix), evolve(matrix, state, n_kicks=2))


def test_array_holders_compare_and_hash_by_identity():
    # a generated __eq__ over an array field raised ValueError, and the
    # generated __hash__ raised TypeError
    for first, second in zip(_array_holders(), _array_holders()):
        assert type(first) is type(second)
        assert first == first
        assert first != second
        assert hash(first) == hash(first)
        assert len({first, second}) == 2
