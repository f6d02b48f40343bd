"""Differential tests of the secular solver and matrix-free dynamics against
dense oracles: a complex Schur decomposition of ``FloquetMatrix.entries`` and
repeated dense matrix-vector products.

Phases must agree to 1e-12 and weights to 1e-11.  Where eigenvalues are
degenerate (rational beta) the eigenbasis is not unique, so weights are
compared summed over each cluster of equal phases.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from kickspec.errors import EnsembleError, ToleranceError
from kickspec.floquet import build_floquet, eigen_decompose, evolve
from kickspec.rationals import golden_ratio
from kickspec.spectral import (
    BaseSpectrum,
    KickEnsemble,
    KickState,
    alpha_sequence,
    full_support_state,
    orthonormal_ensemble,
    power_law_state,
)

TWO_PI = 2.0 * math.pi
HARMONIC = BaseSpectrum.harmonic(golden_ratio(200).as_fraction())
PHASE_TOL = 1e-12
WEIGHT_TOL = 1e-11
CLUSTER_GAP = 1e-9
LAMBDAS = (0.05, 1.0, 6.2)
# The sign of a kick strength: +lam gives (I + (e^{i lam} - 1) P) U, the sum
# of R_k form, and -lam the product form exp(-i lam P) U.  The ids name the
# form each sign reaches.
SIGNS = (pytest.param(1.0, id="additive_r_k"),
         pytest.param(-1.0, id="exponential_product"))


def schur_oracle(matrix, probes):
    """Sorted eigenphases and |<phi_k|z_i>|^2 from a dense Schur form."""
    t, z = scipy.linalg.schur(np.asarray(matrix.entries), output="complex")
    phases = np.angle(np.diag(t)) % TWO_PI
    order = np.argsort(phases, kind="stable")
    weights = np.array([np.abs(p.coefficients.conj() @ z[:, order]) ** 2
                        for p in probes]).reshape(len(probes), matrix.dim)
    return phases[order], weights


def uniform_state(dim):
    return KickState(coefficients=np.full(dim, 1.0 / math.sqrt(dim),
                                          dtype=complex))


def assert_matches_oracle(matrix):
    dec = eigen_decompose(matrix)
    states = matrix.ensemble.states
    phases, weights = schur_oracle(matrix, states)
    # phases a rounding error below 2*pi belong with those at 0
    ours = np.where(dec.eigenphases > TWO_PI - CLUSTER_GAP,
                    dec.eigenphases - TWO_PI, dec.eigenphases)
    theirs = np.where(phases > TWO_PI - CLUSTER_GAP, phases - TWO_PI, phases)
    ours_order, theirs_order = np.argsort(ours), np.argsort(theirs)
    ours, theirs = ours[ours_order], theirs[theirs_order]
    assert len(ours) == matrix.dim
    assert np.max(np.abs(ours - theirs)) <= PHASE_TOL
    if not states:
        assert dec.weights.shape == (0, matrix.dim)
        return
    starts = np.r_[0, np.flatnonzero(np.diff(ours) > CLUSTER_GAP) + 1]
    mine = np.add.reduceat(dec.weights[:, ours_order], starts, axis=1)
    oracle = np.add.reduceat(weights[:, theirs_order], starts, axis=1)
    assert np.max(np.abs(mine - oracle)) <= WEIGHT_TOL
    assert np.max(np.abs(dec.weights.sum(axis=1) - 1.0)) <= 1e-12


class TestSecularAgainstSchur:
    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("dim", (2, 3, 16, 64, 256))
    def test_rank1_full_support(self, dim, lam, sign):
        ensemble = KickEnsemble(states=(full_support_state(0.75, dim),),
                                strengths=(sign * lam,))
        assert_matches_oracle(build_floquet(HARMONIC, ensemble, dim))

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("rank", (2, 4))
    @pytest.mark.parametrize("dim", (8, 64, 256))
    def test_rank_n_interleaved(self, dim, rank, sign):
        strengths = [sign * (LAMBDAS[k % 3] + 0.1 * k) for k in range(rank)]
        ensemble = orthonormal_ensemble(0.6, rank, dim, strengths)
        assert_matches_oracle(build_floquet(HARMONIC, ensemble, dim))

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("dim", (4, 64, 256))
    def test_power_law_leaves_index_zero_bare(self, dim, lam):
        ensemble = KickEnsemble(states=(power_law_state(0.9, dim),),
                                strengths=(lam,))
        assert_matches_oracle(build_floquet(HARMONIC, ensemble, dim))

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("dim", (2, 32, 256))
    def test_uniform_state(self, dim, lam, sign):
        ensemble = KickEnsemble(states=(uniform_state(dim),),
                                strengths=(sign * lam,))
        assert_matches_oracle(build_floquet(HARMONIC, ensemble, dim))

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("beta", (Fraction(1, 2), Fraction(1, 8)))
    @pytest.mark.parametrize("dim", (2, 16, 64, 256))
    def test_rational_beta_deflation(self, dim, beta, lam):
        spec = BaseSpectrum.harmonic(beta)
        for states in ((full_support_state(0.75, dim),), (uniform_state(dim),)):
            ensemble = KickEnsemble(states=states, strengths=(lam,))
            assert_matches_oracle(build_floquet(spec, ensemble, dim))
        if dim >= 4:
            ensemble = orthonormal_ensemble(0.75, 2, dim, [lam, 1.3])
            assert_matches_oracle(build_floquet(spec, ensemble, dim))

    @pytest.mark.parametrize("beta", (Fraction(1, 8), golden_ratio(200)))
    @pytest.mark.parametrize("dim", (2, 16, 128))
    def test_probes_on_bare_and_kicked(self, dim, beta):
        # the bare operator and kicked ones that leave some indices bare,
        # each against Schur on its own kick states
        spec = BaseSpectrum.harmonic(beta)
        kicked = [KickEnsemble(states=(), strengths=()),
                  KickEnsemble(states=(full_support_state(0.75, dim),),
                               strengths=(1.0,)),
                  orthonormal_ensemble(0.75, 1, dim, [6.2])]
        if dim >= 4:
            kicked.append(orthonormal_ensemble(0.75, 2, dim, [0.05, 2.0]))
        for ensemble in kicked:
            assert_matches_oracle(build_floquet(spec, ensemble, dim))

    @pytest.mark.parametrize("lam", (1e-6, TWO_PI - 1e-6))
    @pytest.mark.parametrize("dim", (16, 128))
    def test_weak_kicks(self, dim, lam):
        # roots sit within about 1e-6 * |a_n|^2 of their poles
        ensemble = KickEnsemble(states=(full_support_state(0.75, dim),),
                                strengths=(lam,))
        assert_matches_oracle(build_floquet(HARMONIC, ensemble, dim))

    def test_dim_512(self):
        ensemble = orthonormal_ensemble(0.75, 2, 512, [1.0, 6.2])
        assert_matches_oracle(build_floquet(HARMONIC, ensemble, 512))


class TestSolverContract:
    def test_overlapping_supports_rejected(self):
        spec = BaseSpectrum(beta=(Fraction(0), Fraction(1, 3)))
        plus = KickState(coefficients=np.array([1, 1, 0], dtype=complex)
                         / math.sqrt(2))
        minus = KickState(coefficients=np.array([1, -1, 0], dtype=complex)
                          / math.sqrt(2))
        matrix = build_floquet(spec, KickEnsemble(states=(plus, minus),
                                                  strengths=(1.0, 2.0)), 3)
        with pytest.raises(EnsembleError):
            eigen_decompose(matrix)

    def test_weight_sum_check_raises(self, monkeypatch):
        import kickspec.floquet as floquet

        real = floquet.point_mass
        monkeypatch.setattr(floquet, "point_mass",
                            lambda lam, b: 1.001 * real(lam, b))
        matrix = build_floquet(HARMONIC, KickEnsemble(
            states=(full_support_state(0.75, 16),), strengths=(1.0,)), 16)
        with pytest.raises(ToleranceError):
            eigen_decompose(matrix)


class TestUnitarityDefect:
    @staticmethod
    def gram_defect(matrix):
        entries = np.asarray(matrix.entries)
        gram = entries.conj().T @ entries
        return float(np.max(np.abs(gram - np.eye(matrix.dim))))

    @pytest.mark.parametrize("dim", (2, 3, 8, 16, 32, 64))
    def test_analytic_defect_bounds_gram_defect(self, dim):
        # entrywise, V^H V - I = U^H (sum_k eps_k P_k + cross terms) U with
        # |eps_k| <= 3 d and |mu_k| <= 2: at most (4 N^2 + 3 N) d, plus the
        # rounding of the dense products
        rounding = 8 * dim * np.finfo(float).eps
        scaled = full_support_state(0.75, dim).coefficients * (1 + 4e-13)
        cases = [KickEnsemble(states=(full_support_state(0.75, dim),),
                              strengths=(1.0,)),
                 KickEnsemble(states=(KickState(coefficients=scaled),),
                              strengths=(2.5,))]
        if dim >= 5:
            cases.append(orthonormal_ensemble(0.6, 4, dim,
                                              [0.05, 1.0, 3.0, 6.2]))
        for ensemble in cases:
            matrix = build_floquet(HARMONIC, ensemble, dim)
            n = len(ensemble)
            bound = (4 * n * n + 3 * n) * matrix.unitarity_defect + rounding
            assert self.gram_defect(matrix) <= bound
        # the deliberately stretched state makes the defect visible
        assert build_floquet(HARMONIC, cases[1], dim).unitarity_defect >= 4e-13


class TestMatrixFreeEvolve:
    @pytest.mark.parametrize("rank", (0, 1, 2))
    def test_matches_repeated_dense_products(self, rank):
        dim = 12
        if rank == 0:
            ensemble = KickEnsemble(states=(), strengths=())
            state = full_support_state(0.75, dim)
        else:
            ensemble = orthonormal_ensemble(0.75, rank, dim, [1.1, 4.0][:rank])
            state = ensemble.states[0]
        matrix = build_floquet(HARMONIC, ensemble, dim)
        trace = evolve(matrix, state, n_kicks=1030)
        h0 = alpha_sequence(HARMONIC, dim)
        psi0 = state.coefficients
        psi = psi0.copy()
        for n in range(1031):
            assert abs(trace.amplitudes[n] - np.vdot(psi0, psi)) <= 1e-11
            energy = float(np.abs(psi) ** 2 @ h0)
            assert abs(trace.energies[n] - energy) <= 1e-11 * max(1.0, energy)
            psi = matrix.entries @ psi

    def test_overlapping_supports_evolve(self):
        # evolution needs no disjoint supports, only orthonormal states
        spec = BaseSpectrum(beta=(Fraction(0), Fraction(1, 3)))
        plus = KickState(coefficients=np.array([1, 1, 0], dtype=complex)
                         / math.sqrt(2))
        minus = KickState(coefficients=np.array([1, -1, 0], dtype=complex)
                          / math.sqrt(2))
        matrix = build_floquet(spec, KickEnsemble(states=(plus, minus),
                                                  strengths=(1.0, 2.0)), 3)
        trace = evolve(matrix, plus, n_kicks=40)
        psi = plus.coefficients.copy()
        for n in range(41):
            assert abs(trace.amplitudes[n] - np.vdot(plus.coefficients, psi)) \
                <= 1e-12
            psi = matrix.entries @ psi
