"""kickspec: spectral machinery of rank-N kicked quantum systems at desk scale.

Three layers:

* number theory (``rationals``, ``equidistribution``): exact fractional
  parts, continued fractions and irrationality type, Weyl sums, extreme
  discrepancy with an independent oracle, Erdos-Turan bounds;
* quantum formulas (``spectral``, ``floquet``): base spectra and their
  eigenphase sequences, power-law kick states, point-mass and cotangent
  diagnostics, truncated Floquet operators with eigen-decomposition,
  trace-norm checks and Wiener-average dynamics;
* experiments (``counting``, ``cli``): shrinking-interval counts, S(x) sets,
  the discrepancy inequality, gamma-window sweeps, and a reproducible CLI.
"""

from .counting import (
    MAX_THREADS,
    MAX_X_COUNT,
    BInverseBounds,
    CountReport,
    IntervalJ,
    SweepResult,
    b_lower_bounds,
    count_interval,
    count_set_S,
    count_set_bourget,
    default_x_grid,
    divergence_scan,
    gamma_sweep,
    make_interval,
)
from .equidistribution import (
    ET_SIZE_FLOOR,
    MAX_ET_PRODUCTS,
    DiscrepancyReport,
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
)
from .errors import (
    EnsembleError,
    IntervalRangeError,
    OracleSizeError,
    PoleError,
    PrecisionError,
    ProvenanceError,
    ResourceLimitError,
    ToleranceError,
    TrivialPerturbationError,
)
from .floquet import (
    MAX_DIM,
    MAX_KICKS,
    DynamicsTrace,
    EigenDecomposition,
    FloquetMatrix,
    build_floquet,
    eigen_decompose,
    evolve,
    perturbation_trace_norm,
    truncate_state,
    wiener_average,
)
from .rationals import (
    MAX_ANCHOR_WORK,
    MAX_TERMS,
    ContinuedFraction,
    RationalApprox,
    TypeEstimate,
    continued_fraction,
    golden_ratio,
    irrational_type_estimate,
    sqrt_two,
)
from .spectral import (
    BaseSpectrum,
    GammaWindow,
    KickEnsemble,
    KickState,
    ThetaSequence,
    alpha_sequence,
    b_inverse_partial,
    cotangent_residual,
    full_support_state,
    gamma_window,
    orthonormal_ensemble,
    point_mass,
    power_law_state,
    theta_sequence,
)

__version__ = "0.1.0"
