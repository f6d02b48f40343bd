"""Command-line driver for reproducible runs.

Subcommands: discrepancy, weyl, spectrum, scount, dynamics.  Every run writes
its result tables as CSV plus a manifest.json recording the full parameter
map and its content hash; identical flag sets produce byte-identical CSVs,
including under scount's --threads parallelism (cells are assembled by index,
never by completion time).

Exit codes: 0 success, 2 usage, 3 resource limit, 4 numerical tolerance
violation.  A run writes its files only after its last computation, so a
failed run leaves none.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .counting import _check_threads, default_x_grid, gamma_sweep
from .equidistribution import (
    ET_SIZE_FLOOR,
    MAX_ET_PRODUCTS,
    SequenceSpec,
    classical_exponent,
    conjectured_exponent,
    discrepancy_exact,
    erdos_turan_bounds,
    linear_erdos_turan_bounds,
    sequence_points,
    weyl_sums,
    _log_log_slope,
)
from .errors import ResourceLimitError, ToleranceError
from .floquet import (
    _check_dim,
    build_floquet,
    eigen_decompose,
    evolve,
    perturbation_trace_norm,
    wiener_average,
)
from .rationals import (
    MAX_TERMS,
    RationalApprox,
    golden_ratio,
    irrational_type_estimate,
    sqrt_two,
)
from .runio import (
    CellCache,
    ResultTable,
    manifest_hash,
    write_csv,
    write_json,
    write_manifest,
)
from .spectral import (
    BaseSpectrum,
    KickEnsemble,
    KickState,
    _check_gamma,
    cotangent_residual,
    full_support_state,
    gamma_window,
    orthonormal_ensemble,
    theta_sequence,
)

USAGE_ERROR = 2
RESOURCE_ERROR = 3
TOLERANCE_ERROR = 4

_NAMED_CONSTANTS = {"golden": golden_ratio, "sqrt2": sqrt_two}
_DEFAULT_DEPTH = 200
# largest denominator the default scount eta estimate reads
_ETA_Q_MAX = 10_000


def parse_beta_spec(text: str, precision_bits: int | None = None) -> RationalApprox:
    """Decimal string, fraction p/q, or named constant (golden, sqrt2).

    Named constants expand to 200-term continued-fraction rationals; with
    --precision BITS they expand until the denominator reaches that size.
    """
    text = text.strip()
    builder = _NAMED_CONSTANTS.get(text)
    if builder is not None:
        if precision_bits is None:
            return builder(_DEFAULT_DEPTH)
        depth = 16
        value = builder(depth)
        while value.denominator.bit_length() < precision_bits and depth < 100_000:
            depth *= 2
            value = builder(depth)
        return value
    try:
        return RationalApprox.from_fraction(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(
            f"cannot parse beta spec {text!r}: use a decimal, p/q, or one of "
            f"{sorted(_NAMED_CONSTANTS)}") from exc


def parse_size_grid(text: str) -> list[int]:
    """Grid syntax: 'lo:hi:k' (k geometric sizes) or a comma list of sizes.

    A count k above MAX_TERMS raises ResourceLimitError before the k sizes
    are allocated.
    """
    text = text.strip()
    try:
        if ":" in text:
            lo_s, hi_s, k_s = text.split(":")
            lo, hi, k = float(lo_s), float(hi_s), int(k_s)
            # false for nan and inf, so neither reaches numpy
            if not (1 <= lo <= hi < math.inf and k >= 1):
                raise ValueError
            if k > MAX_TERMS:
                raise ResourceLimitError(
                    f"grid count {k} exceeds the limit {MAX_TERMS}")
            sizes = np.linspace(math.log(lo), math.log(hi), k)
            np.exp(sizes, out=sizes)
            # rint rounds half to even, as round does; one int per distinct
            # rounded size, without np.unique, which imports numpy.ma
            np.rint(sizes, out=sizes)
            sizes.sort()
            grid = [int(s) for s in
                    sizes[np.insert(sizes[1:] != sizes[:-1], 0, True)]]
        else:
            grid = sorted({int(round(float(part))) for part in text.split(",")})
        if not grid or grid[0] < 1:
            raise ValueError
        return grid
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ValueError(f"cannot parse size grid {text!r}: "
                         "use lo:hi:count or a comma list") from exc


def parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse float list {text!r}") from exc
    if not values:
        raise ValueError("empty list")
    return values


def _int_at_least(lower: int):
    """An argparse type: an integer of at least ``lower``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lower - 1
        if value < lower:
            raise argparse.ArgumentTypeError(
                f"needs an integer of at least {lower}, got {text!r}")
        return value
    return parse


def _finite_at_least(lower: float):
    """An argparse type: a finite float of at least ``lower``."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= lower):
            raise argparse.ArgumentTypeError(
                f"needs a finite number of at least {lower:g}, got {text!r}")
        return value
    return parse


def _spectrum_from_args(args) -> BaseSpectrum:
    coefficients = [parse_beta_spec(part, args.precision).as_fraction()
                    for part in args.beta.split(",")]
    beta = (Fraction(0), *coefficients)  # flag lists degrees 1..p
    return BaseSpectrum(beta=beta, hbar=args.hbar,
                        period=Fraction(args.period))


def _ensemble_from_args(args, dim: int) -> KickEnsemble:
    # before any state is built: the states have dim entries each
    _check_dim(dim)
    strengths = parse_float_list(args.lambdas) if args.rank else ()
    if args.rank and len(strengths) != args.rank:
        raise ValueError(f"need exactly {args.rank} values in --lambdas")
    if args.rank == 0:
        return KickEnsemble(states=(), strengths=())
    if args.kick_state == "uniform":
        if args.rank != 1:
            raise ValueError("--kick-state uniform supports rank 1 only")
        coeffs = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
        return KickEnsemble(states=(KickState(coefficients=coeffs),),
                            strengths=strengths)
    if args.rank == 1:
        state = full_support_state(args.gamma, dim)
        return KickEnsemble(states=(state,), strengths=strengths)
    return orthonormal_ensemble(args.gamma, args.rank, dim, strengths)


def _flag_params(args) -> dict:
    """The manifest parameters of a run: every parsed flag except --out."""
    return {key: value for key, value in vars(args).items()
            if key not in ("out", "func")}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_discrepancy(args) -> int:
    beta = parse_beta_spec(args.beta, args.precision)
    grid = parse_size_grid(args.n_grid)
    spec = SequenceSpec(j=args.j, beta=beta)
    # a harmonic costs as much on a tiny prefix as on ET_SIZE_FLOOR points
    charged = sum(max(n, ET_SIZE_FLOOR) for n in grid)
    if args.m * charged > MAX_ET_PRODUCTS:
        raise ResourceLimitError(
            f"--m {args.m} harmonics over {charged} charged prefix points "
            f"exceed the limit {MAX_ET_PRODUCTS}")
    points = sequence_points(spec, grid[-1])
    if spec.j == 1:
        # geometric Weyl sums: O(m) per size, not O(m N)
        bounds = linear_erdos_turan_bounds(beta, grid, args.m)
    else:
        bounds = erdos_turan_bounds(points, grid, args.m)
    rows = []
    for n, et_bound in zip(grid, bounds):
        d_n = discrepancy_exact(points[:n]).d_n
        if d_n > et_bound:
            raise ToleranceError(f"Erdos-Turan bound {et_bound:.6e} below "
                                 f"D_N = {d_n:.6e} at N={n}")
        rows.append((n, d_n, et_bound))
    slope = _log_log_slope(rows)
    table = ResultTable(columns=("N", "D_N", "ET_bound"), rows=tuple(rows))
    out = Path(args.out)
    write_csv(out / "discrepancy.csv", table, footer=[("slope", slope, "")])
    write_manifest(out, "discrepancy", _flag_params(args), __version__,
                   ["discrepancy.csv"])
    print(f"wrote {out / 'discrepancy.csv'} (slope {slope:.4f})")
    return 0


def cmd_weyl(args) -> int:
    beta = parse_beta_spec(args.beta, args.precision)
    grid = parse_size_grid(args.n_grid)
    spec = SequenceSpec(j=args.j, beta=beta)
    if args.h_max * grid[-1] > MAX_TERMS:
        raise ResourceLimitError(
            f"--h-max {args.h_max} sums of up to {grid[-1]} terms exceed "
            f"the limit {MAX_TERMS}")
    by_harmonic = [weyl_sums(spec, h, grid) for h in range(1, args.h_max + 1)]
    rows = []
    for i, n in enumerate(grid):
        for h, sums in enumerate(by_harmonic, start=1):
            s = sums[i]
            rows.append((n, h, s.real, s.imag, abs(s), abs(s) / n))
    table = ResultTable(
        columns=("N", "h", "re_S", "im_S", "modulus", "modulus_over_N"),
        rows=tuple(rows))
    out = Path(args.out)
    write_csv(out / "weyl.csv", table)
    summary = {
        "conjectured_exponent": conjectured_exponent(args.j, args.epsilon),
        "classical_exponent":
            classical_exponent(args.j) if args.j >= 2 else None,
    }
    write_json(out / "summary.json", summary)
    write_manifest(out, "weyl", _flag_params(args), __version__,
                   ["weyl.csv", "summary.json"])
    print(f"wrote {out / 'weyl.csv'}")
    return 0


def cmd_spectrum(args) -> int:
    spec = _spectrum_from_args(args)
    ensemble = _ensemble_from_args(args, args.dim)
    matrix = build_floquet(spec, ensemble, args.dim)
    decomposition = eigen_decompose(matrix)
    k_count = len(matrix.ensemble)
    columns = ["index", "eigenphase_rad"] + [f"weight_{k}" for k in range(k_count)]
    rows = tuple(zip(range(len(decomposition.eigenphases)),
                     decomposition.eigenphases.tolist(),
                     *decomposition.weights.tolist()))
    summary = {
        "dim": args.dim,
        "unitarity_defect": matrix.unitarity_defect,
        "trace_norms": [perturbation_trace_norm(phase)
                        for phase in matrix.kick_phases],
        "weight_sums": [float(decomposition.weights[k].sum())
                        for k in range(k_count)],
    }
    if k_count == 1:
        theta = theta_sequence(spec, args.dim)
        # the weighted eigenphases are the roots; deflated copies sit on poles
        residuals = cotangent_residual(
            decomposition.eigenphases[decomposition.weights[0] > 0.0],
            matrix.ensemble.states[0], theta, matrix.kick_phases[0])
        summary["max_secular_residual"] = float(np.max(np.abs(residuals)))
    out = Path(args.out)
    write_csv(out / "eigenphases.csv",
              ResultTable(columns=tuple(columns), rows=rows))
    write_json(out / "summary.json", summary)
    write_manifest(out, "spectrum", _flag_params(args), __version__,
                   ["eigenphases.csv", "summary.json"])
    print(f"wrote {out / 'eigenphases.csv'} "
          f"(unitarity defect {matrix.unitarity_defect:.2e})")
    return 0


def _scount_tables(cell_rows, label_rows) -> tuple[ResultTable, ResultTable]:
    """The cells.csv and labels.csv tables of a sweep's rows."""
    return (
        ResultTable(columns=("x_rad", "gamma", "N", "a_count", "s_count",
                             "lhs", "rhs", "b_inverse", "holds"),
                    rows=tuple(tuple(row) for row in cell_rows)),
        ResultTable(columns=("x_rad", "gamma", "label", "inside_window"),
                    rows=tuple(tuple(row) for row in label_rows)))


def _cached_scount_tables(payload) -> tuple[ResultTable, ResultTable] | None:
    """Both tables of a cached payload, or None (a miss) when the payload is
    absent or either table does not build from it."""
    try:
        return _scount_tables(payload["cells"], payload["labels"])
    except (KeyError, TypeError, ValueError):
        return None


def cmd_scount(args) -> int:
    # before the phases, the buffers, the threads and the cache lookup
    _check_threads(args.threads)
    beta = parse_beta_spec(args.beta, args.precision)
    grid = parse_size_grid(args.n_grid)
    gammas = parse_float_list(args.gamma_grid)
    for gamma in gammas:
        _check_gamma(gamma)
    if args.eta is not None:
        eta = args.eta
    elif beta.denominator <= _ETA_Q_MAX ** 2:
        # the estimate needs a stand-in finer than its q_max, squared
        raise ValueError(
            f"--beta {args.beta} is a rational of denominator "
            f"{beta.denominator} and has no irrationality type to estimate: "
            f"--eta must be given")
    else:
        eta = irrational_type_estimate(beta, _ETA_Q_MAX).eta_hat
    if args.x_grid:
        xs = parse_float_list(args.x_grid)
    else:
        # the widest interval (smallest gamma, smallest N) governs spillage
        xs = default_x_grid(args.x_count, n_min=grid[0], gamma=min(gammas),
                            variant=args.variant)

    # resolved values, not the flags; --threads is left out because the
    # results do not depend on it
    params = {"command": "scount", "j": args.j, "beta": args.beta,
              "gamma_grid": list(gammas), "x_grid": list(xs),
              "n_grid": grid, "variant": args.variant, "eta": eta,
              "precision": args.precision}
    # the cache key covers the code version; the manifest hash does not
    key = manifest_hash({"params": params, "version": __version__})
    window = gamma_window(args.j, eta)
    out = Path(args.out)
    cache = CellCache(out / ".cache")
    tables = _cached_scount_tables(cache.get(key))
    if tables is None:
        sweep = gamma_sweep(args.j, beta, gammas, xs, grid,
                            variant=args.variant, threads=args.threads)
        cell_rows = [[rep.x, rep.gamma, rep.n, rep.a_count, rep.s_count,
                      rep.lhs, rep.rhs, rep.b_inverse, int(rep.holds)]
                     for rep in sweep.cells]
        label_rows = [[x, gamma, sweep.labels[(x, gamma)], int(gamma in window)]
                      for gamma in gammas for x in xs]
        tables = _scount_tables(cell_rows, label_rows)
        cache.put(key, {"cells": cell_rows, "labels": label_rows})
    cells, labels = tables

    write_csv(out / "cells.csv", cells)
    write_csv(out / "labels.csv", labels)
    summary = {
        "eta": eta,
        "window": [window.lo, window.hi],
    }
    write_json(out / "summary.json", summary)
    write_manifest(out, "scount", params, __version__,
                   ["cells.csv", "labels.csv", "summary.json"])
    print(f"wrote {out / 'cells.csv'} ({len(cells)} cells)")
    return 0


def cmd_dynamics(args) -> int:
    spec = _spectrum_from_args(args)
    ensemble = _ensemble_from_args(args, args.dim)
    matrix = build_floquet(spec, ensemble, args.dim)
    if len(matrix.ensemble):
        if not 0 <= args.state_index < len(matrix.ensemble):
            raise ValueError(f"--state-index out of range for rank {args.rank}")
        state = matrix.ensemble.states[args.state_index]
    else:
        # no kick: evolve the basis state at --state-index, which is
        # stationary under the diagonal evolution
        if not 0 <= args.state_index < args.dim:
            raise ValueError("--state-index out of range for the basis")
        coeffs = np.zeros(args.dim, dtype=complex)
        coeffs[args.state_index] = 1.0
        state = KickState(coefficients=coeffs)
    trace = evolve(matrix, state, args.kicks)
    survival = trace.survival()
    running = np.concatenate([[0.0], np.cumsum(survival[1:]) /
                              np.arange(1, args.kicks + 1)])
    rows = tuple(zip(range(args.kicks + 1), survival.tolist(),
                     trace.energies.tolist(), running.tolist()))
    summary = {
        "kicks": args.kicks,
        "cesaro_mean": trace.cesaro_mean(),
        "unitarity_defect": matrix.unitarity_defect,
    }
    if len(matrix.ensemble):
        mean, mass = wiener_average(trace, eigen_decompose(matrix),
                                    args.state_index)
        summary["point_mass_sum"] = mass
        summary["wiener_gap"] = abs(mean - mass)
    out = Path(args.out)
    write_csv(out / "dynamics.csv", ResultTable(
        columns=("n", "survival", "energy", "running_cesaro"), rows=rows))
    write_json(out / "summary.json", summary)
    write_manifest(out, "dynamics", _flag_params(args), __version__,
                   ["dynamics.csv", "summary.json"])
    print(f"wrote {out / 'dynamics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on each parser (subparsers do not inherit it): a
    # prefix of a flag is an error, not a silent alias of the longer flag
    parser = argparse.ArgumentParser(
        prog="kickspec",
        description="Spectral laboratory for rank-N kicked systems",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_out: str):
        p.add_argument("--out", default=default_out,
                       help="output directory (default %(default)s)")
        p.add_argument("--precision", type=_int_at_least(1), default=None,
                       metavar="BITS",
                       help="denominator bits for named constants "
                            "(default: 200 continued-fraction terms)")

    p = sub.add_parser("discrepancy",
                       help="exact D_N and Erdos-Turan bounds for (n^j beta)",
                       allow_abbrev=False)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--beta", required=True,
                   help="decimal, p/q, or named constant (golden, sqrt2)")
    p.add_argument("--n-grid", default="1e3:1e6:4")
    p.add_argument("--m", type=_int_at_least(1), default=64,
                   help="harmonics in the Erdos-Turan bound")
    common(p, "runs/discrepancy")
    p.set_defaults(func=cmd_discrepancy)

    p = sub.add_parser("weyl", help="Weyl sums S = sum exp(2 pi i h n^j beta)",
                       allow_abbrev=False)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--beta", required=True)
    p.add_argument("--n-grid", default="1e2:1e5:4")
    p.add_argument("--h-max", type=_int_at_least(1), default=4)
    p.add_argument("--epsilon", type=_finite_at_least(0.0), default=0.01)
    common(p, "runs/weyl")
    p.set_defaults(func=cmd_weyl)

    def spectrum_flags(p: argparse.ArgumentParser):
        p.add_argument("--beta", required=True,
                       help="comma list of phase coefficients (turns per n^j) "
                            "for degrees 1..p; each entry a beta spec")
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--period", default="1",
                       help="kick period T as an exact fraction")
        p.add_argument("--rank", type=_int_at_least(0), default=1,
                       help="number of kick states (0 = no kick)")
        p.add_argument("--gamma", type=float, default=0.75)
        p.add_argument("--lambdas", default="1.0",
                       help="comma list of signed kick strengths, one per "
                            "rank; a list that starts with a negative value "
                            "takes the form --lambdas=-1.0,2.0")
        p.add_argument("--dim", type=int, default=64)
        p.add_argument("--kick-state", default="power",
                       choices=("power", "uniform"),
                       help="rank-1 state family: shifted power law or "
                            "equal amplitudes")

    p = sub.add_parser("spectrum",
                       help="eigenphases and spectral weights of the kicked operator",
                       allow_abbrev=False)
    spectrum_flags(p)
    common(p, "runs/spectrum")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scount",
                       help="interval and S(x) counting sweeps with growth labels",
                       allow_abbrev=False)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--beta", required=True)
    p.add_argument("--gamma-grid", default="0.75",
                   help="comma list of exponents (default %(default)s)")
    p.add_argument("--x-grid", default=None,
                   help="comma list of x values in radians")
    p.add_argument("--x-count", type=int, default=5,
                   help="number of default pole-avoiding x values")
    p.add_argument("--n-grid", default="1e3:1e5:3")
    p.add_argument("--variant", default="combescure",
                   choices=("combescure", "bourget"))
    p.add_argument("--eta", type=_finite_at_least(1.0), default=None,
                   help="irrationality type for the window annotation "
                        "(default: estimated from beta)")
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="worker threads over x values")
    common(p, "runs/scount")
    p.set_defaults(func=cmd_scount)

    p = sub.add_parser("dynamics",
                       help="survival probability and energy over kicks",
                       allow_abbrev=False)
    spectrum_flags(p)
    p.add_argument("--kicks", type=int, default=1000)
    p.add_argument("--state-index", type=int, default=0)
    common(p, "runs/dynamics")
    p.set_defaults(func=cmd_dynamics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return RESOURCE_ERROR
    except ToleranceError as exc:
        print(f"numerical tolerance violated: {exc}", file=sys.stderr)
        return TOLERANCE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
