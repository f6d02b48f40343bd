import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kickspec
from kickspec import errors
from kickspec.cli import main, parse_beta_spec, parse_size_grid
from kickspec.counting import default_x_grid
from kickspec.equidistribution import (
    SequenceSpec,
    discrepancy_exact,
    erdos_turan_bound,
    linear_erdos_turan_bounds,
    sequence_points,
)
from kickspec.rationals import golden_ratio, irrational_type_estimate
from kickspec.runio import manifest_hash


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestParsers:
    def test_named_constants(self):
        assert parse_beta_spec("golden").as_fraction() == \
            golden_ratio(200).as_fraction()
        assert float(parse_beta_spec("sqrt2")) == pytest.approx(math.sqrt(2))

    def test_precision_grows_denominator(self):
        small = parse_beta_spec("golden", precision_bits=64)
        assert small.denominator.bit_length() >= 64

    def test_fraction_and_decimal(self):
        assert parse_beta_spec("7/3").as_fraction() == \
            pytest.approx(7 / 3)
        r = parse_beta_spec("0.618")
        assert (r.numerator, r.denominator) == (309, 500)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_beta_spec("one half")

    def test_size_grid(self):
        assert parse_size_grid("1e2:1e4:3") == [100, 1000, 10000]
        assert parse_size_grid("100,50,100") == [50, 100]
        for text in ("10:1:abc", "inf", "1e400", "1e3:inf:3", "nan:1e5:3"):
            with pytest.raises(ValueError, match="cannot parse size grid"):
                parse_size_grid(text)
        with pytest.raises(errors.ResourceLimitError):
            parse_size_grid("1:2:10000001")

    @pytest.mark.parametrize("text", ["1:10:100", "1e2:1e3:100000",
                                      "1e3:1e300:50"])
    def test_range_grid_equals_rounded_set(self, text):
        # the per-float form the range grid replaced, on the same sizes
        lo, hi, k = (float(part) for part in text.split(":"))
        sizes = np.exp(np.linspace(math.log(lo), math.log(hi), int(k)))
        grid = parse_size_grid(text)
        assert grid == sorted({int(round(s)) for s in sizes})
        assert all(type(n) is int for n in grid)


class TestExitCodes:
    def test_missing_required_flag(self, capsys):
        assert main(["discrepancy", "--j", "1"]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_bad_beta(self, tmp_path, capsys):
        code = main(["discrepancy", "--beta", "not-a-number",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_resource_limit(self, tmp_path, capsys):
        code = main(["spectrum", "--beta", "golden", "--dim", "5000",
                     "--out", str(tmp_path)])
        assert code == 3

    # the kick states alone would take 16 GB at this dim; patched to raise,
    # so that a check placed after them fails at once instead of allocating
    @pytest.mark.parametrize("rank", ["1", "2"])
    @pytest.mark.parametrize("command", ["spectrum", "dynamics"])
    def test_dim_checked_before_states_are_built(self, command, rank,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        import kickspec.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("kick states built before the --dim check")

        monkeypatch.setattr(cli_mod, "full_support_state", refuse)
        monkeypatch.setattr(cli_mod, "orthonormal_ensemble", refuse)
        start = time.perf_counter()
        code = main([command, "--beta", "golden", "--rank", rank,
                     "--lambdas", ",".join(["1.0"] * int(rank)),
                     "--dim", "1000000000", "--out", str(tmp_path / "run")])
        elapsed = time.perf_counter() - start
        assert code == 3
        assert "exceeds the dense limit" in capsys.readouterr().err
        assert elapsed < 1.0
        assert not any(tmp_path.iterdir())

    # rejected before numpy sees the value: no RuntimeWarning, no traceback
    @pytest.mark.parametrize("argv, message", [
        (["weyl", "--n-grid", "inf"], "cannot parse size grid"),
        (["weyl", "--n-grid", "1e400"], "cannot parse size grid"),
        (["discrepancy", "--n-grid", "1e3:inf:3"], "cannot parse size grid"),
        (["discrepancy", "--n-grid", "1e3:1e400:3"], "cannot parse size grid"),
        (["dynamics", "--rank", "0", "--hbar", "inf"],
         "hbar must be positive and finite"),
        (["spectrum", "--hbar", "nan"], "hbar must be positive and finite"),
    ])
    def test_non_finite_value_rejected(self, argv, message, tmp_path,
                                       capsys, recwarn):
        code = main([*argv, "--beta", "golden",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not recwarn.list
        assert not any(tmp_path.iterdir())

    # the k sizes of lo:hi:k would take 8 TB per array; the count is
    # checked against the term limit before numpy builds them
    @pytest.mark.parametrize("command", ["weyl", "discrepancy", "scount"])
    def test_grid_count_limit(self, command, tmp_path, capsys):
        code = main([command, "--beta", "golden",
                     "--n-grid", "1e2:1e3:1000000000000",
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert "grid count 1000000000000 exceeds the limit" in \
            capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["spectrum", "dynamics"])
    def test_negative_rank_rejected(self, command, tmp_path, capsys):
        code = main([command, "--beta", "golden", "--rank", "-1",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "--rank: needs an integer of at least 0" in \
            capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    # checked before the phases are built: theta_sequence is patched to fail
    @pytest.mark.parametrize("x_grid, message", [
        ("7.0", "strictly inside (0, 2*pi)"),
        ("0.001", "spills outside [0, 1)"),
    ])
    def test_bad_x_rejected_before_any_work(self, x_grid, message, tmp_path,
                                            monkeypatch, capsys):
        import kickspec.counting as counting_mod

        def fail(*args, **kwargs):
            raise AssertionError("theta built for an x that cannot be counted")

        monkeypatch.setattr(counting_mod, "theta_sequence", fail)
        code = main(["scount", "--beta", "golden", "--x-grid", x_grid,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["discrepancy", "--beta", "golden", "--threads", "7"],
        ["weyl", "--beta", "golden", "--threads", "2"],
        ["spectrum", "--beta", "golden", "--threads", "2"],
        ["dynamics", "--beta", "golden", "--threads", "-4"],
    ])
    def test_threads_is_a_scount_flag_only(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    # a prefix of --gamma-grid or --lambdas is an error, not an alias
    @pytest.mark.parametrize("argv", [
        ["scount", "--beta", "golden", "--gamma", "0.75"],
        ["spectrum", "--beta", "golden", "--lambda", "2"],
    ], ids=lambda argv: argv[0])
    def test_flag_abbreviations_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()

    # lambda - 2*pi = 1.5e-12: |sin(lambda/2)| = 7.5e-13 makes the kick a
    # no-op, rejected before any phase is built or any file written
    @pytest.mark.parametrize("command", ["spectrum", "dynamics"])
    def test_near_trivial_kick_writes_nothing(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([command, "--beta", "golden", "--dim", "64",
                     "--lambdas", "6.283185307181086", "--out", str(out)])
        assert code == 2
        assert "congruent to 0 mod 2*pi" in capsys.readouterr().err
        assert not out.exists()

    # the last computation of a run fails: no partial run is left behind
    @pytest.mark.parametrize("argv, patched, error, code, table", [
        pytest.param(["dynamics", "--kicks", "10"], "eigen_decompose",
                     errors.ToleranceError("synthetic"), 4, "dynamics.csv",
                     id="dynamics"),
        pytest.param(["spectrum"], "cotangent_residual", errors.PoleError(0),
                     2, "eigenphases.csv", id="spectrum"),
    ])
    def test_late_failure_writes_nothing(self, argv, patched, error, code,
                                         table, tmp_path, monkeypatch):
        import kickspec.cli as cli_mod

        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_mod, patched, explode)
        assert main(argv + ["--beta", "golden", "--dim", "16",
                            "--out", str(tmp_path)]) == code
        assert not (tmp_path / table).exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_threads_below_one_rejected(self, threads, tmp_path, capsys):
        code = main(["scount", "--beta", "golden", "--threads", threads,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    # N = 1e12 would ask for 8 TB; a missing check fails fast with
    # MemoryError instead of hanging
    @pytest.mark.parametrize("command", ["discrepancy", "weyl", "scount"])
    def test_term_limit(self, command, tmp_path, capsys):
        code = main([command, "--beta", "golden", "--n-grid", "1e3:1e12:2",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "exceed the limit" in capsys.readouterr().err

    @pytest.mark.parametrize("h_max", ["0", "-3", "four"])
    def test_h_max_below_one_rejected(self, h_max, tmp_path, capsys):
        code = main(["weyl", "--beta", "golden", "--h-max", h_max,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "--h-max" in capsys.readouterr().err
        assert not (tmp_path / "weyl.csv").exists()

    def test_weyl_harmonic_limit(self, tmp_path, monkeypatch, capsys):
        import kickspec.cli as cli_mod

        monkeypatch.setattr(cli_mod, "weyl_sums", None)
        code = main(["weyl", "--beta", "golden", "--h-max", "100000000",
                     "--n-grid", "1e3:1e4:2", "--out", str(tmp_path)])
        assert code == 3
        assert "exceed the limit" in capsys.readouterr().err
        assert not (tmp_path / "weyl.csv").exists()

    @pytest.mark.parametrize("m", ["0", "-5", "many"])
    def test_m_below_one_rejected(self, m, tmp_path, capsys):
        code = main(["discrepancy", "--beta", "golden", "--m", m,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "--m" in capsys.readouterr().err
        assert not (tmp_path / "discrepancy.csv").exists()

    def test_erdos_turan_product_limit(self, tmp_path, monkeypatch, capsys):
        import kickspec.cli as cli_mod

        monkeypatch.setattr(cli_mod, "sequence_points", None)
        code = main(["discrepancy", "--beta", "golden", "--m", "100000000",
                     "--n-grid", "1e3:1e4:2", "--out", str(tmp_path)])
        assert code == 3
        assert "exceed the limit" in capsys.readouterr().err
        assert not (tmp_path / "discrepancy.csv").exists()

    def test_erdos_turan_size_floor(self, tmp_path, monkeypatch, capsys):
        import kickspec.cli as cli_mod

        # a one-point grid pays per harmonic as if it held ET_SIZE_FLOOR
        # points, so 1e9 harmonics are refused instead of running minutes
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, "sequence_points", None)
            start = time.perf_counter()
            code = main(["discrepancy", "--beta", "golden", "--n-grid", "1",
                         "--m", "1000000000", "--out", str(tmp_path / "big")])
            elapsed = time.perf_counter() - start
        assert code == 3
        assert "exceed the limit" in capsys.readouterr().err
        assert elapsed < 1.0
        assert not any(tmp_path.iterdir())
        assert main(["discrepancy", "--beta", "golden", "--n-grid", "1,2,3",
                     "--m", "10000", "--out", str(tmp_path / "small")]) == 0

    def test_erdos_turan_bound_below_d_n(self, tmp_path, monkeypatch,
                                         capsys):
        import kickspec.cli as cli_mod

        # an upper bound below the exact D_N is a numerical failure, not a
        # usage error, on the closed-form j = 1 branch and the point-sum
        # branch alike
        for j, patched in (("1", "linear_erdos_turan_bounds"),
                           ("2", "erdos_turan_bounds")):
            with monkeypatch.context() as patch:
                patch.setattr(cli_mod, patched,
                              lambda source, grid, m: [1e-9] * len(grid))
                code = main(["discrepancy", "--j", j, "--beta", "golden",
                             "--n-grid", "1e3:1e4:2",
                             "--out", str(tmp_path / "run")])
            assert code == 4
            assert "numerical tolerance violated" in capsys.readouterr().err
            assert not any(tmp_path.iterdir())

    # --epsilon must be finite and >= 0, --eta finite and >= 1
    @pytest.mark.parametrize("argv", [
        *(["weyl", "--n-grid", "1e2:1e5:3", "--epsilon", value]
          for value in ("-0.5", "nan", "inf", "abc")),
        *(["scount", "--n-grid", "1e3:1e4:2", "--x-count", "2", "--eta", value]
          for value in ("-0.5", "nan", "inf", "abc", "0.5")),
    ], ids=lambda argv: f"{argv[-2]}={argv[-1]}")
    def test_exponent_flags_checked_at_parse(self, argv, tmp_path, capsys):
        code = main([argv[0], "--beta", "golden", *argv[1:],
                     "--out", str(tmp_path)])
        assert code == 2
        assert argv[-2] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_anchor_work_limit(self, tmp_path, capsys):
        # degree 40 leaves blocks of 2 points: 5e4 anchors of 41**2 products
        start = time.perf_counter()
        code = main(["discrepancy", "--j", "40", "--beta", "golden",
                     "--n-grid", "1e3:1e5:2", "--m", "4", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert code == 3
        assert "anchor work limit" in capsys.readouterr().err
        assert elapsed < 1.0
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["spectrum", "dynamics"])
    @pytest.mark.parametrize("flags", [["--lambdas", "nan"], ["--lambdas", "inf"],
                                       ["--hbar", "1e-320"]])
    def test_non_finite_kick_phase_rejected(self, command, flags, tmp_path,
                                            capsys):
        code = main([command, "--beta", "golden", "--dim", "16", *flags,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_x_count_limit(self, tmp_path, monkeypatch, capsys):
        import kickspec.counting as counting_mod

        monkeypatch.setattr(counting_mod, "make_interval", None)
        code = main(["scount", "--beta", "golden", "--x-count", "100000000",
                     "--n-grid", "1e3:1e4:2", "--out", str(tmp_path)])
        assert code == 3
        assert "exceed the limit" in capsys.readouterr().err
        assert not (tmp_path / "cells.csv").exists()

    # each thread would hold 25 bytes per phase; the count is refused
    # before the phases, any thread and the cache lookup
    def test_thread_limit(self, tmp_path, monkeypatch, capsys):
        import concurrent.futures

        import kickspec.cli as cli_mod
        import kickspec.counting as counting_mod

        def fail(*args, **kwargs):
            raise AssertionError("work started for a refused thread count")

        monkeypatch.setattr(counting_mod, "theta_sequence", fail)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", fail)
        monkeypatch.setattr(cli_mod, "CellCache", fail)
        code = main(["scount", "--beta", "golden", "--threads", "1000000",
                     "--out", str(tmp_path / "run")])
        assert code == 3
        assert "1000000 threads exceed the limit 64" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_kick_limit(self, tmp_path, capsys):
        code = main(["dynamics", "--beta", "golden", "--dim", "8",
                     "--kicks", "1000000000000", "--out", str(tmp_path)])
        assert code == 3
        assert "exceed the limit" in capsys.readouterr().err

    def test_gamma_out_of_range(self, tmp_path, capsys):
        code = main(["scount", "--beta", "golden", "--gamma-grid", "0.4",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_malformed_x_grid(self, tmp_path, capsys):
        code = main(["scount", "--beta", "golden", "--x-grid", "1.0;2.0",
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("precision", ["0", "-5", "abc"])
    def test_precision_below_one_rejected(self, precision, tmp_path, capsys):
        code = main(["discrepancy", "--beta", "golden", "--precision",
                     precision, "--n-grid", "1e3:1e4:2",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "--precision" in capsys.readouterr().err
        assert not (tmp_path / "discrepancy.csv").exists()

    @pytest.mark.parametrize("flags, value", [
        (["--x-grid", "2.0,2.0,3.0", "--gamma-grid", "0.6,0.75"], "2.0"),
        (["--x-grid", "2.0,3.0", "--gamma-grid", "0.6,0.75,0.6"], "0.6"),
    ])
    def test_repeated_grid_value_rejected(self, flags, value, tmp_path,
                                          capsys):
        code = main(["scount", "--beta", "golden", *flags,
                     "--n-grid", "1e3:3e5:4", "--out", str(tmp_path)])
        assert code == 2
        assert f"repeats the value {value}" in capsys.readouterr().err
        assert not (tmp_path / "cells.csv").exists()

    # every class of kickspec.errors, so that a class which stops deriving
    # from ValueError (or a new one) cannot slip past the one handler
    @pytest.mark.parametrize("error_class", [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, Exception)
    ], ids=lambda cls: cls.__name__)
    def test_error_class_maps_to_exit_code(self, error_class, tmp_path,
                                           monkeypatch, capsys):
        import kickspec.cli as cli_mod

        error = error_class(3) if error_class is errors.PoleError \
            else error_class("synthetic failure")

        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli_mod, "build_floquet", explode)
        code = main(["spectrum", "--beta", "golden", "--dim", "8",
                     "--out", str(tmp_path)])
        expected = {errors.ToleranceError: 4,
                    errors.ResourceLimitError: 3}.get(error_class, 2)
        if expected == 2:
            assert issubclass(error_class, ValueError)
        assert code == expected
        assert str(error) in capsys.readouterr().err


class TestDiscrepancyCommand:
    def test_rational_beta_plateau(self, tmp_path):
        out = tmp_path / "run"
        code = main(["discrepancy", "--j", "1", "--beta", "1/3",
                     "--n-grid", "100:1000:2", "--m", "8",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "discrepancy.csv")
        assert rows[0] == ["N", "D_N", "ET_bound"]
        d_values = [float(r[1]) for r in rows[1:-1]]
        assert all(d > 0.3 for d in d_values)  # no decay for rational beta
        assert rows[-1][0] == "slope"
        assert abs(float(rows[-1][1])) < 0.05
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "discrepancy"
        assert manifest["outputs"] == ["discrepancy.csv"]

    def test_values_match_library(self, tmp_path):
        out = tmp_path / "run"
        assert main(["discrepancy", "--j", "1", "--beta", "golden",
                     "--n-grid", "100:10000:3", "--m", "16",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "discrepancy.csv")[1:-1]
        spec = SequenceSpec(j=1, beta=golden_ratio(200))
        pts = sequence_points(spec, 10_000)
        sizes = [int(row[0]) for row in rows]
        closed = linear_erdos_turan_bounds(spec.beta, sizes, 16)
        for row, n, bound in zip(rows, sizes, closed):
            assert float(row[1]) == discrepancy_exact(pts[:n]).d_n
            assert float(row[2]) == bound
            assert float(row[2]) == pytest.approx(
                erdos_turan_bound(pts[:n], 16), rel=1e-14, abs=0)

    @pytest.mark.parametrize("j, used, unused", [
        ("1", "linear_erdos_turan_bounds", "erdos_turan_bounds"),
        ("2", "erdos_turan_bounds", "linear_erdos_turan_bounds"),
    ])
    def test_bound_branch_follows_power(self, j, used, unused, tmp_path,
                                        monkeypatch):
        import kickspec.cli as cli_mod

        calls = []
        original = getattr(cli_mod, used)

        def record(*args):
            calls.append(args)
            return original(*args)

        def refuse(*args):
            raise AssertionError(f"{unused} called at j = {j}")

        monkeypatch.setattr(cli_mod, used, record)
        monkeypatch.setattr(cli_mod, unused, refuse)
        assert main(["discrepancy", "--j", j, "--beta", "golden",
                     "--n-grid", "1e2:1e3:2", "--m", "8",
                     "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 1

    def test_golden_full_grid_slope(self, tmp_path):
        from kickspec.equidistribution import _log_log_slope

        out = tmp_path / "run"
        assert main(["discrepancy", "--j", "1", "--beta", "golden",
                     "--n-grid", "1e3:1e6:4", "--m", "64",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "discrepancy.csv")
        data = rows[1:-1]
        assert len(data) == 4
        slope = float(rows[-1][1])
        assert -1.05 <= slope <= -0.85
        sizes = [1000, 10_000, 100_000, 1_000_000]
        pts = sequence_points(SequenceSpec(j=1, beta=golden_ratio(200)),
                              sizes[-1])
        table = [(n, discrepancy_exact(pts[:n]).d_n) for n in sizes]
        assert slope == pytest.approx(_log_log_slope(table), abs=1e-12)
        for row, (n, d) in zip(data, table):
            assert int(row[0]) == n
            assert float(row[1]) == d


class TestSpectrumCommand:
    def test_two_level_analytic(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--beta", "1/2", "--rank", "1",
                     "--dim", "2", "--lambdas", str(math.pi),
                     "--kick-state", "uniform", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "eigenphases.csv")
        phases = [float(r[1]) for r in rows[1:]]
        assert phases == pytest.approx([math.pi / 2, 3 * math.pi / 2],
                                       abs=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_secular_residual"] < 1e-10
        assert summary["trace_norms"] == pytest.approx([2.0])

    def test_rank_zero_recovers_bare_phases(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--beta", "1/8", "--rank", "0",
                     "--dim", "8", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "eigenphases.csv")
        phases = sorted(float(r[1]) for r in rows[1:])
        expected = sorted((2 * math.pi * n / 8) % (2 * math.pi)
                          for n in range(8))
        assert phases == pytest.approx(expected, abs=1e-12)

    def test_negative_strength_residual_uses_signed_kick(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--beta", "golden", "--rank", "1",
                     "--dim", "32", "--lambdas=-1.0", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_secular_residual"] <= 1e-6

    def test_negative_strengths_in_a_comma_list(self, tmp_path, capsys):
        # a separate "-1.0,2.0" argument reads as a missing value
        assert main(["spectrum", "--beta", "golden", "--rank", "2",
                     "--lambdas", "-1.0,2.0", "--dim", "32",
                     "--out", str(tmp_path / "split")]) == 2
        assert "expected one argument" in capsys.readouterr().err
        out = tmp_path / "joined"
        assert main(["spectrum", "--beta", "golden", "--rank", "2",
                     "--lambdas=-1.0,2.0", "--dim", "32",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"]["lambdas"] == "-1.0,2.0"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trace_norms"] == pytest.approx(
            [math.sqrt(2 - 2 * math.cos(1.0)), math.sqrt(2 - 2 * math.cos(2.0))])
        assert summary["weight_sums"] == pytest.approx([1.0, 1.0], abs=1e-10)

    # rational phases repeat: eigen_decompose deflates the coincident poles
    # into weightless copies that sit on a weighted pole, and the residual
    # is taken at the weighted eigenphases, the secular roots, only
    def test_rational_beta_rank1(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--beta", "1/3", "--rank", "1",
                     "--dim", "64", "--out", str(out)])
        assert code == 0
        weights = [float(r[2]) for r in read_csv(out / "eigenphases.csv")[1:]]
        assert len(weights) == 64
        assert sum(w > 0.0 for w in weights) == 3
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_secular_residual"] <= 1e-6

    def test_rank1_secular_residual_small(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", "--beta", "golden", "--rank", "1",
                     "--dim", "64", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_secular_residual"] <= 1e-6
        assert summary["unitarity_defect"] <= 1e-10 * 64


class TestScountCommand:
    # a small-denominator rational is the paper's bounded case, but it has
    # no irrationality type for the window annotation to estimate
    def test_rational_beta_needs_eta(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["scount", "--beta", "1/3", "--x-count", "3",
                "--n-grid", "1e3:1e4:2", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "irrationality type" in err and "--eta" in err
        assert not out.exists()
        assert main(argv + ["--eta", "1"]) == 0

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["scount", "--j", "1", "--beta", "golden",
                     "--gamma-grid", "0.75", "--n-grid", "1e3:1e4:2",
                     "--x-count", "3", "--out", str(out)])
        assert code == 0
        labels = read_csv(out / "labels.csv")
        assert labels[0] == ["x_rad", "gamma", "label", "inside_window"]
        assert all(row[2] == "divergent-trend" for row in labels[1:])
        assert all(row[3] == "1" for row in labels[1:])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["window"][0] == 0.5
        manifest = json.loads((out / "manifest.json").read_text())
        from kickspec.runio import manifest_hash
        assert manifest["hash"] == manifest_hash(manifest["params"])
        assert set(manifest["outputs"]) == {"cells.csv", "labels.csv",
                                            "summary.json"}

    def test_close_x_values_keep_their_labels(self, tmp_path):
        # the two x values agree to 12 significant digits
        out = tmp_path / "run"
        code = main(["scount", "--beta", "golden",
                     "--x-grid", "2.0,2.0000000000001",
                     "--n-grid", "1e3:1e4:2", "--out", str(out)])
        assert code == 0
        labels = read_csv(out / "labels.csv")
        assert [float(row[0]) for row in labels[1:]] == [2.0, 2.0000000000001]
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"eta", "window"}

    def test_gamma_grid_default(self, tmp_path):
        flags = ["scount", "--beta", "golden", "--n-grid", "1e3:1e4:2",
                 "--x-count", "2"]
        runs = [tmp_path / "default", tmp_path / "given"]
        assert main(flags + ["--out", str(runs[0])]) == 0
        assert main(flags + ["--gamma-grid", "0.75",
                             "--out", str(runs[1])]) == 0
        params = [json.loads((out / "manifest.json").read_text())["params"]
                  for out in runs]
        assert params[0] == params[1]
        assert params[0]["gamma_grid"] == [0.75]
        assert (runs[0] / "cells.csv").read_bytes() == \
            (runs[1] / "cells.csv").read_bytes()

    def test_inside_window_column(self, tmp_path):
        # j = 2, eta = 1: the open window is (0.5, 0.75), so its upper end
        # 0.75 lies outside
        out = tmp_path / "run"
        code = main(["scount", "--j", "2", "--beta", "golden", "--eta", "1",
                     "--gamma-grid", "0.6,0.75,0.9", "--n-grid", "1e3:1e4:2",
                     "--x-count", "2", "--out", str(out)])
        assert code == 0
        inside = {}
        for row in read_csv(out / "labels.csv")[1:]:
            inside.setdefault(row[1], set()).add(row[3])
        assert inside == {"0.6": {"1"}, "0.75": {"0"}, "0.9": {"0"}}

    def test_outside_window_annotation(self, tmp_path):
        out = tmp_path / "run"
        code = main(["scount", "--j", "2", "--beta", "golden",
                     "--gamma-grid", "0.9", "--eta", "1.0",
                     "--n-grid", "1e3:1e4:2", "--x-count", "2",
                     "--out", str(out)])
        assert code == 0
        labels = read_csv(out / "labels.csv")
        assert all(row[3] == "0" for row in labels[1:])

    def test_bourget_variant(self, tmp_path):
        out = tmp_path / "run"
        code = main(["scount", "--j", "2", "--beta", "golden",
                     "--gamma-grid", "0.75", "--variant", "bourget",
                     "--n-grid", "1e3:1e4:2", "--x-count", "2",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "cells.csv")
        assert all(row[-1] == "1" for row in rows[1:])  # inequality holds

    def test_cache_reuse_is_exact(self, tmp_path):
        out = tmp_path / "run"
        args = ["scount", "--j", "1", "--beta", "golden",
                "--gamma-grid", "0.75", "--n-grid", "1e3:1e4:2",
                "--x-count", "2", "--out", str(out)]
        assert main(args) == 0
        first = (out / "cells.csv").read_bytes()
        assert (out / ".cache").exists()
        assert main(args) == 0  # second run hits the cache
        assert (out / "cells.csv").read_bytes() == first


    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        out = tmp_path / "run"
        args = ["scount", "--j", "1", "--beta", "golden",
                "--gamma-grid", "0.75", "--n-grid", "1e3:1e4:2",
                "--x-count", "2", "--out", str(out)]
        assert main(args) == 0
        first = (out / "cells.csv").read_bytes()
        (entry,) = (out / ".cache").iterdir()
        entry.write_text(entry.read_text()[:40])  # a truncated write
        assert main(args) == 0
        assert (out / "cells.csv").read_bytes() == first
        json.loads(entry.read_text())  # recomputed and overwritten
        entry.write_text('{"key": "%s", "rows": {}}' % entry.stem)
        assert main(args) == 0
        assert (out / "cells.csv").read_bytes() == first
        # an intact key over rows from which a table does not build: a short
        # labels row, a cells entry that is no list, a dict cell and a bool
        # cell, which would be written as "True"
        good = entry.read_text()
        tables = {name: (out / name).read_bytes()
                  for name in ("cells.csv", "labels.csv")}
        for damage in (lambda rows: rows["labels"][0].pop(),
                       lambda rows: rows.update(cells=5),
                       lambda rows: rows["cells"][0].__setitem__(2, {"N": 1}),
                       lambda rows: rows["cells"][0].__setitem__(8, True)):
            stored = json.loads(good)
            damage(stored["rows"])
            entry.write_text(json.dumps(stored))
            assert main(args) == 0
            assert entry.read_text() == good  # recomputed and overwritten
            for name, data in tables.items():
                assert (out / name).read_bytes() == data

    def test_cache_key_covers_version(self, tmp_path, monkeypatch):
        import kickspec.cli as cli_mod

        out = tmp_path / "run"
        args = ["scount", "--j", "1", "--beta", "golden",
                "--gamma-grid", "0.75", "--n-grid", "1e3:1e4:2",
                "--x-count", "2", "--out", str(out)]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        monkeypatch.setattr(cli_mod, "__version__", "99.0.0")
        assert main(args) == 0
        assert len(list((out / ".cache").iterdir())) == 2
        rerun = json.loads((out / "manifest.json").read_text())
        assert rerun["hash"] == manifest["hash"]
        assert rerun["params"] == manifest["params"]


class TestDynamicsCommand:
    def test_two_level_cesaro(self, tmp_path):
        out = tmp_path / "run"
        code = main(["dynamics", "--beta", "1/2", "--rank", "1",
                     "--dim", "2", "--lambdas", str(math.pi),
                     "--kick-state", "uniform", "--kicks", "100",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "dynamics.csv")
        assert rows[0] == ["n", "survival", "energy", "running_cesaro"]
        assert float(rows[-1][3]) == pytest.approx(0.5, abs=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cesaro_mean"] == pytest.approx(0.5, abs=1e-12)
        assert summary["point_mass_sum"] == pytest.approx(0.5, abs=1e-12)
        assert summary["wiener_gap"] <= 1e-12

    def test_no_kick_keeps_survival_at_one(self, tmp_path):
        out = tmp_path / "run"
        code = main(["dynamics", "--beta", "golden", "--rank", "0",
                     "--dim", "16", "--kicks", "64", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "dynamics.csv")
        survival = [float(r[1]) for r in rows[1:]]
        assert survival == pytest.approx([1.0] * 65, abs=1e-10)


# The README examples and the parameters each manifest must record: every
# flag but --out.  scount records the resolved eta, x grid, gamma grid and
# n grid in place of --eta, --x-count, --gamma-grid and --n-grid, and never
# --threads.
_SPECTRUM_PARAMS = {"beta": "golden", "hbar": 1.0, "period": "1", "rank": 1,
                    "gamma": 0.75, "lambdas": "1.0", "kick_state": "power",
                    "precision": None}
README_RUNS = {
    "discrepancy": (
        ["--j", "1", "--beta", "golden", "--n-grid", "1e3:1e6:4", "--m", "64"],
        {"command": "discrepancy", "j": 1, "beta": "golden",
         "n_grid": "1e3:1e6:4", "m": 64, "precision": None}),
    "weyl": (
        ["--j", "2", "--beta", "sqrt2", "--n-grid", "1e2:1e5:4",
         "--h-max", "4"],
        {"command": "weyl", "j": 2, "beta": "sqrt2", "n_grid": "1e2:1e5:4",
         "h_max": 4, "epsilon": 0.01, "precision": None}),
    "spectrum": (
        ["--beta", "golden", "--rank", "1", "--gamma", "0.75",
         "--lambdas", "1.0", "--dim", "64"],
        {"command": "spectrum", **_SPECTRUM_PARAMS, "dim": 64}),
    "scount": (
        ["--j", "1", "--beta", "golden", "--gamma-grid", "0.6,0.75",
         "--n-grid", "1e3:1e5:3", "--x-count", "5", "--threads", "4"],
        {"command": "scount", "j": 1, "beta": "golden",
         "gamma_grid": [0.6, 0.75],
         "x_grid": list(default_x_grid(5, n_min=1000, gamma=0.6,
                                       variant="combescure")),
         "n_grid": [1000, 10_000, 100_000], "variant": "combescure",
         "eta": irrational_type_estimate(golden_ratio(200), 10_000).eta_hat,
         "precision": None}),
    "dynamics": (
        ["--beta", "golden", "--rank", "1", "--dim", "128",
         "--kicks", "10000"],
        {"command": "dynamics", **_SPECTRUM_PARAMS, "dim": 128,
         "kicks": 10000, "state_index": 0}),
}


class TestManifestParams:
    @pytest.mark.parametrize("command", list(README_RUNS))
    def test_readme_run_params(self, command, tmp_path):
        flags, expected = README_RUNS[command]
        assert main([command, *flags, "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["params"] == expected
        assert manifest["hash"] == manifest_hash(expected)


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(kickspec.__file__).resolve().parent.parent))
        code = ("import kickspec.cli, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


class TestDeterminism:
    def test_threads_byte_identical(self, tmp_path):
        base = ["scount", "--j", "1", "--beta", "golden",
                "--gamma-grid", "0.75",
                "--n-grid", "1e3:1e4:2", "--x-count", "4"]
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "8", "--out", str(out8)]) == 0
        assert (out1 / "cells.csv").read_bytes() == \
            (out8 / "cells.csv").read_bytes()
        assert (out1 / "labels.csv").read_bytes() == \
            (out8 / "labels.csv").read_bytes()

    def test_repeat_runs_byte_identical(self, tmp_path):
        base = ["discrepancy", "--beta", "sqrt2", "--n-grid", "100:1000:3",
                "--m", "4"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert (out1 / "discrepancy.csv").read_bytes() == \
            (out2 / "discrepancy.csv").read_bytes()

    def test_blas_threads_byte_identical(self, tmp_path):
        # the Erdos-Turan harmonic sums are BLAS products over 8192-point
        # blocks; the thread count must not change their summation order
        src = str(Path(kickspec.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "kickspec", "discrepancy",
                            "--j", "3", "--beta", "sqrt2",
                            "--n-grid", "1e3:3e4:4", "--m", "64",
                            "--out", str(out)],
                           env=env, capture_output=True, check=True)
            outputs.append((out / "discrepancy.csv").read_bytes())
        assert outputs[0] == outputs[1]
