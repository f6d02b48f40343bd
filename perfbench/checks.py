"""Output checks of the benchmark steps; each returns a list of failures.

Checks read only the files a step wrote, plus values recomputed here
independently of the code paths under test: fractional parts by direct
big-integer reduction and D_N by the brute-force ``discrepancy_oracle``.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

from kickspec.cli import parse_beta_spec
from kickspec.equidistribution import discrepancy_oracle

ORACLE_MAX_POINTS = 2000
WEIGHT_SUM_TOL = 1e-12
SECULAR_RESIDUAL_MAX = 1e-6  # acceptance criterion 5
SURVIVAL_TOL = 1e-12
WEYL_TOL = 1e-9
SWEEP_RESULTS = ("cells.csv", "labels.csv", "summary.json")
_UNIT = 1 << 53


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _exact_points(j: int, beta_text: str, n: int, h: int = 1) -> list[float]:
    """{h n**j beta} for n = 1..n, reduced in integers, on the 2**-53 grid."""
    beta = parse_beta_spec(beta_text)
    p, q = h * beta.numerator, beta.denominator
    return [(((k ** j * p) % q) << 53) // q / _UNIT for k in range(1, n + 1)]


class Checker:
    """Checks step outputs; oracle values are computed once per step flags."""

    def __init__(self):
        self._oracle: dict[tuple, float] = {}

    def oracle_d_n(self, j: int, beta_text: str, n: int) -> float:
        key = (j, beta_text, n)
        if key not in self._oracle:
            self._oracle[key] = discrepancy_oracle(_exact_points(j, beta_text, n))
        return self._oracle[key]

    def discrepancy(self, argv, out: Path) -> list[str]:
        j, beta = int(_flag(argv, "--j")), _flag(argv, "--beta")
        failures = []
        rows = [r for r in _rows(out / "discrepancy.csv") if r["N"].isdigit()]
        if not rows:
            failures.append("discrepancy.csv has no data rows")
        for row in rows:
            n, d_n, et = int(row["N"]), float(row["D_N"]), float(row["ET_bound"])
            if not et >= d_n:
                failures.append(f"N={n}: ET_bound {et!r} < D_N {d_n!r}")
            if n <= ORACLE_MAX_POINTS and d_n != self.oracle_d_n(j, beta, n):
                failures.append(f"N={n}: D_N {d_n!r} != oracle "
                                f"{self.oracle_d_n(j, beta, n)!r}")
        return failures

    def weyl(self, argv, out: Path) -> list[str]:
        j, beta = int(_flag(argv, "--j")), _flag(argv, "--beta")
        failures = []
        rows = _rows(out / "weyl.csv")
        if not rows:
            failures.append("weyl.csv has no rows")
        n_min = min((int(r["N"]) for r in rows), default=0)
        for row in rows:
            n, h, modulus = int(row["N"]), int(row["h"]), float(row["modulus"])
            if not 0.0 <= modulus <= n:
                failures.append(f"N={n}, h={h}: |S| = {modulus!r} outside [0, N]")
            if n == n_min:
                expect = sum(cmath.exp(2j * math.pi * x)
                             for x in _exact_points(j, beta, n, h))
                got = complex(float(row["re_S"]), float(row["im_S"]))
                if abs(got - expect) > WEYL_TOL * n:
                    failures.append(f"N={n}, h={h}: S = {got} != {expect}")
        return failures

    @staticmethod
    def scount(out: Path) -> list[str]:
        rows = _rows(out / "cells.csv")
        if not rows:
            return ["cells.csv has no rows"]
        return [f"cell x={r['x_rad']} gamma={r['gamma']} N={r['N']}: holds = "
                f"{r['holds']}" for r in rows if r["holds"] != "1"]

    @staticmethod
    def same_results(a: Path, b: Path) -> list[str]:
        """scount results must not depend on --threads or the cell cache."""
        return [f"{name} differs between {a.name} and {b.name}"
                for name in SWEEP_RESULTS
                if (a / name).read_bytes() != (b / name).read_bytes()]

    @staticmethod
    def spectrum(argv, out: Path) -> list[str]:
        failures = []
        rows = _rows(out / "eigenphases.csv")
        columns = [c for c in (rows[0] if rows else {}) if c.startswith("weight_")]
        if len(columns) != int(_flag(argv, "--rank")):
            failures.append(f"expected {_flag(argv, '--rank')} weight columns, "
                            f"found {len(columns)}")
        for column in columns:
            total = math.fsum(float(r[column]) for r in rows)
            if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
                failures.append(f"{column} sums to {total!r}, not 1 within "
                                f"{WEIGHT_SUM_TOL}")
        summary = json.loads((out / "summary.json").read_text())
        if len(columns) == 1:
            residual = summary.get("max_secular_residual")
            if residual is None or not residual <= SECULAR_RESIDUAL_MAX:
                failures.append(f"max_secular_residual {residual!r} above "
                                f"{SECULAR_RESIDUAL_MAX}")
        return failures

    @staticmethod
    def dynamics(out: Path) -> list[str]:
        survival = [float(r["survival"]) for r in _rows(out / "dynamics.csv")]
        if not survival:
            return ["dynamics.csv has no rows"]
        failures = []
        if not abs(survival[0] - 1.0) <= SURVIVAL_TOL:
            failures.append(f"survival[0] = {survival[0]!r}, not 1")
        outside = [s for s in survival if not 0.0 <= s <= 1.0 + SURVIVAL_TOL]
        if outside:
            failures.append(f"{len(outside)} survival values outside [0, 1], "
                            f"e.g. {outside[0]!r}")
        return failures

    def step(self, argv, out: Path) -> list[str]:
        """Checks of one step's own outputs, chosen by its subcommand."""
        command = argv[0]
        try:
            if command == "discrepancy":
                return self.discrepancy(argv, out)
            if command == "weyl":
                return self.weyl(argv, out)
            if command == "scount":
                return self.scount(out)
            if command == "spectrum":
                return self.spectrum(argv, out)
            if command == "dynamics":
                return self.dynamics(out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        return [f"no checks for subcommand {command!r}"]
