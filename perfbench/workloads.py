"""Seeded step lists of the three benchmark workloads.

A workload is a closed loop with one caller: a fixed list of CLI steps, each
started when the previous one returns.  The seed generates the only inputs
that vary between runs (a high-precision rational, the scount x grid and the
rank-4 kick strengths); the program receives nothing but the resulting flags.
This module does not import kickspec, so inputs never depend on the code
under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 20261017
TWO_PI = 2.0 * math.pi

# Golden-ratio phases n * (phi - 1) mod 1 are known in floats to about
# n * 1e-16; x values stay this far from every theta_n, far beyond both that
# error and the 1e-12 pole tolerance of the B^-1 sums.
_POLE_MARGIN = 1e-8
_SCOUNT_N_GRID = "1e3:3e5:4"
_SCOUNT_N_MAX = 300_000
_SCOUNT_N_MIN = 1000
_SCOUNT_GAMMA_MIN = 0.6


@dataclass(frozen=True)
class Step:
    """One CLI invocation.

    ``reuse`` names an earlier step whose output directory this one writes
    into (otherwise it gets a fresh directory); ``same_as`` names an earlier
    step whose results this one must reproduce byte for byte.
    """

    name: str
    argv: tuple[str, ...]
    reuse: str | None = None
    same_as: str | None = None


def seeded_rational(rng: random.Random, bits: int = 4096) -> tuple[int, int]:
    """A reduced p/q in (0, 1) whose denominator has exactly ``bits`` bits."""
    while True:
        q = rng.getrandbits(bits) | (1 << (bits - 1))
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return p, q


def seeded_x_grid(rng: random.Random, count: int = 8) -> tuple[float, ...]:
    """``count`` sorted x in (0, 2*pi) away from the golden phases theta_n,
    n <= N_max, whose combescure interval fits at N = 1e3, gamma = 0.6."""
    half_width = _SCOUNT_N_MIN ** (-_SCOUNT_GAMMA_MIN)
    phi_minus_one = (math.sqrt(5.0) - 1.0) / 2.0
    theta = np.sort((np.arange(_SCOUNT_N_MAX + 1) * phi_minus_one) % 1.0)
    xs: list[float] = []
    while len(xs) < count:
        unit = rng.uniform(2.0 * half_width, 1.0 - 2.0 * half_width)
        k = int(np.searchsorted(theta, unit))
        near = theta[max(k - 1, 0):k + 1]
        if np.min(np.abs(near - unit)) > _POLE_MARGIN:
            xs.append(TWO_PI * unit)
    return tuple(sorted(xs))


def seeded_lambdas(rng: random.Random, count: int = 4) -> tuple[float, ...]:
    """Kick strengths at least 0.5 away from every multiple of 2*pi."""
    return tuple(round(rng.uniform(0.5, TWO_PI - 0.5), 6) for _ in range(count))


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def steps_for(workload: str, seed: int) -> tuple[Step, ...]:
    """The ordered steps of ``workload`` with inputs generated from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "numtheory":
        p, q = seeded_rational(rng)
        return (
            Step("disc-j1", ("discrepancy", "--j", "1", "--beta", "golden",
                             "--n-grid", "1e3:1e6:4", "--m", "64")),
            Step("disc-j3-hp", ("discrepancy", "--j", "3", "--beta", f"{p}/{q}",
                                "--n-grid", "1e3:3e5:4", "--m", "64")),
            Step("weyl-j2", ("weyl", "--j", "2", "--beta", "sqrt2",
                             "--n-grid", "1e2:1e5:4", "--h-max", "4")),
        )
    if workload == "sweep":
        flags = ("scount", "--j", "1", "--beta", "golden",
                 "--gamma-grid", "0.6,0.75", "--n-grid", _SCOUNT_N_GRID,
                 "--x-grid", _csv(seeded_x_grid(rng)))
        return (
            Step("scount-t1", flags + ("--threads", "1")),
            Step("scount-t2", flags + ("--threads", "2"), same_as="scount-t1"),
            Step("scount-cached", flags + ("--threads", "1"), reuse="scount-t1"),
        )
    if workload == "operator":
        return (
            Step("spectrum-r1", ("spectrum", "--beta", "golden", "--rank", "1",
                                 "--gamma", "0.75", "--lambdas", "1.0",
                                 "--dim", "512")),
            Step("spectrum-r4", ("spectrum", "--beta", "golden", "--rank", "4",
                                 "--gamma", "0.75",
                                 "--lambdas", _csv(seeded_lambdas(rng)),
                                 "--dim", "512")),
            Step("dynamics", ("dynamics", "--beta", "golden", "--rank", "1",
                              "--dim", "256", "--kicks", "10000")),
        )
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("numtheory", "sweep", "operator")
