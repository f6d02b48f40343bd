"""Self-tests of the benchmark's tracer, output checks and seeded inputs.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kickspec.cli as cli  # noqa: E402
from kickspec import counting, rationals, spectral  # noqa: E402
from kickspec.equidistribution import SequenceSpec  # noqa: E402

from checks import Checker  # noqa: E402
from tracer import (  # noqa: E402
    LAYERS, Span, Tracer, attributed_s, self_times, summarize)
from workloads import (  # noqa: E402
    seeded_lambdas, seeded_rational, seeded_x_grid, steps_for, WORKLOADS)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [Span(0, "counting.divergence_scan", None, 0.0, 10.0),
             Span(1, "spectral.circle_distance", 0, 1.0, 4.0),
             Span(2, "spectral.circle_distance", 0, 2.0, 6.0),  # overlaps 1
             Span(3, "counting.make_interval", 0, 8.0, 9.0),
             Span(4, "spectral.circle_distance", 3, 8.5, 8.75)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[3] == pytest.approx(0.75)
    flat = summarize(spans)
    assert flat["spectral.circle_distance.calls"] == 3
    assert flat["counting.self_s"] == pytest.approx(4.0 + 0.75)


def test_worker_thread_spans_are_children_of_divergence_scan(tracer):
    spec = SequenceSpec(j=1, beta=rationals.golden_ratio())
    xs = (2.0, 4.0)
    tracer.reset()
    counting.divergence_scan(spec, 0.75, xs, [1000, 4000], threads=2)
    scans = [s for s in tracer.spans if s.name == "counting.divergence_scan"]
    assert len(scans) == 1 and scans[0].parent is None
    scan = scans[0]
    by_id = {s.id: s for s in tracer.spans}
    cells = [s for s in tracer.spans if s.name == "counting.b_lower_bounds"]
    assert len(cells) == len(xs) * 2
    # every b_lower_bounds call ran on a pool thread with nothing open there
    assert all(s.parent == scan.id for s in cells)
    for span in tracer.spans:
        while span.parent is not None:
            span = by_id[span.parent]
        assert span is scan
    own = self_times(tracer.spans)
    assert 0.0 <= own[scan.id] <= scan.end - scan.start


def test_wrapping_rebinds_every_module_that_imported_the_function(tracer):
    assert counting.theta_sequence is spectral.theta_sequence
    assert cli.theta_sequence is spectral.theta_sequence
    spec = spectral.BaseSpectrum.harmonic(rationals.golden_ratio().as_fraction())
    counting.theta_sequence(spec, 10)
    spectral.theta_sequence(spec, 20)
    flat = summarize(tracer.spans)
    assert flat["spectral.theta_sequence.calls"] == 2
    assert flat["spectral.theta_sequence.points"] == 30


def test_every_per_layer_metric_names_something_measured():
    """Guards BENCHMARK.json against names that would silently read 0."""
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    t = Tracer()
    traced = set(t.install())
    t.uninstall()
    derived = {"setup.scipy_import_s", "trace.overhead_s", "host.probe_s",
               "trace.unattributed_s", "counting.cells", "runio.cache_hits",
               "runio.cache_misses"}
    totals = {f"{layer}.self_s" for layer in LAYERS + ("cli",)}
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert (name in derived or name in totals
                or name.rsplit(".", 1)[0] in traced), name


def test_a_changed_signature_loses_counts_but_not_the_call():
    t = Tracer()
    renamed = t.wrap("spectral.theta_sequence", lambda spec, count: count)
    assert renamed(None, count=5) == 5
    assert t.spans[0].counts == {}


def test_uninstall_restores_the_original_functions():
    original = counting.theta_sequence
    t = Tracer()
    t.install()
    assert counting.theta_sequence is not original
    t.uninstall()
    assert counting.theta_sequence is original
    assert spectral.theta_sequence is original


def test_unit_float_is_left_unwrapped():
    original = rationals.unit_float
    fractional = rationals.polynomial_fractional_parts
    beta = rationals.golden_ratio()
    t = Tracer()
    names = t.install()
    try:
        assert rationals.unit_float is original
        assert "rationals.unit_float" not in names
        assert rationals.polynomial_fractional_parts is not fractional
        rationals.polynomial_fractional_parts([0, beta], 1000)
        assert [s.name for s in t.spans] == [
            "rationals.polynomial_fractional_parts"]
    finally:
        t.uninstall()


def test_self_times_of_a_step_add_up_to_its_duration(tmp_path, tracer):
    import time

    start = time.perf_counter()
    rc = cli.main(["discrepancy", "--beta", "golden", "--n-grid", "1e3:1e4:2",
                   "--out", str(tmp_path)])
    seconds = time.perf_counter() - start
    assert rc == 0
    flat = summarize(tracer.spans)
    assert attributed_s(flat) == pytest.approx(seconds, abs=1e-3)
    assert flat["cli.main.calls"] == 1


# ---------------------------------------------------------------------------
# Output checks fail on corrupted outputs
# ---------------------------------------------------------------------------


def _run(argv, out: Path) -> Path:
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    return out


def _edit_csv(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


DISC = ("discrepancy", "--j", "2", "--beta", "12345/67891",
        "--n-grid", "1e3:4e3:2", "--m", "8")


def test_discrepancy_checks(tmp_path):
    out = _run(DISC, tmp_path)
    checker = Checker()
    assert checker.step(DISC, out) == []
    d_n = float(out.joinpath("discrepancy.csv").read_text().splitlines()[1]
                .split(",")[1])
    _edit_csv(out / "discrepancy.csv", 0, "D_N", repr(math.nextafter(d_n, 1)))
    assert any("oracle" in f for f in checker.step(DISC, out))
    _edit_csv(out / "discrepancy.csv", 1, "ET_bound", "1e-9")
    assert any("ET_bound" in f for f in checker.step(DISC, out))


def test_weyl_checks(tmp_path):
    argv = ("weyl", "--j", "2", "--beta", "sqrt2", "--n-grid", "1e2:1e3:2",
            "--h-max", "2")
    out = _run(argv, tmp_path)
    assert Checker().step(argv, out) == []
    _edit_csv(out / "weyl.csv", 1, "re_S", "3.0")
    assert Checker().step(argv, out)


def test_scount_checks(tmp_path):
    argv = ("scount", "--beta", "golden", "--gamma-grid", "0.6,0.75",
            "--n-grid", "1e3:4e3:2", "--x-grid", "2.0,4.0")
    first = _run(argv, tmp_path / "a")
    second = _run(argv + ("--threads", "2"), tmp_path / "b")
    assert Checker.scount(first) == []
    assert Checker.same_results(first, second) == []
    _edit_csv(second / "cells.csv", 2, "holds", "0")
    assert Checker.scount(second)
    assert Checker.same_results(first, second)


def test_spectrum_checks(tmp_path):
    argv = ("spectrum", "--beta", "golden", "--rank", "1", "--dim", "32")
    out = _run(argv, tmp_path)
    assert Checker.spectrum(argv, out) == []
    _edit_csv(out / "eigenphases.csv", 3, "weight_0", "0.5")
    assert any("sums to" in f for f in Checker.spectrum(argv, out))


def test_dynamics_checks(tmp_path):
    argv = ("dynamics", "--beta", "golden", "--dim", "32", "--kicks", "50")
    out = _run(argv, tmp_path)
    assert Checker.dynamics(out) == []
    _edit_csv(out / "dynamics.csv", 0, "survival", "0.5")
    assert any("survival[0]" in f for f in Checker.dynamics(out))
    _edit_csv(out / "dynamics.csv", 0, "survival", "1.0")
    _edit_csv(out / "dynamics.csv", 7, "survival", "1.25")
    assert any("outside" in f for f in Checker.dynamics(out))


def test_missing_output_is_a_failure(tmp_path):
    assert Checker().step(DISC, tmp_path)


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    import run
    from hostspeed import REFERENCE_S

    step = {"seconds": 1.5, "probe_s": [2 * REFERENCE_S] * 3}
    result = {"peak_rss_kb": 2048, "iterations": [
        {"traced": False, "wall_s": 3.0, "steps": [step, step]},
        {"traced": True, "wall_s": 9.0, "steps": [step, step]}]}
    values = run.end_to_end(result, ([0.8, 0.6, 0.7], [REFERENCE_S / 2] * 3))
    assert values == pytest.approx(
        {"setup_s": 1.4, "wall_s": 1.5, "peak_rss_mb": 2.0})


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert steps_for(workload, 7) == steps_for(workload, 7)
    assert steps_for("sweep", 7) != steps_for("sweep", 8)
    assert steps_for("operator", 7) != steps_for("operator", 8)
    assert steps_for("numtheory", 7) != steps_for("numtheory", 8)


def test_seeded_values_respect_their_constraints():
    import random

    rng = random.Random(3)
    p, q = seeded_rational(rng)
    assert q.bit_length() == 4096 and 0 < p < q and math.gcd(p, q) == 1
    for x in seeded_x_grid(rng):
        counting.make_interval(x, 1000, 0.6)  # raises if it spills
    for lam in seeded_lambdas(rng):
        assert 0.5 <= lam % (2 * math.pi) <= 2 * math.pi - 0.5


def test_seeded_x_grid_avoids_the_poles():
    import random

    theta = spectral.theta_sequence(
        spectral.BaseSpectrum.harmonic(rationals.golden_ratio().as_fraction()),
        300_001)
    for x in seeded_x_grid(random.Random(11)):
        assert spectral.circle_distance(x, theta.values).min() > 1e-9
