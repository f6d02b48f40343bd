"""kickspec benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload numtheory --seed 20261017 \\
        --seconds 35 --trace 0

Workloads (closed loop, one caller) are defined in ``workloads.py``.  A run
times ``import kickspec.cli`` in several fresh interpreters (``setup_s``),
then starts the workload process (``worker.py``), which imports the package
from ``src/`` of this checkout and loops over the workload's CLI steps for
``--seconds``.  Afterwards every step's outputs are checked here, in this
process, and its output directory is removed.

Every time reported is scaled to a reference host speed with the host-speed
probe of ``hostspeed.py``, timed in the same interpreters next to the work;
the measured times and probe medians are printed on the ``measured (s):``
line.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed;
with ``--trace 1`` the per-layer metrics, from spans recorded around the
public functions of each kickspec module (``tracer.py``) on every second
iteration.  The last stdout line is the result object; earlier lines record
the machine and the per-step medians.  Exit code 0 means every step ran and
every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from hostspeed import at_reference_speed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, steps_for  # noqa: E402

SETUP_PROBES = 4
PROBE_TIMEOUT_S = 20
WORKER_GRACE_S = 100
ATTRIBUTION_TOL_S = 1e-3
HOST_PROBES = 5
# Each prints the import's seconds, then the median of HOST_PROBES host-speed
# probes taken in the same interpreter after the import.
_AFTER_IMPORT = ("t = time.perf_counter() - t; import statistics; "
                 f"sys.path.insert(0, {str(HERE)!r}); import hostspeed; "
                 "print(t, statistics.median(hostspeed.probe_s() "
                 f"for _ in range({HOST_PROBES})), end=' '); ")
SETUP_PROBE = ("import sys, time; t = time.perf_counter(); import kickspec.cli; "
               + _AFTER_IMPORT + "import kickspec; print(kickspec.__file__)")
SCIPY_PROBE = ("import sys, time; t = time.perf_counter(); "
               "import scipy.special, scipy.linalg; " + _AFTER_IMPORT + "print()")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # One BLAS thread: on two shared cores, threaded BLAS measured both
    # slower and noisier, and it would contend with scount --threads 2.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def probe(code: str) -> list[str]:
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"probe failed: {done.stderr.strip()[-500:]}")
    return done.stdout.split()


def import_times(code: str, check_path: bool) -> tuple[list[float], list[float]]:
    """Import seconds and host-speed probe medians of SETUP_PROBES fresh
    interpreters; the first one, which may compile bytecode, is not counted."""
    times, probes = [], []
    for i in range(SETUP_PROBES + 1):
        seconds, probe_s, *path = probe(code)
        path = " ".join(path)
        if check_path and Path(path).resolve().parent != SRC / "kickspec":
            raise BenchError(f"kickspec imported from {path}, not {SRC}")
        if i:
            times.append(float(seconds))
            probes.append(float(probe_s))
    return times, probes


def probe_median(iterations) -> float:
    """Median host-speed probe over every step of ``iterations``."""
    return statistics.median(p for it in iterations for r in it["steps"]
                             for p in r["probe_s"])


def machine_record(seed: int, worker_machine: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"nproc": nproc(), "cpu": cpu, "commit": commit, "seed": seed,
            **worker_machine}


def run_worker(steps, seconds: float, trace: bool, scratch: Path) -> dict:
    config = {
        "src": str(SRC), "seconds": seconds, "trace": trace,
        "scratch": str(scratch), "result": str(scratch / "result.json"),
        "steps": [asdict(s) for s in steps],
    }
    config_path = scratch / "config.json"
    config_path.write_text(json.dumps(config))
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(config_path)],
        env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=seconds + WORKER_GRACE_S)
    if done.returncode != 0:
        raise BenchError(f"workload process exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return json.loads((scratch / "result.json").read_text())


def check_iteration(checker, steps, iteration) -> list[list[str]]:
    """Failures of every step of one iteration, in step order."""
    by_name = {r["name"]: r for r in iteration["steps"]}
    report = []
    for step, record in zip(steps, iteration["steps"]):
        out = Path(record["out"])
        if record["rc"] != 0:
            report.append([f"exit status {record['rc']}"])
            continue
        failures = checker.step(step.argv, out)
        if step.same_as:
            failures += checker.same_results(
                Path(by_name[step.same_as]["out"]), out)
        if step.reuse:
            failures += checker.same_results(Path(record["before"]), out)
            if not record["cache_before"] or \
                    record["cache_after"] != record["cache_before"]:
                failures.append("re-run did not hit the cell cache")
        if record.get("unattributed_s", 0.0) > ATTRIBUTION_TOL_S:
            failures.append(f"{record['unattributed_s']:.6f} s of the traced "
                            "step is in no span")
        report.append(failures)
    return report


def step_medians(result) -> dict[str, float]:
    """Median seconds of each step over the untraced iterations."""
    untraced = [it for it in result["iterations"] if not it["traced"]]
    return {record["name"]: statistics.median(
                it["steps"][i]["seconds"] for it in untraced)
            for i, record in enumerate(untraced[0]["steps"])}


def measured(result, setup) -> dict[str, float]:
    """The untraced times as measured, and the probe medians that scale them."""
    untraced = [it for it in result["iterations"] if not it["traced"]]
    times, probes = setup
    return {
        "setup_s": statistics.median(times),
        "setup_probe_s": statistics.median(probes),
        "wall_s": statistics.median(it["wall_s"] for it in untraced),
        "wall_probe_s": probe_median(untraced),
    }


def end_to_end(result, setup) -> dict[str, float]:
    raw = measured(result, setup)
    return {
        "setup_s": at_reference_speed(raw["setup_s"], raw["setup_probe_s"]),
        "wall_s": at_reference_speed(raw["wall_s"], raw["wall_probe_s"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(result, scipy, metrics) -> dict[str, float]:
    """Per-layer medians over the traced iterations; metrics in s or ns are
    scaled to the reference speed."""
    traced = [it for it in result["iterations"] if it["traced"]]
    untraced = [it for it in result["iterations"] if not it["traced"]]
    traced_probe = probe_median(traced)
    sums = []
    for it in traced:
        total: dict[str, float] = {"trace.unattributed_s": 0.0}
        for record in it["steps"]:
            for key, value in record["layers"].items():
                total[key] = total.get(key, 0.0) + value
            total["trace.unattributed_s"] += record["unattributed_s"]
        sums.append(total)
    values = {}
    for metric in metrics:
        value = statistics.median(s.get(metric["name"], 0.0) for s in sums)
        if metric["unit"] in ("s", "ns"):
            value = at_reference_speed(value, traced_probe)
        values[metric["name"]] = value
    times, probes = scipy
    values["setup.scipy_import_s"] = at_reference_speed(
        statistics.median(times), statistics.median(probes))
    values["trace.overhead_s"] = (
        at_reference_speed(statistics.median(it["wall_s"] for it in traced),
                           traced_probe)
        - at_reference_speed(statistics.median(it["wall_s"] for it in untraced),
                             probe_median(untraced)))
    values["host.probe_s"] = probe_median(result["iterations"])
    return values


def check_outputs(steps, result) -> tuple[int, int]:
    """(attempted, failed) over every step of every iteration."""
    sys.path.insert(0, str(SRC))
    from checks import Checker

    checker = Checker()
    attempted = failed = 0
    for n, iteration in enumerate(result["iterations"]):
        for step, failures in zip(steps,
                                  check_iteration(checker, steps, iteration)):
            attempted += 1
            failed += bool(failures)
            for failure in failures:
                print(f"iteration {n} {step.name}: {failure}", file=sys.stderr)
    return attempted, failed


def measure(args, spec, scratch: Path) -> tuple[dict, int, int]:
    steps = steps_for(args.workload, args.seed)
    if args.trace:
        scipy = import_times(SCIPY_PROBE, check_path=False)
    else:
        setup = import_times(SETUP_PROBE, check_path=True)
    result = run_worker(steps, args.seconds, bool(args.trace), scratch)
    attempted, failed = check_outputs(steps, result)
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(result, scipy, wanted)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(result, setup)
        print("measured (s): " + json.dumps(measured(result, setup)))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    print("machine: " + json.dumps(machine_record(args.seed, result["machine"])))
    print("iterations: " + str(len(result["iterations"])))
    print("step medians (s): " + json.dumps(step_medians(result)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tmp_root = ROOT / ".perfbench_tmp"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "kickspec" / "__init__.py").is_file():
            raise BenchError(f"no kickspec sources under {SRC}")
        tmp_root.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            metrics, attempted, failed = measure(args, spec, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            with contextlib.suppress(OSError):
                tmp_root.rmdir()
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
