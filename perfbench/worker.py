"""The workload process: a fresh interpreter that imports ``kickspec.cli``
and runs the workload's steps in a closed loop through ``kickspec.cli.main``.

Usage: python3 worker.py CONFIG.json.  The config names the kickspec source
directory, the steps, the measuring time, whether to trace, a scratch root for
output directories and the path of the result file.  Every iteration is
timed, the first too: a CLI user pays its first-call costs on every command,
and the medians taken over the iterations are robust to one slow sample.
The host-speed probe (``hostspeed.py``) is timed PROBES_PER_STEP times before
every step, outside the step's time, so the parent can scale the run to the
reference speed.
Traced runs alternate untraced and traced iterations, so the tracing overhead
is measured on the same process.  Outputs are checked by the
parent after this process exits, so check work never enters its peak RSS.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
from tracer import Tracer, attributed_s, summarize

MIN_ITERATIONS = 2
# About 10% of the run: enough samples that their median tracks the host's
# speed over the run instead of the probe's own jitter.
PROBES_PER_STEP = 5


def blas_record() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded here."""
    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path.endswith(".so"):
                paths.add(path)
    record = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix, suffix in (("scipy_openblas_", "64_"),
                               ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry["config"] = config().decode()
                entry["threads"] = threads()
                break
        record.append(entry)
    return record


def _cache_state(out: Path) -> list:
    cache = out / ".cache"
    if not cache.is_dir():
        return []
    return sorted([p.name, p.stat().st_ino, p.stat().st_mtime_ns]
                  for p in cache.iterdir())


def run_iteration(cli, steps, scratch: Path, tracer=None) -> dict:
    """Run every step once; each gets a fresh directory unless it reuses one."""
    dirs: dict[str, Path] = {}
    results = []
    for step in steps:
        record = {"name": step["name"],
                  "probe_s": [hostspeed.probe_s()
                              for _ in range(PROBES_PER_STEP)]}
        if step["reuse"]:
            out = dirs[step["reuse"]]
            snapshot = Path(tempfile.mkdtemp(dir=scratch, prefix="before-"))
            shutil.copytree(out, snapshot, dirs_exist_ok=True)
            record["before"] = str(snapshot)
            record["cache_before"] = _cache_state(out)
        else:
            out = Path(tempfile.mkdtemp(dir=scratch, prefix=step["name"] + "-"))
        dirs[step["name"]] = out
        argv = list(step["argv"]) + ["--out", str(out)]
        if tracer is not None:
            tracer.reset()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a crash fails the step, not the run
                rc = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        record.update(out=str(out), rc=rc, seconds=seconds)
        if step["reuse"]:
            record["cache_after"] = _cache_state(out)
        if tracer is not None:
            record["layers"] = summarize(tracer.spans)
            record["unattributed_s"] = max(
                seconds - attributed_s(record["layers"]), 0.0)
        results.append(record)
    return {"traced": tracer is not None, "steps": results,
            "wall_s": sum(r["seconds"] for r in results)}


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    src = Path(config["src"]).resolve()
    import kickspec.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"kickspec imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    scratch = Path(config["scratch"])
    steps = config["steps"]
    tracer = Tracer() if config["trace"] else None
    iterations = []
    deadline = time.perf_counter() + config["seconds"]
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = run_iteration(cli, steps, scratch,
                                   tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        iterations.append(result)
        # stop before an iteration that would overrun the measuring time,
        # judged by the slower of the last traced and untraced iterations
        estimate = max(it["wall_s"] for it in iterations[-2:])
        if (len(iterations) >= MIN_ITERATIONS
                and time.perf_counter() + estimate > deadline):
            break

    machine = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_record(),
    }
    Path(config["result"]).write_text(json.dumps({
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine,
        "iterations": iterations,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
