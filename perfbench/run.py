#!/usr/bin/env python3
"""horizon benchmark: CLI wall time, memory and accuracy per workload,
plus a traced per-layer replay.

Run from the repository root:

    python3 perfbench/run.py --workload canon --seed 0 --seconds 32 --trace 0

``--trace 0`` times the set-up probe several times, then runs the
workload's CLI commands as subprocesses (``python -m horizon.cli`` with
``src/`` on PYTHONPATH, one thread) pass after pass while the next pass
is expected to end within ``--seconds``, and reports the end-to-end
metrics as medians over probes and passes.  ``--trace 1`` runs one
untraced pass and one traced replay of the same commands and reports the
per-layer metrics.

Every command's output rows are checked.  ``attempted`` and ``failed``
count operations: set-up probes and command runs.  A command run fails
when it crashes, is refused, writes an incomplete CSV, exits with a code
its rows contradict, or writes a CSV that differs byte for byte from the
first run of the same command.  Rows above their bound, and every row of
a command that exits non-zero, count against ``pass_frac`` and
``fail_frac``.  The last line of standard output is the JSON result.
"""

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from pathlib import Path

# Single-threaded BLAS for this process and every child: on a small shared
# machine a multi-threaded BLAS call waits for its slowest thread, which
# widened the run-to-run spread of the p = 1 scan kernel from 4% to 11%
# (IQR/median, 2-core x86) at no gain in median time.  It also matches the
# one-thread CLI runs.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread setting)

import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: timed set-up probes per run (after one untimed warm-up), half of them
#: before the command passes and half after, to average over machine load.
#: One probe takes about 0.3 s.  The run-to-run spread of their median
#: (IQR/median over 10 seeds, 2-core x86) was up to 30% with 6 probes,
#: 14-31% with 12 and 8-31% with 20, as machine load varied; 12 keep the
#: whole set of runs within its time budget.
N_PROBES = 12
#: a single command or probe is killed after this many seconds
CHILD_TIMEOUT_S = 170.0


Child = namedtuple("Child", "code wall_s rss_mb")


def run_child(argv, env, log_path):
    """Run argv to completion; return its exit code, wall seconds and peak RSS in MB.

    The child is reaped with ``os.wait4`` so its rusage is its own, not
    the running maximum over every child reaped so far.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            killer.join()
            if proc.returncode is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


class Bench:
    """One benchmark run: a workload, its seeded config and a scratch directory."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.cfg = workloads.make_config(workload, seed)
        self.work = work
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2), encoding="utf-8")
        self.env = dict(os.environ)
        self.env.pop("HORIZON_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), self.env.get("PYTHONPATH")) if p)
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.rows = self.failed_rows = 0
        self.top_err = None
        self.reference = {}
        self.has_numba = None

    def fail(self, what, problem):
        self.failed += 1
        self.problems.append(f"{what}: {problem}")

    def probe(self, tag):
        log = self.work / f"probe-{tag}.log"
        child = run_child([sys.executable, str(HERE / "probe.py"), str(self.cfg_path)], self.env, log)
        self.attempted += 1
        if child.code != 0:
            self.fail(f"set-up probe {tag}", f"exited with code {child.code}")
        else:
            lines = log.read_text(encoding="utf-8").strip().splitlines() or ["{}"]
            try:
                self.has_numba = json.loads(lines[-1]).get("has_numba")
            except ValueError:
                self.has_numba = None
        return child.wall_s

    def run_pass(self, tag, traced=False):
        """Run every command once; return {command: Child}."""
        out = {}
        conv_bounds = {}
        for command in self.workload.commands:
            outdir = self.work / tag / command
            outdir.mkdir(parents=True)
            cli_args = [command, "--config", str(self.cfg_path), "--out", str(outdir)]
            if traced:
                argv = [sys.executable, str(HERE / "traced.py"), str(outdir / "spans.json"), *cli_args]
            else:
                argv = [sys.executable, "-m", "horizon.cli", *cli_args]
            child = run_child(argv, self.env, outdir / "log.txt")
            csv_path = outdir / workloads.CSV_NAME[command]
            check = workloads.check_command(command, self.cfg, child.code, csv_path, conv_bounds)
            if not check.problem and csv_path.exists():
                data = csv_path.read_bytes()
                if self.reference.setdefault(command, data) != data:
                    check.problem = "CSV differs from the first run of this command"
            self.attempted += 1
            self.rows += check.rows
            self.failed_rows += check.failed_rows
            if self.top_err is None:  # convergence.csv when the workload runs it
                self.top_err = check.top_err
            if check.problem:
                self.fail(f"{tag} {command}", check.problem)
                tail = (outdir / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
                print(f"perfbench: {tag} {command} failed: {check.problem}\n{tail}", file=sys.stderr)
            out[command] = child
        return out

    def result(self, values, units):
        report = {
            "workload": self.workload.name,
            "commands": list(self.workload.commands),
            "rows attempted": self.rows,
            "rows failed": self.failed_rows,
            "fail_frac": self.failed_rows / self.rows,
            "top_err": self.top_err,
            "problems": self.problems,
            "env": environment(self.has_numba),
        }
        print("report: " + json.dumps(report, sort_keys=True))
        for name, value in values.items():
            print(f"{name:45s} {value:.6g} {units[name]}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS (what the children inherit), or None."""
    for path in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(has_numba):
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    versions = {}
    for package in ("numpy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "has_numba": has_numba,
    }


def untraced(bench, seconds):
    """End-to-end metrics: medians over set-up probes and over command passes."""
    bench.probe("warmup")
    setup = [bench.probe(i) for i in range(N_PROBES // 2)]
    passes = []
    start = time.perf_counter()
    # Start another pass only while, at the mean pass time so far, it ends
    # within ``seconds``: a workload whose pass is longer runs it once.
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(bench.run_pass(f"pass{len(passes)}"))
    setup += [bench.probe(i) for i in range(N_PROBES // 2, N_PROBES)]
    walls = [sum(c.wall_s for c in p.values()) for p in passes]
    print("pass times (s): " + " ".join(f"{t:.3f}" for t in walls))
    for command, metric in metrics.COMMAND_METRIC.items():
        if command in bench.workload.commands:
            print(f"{metric:45s} {statistics.median(p[command].wall_s for p in passes):.6g} s (untraced)")
    values = {
        "setup_s": statistics.median(setup),
        "commands_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in p.values()) for p in passes),
        "pass_frac": (bench.rows - bench.failed_rows) / bench.rows,
    }
    print(f"{len(passes)} passes, set-up probes (s): " + " ".join(f"{t:.3f}" for t in setup))
    return bench.result(values, metrics.END_TO_END)


def traced(bench):
    """Per-layer metrics from one traced replay, against one untraced pass."""
    bench.probe("warmup")
    plain = bench.run_pass("untraced")
    spanned = bench.run_pass("traced", traced=True)
    summaries = []
    for command in bench.workload.commands:
        path = bench.work / "traced" / command / "spans.json"
        if path.exists():
            summaries.append(json.loads(path.read_text(encoding="utf-8")))
        else:
            bench.fail(f"traced {command}", "no span summary")
    trace = metrics.TraceSummary(summaries)
    plain_wall = sum(c.wall_s for c in plain.values())
    traced_wall = sum(c.wall_s for c in spanned.values())
    extra = {
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        "trace.self_share": trace.self_total() / traced_wall,
        "fail_frac": bench.failed_rows / bench.rows,
    }
    for command, metric in metrics.COMMAND_METRIC.items():
        extra[metric] = plain[command].wall_s if command in plain else 0.0
    if bench.top_err is not None:
        extra["top_err"] = bench.top_err
    return bench.result(metrics.per_layer_metrics(trace, extra), metrics.PER_LAYER)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "horizon" / "cli.py").is_file():
        print(f"perfbench: no horizon sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        bench = Bench(workloads.WORKLOADS[args.workload], args.seed, work)
        result = traced(bench) if args.trace else untraced(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
