"""Benchmark of the slitport CLI: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in turn

Run it from the root of a slitport source tree; it imports the package
from ``src/`` and exits with code 2 when there is none.  Each operation is
one ``slitport.cli.main`` call made in this process; the next starts when
the previous returns.  Set-up is timed in fresh child processes.  Every
output is checked, and a failed check is counted, never fatal.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
untraced and then traced, and prints the per-layer metrics.  The last
line of output is the JSON result; scratch files, the result with its
machine notes, and the span dump go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
MIN_OPS = 3
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("run_p50_s", "s"), ("run_tail_s", "s"),
              ("runs_per_s", "1/s"), ("peak_rss_mb", "MB"))


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile leaving at least ten samples beyond it.

    Nearest-rank.  With fewer than twenty samples no percentile at or
    above the median leaves ten beyond it, and the median is reported as
    percentile 50.  Returns (value, percentile).
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    if pct <= 50:
        return statistics.median(ordered), 50
    return ordered[math.ceil(pct * n / 100) - 1], pct


class Harness:
    """Runs operations of one workload and tallies their checks."""

    def __init__(self, workload, cli, root: Path):
        self.workload = workload
        self.cli = cli
        self.root = root
        self.index = 0
        self.attempted = 0
        self.failures: list[tuple[int, list[str]]] = []

    def _next(self) -> tuple[int, list[str]]:
        index = self.index
        self.index += 1
        argv = self.workload.argv(index)
        self.workload.output(index).unlink(missing_ok=True)
        return index, argv

    def record(self, index: int, code) -> None:
        out = self.workload.output(index)
        text = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        problems = self.workload.check(index, code, text)
        self.attempted += 1
        if problems:
            self.failures.append((index, problems))

    def op(self) -> float:
        """One in-process CLI call; returns its wall time in seconds."""
        index, argv = self._next()
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.record(index, code)
        return elapsed

    def probe(self) -> float:
        """One cold start in a child process: spawn, import, parse, first call."""
        index, argv = self._next()
        command = [sys.executable, str(HERE / "probe.py"), str(self.root / "src"), json.dumps(argv)]
        start = time.monotonic()
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, cwd=self.root)
        except subprocess.TimeoutExpired:
            self.record(index, "probe timed out")
            return time.monotonic() - start
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.record(index, f"probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return time.monotonic() - start
        self.record(index, result["code"])
        return result["done"] - start

    def loop(self, seconds: float) -> list[float]:
        """Closed loop for ``seconds`` (at least MIN_OPS operations)."""
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_OPS or time.perf_counter() < deadline:
            times.append(self.op())
        return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved {name}"


def machine_notes(root: Path, workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": git_commit(root),
        "workload": workload,
        "seed": seed,
    }


def measure(harness: Harness, seconds: float) -> tuple[dict, dict]:
    setups = [harness.probe() for _ in range(SETUP_PROBES)]
    harness.op()  # warm caches in this process; set-up is timed by the probes
    times = harness.loop(seconds)
    tail_value, pct = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "run_p50_s": statistics.median(times),
        "run_tail_s": tail_value,
        "runs_per_s": harness.workload.runs_per_op * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"samples": len(times), "tail_percentile": pct, "setup_samples": setups}
    return values, extra


def measure_traced(harness: Harness, seconds: float, work: Path, tag: str) -> tuple[dict, dict]:
    harness.op()
    untraced = harness.loop(seconds / 2)
    with Tracer() as tracer:
        layers.install(tracer)
        traced = harness.loop(seconds / 2)
    overhead = statistics.median(traced) / statistics.median(untraced)
    values = layers.summarize(tracer, traced, overhead)
    wall_ms_per_run = 1e3 * sum(traced) / (harness.workload.runs_per_op * len(traced))
    spans_file = work / f"spans-{tag}.json"
    spans_file.write_text(json.dumps({"absent": tracer.absent, "spans": tracer.dump()}))
    extra = {
        "samples": len(traced),
        "untraced_samples": len(untraced),
        "attributed_share": 1.0 - values["unattributed_ms"] / wall_ms_per_run,
        "absent_names": tracer.absent,
        "spans_file": str(spans_file.relative_to(harness.root)),
    }
    return values, extra


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "slitport" / "__init__.py").is_file():
        print(f"no slitport package at {src}; run from the root of a slitport checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(src))
    from slitport import cli

    work = root / ".perfbench_work"
    scratch = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        harness = Harness(workload, cli, root)
        if args.trace:
            values, extra = measure_traced(harness, args.seconds, work, tag)
            units = dict(layers.METRICS)
        else:
            values, extra = measure(harness, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    notes = machine_notes(root, args.workload, args.seed)
    failed = len(harness.failures)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("notes " + json.dumps(notes))
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<32} {failed / harness.attempted:>14.6g} ratio "
          f"({failed} of {harness.attempted} operations failed)")
    print("extra " + json.dumps(extra))
    for index, problems in harness.failures[:5]:
        print(f"  failed operation {index}: {'; '.join(problems)[:500]}")
    (work / f"result-{tag}.json").write_text(json.dumps(
        {"notes": notes, "metrics": metrics, "extra": extra, "attempted": harness.attempted,
         "failures": harness.failures[:50]}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": harness.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
