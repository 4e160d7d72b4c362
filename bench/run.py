"""Benchmark of the pairedcrt command line, end to end and per module.

Run one workload (what the numbers in BENCHMARK.json refer to):

    python3 bench/run.py --workload cli_pipeline --seed 1 --seconds 50 --trace 0

or, with ``--workload all`` (the default), every workload in turn, each in
its own process. ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones, and ``--tiny`` shrinks every input so that the whole
harness, checks included, runs in seconds. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Result and trace files go to ``bench/out/``.

Every time the benchmark reports (set-up, operations, spans) is the
process's CPU time, user plus system, from ``time.process_time``; only the
length of a run is wall time. Each workload process runs one thread, so on
an idle machine the two clocks agree, but CPU time leaves out the time in
which the process did not run: another process on the same CPU, or the host
taking the virtual CPU away (steal time, which this kernel's paravirtual
accounting subtracts). On a shared host, wall-time medians of the same code
differed by 20-40% between runs.
"""

from __future__ import annotations

import os

# One thread per workload process; must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("cli_pipeline", "mc_study", "exact_randtest")
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mib": "MiB"}


def import_program():
    """Import the pairedcrt in this checkout's ``src``; returns (cli, import seconds)."""
    start = time.process_time()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401

    import pairedcrt.cli as cli

    elapsed = time.process_time() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"pairedcrt came from {cli.__file__}, not from {ROOT / 'src'}")
    return cli, elapsed


def measure(workload, cli, seconds: float, tracer):
    """Run whole rounds of operations for ``seconds`` of wall time; returns
    the CPU seconds of each operation by kind.

    Without a tracer every round is "plain". With one, rounds alternate plain
    and traced, starting plain, until the time is up and a timed traced round
    ("spans") has run; the first traced round only records allocation peaks
    ("peaks") and its times are not used.
    """
    from reference import CheckFailed
    from workloads import OpFailed

    times = {"plain": [], "peaks": [], "spans": []}
    attempted = failed = 0
    problems: list[str] = []
    kind = "plain"
    start = time.perf_counter()
    while True:
        for op in workload.rounds():
            attempted += 1
            if kind != "plain":
                tracer.begin_op(peaks=kind == "peaks")
            begin = time.process_time()
            try:
                outputs = op.run(cli)
            except OpFailed as exc:
                failed += 1
                problems.append(f"failed {op.label}: {exc}")
                continue
            finally:
                elapsed = time.process_time() - begin
                if kind != "plain":
                    tracer.end_op()
            times[kind].append(elapsed)
            try:
                op.check(outputs)
            except CheckFailed as exc:
                problems.append(f"check {op.label}: {exc}")
        if time.perf_counter() - start >= seconds and (tracer is None or times["spans"]):
            break
        if tracer is not None:
            kind = "plain" if kind != "plain" else ("spans" if times["peaks"] else "peaks")
    return times, attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    cli, import_s = import_program()
    import tracing
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[name](workdir, seed, tiny)
        setup_s = import_s + workload.setup(cli)
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            times, attempted, failed, problems = measure(workload, cli, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"{name}: {line}", file=sys.stderr)
    untraced = times["plain"]
    if trace:
        values = tracer.metrics(times["spans"], untraced)
        units = {m: unit_of(m) for m in values}
        tracer.dump(OUT_DIR / f"trace-{name}-seed{seed}.json")
    else:
        values = {
            "setup_s": setup_s,
            # The mean, not the median: the host's speed switches between
            # phases lasting 10-60 s, so a run's median jumps to whichever
            # phase covered most of it, while the mean weighs them by time.
            "op_s": statistics.fmean(untraced) if untraced else float("nan"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    checks_failed = any(p.startswith("check") for p in problems)
    result = {
        "correct": not checks_failed and len(untraced) > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "op_samples_s": times,
        "environment": environment(),
        **result,
    }
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    samples = len(times["spans"]) if trace else len(untraced)
    print(f"{name}: {attempted} operations attempted, {failed} failed, {samples} timed")
    for metric, entry in result["metrics"].items():
        print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    return result


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    return "count"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_all(args) -> dict:
    """Each workload in its own process; relays their output and merges results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for a smoke test")
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, RuntimeError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
