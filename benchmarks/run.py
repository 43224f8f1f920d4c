"""Benchmark entry point: runs one workload (or all) and prints its metrics.

    python3 benchmarks/run.py --workload census --seed 1 --seconds 32 --trace 0

Every round runs in a fresh interpreter (worker.py), so the library's
lru_cache tables start cold, as they do in every ``mgonal`` invocation.
Untraced, rounds repeat while the next one is expected to end within
``--seconds``; the first round's outputs get the independent checks, later
rounds must reproduce its output digest.  Traced (``--trace 1``), one plain
round and one traced round run with one census job, and the per-layer metrics
come from the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 0
when every check passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "scaling", "represent", "admissible")
#: Set-up-only interpreters started per run, besides the measured rounds.
SETUP_PROBES = 5
#: Every run ends within this many seconds, or fails.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def spawn(argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion; add its set-up time and duration."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker {' '.join(argv)} passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    result["duration_s"] = time.monotonic() - started - result.get("check_s", 0.0)
    if "wall_s" in result:
        print(f"  round: wall {result['wall_s']:.3f} s, set-up {result['setup_s']:.3f} s, "
              f"checks {result.get('check_s', 0.0):.3f} s", file=sys.stderr)
    return result


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool,
                 units: dict[str, str]) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)] + (["--small"] if small else [])
    setups = [spawn(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    error = None
    if trace:
        plain = spawn(base + ["--jobs", "1"], deadline)
        traced = spawn(base + ["--jobs", "1", "--traced", "--check", "digest"], deadline)
        rounds = [plain, traced]
        error = plain["check_error"]
        if traced["digest"] != plain["digest"]:
            error = error or "traced round's outputs differ from the plain round's"
        layer = dict(traced["layer"])
        layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        base += ["--jobs", str(nproc())]
        started = time.monotonic()
        rounds = [spawn(base, deadline)]
        error = rounds[0]["check_error"]
        while True:
            expected = statistics.median(r["duration_s"] for r in rounds)
            if time.monotonic() - started + expected > seconds:
                break
            r = spawn(base + ["--check", "digest"], deadline)
            if r["digest"] != rounds[0]["digest"]:
                error = error or "a later round's outputs differ from the first round's"
            rounds.append(r)
        # one latency per operation: its median over the rounds, so the
        # quantiles do not depend on how many rounds fitted in the run
        latencies = [statistics.median(v) for v in zip(*(r["latencies_s"] for r in rounds))]
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * quantile(latencies, 0.9),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    if error:
        print(f"{name}: check failed: {error}", file=sys.stderr)
    return {
        "correct": error is None,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs (the benchmark's self-tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mgonal" / "__init__.py").is_file():
        print(f"error: no mgonal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units()
    status = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.small, units)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} operations: {result['attempted']} attempted, {result['failed']} failed")
        print(json.dumps(result), flush=True)
        status = max(status, 0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
