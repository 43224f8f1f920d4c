"""One round of one workload, in a fresh interpreter started by run.py.

A round imports mgonal, builds the workload's inputs, and prints the moment it
was ready (run.py turns that into set-up time).  Unless ``--setup-only``, it
then times every operation, reads its peak memory, optionally derives the
per-layer metrics from a trace, and checks or digests its outputs.  The last
line of standard output is one JSON object.

    python3 benchmarks/worker.py --workload census --seed 1 --check full
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1, help="census pool size (scaling)")
    ap.add_argument("--small", action="store_true", help="reduced inputs, for self-tests")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--check", choices=("full", "digest"), default="full",
                    help="full: independent checks; digest: output digest only")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.small, args.jobs)
    ops = workload.ops()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    span = workloads.no_span
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span

    times, outputs, failed = [], [], 0
    for op in ops:
        with span("bench.op"):
            t0 = time.perf_counter()
            try:
                out = workload.run(op, span)
            except Exception:  # an operation that fails is counted, not fatal
                traceback.print_exc()
                out = None
                failed += 1
            times.append(time.perf_counter() - t0)
        outputs.append(out)

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "ready": ready,
        "wall_s": sum(times),
        "latencies_s": workloads.latencies(workload, times, outputs),
        "attempted": len(ops),
        "failed": failed,
        "peak_rss_mb": kib / 1024,
    }
    if tracer is not None:
        tracer.restore()
        result["layer"] = tracing.layer_metrics(tracer)
        trace_path = HERE / ".trace" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})

    digest = hashlib.sha256()
    for op, out in zip(ops, outputs):
        digest.update(b"failed" if out is None else workload.view(op, out))
        digest.update(b"\0")
    result["digest"] = digest.hexdigest()

    result["check_error"] = None
    if args.check == "full":
        t0 = time.perf_counter()
        import checks
        try:
            checks.CHECKS[args.workload](workload, ops, outputs, random.Random(args.seed))
        except checks.CheckFailure as exc:
            result["check_error"] = str(exc)
        result["check_s"] = time.perf_counter() - t0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
