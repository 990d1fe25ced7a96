#!/usr/bin/env python3
"""One run of the mdsconv benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src.
Workloads: merge-stream, split-stream, plan-ladder (see perfbench/README.md).
The run repeats whole rounds of its workload until S seconds have passed.
With --trace 0 it reports the end-to-end metrics.  With --trace 1 it runs
half the time untraced and half with spans and counts installed, reports
the per-layer metrics and the tracing overhead, and writes the spans to
.perfbench_out/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE_OPS = 4096  # seeded operand pairs for the per-call field timings
PROBE_REPEATS = 9

E2E_UNITS = {
    "setup_s": "s",
    "encode_stripes_per_s": "stripes/s",
    "convert_stripes_per_s": "stripes/s",
    "convert_MiBps": "MiB/s",
    "plan_ms_geomean": "ms",
    "verify_ms_geomean": "ms",
    "cli_flow_s": "s",
    "peak_rss_MiB": "MiB",
}


def run_rounds(wl, seconds: float, tracer=None) -> None:
    """Whole rounds until `seconds` have passed; at least one."""
    start = time.perf_counter()
    wl.round(tracer)
    while time.perf_counter() - start < seconds:
        wl.round(tracer)


def field_probe(wl, seed: int) -> dict[str, float]:
    """Per-call ns of FieldSpec.mul and inv over a seeded batch, results checked."""
    import refmath
    from mdsconv import field

    rng = random.Random(seed)
    out = {}
    for q in (256, 257):
        ref = refmath.RefField(q)
        f = field.GF(q)
        mul, inv = f.mul, f.inv
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(PROBE_OPS)]
        divisors = [b for _, b in pairs]
        if any(mul(a, b) != ref.mul(a, b) or inv(b) != ref.inv(b) for a, b in pairs):
            wl.error(f"GF({q}) mul or inv disagrees with the reference arithmetic")
        mul_ns, inv_ns = [], []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                mul(a, b)
            t1 = time.perf_counter_ns()
            for b in divisors:
                inv(b)
            t2 = time.perf_counter_ns()
            mul_ns.append((t1 - t0) / PROBE_OPS)
            inv_ns.append((t2 - t1) / PROBE_OPS)
        out[f"field.mul_ns.gf{q}"] = min(mul_ns)
        out[f"field.inv_ns.gf{q}"] = min(inv_ns)
    return out


def measure(wl, seconds: float, traced: bool) -> dict:
    import tracing
    import workloads

    wl.timed_setup()
    wl.prepare_checks()
    gc.collect()
    if not traced:
        run_rounds(wl, seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = wl.end_to_end()
        metrics["peak_rss_MiB"] = peak_rss
        units = {name: E2E_UNITS[name] for name in metrics}
    else:
        metrics = field_probe(wl, wl.seed)
        run_rounds(wl, seconds / 2)
        mark = wl.mark()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_rounds(wl, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics.update(wl.layers(tracer, mark))
        metrics["trace.overhead_pct"] = wl.overhead_pct(mark)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(
            os.path.join(out_dir, f"spans-{wl.name}-seed{wl.seed}.json"),
            {"workload": wl.name, "seed": wl.seed, "metrics": metrics},
        )
        units = workloads.LAYER_UNITS
        # A layer the workload never calls reads 0.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    return {
        "correct": wl.correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mdsconv", "__init__.py")):
        print(f"error: no mdsconv package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import refmath
    import workloads
    from mdsconv.errors import MdsconvError

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    refmath.self_test()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        result = measure(wl, args.seconds, bool(args.trace))
    except MdsconvError as exc:
        # Set-up runs the program too; a program that fails there gives no result.
        print(f"error: set-up failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in wl.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
