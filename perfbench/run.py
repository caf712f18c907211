"""Run one workload of the ovalab benchmark and print its metrics.

    python3 perfbench/run.py --workload extinction --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The workload is set up at least three times, then its fixed operation
list runs in passes until ``--seconds`` would be exceeded, at least once.

Times in the JSON line are scaled to a reference host speed (see
``hostspeed.py``): every 0.1 s a timer runs a calibration chunk that does
not touch ovalab, its time is taken out of the call it interrupted, and
each call's seconds are multiplied by the reference chunk time over the
chunk times measured in and around it.  On a shared host the raw time of
the same call moves by up to 1.8x with the neighbours' load; the scaled
time moves with the program.  ``wall_s`` is the median over the passes
of a pass's scaled call time; ``setup_s`` is the scaled import time plus
the median scaled set-up.  The raw figures are printed on the lines
before the JSON.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are printed, together with the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object.

Each run is its own process, so the never-evicted basis cache and the
peak resident memory start from empty.  BLAS, OpenMP and FFT threads are
pinned to one before numpy is imported.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-ups per run: at least SETUP_REPEATS, more while they take under
# SETUP_BUDGET_S together, so that a cheap set-up still has a steady median
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def raw_s(log):
    """Seconds spent inside the pass's calls, calibration chunks taken out."""
    return sum(op.seconds for op in log.ops)


def scaled_s(clock, log):
    """The pass's call seconds at the clock's reference host speed."""
    return sum(op.seconds * clock.scale(op.start, op.end) for op in log.ops)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is the smoke-test size")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "ovalab")):
        print(f"no ovalab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = perf_counter()
    import workloads
    import tracer as tracing
    import hostspeed
    import_end = perf_counter()
    import_s = import_end - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, run_pass, err_name = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    clock = hostspeed.HostClock()
    clock.sample(5)
    import_scaled = import_s * clock.scale(import_end, perf_counter())
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []  # PassLog of each pass
    try:
        with clock.running():
            setups, setups_raw = [], []
            while len(setups) < SETUP_REPEATS or sum(setups_raw) < SETUP_BUDGET_S:
                t0 = perf_counter()
                ctx = setup(args.seed, args.size, workdir)
                t1 = perf_counter()
                setups_raw.append(t1 - t0 - clock.paused(t0, t1))
                setups.append(setups_raw[-1] * clock.scale(t0, t1))

            peak_rss_mb = None
            start = perf_counter()
            while True:
                log = workloads.PassLog(clock)
                use_trace = tracer is not None and len(untraced) > len(traced)
                t0 = perf_counter()
                if use_trace:
                    with tracer.installed():
                        run_pass(ctx, log)
                else:
                    run_pass(ctx, log)
                dt = perf_counter() - t0
                (traced if use_trace else untraced).append(log)
                if peak_rss_mb is None:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if tracer is not None and not traced:
                    continue
                if perf_counter() - start + dt > args.seconds:
                    break
        clock.sample(hostspeed.NEAREST)  # the last calls' "after" chunks
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = import_scaled + statistics.median(setups)
    setup_raw_s = import_s + statistics.median(setups_raw)

    logs = untraced + traced
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    wrong = [op for log in logs for op in log.wrong]
    for op in wrong[:10]:
        print(f"WRONG {op.kind}: {op.detail}", file=sys.stderr)
    refused = {}
    for log in logs:
        for op in log.ops:
            if op.status == "refused":
                key = f"{op.kind} {op.detail}"
                refused[key] = refused.get(key, 0) + 1
    for key, count in sorted(refused.items()):
        print(f"refused: {key} x{count}")

    # a pass whose calls all failed has no accuracy figure; that is not correct
    missing = [log for log in logs if err_name not in log.errors]
    if missing:
        print(f"no {err_name} in {len(missing)} of {len(logs)} passes", file=sys.stderr)
    wall_s = statistics.median(scaled_s(clock, log) for log in untraced)
    ref_err = statistics.median(log.errors.get(err_name, math.inf) for log in logs)
    metrics = {}
    if args.trace:
        wall_traced = statistics.median(scaled_s(clock, log) for log in traced)
        metrics = tracer.layer_metrics(len(traced), sum(raw_s(log) for log in traced),
                                       clock)
        metrics["trace.wall_s"] = (wall_traced, "s")
        metrics["trace.overhead_pct"] = (100.0 * (wall_traced / wall_s - 1.0), "%")
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        tracer.write(os.path.join(HERE, ".work", f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics["wall_s"] = (wall_s, "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["ref_err"] = (ref_err, "1")
        metrics["ok_frac"] = ((attempted - failed) / attempted, "1")

    # every end-to-end figure of the workload by name, including the ones
    # that apply to this workload only
    report = {
        "wall_s": (wall_s, "s", len(untraced)),
        "wall_raw_s": (statistics.median(raw_s(log) for log in untraced), "s",
                       len(untraced)),
        "setup_s": (setup_s, "s", len(setups)),
        "setup_raw_s": (setup_raw_s, "s", len(setups)),
        "import_raw_s": (import_s, "s", 1),
        "host_chunk_ms": (1.0e3 * statistics.median(clock.seconds), "ms",
                          len(clock.seconds)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "fail_frac": (failed / attempted, "1", attempted),
        err_name: (ref_err, "1", len(logs)),
    }
    for group in ("snapshot", "solve"):
        samples = [ms for log in logs for ms in log.groups.get(group, ())]
        if samples:
            report[f"{group}_ms_p50"] = (statistics.median(samples), "ms", len(samples))
            report[f"{group}_ms_p90"] = (percentile(samples, 90), "ms", len(samples))
    print(f"{args.workload}  passes: {len(untraced)} untraced, {len(traced)} traced")
    for name, (value, unit, n) in report.items():
        print(f"{args.workload}  {name:<16} {value:12.6g} {unit:<3} (n={n})")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{args.workload}  {name:<44} {value:14.6g} {unit}")

    print(json.dumps({
        "correct": not wrong and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
