"""One benchmark child process: set up one workload, run it, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Untraced, it runs whole passes until the next one would end after S seconds
(at least one), with a ``speed.SpeedProbe`` running, and reports each pass's
time at reference speed and in seconds.  Traced, it runs exactly one pass,
without the probe, so its counts repeat and its spans hold only the program;
that pass is rescaled by the reference task's time just before and after it.
Set-up time covers importing citaylor and building the workload's inputs,
rescaled by the reference task's time just before and after it.
Run by run.py, which starts a fresh process per measurement.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    OUT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        sys.path.insert(0, str(SRC))
        import speed

        before = speed.reference_time()
        t0 = perf_counter()
        import workloads

        state = workloads.WORKLOADS[args.workload](args.seed, expected, tmpdir)
        setup_s = perf_counter() - t0
        setup_s *= speed.REFERENCE_S / statistics.mean((before, speed.reference_time()))
        if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"citaylor was imported from outside {SRC}")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = probe = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            before = speed.reference_time()
        else:
            probe = speed.SpeedProbe()
            probe.start()
        rec = workloads.Recorder(tracer, probe)
        passes, wall_passes = [], []
        start = perf_counter()
        try:
            while True:
                gc.collect()  # each pass starts from a clean heap, as a fresh CLI process would
                total, wall = rec.total, rec.wall
                state.run_pass(rec)
                passes.append(rec.total - total)
                wall_passes.append(rec.wall - wall)
                if args.trace:
                    break
                if perf_counter() - start + statistics.median(wall_passes) > args.seconds:
                    break
        finally:
            if probe is not None:
                probe.stop()
        if args.trace:  # the one traced pass, at the speed of the time around it
            passes = [p * speed.REFERENCE_S / statistics.mean((before, speed.reference_time())) for p in passes]
        result = {
            "setup_s": setup_s,
            "passes": passes,
            "wall_passes": wall_passes,
            "times": {**rec.times, **rec.breakdown},
            "attempted": rec.attempted,
            "failed": rec.failed,
            "failures": rec.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["missing"] = tracer.missing
            spans = OUT / f"spans-{args.workload}.json"
            tracer.write(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
