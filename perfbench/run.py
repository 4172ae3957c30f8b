"""Benchmark of citaylor: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, untraced

NAME is wide-hypersurface, exactness-codim2 or random-sweep (see
perfbench/README.md for why each was chosen and which layer metric should
move which end-to-end metric).  Each measurement runs in a fresh child
process, so set-up time and peak memory belong to that workload alone.

--trace 0 prints, per workload, every end-to-end metric with its unit, then
failed_ratio and the sample counts; --trace 1 adds a traced child process
and prints the per-layer self times and work counts instead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COUNTS  # noqa: E402

WORKLOADS = ("wide-hypersurface", "exactness-codim2", "random-sweep")
DEFAULT_SEED = 20261017  # random-sweep output digests are recorded for this seed
SETUP_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s

# End-to-end metrics reported on every workload: (name, unit).
END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Stage times printed for the workloads that have those stages.
STAGES = ("resolve", "roundtrip", "verify", "exactness")


class RunFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def _child(workload, seed, deadline, *flags, seconds=0.0):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=max(1.0, deadline - monotonic())
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: child process ran past the deadline") from None
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: child process exited {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{workload}: child process printed no result")
    return json.loads(lines[-1])


def _quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def measure(workload, seed, seconds, trace, deadline):
    """Run the children for one workload; return (summary lines, result object)."""
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}"]
    run = _child(workload, seed, deadline, seconds=seconds)
    attempted, failed = run["attempted"], run["failed"]
    failures = list(run["failures"])
    times = run["times"]

    if not trace:
        setups = [run["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(workload, seed, deadline, "--setup-only")["setup_s"])
        metrics = {
            "pass_s": statistics.median(run["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        for name, unit in END_TO_END:
            lines.append(f"  {name:<18} {metrics[name]:>12.4f} {unit}")
        wall = statistics.median(run["wall_passes"])
        lines.append(f"  {'wall_s':<18} {wall:>12.4f} s (seconds, not rescaled)")
        for stage in STAGES:
            if stage in times:
                lines.append(f"  {stage + '_s':<18} {statistics.median(times[stage]):>12.4f} s")
        if "instance" in times:
            ms = [t * 1000 for t in times["instance"]]
            lines.append(f"  {'instance_p50_ms':<18} {_quantile(ms, 0.50):>12.4f} ms")
            lines.append(f"  {'instance_p95_ms':<18} {_quantile(ms, 0.95):>12.4f} ms")
        result_metrics = {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END
        }
        counts = [f"passes {len(run['passes'])}", f"setup {len(setups)}"]
        counts += [f"{stage} {len(v)}" for stage, v in times.items()]
    else:
        traced = _child(workload, seed, deadline, "--trace")
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["passes"][0] - statistics.median(run["passes"])
        result_metrics = {
            name: {"value": value, "unit": "count" if name in COUNTS else "s"}
            for name, value in layers.items()
        }
        for name, m in result_metrics.items():
            shown = f"{m['value']:d}" if m["unit"] == "count" else f"{m['value']:.6f}"
            lines.append(f"  {name:<26} {shown:>16} {m['unit']}")
        if traced["missing"]:
            lines.append(f"  not traced (gone from the program): {', '.join(traced['missing'])}")
        lines.append(f"  spans written to {traced['spans_file']}")
        counts = [f"untraced passes {len(run['passes'])}", "traced passes 1"]

    lines.append(f"  {'failed_ratio':<18} {failed / attempted:>12.4f} ({failed}/{attempted} operations)")
    lines.append(f"  samples: {', '.join(counts)}")
    lines.extend(f"  FAILED {msg}" for msg in failures)
    return lines, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = monotonic() + DEADLINE_S
        try:
            lines, result = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
