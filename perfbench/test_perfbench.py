"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check that traced work counts repeat exactly, that wrong outputs are
counted as failed operations, that the speed probe samples and rescales,
that the printed metrics match BENCHMARK.json,
and that the benchmark fails without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd
    )


@pytest.mark.parametrize("workload", ["exactness-codim2", "random-sweep"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (_worker("--workload", workload, "--seed", "3", "--trace") for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    assert first["missing"] == []
    counts = {k: v for k, v in first["layers"].items() if k in tracer.COUNTS}
    assert counts == {k: v for k, v in second["layers"].items() if k in tracer.COUNTS}
    quotient = [v for k, v in counts.items() if k.startswith("quotient.")]
    if workload == "exactness-codim2":
        assert all(quotient) and counts["matrix.compose_calls"] == 0
    else:
        assert not any(quotient) and counts["matrix.compose_calls"] > 0


def test_probe_rescales_by_the_samples_inside_an_operation():
    probe = speed.SpeedProbe()
    probe.at.extend([0.0, 1.0, 2.0])
    probe.took.extend([0.002, 0.004, 0.002])
    probe.spent.extend([0.005, 0.009, 0.005])
    own, scaled = probe.rescale(0.5, 2.5)  # two samples inside, median 3 ms
    assert own == pytest.approx(2.0 - 0.014)
    assert scaled == pytest.approx(own * speed.REFERENCE_S / 0.003)
    own, scaled = probe.rescale(2.2, 2.3)  # none inside: the last one before
    assert (own, scaled) == pytest.approx((0.1, 0.1 * speed.REFERENCE_S / 0.002))


def test_probe_samples_while_the_process_works():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        deadline = speed.perf_counter() + 0.35
        while speed.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.took) >= 3 and all(t > 0 for t in probe.took)


def test_sweep_inputs_follow_the_seed():
    assert workloads.sweep_instances(5) == workloads.sweep_instances(5)
    assert workloads.sweep_instances(5) != workloads.sweep_instances(6)
    for inst in workloads.sweep_instances(5):
        assert 1 <= len(inst["vars"]) <= 4 and 1 <= len(inst["ideal"]) <= 6
        assert 1 <= len(inst["ci"]) <= 3 and len(set(inst["ideal"])) == len(inst["ideal"])


def test_corrupted_sweep_digest_counts_a_failure():
    corrupt = dict(EXPECTED["random-sweep"])
    corrupt["digests"] = ["0" * 16] + corrupt["digests"][1:]
    sweep = workloads.RandomSweep(run.DEFAULT_SEED, corrupt, None)
    sweep.instances = sweep.instances[:4]
    rec = workloads.Recorder()
    sweep.run_pass(rec)
    assert (rec.attempted, rec.failed) == (4, 1)
    assert "digest" in rec.failures[0]


def test_corrupted_exactness_rank_counts_a_failure():
    values = [list(v) for v in EXPECTED["exactness-codim2"]["values"]]
    values[20][3] += 1
    rec = workloads.Recorder()
    workloads.ExactnessCodim2(1, {"values": values}, None).run_pass(rec)
    assert (rec.attempted, rec.failed) == (1, 1)


def test_wide_checks_reject_wrong_output(tmp_path):
    wide = workloads.WideHypersurface(1, {"json_sha256": "0" * 64}, tmp_path)
    Path(wide.out).write_text("{}", encoding="utf-8")
    assert "sha256" in wide._check_resolve(0)
    assert wide._check_resolve(2) == "exit code 2"
    assert wide._check_verify((1, "overall: FAIL\n")) == "exit code 1"
    assert wide._check_verify((0, "overall: FAIL\n")) is not None
    assert wide._check_verify((0, "[PASS] x\noverall: PASS\n")) is None


def test_result_line_matches_the_definition():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == [*tracer.SELF_TIMES, *tracer.COUNTS, "trace.overhead_s"]
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]

    proc = _run("--workload", "exactness-codim2", "--seed", "2", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "random-sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
