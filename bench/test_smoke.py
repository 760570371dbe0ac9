"""Smoke test of the benchmark itself (not part of tier-1's testpaths).

    python -m pytest bench/test_smoke.py

Runs the whole suite at smoke size with tracing and checks that exactly
the workloads and metrics BENCHMARK.json declares come out, each with a
unit, and that nothing failed.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> set[str]:
    return {metric["name"] for metric in SPEC[section]}


def test_smoke_suite_emits_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, check=True, timeout=120,
    )
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for key in ("cpu_count", "python", "numpy", "platform", "seed", "scale"):
        assert key in result["fingerprint"]
    for name, record in result["workloads"].items():
        assert set(record["end_to_end"]) == _names("end_to_end"), name
        assert set(record["per_layer"]) == _names("per_layer"), name
        assert record["failed_share"] == 0, name
        assert record["correct"], name
        assert record["sim_digest"] == record["expected_digest"], name
        for value in record["end_to_end"].values():
            assert value["value"] > 0, name


def test_single_workload_ends_with_the_contract_line():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", "population_fluid",
             "--smoke", "--trace", str(trace)],
            cwd=ROOT, check=True, timeout=120, capture_output=True, text=True,
        )
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == _names(section)
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        for name, metric in line["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == units[name]


def test_compare_flags_a_regression(tmp_path):
    def result(work_per_s: float) -> dict:
        def summary(value: float) -> dict:
            return {"value": value, "q1": value, "q3": value, "n": 1}

        return {"workloads": {"steady_mix": {
            "sim_digest": "x",
            "end_to_end": {
                metric["name"]: summary(1.0) for metric in SPEC["end_to_end"]
            } | {"work_per_s": summary(work_per_s)},
        }}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result(100.0)))
    b.write_text(json.dumps(result(80.0)))
    same = subprocess.run(
        [sys.executable, "-m", "bench", "--compare", str(a), str(a)],
        cwd=ROOT, capture_output=True, text=True)
    worse = subprocess.run(
        [sys.executable, "-m", "bench", "--compare", str(a), str(b)],
        cwd=ROOT, capture_output=True, text=True)
    assert same.returncode == 0 and "regressed" not in same.stdout
    assert worse.returncode == 1 and "regressed" in worse.stdout
