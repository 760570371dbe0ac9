"""Record BENCH_population.json: the full-scale E23 numbers.

Run from the repo root on a quiet machine:

    PYTHONPATH=src python benchmarks/record_population.py

Phases (mirroring the acceptance criteria of ROADMAP item 1):

* parity at 10^4 devices — fluid vs packet policy digests must match
  exactly and completion times must agree;
* speedup at 10^5 devices — fluid must clear >=50x device-seconds/s
  over the pure-packet pipeline on identical churn;
* fluid-only sweep to 10^6 devices;
* the sharded digest gate — ``--shards 2`` == ``--shards 1`` with
  cross-shard traffic exchanged through the runner's round queues.

The smoke-sized bench bar lives in ``test_bench_population.py``; this
script records the dev-box trajectory the bars are calibrated against.
"""

import datetime
import json
import os
import pathlib
import platform
import sys

import numpy

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.exp23_population import (  # noqa: E402
    parity_check,
    speedup_check,
    sweep_point,
)
from repro.experiments.runner import run_sharded  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_population.json"


def main() -> int:
    parity = parity_check(10_000, 10.0, seed=0)
    speedup = speedup_check(100_000, 8.0, seed=0)

    sweep = {}
    for devices in (10_000, 100_000, 1_000_000):
        point = sweep_point(devices, 10.0, seed=0)
        sweep[str(devices)] = {
            "wall_seconds": round(point["wall_seconds"], 3),
            "device_seconds_per_sec": round(
                point["device_seconds_per_sec"], 1),
            "flows_opened": point["counters"]["flows_opened"],
            "policy_packets": point["counters"]["policy_packets"],
            "pii_violations": point["pii_violations"],
        }

    shard_digest = {}
    for shards in (1, 2):
        result = run_sharded("E23", seed=0, shards=shards)
        note = [n for n in result.notes if n.startswith("policy digest")][0]
        shard_digest[str(shards)] = note.split()[-1]

    document = {
        "experiment": "E23",
        "recorded": datetime.date.today().isoformat(),
        # Single-process numbers.  Wall-clock rows vary run to run;
        # the bench suite asserts ratios and shape, not absolutes.
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "parity_10k": {
            "devices": 10_000,
            "digests_match": parity["digests_match"],
            "digest": parity["fluid"]["digest"],
            "completions_compared": parity["completions_compared"],
            "max_completion_dt_seconds": parity["max_completion_dt"],
            "pii_violations": parity["fluid"]["pii_violations"],
        },
        "speedup_100k": {
            "devices": 100_000,
            "horizon_seconds": 8.0,
            "fluid_wall_seconds": round(
                speedup["fluid"]["wall_seconds"], 3),
            "packet_wall_seconds": round(
                speedup["packet"]["wall_seconds"], 3),
            "fluid_device_seconds_per_sec": round(
                speedup["fluid"]["device_seconds_per_sec"], 1),
            "packet_device_seconds_per_sec": round(
                speedup["packet"]["device_seconds_per_sec"], 1),
            "ratio": round(speedup["speedup"], 1),
            "packet_events": speedup["packet"]["counters"][
                "packet_events"],
            "counts_match": speedup["counts_match"],
        },
        "sweep_fluid": sweep,
        "sharded_digest": {
            "digests": shard_digest,
            "shards_equal": len(set(shard_digest.values())) == 1,
        },
    }
    OUT.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    print(json.dumps(document["speedup_100k"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
