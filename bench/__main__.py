"""``python -m bench`` — the one command that runs the benchmark.

Without ``--workload`` it runs all four workloads one after another,
each in its own fresh single-threaded subprocess (clean ``ru_maxrss``,
cold process-wide caches), prints every metric by name with its unit,
and writes one result JSON.  With ``--workload NAME`` it measures that
workload in this process and ends with the one-line JSON record of the
benchmark contract (``--trace 0``: end-to-end metrics; ``--trace 1``:
per-layer metrics from an additional traced repeat beside each plain one).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

import bench
from bench import harness


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the benchmark's input generators")
    parser.add_argument("--seconds", type=float,
                        help="time budget of one workload's run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int,
                        help="timed repeats, instead of a time budget")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also trace per layer")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20, one repeat: a functional check")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (bench.SRC / "repro").is_dir():
        print(f"bench: nothing to measure: {bench.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = harness.load_spec()
    if args.compare:
        from bench.compare import compare

        return 1 if compare(*args.compare, spec) else 0
    if args.smoke:
        args.repeats = args.repeats or 1
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        return _run_one(args, spec)
    return _run_all(args, spec)


def _run_one(args, spec: dict) -> int:
    # Imports the program under test, so only once it is known to exist.
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = harness.SMOKE_SCALE if args.smoke else harness.DEFAULT_SCALE
    record = harness.run_workload(
        WORKLOADS[args.workload], args.seed, scale, args.seconds,
        args.repeats, bool(args.trace))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    harness.print_metrics(record, spec)
    print(harness.contract_line(record, spec))
    return 0


def _run_all(args, spec: dict) -> int:
    """Every workload, sequentially, one fresh subprocess per run."""
    harness.OUT_DIR.mkdir(exist_ok=True)
    result = {"workloads": {}}
    failed = False
    for workload in spec["workloads"]:
        name = workload["name"]
        merged: dict = {}
        for trace in range(args.trace + 1):
            part = harness.OUT_DIR / f"part-{name}-{trace}.json"
            command = [
                sys.executable, "-m", "bench", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(part),
            ]
            if args.repeats:
                command += ["--repeats", str(args.repeats)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.DEVNULL,
                                  cwd=bench.SRC.parent)
            if done.returncode:
                print(f"bench: {name} exited with {done.returncode}",
                      file=sys.stderr)
                return done.returncode
            record = json.loads(part.read_text())
            part.unlink()
            harness.print_metrics(
                record, spec, ("per_layer",) if trace else ("end_to_end",))
            failed |= not record["correct"]
            if trace:       # end-to-end numbers come from the plain run
                merged["per_layer"] = record["per_layer"]
            else:
                merged = record
        result.setdefault("fingerprint", merged.pop("fingerprint"))
        merged.pop("workload")
        merged.pop("trace")
        merged["failed_share"] = merged["failed"] / merged["attempted"]
        result["workloads"][name] = merged
    out = args.out or harness.OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    if failed:
        print("bench: FAILED — a simulated outcome was wrong or changed",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
