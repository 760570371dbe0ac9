"""Runs one workload: repeats, timing, gates, and the result record.

One call to :func:`run_workload` is one process-lifetime measurement of
one workload: a cold build and an untimed warm-up repeat, then timed
repeats on fresh worlds until the time budget is spent.  Every metric
is the median over the timed repeats.  Simulated outcomes are hashed
into a ``sim_digest`` per repeat and gated exactly (across repeats,
and against ``expected.json`` for seed 0); wall-clock numbers are never
part of a digest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import time

import numpy

from bench.tracing import Tracer

BENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Sizes relative to the full sizes in README.md.  The full suite does
#: not fit the per-run time the benchmark contract allows, so every
#: workload's amount of work is scaled by this one factor.
DEFAULT_SCALE = 0.25
SMOKE_SCALE = 0.05

#: Timed repeats a run makes at least, whatever the time budget.
MIN_REPEATS = 3
#: A repeat whose wall time exceeds its CPU time by more than this
#: share waited for the processor: the host was contended.
CONTENDED_SHARE = 0.05


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


#: Deterministic per-layer counts and ratios, read from public
#: attributes after a repeat.  Every workload reports all of them (0
#: where a layer is idle) and they are part of the sim_digest.
COUNT_NAMES = (
    "netsim.events", "netsim.events_per_packet",
    "sdn.full_classifications", "sdn.micro_hit_rate", "sdn.mega_hit_rate",
    "sdn.micro_invalidations", "sdn.mega_invalidations",
    "sdn.micro_evictions", "sdn.rules_installed",
    "core.datapath.pipeline_compiles", "core.datapath.pipeline_invalidations",
    "core.pvnc.cache_hit_rate", "core.deployment.embed_memo_hit_rate",
    "nfv.containers_launched", "middleboxes.policy_drops",
    "netsim.fluid.epochs", "netsim.fluid.cells_recomputed",
    "netsim.fluid.policy_packets", "netsim.fluid.flows_opened",
    "netsim.fluid.flows_completed",
)


def layer_counts(measured: dict[str, float]) -> dict[str, float]:
    """``measured`` over a zero for every other name in COUNT_NAMES."""
    unknown = set(measured) - set(COUNT_NAMES)
    if unknown:
        raise KeyError(f"undeclared layer counts: {sorted(unknown)}")
    return {name: measured.get(name, 0) for name in COUNT_NAMES}


@dataclasses.dataclass
class Outcome:
    """What one repeat of a workload hands back to the harness."""

    work: int                   # simulated work units done in ``main_phase``
    main_phase: str             # the phase ``work_per_s`` is taken over
    step_ms: list[float]        # host time of each step, in ms
    attempted: int
    failed: int
    results: object             # JSON-able simulated outcomes -> sim_digest
    counts: dict[str, float]    # from :func:`layer_counts`
    audits_per_s: float = 0.0   # attach_storm's second phase; else idle


class Probe:
    """Times the phases of one repeat: wall beside CPU, spans if traced."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.phases: dict[str, tuple[float, float]] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        scope = (self.tracer.region(name) if self.tracer is not None
                 else contextlib.nullcontext())
        with scope:
            wall = time.perf_counter()
            cpu = time.process_time()
            try:
                yield
            finally:
                self.phases[name] = (time.perf_counter() - wall,
                                     time.process_time() - cpu)

    def begin_op(self) -> None:
        """Start a new benchmark-level operation (spans share its id)."""
        if self.tracer is not None:
            self.tracer.op += 1

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.phases.values())

    @property
    def contended(self) -> bool:
        wall = self.wall_s
        cpu = sum(cpu for _, cpu in self.phases.values())
        return wall > cpu * (1.0 + CONTENDED_SHARE)


def sim_digest(outcome: Outcome) -> str:
    """sha256 over the simulated outcomes and the deterministic counts."""
    blob = json.dumps([outcome.results, outcome.counts], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def summarise(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def fingerprint(seed: int, scale: float) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "scale": scale,
    }


@dataclasses.dataclass
class _Sample:
    """One repeat as the harness saw it."""

    outcome: Outcome
    probe: Probe
    setup_s: float
    digest: str
    layer_metrics: dict[str, float] | None = None   # of a traced repeat


def _repeat(workload, seed: int, scale: float,
            tracer: Tracer | None = None) -> _Sample:
    gc.collect()    # the previous world's cycles are not this repeat's bill
    started = time.perf_counter()
    world = workload.build(seed, scale)
    setup_s = time.perf_counter() - started
    probe = Probe(tracer)
    outcome = workload.run(world, probe)
    return _Sample(outcome, probe, setup_s, sim_digest(outcome))


def _expected_digest(workload_name: str, seed: int, scale: float) -> str:
    if seed != 0 or not EXPECTED_PATH.exists():
        return ""
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)
    return expected.get(f"{scale:g}", {}).get(workload_name, "")


def run_workload(workload, seed: int, scale: float, seconds: float,
                 repeats: int | None, trace: bool) -> dict:
    """Measure ``workload`` once; returns the detailed record.

    With ``trace`` every untraced repeat is followed by a traced one;
    end-to-end metrics still come from the untraced repeats only.
    """
    started = time.perf_counter()
    deadline = started + seconds
    warmup = _repeat(workload, seed, scale)
    cold_start_s = time.perf_counter() - started

    plain: list[_Sample] = []
    traced: list[_Sample] = []
    while True:
        plain.append(_repeat(workload, seed, scale))
        if trace:
            tracer = Tracer()       # only the last one's spans are kept
            with tracer.installed():
                traced.append(_repeat(workload, seed, scale, tracer))
            traced[-1].layer_metrics = tracer.layer_metrics()
        if repeats is not None:
            if len(plain) >= repeats:
                break
        elif (len(plain) >= (1 if trace else MIN_REPEATS)
              and time.perf_counter() >= deadline):
            break

    samples = [warmup, *plain, *traced]
    digests = {sample.digest for sample in samples}
    expected = _expected_digest(workload.NAME, seed, scale)
    digest_ok = len(digests) == 1 and expected in ("", warmup.digest)
    attempted = sum(s.outcome.attempted for s in plain)
    failed = sum(s.outcome.failed for s in plain)
    if not digest_ok:
        failed = attempted      # a changed simulated statistic fails all

    end_to_end = {
        "setup_s": summarise([s.setup_s for s in plain]),
        "work_per_s": summarise([
            s.outcome.work / s.probe.phases[s.outcome.main_phase][0]
            for s in plain]),
        "step_ms_p50": summarise([
            statistics.median(s.outcome.step_ms) for s in plain]),
        "wall_s": summarise([s.probe.wall_s for s in plain]),
        "peak_rss_mb": summarise([
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
    }

    record = {
        "workload": workload.NAME,
        "trace": int(trace),
        "correct": digest_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "sim_digest": warmup.digest if len(digests) == 1 else sorted(digests),
        "expected_digest": expected,
        "repeats": len(plain),
        "fingerprint": fingerprint(seed, scale),
        "end_to_end": end_to_end,
    }
    if trace:
        record["per_layer"] = _per_layer(
            workload, seed, scale, plain, traced, cold_start_s,
            failed / attempted)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_chrome_trace(OUT_DIR / f"trace-{workload.NAME}.json")
    return record


def _per_layer(workload, seed, scale, plain, traced, cold_start_s,
               failed_share) -> dict:
    """Layer metrics: spans from traced repeats, counts from plain ones."""
    metrics: dict[str, dict] = {}
    for name in traced[0].layer_metrics:
        metrics[name] = summarise([s.layer_metrics[name] for s in traced])

    for name in COUNT_NAMES:
        metrics[name] = summarise([s.outcome.counts[name] for s in plain])
    metrics["core.auditor.audits_per_s"] = summarise(
        [s.outcome.audits_per_s for s in plain])
    metrics["netsim.events_per_s"] = summarise([
        s.outcome.counts["netsim.events"]
        / s.probe.phases[s.outcome.main_phase][0] for s in plain])
    metrics["step_ms_p99"] = summarise([
        percentile(s.outcome.step_ms, 0.99) for s in plain])

    plain_wall = statistics.median(s.probe.wall_s for s in plain)
    traced_wall = statistics.median(s.probe.wall_s for s in traced)
    metrics["trace.overhead_share"] = summarise(
        [traced_wall / plain_wall - 1.0])
    obs_share = 0.0
    if getattr(workload, "MEASURE_OBS_OVERHEAD", False):
        from repro.obs import runtime as obs_runtime

        with obs_runtime.enabled():
            observed = _repeat(workload, seed, scale)
        obs_share = observed.probe.wall_s / plain_wall - 1.0
    metrics["obs.overhead_share"] = summarise([obs_share])
    metrics["host.contended_share"] = summarise(
        [sum(s.probe.contended for s in plain) / len(plain)])
    metrics["failed_share"] = summarise([failed_share])
    metrics["harness.cold_start_s"] = summarise([cold_start_s])
    return metrics


def contract_line(record: dict, spec: dict) -> str:
    """The one-line JSON result the benchmark contract asks for."""
    section = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    measured = record[section]
    if set(measured) != set(units):
        raise SystemExit(
            f"metrics emitted and declared in BENCHMARK.json differ: "
            f"{sorted(set(measured) ^ set(units))}")
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": measured[name]["value"],
                           "unit": units[name]} for name in units},
    })


def print_metrics(record: dict, spec: dict,
                  sections=("end_to_end", "per_layer")) -> None:
    """Every metric of the record by name, with its unit."""
    for section in sections:
        if section not in record:
            continue
        units = {m["name"]: m["unit"] for m in spec[section]}
        for name, summary in record[section].items():
            spread = ""
            if summary["n"] > 1:
                spread = (f"  [q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g},"
                          f" n {summary['n']}]")
            print(f"{record['workload']:>16}  {name:<36}"
                  f"{summary['value']:>14.6g} {units.get(name, '?'):<6}"
                  f"{spread}")
