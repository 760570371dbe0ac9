"""The audit-facing observability CLI: ``python -m repro obs ...``.

Four subcommands, all of which run one experiment with the
observability layer fully enabled and export what it saw:

``python -m repro obs trace E16``
    Runs an instrumented canonical PVN session (connect → traced
    packets → audit) followed by the experiment, then writes the span
    set as JSONL plus a Chrome-trace (Perfetto-loadable) JSON file and
    prints the trace tree.

``python -m repro obs metrics E16``
    Same run, but exports the metrics registry as a Prometheus-style
    text dump plus JSONL samples (both deterministically sorted by
    metric name then label key) and prints the text exposition.

``python -m repro obs slo E22``
    Same run, then dumps every registered SLO's final status (burn
    rates, error-budget spend, event totals) as ``slo.jsonl`` and a
    status table.

``python -m repro obs alerts E22``
    Same run, then exports the alert timeline as ``alerts.jsonl`` and
    every frozen incident bundle as ``incident-<n>.jsonl`` plus a
    Chrome-trace ``incident-<n>.chrome.json``, and prints the
    FIRING/RESOLVED timeline.

Experiment ids are normalised (``exp16`` == ``E16``; ``fig1a`` ==
``F1A``).  Artifacts land under ``--out`` (default
``obs-artifacts/<ID>/``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.obs import export as obs_export
from repro.obs import runtime as obs_runtime
from repro.obs.profile import PhaseProfiler


def normalize_experiment_id(raw: str, known) -> str:
    """Map user spellings onto experiment ids: ``exp16`` -> ``E16``."""
    candidate = raw.strip().upper()
    if candidate in known:
        return candidate
    if candidate.startswith("EXP"):
        alias = "E" + candidate[3:]
        if alias in known:
            return alias
    if candidate.startswith("FIG"):
        alias = "F" + candidate[3:]
        if alias in known:
            return alias
    raise SystemExit(
        f"unknown experiment id {raw!r}; known: {', '.join(sorted(known))}"
    )


def _session_preamble(seed: int, profiler: PhaseProfiler) -> None:
    """One canonical instrumented PVN request.

    Guarantees the exported trace contains the paper's full causal
    tree — DHCP attach → discovery → negotiation → deployment
    (compile/embed/install) → attestation → traced per-hop middlebox
    processing → audit verdict — regardless of which experiment runs
    afterwards.
    """
    from repro.core.session import PvnSession, default_pvnc
    from repro.netsim.packet import Packet

    with profiler.phase("session"):
        session = PvnSession.build(seed=seed)
        outcome = session.connect(default_pvnc())
        if not outcome.deployed:
            return
        flows = (
            ("198.51.100.7", 443),   # https -> tls_validator
            ("198.51.100.8", 80),    # web_text -> pii_detector
            ("198.51.100.9", 53),    # dns -> dns_validator
        )
        for dst, port in flows:
            packet = Packet(src="10.0.0.1", dst=dst, dst_port=port,
                            owner=session.device.user)
            session.send(packet, traced=True)
        session.audit(trials=1)
        deployment = session.device.connection.deployment
        deployment.datapath.publish_counters()
        session.teardown()


def _run_experiment(experiment_id: str, seed: int,
                    profiler: PhaseProfiler):
    from repro.experiments import ALL_EXPERIMENTS

    with profiler.phase(f"experiment:{experiment_id}"):
        return ALL_EXPERIMENTS[experiment_id](seed=seed)


def _render_tree() -> None:
    tracer = obs_runtime.current().spans
    for root in tracer.roots():
        for span, depth in _walk_depth(tracer, root, 0):
            duration = (f"{span.duration * 1e3:.3f}ms"
                        if span.end is not None else "open")
            print(f"{'  ' * depth}{span.name}  [{duration}] "
                  f"{span.attributes or ''}")


def _walk_depth(tracer, span, depth):
    yield span, depth
    for child in tracer.children_of(span):
        yield from _walk_depth(tracer, child, depth + 1)


def _render_slo(statuses) -> None:
    if not statuses:
        print("no SLOs registered by this run")
        return
    print(f"{'slo':<24} {'objective':>9} {'fast':>7} {'slow':>7} "
          f"{'budget':>7} {'good':>9} {'bad':>6}")
    for status in statuses:
        print(f"{status.name:<24} {status.objective:>9.4f} "
              f"{status.fast_burn:>7.2f} {status.slow_burn:>7.2f} "
              f"{status.budget_used:>7.2f} {int(status.good_total):>9} "
              f"{int(status.bad_total):>6}")


def _render_alerts(timeline, incidents) -> None:
    if not timeline:
        print("no alert transitions recorded by this run")
    for entry in timeline:
        cause = ", ".join(f"{key}={value}" for key, value in
                          sorted(entry["cause"].items()))
        print(f"t={entry['now']:<8g} {entry['state'].upper():<8} "
              f"{entry['name']} [{entry['severity']}]  {cause}")
    print(f"{len(incidents)} incident bundle(s) frozen")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Export traces and metrics from an instrumented run.",
    )
    parser.add_argument("command",
                        choices=("trace", "metrics", "slo", "alerts"),
                        help="what to export")
    parser.add_argument("experiment", metavar="ID",
                        help="experiment id (e.g. E16, exp16, fig1a)")
    parser.add_argument("--seed", type=int, default=0,
                        help="experiment seed (default 0)")
    parser.add_argument("--out", default="",
                        help="artifact directory "
                             "(default obs-artifacts/<ID>)")
    parser.add_argument("--quiet", action="store_true",
                        help="write artifacts only; no stdout dump")
    args = parser.parse_args(argv)

    from repro.experiments import ALL_EXPERIMENTS

    experiment_id = normalize_experiment_id(args.experiment,
                                            ALL_EXPERIMENTS)
    out_dir = pathlib.Path(args.out or f"obs-artifacts/{experiment_id}")
    out_dir.mkdir(parents=True, exist_ok=True)

    with obs_runtime.enabled():
        obs = obs_runtime.current()
        profiler = PhaseProfiler()
        _session_preamble(args.seed, profiler)
        result = _run_experiment(experiment_id, args.seed, profiler)
        spans = obs.spans.finished()

        written = []
        if args.command == "trace":
            jsonl_path = out_dir / "spans.jsonl"
            with jsonl_path.open("w") as fh:
                obs_export.spans_to_jsonl(spans, fh)
            chrome_path = out_dir / "trace.chrome.json"
            with chrome_path.open("w") as fh:
                json.dump(obs_export.spans_to_chrome_trace(spans), fh)
            written = [jsonl_path, chrome_path]
            if not args.quiet:
                _render_tree()
        elif args.command == "metrics":
            prom_path = out_dir / "metrics.prom"
            with prom_path.open("w") as fh:
                obs_export.metrics_to_prometheus(obs.metrics, fh)
            mjsonl_path = out_dir / "metrics.jsonl"
            with mjsonl_path.open("w") as fh:
                obs_export.metrics_to_jsonl(obs.metrics, fh)
            written = [prom_path, mjsonl_path]
            if not args.quiet:
                obs_export.metrics_to_prometheus(obs.metrics, sys.stdout)
        elif args.command == "slo":
            statuses = obs.slo.status()
            slo_path = out_dir / "slo.jsonl"
            with slo_path.open("w") as fh:
                for status in statuses:
                    fh.write(json.dumps(status.to_dict(), sort_keys=True))
                    fh.write("\n")
            written = [slo_path]
            if not args.quiet:
                _render_slo(statuses)
        else:
            timeline = obs.alerts.timeline()
            timeline_path = out_dir / "alerts.jsonl"
            with timeline_path.open("w") as fh:
                for entry in timeline:
                    fh.write(json.dumps(entry, sort_keys=True))
                    fh.write("\n")
            written = [timeline_path]
            for index, bundle in enumerate(obs.recorder.incidents):
                bundle_path = out_dir / f"incident-{index}.jsonl"
                with bundle_path.open("w") as fh:
                    bundle.to_jsonl(fh)
                chrome_path = out_dir / f"incident-{index}.chrome.json"
                with chrome_path.open("w") as fh:
                    json.dump(bundle.to_chrome_trace(), fh)
                written += [bundle_path, chrome_path]
            if not args.quiet:
                _render_alerts(timeline, obs.recorder.incidents)

        if not args.quiet:
            print()
            print(f"[{experiment_id}] {result.title}")
            print(profiler.render())
        for path in written:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
