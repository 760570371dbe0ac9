"""repro.obs — the cross-cutting observability subsystem.

Four pieces (see DESIGN.md §8):

* :mod:`repro.obs.spans` — causal span tracing with sim-time *and*
  wall-time clocks, propagated in-process (active-span stack) and on
  packets (``metadata[SPAN_KEY]``), so one device request is one trace
  tree from DHCP discovery through per-hop middlebox processing to the
  audit verdict.
* :mod:`repro.obs.metrics` — the typed metrics registry: labelled
  counters, gauges and fixed-bucket histograms the sdn/nfv/core
  layers publish into.
* :mod:`repro.obs.export` — JSONL and Chrome-trace (Perfetto) span
  export, Prometheus text and JSONL metric dumps.
* :mod:`repro.obs.runtime` — the process-global on/off switch.
  Disabled (the default) costs one global read + None test at each
  instrumentation site.
* :mod:`repro.obs.slo` / :mod:`repro.obs.alerts` /
  :mod:`repro.obs.recorder` — the judgment layer (DESIGN.md §14):
  declarative SLOs with multi-window burn rates, a FIRING/RESOLVED
  alert lifecycle with EWMA anomaly detection, and an incident flight
  recorder that freezes evidence bundles when alerts fire.

Quickstart::

    from repro.obs import export, runtime
    handle = runtime.enable()
    ... run a session / experiment ...
    export.spans_to_chrome_trace(handle.spans.spans)

or from the shell::

    python -m repro obs trace exp16    # Chrome-trace + JSONL spans
    python -m repro obs metrics exp16  # Prometheus-style dump
"""

from repro.obs import export, recorder, runtime

__all__ = [
    "export",
    "recorder",
    "runtime",
]
