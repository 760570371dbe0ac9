"""Layer tracing from outside the program.

The benchmark may not edit ``src/``, so spans are recorded by wrapping
each layer's *boundary callables* — the public functions other layers
call it through — for the duration of one traced repeat.  A wrapped
class attribute is replaced on the class; a wrapped module-level
function is replaced under its name in every loaded ``repro`` module
that imported it (``from x import f`` binds a second name).  Everything
is restored when the ``with`` block ends.

A span is ``(callable, start, end, parent span, op id)``.  A layer's
*self time* is its spans' durations minus the parts covered by child
spans, so self times over all layers plus the benchmark's own root
span add up to the traced region exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

#: layer -> boundary callables as ``module:Class.attr`` / ``module:func``.
#: Callables whose second positional argument is the packet are marked
#: with a trailing ``@packet``: their op id is the packet id, so every
#: span of one packet's journey shares an identifier.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "core.device": (
        "repro.core.device:Device.attach",
        "repro.core.device:Device.establish_pvn",
    ),
    "netproto.dhcp": (
        "repro.netproto.dhcp:DhcpClient.run_exchange",
        "repro.netproto.dhcp:DhcpServer.refresh_into_pvn",
    ),
    "core.discovery": (
        "repro.core.discovery.negotiation:negotiate",
        "repro.core.discovery.protocol:"
        "DiscoveryService.handle_deployment_request",
    ),
    "core.pvnc": ("repro.core.pvnc.compiler:compile_pvnc",),
    "core.deployment.embed": ("repro.core.deployment.embedding:embed_pvn",),
    "core.deployment.install": (
        "repro.core.deployment.manager:DeploymentManager.deploy",
        "repro.core.deployment.manager:DeploymentManager.teardown",
    ),
    "nfv.hypervisor": (
        "repro.nfv.hypervisor:NfvHost.launch",
        "repro.nfv.hypervisor:NfvHost.terminate_owner",
    ),
    "core.auditor": (
        "repro.core.device:Device.audit",
        "repro.core.auditor.attestation:AttestationVerifier.verify",
    ),
    "netsim.sim": (
        "repro.netsim.simulator:Simulator.run",
        "repro.netsim.link:Link.transmit@packet",
        "repro.netsim.node:Host.receive@packet",
    ),
    "sdn.switch": ("repro.sdn.switch:SdnSwitch.process@packet",),
    "sdn.controller": (
        "repro.sdn.controller:Controller.install",
        "repro.sdn.controller:Controller.remove_pvn",
    ),
    "core.datapath": (
        "repro.core.deployment.manager:PvnDataPath.process@packet",
    ),
    "nfv.pipeline": ("repro.nfv.pipeline:Pipeline.run@packet",),
    "middleboxes": ("repro.nfv.sandbox:Sandbox.process@packet",),
    "workloads.population": (
        "repro.workloads.population:PopulationWorkload.tick_events",
    ),
    # The engine's work is dispatched by the event loop, and no public
    # callable sits at that boundary: without its two event handlers
    # every tick would be billed to ``Simulator.run``.
    "netsim.fluid": (
        "repro.netsim.fluid:HybridPopulationEngine.run",
        "repro.netsim.fluid:HybridPopulationEngine._on_tick",
        "repro.netsim.fluid:HybridPopulationEngine._policy_packet",
        "repro.netsim.fluid:waterfill",
    ),
}

#: The layer that owns the root span: time in the benchmark's own loops.
HARNESS_LAYER = "bench"

LAYERS = (*BOUNDARIES, HARNESS_LAYER)

#: Cap on spans written to the Chrome-trace file (aggregates cover all).
MAX_TRACE_EVENTS = 100_000


class Tracer:
    """Records spans for the boundary callables while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.names: list[str] = []          # span name per name index
        self.layers: list[str] = []         # layer per name index
        self.op = 0                         # current benchmark op id
        # Open spans: [time covered by children, own span index].
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.region_s = 0.0

    # -- installation --------------------------------------------------

    def _name_index(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, index: int, packet_op: bool):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not stack:           # outside every timed region (set-up)
                return fn(*args, **kwargs)
            op = args[1].packet_id if packet_op else tracer.op
            parent = stack[-1]
            own = len(spans)
            spans.append(None)      # reserve: children must sort after us
            frame = [0.0, own]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(index, start, end, frame[0], parent, own, op)

        return traced

    def _close(self, index, start, end, covered, parent, own, op) -> None:
        duration = end - start
        layer = self.layers[index]
        self.self_s[layer] += duration - covered
        self.calls[layer] += 1
        parent_index = -1
        if parent is not None:      # None only for a root region
            parent[0] += duration
            parent_index = parent[1]
        self.spans[own] = (index, start, end, parent_index, op)

    @contextlib.contextmanager
    def installed(self):
        """Patch every boundary callable; restore on exit."""
        try:
            for layer, targets in BOUNDARIES.items():
                for target in targets:
                    self._install(layer, target)
            yield self
        finally:
            for holder, attr, original in reversed(self._restore):
                setattr(holder, attr, original)
            self._restore.clear()

    def _install(self, layer: str, target: str) -> None:
        target, _, flag = target.partition("@")
        module_name, _, path = target.partition(":")
        class_name, _, attr = path.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            holder = getattr(module, class_name) if class_name else module
            original = vars(holder)[attr]
        except (ImportError, AttributeError, KeyError):
            # A later change may rename a boundary; the benchmark must
            # still run, so the layer just loses this callable's spans.
            print(f"bench: boundary {target} is gone; not traced",
                  file=sys.stderr)
            return
        index = self._name_index(f"{layer}:{path}", layer)
        if class_name:
            self._restore.append((holder, attr, original))
            setattr(holder, attr,
                    self._wrap(original, index, flag == "packet"))
            return
        wrapper = self._wrap(original, index, False)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(loaded, path, None) is original:
                self._restore.append((loaded, path, original))
                setattr(loaded, path, wrapper)

    # -- the benchmark's own spans --------------------------------------

    @contextlib.contextmanager
    def region(self, name: str):
        """Root span over one timed region of the benchmark itself."""
        index = self._name_index(f"{HARNESS_LAYER}:{name}", HARNESS_LAYER)
        own = len(self.spans)
        self.spans.append(None)
        frame = [0.0, own]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(index, start, end, frame[0], None, own, self.op)
            self.region_s += end - start

    # -- output ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls|self_s|self_share`` for every layer."""
        total = self.region_s
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.self_share"] = (
                self.self_s[layer] / total if total else 0.0)
        return out

    def write_chrome_trace(self, path) -> None:
        """The spans as a Chrome-trace (``chrome://tracing``, Perfetto)."""
        spans = self.spans[:MAX_TRACE_EVENTS]
        origin = spans[0][1] if spans else 0.0
        events = [
            {
                "name": self.names[index], "cat": self.layers[index],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": i, "parent": parent, "op": op},
            }
            for i, (index, start, end, parent, op) in enumerate(spans)
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans_recorded": len(self.spans),
                "spans_written": len(events),
                "traced_region_s": self.region_s,
            },
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
