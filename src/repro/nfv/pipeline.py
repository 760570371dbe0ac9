"""Compiled packet pipelines: the one datapath abstraction.

Before this layer, three ad-hoc callback registries executed packets:
the NFV :class:`~repro.nfv.chain.ServiceChain` loop, the per-PVN
``PvnDataPath`` service loop, and the tunneling encap path.  Each paid
per-packet indirection — attribute chases for per-hop delay, dict
lookups for sandboxes, a fresh :class:`ProcessingContext` allocation —
and none shared counters.

A :class:`Pipeline` is the compiled form: a flat tuple of
:class:`PipelineStep` whose runners are pre-resolved bound callables
and whose per-hop delays are pre-summed into prefix totals, plus a
reusable pooled context.  ``ServiceChain.compile()``, the PVN datapath
(one pipeline per traffic class), and the degraded/bridged tunnel paths
(:meth:`Pipeline.tunnel`) all execute through :meth:`Pipeline.run`.

Semantics are exactly those of the loops it replaces: each step charges
its delay when reached, the first DROP or TUNNEL verdict
short-circuits, PASS and REWRITE continue.  A step may carry a
``precheck`` evaluated *before* its delay is charged (the datapath's
crashed-container gate).  Per-step reason labels default to
``"{name}:{verdict-kind}"``; a verdict can override its label through
the ``pipeline_label`` annotation (how a crashed-container drop stays
``"{service}:crashed"``).

Per-pipeline throughput counters (``packets_in`` and per-terminal
counts) publish through the existing :class:`~repro.netsim.trace.Tracer`
under category ``"pipeline"``.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable

from repro.netsim.packet import Packet
from repro.netsim.trace import Tracer
from repro.nfv.middlebox import ProcessingContext, Verdict, VerdictKind
from repro.obs import runtime as obs_runtime

#: Annotation key a verdict may set to override its step's reason label.
LABEL_ANNOTATION = "pipeline_label"

StepRunner = Callable[[Packet, ProcessingContext], Verdict]
StepPrecheck = Callable[[Packet, ProcessingContext], Verdict | None]


def labeled_verdict(verdict: Verdict, label: str) -> Verdict:
    """Attach a ``pipeline_label`` annotation to ``verdict``."""
    return dataclasses.replace(
        verdict,
        annotations=(*verdict.annotations, (LABEL_ANNOTATION, label)),
    )


def _label_of(step: "PipelineStep", verdict: Verdict) -> str:
    for key, value in verdict.annotations:
        if key == LABEL_ANNOTATION:
            return f"{step.name}:{value}" if step.name else str(value)
    return step.plain_labels[verdict.kind]


@dataclasses.dataclass(frozen=True)
class PipelineStep:
    """One compiled hop: a pre-resolved runner plus its charged delay.

    ``precheck`` (optional) runs before ``delay`` is charged; a non-None
    verdict from it short-circuits the pipeline without the charge —
    the crashed-container gate uses this so a packet lost at hop *i*
    is charged only for hops ``0..i-1``, exactly as the loop it
    replaced.
    """

    name: str
    runner: StepRunner
    delay: float = 0.0
    precheck: StepPrecheck | None = None

    @functools.cached_property
    def plain_labels(self) -> dict[VerdictKind, str]:
        """The ``"{name}:{verdict-kind}"`` label per kind, built once."""
        return {kind: f"{self.name}:{kind.value}" for kind in VerdictKind}


@dataclasses.dataclass
class PipelineResult:
    """What one :meth:`Pipeline.run` did to a packet."""

    packet: Packet | None          # None when dropped or tunneled
    verdicts: list[Verdict]
    labels: tuple[str, ...]        # per-step reason labels, in order
    added_delay: float
    terminal_kind: VerdictKind
    tunnel_endpoint: str = ""


@dataclasses.dataclass
class BatchResult:
    """What one :meth:`Pipeline.run_batch` did to a vector of packets.

    All fields are parallel arrays indexed by input position.  Batched
    execution trades per-step introspection for throughput: verdict and
    label lists are not collected (callers that need them — e.g. span
    synthesis for traced packets — route those packets through
    :meth:`Pipeline.run` instead).  Packet-observable effects (drop
    reasons, rewrites, charged delays, terminal kinds, throughput
    counters) are identical to running each packet through
    :meth:`Pipeline.run` in order.
    """

    packets: list[Packet | None]       # None where dropped or tunneled
    terminal_kinds: list[VerdictKind]
    added_delays: list[float]
    tunnel_endpoints: list[str]        # "" except where tunneled


class Pipeline:
    """A compiled flat list of steps with one pooled context."""

    def __init__(
        self,
        pipeline_id: str,
        steps: tuple[PipelineStep, ...] | list[PipelineStep],
        drop_suffix: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        self.pipeline_id = pipeline_id
        self.steps = tuple(steps)
        self.drop_suffix = drop_suffix
        self.tracer = tracer
        #: Full-traversal latency (every step's delay, pre-summed).
        self.total_delay = sum(step.delay for step in self.steps)
        # Prefix sums for batched execution: _delay_prefix[k] is the
        # delay charged by steps 0..k-1, so a slot terminating at step
        # k reads one float instead of accumulating per step.
        prefix = [0.0]
        for step in self.steps:
            prefix.append(prefix[-1] + step.delay)
        self._delay_prefix = tuple(prefix)
        self.packets_in = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.packets_tunneled = 0
        self._pooled_context: ProcessingContext | None = None
        self._context_pool: list[ProcessingContext] = []
        # Per-middlebox wall-time profiling handles, resolved once per
        # Observability instance (label lookup off the per-packet path).
        self._profile_obs: object | None = None
        self._profile_handles: tuple | None = None

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def tunnel(cls, pipeline_id: str, endpoint: str,
               label: str = "tunnel", delay: float = 0.0) -> "Pipeline":
        """A terminal redirect pipeline (degraded/bridged/encap paths).

        Every packet yields a TUNNEL verdict toward ``endpoint`` whose
        reason label is exactly ``label``; ``delay`` (e.g. an encap
        variant's per-packet CPU cost) is charged per packet.
        """
        verdict = labeled_verdict(Verdict.tunneled(endpoint), label)

        def runner(packet: Packet, context: ProcessingContext) -> Verdict:
            return verdict

        return cls(pipeline_id,
                   (PipelineStep(name="", runner=runner, delay=delay),))

    # -- pooled contexts ----------------------------------------------------

    def context(self, now: float, owner: str,
                tracer: Tracer | None = None,
                trusted_execution: bool = False) -> ProcessingContext:
        """The pipeline's pooled context, reset for one packet.

        One :class:`ProcessingContext` is allocated per pipeline and
        reused across packets; per-packet state (``now``, ``owner``,
        ``extras``) is wiped on every call, so middleboxes observe the
        same fresh-context contract as before pooling.
        """
        pooled = self._pooled_context
        if pooled is None:
            pooled = ProcessingContext(
                now=now, owner=owner, tracer=tracer,
                trusted_execution=trusted_execution,
            )
            self._pooled_context = pooled
            return pooled
        pooled.tracer = tracer
        pooled.trusted_execution = trusted_execution
        return pooled.reset(now, owner)

    def batch_contexts(
        self,
        packets: list[Packet],
        now: float,
        tracer: Tracer | None = None,
        trusted_execution: bool = False,
    ) -> list[ProcessingContext]:
        """One pooled context per batch slot, each reset for its packet.

        A single shared context would be wrong for stage-major batch
        execution: ``extras`` must persist across *steps* for one
        packet while staying invisible to its neighbours, so each slot
        owns a context.  The pool grows to the largest batch seen and
        is reused across batches.
        """
        pool = self._context_pool
        while len(pool) < len(packets):
            pool.append(ProcessingContext(
                now=now, owner="", tracer=tracer,
                trusted_execution=trusted_execution,
            ))
        contexts = pool[: len(packets)]
        for context, packet in zip(contexts, packets):
            context.tracer = tracer
            context.trusted_execution = trusted_execution
            context.reset(now, packet.owner)
        return contexts

    # -- execution ----------------------------------------------------------

    def _profiling_handles(self):
        """Per-step wall-time histogram handles, or None when profiling
        is off.  Resolved once per Observability instance so the
        per-packet cost is an index plus one ``observe``."""
        obs = obs_runtime.current()
        if obs is None or not obs.profile_middleboxes:
            return None
        if self._profile_obs is not obs:
            histogram = obs.metrics.histogram(
                "repro_middlebox_wall_seconds",
                "Wall-clock processing time per middlebox hop",
                ("middlebox",),
            )
            self._profile_handles = tuple(
                histogram.labels(middlebox=step.name or self.pipeline_id)
                for step in self.steps
            )
            self._profile_obs = obs
        return self._profile_handles

    def run(self, packet: Packet, context: ProcessingContext) -> PipelineResult:
        """Run ``packet`` through every step, short-circuiting on the
        first DROP or TUNNEL verdict."""
        self.packets_in += 1
        handles = self._profiling_handles()
        verdicts: list[Verdict] = []
        labels: list[str] = []
        delay = 0.0
        for index, step in enumerate(self.steps):
            if step.precheck is not None:
                aborted = step.precheck(packet, context)
                if aborted is not None:
                    verdicts.append(aborted)
                    labels.append(_label_of(step, aborted))
                    return self._terminate(
                        packet, aborted, verdicts, labels, delay)
            delay += step.delay
            if handles is None:
                verdict = step.runner(packet, context)
            else:
                wall_start = time.perf_counter()
                verdict = step.runner(packet, context)
                handles[index].observe(time.perf_counter() - wall_start)
            verdicts.append(verdict)
            labels.append(_label_of(step, verdict))
            if verdict.kind in (VerdictKind.DROP, VerdictKind.TUNNEL):
                return self._terminate(packet, verdict, verdicts, labels,
                                       delay)
        self.packets_forwarded += 1
        terminal = verdicts[-1].kind if verdicts else VerdictKind.PASS
        if terminal is VerdictKind.REWRITE:
            terminal = VerdictKind.PASS
        return PipelineResult(
            packet=packet, verdicts=verdicts, labels=tuple(labels),
            added_delay=delay, terminal_kind=terminal,
        )

    def _terminate(
        self,
        packet: Packet,
        verdict: Verdict,
        verdicts: list[Verdict],
        labels: list[str],
        delay: float,
    ) -> PipelineResult:
        if verdict.kind is VerdictKind.DROP:
            self.packets_dropped += 1
            packet.mark_dropped(f"{verdict.reason}{self.drop_suffix}")
            return PipelineResult(
                packet=None, verdicts=verdicts, labels=tuple(labels),
                added_delay=delay, terminal_kind=VerdictKind.DROP,
            )
        self.packets_tunneled += 1
        return PipelineResult(
            packet=None, verdicts=verdicts, labels=tuple(labels),
            added_delay=delay, terminal_kind=VerdictKind.TUNNEL,
            tunnel_endpoint=verdict.tunnel_endpoint,
        )

    def run_batch(
        self,
        packets: list[Packet],
        contexts: list[ProcessingContext],
    ) -> BatchResult:
        """Run a vector of packets through the steps, stage-major.

        Per-packet semantics are exactly :meth:`run`'s — prechecks
        before the step's delay is charged, DROP/TUNNEL short-circuits
        a slot, drop reasons carry ``drop_suffix`` — but execution is
        stage-major: each step's attributes (runner, delay, precheck)
        are resolved once per *batch* instead of once per packet, and
        no per-packet verdict/label/result objects are allocated.
        That amortization is the batched datapath's throughput win;
        callers needing per-step introspection use :meth:`run`.

        ``contexts`` is parallel to ``packets`` — one context per slot
        (see :meth:`batch_contexts`), because ``extras`` must persist
        across steps for one packet without leaking to its neighbours.
        """
        n = len(packets)
        self.packets_in += n
        handles = self._profiling_handles()
        out: list[Packet | None] = list(packets)
        kinds = [VerdictKind.PASS] * n
        delays = [0.0] * n
        endpoints = [""] * n
        live = list(range(n))
        suffix = self.drop_suffix
        prefix = self._delay_prefix
        last = len(self.steps) - 1
        DROP = VerdictKind.DROP
        TUNNEL = VerdictKind.TUNNEL
        REWRITE = VerdictKind.REWRITE
        PASS = VerdictKind.PASS
        for index, step in enumerate(self.steps):
            if not live:
                break
            runner = step.runner
            precheck = step.precheck
            handle = handles[index] if handles is not None else None
            uncharged = prefix[index]       # precheck aborts skip the step
            charged = prefix[index + 1]
            survivors: list[int] = []
            keep = survivors.append
            for i in live:
                packet = packets[i]
                context = contexts[i]
                if precheck is not None:
                    aborted = precheck(packet, context)
                    if aborted is not None:
                        # Terminal without charging this step's delay
                        # (the crashed-container gate's contract).
                        kinds[i] = aborted.kind
                        delays[i] = uncharged
                        out[i] = None
                        if aborted.kind is DROP:
                            self.packets_dropped += 1
                            packet.mark_dropped(f"{aborted.reason}{suffix}")
                        else:
                            self.packets_tunneled += 1
                            endpoints[i] = aborted.tunnel_endpoint
                        continue
                if handle is None:
                    verdict = runner(packet, context)
                else:
                    wall_start = time.perf_counter()
                    verdict = runner(packet, context)
                    handle.observe(time.perf_counter() - wall_start)
                kind = verdict.kind
                if kind is DROP:
                    self.packets_dropped += 1
                    packet.mark_dropped(f"{verdict.reason}{suffix}")
                    kinds[i] = DROP
                    delays[i] = charged
                    out[i] = None
                elif kind is TUNNEL:
                    self.packets_tunneled += 1
                    endpoints[i] = verdict.tunnel_endpoint
                    kinds[i] = TUNNEL
                    delays[i] = charged
                    out[i] = None
                else:
                    keep(i)
                    if index == last:
                        kinds[i] = PASS if kind is REWRITE else kind
            live = survivors
        total = prefix[-1]
        for i in live:
            delays[i] = total
        self.packets_forwarded += len(live)
        return BatchResult(
            packets=out, terminal_kinds=kinds,
            added_delays=delays, tunnel_endpoints=endpoints,
        )

    # -- observability ------------------------------------------------------

    @property
    def packets_total(self) -> int:
        """The monotone throughput tap the closed loop samples (delta
        per tick = measured rate; same name on every datapath layer)."""
        return self.packets_in

    def counters(self) -> dict[str, int]:
        return {
            "packets_in": self.packets_in,
            "forwarded": self.packets_forwarded,
            "dropped": self.packets_dropped,
            "tunneled": self.packets_tunneled,
            "steps": len(self.steps),
        }

    def publish(self, now: float, tracer: Tracer | None = None) -> None:
        """Emit a throughput-counter snapshot (category ``"pipeline"``).

        Tracer records are unchanged; with observability enabled the
        totals also fold into the metrics registry
        (``repro_pipeline_packets_total{pipeline=...,result=...}``).
        """
        # Explicit None check: an empty Tracer is falsy (__len__ == 0).
        sink = tracer if tracer is not None else self.tracer
        if sink is not None:
            sink.emit(now, "pipeline", self.pipeline_id, event="counters",
                      **self.counters())
        obs = obs_runtime.current()
        if obs is not None:
            totals = self.counters()
            steps = totals.pop("steps")
            obs.metrics.fold_totals(
                "repro_pipeline_packets",
                "Per-pipeline packet outcomes",
                ("pipeline",), {"pipeline": self.pipeline_id}, totals,
            )
            obs.metrics.gauge(
                "repro_pipeline_steps", "Compiled steps per pipeline",
                ("pipeline",),
            ).labels(pipeline=self.pipeline_id).set(steps)
