"""Compiled packet pipelines: the one datapath abstraction.

Before this layer, three ad-hoc callback registries executed packets:
the NFV :class:`~repro.nfv.chain.ServiceChain` loop, the per-PVN
``PvnDataPath`` service loop, and the tunneling encap path.  Each paid
per-packet indirection — attribute chases for per-hop delay, dict
lookups for sandboxes, a fresh :class:`ProcessingContext` allocation —
and none shared counters.

A :class:`Pipeline` is the compiled form: a flat tuple of
:class:`PipelineStep` whose runners (and optional proof stamps) are
pre-resolved callables and whose per-hop delays are resolved at compile
time.
``ServiceChain.compile()``, the PVN datapath (one pipeline per traffic
class), and the degraded/bridged tunnel paths (:meth:`Pipeline.tunnel`)
all execute through :meth:`Pipeline.run`.

Semantics are exactly those of the loops it replaces: each step charges
its delay when reached, the first DROP or TUNNEL verdict
short-circuits, PASS and REWRITE continue.  A step may carry a
``precheck`` evaluated *before* its delay is charged (the datapath's
crashed-container gate).  Per-step reason labels default to
``"{name}:{verdict-kind}"``; a verdict can override its label through
the ``pipeline_label`` annotation (how a crashed-container drop stays
``"{service}:crashed"``).  :meth:`Pipeline.run` calls no helper per
step beyond the step's own callables: an unannotated verdict's label is
read from the step's prebuilt ``plain_labels``, the terminal test is by
identity, and profiling handles are resolved only while observability
is enabled.

Per-pipeline throughput counters (``packets_in`` and per-terminal
counts) fold into the ``repro_pipeline_packets_total`` metric family
at publish time.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

from repro.netsim.packet import Packet
from repro.nfv.middlebox import ProcessingContext, Verdict, VerdictKind
from repro.obs import runtime as obs_runtime

#: Annotation key a verdict may set to override its step's reason label.
LABEL_ANNOTATION = "pipeline_label"

StepRunner = Callable[[Packet, ProcessingContext], Verdict]
StepPrecheck = Callable[[Packet, ProcessingContext], Verdict | None]

#: ``(kind, kind.value)`` per verdict kind, read once (``Enum.value``
#: is a Python-level property and every compiled step builds labels).
_KIND_VALUES = tuple((kind, kind.value) for kind in VerdictKind)


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


@dataclasses.dataclass(frozen=True, slots=True)
class PipelineStep:
    """One compiled hop: a pre-resolved runner plus its charged delay.

    ``precheck`` (optional) runs before ``delay`` is charged; a non-None
    verdict from it short-circuits the pipeline without the charge —
    the crashed-container gate uses this so a packet lost at hop *i*
    is charged only for hops ``0..i-1``, exactly as the loop it
    replaced.  ``stamp`` (optional) is called with the packet just
    before ``runner``, inside the hop's timed region: the PVN datapath
    puts the hop's path-proof stamp here.

    Slotted, with its labels built at construction: a PVN datapath
    compiles one per hop of every traffic class it serves.
    """

    name: str
    runner: StepRunner
    delay: float = 0.0
    precheck: StepPrecheck | None = None
    stamp: Callable[[Packet], None] | None = None
    #: The ``"{name}:{verdict-kind}"`` label per kind.
    plain_labels: dict[VerdictKind, str] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name = self.name
        object.__setattr__(self, "plain_labels", {
            kind: f"{name}:{value}" for kind, value in _KIND_VALUES})


@dataclasses.dataclass(slots=True)
class PipelineResult:
    """What one :meth:`Pipeline.run` did to a packet.

    Slotted, and built positionally: one is made per packet per
    pipeline.
    """

    packet: Packet | None          # None when dropped or tunneled
    verdicts: list[Verdict]
    labels: tuple[str, ...]        # per-step reason labels, in order
    added_delay: float
    terminal_kind: VerdictKind
    tunnel_endpoint: str = ""


class Pipeline:
    """A compiled flat list of steps."""

    def __init__(
        self,
        pipeline_id: str,
        steps: tuple[PipelineStep, ...] | list[PipelineStep],
        drop_suffix: str = "",
    ) -> None:
        self.pipeline_id = pipeline_id
        self.steps = tuple(steps)
        self.drop_suffix = drop_suffix
        #: Full-traversal latency (every step's delay, pre-summed).
        self.packets_in = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.packets_tunneled = 0
        # Per-middlebox wall-time profiling handles, resolved once per
        # Observability instance (label lookup off the per-packet path).
        self._profile_obs: object | None = None
        self._profile_handles: tuple | None = None

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def tunnel(cls, pipeline_id: str, endpoint: str,
               label: str = "tunnel") -> "Pipeline":
        """A terminal redirect pipeline (degraded/bridged paths).

        Every packet yields a TUNNEL verdict toward ``endpoint`` whose
        reason label is exactly ``label``, at no per-packet delay.
        """
        verdict = labeled_verdict(Verdict.tunneled(endpoint), label)

        def runner(packet: Packet, context: ProcessingContext) -> Verdict:
            return verdict

        return cls(pipeline_id,
                   (PipelineStep(name="", runner=runner, delay=0.0),))

    # -- execution ----------------------------------------------------------

    def _profiling_handles(self, obs):
        """Per-step wall-time histogram handles under ``obs``.  Resolved
        once per Observability instance so the per-packet cost is an
        index plus one ``observe``."""
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
        obs = obs_runtime.current()
        handles = None if obs is None else self._profiling_handles(obs)
        verdicts: list[Verdict] = []
        labels: list[str] = []
        delay = 0.0
        for step in self.steps:
            if step.precheck is not None:
                aborted = step.precheck(packet, context)
                if aborted is not None:
                    verdicts.append(aborted)
                    labels.append(_label_of(step, aborted))
                    return self._terminate(
                        packet, aborted, verdicts, labels, delay)
            delay += step.delay
            if handles is None:
                if step.stamp is not None:
                    step.stamp(packet)
                verdict = step.runner(packet, context)
            else:
                wall_start = time.perf_counter()
                if step.stamp is not None:
                    step.stamp(packet)
                verdict = step.runner(packet, context)
                # One verdict per step reached so far: this step's index.
                handles[len(verdicts)].observe(
                    time.perf_counter() - wall_start)
            verdicts.append(verdict)
            kind = verdict.kind
            labels.append(_label_of(step, verdict) if verdict.annotations
                          else step.plain_labels[kind])
            if kind is VerdictKind.DROP or kind is VerdictKind.TUNNEL:
                return self._terminate(packet, verdict, verdicts, labels,
                                       delay)
        self.packets_forwarded += 1
        terminal = verdicts[-1].kind if verdicts else VerdictKind.PASS
        if terminal is VerdictKind.REWRITE:
            terminal = VerdictKind.PASS
        return PipelineResult(packet, verdicts, tuple(labels), delay, terminal)

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
            return PipelineResult(None, verdicts, tuple(labels), delay,
                                  VerdictKind.DROP)
        self.packets_tunneled += 1
        return PipelineResult(None, verdicts, tuple(labels), delay,
                              VerdictKind.TUNNEL, verdict.tunnel_endpoint)

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

    def publish(self) -> None:
        """Fold the throughput counters into the metrics registry
        (``repro_pipeline_packets_total{pipeline=...,result=...}``);
        a no-op while observability is off."""
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
