"""Tests for the compiled Pipeline abstraction and context pooling.

The pipeline layer replaced three per-packet interpreter loops (chain,
PVN datapath, tunnel encap); these tests pin the contract that made the
refactor safe: identical short-circuit semantics, delay charged only
for reached hops, prechecks aborting *before* the charge, label
overrides, and pooled contexts that never leak one packet's state into
the next.
"""

import pytest

from repro.netsim import Packet
from repro.nfv import ChainHop, Container, ProcessingContext, ServiceChain
from repro.nfv.middlebox import Middlebox, Verdict, VerdictKind
from repro.nfv.pipeline import Pipeline, PipelineStep, labeled_verdict
from repro.obs import runtime as obs_runtime


class Recorder(Middlebox):
    """Records the context identity and contents seen per packet."""

    service = "recorder"

    def __init__(self, name=""):
        super().__init__(name)
        self.seen = []

    def inspect(self, packet, context):
        self.seen.append(
            (id(context), context.owner, dict(context.extras))
        )
        context.extras["touched_by"] = self.name
        return Verdict.passed()


class Blocker(Middlebox):
    service = "blocker"

    def inspect(self, packet, context):
        return Verdict.dropped("blocked by test")


def running(middlebox, owner="alice"):
    container = Container(middlebox, owner=owner)
    container.start_immediately(now=0.0)
    return container


def pkt(owner="alice", **kwargs):
    return Packet(src="10.0.0.1", dst="1.1.1.1", owner=owner, **kwargs)


def ctx(owner="alice"):
    return ProcessingContext(now=0.0, owner=owner)


def passing_step(name, delay=0.0, precheck=None):
    return PipelineStep(name=name, delay=delay, precheck=precheck,
                        runner=lambda packet, context: Verdict.passed())


# -- pipeline semantics -------------------------------------------------------


class TestPipelineRun:
    def test_delay_charged_only_for_reached_steps(self):
        pipeline = Pipeline("p", (
            passing_step("a", delay=1.0),
            PipelineStep(name="b", delay=2.0,
                         runner=lambda p, c: Verdict.dropped("stop")),
            passing_step("never", delay=100.0),
        ))
        result = pipeline.run(pkt(), ctx())
        assert result.terminal_kind is VerdictKind.DROP
        assert result.added_delay == pytest.approx(3.0)
        assert result.labels == ("a:pass", "b:drop")
        # No steps reached at all: forwarded, nothing charged.
        empty = Pipeline("empty", ())
        result = empty.run(pkt(), ctx())
        assert result.terminal_kind is VerdictKind.PASS
        assert result.added_delay == 0.0
        assert empty.packets_forwarded == 1

    def test_precheck_abort_skips_the_steps_own_delay(self):
        aborted = Verdict.dropped("middlebox x crashed")
        pipeline = Pipeline("p", (
            passing_step("a", delay=1.0),
            passing_step("x", delay=50.0,
                         precheck=lambda p, c: aborted),
        ))
        result = pipeline.run(pkt(), ctx())
        assert result.terminal_kind is VerdictKind.DROP
        # The crashed hop's delay is never charged, matching the
        # pre-refactor loop: a packet lost at hop i paid for 0..i-1.
        assert result.added_delay == pytest.approx(1.0)

    def test_label_annotation_overrides_verdict_kind(self):
        crashed = labeled_verdict(
            Verdict.dropped("middlebox svc crashed"), "crashed",
        )
        pipeline = Pipeline("p", (
            PipelineStep(name="svc", runner=lambda p, c: crashed),
        ))
        result = pipeline.run(pkt(), ctx())
        assert result.labels == ("svc:crashed",)

    def test_drop_suffix_lands_in_drop_reason(self):
        pipeline = Pipeline("p", (
            PipelineStep(name="b",
                         runner=lambda p, c: Verdict.dropped("bad")),
        ), drop_suffix=" (pvn alice/d)")
        packet = pkt()
        pipeline.run(packet, ctx())
        assert packet.dropped
        assert packet.drop_reason == "bad (pvn alice/d)"

    def test_tunnel_pipeline_is_terminal_with_exact_label(self):
        pipeline = Pipeline.tunnel("p", "cloud", "degraded:tunnel")
        result = pipeline.run(pkt(), ctx())
        assert result.terminal_kind is VerdictKind.TUNNEL
        assert result.tunnel_endpoint == "cloud"
        assert result.labels == ("degraded:tunnel",)
        assert result.packet is None
        assert pipeline.packets_tunneled == 1

    def test_counters_fold_into_registry(self):
        pipeline = Pipeline("p", (passing_step("a"),))
        pipeline.run(pkt(), ctx())
        with obs_runtime.enabled() as obs:
            pipeline.publish()
        value = obs.metrics.value
        assert value("repro_pipeline_packets",
                     pipeline="p", result="packets_in") == 1
        assert value("repro_pipeline_packets",
                     pipeline="p", result="forwarded") == 1
        assert value("repro_pipeline_steps", pipeline="p") == 1


# -- chain compilation --------------------------------------------------------


class TestChainCompilation:
    def test_compiled_pipeline_is_cached_until_hops_change(self):
        chain = ServiceChain("c", [ChainHop(running(Middlebox("a")))])
        first = chain.compile()
        assert chain.compile() is first
        chain.hops.append(ChainHop(running(Middlebox("b"))))
        recompiled = chain.compile()
        assert recompiled is not first
        assert len(recompiled) == 2

    def test_invalidate_forces_recompile(self):
        chain = ServiceChain("c", [ChainHop(running(Middlebox("a")))])
        first = chain.compile()
        chain.invalidate()
        assert chain.compile() is not first

    def test_chain_drop_keeps_chain_suffix(self):
        chain = ServiceChain("c1", [ChainHop(running(Blocker()))])
        packet = pkt()
        result = chain.process(packet, ctx())
        assert result.packet is None
        assert packet.drop_reason.endswith(" (chain c1)")
        assert chain.packets_in == chain.packets_dropped == 1


# -- pooled contexts ----------------------------------------------------------


class TestPooledContexts:
    def test_executor_reuses_one_context_with_clean_extras(self):
        recorder, second = Recorder("r"), Recorder("r2")
        chain = ServiceChain("c", [ChainHop(running(recorder)),
                                   ChainHop(running(second))])
        executor = chain.as_executor()
        packet = pkt(owner="alice")
        assert executor(packet, "c") is packet
        executor(pkt(owner="alice"), "c")
        (id_a, owner_a, extras_a), (id_b, owner_b, extras_b) = recorder.seen
        assert id_a == id_b                  # one pooled allocation
        assert extras_a == {} and extras_b == {}   # no leak across packets
        assert owner_a == owner_b == "alice"
        # Within one packet, extras persist from one step to the next.
        assert [extras for _, _, extras in second.seen] == [
            {"touched_by": "r"}, {"touched_by": "r"}]

    def test_executor_resets_owner_per_packet(self):
        # Owner binding must track the packet even with a pooled
        # context, or sandbox isolation checks would misfire.
        recorder = Recorder("r")
        chain = ServiceChain("c", [ChainHop(running(recorder, owner=""))])
        executor = chain.as_executor()
        executor(pkt(owner="alice"), "c")
        executor(pkt(owner="bob"), "c")
        owners = [owner for _, owner, _ in recorder.seen]
        assert owners == ["alice", "bob"]

    def test_separate_chains_do_not_share_pooled_context(self):
        rec1, rec2 = Recorder("r1"), Recorder("r2")
        chain1 = ServiceChain("c1", [ChainHop(running(rec1))])
        chain2 = ServiceChain("c2", [ChainHop(running(rec2))])
        ex1, ex2 = chain1.as_executor(), chain2.as_executor()
        ex1(pkt(), "c1")
        ex2(pkt(), "c2")
        assert rec1.seen[0][0] != rec2.seen[0][0]

    def test_pipeline_context_pools_and_wipes(self):
        # The pooled context a pipeline runs with is re-armed per
        # packet by reset(): same object, packet-scoped state wiped.
        first = ProcessingContext(now=1.0, owner="alice",
                                  trusted_execution=True)
        first.extras["leftover"] = True
        second = first.reset(2.0, "bob")
        assert second is first
        assert second.trusted_execution
        assert second.now == 2.0
        assert second.owner == "bob"
        assert second.extras == {}

    def test_middlebox_state_isolation_survives_pooling(self):
        # Per-middlebox stats stay per-instance even though the
        # context is shared across packets.
        rec = Recorder("r")
        chain = ServiceChain("c", [ChainHop(running(rec))])
        executor = chain.as_executor()
        for _ in range(3):
            executor(pkt(), "c")
        assert rec.stats["processed"] == 3
        assert rec.stats["passed"] == 3
