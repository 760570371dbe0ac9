"""Compile-cache behaviour: sharing, invalidation, and observability.

ISSUE 5 satellite: mutating a PVNC revision or DSL source must miss
the cache; two devices with byte-identical policies must share one
compiled artifact, asserted through the obs cache-hit counter
(``repro_compile_cache_events{result="hit"}``), not just the cache's
own bookkeeping.
"""

import dataclasses

import pytest

from repro.core.pvnc.model import ClassRule, Constraints, ModuleSpec, Pvnc
from repro.core.pvnc.compiler import (
    CompileCache,
    default_compile_cache,
    policy_digest,
    reset_compile_cache,
)
from repro.core.pvnc import compile_pvnc, parse_pvnc, render_pvnc
from repro.nfv.container import ContainerSpec
from repro.nfv.sandbox import Capability
from repro.obs import runtime as obs_runtime


def policy(user="alice", **overrides):
    kwargs = dict(
        user=user,
        name="cachetest",
        modules=(
            ModuleSpec.make("malware_detector"),
            ModuleSpec.make("tracker_blocker"),
        ),
        class_rules=(ClassRule("default", ("malware_detector",
                                           "tracker_blocker")),),
    )
    kwargs.update(overrides)
    return Pvnc(**kwargs)


class TestArtifactSharing:
    def test_identical_policies_share_one_artifact(self):
        """Two devices, byte-identical policies, one compilation."""
        cache = CompileCache()
        first = compile_pvnc(policy(user="alice"), cache=cache)
        second = compile_pvnc(policy(user="bob"), cache=cache)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        # The expensive substructure is the *same object*, not a copy.
        assert second.placement_requests is first.placement_requests
        assert second.chain_layout is first.chain_layout
        assert second.capability_grants is first.capability_grants
        # Only the owner-scoped steering match is rebound.
        assert first.pvn_match.owner == "alice"
        assert second.pvn_match.owner == "bob"
        assert second.pvnc.user == "bob"

    def test_hit_counted_in_obs_registry(self):
        """The sharing claim is visible through the metrics registry."""
        with obs_runtime.enabled() as obs:
            cache = CompileCache()
            compile_pvnc(policy(user="alice"), cache=cache)
            compile_pvnc(policy(user="bob"), cache=cache)
            compile_pvnc(policy(user="carol"), cache=cache)
            value = obs.metrics.value
            assert value("repro_compile_cache_events", result="miss") == 1
            assert value("repro_compile_cache_events", result="hit") == 2

    def test_same_pvnc_object_returned_unrebound(self):
        cache = CompileCache()
        pvnc = policy()
        first = compile_pvnc(pvnc, cache=cache)
        second = compile_pvnc(pvnc, cache=cache)
        assert second is first

    def test_policy_digest_excludes_user(self):
        assert policy_digest(policy(user="alice")) == \
            policy_digest(policy(user="bob"))


class TestMutationMisses:
    def test_module_param_change_misses(self):
        cache = CompileCache()
        compile_pvnc(policy(), cache=cache)
        mutated = policy(modules=(
            ModuleSpec.make("malware_detector"),
            ModuleSpec.make("tracker_blocker"),
            ModuleSpec.make("pii_detector", mode="detect"),
        ), class_rules=(ClassRule("default", (
            "malware_detector", "tracker_blocker", "pii_detector")),))
        compile_pvnc(mutated, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_dsl_source_edit_misses(self):
        """Round-trip through the DSL; editing the text is a new policy."""
        cache = CompileCache()
        source = render_pvnc(policy())
        compile_pvnc(parse_pvnc(source), cache=cache)
        compile_pvnc(parse_pvnc(source), cache=cache)     # identical text
        edited = source.replace("malware_detector", "compressor")
        compile_pvnc(parse_pvnc(edited), cache=cache)
        assert cache.hits == 1
        assert cache.misses == 2

    def test_constraint_change_misses(self):
        cache = CompileCache()
        compile_pvnc(policy(), cache=cache)
        compile_pvnc(policy(constraints=Constraints(max_price=99.0)),
                     cache=cache)
        assert cache.misses == 2

    def test_replaced_constraint_gets_its_own_digest(self):
        """The digest is held on the frozen instance, and
        ``dataclasses.replace`` builds a new instance: a replaced
        constraint must not inherit the digest already computed."""
        cache = CompileCache()
        original = policy()
        key = cache.key(original, None, None, None)
        assert policy_digest(original) is policy_digest(original)
        replaced = dataclasses.replace(
            original, constraints=dataclasses.replace(
                original.constraints, max_price=10.001))
        assert policy_digest(replaced) != policy_digest(original)
        assert cache.key(replaced, None, None, None) != key
        assert cache.key(original, None, None, None) == key
        same = dataclasses.replace(original, user="bob")
        assert cache.key(same, None, None, None) == key

    def test_class_rule_change_misses(self):
        cache = CompileCache()
        compile_pvnc(policy(), cache=cache)
        compile_pvnc(policy(class_rules=(
            ClassRule("default", ("malware_detector", "tracker_blocker"),
                      terminal="drop"),)), cache=cache)
        assert cache.misses == 2

    def test_container_spec_is_part_of_the_key(self):
        cache = CompileCache()
        compile_pvnc(policy(), cache=cache)
        compile_pvnc(policy(), cache=cache,
                     container_spec=ContainerSpec(per_packet_delay=1e-3))
        assert cache.misses == 2

    def test_store_inputs_are_part_of_the_key(self):
        cache = CompileCache()
        store_policy = policy(modules=(
            ModuleSpec.make("fancy", source="store"),),
            class_rules=(ClassRule("default", ("fancy",)),))
        compile_pvnc(store_policy, cache=cache, store_services={"fancy"})
        compile_pvnc(store_policy, cache=cache, store_services={"fancy"},
                     store_capabilities={"fancy": Capability.OBSERVE})
        assert cache.misses == 2


class TestInvalidation:
    def test_invalidate_bumps_revision_and_clears(self):
        cache = CompileCache()
        compile_pvnc(policy(), cache=cache)
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0
        compile_pvnc(policy(), cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2
        assert cache.revision == 1

    def test_invalidate_counted_in_obs_registry(self):
        with obs_runtime.enabled() as obs:
            cache = CompileCache()
            compile_pvnc(policy(), cache=cache)
            cache.invalidate()
            compile_pvnc(policy(), cache=cache)
            value = obs.metrics.value
            assert value("repro_compile_cache_events",
                         result="invalidate") == 1
            assert value("repro_compile_cache_events", result="miss") == 2

    def test_eviction_fence(self):
        cache = CompileCache(max_entries=2)
        for price in (1.0, 2.0, 3.0):    # three distinct policies
            compile_pvnc(policy(constraints=Constraints(max_price=price)),
                         cache=cache)
        assert len(cache) == 2


class TestCacheControls:
    def test_cache_none_always_recompiles(self):
        first = compile_pvnc(policy(), cache=None)
        second = compile_pvnc(policy(), cache=None)
        assert first is not second
        assert first.placement_requests is not second.placement_requests

    def test_default_cache_reset(self):
        reset_compile_cache()
        compile_pvnc(policy())
        compile_pvnc(policy(user="bob"))
        assert default_compile_cache().hits == 1
        fresh = reset_compile_cache()
        assert fresh.hits == 0
        assert default_compile_cache() is fresh

    def test_stats_and_hit_rate(self):
        cache = CompileCache()
        assert cache.hit_rate == 0.0
        compile_pvnc(policy(), cache=cache)
        compile_pvnc(policy(user="bob"), cache=cache)
        assert cache.hit_rate == pytest.approx(0.5)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["revision"] == 0

    def test_publish_folds_gauges(self):
        with obs_runtime.enabled() as obs:
            cache = CompileCache()
            compile_pvnc(policy(), cache=cache)
            compile_pvnc(policy(user="bob"), cache=cache)
            cache.publish()
            value = obs.metrics.value
            assert value("repro_compile_cache_entries") == 1.0
            assert value("repro_compile_cache_hit_rate") == \
                pytest.approx(0.5)

    def test_rebound_artifact_deploys_equal(self):
        """The rebound hit is semantically identical to a fresh compile."""
        cache = CompileCache()
        compile_pvnc(policy(user="alice"), cache=cache)
        cached = compile_pvnc(policy(user="bob"), cache=cache)
        fresh = compile_pvnc(policy(user="bob"), cache=None)
        assert cached.placement_requests == fresh.placement_requests
        assert cached.chain_layout == fresh.chain_layout
        assert cached.terminals == fresh.terminals
        assert cached.estimate == fresh.estimate
        assert cached.per_packet_delay == fresh.per_packet_delay
        assert cached.capability_grants == fresh.capability_grants
        assert cached.pvn_match == fresh.pvn_match
        assert dataclasses.asdict(cached.pvnc) == \
            dataclasses.asdict(fresh.pvnc)
