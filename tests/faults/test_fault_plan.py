"""Fault plans: DSL parsing, ordering, and seeded determinism."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import PvnSession, default_pvnc
from repro.errors import ConfigurationError
from repro.faults.events import FaultEvent, HOST_KINDS, LINK_KINDS
from repro.faults import FaultInjector, FaultKind, make_event, normalise_ids
from repro.faults.plan import FaultPlan, _VERBS, parse_fault_plan

SCRIPT = """
# comments and blank lines are ignored

at 0.5 link-down ap0 agg
at 0.8 loss-burst agg core rate=0.4 duration=1.0
at 1.0 crash tls_validator
at 1.2 crash *          # every live middlebox
at 1.5 host-down nfv0
at 2.0 silence duration=1.5
at 2.2 drop-dm count=3
at 3.0 host-up nfv0
at 3.5 link-up ap0 agg
at 4.0 migration-target-crash
at 4.1 transfer-loss count=2
at 4.2 commit-silence duration=0.5
at 5.0 host-crash nfv1
at 5.5 partition nfv0 duration=2.0
at 6.0 heartbeat-loss nfv0 count=2
"""


class TestDsl:
    def test_parses_every_verb(self):
        plan = parse_fault_plan(SCRIPT)
        assert len(plan) == 15
        kinds = [e.kind for e in plan]
        assert set(kinds) == set(FaultKind)

    def test_events_come_out_time_ordered(self):
        plan = parse_fault_plan(SCRIPT)
        times = [e.time for e in plan]
        assert times == sorted(times)

    def test_targets_and_params_land(self):
        plan = parse_fault_plan(SCRIPT)
        burst = plan.of_kind(FaultKind.LINK_LOSS)[0]
        assert burst.target == ("agg", "core")
        assert burst.param("rate") == pytest.approx(0.4)
        assert burst.param("duration") == pytest.approx(1.0)
        crash = plan.of_kind(FaultKind.MIDDLEBOX_CRASH)[0]
        assert crash.target == ("tls_validator",)

    @pytest.mark.parametrize("line", [
        "link-down ap0 agg",          # missing 'at <time>'
        "at soon crash *",            # non-numeric time
        "at 1.0 meteor-strike ap0",   # unknown verb
        "at 1.0 silence duration=long",  # non-numeric param
        # Each of these once parsed and then failed (or was silently
        # accepted) inside the simulation; now the parse refuses them.
        "at 1.0 host-down",                      # host fault, no host
        "at 1.0 heartbeat-loss nfv0 count=nan",  # non-finite param
        "at nan crash *",                        # non-finite time
        "at inf crash *",
        "at 1.0 silence duration=-1",            # negative param
        "at 1.0 partition nfv1 duration=nan",
        "at 1.0 drop-dm count=2.5",              # fractional count
        "at 1.0 loss-burst agg core rate=1",     # certain loss
        "at 1.0 host-crash nfv0 nfv1",           # two hosts
        "at 0 host-crash *",                     # "*" is no host
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ConfigurationError):
            parse_fault_plan(line)

    def test_roundtrip_render_parse(self):
        plan = parse_fault_plan(SCRIPT)
        # render() lines are themselves stable event descriptions.
        assert plan.render() == FaultPlan(plan.events).render()


class TestEvents:
    def test_link_kinds_need_two_endpoints(self):
        with pytest.raises(ConfigurationError):
            make_event(1.0, FaultKind.LINK_DOWN, "ap0")

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            make_event(-1.0, FaultKind.MIDDLEBOX_CRASH, "*")

    def test_events_are_hashable_and_comparable(self):
        a = make_event(1.0, FaultKind.HOST_DOWN, "nfv0")
        b = make_event(1.0, FaultKind.HOST_DOWN, "nfv0")
        assert a == b and hash(a) == hash(b)
        assert isinstance(a, FaultEvent)


class TestSeededPlans:
    ARGS = dict(
        duration=10.0,
        services=("tls_validator", "pii_detector"),
        links=(("ap0", "agg"), ("agg", "core")),
        hosts=("nfv0", "nfv1"),
        silence_rate=0.1,
    )

    def test_same_seed_same_plan(self):
        assert (FaultPlan.random(seed=42, **self.ARGS)
                == FaultPlan.random(seed=42, **self.ARGS))
        assert (FaultPlan.random(seed=42, **self.ARGS).render()
                == FaultPlan.random(seed=42, **self.ARGS).render())

    def test_different_seeds_differ(self):
        plans = {FaultPlan.random(seed=s, **self.ARGS).render()
                 for s in range(5)}
        assert len(plans) > 1

    def test_horizon_covers_trailing_durations(self):
        plan = FaultPlan.random(seed=3, **self.ARGS)
        assert plan.horizon >= max((e.time for e in plan), default=0.0)

    def test_merged_plans_stay_ordered(self):
        early = parse_fault_plan("at 0.1 crash *")
        late = parse_fault_plan("at 9.0 host-down nfv0")
        merged = late.merged(early)
        assert [e.time for e in merged] == [0.1, 9.0]

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random(seed=0, duration=0.0)


class TestNormaliseIds:
    def test_first_seen_aliasing(self):
        text = "alice/pvn7 ok then alice/pvn9 then alice/pvn7 again"
        assert normalise_ids(text) == (
            "alice/pvn#1 ok then alice/pvn#2 then alice/pvn#1 again"
        )

    def test_two_runs_compare_equal_after_normalising(self):
        run_a = "crashed alice/pvn3:tls\nrepaired alice/pvn3"
        run_b = "crashed alice/pvn8:tls\nrepaired alice/pvn8"
        assert normalise_ids(run_a) == normalise_ids(run_b)


# -- fuzz: every script parses to an applicable plan or fails at parse ------

#: Names the fuzz world has: its NFV hosts, and its links as endpoint
#: pairs.  Targets are drawn from these and from ``_STRANGERS``, names
#: that parse but that the world has no NFV host of: an event that
#: parses either applies or, naming a stranger as a host, is refused
#: before it is scheduled.
_HOSTS = ("nfv0", "nfv1")
_STRANGERS = ("agg", "nosuchhost")
_LINKS = (("agg", "ap1"), ("agg", "core"), ("gw", "home"))

#: Kinds whose targets must be the world's NFV hosts (or ``*``).
_HOST_TARGETED = HOST_KINDS | {FaultKind.NETWORK_PARTITION}


def _mostly(good, bad):
    """``good`` seven draws in eight, else ``bad``: most scripts parse
    and reach the injector, and every malformed shape still shows up."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


_bad_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["-1", "2.5", "1e308", "x"]),
)
_numbers = _mostly(
    st.one_of(st.sampled_from(["0", "0.5", "1", "2", "3.25"]),
              st.floats(0, 1e6).map(repr)),
    _bad_numbers,
)
_param_values = {
    "duration": _numbers,
    "count": _mostly(st.integers(0, 5).map(str), _bad_numbers),
    "rate": _mostly(st.floats(0, 0.99).map(repr), _bad_numbers),
}
_any_target = st.one_of(
    st.just(()),
    st.sampled_from(_HOSTS + _STRANGERS + ("*",)).map(lambda host: (host,)),
    st.sampled_from(_LINKS),
    st.tuples(st.sampled_from(_LINKS), st.sampled_from(_HOSTS)).map(
        lambda pair_host: (*pair_host[0], pair_host[1])),
)


def _target_for(verb):
    """The target shape ``verb`` takes, or now and then any shape."""
    kind = _VERBS.get(verb)
    if kind in LINK_KINDS:
        proper = st.sampled_from(_LINKS)
    elif kind in HOST_KINDS:
        proper = st.sampled_from(_HOSTS + _STRANGERS).map(
            lambda host: (host,))
    else:
        proper = st.sampled_from([(), ("*",), ("tls_validator",)])
    return _mostly(proper, _any_target)


def _line(time, verb, target, params):
    return " ".join(["at", time, verb, *target,
                     *(f"{key}={value}" for key, value in params)])


_params = st.lists(
    st.sampled_from(sorted(_param_values)).flatmap(
        lambda key: st.tuples(st.just(key), _param_values[key])),
    max_size=2,
)
_verbs = _mostly(st.sampled_from(sorted(_VERBS)), st.just("meteor-strike"))
_event_lines = _verbs.flatmap(
    lambda verb: st.builds(_line, _numbers, st.just(verb),
                           _target_for(verb), _params))
_scripts = st.lists(
    _mostly(_event_lines, st.text(max_size=20)), max_size=4,
).map("\n".join)


class TestScriptFuzz:
    @settings(max_examples=300, deadline=None)
    @given(script=_scripts)
    @example(script="at 1.0 host-down")
    @example(script="at 1.0 heartbeat-loss nfv0 count=nan")
    @example(script="at nan crash *")
    @example(script="at 1.0 silence duration=-1")
    @example(script="at 1.0 partition nfv1 duration=nan")
    @example(script="at 0 host-crash *")
    @example(script="at 1 partition nosuchhost duration=1")
    @example(script="at 1 heartbeat-loss agg count=2")
    def test_script_applies_or_fails_at_parse(self, script):
        try:
            plan = parse_fault_plan(script)
        except ConfigurationError:
            return
        session = PvnSession.build(seed=0)
        assert session.connect(default_pvnc()).deployed
        world = {*session.provider.hosts, "*"}
        strangers = [event for event in plan
                     if event.kind in _HOST_TARGETED
                     and not set(event.target) <= world]
        if strangers:
            refused = FaultInjector(session.sim, session.provider)
            pending = session.sim.pending_events
            with pytest.raises(ConfigurationError, match="unknown NFV host"):
                refused.schedule_plan(plan)
            assert session.sim.pending_events == pending
        injector = FaultInjector(session.sim, session.provider)
        for event in plan:
            if event in strangers:
                with pytest.raises(ConfigurationError,
                                   match="unknown NFV host"):
                    injector.inject_now(event)
            else:
                injector.inject_now(event)
        assert len(injector.applied) == len(plan) - len(strangers)


@pytest.mark.parametrize("script", [
    "at 1 partition nosuchhost duration=1",
    "at 1 heartbeat-loss agg count=2",
])
def test_host_outside_the_world_is_refused_when_scheduled(script):
    session = PvnSession.build(seed=0)
    injector = FaultInjector(session.sim, session.provider)
    pending = session.sim.pending_events
    with pytest.raises(ConfigurationError, match="unknown NFV host"):
        injector.schedule_plan(script)
    assert session.sim.pending_events == pending
    with pytest.raises(ConfigurationError, match="unknown NFV host"):
        injector.inject_now(parse_fault_plan(script).events[0])
    assert injector.applied == []
