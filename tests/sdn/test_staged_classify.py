"""The staged classifier against the whole-table cascade it replaced.

:meth:`FlowTable.classify` walks *stages* — a run of consecutive rules
testing the same single exact field is one dict probe — and
:meth:`FlowTable.install` bisects into an ordered list instead of
re-sorting.  The oracle below is the code both replaced, kept verbatim:
a list re-sorted on every install, list-comprehension removals, and the
rule-by-rule predicate cascade.  A hypothesis program drives a real
table and the oracle in lockstep and compares, after every step, the
winner *object*, the mask, the generation, the rule order and every
match/miss statistic; pinned cases cover the shapes the random program
is least likely to produce.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.netsim import Packet
from repro.sdn import Drop, Match
from repro.sdn.flowtable import FlowRule, FlowTable
from repro.sdn.match import MatchMask, _prefix_len, ip_in_subnet


class CascadeTable:
    """The parent commit's FlowTable write and classify paths."""

    def __init__(self) -> None:
        self.rules: list[FlowRule] = []
        self.generation = 0
        self.misses = 0

    def install(self, rule: FlowRule) -> None:
        self.rules.append(rule)
        self.rules.sort(key=FlowRule.sort_key)
        self.generation += 1

    def _keep(self, kept: list[FlowRule]) -> int:
        removed = len(self.rules) - len(kept)
        self.rules = kept
        if removed:
            self.generation += 1
        return removed

    def remove(self, rule_id: int) -> bool:
        return self._keep(
            [r for r in self.rules if r.rule_id != rule_id]) > 0

    def remove_pvn(self, pvn_id: str) -> int:
        return self._keep([r for r in self.rules if r.pvn_id != pvn_id])

    def rules_for_pvn(self, pvn_id: str) -> list[FlowRule]:
        return [r for r in self.rules if r.pvn_id == pvn_id]

    def lookup(self, packet: Packet) -> FlowRule | None:
        for rule in self.rules:
            if rule.match.matches(packet):
                return rule
        return None

    def classify(self, packet: Packet) -> tuple[FlowRule | None, MatchMask]:
        src_plen = dst_plen = 0
        protocol = src_port = dst_port = owner = False
        for rule in self.rules:
            m = rule.match
            if m.protocol is not None and packet.protocol != m.protocol:
                protocol = True
                continue
            if m.src_port is not None and packet.src_port != m.src_port:
                src_port = True
                continue
            if m.dst_port is not None and packet.dst_port != m.dst_port:
                dst_port = True
                continue
            if m.owner is not None and packet.owner != m.owner:
                owner = True
                continue
            if m.src_cidr is not None and not ip_in_subnet(packet.src,
                                                           m.src_cidr):
                plen = _prefix_len(m.src_cidr)
                if plen > src_plen:
                    src_plen = plen
                continue
            if m.dst_cidr is not None and not ip_in_subnet(packet.dst,
                                                           m.dst_cidr):
                plen = _prefix_len(m.dst_cidr)
                if plen > dst_plen:
                    dst_plen = plen
                continue
            wm = m.mask()
            return rule, MatchMask(
                src_plen=max(src_plen, wm.src_plen),
                dst_plen=max(dst_plen, wm.dst_plen),
                protocol=protocol or wm.protocol,
                src_port=src_port or wm.src_port,
                dst_port=dst_port or wm.dst_port,
                owner=owner or wm.owner,
            )
        return None, MatchMask(
            src_plen=src_plen, dst_plen=dst_plen, protocol=protocol,
            src_port=src_port, dst_port=dst_port, owner=owner,
        )


class Lockstep:
    """A real table and the oracle, fed the same rule objects."""

    def __init__(self) -> None:
        self.table = FlowTable()
        self.oracle = CascadeTable()
        self._rule_ids = itertools.count(30_000_000)

    def install(self, match: Match, priority: int = 100, pvn_id: str = "",
                rule_id: int | None = None) -> FlowRule:
        rule = FlowRule(
            match=match, actions=(Drop(),), priority=priority,
            pvn_id=pvn_id,
            rule_id=next(self._rule_ids) if rule_id is None else rule_id,
        )
        self.table.install(rule)
        self.oracle.install(rule)
        self.check()
        return rule

    def remove(self, rule_id: int) -> None:
        assert self.table.remove(rule_id) == self.oracle.remove(rule_id)
        self.check()

    def remove_pvn(self, pvn_id: str) -> None:
        assert (self.table.remove_pvn(pvn_id)
                == self.oracle.remove_pvn(pvn_id))
        self.check()

    def classify(self, packet: Packet) -> tuple[FlowRule | None, MatchMask]:
        winner, mask = self.table.classify(packet)
        expected, expected_mask = self.oracle.classify(packet)
        assert winner is expected
        assert mask == expected_mask
        assert hash(mask) == hash(expected_mask)
        self.check()
        return winner, mask

    def lookup(self, packet: Packet) -> FlowRule | None:
        expected = self.oracle.lookup(packet)
        if expected is None:
            self.oracle.misses += 1
        else:       # the rule objects are shared: charge it once only
            before = (expected.packets_matched, expected.bytes_matched)
        winner = self.table.lookup(packet)
        assert winner is expected
        if expected is not None:
            assert (expected.packets_matched, expected.bytes_matched) == (
                before[0] + 1, before[1] + packet.size)
        self.check()
        return winner

    def check(self) -> None:
        table, oracle = self.table, self.oracle
        assert all(a is b for a, b in zip(table.rules, oracle.rules))
        assert len(table) == len(oracle.rules)
        assert table.rules == sorted(table.rules, key=FlowRule.sort_key)
        assert table.generation == oracle.generation
        assert table.misses == oracle.misses
        for pvn_id in {r.pvn_id for r in oracle.rules} | {"ghost"}:
            mine = table.rules_for_pvn(pvn_id)
            theirs = oracle.rules_for_pvn(pvn_id)
            assert len(mine) == len(theirs)
            assert all(a is b for a, b in zip(mine, theirs))


def pkt(owner="u0", dst_port=443, src_port=40000, protocol="tcp",
        src="10.0.0.9", dst="198.51.100.5") -> Packet:
    return Packet(src=src, dst=dst, protocol=protocol, src_port=src_port,
                  dst_port=dst_port, owner=owner, size=100)


# -- the lockstep program -----------------------------------------------------

_OWNERS = ["u0", "u1", "u2", "u3"]
_PORTS = [80, 443]
_PROTOCOLS = ["tcp", "udp"]
_CIDRS = ["10.0.0.0/8", "10.1.0.0/16"]

# Single exact-field matches (the shapes that form runs, with duplicate
# values drawn often), plus multi-field and CIDR matches that must stay
# singleton stages.
_matches = st.one_of(
    st.builds(lambda o: Match(owner=o), st.sampled_from(_OWNERS)),
    st.builds(lambda p: Match(dst_port=p), st.sampled_from(_PORTS)),
    st.builds(lambda p: Match(src_port=p), st.sampled_from([40000, 40001])),
    st.builds(lambda p: Match(protocol=p), st.sampled_from(_PROTOCOLS)),
    st.builds(lambda o, p: Match(owner=o, dst_port=p),
              st.sampled_from(_OWNERS), st.sampled_from(_PORTS)),
    st.builds(lambda c: Match(src_cidr=c), st.sampled_from(_CIDRS)),
    st.builds(lambda o, c: Match(owner=o, src_cidr=c),
              st.sampled_from(_OWNERS), st.sampled_from(_CIDRS)),
    st.just(Match()),
)

_packets = st.builds(
    pkt,
    owner=st.sampled_from(_OWNERS + ["stranger"]),
    dst_port=st.sampled_from(_PORTS + [8080]),
    src_port=st.sampled_from([40000, 40001, 40002]),
    protocol=st.sampled_from(_PROTOCOLS),
    src=st.sampled_from(["10.0.0.9", "10.1.0.9", "172.16.0.9"]),
)

_ops = st.one_of(
    # Two priorities only, so equal (priority, specificity) rules of
    # different fields interleave by install order and split runs.
    st.tuples(st.just("install"), _matches, st.sampled_from([100, 200]),
              st.integers(0, 3)),
    st.tuples(st.just("install_twin"), _matches),
    st.tuples(st.just("remove"), st.integers(0, 40)),
    st.tuples(st.just("remove_pvn"), st.integers(0, 3)),
    st.tuples(st.just("classify"), _packets),
    st.tuples(st.just("lookup"), _packets),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, max_size=50))
def test_staged_table_equals_cascade_in_lockstep(ops):
    pair = Lockstep()
    installed: list[FlowRule] = []
    for op in ops:
        if op[0] == "install":
            _, match, priority, pvn = op
            installed.append(
                pair.install(match, priority, pvn_id=f"u{pvn}/d"))
        elif op[0] == "install_twin":
            # A second rule under an id already in the table: the sort
            # keys tie, and the later install must sort last.
            rule_id = installed[-1].rule_id if installed else 7
            installed.append(
                pair.install(op[1], installed[-1].priority if installed
                             else 100, pvn_id="twin/d", rule_id=rule_id))
        elif op[0] == "remove":
            if installed:
                pair.remove(installed[op[1] % len(installed)].rule_id)
        elif op[0] == "remove_pvn":
            pair.remove_pvn(f"u{op[1]}/d")
        elif op[0] == "classify":
            pair.classify(op[1])
        else:
            pair.lookup(op[1])


# -- pinned shapes ------------------------------------------------------------


def test_miss_through_two_runs_pins_both_fields():
    pair = Lockstep()
    for owner in ("u0", "u1", "u2"):
        pair.install(Match(owner=owner), priority=200)
    for port in (80, 443):
        pair.install(Match(dst_port=port), priority=100)
    winner, mask = pair.classify(pkt(owner="stranger", dst_port=8080))
    assert winner is None
    assert mask == MatchMask(owner=True, dst_port=True)


def test_winner_need_not_be_the_first_rule_of_its_run():
    pair = Lockstep()
    rules = [pair.install(Match(owner=f"u{i}"), priority=200)
             for i in range(4)]
    winner, mask = pair.classify(pkt(owner="u2"))
    assert winner is rules[2]
    assert mask == MatchMask(owner=True)


def test_run_split_by_one_cidr_rule():
    pair = Lockstep()
    early = pair.install(Match(owner="u0"), priority=200)
    # /16 == the owner weight, so the CIDR rule sorts between the two
    # owner rules by install order and splits what would be one run.
    cidr = pair.install(Match(src_cidr="10.1.0.0/16"), priority=200)
    late = pair.install(Match(owner="u1"), priority=200)
    assert [r.rule_id for r in pair.table.rules] == [
        early.rule_id, cidr.rule_id, late.rule_id]
    winner, mask = pair.classify(pkt(owner="u1", src="10.0.0.9"))
    assert winner is late
    assert mask == MatchMask(owner=True, src_plen=16)
    winner, mask = pair.classify(pkt(owner="u1", src="10.1.0.9"))
    assert winner is cidr
    assert mask == MatchMask(owner=True, src_plen=16)
    winner, mask = pair.classify(pkt(owner="u0", src="10.1.0.9"))
    assert winner is early
    assert mask == MatchMask(owner=True)


def test_duplicate_owner_falls_to_the_later_rule_once_the_earlier_is_removed():
    pair = Lockstep()
    first = pair.install(Match(owner="u0"), priority=200, pvn_id="u0/a")
    second = pair.install(Match(owner="u0"), priority=200, pvn_id="u0/b")
    pair.install(Match(owner="u1"), priority=200, pvn_id="u1/a")
    assert pair.classify(pkt(owner="u0"))[0] is first
    pair.remove_pvn("u0/a")
    assert pair.classify(pkt(owner="u0"))[0] is second
    pair.remove(second.rule_id)
    assert pair.classify(pkt(owner="u0")) == (None, MatchMask(owner=True))


def test_equal_specificity_fields_interleave_into_runs_of_one():
    pair = Lockstep()
    # owner and dst_port both weigh 16: install order alternates them,
    # so every run has length one and adjacent stages differ in field.
    rules = [
        pair.install(Match(owner="u0"), priority=200),
        pair.install(Match(dst_port=80), priority=200),
        pair.install(Match(owner="u1"), priority=200),
        pair.install(Match(dst_port=443), priority=200),
    ]
    winner, mask = pair.classify(pkt(owner="u1", dst_port=443))
    assert winner is rules[2]
    assert mask == MatchMask(owner=True, dst_port=True)
    winner, mask = pair.classify(pkt(owner="u0", dst_port=443))
    assert winner is rules[0]
    assert mask == MatchMask(owner=True)


def test_runs_over_every_exact_field():
    for field, values, probe in (
        ("protocol", ["tcp", "udp"], {"protocol": "udp"}),
        ("src_port", [40000, 40001], {"src_port": 40001}),
        ("dst_port", [80, 443], {"dst_port": 443}),
        ("owner", ["u0", "u1"], {"owner": "u1"}),
    ):
        pair = Lockstep()
        rules = [pair.install(Match(**{field: value})) for value in values]
        winner, mask = pair.classify(pkt(**probe))
        assert winner is rules[1]
        assert mask == MatchMask(**{field: True})


def test_equal_sort_keys_keep_install_order():
    pair = Lockstep()
    first = pair.install(Match(owner="u0"), rule_id=5)
    second = pair.install(Match(owner="u1"), rule_id=5)
    third = pair.install(Match(owner="u2"), rule_id=5)
    assert all(a is b for a, b in zip(pair.table.rules,
                                      [first, second, third]))
    pair.remove(5)
    assert len(pair.table) == 0


def test_stats_are_not_touched_by_classify():
    pair = Lockstep()
    rule = pair.install(Match(owner="u0"))
    pair.classify(pkt(owner="u0"))
    pair.classify(pkt(owner="stranger"))
    assert (rule.packets_matched, rule.bytes_matched) == (0, 0)
    assert pair.table.misses == 0


def test_an_install_after_a_classify_is_seen_by_the_next_classify():
    pair = Lockstep()
    low = pair.install(Match(owner="u0"), priority=100)
    assert pair.classify(pkt(owner="u0"))[0] is low
    high = pair.install(Match(owner="u0"), priority=200)
    assert pair.classify(pkt(owner="u0"))[0] is high


def test_multi_field_and_prefix_rules_never_join_a_run():
    pair = Lockstep()
    # Both test ``owner`` and something else, and sort ahead of the
    # plain owner rule: a packet they reject must still reach it, and
    # the mask must carry the field that rejected it.
    pair.install(Match(owner="u0", dst_port=80), priority=200)
    pair.install(Match(owner="u0", src_cidr="10.1.0.0/16"), priority=200)
    plain = pair.install(Match(owner="u0"), priority=200)
    winner, mask = pair.classify(pkt(owner="u0", dst_port=443))
    assert winner is plain
    assert mask == MatchMask(owner=True, dst_port=True, src_plen=16)
    # Agreeing with the two-field rule on one of its fields is no match.
    assert pair.classify(pkt(owner="stranger", dst_port=80)) == (
        None, MatchMask(owner=True))


def test_per_pvn_index_follows_removals_in_table_order():
    pair = Lockstep()
    low = pair.install(Match(owner="u0"), priority=100, pvn_id="u0/d")
    high = pair.install(Match(owner="u0"), priority=200, pvn_id="u0/d")
    assert all(a is b for a, b in zip(pair.table.rules_for_pvn("u0/d"),
                                      [high, low]))
    pair.remove(high.rule_id)
    assert pair.table.rules_for_pvn("u0/d") == [low]
    pair.remove(low.rule_id)
    assert pair.table.rules_for_pvn("u0/d") == []
    assert pair.table.remove_pvn("u0/d") == 0
