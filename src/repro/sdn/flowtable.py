"""Priority flow tables.

Rules are matched highest-priority-first; ties break deterministically
toward the more specific match, then the earlier-installed rule.  Each
rule carries the ``pvn_id`` of the deployment that installed it so
teardown and isolation audits can find them.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools

from repro.errors import ConfigurationError
from repro.netsim.packet import Packet
from repro.sdn.actions import Action
from repro.sdn.match import (
    EXACT_FIELDS,
    Match,
    MatchMask,
    _prefix_len,
    ip_in_subnet,
)

_rule_ids = itertools.count(1)


@dataclasses.dataclass
class FlowRule:
    """One match/action rule."""

    match: Match
    actions: tuple[Action, ...]
    priority: int = 100
    pvn_id: str = ""
    rule_id: int = dataclasses.field(default_factory=lambda: next(_rule_ids))
    packets_matched: int = 0
    bytes_matched: int = 0

    def __post_init__(self) -> None:
        if not self.actions:
            raise ConfigurationError("a flow rule needs at least one action")
        if self.priority < 0:
            raise ConfigurationError("priority must be >= 0")

    def sort_key(self) -> tuple[int, int, int]:
        return (-self.priority, -self.match.specificity(), self.rule_id)


class FlowTable:
    """An ordered rule table with overlap detection.

    ``_rules`` is kept sorted by :meth:`FlowRule.sort_key` — each
    install bisects the cached keys in ``_keys`` instead of re-sorting —
    and ``_by_pvn`` indexes the rules of each deployment, so a write
    costs O(log rules) comparisons and a teardown touches only its own
    rules.  :meth:`classify` walks ``_stages`` (see
    :meth:`_build_stages`), rebuilt lazily after a write.
    """

    def __init__(self, name: str = "table0") -> None:
        self.name = name
        self._rules: list[FlowRule] = []
        self._keys: list[tuple[int, int, int]] = []   # parallel to _rules
        self._by_pvn: dict[str, list[FlowRule]] = {}
        self._stages: list[tuple] | None = None
        self.misses = 0
        # Monotone change counter: bumped by every install/remove so
        # flow caches built over this table can fence their entries
        # (see repro.sdn.flowcache).
        self.generation = 0
        # Stages visited by classify(): the deterministic cost counter
        # behind "a miss does not grow with the subscriber count".
        self.stage_probes = 0

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> list[FlowRule]:
        return list(self._rules)

    def install(self, rule: FlowRule) -> None:
        """Add a rule."""
        key = rule.sort_key()
        # bisect_right: among equal keys the later install sorts last,
        # as the stable whole-table sort this replaces ordered them.
        at = bisect.bisect_right(self._keys, key)
        self._keys.insert(at, key)
        self._rules.insert(at, rule)
        self._by_pvn.setdefault(rule.pvn_id, []).append(rule)
        self._stages = None
        self.generation += 1

    def _drop(self, doomed: list[FlowRule]) -> int:
        """Take ``doomed`` (already out of ``_by_pvn``) out of the
        ordered lists; returns the count."""
        for rule in doomed:
            at = bisect.bisect_left(self._keys, rule.sort_key())
            while self._rules[at] is not rule:
                at += 1
            del self._keys[at], self._rules[at]
        if doomed:
            self._stages = None
            self.generation += 1
        return len(doomed)

    def remove(self, rule_id: int) -> bool:
        doomed = [r for r in self._rules if r.rule_id == rule_id]
        for pvn_id in {r.pvn_id for r in doomed}:
            kept = [r for r in self._by_pvn[pvn_id] if r.rule_id != rule_id]
            if kept:
                self._by_pvn[pvn_id] = kept
            else:
                del self._by_pvn[pvn_id]
        return self._drop(doomed) > 0

    def remove_pvn(self, pvn_id: str) -> int:
        """Remove every rule installed by a PVN; returns the count."""
        return self._drop(self._by_pvn.pop(pvn_id, []))

    def lookup(self, packet: Packet, record: bool = True) -> FlowRule | None:
        """The winning rule for ``packet``, by a linear scan.

        The switch classifies through :meth:`classify` and its caches;
        this scan is the reference that E16, E21 and the datapath tests
        compare it with.  With ``record`` (the default) the winner's
        match stats — or the table's miss counter — are updated;
        ``record=False`` leaves the accounting to the caller.
        """
        for rule in self._rules:
            if rule.match.matches(packet):
                if record:
                    self.record_match(rule, packet)
                return rule
        if record:
            self.record_miss()
        return None

    def _build_stages(self) -> list[tuple]:
        """Group the ordered rules into classification stages.

        A maximal run of consecutive rules that each test the same
        single exact field (one ``owner=`` rule per subscriber) becomes
        ``(field index, {value: first rule with it})``: one dict probe
        decides the whole run.  Every other rule is its own stage
        ``(-1, rule)``.
        """
        stages: list[tuple] = []
        run_field = -1
        run: dict = {}
        for rule in self._rules:
            m = rule.match
            tested = [i for i, name in enumerate(EXACT_FIELDS)
                      if getattr(m, name) is not None]
            if (len(tested) == 1 and m.src_cidr is None
                    and m.dst_cidr is None):
                field = tested[0]
                if field != run_field:
                    run_field, run = field, {}
                    stages.append((field, run))
                # setdefault: the earlier rule of a duplicate value wins.
                run.setdefault(getattr(m, EXACT_FIELDS[field]), rule)
            else:
                stages.append((-1, rule))
                run_field = -1
        return stages

    def classify(self, packet: Packet) -> tuple[FlowRule | None, MatchMask]:
        """The winner for ``packet`` plus the minimal wildcard mask.

        Finds the same winner as :meth:`lookup` (stats are *not*
        recorded — callers account explicitly) while deriving the
        OVS-style megaflow mask by rule cross-producting: every rule
        ordered before the winner contributes the one field that
        rejected the packet (the first failing predicate, in
        :meth:`~repro.sdn.match.Match.matches` order, at the rule's
        prefix length for an IP field), and the winner contributes every field it tests
        (:meth:`~repro.sdn.match.Match.mask`).  Any packet that agrees
        with this one on all masked bits is rejected by the same
        earlier rules and accepted by the same winner, so caching
        ``(mask, masked key) -> winner`` is sound.  On a full-table
        miss every rule contributes a rejecting field, which makes the
        negative entry equally sound.

        The walk is over stages, not rules.  A run of single-field
        rules rejects or accepts on that one field whichever of them
        the packet meets, so the run contributes exactly that field and
        its dict holds the winner if there is one; a singleton stage is
        ``Match.matches`` and that rejecting-field choice in one
        predicate cascade (same field order).  The rule-by-rule cascade this replaces is
        the oracle in ``tests/sdn/test_staged_classify.py``.
        """
        stages = self._stages
        if stages is None:
            stages = self._stages = self._build_stages()
        src_plen = dst_plen = 0
        exact = [False, False, False, False]    # in EXACT_FIELDS order
        for field, stage in stages:
            self.stage_probes += 1
            if field >= 0:
                exact[field] = True
                rule = stage.get(getattr(packet, EXACT_FIELDS[field]))
                if rule is None:
                    continue
                return rule, MatchMask(src_plen, dst_plen, *exact)
            m = stage.match
            if m.protocol is not None and packet.protocol != m.protocol:
                exact[0] = True
                continue
            if m.src_port is not None and packet.src_port != m.src_port:
                exact[1] = True
                continue
            if m.dst_port is not None and packet.dst_port != m.dst_port:
                exact[2] = True
                continue
            if m.owner is not None and packet.owner != m.owner:
                exact[3] = True
                continue
            if m.src_cidr is not None and not ip_in_subnet(packet.src,
                                                           m.src_cidr):
                src_plen = max(src_plen, _prefix_len(m.src_cidr))
                continue
            if m.dst_cidr is not None and not ip_in_subnet(packet.dst,
                                                           m.dst_cidr):
                dst_plen = max(dst_plen, _prefix_len(m.dst_cidr))
                continue
            wm = m.mask()
            return stage, MatchMask(
                max(src_plen, wm.src_plen), max(dst_plen, wm.dst_plen),
                exact[0] or wm.protocol, exact[1] or wm.src_port,
                exact[2] or wm.dst_port, exact[3] or wm.owner,
            )
        return None, MatchMask(src_plen, dst_plen, *exact)

    def record_match(self, rule: FlowRule, packet: Packet) -> None:
        """Charge one packet against ``rule``'s match statistics."""
        rule.packets_matched += 1
        rule.bytes_matched += packet.size

    def record_miss(self) -> None:
        """Charge one table miss."""
        self.misses += 1

    def rules_for_pvn(self, pvn_id: str) -> list[FlowRule]:
        return sorted(self._by_pvn.get(pvn_id, ()), key=FlowRule.sort_key)
