"""The SDN controller.

The controller owns every switch's flow table, namespaces installed
rules by PVN deployment, handles table-miss packet-ins with a default
policy, and exposes the teardown/audit queries the deployment manager
and auditor need.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError, IsolationError
from repro.netsim.packet import Packet
from repro.sdn.actions import Action, Output
from repro.sdn.flowtable import FlowRule
from repro.sdn.match import Match
from repro.sdn.switch import SdnSwitch


@dataclasses.dataclass(frozen=True)
class InstalledRule:
    """Bookkeeping for one rule the controller pushed."""

    switch_name: str
    rule_id: int
    pvn_id: str


class Controller:
    """Central control plane for a set of SDN switches."""

    def __init__(self, name: str = "controller") -> None:
        self.name = name
        self._switches: dict[str, SdnSwitch] = {}
        # Rules pushed, per PVN ("" = non-PVN), in install order.
        self._installed: dict[str, list[InstalledRule]] = {}
        self.packet_ins = 0
        self.default_drop = True

    # -- switch management ---------------------------------------------------

    def adopt(self, switch: SdnSwitch) -> None:
        """Take ownership of a switch (registers the packet-in handler)."""
        self._switches[switch.name] = switch
        switch.set_packet_in_handler(self._on_packet_in)

    def switch(self, name: str) -> SdnSwitch:
        try:
            return self._switches[name]
        except KeyError:
            raise ConfigurationError(f"controller does not manage {name!r}") from None

    @property
    def switch_names(self) -> list[str]:
        return sorted(self._switches)

    # -- rule management -------------------------------------------------------

    def install(
        self,
        switch_name: str,
        match: Match,
        actions: tuple[Action, ...],
        priority: int = 100,
        pvn_id: str = "",
        enforce_isolation: bool = True,
    ) -> FlowRule:
        """Push one rule; PVN rules must be owner-scoped.

        ``enforce_isolation`` implements §3.3: a rule installed on
        behalf of a PVN must match only that user's traffic, so its
        ``match.owner`` must equal the PVN's subscriber (stored in the
        pvn_id as ``user/deployment``) — otherwise the install is
        rejected.
        """
        if enforce_isolation and pvn_id:
            user = pvn_id.split("/")[0]
            if match.owner != user:
                raise IsolationError(
                    f"PVN {pvn_id} tried to install a rule matching "
                    f"owner={match.owner!r}; must be {user!r}"
                )
        rule = FlowRule(match=match, actions=actions, priority=priority,
                        pvn_id=pvn_id)
        switch = self.switch(switch_name)
        switch.table.install(rule)
        # Eager microflow-cache flush: a cached winner must never
        # shadow the rule just pushed.  (Direct table writes that
        # bypass the controller are still fenced lazily by the table's
        # generation counter.)
        switch.invalidate_cache(f"install rule {rule.rule_id}")
        self._installed.setdefault(pvn_id, []).append(
            InstalledRule(switch_name=switch_name, rule_id=rule.rule_id,
                          pvn_id=pvn_id)
        )
        return rule

    def remove_pvn(self, pvn_id: str) -> int:
        """Tear down every rule a PVN installed, across all switches."""
        removed = 0
        for switch in self._switches.values():
            count = switch.table.remove_pvn(pvn_id)
            if count:
                switch.invalidate_cache(f"remove_pvn {pvn_id}")
            removed += count
        self._installed.pop(pvn_id, None)
        return removed

    def rules_for_pvn(self, pvn_id: str) -> list[InstalledRule]:
        return list(self._installed.get(pvn_id, ()))

    # -- default forwarding ------------------------------------------------------

    def install_default_route(
        self, switch_name: str, dst_cidr: str, neighbor: str, priority: int = 1
    ) -> FlowRule:
        """A low-priority plain-forwarding rule (non-PVN baseline traffic)."""
        return self.install(
            switch_name,
            Match(dst_cidr=dst_cidr),
            (Output(neighbor),),
            priority=priority,
            pvn_id="",
        )

    def _on_packet_in(self, switch: SdnSwitch, packet: Packet) -> None:
        self.packet_ins += 1
        if self.default_drop:
            packet.mark_dropped(f"controller default-drop at {switch.name}")
