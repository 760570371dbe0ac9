"""Configuration invariant checks.

§3.2: "PVNs will leverage existing techniques to prove that any given
network configuration is valid according to important invariants, thus
avoiding problems from configuration conflicts."  This module provides
those checks over a set of controller-managed switches:

* **loop freedom** — following ``Output`` actions for a probe packet
  never revisits a switch;
* **no blackholes** — every switch a probe reaches has a matching rule;
* **isolation** — every rule installed under a PVN id matches only that
  subscriber's traffic.
"""

from __future__ import annotations

import dataclasses

from repro.netsim.packet import Packet
from repro.sdn.actions import Output
from repro.sdn.controller import Controller


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of an invariant check."""

    ok: bool
    violations: tuple[str, ...] = ()


def _winning_rule(controller: Controller, switch_name: str, probe: Packet):
    switch = controller.switch(switch_name)
    for rule in switch.table.rules:
        if rule.match.matches(probe):
            return rule
    return None


def trace_forwarding(
    controller: Controller, start_switch: str, probe: Packet, max_hops: int = 64
) -> list[str]:
    """The switch-level path a probe would take (Output actions only).

    Stops at a Drop/ToChain action, a table miss, or a node the
    controller does not manage (assumed to be an egress).
    """
    path = [start_switch]
    current = start_switch
    for _ in range(max_hops):
        rule = _winning_rule(controller, current, probe)
        if rule is None:
            return path
        # Every action is terminal: only the first one decides.
        action = rule.actions[0]
        if not isinstance(action, Output):
            return path
        next_hop = action.neighbor
        path.append(next_hop)
        if next_hop not in controller.switch_names:
            return path
        current = next_hop
    return path


def check_loop_freedom(
    controller: Controller, probes: list[tuple[str, Packet]]
) -> VerificationReport:
    """No probe's forwarding trace revisits a switch."""
    violations = []
    for start, probe in probes:
        path = trace_forwarding(controller, start, probe)
        seen: set[str] = set()
        for node in path:
            if node in seen:
                violations.append(
                    f"loop through {node} for probe to {probe.dst} from {start}"
                )
                break
            seen.add(node)
    return VerificationReport(ok=not violations, violations=tuple(violations))


def check_no_blackholes(
    controller: Controller, probes: list[tuple[str, Packet]]
) -> VerificationReport:
    """Every probe either egresses, is chained/tunneled, or is
    explicitly dropped — never lost to a table miss."""
    violations = []
    for start, probe in probes:
        path = trace_forwarding(controller, start, probe)
        last = path[-1]
        if last not in controller.switch_names:
            continue  # egressed to a host/router: fine
        rule = _winning_rule(controller, last, probe)
        if rule is None:
            violations.append(
                f"blackhole at {last} for probe to {probe.dst} from {start}"
            )
    return VerificationReport(ok=not violations, violations=tuple(violations))


def check_isolation(controller: Controller) -> VerificationReport:
    """Every PVN-owned rule is scoped to its subscriber's traffic."""
    violations = []
    for switch_name in controller.switch_names:
        for rule in controller.switch(switch_name).table.rules:
            if not rule.pvn_id:
                continue
            user = rule.pvn_id.split("/")[0]
            if rule.match.owner != user:
                violations.append(
                    f"rule {rule.rule_id} on {switch_name} belongs to "
                    f"{rule.pvn_id} but matches owner={rule.match.owner!r}"
                )
    return VerificationReport(ok=not violations, violations=tuple(violations))


def verify_all(
    controller: Controller, probes: list[tuple[str, Packet]]
) -> VerificationReport:
    """Run every invariant; aggregate the violations."""
    reports = (
        check_loop_freedom(controller, probes),
        check_no_blackholes(controller, probes),
        check_isolation(controller),
    )
    violations = tuple(v for report in reports for v in report.violations)
    return VerificationReport(ok=not violations, violations=violations)
