"""PVNC validation.

Run before compilation and again provider-side before deployment
(§3.2: PVNs "prove that any given network configuration is valid
according to important invariants, thus avoiding problems from
configuration conflicts").

Checks:

* every pipeline stage references a declared module;
* every declared builtin module has a known implementation;
* constraints reference declared modules, and required/preferred sets
  do not overlap;
* tunnel terminals name an endpoint;
* modules are not declared twice;
* the estimated chain latency fits the user's ``max_added_latency``.
"""

from __future__ import annotations

from repro.core.pvnc.model import Pvnc, SOURCE_BUILTIN
from repro.errors import ConfigurationError


def validate_pvnc(
    pvnc: Pvnc,
    known_builtin_services: set[str],
    store_services: set[str] | None = None,
) -> list[str]:
    """Return a list of human-readable problems (empty = valid)."""
    problems: list[str] = []
    store_services = store_services or set()
    declared = {spec.service for spec in pvnc.modules}

    seen: set[str] = set()
    for spec in pvnc.modules:
        if spec.service in seen:
            problems.append(f"module {spec.service!r} declared twice")
        seen.add(spec.service)
        if spec.source == SOURCE_BUILTIN:
            if spec.service not in known_builtin_services:
                problems.append(
                    f"unknown builtin module {spec.service!r}"
                )
        elif spec.service not in store_services:
            problems.append(
                f"store module {spec.service!r} not found in the PVN Store"
            )

    for rule in pvnc.class_rules:
        for service in rule.pipeline:
            if service not in declared:
                problems.append(
                    f"class {rule.traffic_class!r} uses undeclared module "
                    f"{service!r}"
                )
        if rule.terminal.startswith("tunnel:") and not rule.tunnel_endpoint:
            problems.append(
                f"class {rule.traffic_class!r} tunnels to an empty endpoint"
            )

    for service in pvnc.constraints.required_services:
        if service not in declared:
            problems.append(f"required module {service!r} not declared")
    for service in pvnc.constraints.preferred_services:
        if service not in declared:
            problems.append(f"preferred module {service!r} not declared")
    overlap = set(pvnc.constraints.required_services) & set(
        pvnc.constraints.preferred_services
    )
    if overlap:
        problems.append(
            f"modules both required and preferred: {sorted(overlap)}"
        )

    longest = max(
        (len(rule.pipeline) for rule in pvnc.class_rules), default=0
    )
    # 45 us per module, +1 module for the classifier.
    worst_delay = (longest + 1) * 45e-6
    if worst_delay > pvnc.constraints.max_added_latency:
        problems.append(
            f"worst-case chain delay {worst_delay * 1e6:.0f}us exceeds "
            f"max-latency {pvnc.constraints.max_added_latency * 1e6:.0f}us"
        )
    return problems


def ensure_valid(
    pvnc: Pvnc,
    known_builtin_services: set[str],
    store_services: set[str] | None = None,
) -> None:
    """Raise :class:`ConfigurationError` listing every problem found."""
    problems = validate_pvnc(pvnc, known_builtin_services, store_services)
    if problems:
        raise ConfigurationError(
            "invalid PVNC:\n  " + "\n  ".join(problems)
        )
