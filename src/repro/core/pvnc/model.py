"""The Personal Virtual Network Configuration (PVNC) data model.

§3.1: "The PVNC specifies a virtual network, the policies that apply to
traffic [on] each link in the virtual topology, the locations of
software middleboxes that interpose on the traffic, and the code that
executes on that traffic."

Concretely a :class:`Pvnc` holds:

* ``modules`` — the middlebox modules the user wants, with parameters
  and provenance (builtin vs PVN Store),
* ``class_rules`` — the Fig. 1(a) virtual topology: per traffic class,
  an ordered module pipeline ending in a terminal (forward to the
  Internet, tunnel to a named endpoint, or drop),
* ``constraints`` — the hard/soft requirements and budget driving the
  §3.3 negotiation,
* a stable content digest used by attestations.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

from repro.errors import ConfigurationError
from repro.middleboxes.classifier import ALL_CLASSES

#: Terminal actions a class pipeline may end in.
TERMINAL_FORWARD = "forward"
TERMINAL_DROP = "drop"
TERMINAL_TUNNEL_PREFIX = "tunnel:"      # e.g. "tunnel:cloud"

SOURCE_BUILTIN = "builtin"
SOURCE_STORE = "store"

#: The key for the default (unclassified / unmatched) pipeline.
DEFAULT_CLASS = "default"


@dataclasses.dataclass(frozen=True)
class ModuleSpec:
    """One middlebox module the PVNC deploys."""

    service: str
    params: tuple[tuple[str, str], ...] = ()
    source: str = SOURCE_BUILTIN
    allow_physical_reuse: bool = False

    def __post_init__(self) -> None:
        if not self.service:
            raise ConfigurationError("module needs a service name")
        if self.source not in (SOURCE_BUILTIN, SOURCE_STORE):
            raise ConfigurationError(f"unknown module source {self.source!r}")

    def param(self, key: str, default: str = "") -> str:
        for name, value in self.params:
            if name == key:
                return value
        return default

    @classmethod
    def make(cls, service: str, source: str = SOURCE_BUILTIN,
             allow_physical_reuse: bool = False, **params: str) -> "ModuleSpec":
        return cls(
            service=service,
            params=tuple(sorted(params.items())),
            source=source,
            allow_physical_reuse=allow_physical_reuse,
        )


@dataclasses.dataclass(frozen=True)
class ClassRule:
    """The pipeline for one traffic class."""

    traffic_class: str
    pipeline: tuple[str, ...]      # service names, in order
    terminal: str = TERMINAL_FORWARD

    def __post_init__(self) -> None:
        valid = set(ALL_CLASSES) | {DEFAULT_CLASS}
        if self.traffic_class not in valid:
            raise ConfigurationError(
                f"unknown traffic class {self.traffic_class!r}; "
                f"expected one of {sorted(valid)}"
            )
        if not (
            self.terminal in (TERMINAL_FORWARD, TERMINAL_DROP)
            or self.terminal.startswith(TERMINAL_TUNNEL_PREFIX)
        ):
            raise ConfigurationError(f"bad terminal {self.terminal!r}")

    @property
    def tunnel_endpoint(self) -> str:
        if self.terminal.startswith(TERMINAL_TUNNEL_PREFIX):
            return self.terminal[len(TERMINAL_TUNNEL_PREFIX):]
        return ""


@dataclasses.dataclass(frozen=True)
class Constraints:
    """Negotiation inputs (§3.3 "soft and hard constraints")."""

    required_services: tuple[str, ...] = ()    # walk away without these
    preferred_services: tuple[str, ...] = ()   # droppable to meet budget
    max_price: float = float("inf")            # per-session budget
    max_added_latency: float = 0.010           # seconds of chain delay

    def __post_init__(self) -> None:
        if self.max_price < 0 or self.max_added_latency < 0:
            raise ConfigurationError("constraints must be non-negative")


@dataclasses.dataclass(frozen=True)
class ResourceEstimate:
    """What the discovery message advertises the PVN will need."""

    containers: int
    memory_bytes: int
    bandwidth_bps: float = 50e6


@dataclasses.dataclass(frozen=True)
class Pvnc:
    """A complete Personal Virtual Network Configuration."""

    user: str
    name: str
    modules: tuple[ModuleSpec, ...]
    class_rules: tuple[ClassRule, ...]
    constraints: Constraints = Constraints()

    def __post_init__(self) -> None:
        if not self.user or not self.name:
            raise ConfigurationError("PVNC needs a user and a name")
        seen_classes: set[str] = set()
        for rule in self.class_rules:
            if rule.traffic_class in seen_classes:
                raise ConfigurationError(
                    f"duplicate class rule for {rule.traffic_class!r}"
                )
            seen_classes.add(rule.traffic_class)

    # -- queries ----------------------------------------------------------

    def module(self, service: str) -> ModuleSpec | None:
        for spec in self.modules:
            if spec.service == service:
                return spec
        return None

    @property
    def services(self) -> tuple[str, ...]:
        return tuple(spec.service for spec in self.modules)

    def rule_for(self, traffic_class: str) -> ClassRule | None:
        for rule in self.class_rules:
            if rule.traffic_class == traffic_class:
                return rule
        for rule in self.class_rules:
            if rule.traffic_class == DEFAULT_CLASS:
                return rule
        return None

    def used_services(self) -> tuple[str, ...]:
        """Services actually referenced by some pipeline, in first-use order."""
        seen: dict[str, None] = {}
        for rule in self.class_rules:
            for service in rule.pipeline:
                seen.setdefault(service)
        return tuple(seen)

    def tunnel_endpoints(self) -> tuple[str, ...]:
        endpoints = {
            rule.tunnel_endpoint for rule in self.class_rules
            if rule.tunnel_endpoint
        }
        return tuple(sorted(endpoints))

    def without_services(self, dropped: set[str]) -> "Pvnc":
        """A reduced PVNC (the §3.1 subset counter-offer).

        Pipelines, module declarations, and constraint references are
        all trimmed consistently, so the result revalidates cleanly.
        Nothing dropped is this same frozen instance, digests and all:
        the provider then compiles the object the device compiled.
        """
        if not dropped:
            return self
        modules = tuple(m for m in self.modules if m.service not in dropped)
        rules = tuple(
            dataclasses.replace(
                rule,
                pipeline=tuple(s for s in rule.pipeline if s not in dropped),
            )
            for rule in self.class_rules
        )
        constraints = dataclasses.replace(
            self.constraints,
            required_services=tuple(
                s for s in self.constraints.required_services
                if s not in dropped
            ),
            preferred_services=tuple(
                s for s in self.constraints.preferred_services
                if s not in dropped
            ),
        )
        return dataclasses.replace(self, modules=modules, class_rules=rules,
                                   constraints=constraints)

    def for_user(self, user: str) -> "Pvnc":
        """This policy bound to ``user``.

        The copy shares this instance's modules, rules and constraints,
        and carries its :attr:`policy_digest`, which does not cover the
        user.  Any later ``dataclasses.replace`` builds a fresh
        instance, so a carried digest never outlives its policy.
        """
        bound = dataclasses.replace(self, user=user)
        bound.__dict__["policy_digest"] = self.policy_digest
        return bound

    # -- digest ------------------------------------------------------------

    def digest(self) -> bytes:
        """A stable content hash; attestations sign this."""
        return self._digest

    def _content(self) -> dict:
        """What both digests cover: the modules and the class rules."""
        return {
            "modules": [
                [m.service, list(m.params), m.source, m.allow_physical_reuse]
                for m in self.modules
            ],
            "rules": [
                [r.traffic_class, list(r.pipeline), r.terminal]
                for r in self.class_rules
            ],
        }

    @functools.cached_property
    def _digest(self) -> bytes:
        # Once per instance: the fields are frozen, and
        # ``dataclasses.replace`` builds a new instance (new digest).
        blob = json.dumps(
            {"user": self.user, "name": self.name, **self._content()},
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).digest()

    @functools.cached_property
    def policy_digest(self) -> bytes:
        """Content hash of everything but the user, constraints
        included: the compile cache's sharing key
        (:func:`~repro.core.pvnc.compiler.policy_digest`).  Once per
        instance, like the attestation digest."""
        constraints = self.constraints
        blob = json.dumps(
            {
                **self._content(),
                "constraints": [
                    list(constraints.required_services),
                    list(constraints.preferred_services),
                    constraints.max_price,
                    constraints.max_added_latency,
                ],
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).digest()
