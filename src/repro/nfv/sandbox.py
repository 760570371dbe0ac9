"""Sandboxing of user-supplied middlebox code.

§3.3 ("Avoiding harm from user configurations"): middleboxes run in
"secure sandboxes using a restricted development language", and "each
virtual network and its associated middleboxes can access only the
traffic generated by the user who configured it".

A :class:`Sandbox` wraps a middlebox and enforces:

* **traffic isolation** — packets whose ``owner`` differs from the
  sandbox owner never reach the module (a :class:`SandboxViolation` is
  raised, because the *platform* routed wrongly if this ever happens);
* **capability restriction** — the module may only return verdict
  kinds its granted capabilities allow (e.g. an observe-only module
  cannot drop traffic);
* **resource budgeting** — per-packet CPU charges against a budget;
  a module that exceeds it is killed (fails closed).
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import SandboxViolation
from repro.netsim.packet import Packet
from repro.nfv.middlebox import Middlebox, ProcessingContext, Verdict, VerdictKind


class Capability(enum.Flag):
    """What a sandboxed module is allowed to do."""

    OBSERVE = enum.auto()     # see packets, return PASS
    BLOCK = enum.auto()       # return DROP
    REWRITE = enum.auto()     # modify packets
    TUNNEL = enum.auto()      # redirect into tunnels

    # Combined values are cached singletons too, so the identity hash
    # agrees with ``==``; it keeps the per-packet ``_PERMITTED_KINDS``
    # lookup in C (see ``VerdictKind.__hash__``).
    __hash__ = object.__hash__

    @classmethod
    def all(cls) -> "Capability":
        return cls.OBSERVE | cls.BLOCK | cls.REWRITE | cls.TUNNEL


_REQUIRED_CAPABILITY = {
    VerdictKind.PASS: Capability.OBSERVE,
    VerdictKind.DROP: Capability.BLOCK,
    VerdictKind.REWRITE: Capability.REWRITE,
    VerdictKind.TUNNEL: Capability.TUNNEL,
}

#: The verdict kinds each capability set permits: one shared tuple per
#: ``Capability`` value, looked up from ``Sandbox.capabilities`` per
#: packet — so a grant assigned after construction governs the next
#: packet, and a sandbox allocates nothing for the check.
_PERMITTED_KINDS = {
    Capability(bits): tuple(
        kind for kind, required in _REQUIRED_CAPABILITY.items()
        if Capability(bits) & required
    )
    for bits in range(Capability.all().value + 1)
}

#: The fail-open verdicts, built once instead of per packet.
_KILLED = Verdict.passed(reason="sandbox killed; failing open to PASS")
_DENIED = Verdict.passed(reason="capability denied; coerced to PASS")


@dataclasses.dataclass(frozen=True)
class ResourceBudget:
    """CPU-seconds a module may consume before being killed."""

    cpu_seconds: float = 10.0
    per_packet_cpu: float = 20e-6

    def __post_init__(self) -> None:
        if self.cpu_seconds <= 0 or self.per_packet_cpu < 0:
            raise SandboxViolation("invalid resource budget")


#: The budget of every sandbox built without one (budgets are frozen,
#: so sharing one is safe).
DEFAULT_BUDGET = ResourceBudget()


class Sandbox:
    """A capability- and budget-enforcing wrapper around a middlebox.

    Slotted: an attach builds one per deployed service.
    """

    __slots__ = ("middlebox", "owner", "capabilities", "budget",
                 "cpu_used", "killed", "violations")

    def __init__(
        self,
        middlebox: Middlebox,
        owner: str,
        capabilities: Capability,
        budget: ResourceBudget | None = None,
    ) -> None:
        self.middlebox = middlebox
        self.owner = owner
        self.capabilities = capabilities
        self.budget = budget or DEFAULT_BUDGET
        self.cpu_used = 0.0
        self.killed = False
        self.violations: list[str] = []

    def process(self, packet: Packet, context: ProcessingContext) -> Verdict:
        """Run the module under enforcement.

        Returns the module's verdict when legal; raises
        :class:`SandboxViolation` on cross-user traffic; coerces
        un-permitted verdicts to PASS (and records the violation); and
        drops to PASS-through once killed.
        """
        if packet.owner != self.owner:
            self.violations.append(
                f"cross-user packet owner={packet.owner!r} reached "
                f"sandbox of {self.owner!r}"
            )
            raise SandboxViolation(self.violations[-1])

        if self.killed:
            return _KILLED

        self.cpu_used += self.budget.per_packet_cpu
        if self.cpu_used > self.budget.cpu_seconds:
            self.killed = True
            self.violations.append("cpu budget exhausted; module killed")
            return _KILLED

        verdict = self.middlebox.process(packet, context)
        if verdict.kind not in _PERMITTED_KINDS[self.capabilities]:
            required = _REQUIRED_CAPABILITY[verdict.kind]
            self.violations.append(
                f"module returned {verdict.kind.value} without "
                f"{required.name} capability"
            )
            return _DENIED
        return verdict
