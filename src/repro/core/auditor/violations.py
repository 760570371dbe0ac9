"""Violation evidence (§3.1).

"Observed violations in either configurations or policies can be used
as evidence in billing disputes, and to inform reputations for PVN
providers."

The :class:`EvidenceLedger` is the device-side append-only record of
audit outcomes; :func:`file_dispute` turns a provider's violations into
a billing-dispute document.
"""

from __future__ import annotations

import dataclasses

from repro.core.auditor.measurements import MeasurementResult


@dataclasses.dataclass(frozen=True)
class ViolationRecord:
    """One piece of evidence against a provider.

    ``evidence_spans`` (optional) is the observed span path backing
    the verdict — e.g. the per-hop middlebox spans the datapath
    synthesized from the audit probes, as ``"name@sim_time"`` strings.
    It corroborates the cryptographic path proof with the trace the
    auditor actually saw.
    """

    time: float
    provider: str
    deployment_id: str
    test: str
    detail: str
    evidence_spans: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class BillingDispute:
    """A dispute document assembled from ledger evidence."""

    provider: str
    deployment_id: str
    amount_disputed: float
    violations: tuple[ViolationRecord, ...]

    @property
    def summary(self) -> str:
        kinds = sorted({v.test for v in self.violations})
        return (f"dispute {self.amount_disputed:.2f} against "
                f"{self.provider} ({len(self.violations)} violations: "
                f"{', '.join(kinds)})")


class EvidenceLedger:
    """Append-only audit evidence with per-provider queries."""

    def __init__(self) -> None:
        self._records: list[ViolationRecord] = []

    def record_result(
        self,
        result: MeasurementResult,
        provider: str,
        deployment_id: str,
        now: float,
        evidence_spans: tuple[str, ...] = (),
    ) -> ViolationRecord | None:
        """Fold one measurement in; returns the record when violated."""
        if not result.violated:
            return None
        record = ViolationRecord(
            time=now, provider=provider, deployment_id=deployment_id,
            test=result.test, detail=result.detail,
            evidence_spans=tuple(evidence_spans),
        )
        self._records.append(record)
        return record

    def record_fault(
        self,
        time: float,
        provider: str,
        deployment_id: str,
        kind: str,
        detail: str,
    ) -> ViolationRecord:
        """Append fault/repair/degradation evidence (§3.1).

        Faults are service events, not policy violations, but they are
        evidence all the same: a provider whose middleboxes crash is
        accountable for the outage history when billing is disputed.
        They are stored with ``test="fault:<kind>"`` so violation
        queries can keep the two apart.
        """
        record = ViolationRecord(
            time=time, provider=provider, deployment_id=deployment_id,
            test=f"fault:{kind}", detail=detail,
        )
        self._records.append(record)
        return record

    def violations_for(self, provider: str) -> list[ViolationRecord]:
        return [
            r for r in self._records
            if r.provider == provider and not r.test.startswith("fault:")
        ]

    def fault_records(self, provider: str | None = None) -> list[ViolationRecord]:
        """Fault/repair/degradation evidence, optionally per provider."""
        return [
            r for r in self._records
            if r.test.startswith("fault:")
            and (provider is None or r.provider == provider)
        ]


def file_dispute(
    ledger: EvidenceLedger,
    provider: str,
    deployment_id: str,
    amount_paid: float,
) -> BillingDispute | None:
    """A dispute for the amount paid, or None with no evidence."""
    violations = tuple(
        r for r in ledger.violations_for(provider)
        if r.deployment_id == deployment_id
    )
    if not violations:
        return None
    return BillingDispute(
        provider=provider,
        deployment_id=deployment_id,
        amount_disputed=amount_paid,
        violations=violations,
    )
