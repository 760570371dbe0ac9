"""The PVN auditor: attestation, path proofs, active measurements,
violation evidence, and provider reputation (§3.1, §3.3)."""

from repro.core.auditor.violations import file_dispute

__all__ = [
    "file_dispute",
]
