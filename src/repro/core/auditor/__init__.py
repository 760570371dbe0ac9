"""The PVN auditor: attestation, path proofs, active measurements,
violation evidence, and provider reputation (§3.1, §3.3)."""

from repro.core.auditor.attestation import (
    Attestation,
    AttestationVerifier,
    TrustedPlatform,
)
from repro.core.auditor.measurements import (
    MeasurementResult,
    TEST_CONTENT_MODIFICATION,
    TEST_DIFFERENTIATION,
    TEST_MIDDLEBOX_EXECUTION,
    TEST_PATH_INFLATION,
    TEST_PRIVACY_EXPOSURE,
    content_modification_test,
    differentiation_test,
    middlebox_execution_test,
    path_inflation_test,
    privacy_exposure_test,
)
from repro.core.auditor.path_proof import (
    PROOF_KEY,
    ProofKeyring,
    make_keyring,
    path_proof_ok,
    stamp_keyed,
    verify_path,
)
from repro.core.auditor.reputation import (
    ProviderRecord,
    ReputationSystem,
    choose_provider,
)
from repro.core.auditor.violations import (
    BillingDispute,
    EvidenceLedger,
    ViolationRecord,
    file_dispute,
)

__all__ = [
    "Attestation",
    "AttestationVerifier",
    "BillingDispute",
    "EvidenceLedger",
    "MeasurementResult",
    "PROOF_KEY",
    "ProofKeyring",
    "ProviderRecord",
    "ReputationSystem",
    "TEST_CONTENT_MODIFICATION",
    "TEST_DIFFERENTIATION",
    "TEST_MIDDLEBOX_EXECUTION",
    "TEST_PATH_INFLATION",
    "TEST_PRIVACY_EXPOSURE",
    "TrustedPlatform",
    "ViolationRecord",
    "choose_provider",
    "content_modification_test",
    "differentiation_test",
    "file_dispute",
    "make_keyring",
    "middlebox_execution_test",
    "path_inflation_test",
    "path_proof_ok",
    "stamp_keyed",
    "privacy_exposure_test",
    "verify_path",
]
