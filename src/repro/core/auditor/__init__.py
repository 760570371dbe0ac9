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
    HOPS_KEY,
    PROOF_KEY,
    ProofKeyring,
    ProofStamp,
    make_keyring,
    path_proof_ok,
    proof_chain,
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
    "HOPS_KEY",
    "MeasurementResult",
    "PROOF_KEY",
    "ProofKeyring",
    "ProofStamp",
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
    "privacy_exposure_test",
    "proof_chain",
    "verify_path",
]
