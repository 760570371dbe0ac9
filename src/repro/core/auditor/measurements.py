"""Active measurement audits (§3.1, §3.3).

"To account for adversarial actions ... we propose using active
network measurements that reliably identify policy violations.  These
can include tests for service differentiation, content modification,
privacy exposure, inflated/short-circuited paths, and others."

Each test drives the provider through caller-supplied probes and
returns a :class:`MeasurementResult`.  The tests are deliberately
black-box: they assume nothing about the provider's internals, exactly
as a device auditing a foreign network must.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Callable

from repro.core.auditor.path_proof import ProofKeyring, path_proof_ok
from repro.errors import AuditError
from repro.netsim.packet import Packet

TEST_DIFFERENTIATION = "service_differentiation"
TEST_CONTENT_MODIFICATION = "content_modification"
TEST_PRIVACY_EXPOSURE = "privacy_exposure"
TEST_PATH_INFLATION = "path_inflation"
TEST_MIDDLEBOX_EXECUTION = "middlebox_execution"


@dataclasses.dataclass(frozen=True)
class MeasurementResult:
    """Outcome of one audit test."""

    test: str
    violated: bool
    detail: str
    samples: tuple[float, ...] = ()


def differentiation_test(
    measure_throughput: Callable[[str], float],
    trials: int = 5,
) -> MeasurementResult:
    """Glasnost-style [9] shaping detection.

    Runs paired transfers whose payloads differ only in apparent kind
    (``video``, and ``random``, which looks like noise).  If the video
    transfers' median throughput is below 0.7 of the reference's, the
    provider is differentiating.
    """
    if trials < 1:
        raise AuditError("differentiation test needs >= 1 trial")
    shaped = [measure_throughput("video") for _ in range(trials)]
    reference = [measure_throughput("random") for _ in range(trials)]
    shaped_median = statistics.median(shaped)
    reference_median = statistics.median(reference)
    if reference_median <= 0:
        raise AuditError("reference transfers produced zero throughput")
    ratio = shaped_median / reference_median
    return MeasurementResult(
        test=TEST_DIFFERENTIATION,
        violated=ratio < 0.7,
        detail=f"video vs random throughput ratio {ratio:.2f} (threshold 0.7)",
        samples=tuple(shaped + reference),
    )


def content_modification_test(
    fetch: Callable[[str], bytes],
    expected: dict[str, bytes],
) -> MeasurementResult:
    """Fetch objects with known digests through the provider and
    compare (the Tunneling-for-Transparency [7] methodology)."""
    import hashlib

    if not expected:
        raise AuditError("content test needs expected objects")
    modified = []
    for url, digest in sorted(expected.items()):
        body = fetch(url)
        if hashlib.sha256(body).digest() != digest:
            modified.append(url)
    return MeasurementResult(
        test=TEST_CONTENT_MODIFICATION,
        violated=bool(modified),
        detail=(f"{len(modified)}/{len(expected)} objects modified in "
                f"flight: {modified}" if modified else
                f"all {len(expected)} objects intact"),
    )


def privacy_exposure_test(
    send_canary: Callable[[bytes], bytes],
    canary: bytes,
    policy_scrubs: bool,
) -> MeasurementResult:
    """Send a unique canary PII value through the PVN toward an
    attacker-observable sink and check the deployed privacy policy was
    actually applied."""
    if not canary:
        raise AuditError("canary must be non-empty")
    observed = send_canary(canary)
    leaked = canary in observed
    violated = leaked if policy_scrubs else False
    return MeasurementResult(
        test=TEST_PRIVACY_EXPOSURE,
        violated=violated,
        detail=("canary leaked despite scrub policy" if violated
                else "canary handled according to policy"),
    )


def path_inflation_test(
    measure_rtt: Callable[[], float],
    expected_rtt: float,
    trials: int = 5,
) -> MeasurementResult:
    """Compare measured RTT against what the offered virtual topology
    implies (Zarifis et al. [45] path-inflation methodology)."""
    if expected_rtt <= 0:
        raise AuditError("expected RTT must be positive")
    samples = sorted(measure_rtt() for _ in range(trials))
    measured = statistics.median(samples)
    inflation = measured / expected_rtt
    return MeasurementResult(
        test=TEST_PATH_INFLATION,
        violated=inflation > 1.5,
        detail=(f"median RTT {measured * 1000:.1f}ms vs expected "
                f"{expected_rtt * 1000:.1f}ms (x{inflation:.2f}, "
                "tolerance x1.5)"),
        samples=tuple(samples),
    )


def middlebox_execution_test(
    send_probe: Callable[[], Packet],
    keyring: ProofKeyring,
    required_waypoints: list[str],
    trials: int = 3,
) -> MeasurementResult:
    """Route probe packets through the PVN and verify their path
    proofs show every required middlebox actually executed."""
    failures = 0
    for _ in range(trials):
        probe = send_probe()
        if not path_proof_ok(probe, keyring, required_waypoints):
            failures += 1
    return MeasurementResult(
        test=TEST_MIDDLEBOX_EXECUTION,
        violated=failures > 0,
        detail=(f"{failures}/{trials} probes missing valid proofs for "
                f"waypoints {required_waypoints}"),
    )
