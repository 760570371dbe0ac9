"""Exception hierarchy for the PVN reproduction.

Every package raises subclasses of :class:`ReproError` so callers can
catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class SchedulingInPastError(SimulationError):
    """An event was scheduled before the current simulation time."""


class ProtocolError(ReproError):
    """A protocol message was malformed or arrived in the wrong state."""


class AddressError(ProtocolError):
    """An IPv4/MAC address or subnet string could not be parsed."""


class ConfigurationError(ReproError):
    """A PVNC or component configuration is invalid."""


class CompilationError(ConfigurationError):
    """A PVNC could not be compiled to flow rules and placements."""


class NegotiationError(ReproError):
    """Discovery/negotiation failed to produce an acceptable offer."""


class DeploymentError(ReproError):
    """The provider could not install a PVN deployment."""


class AdmissionError(DeploymentError):
    """The provider lacks resources to admit the requested PVN."""


class EmbeddingError(DeploymentError):
    """No feasible embedding of the virtual topology exists."""


class IsolationError(DeploymentError):
    """A deployment would (or did) violate per-user isolation."""


class MigrationError(DeploymentError):
    """A stateful migration transaction was misused or interrupted."""


class AttestationError(ReproError):
    """An attestation was missing, malformed, or failed verification."""


class AuditError(ReproError):
    """An audit measurement could not be carried out."""


class TunnelError(ReproError):
    """Tunnel establishment or use failed."""


class StoreError(ReproError):
    """A PVN Store operation failed (unknown module, bad signature...)."""


class ModuleSignatureError(StoreError):
    """A store module's signature did not verify."""


class SandboxViolation(ReproError):
    """A middlebox attempted an operation its sandbox forbids."""


class CapacityError(ReproError):
    """An NFV host has insufficient capacity for a container."""
