"""Synthetic workloads, app models, adversaries, and device cost models."""

from repro.workloads.adversary import Eavesdropper
from repro.workloads.apps import IotSensor, LeakyApp
from repro.workloads.pii import synth_user

__all__ = [
    "Eavesdropper",
    "IotSensor",
    "LeakyApp",
    "synth_user",
]
