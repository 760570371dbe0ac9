"""SDN substrate: match/action flow tables, switches, controller."""

from repro.sdn.controller import Controller
from repro.sdn.switch import SdnSwitch

__all__ = [
    "Controller",
    "SdnSwitch",
]
