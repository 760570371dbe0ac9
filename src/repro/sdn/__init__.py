"""SDN substrate: match/action flow tables, switches, controller."""

from repro.sdn.actions import Action, Drop, Output, ToChain
from repro.sdn.controller import Controller, InstalledRule
from repro.sdn.flowcache import CacheEntry, FlowCache
from repro.sdn.flowtable import FlowRule, FlowTable
from repro.sdn.match import MATCH_ANY, Match
from repro.sdn.routing import path_stretch, waypointed_path
from repro.sdn.switch import SdnSwitch
from repro.sdn.verification import (
    VerificationReport,
    check_isolation,
    check_loop_freedom,
    check_no_blackholes,
    trace_forwarding,
    verify_all,
)

__all__ = [
    "Action",
    "CacheEntry",
    "Controller",
    "Drop",
    "FlowCache",
    "FlowRule",
    "FlowTable",
    "InstalledRule",
    "MATCH_ANY",
    "Match",
    "Output",
    "SdnSwitch",
    "ToChain",
    "VerificationReport",
    "check_isolation",
    "check_loop_freedom",
    "check_no_blackholes",
    "path_stretch",
    "trace_forwarding",
    "verify_all",
    "waypointed_path",
]
