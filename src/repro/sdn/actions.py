"""Flow-rule actions.

The action vocabulary is the OpenFlow-ish subset the controllers
install: forward, drop, or hand the packet to a middlebox chain.  Every
action ends local processing, so a switch runs only the first action
of a rule (a chain decides what happens next).
"""

from __future__ import annotations

import dataclasses


class Action:
    """Marker base class for actions."""


@dataclasses.dataclass(frozen=True)
class Output(Action):
    """Forward out of the link toward ``neighbor``."""

    neighbor: str


@dataclasses.dataclass(frozen=True)
class Drop(Action):
    """Drop the packet with an auditable reason."""

    reason: str = "policy"


@dataclasses.dataclass(frozen=True)
class ToChain(Action):
    """Divert the packet into middlebox chain ``chain_id``.

    ``resume_neighbor`` is where the packet continues if the chain
    passes it (empty string = the chain executor decides).
    """

    chain_id: str
    resume_neighbor: str = ""
