"""Simulated message bus with round and payload accounting.

Both coordinators route every inter-agent datum through a CommLog so that
communication rounds and float counts come from one place.  A round is one
synchronized exchange layer: all agents that speak in that layer share its
round number.  Floats are counted, not bytes.
"""
import logging
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

MESSAGE_KINDS = ("for_package", "setpoint", "achieved_setpoint",
                 "consensus_z")


class UnknownAgent(KeyError):
    """Sender or recipient was never registered."""


@dataclass(frozen=True)
class Message:
    from_agent: str
    to_agent: str
    round: int
    kind: str
    payload_floats: int

    def __post_init__(self):
        if self.round < 1:
            raise ValueError("round must be >= 1")
        if self.payload_floats < 0:
            raise ValueError("payload_floats must be >= 0")
        if self.kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")


@dataclass
class CommLog:
    """Append-only log owned by the coordinator."""

    agents: tuple
    messages: list = field(default_factory=list)
    round: int = 0

    def __post_init__(self):
        self.agents = tuple(self.agents)
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent ids")

    def begin_round(self) -> int:
        """Open the next exchange layer; subsequent sends carry its number."""
        self.round += 1
        return self.round

    def send(self, from_agent: str, to_agent: str, kind: str,
             payload_floats: int) -> Message:
        if from_agent not in self.agents:
            raise UnknownAgent(from_agent)
        if to_agent not in self.agents:
            raise UnknownAgent(to_agent)
        if self.round < 1:
            raise ValueError("send before any begin_round")
        msg = Message(from_agent, to_agent, self.round, kind,
                      int(payload_floats))
        self.messages.append(msg)
        return msg

    def stats(self) -> dict:
        rounds = max((m.round for m in self.messages), default=0)
        return {"rounds": rounds,
                "messages": len(self.messages),
                "total_floats": sum(m.payload_floats for m in self.messages)}
