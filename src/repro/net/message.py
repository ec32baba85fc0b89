"""Message envelopes for the simulated P2P network.

A :class:`Message` wraps a typed payload (defined in
:mod:`repro.peers.protocol`) with source/destination addressing and a
wire-size estimate the simulator charges against link bandwidth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

#: Fallback wire size for control payloads without a size method.
DEFAULT_MESSAGE_BYTES = 256

_sequence = itertools.count(1)


def payload_kind(payload: Any) -> str:
    """A short name for metric bucketing (the payload class name)."""
    return type(payload).__name__


def payload_size(payload: Any) -> int:
    """Wire-size estimate: the payload's ``size_bytes()`` if provided."""
    size_fn = getattr(payload, "size_bytes", None)
    if callable(size_fn):
        return int(size_fn())
    return DEFAULT_MESSAGE_BYTES


class Message:
    """One network message.

    Attributes:
        src: Sending peer id.
        dst: Destination peer id.
        payload: The typed protocol payload.
        size: Wire size in bytes (defaults to the payload estimate).
        id: Monotonic id, unique per process, for tracing.
        trace: Optional :class:`~repro.obs.span.TraceContext` carried
            with the message, so spans opened at the receiver stitch
            under the sender's span (distributed tracing,
            ``repro.obs``).  ``None`` — and no trace position in the
            real frame — unless the message belongs to a sampled query
            (``repro.obs.tracer.sampled``).  Like :attr:`id` it is simulator metadata:
            its ~50 bytes are *not* charged against link bandwidth, so
            enabling tracing never perturbs the experiments' byte and
            virtual-time numbers.
    """

    __slots__ = ("src", "dst", "payload", "size", "id", "trace")

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Any,
        size: Optional[int] = None,
        trace=None,
    ):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = payload_size(payload) if size is None else size
        self.trace = trace
        self.id = next(_sequence)

    @property
    def kind(self) -> str:
        return payload_kind(self.payload)

    def __repr__(self) -> str:
        return f"Message#{self.id}({self.src} -> {self.dst}: {self.kind}, {self.size}B)"


@dataclass(frozen=True)
class DeliveryFailure:
    """Transport-level failure notification, delivered to the sender
    when the destination peer is down or unreachable.

    This stands in for what a TCP reset / ubQL channel failure event
    gives the channel's root node in a real deployment, letting the
    adaptivity logic react without modelling timeouts.
    """

    original: Message

    def size_bytes(self) -> int:
        return 64

    def __repr__(self) -> str:
        return f"DeliveryFailure({self.original!r})"
