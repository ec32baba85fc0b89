"""Pluggable network transports.

Every layer above :class:`~repro.net.simulator.Network` — peers,
channels, resilience, the workload engine — talks to the network
through the same narrow surface: ``register``, ``send``, ``call_later``,
``now`` and ``run``.  This package extracts the part of that surface
that actually moves bytes and time into a :class:`Transport` seam, so
the exact same protocol code runs over either

* :class:`SimTransport` — the discrete-event engine the simulator has
  always used (virtual clock, heapq event loop, bit-identical to the
  pre-seam behaviour), or
* :class:`AsyncioTransport` — real length-prefixed JSON frames over
  localhost/LAN TCP sockets, one OS process per peer, with a seed-based
  address book, reconnect/backoff reusing
  :class:`~repro.resilience.retry.RetryPolicy`, and graceful
  join/leave.

The wire codec (:mod:`repro.transport.codec`) writes every
:class:`~repro.net.message.Message` payload kind — routing, channel
packets with binding batches, failure bounces — as a positional JSON
record derived from its dataclass's annotations, checking each field's
type on decode and ignoring positions past the last field so old peers
interop with newer ones.  Query patterns travel by reference: a schema
fingerprint the receiver resolves against the schemas its nodes hold,
and path patterns as records of the schema's term ids.
"""

from __future__ import annotations

from .base import Transport
from .framing import FrameReader, pack_frame
from .sim import SimTransport

# The codec and live transport import the protocol modules (peers,
# channels, resilience) which themselves import the network layer —
# and ``net.simulator`` imports this package for the seam.  Loading
# them lazily keeps the package import cycle-free.
_LAZY = {
    "AsyncioTransport": ("live", "AsyncioTransport"),
    "encode_payload": ("codec", "encode_payload"),
    "decode_payload": ("codec", "decode_payload"),
    "encode_message": ("codec", "encode_message"),
    "decode_message": ("codec", "decode_message"),
    "encode_frame": ("codec", "encode_frame"),
    "decode_frame": ("codec", "decode_frame"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), attr)


__all__ = [
    "Transport",
    "SimTransport",
    "AsyncioTransport",
    "FrameReader",
    "pack_frame",
    "encode_payload",
    "decode_payload",
    "encode_message",
    "decode_message",
    "encode_frame",
    "decode_frame",
]
