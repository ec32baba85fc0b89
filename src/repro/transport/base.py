"""The transport seam under :class:`~repro.net.simulator.Network`.

A transport owns the two things a network substrate must provide — a
clock and a way to move a message toward a destination the local
process does not host — and nothing else.  Link modelling, metering,
fault injection and peer liveness stay in ``Network``; protocol code
above it is transport-agnostic.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import Callable, Optional


def _deliver(network: weakref.ref, remote: bool, message) -> None:
    """A scheduled delivery: hand ``message`` to the network, if it is
    still there."""
    owner = network()
    if owner is not None:
        (owner.deliver_remote if remote else owner.deliver)(message)


class Transport:
    """Abstract transport under a :class:`~repro.net.simulator.Network`.

    Attributes:
        kind: Short identifier surfaced in diagnostics and metrics
            labels (``"sim"``, ``"asyncio"``).
    """

    kind: str = "abstract"
    _network: Optional[weakref.ref] = None

    def bind(self, network) -> None:
        """Attach the owning network (called once, from ``Network``)."""
        self._network = weakref.ref(network)

    @property
    def network(self):
        """The owning network, held weakly (it owns this transport);
        None before :meth:`bind` and once that network is gone."""
        ref = self._network
        return None if ref is None else ref()

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """The transport's clock, in virtual-time units."""
        raise NotImplementedError

    # -- scheduling ----------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` virtual-time units."""
        raise NotImplementedError

    def schedule_delivery(self, delay: float, message, remote: bool = False) -> None:
        """Deliver ``message`` through the owning network after
        ``delay`` (``remote``: as a frame from the wire).  What waits
        in the queue is the message and a weak reference to the
        network, so a message in flight never keeps its network alive."""
        self.schedule(delay, partial(_deliver, self._network, remote, message))

    # -- remote addressing ---------------------------------------------
    def routes(self, dst: str) -> bool:
        """True when ``dst`` is reachable beyond the local process."""
        return False

    def transmit_remote(self, message) -> None:
        """Hand a message addressed beyond the local process to the
        wire.  Delivery failures must come back through
        ``network.bounce_remote(message)`` — the live analogue of the
        simulator's omniscient :class:`~repro.net.message.DeliveryFailure`
        bounces."""
        raise NotImplementedError

    # -- event loop ----------------------------------------------------
    def run(self, max_events: int, until: Optional[float]) -> int:
        """Drive the transport's event loop (semantics per transport)."""
        raise NotImplementedError

    def pending_events(self) -> int:
        return 0

    def on_register(self, node) -> None:
        """A node joined the local network (live transports announce it
        to the address book)."""

    def diagnostics_extra(self) -> dict:
        """Transport-specific keys merged into
        :meth:`~repro.net.simulator.Network.diagnostics` — e.g. open
        socket counts for live runs."""
        return {}
