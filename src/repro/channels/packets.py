"""Channel packet payloads (paper Section 2.4).

Channels carry subplans from root to destination and, in the reverse
direction, one stream of data packets with query results — which also
carries failure notifications and the destination's statistics, as
ubQL prescribes — plus "changing plan" packets.  A channel is exactly
one ``SubPlanPacket`` out and ``max(1, ⌈rows / batch_size⌉)``
``DataPacket``s back.  Every payload provides ``size_bytes()`` so the
simulator can charge bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.algebra import PlanNode, count_scans
from ..execution.batch import BindingBatch
from ..execution.encoded import EncodedTable
from ..rdf.dictionary import TermDictionary

#: Relative tree path inside a shipped subplan.
TreePath = Tuple[int, ...]


@dataclass(frozen=True)
class SubPlanPacket:
    """Root → destination: execute this (sub)plan and stream results back.

    Attributes:
        channel_id: The root-local channel identifier.
        plan: The plan subtree the destination must execute.
        sites: Execution sites for the subtree's inner nodes, keyed by
            tree path relative to ``plan`` (shipped along so the
            destination honours the coordinator's shipping decisions).
        root_peer: The peer coordinating the whole query (for tracing).
        query_id: The query this subplan belongs to.
    """

    channel_id: str
    plan: PlanNode
    sites: Dict[TreePath, str] = field(default_factory=dict)
    root_peer: str = ""
    query_id: str = ""

    def size_bytes(self) -> int:
        return 128 + 96 * count_scans(self.plan) + 16 * len(self.sites)


@dataclass(frozen=True)
class DataPacket:
    """Destination → root: a batch of result bindings.

    A packet is self-contained: its table names every term its cells
    reference, so the root can intern it into its own id space whatever
    else of the stream has or has not arrived.

    Attributes:
        channel_id: The channel the data flows over.
        table: The bindings, packed over their own terms.
        final: True when no more packets will follow on this channel.
        failed_peer: When execution below the destination failed, the
            peer that caused it (the root replans; ubQL failure info).
        seq: Position of this packet in the channel's stream.  The root
            deduplicates on it, so duplicated or retransmitted packets
            never union the same rows twice.
        cardinalities: The destination's statement count per property
            of the subplan — the "statistics useful for query
            optimization" of Section 2.4, riding on the stream's first
            packet (``seq == 0``) only; a failure packet carries none.
    """

    channel_id: str
    table: EncodedTable
    final: bool = True
    failed_peer: Optional[str] = None
    seq: int = 0
    cardinalities: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def stream(
        cls,
        channel_id: str,
        table: BindingBatch,
        dictionary: TermDictionary,
        chunk: int,
        cardinalities: Optional[Dict[str, int]] = None,
    ) -> List["DataPacket"]:
        """An id table in ``dictionary``'s space as sequence-numbered
        packets of at most ``chunk`` rows — at least one, so the final
        marker and the ``cardinalities`` always have a carrier.  Each
        slice is packed over its own terms (one ``decode`` per distinct
        id, never per cell), so every packet is self-contained."""
        parts = [
            EncodedTable.of_batch(part, dictionary.decode_many)
            for part in table.split(chunk)
        ]
        last = len(parts) - 1
        return [
            cls(
                channel_id,
                part,
                final=index == last,
                seq=index,
                cardinalities=(cardinalities or {}) if index == 0 else {},
            )
            for index, part in enumerate(parts)
        ]

    @property
    def rows(self) -> int:
        """Bindings carried."""
        return self.table.length

    def size_bytes(self) -> int:
        return 64 + self.table.size_bytes() + 16 * len(self.cardinalities)


@dataclass(frozen=True)
class ChangePlanPacket:
    """Root → destination: the plan for this channel changed.

    Under the ubQL policy SQPeer adopts, the destination discards
    intermediate results and terminates on-going computation for the
    channel.
    """

    channel_id: str
    reason: str = ""

    def size_bytes(self) -> int:
        return 96 + len(self.reason)
