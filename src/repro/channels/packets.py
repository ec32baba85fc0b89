"""Channel packet payloads (paper Section 2.4).

Channels carry subplans from root to destination and, in the reverse
direction, one stream of data packets with query results — which also
carries failure notifications and the destination's statistics, as
ubQL prescribes — plus "changing plan" packets.  A channel is
everything one executor ships to one destination: exactly one
``SubPlanPacket`` out with every subplan bound for that peer, and one
stream of ``DataPacket``s back, whole tables packed while their rows
total at most ``batch_size`` (a lone subplan's answer is
``max(1, ⌈rows / batch_size⌉)`` packets).  Every payload provides
``size_bytes()`` so the simulator can charge bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.algebra import PlanNode, count_scans
from ..execution.batch import BindingBatch
from ..execution.encoded import EncodedTable
from ..rdf.dictionary import TermDictionary

#: Relative tree path inside a shipped subplan.
TreePath = Tuple[int, ...]


@dataclass(frozen=True)
class SubPlanPacket:
    """Root → destination: execute these (sub)plans, stream results back.

    Attributes:
        channel_id: The root-local channel identifier.
        plans: The plan subtrees the destination must execute; a
            subplan's position is its *output index* in the reply.
        sites: Execution sites for the subtrees' inner nodes, keyed by
            ``(output index, *tree path relative to that plan)``
            (shipped along so the destination honours the coordinator's
            shipping decisions).
        root_peer: The peer coordinating the whole query (for tracing).
        query_id: The query these subplans belong to.
    """

    channel_id: str
    plans: Tuple[PlanNode, ...]
    sites: Dict[TreePath, str] = field(default_factory=dict)
    root_peer: str = ""
    query_id: str = ""

    def size_bytes(self) -> int:
        scans = sum(count_scans(plan) for plan in self.plans)
        return 128 + 96 * scans + 16 * len(self.sites)


@dataclass(frozen=True)
class DataPacket:
    """Destination → root: a batch of result bindings.

    A packet is self-contained: each of its tables names every term its
    cells reference, so the root can intern it into its own id space
    whatever else of the stream has or has not arrived.

    Attributes:
        channel_id: The channel the data flows over.
        tables: ``(output index, bindings packed over their own
            terms)`` pairs, ascending by output — a whole table per
            output, or one slice of a table too large for one packet.
        final: True when no more packets will follow on this channel.
        failed_peer: When execution below the destination failed, the
            peer that caused it (the root replans; ubQL failure info).
        seq: Position of this packet in the channel's stream.  The root
            deduplicates on it, so duplicated or retransmitted packets
            never union the same rows twice.
        cardinalities: The destination's statement count per property
            of the subplans — the "statistics useful for query
            optimization" of Section 2.4, riding on the stream's first
            packet (``seq == 0``) only; a failure packet carries none.
    """

    channel_id: str
    tables: Tuple[Tuple[int, EncodedTable], ...] = ()
    final: bool = True
    failed_peer: Optional[str] = None
    seq: int = 0
    cardinalities: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def stream(
        cls,
        channel_id: str,
        tables: Sequence[BindingBatch],
        dictionary: TermDictionary,
        chunk: int,
        cardinalities: Optional[Dict[str, int]] = None,
    ) -> List["DataPacket"]:
        """One shipment's outputs — id tables in ``dictionary``'s space,
        by output index — as sequence-numbered packets of at most
        ``chunk`` rows: at least one, so the final marker and the
        ``cardinalities`` always have a carrier.  A table is split only
        when it outgrows a packet, never to fill one, and split tables
        go round-robin — every output's first slice, then every second
        one — so both sides of a pipelined join fill together.  Each
        slice is packed over its own terms (one ``decode`` per distinct
        id, never per cell), so every table is self-contained."""
        groups: List[List[Tuple[int, EncodedTable]]] = []
        for turn in zip_longest(*(table.split(chunk) for table in tables)):
            room = 0  # a packet never mixes two turns: pacing sends by turn
            for output, part in enumerate(turn):
                if part is None:
                    continue  # this output's table ended a turn ago
                if not groups or part.length > room:
                    groups.append([])
                    room = chunk
                room -= part.length
                groups[-1].append(
                    (output, EncodedTable.of_batch(part, dictionary.decode_many))
                )
        last = len(groups) - 1
        return [
            cls(
                channel_id,
                tuple(group),
                final=index == last,
                seq=index,
                cardinalities=(cardinalities or {}) if index == 0 else {},
            )
            for index, group in enumerate(groups)
        ]

    @property
    def rows(self) -> int:
        """Bindings carried."""
        return sum(table.length for _, table in self.tables)

    def size_bytes(self) -> int:
        # (an output index rides in its table's own header)
        tables = sum(table.size_bytes() for _, table in self.tables)
        return 64 + tables + 16 * len(self.cardinalities)


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
