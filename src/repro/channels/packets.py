"""Channel packet payloads (paper Section 2.4).

Channels carry subplans from root to destination and, in the reverse
direction, one stream of data packets with query results — which also
carries failure notifications and the destination's statistics, as
ubQL prescribes — plus "changing plan" packets.  A channel is
everything one executor ships to one destination: exactly one
``SubPlanPacket`` out with every subplan bound for that peer and the
columns its root reads of each, and one stream of ``DataPacket``s
back — those columns only, distinct rows, whole tables packed while
their rows total at most ``batch_size`` (a lone subplan's answer is
``max(1, ⌈rows / batch_size⌉)`` packets).  Every payload provides
``size_bytes()`` so the simulator can charge bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.algebra import PlanNode, count_scans
from ..execution.batch import BindingBatch, distinct_union
from ..execution.encoded import EncodedTable
from ..rdf.dictionary import TermDictionary
from ..rdf.schema import Schema
from ..rdf.terms import Term
from ..rql.bindings import table_size_bytes, terms_size_bytes

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
        columns: Empty, or the header the root reads of each output, by
            output index: the destination returns those columns only,
            without duplicate rows (``None`` keeps the raw width).
        retransmits: The root retransmits on silence (a retry policy):
            only then does the destination keep its answer to replay.
        schema: The community schema the subplans' path patterns are
            in, which a live link names by fingerprint (``None``: the
            patterns cross with their URIs written whole).
    """

    channel_id: str
    plans: Tuple[PlanNode, ...]
    sites: Dict[TreePath, str] = field(default_factory=dict)
    root_peer: str = ""
    query_id: str = ""
    columns: Tuple[Optional[Tuple[str, ...]], ...] = ()
    retransmits: bool = False
    schema: Optional[Schema] = field(default=None, compare=False, repr=False)

    def size_bytes(self) -> int:
        scans = sum(map(count_scans, self.plans))
        # a requested header is charged as a table's header is
        asked = sum(table_size_bytes(h, 0, ()) for h in self.columns if h is not None)
        return 128 + 96 * scans + 16 * len(self.sites) + asked

    def validate(self) -> None:
        """Raise ``ValueError`` unless a root could have sent this: at
        least one subplan, every site keyed under an output the packet
        carries, and no header or one per subplan, naming distinct
        columns that subplan binds (the codec runs it on every packet
        it decodes)."""
        carried = len(self.plans)
        if not carried:
            raise ValueError("a SubPlanPacket carries at least one subplan")
        for path in self.sites:
            if not path or not 0 <= path[0] < carried:
                raise ValueError(f"site {path!r} is under none of {carried} outputs")
        if len(self.columns) not in (0, carried):
            raise ValueError(f"{len(self.columns)} headers for {carried} subplans")
        for plan, header in zip(self.plans, self.columns):
            if header is not None:
                bound = plan.variables()
                if len(set(header)) != len(header) or any(c not in bound for c in header):
                    raise ValueError(f"{header!r} asks for columns {bound!r} does not bind")


@dataclass(frozen=True)
class DataPacket:
    """Destination → root: a batch of result bindings.

    A packet is self-contained: its tables share one term list
    (:attr:`terms`; tables packed apart are renumbered over their
    merged terms) naming every term their cells reference, once, so the
    root can intern it whatever else of the stream has arrived.

    Attributes:
        channel_id: The channel the data flows over.
        tables: ``(output index, bindings packed over the packet's
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

    def __post_init__(self) -> None:
        tables = self.tables
        if len(tables) > 1:
            terms = tables[0][1].terms
            if any(t.terms is not terms and t.terms != terms for _, t in tables):
                batches = [t.over(t.terms) for _, t in tables]
                packed = EncodedTable.of_batches(batches, tuple)
                merged = tuple(zip((output for output, _ in tables), packed))
                object.__setattr__(self, "tables", merged)

    @classmethod
    def stream(
        cls,
        channel_id: str,
        tables: Sequence[BindingBatch],
        dictionary: TermDictionary,
        chunk: int,
        cardinalities: Optional[Dict[str, int]] = None,
        columns: Sequence[Optional[Tuple[str, ...]]] = (),
    ) -> List["DataPacket"]:
        """One shipment's outputs — id tables in ``dictionary``'s space,
        by output index — as sequence-numbered packets of at most
        ``chunk`` rows: at least one, so the final marker and the
        ``cardinalities`` always have a carrier.  A table is split only
        when it outgrows a packet, never to fill one, and split tables
        go round-robin — every output's first slice, then every second
        one — so both sides of a pipelined join fill together.  A table
        wider than the header its root asked for (``columns``, one per
        output, ``None`` keeping it) — a hosted scan's raw rows — is cut
        to it and de-duplicated first, in one pass.  A packet's tables
        share one term list (one ``decode`` per distinct id)."""
        if columns:
            tables = [
                table if header is None or len(header) == len(table.columns)
                else distinct_union([table], header)
                for table, header in zip(tables, columns)
            ]
        # each packet's (output indices, tables)
        groups: List[Tuple[List[int], List[BindingBatch]]] = []
        if tables and sum(table.length for table in tables) <= chunk:
            groups.append((range(len(tables)), tables))  # one turn, one packet
        else:
            for turn in zip_longest(*(table.split(chunk) for table in tables)):
                room = 0  # a packet never mixes two turns: pacing sends by turn
                for output, part in enumerate(turn):
                    if part is None:
                        continue  # this output's table ended a turn ago
                    if not groups or part.length > room:
                        groups.append(([], []))
                        room = chunk
                    room -= part.length
                    groups[-1][0].append(output)
                    groups[-1][1].append(part)
        last = len(groups) - 1
        resolve = dictionary.decode_many
        packets = []
        for index, (outputs, parts) in enumerate(groups):
            packed, size = EncodedTable.pack(parts, resolve)
            counts = (cardinalities or {}) if index == 0 else {}
            packet = cls(
                channel_id, tuple(zip(outputs, packed)), index == last, None, index,
                counts,
            )
            # the packing pass measured the packet: seed size_bytes' memo
            vars(packet)["_size"] = 64 + size + 16 * len(counts)
            packets.append(packet)
        return packets

    @property
    def terms(self) -> Tuple[Term, ...]:
        """The packet's one term list, which every table indexes."""
        return self.tables[0][1].terms if self.tables else ()

    @property
    def rows(self) -> int:
        """Bindings carried."""
        return sum(table.length for _, table in self.tables)

    def size_bytes(self) -> int:
        return self._size

    @cached_property
    def _size(self) -> int:
        """The modelled size, worked out once (:meth:`stream` fills it
        in as it packs): each table's header and cells (its output
        index rides in the header), then the packet's one term list."""
        tables = sum(
            table_size_bytes(t.columns, len(t.columns) * t.length, ())
            for _, t in self.tables
        )
        return 64 + tables + terms_size_bytes(self.terms) + 16 * len(self.cardinalities)

    def validate(self) -> None:
        """Raise ``ValueError`` unless each output index is non-negative
        (a negative one would alias an output from the end) and appears
        at most once; how many outputs the channel has only its root
        knows, and checks (the codec runs it on every packet it
        decodes)."""
        outputs = [output for output, _ in self.tables]
        if any(output < 0 for output in outputs) or len(set(outputs)) != len(outputs):
            raise ValueError(f"{outputs!r} are not distinct output indices")


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
