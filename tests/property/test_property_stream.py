"""A shipment's reply packets follow the documented rule exactly.

:meth:`DataPacket.stream` packs a hosted shipment's outputs and works
out each packet's modelled size in the same pass.  The reference below
is the rule as ``repro.channels.packets`` documents it, built step by
step: each table cut to its root's header with duplicates dropped
(first occurrences kept); split into slices of at most ``chunk`` rows
(at least one); slices sent round-robin, every output's first slice,
then every second one; consecutive slices of one turn sharing a packet
while their rows fit ``chunk``; every packet's tables over one term
list, numbered in first use; the final marker on the last packet and
the cardinalities on the first.  For generated id tables and headers
the two must agree in every field, in the codec frame and in
``size_bytes()``, which must equal the size rule worked out here.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.packets import DataPacket
from repro.execution.batch import BindingBatch
from repro.execution.encoded import EncodedTable
from repro.net.message import Message
from repro.rdf import BNode, Literal, URI
from repro.rdf.dictionary import TermDictionary
from repro.transport.codec import encode_frame, encode_message

TERMS = (
    [URI(f"http://a.example/ns#t{i}") for i in range(5)]
    + [URI(f"http://b.example/path/u{i}") for i in range(3)]
    + [URI("urn:no-separator"), Literal("x"), Literal(7), BNode("b0")]
)
COLUMNS = ("A", "B", "C")


def dictionary() -> TermDictionary:
    """A peer's id space: every id names one of :data:`TERMS`."""
    ids = TermDictionary()
    for term in TERMS:
        ids.encode(term)
    return ids


@st.composite
def shipments(draw):
    """A shipment's id tables, the header each root asked for (or
    none), a chunk size and the stream's cardinalities."""
    tables, headers = [], []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(0, 3))
        columns = COLUMNS[:width]
        rows = draw(st.integers(0, 9)) if width else draw(st.integers(0, 2))
        data = {
            c: draw(st.lists(st.integers(0, len(TERMS) - 1), min_size=rows, max_size=rows))
            for c in columns
        }
        tables.append(BindingBatch(columns, data, length=rows))
        header = draw(st.one_of(
            st.none(),
            st.lists(st.sampled_from(columns), min_size=1, unique=True).map(tuple)
            if columns else st.none(),
        ))
        headers.append(header)
    asked = draw(st.booleans())
    chunk = draw(st.integers(1, 8))
    cardinalities = draw(st.dictionaries(st.sampled_from(["p1", "p2"]), st.integers(0, 50)))
    return tables, tuple(headers) if asked else (), chunk, cardinalities


# ----------------------------------------------------------------------
# the documented rule, step by step
# ----------------------------------------------------------------------
def narrowed(table: BindingBatch, header) -> BindingBatch:
    """Cut to ``header``, dropping duplicate rows (first kept)."""
    if header is None or len(header) == len(table.columns):
        return table
    kept = list(dict.fromkeys(zip(*(table.data[c] for c in header))))
    return BindingBatch(
        header, {c: [row[i] for row in kept] for i, c in enumerate(header)},
        length=len(kept),
    )


def sliced(table: BindingBatch, chunk: int):
    if table.length <= chunk:
        return [table]
    return [
        BindingBatch(
            table.columns, {c: table.data[c][start:start + chunk] for c in table.columns},
            length=min(chunk, table.length - start),
        )
        for start in range(0, table.length, chunk)
    ]


def reference(channel_id, tables, ids, chunk, cardinalities, headers):
    if headers:
        tables = [narrowed(t, h) for t, h in zip(tables, headers)]
    slices = [sliced(t, chunk) for t in tables]
    groups = []
    for turn in range(max(map(len, slices))):
        room = 0
        for output, parts in enumerate(slices):
            if turn >= len(parts):
                continue
            part = parts[turn]
            if not groups or part.length > room:
                groups.append([])
                room = chunk
            room -= part.length
            groups[-1].append((output, part))
    packets, sizes = [], []
    for seq, group in enumerate(groups):
        numbering = {}
        for _, part in group:
            for c in part.columns:
                for cell in part.data[c]:
                    numbering.setdefault(cell, len(numbering))
        terms = tuple(ids.decode(cell) for cell in numbering)
        packed = tuple(
            (output, EncodedTable(
                part.columns, terms,
                tuple(tuple(numbering[cell] for cell in part.data[c]) for c in part.columns),
                part.length,
            ))
            for output, part in group
        )
        counts = dict(cardinalities) if seq == 0 else {}
        packets.append(DataPacket(
            channel_id, packed, final=seq == len(groups) - 1, seq=seq,
            cardinalities=counts,
        ))
        sizes.append(64 + sum(
            16 + sum(len(c) + 2 for c in part.columns) + 4 * len(part.columns) * part.length
            for _, part in group
        ) + term_list_size(terms) + 16 * len(counts))
    return packets, sizes


def term_list_size(terms) -> int:
    """Each distinct namespace once; a URI as its local part and a
    2-byte index (a URI with no ``#`` or ``/``: its rendering); any
    other term as its rendering."""
    size, namespaces = 0, set()
    for term in terms:
        if isinstance(term, URI) and ("#" in term.value or "/" in term.value):
            cut = term.value.rfind("#") if "#" in term.value else term.value.rfind("/")
            namespaces.add(term.value[:cut + 1])
            size += len(term.value) - cut - 1 + 2
        else:
            size += len(term.n3())
    return size + sum(map(len, namespaces))


def frame(packet: DataPacket) -> bytes:
    return encode_frame("msg", encode_message(Message("P2", "P1", packet)))


@given(shipments())
@settings(max_examples=400, deadline=None)
def test_stream_packets_follow_the_documented_rule(shipment):
    tables, headers, chunk, cardinalities = shipment
    ids = dictionary()
    packets = DataPacket.stream("P1#7", tables, ids, chunk, cardinalities, headers)
    expected, sizes = reference("P1#7", tables, ids, chunk, cardinalities, headers)
    assert packets == expected
    assert [frame(p) for p in packets] == [frame(p) for p in expected]
    assert [p.size_bytes() for p in packets] == sizes
    assert [p.size_bytes() for p in expected] == sizes
    for packet in packets:
        assert all(table.terms is packet.terms for _, table in packet.tables)
