"""Wire codec: every :class:`~repro.net.message.Message` payload kind
round-trips through tagged JSON.

The encoding is a small recursive scheme over JSON values:

* primitives (``str``/``int``/``float``/``bool``/``None``) pass through;
* tuples become ``{"$t": [...]}`` so they decode back as tuples (the
  protocol dataclasses are tuple-typed throughout);
* dicts with plain string keys encode as JSON objects, dicts with
  structured keys (e.g. a subplan's tree-path site map) become
  ``{"$d": [[key, value], ...]}``;
* registered protocol objects become ``{"$k": "ClassName", "f": {...}}``.

Decoding is forward-compatible: unknown keys inside an object's ``"f"``
field dict are ignored, so an old peer can read frames from a newer one
that added fields.  An unknown ``"$k"`` class tag, by contrast, is a
hard :class:`~repro.errors.CodecError` — there is no safe way to invent
a payload type.

The control plane travels by reference to the community schema (every
peer of a SON holds it, Section 2.2): a query pattern crosses as its
schema's :attr:`~repro.rdf.schema.Schema.fingerprint` plus path
patterns, and a path pattern as a flat record whose schema terms are
positions in that schema's :attr:`~repro.rdf.schema.Schema.terms`.  The
receiver resolves the fingerprint against the schemas it is given
(:func:`decode_message`'s ``schemas``; a live transport passes those its
nodes hold in their SON registries); an unknown one is a
:class:`~repro.errors.CodecError`.

Any decoding failure is a :class:`~repro.errors.CodecError` — the one
exception a live reader catches to drop a corrupt connection.

Message envelopes encode ``src``/``dst``/``size``/``trace``/``payload``
but deliberately *not* the local monotonic ``id`` — like trace metadata
it is process-local bookkeeping, and dropping it makes the encoding
canonical (re-encoding a decoded message is byte-identical).
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Type

from ..channels.packets import ChangePlanPacket, DataPacket, SubPlanPacket
from ..core.algebra import Hole, Join, PlanNode, Scan, Union
from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..core.cost import StatSummary
from ..execution.encoded import EncodedTable
from ..errors import CodecError, SQPeerError
from ..livedata.updates import (
    AdvertiseDelta,
    ContinuousCancel,
    ContinuousSubscribe,
    ContinuousUpdate,
    DeleteTriple,
    InsertTriple,
    RedefineViews,
    RefreshStanding,
    UpdateAck,
    UpdateBatch,
)
from ..net.message import DeliveryFailure, Message
from ..obs.span import TraceContext
from ..peers.protocol import (
    Advertise,
    AdvertisementReply,
    AdvertisementRequest,
    DelegatedResult,
    Goodbye,
    PartialPlan,
    QueryResult,
    QueryShed,
    QuerySubmit,
    RouteBusy,
    RouteReply,
    RouteRequest,
)
from ..rdf.schema import Schema, fingerprinted
from ..rdf.terms import BNode, Literal, Term, URI, Variable
from ..rdf.triple import Triple
from ..resilience.detector import Heartbeat
from ..resilience.partial import Coverage
from ..rql.pattern import PathPattern, QueryPattern, SchemaPath
from ..rvl.active_schema import ActiveSchema

#: ``fingerprint -> Schema or None``: what a decoder resolves a
#: pattern's schema against
Resolve = Callable[[str], Optional[Schema]]

_ENCODERS: Dict[Type, Tuple[str, Callable[[Any], Any]]] = {}
_DECODERS: Dict[str, Callable[[Any, Resolve], Any]] = {}


def _register(cls: Type, encode: Callable[[Any], Any], decode: Callable[[Any, Resolve], Any]):
    _ENCODERS[cls] = (cls.__name__, encode)
    _DECODERS[cls.__name__] = decode


def _register_dataclass(cls: Type, check: Callable[[Any], None] = None) -> None:
    """Field-by-field codec for ``cls``; ``check`` raises
    :class:`CodecError` for a decoded object a handler must not see."""
    names = [f.name for f in dataclasses.fields(cls)]

    def encode(obj) -> dict:
        return {name: _encode(getattr(obj, name)) for name in names}

    def decode(fields: dict, resolve: Resolve):
        obj = cls(**{name: _decode(fields[name], resolve) for name in names if name in fields})
        if check is not None:
            check(obj)
        return obj

    _register(cls, encode, decode)


# ----------------------------------------------------------------------
# generic value encoding
# ----------------------------------------------------------------------
def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    registered = _ENCODERS.get(type(value))
    if registered is not None:
        name, encode = registered
        return {"$k": name, "f": encode(value)}
    if isinstance(value, tuple):  # after the registry: TraceContext is a tuple
        return {"$t": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) and not k.startswith("$") for k in value):
            return {k: _encode(v) for k, v in value.items()}
        return {"$d": [[_encode(k), _encode(v)] for k, v in value.items()]}
    raise CodecError(f"cannot encode {type(value).__name__}: {value!r}")


def _decode(value: Any, resolve: Resolve) -> Any:
    if isinstance(value, dict):
        if "$k" in value:
            decoder = _DECODERS.get(value["$k"])
            if decoder is None:
                raise CodecError(f"unknown payload class {value['$k']!r}")
            return decoder(value.get("f", {}), resolve)
        if "$t" in value:
            return tuple(_decode(v, resolve) for v in value["$t"])
        if "$d" in value:
            return {_decode(k, resolve): _decode(v, resolve) for k, v in value["$d"]}
        return {k: _decode(v, resolve) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v, resolve) for v in value]
    return value


def _resolver(schemas: Optional[Iterable[Schema]]) -> Resolve:
    """Resolve fingerprints against ``schemas`` (read on the first
    lookup), or, with ``None``, against every schema this process
    fingerprinted — what one process that encoded a message holds."""
    if schemas is None:
        return fingerprinted
    known: Optional[Dict[str, Schema]] = None

    def resolve(fingerprint: str) -> Optional[Schema]:
        nonlocal known
        if known is None:
            known = {schema.fingerprint: schema for schema in schemas}
        return known.get(fingerprint)

    return resolve


def _decoding(decode: Callable[[], Any]) -> Any:
    """Run ``decode``, turning whatever a hostile value breaks in it
    into the :class:`CodecError` a live reader drops the link on."""
    try:
        return decode()
    except CodecError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, SQPeerError) as exc:
        raise CodecError(f"malformed payload: {type(exc).__name__}: {exc}") from None


def encode_payload(payload: Any) -> dict:
    """Encode one protocol payload object to a JSON-compatible value."""
    encoded = _encode(payload)
    if not (isinstance(encoded, dict) and "$k" in encoded):
        raise CodecError(f"not a registered payload type: {type(payload).__name__}")
    return encoded


def decode_payload(value: dict, schemas: Optional[Iterable[Schema]] = None) -> Any:
    """Rebuild a payload object from :func:`encode_payload` output; a
    pattern's schema fingerprint resolves against ``schemas`` (see
    :func:`decode_message`)."""
    return _decoding(lambda: _decode(value, _resolver(schemas)))


# ----------------------------------------------------------------------
# message envelopes and frames
# ----------------------------------------------------------------------
def encode_message(message: Message) -> dict:
    """Encode a message envelope (payload, addressing, size, trace).

    The local ``id`` is not encoded; the decoded message draws a fresh
    one from the receiving process's counter.
    """
    return {
        "src": message.src,
        "dst": message.dst,
        "size": message.size,
        "trace": _encode(message.trace),
        "payload": encode_payload(message.payload),
    }


def decode_message(fields: dict, schemas: Optional[Iterable[Schema]] = None) -> Message:
    """Rebuild a :class:`Message` (unknown envelope keys are ignored).

    A query pattern names its schema by fingerprint; it resolves to the
    one of ``schemas`` with that fingerprint — the receiver's own object
    — and to no schema at all is a :class:`CodecError`.  ``None``
    resolves against the schemas this process fingerprinted.
    """
    return _decoding(lambda: _decode_message(fields, _resolver(schemas)))


def _decode_message(fields: dict, resolve: Resolve) -> Message:
    return Message(
        fields["src"],
        fields["dst"],
        _decode(fields["payload"], resolve),
        size=fields.get("size"),
        trace=_decode(fields.get("trace"), resolve),
    )


def encode_frame(kind: str, body: dict) -> bytes:
    """Serialise one wire frame body (sans length prefix) as JSON."""
    return json.dumps({"kind": kind, "body": body}, separators=(",", ":")).encode()


def decode_frame(data: bytes) -> Tuple[str, dict]:
    """Parse a frame; returns ``(kind, body)``, ignoring unknown keys."""
    try:
        parsed = json.loads(data.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed frame: {exc}") from None
    if not isinstance(parsed, dict) or "kind" not in parsed:
        raise CodecError("frame missing 'kind'")
    return parsed["kind"], parsed.get("body", {})


# ----------------------------------------------------------------------
# registry: RDF terms
# ----------------------------------------------------------------------
_register(URI, lambda u: {"value": u.value}, lambda f, _: URI(f["value"]))
_register(BNode, lambda b: {"id": b.id}, lambda f, _: BNode(f["id"]))
_register(Variable, lambda v: {"name": v.name}, lambda f, _: Variable(f["name"]))
_register(
    Literal,
    lambda l: {
        "lexical": l.lexical,
        "datatype": _encode(l.datatype),
        "language": l.language,
    },
    lambda f, resolve: Literal(
        f["lexical"],
        datatype=_decode(f.get("datatype"), resolve),
        language=f.get("language"),
    ),
)


# ----------------------------------------------------------------------
# registry: query patterns, by reference to their schema
# ----------------------------------------------------------------------
def _path_record(pattern: PathPattern, ids: Dict[URI, int]) -> list:
    """A path pattern as ``[label, domain, property, range, subject
    variable, object variable, [projected variable, ...]]``, each schema
    term its position in ``ids`` (a schema's ``term_ids``) — or, outside
    them, its URI string."""
    path = pattern.schema_path
    return [
        pattern.label,
        ids.get(path.domain, path.domain.value),
        ids.get(path.property, path.property.value),
        ids.get(path.range, path.range.value),
        pattern.subject_var,
        pattern.object_var,
        list(pattern.projected),
    ]


def _schema_term(value, terms: Tuple[URI, ...]) -> URI:
    if type(value) is str:
        return URI(value)
    if not _is_index(value, len(terms)):
        raise CodecError(f"{value!r} names none of the schema's {len(terms)} terms")
    return terms[value]


def _is_name(value, optional: bool = False) -> bool:
    return type(value) is str or (optional and value is None)


def _path_pattern(record, terms: Tuple[URI, ...]) -> PathPattern:
    """Rebuild a :func:`_path_record` over ``terms`` (a schema's)."""
    if type(record) is not list or len(record) != 7:
        raise CodecError(f"{record!r} is no path pattern record")
    label, domain, property_, range_, subject, object_, projected = record
    if not (
        _is_name(label)
        and _is_name(subject, True)
        and _is_name(object_, True)
        and type(projected) is list
        and all(map(_is_name, projected))
    ):
        raise CodecError(f"{record!r} names a label or variable by a non-string")
    path = _schema_path((domain, property_, range_), terms)
    return PathPattern(label, path, subject, object_, tuple(projected))


def _schema_path(values, terms: Tuple[URI, ...]) -> SchemaPath:
    """Rebuild a schema hop from its domain, property and range, each
    as :func:`_schema_term` reads it."""
    if type(values) not in (list, tuple) or len(values) != 3:
        raise CodecError(f"{values!r} is no domain, property and range")
    return SchemaPath(*(_schema_term(value, terms) for value in values))


def _schema(fingerprint, resolve: Resolve) -> Schema:
    schema = resolve(fingerprint) if type(fingerprint) is str else None
    if schema is None:
        raise CodecError(f"no schema known by the fingerprint {fingerprint!r}")
    return schema


def _encode_query(pattern: QueryPattern) -> list:
    """``[schema fingerprint, [path pattern record, ...], [projected
    variable, ...]]``, the records over that schema's terms."""
    schema = pattern.schema
    ids = schema.term_ids
    return [
        schema.fingerprint,
        [_path_record(p, ids) for p in pattern.patterns],
        list(pattern.projections),
    ]


def _decode_query(record, resolve: Resolve) -> QueryPattern:
    if type(record) is not list or len(record) != 3:
        raise CodecError(f"{record!r} is no query pattern record")
    fingerprint, patterns, projections = record
    schema = _schema(fingerprint, resolve)
    if type(projections) is not list or not all(map(_is_name, projections)):
        raise CodecError(f"{projections!r} is not a list of variables")
    terms = schema.terms
    return QueryPattern(
        [_path_pattern(p, terms) for p in patterns], tuple(projections), schema
    )


_register(QueryPattern, _encode_query, _decode_query)
# outside a packet naming a schema, a pattern's terms are written whole
_register(PathPattern, lambda p: _path_record(p, {}), lambda f, _: _path_pattern(f, ()))
_register(
    SchemaPath,
    lambda p: [p.domain.value, p.property.value, p.range.value],
    lambda f, _: _schema_path(f, ()),
)


def _encode_annotated(annotated: AnnotatedQueryPattern) -> list:
    """``[query pattern record, [[index, [[peer, exact], ...]], ...]]``
    per annotated pattern — an annotation whose rewritten pattern is not
    the query's own adds it, as a record over the same schema."""
    query = annotated.query_pattern
    ids = query.schema.term_ids
    entries = []
    for index, pattern in enumerate(query.patterns):
        annotations = annotated.annotations(pattern)
        if annotations:
            entries.append([index, [
                [a.peer_id, a.exact] if a.rewritten == pattern
                else [a.peer_id, a.exact, _path_record(a.rewritten, ids)]
                for a in annotations
            ]])
    return [_encode_query(query), entries]


def _decode_annotated(record, resolve: Resolve) -> AnnotatedQueryPattern:
    if type(record) is not list or len(record) != 2:
        raise CodecError(f"{record!r} is no annotated query pattern record")
    query = _decode_query(record[0], resolve)
    terms, patterns = query.schema.terms, query.patterns
    annotated = AnnotatedQueryPattern(query)
    for index, annotations in record[1]:
        if not _is_index(index, len(patterns)):
            raise CodecError(f"annotation index {index!r} names none of {len(patterns)} patterns")
        pattern = patterns[index]
        annotated.extend_trusted(pattern, [
            _annotation(entry, pattern, terms) for entry in annotations
        ])
    return annotated


def _annotation(entry, pattern: PathPattern, terms: Tuple[URI, ...]) -> PeerAnnotation:
    if type(entry) is not list or len(entry) not in (2, 3):
        raise CodecError(f"{entry!r} is no annotation record")
    peer_id, exact = entry[:2]
    if not _is_name(peer_id) or type(exact) is not bool:
        raise CodecError(f"{entry!r} is no peer id and exact flag")
    rewritten = _path_pattern(entry[2], terms) if len(entry) == 3 else pattern
    return PeerAnnotation(peer_id, rewritten, exact)


_register(AnnotatedQueryPattern, _encode_annotated, _decode_annotated)
_register(
    ActiveSchema,
    lambda s: s.to_dict(),
    lambda f, _: ActiveSchema.from_dict(f),
)


def _encode_terms(terms) -> dict:
    """The one wire shape of a term list: each distinct URI namespace
    once, in ``ns``; in ``t`` each URI as ``[namespace index, local part]``,
    any other term (a URI with no ``#`` or ``/`` too) tagged."""
    namespaces: Dict[str, int] = {}
    entries = []
    for term in terms:
        if type(term) is URI:
            namespace, local = term.split
            if namespace:
                index = namespaces.setdefault(namespace, len(namespaces))
                entries.append([index, local])
                continue
        entries.append(_encode(term))
    return {"ns": list(namespaces), "t": entries}


def _decode_terms(value) -> tuple:
    """Rebuild a term list, refusing any namespace or local part that
    is not a string, an index naming no namespace, an empty URI and an
    entry that is no term."""
    namespaces, terms = value["ns"], []
    if type(namespaces) is not list or any(type(n) is not str for n in namespaces):
        raise CodecError(f"{namespaces!r} is not a list of namespaces")
    for entry in value["t"]:
        if type(entry) is list:  # [namespace index, local part]
            index, local = entry
            term = URI(namespaces[index] + local) if _is_index(index, len(namespaces)) else None
        else:
            term = _decode(entry, _no_schema)
        if not isinstance(term, Term):
            raise CodecError(f"{entry!r} is not a term")
        terms.append(term)
    return tuple(terms)


def _no_schema(fingerprint: str) -> None:
    """A term list names no schema."""


def _is_index(value, size: int) -> bool:
    """``value`` is a position into ``size`` items (a bool is not)."""
    return type(value) is int and 0 <= value < size


def _decode_table(fields: dict, terms: Optional[tuple] = None) -> EncodedTable:
    """Rebuild an :class:`EncodedTable` — over ``terms`` when it rode
    in a packet that names them, over its own otherwise — refusing one
    that is not rectangular or whose cells do not name those terms.

    Checked here, where the frame is: the receiver indexes ``terms`` by
    these ids inside a message handler, past the ``except CodecError``
    that drops a corrupt connection — and a negative id would not even
    fail there, it would silently alias a term from the end.
    """
    if terms is None:
        terms = _decode_terms(fields["terms"])
    table = EncodedTable(
        tuple(fields["columns"]),
        terms,
        tuple(tuple(column) for column in fields["ids"]),
        fields["length"],
    )
    width, length = len(table.columns), table.length
    try:
        # one C pass per column (it refuses non-integers), then min/max
        cells = [array("q", column) for column in table.ids]
    except (TypeError, OverflowError):
        raise CodecError("table holds a non-integer id") from None
    if (
        len(cells) != width
        or not isinstance(length, int)
        or length < 0
        or any(len(column) != length for column in cells)
    ):
        raise CodecError(f"table is not {width} columns by {length!r} rows")
    if any(c and (min(c) < 0 or max(c) >= len(table.terms)) for c in cells):
        raise CodecError(f"table has an id outside its {len(table.terms)} terms")
    return table


def _table_cells(table: EncodedTable) -> dict:
    return {
        "columns": list(table.columns),
        "ids": [list(column) for column in table.ids],
        "length": table.length,
    }


# the one wire shape of a binding table: its term list, the cells as
# plain integer positions into it — the term list of a table riding in
# a DataPacket is the packet's (``_encode_data``)
_register(
    EncodedTable,
    lambda t: {**_table_cells(t), "terms": _encode_terms(t.terms)},
    lambda f, _: _decode_table(f),
)


# ----------------------------------------------------------------------
# registry: plan trees, their path patterns over one schema's terms
# ----------------------------------------------------------------------
def _plan_fields(node: PlanNode, ids: Dict[URI, int]) -> list:
    """A scan as ``[peer, [path pattern record, ...]]``, a hole as its
    record, a join or union as its children."""
    kind = type(node)
    if kind is Scan:
        return [node.peer_id, [_path_record(p, ids) for p in node.patterns()]]
    if kind is Hole:
        return _path_record(node.pattern, ids)
    return [_encode_plan(c, ids) for c in node.children()]


def _encode_plan(node: PlanNode, ids: Dict[URI, int]) -> dict:
    return {"$k": type(node).__name__, "f": _plan_fields(node, ids)}


def _plan(kind: str, fields, terms: Tuple[URI, ...]) -> PlanNode:
    """Rebuild a plan node of class ``kind`` over ``terms``."""
    if kind == "Hole":
        return Hole(_path_pattern(fields, terms))
    if type(fields) is not list:
        raise CodecError(f"{fields!r} is no {kind} record")
    if kind == "Scan":
        peer_id, patterns = fields
        if not _is_name(peer_id):
            raise CodecError(f"scan site {peer_id!r} is not a peer id")
        return Scan([_path_pattern(p, terms) for p in patterns], peer_id)
    if kind in ("Join", "Union"):
        children = [_plan(c["$k"], c["f"], terms) for c in fields]
        return (Join if kind == "Join" else Union)(children)
    raise CodecError(f"{kind!r} is no plan node")


def _register_plan_node(cls: Type) -> None:
    """Outside a shipment naming its schema, a plan node's patterns are
    written whole."""
    _register(cls, lambda node: _plan_fields(node, {}),
              lambda fields, _: _plan(cls.__name__, fields, ()))


for _cls in (Scan, Hole, Union, Join):
    _register_plan_node(_cls)


def _check_flag(name: str, value) -> None:
    if type(value) is not bool:
        raise CodecError(f"{name} is {value!r}, not a bool")


def _check_subplans(packet: SubPlanPacket) -> None:
    """At least one subplan, every site keyed ``(output index, *tree
    path)`` under an output the packet carries, no header or one per
    subplan, naming distinct columns that subplan binds, and a boolean
    retransmit flag."""
    carried = len(packet.plans)
    if not carried:
        raise CodecError("a SubPlanPacket carries at least one subplan")
    _check_flag("retransmits", packet.retransmits)
    for path in packet.sites:
        if not path or not _is_index(path[0], carried):
            raise CodecError(f"site {path!r} is under none of {carried} outputs")
    if len(packet.columns) not in (0, carried):
        raise CodecError(f"{len(packet.columns)} headers for {carried} subplans")
    for plan, header in zip(packet.plans, packet.columns):
        if header is None:
            continue
        if type(header) is not tuple or any(type(c) is not str for c in header):
            raise CodecError(f"{header!r} is not a tuple of column names")
        bound = plan.variables()
        if len(set(header)) != len(header) or any(c not in bound for c in header):
            raise CodecError(f"{header!r} asks for columns {bound!r} does not bind")


def _check_tables(packet: DataPacket) -> None:
    """Each output at most once per packet, under a non-negative index
    (a negative one would alias an output from the end; how many
    outputs the channel has only its root knows, and checks)."""
    outputs = [output for output, _ in packet.tables]
    if any(type(output) is not int or output < 0 for output in outputs):
        raise CodecError(f"{outputs!r} are not output indices")
    if len(set(outputs)) != len(outputs):
        raise CodecError(f"an output twice in one packet: {outputs!r}")


# ----------------------------------------------------------------------
# registry: control / resilience payloads
# ----------------------------------------------------------------------
_register(
    TraceContext,
    lambda t: {"trace_id": t.trace_id, "span_id": t.span_id},
    lambda f, _: TraceContext(f["trace_id"], f["span_id"]),
)
_register(
    Heartbeat,
    lambda h: {"sender": h.sender},
    lambda f, _: Heartbeat(f["sender"]),
)
_register(
    DeliveryFailure,
    lambda d: {"original": encode_message(d.original)},
    lambda f, resolve: DeliveryFailure(_decode_message(f["original"], resolve)),
)

for _cls in (
    QueryResult,
    QueryShed,
    RouteBusy,
    RouteRequest,
    RouteReply,
    Advertise,
    AdvertisementRequest,
    AdvertisementReply,
    DelegatedResult,
    PartialPlan,
    StatSummary,
    ChangePlanPacket,
    Coverage,
    Goodbye,
    RedefineViews,
    UpdateAck,
    AdvertiseDelta,
    ContinuousSubscribe,
    ContinuousUpdate,
    ContinuousCancel,
    RefreshStanding,
):
    _register_dataclass(_cls)
del _cls
_register_dataclass(QuerySubmit, lambda s: _check_flag("resubmits", s.resubmits))


def _encode_subplans(packet: SubPlanPacket) -> dict:
    """A shipment naming the schema of its subplans' path patterns once,
    by fingerprint, as ``schema``, each pattern a record over that
    schema's terms (with no schema, a record of URIs)."""
    schema = packet.schema
    fields = {name: _encode(getattr(packet, name)) for name in _SUBPLAN_FIELDS}
    ids = {} if schema is None else schema.term_ids
    fields["plans"] = {"$t": [_encode_plan(plan, ids) for plan in packet.plans]}
    if schema is not None:
        fields["schema"] = schema.fingerprint
    return fields


def _decode_subplans(fields: dict, resolve: Resolve) -> SubPlanPacket:
    schema = _schema(fields["schema"], resolve) if "schema" in fields else None
    terms = () if schema is None else schema.terms
    packet = SubPlanPacket(
        plans=tuple(_plan(p["$k"], p["f"], terms) for p in fields["plans"]["$t"]),
        schema=schema,
        **{name: _decode(fields[name], resolve) for name in _SUBPLAN_FIELDS if name in fields},
    )
    _check_subplans(packet)
    return packet


_SUBPLAN_FIELDS = tuple(
    f.name for f in dataclasses.fields(SubPlanPacket) if f.name not in ("plans", "schema")
)
_register(SubPlanPacket, _encode_subplans, _decode_subplans)


def _encode_data(packet: DataPacket) -> dict:
    """A data packet with its tables' one term list written once, as
    ``terms``, and each table as its header and cells only."""
    fields = {name: _encode(getattr(packet, name)) for name in _DATA_FIELDS}
    fields["terms"] = _encode_terms(packet.terms)
    tables = [[output, {"$k": "EncodedTable", "f": _table_cells(table)}]
              for output, table in packet.tables]
    fields["tables"] = {"$t": [{"$t": entry} for entry in tables]}
    return fields


def _decode_data(fields: dict, resolve: Resolve) -> DataPacket:
    """Rebuild a data packet, every table over the packet's terms."""
    terms = _decode_terms(fields["terms"]) if "terms" in fields else ()
    tables = tuple(
        (output, _decode_table(table["f"], terms))
        for output, table in (entry["$t"] for entry in fields["tables"]["$t"])
    )
    packet = DataPacket(
        tables=tables,
        **{name: _decode(fields[name], resolve) for name in _DATA_FIELDS if name in fields},
    )
    _check_tables(packet)
    return packet


_DATA_FIELDS = ("channel_id", "final", "failed_peer", "seq", "cardinalities")
_register(DataPacket, _encode_data, _decode_data)


def _encode_batch(batch: UpdateBatch) -> dict:
    """An update batch with its triples' one term list written once, as
    ``terms``, and each triple record as ``[kind, s, p, o]`` — ``"+"``
    or ``"-"``, then positions into that list."""
    terms = batch.terms
    position = {term: index for index, term in enumerate(terms)}.__getitem__
    updates = [
        _encode(r) if type(r) is RedefineViews
        else ["+" if type(r) is InsertTriple else "-", *map(position, r.triple)]
        for r in batch.updates
    ]
    return {"target": batch.target, "revision": batch.revision,
            "terms": _encode_terms(terms), "updates": updates}


def _decode_batch(fields: dict, resolve: Resolve) -> UpdateBatch:
    """Rebuild an update batch, every triple record over its terms."""
    kinds = {"+": InsertTriple, "-": DeleteTriple}

    def record(entry):
        if type(entry) is not list:
            if type(views := _decode(entry, resolve)) is RedefineViews:
                return views
        elif (len(entry) == 4 and entry[0] in kinds
              and all(_is_index(i, len(terms)) for i in entry[1:])):
            return kinds[entry[0]](Triple(*(terms[i] for i in entry[1:])))
        raise CodecError(f"{entry!r} is no update record over {len(terms)} terms")

    terms = _decode_terms(fields["terms"])
    return UpdateBatch(fields["target"], fields["revision"], tuple(map(record, fields["updates"])))


_register(UpdateBatch, _encode_batch, _decode_batch)
