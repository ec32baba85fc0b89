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

Message envelopes encode ``src``/``dst``/``size``/``trace``/``payload``
but deliberately *not* the local monotonic ``id`` — like trace metadata
it is process-local bookkeeping, and dropping it makes the encoding
canonical (re-encoding a decoded message is byte-identical).
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from typing import Any, Callable, Dict, Tuple, Type

from ..channels.packets import ChangePlanPacket, DataPacket, SubPlanPacket
from ..core.algebra import Hole, Join, Scan, Union
from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..core.cost import StatSummary
from ..execution.encoded import EncodedTable
from ..errors import CodecError
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
from ..rdf.schema import Schema
from ..rdf.terms import BNode, Literal, Namespace, URI, Variable
from ..rdf.triple import Triple
from ..resilience.detector import Heartbeat
from ..resilience.partial import Coverage
from ..rql.pattern import PathPattern, QueryPattern, SchemaPath
from ..rvl.active_schema import ActiveSchema

_ENCODERS: Dict[Type, Tuple[str, Callable[[Any], dict]]] = {}
_DECODERS: Dict[str, Callable[[dict], Any]] = {}


def _register(cls: Type, encode: Callable[[Any], dict], decode: Callable[[dict], Any]):
    _ENCODERS[cls] = (cls.__name__, encode)
    _DECODERS[cls.__name__] = decode


def _register_dataclass(cls: Type, check: Callable[[Any], None] = None) -> None:
    """Field-by-field codec for ``cls``; ``check`` raises
    :class:`CodecError` for a decoded object a handler must not see."""
    names = [f.name for f in dataclasses.fields(cls)]

    def encode(obj) -> dict:
        return {name: _encode(getattr(obj, name)) for name in names}

    def decode(fields: dict):
        obj = cls(**{name: _decode(fields[name]) for name in names if name in fields})
        if check is not None:
            try:
                check(obj)
            except (TypeError, ValueError) as exc:  # not even the right shape
                raise CodecError(f"malformed {cls.__name__}: {exc}") from None
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


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "$k" in value:
            decoder = _DECODERS.get(value["$k"])
            if decoder is None:
                raise CodecError(f"unknown payload class {value['$k']!r}")
            return decoder(value.get("f", {}))
        if "$t" in value:
            return tuple(_decode(v) for v in value["$t"])
        if "$d" in value:
            return {_decode(k): _decode(v) for k, v in value["$d"]}
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def encode_payload(payload: Any) -> dict:
    """Encode one protocol payload object to a JSON-compatible value."""
    encoded = _encode(payload)
    if not (isinstance(encoded, dict) and "$k" in encoded):
        raise CodecError(f"not a registered payload type: {type(payload).__name__}")
    return encoded


def decode_payload(value: dict) -> Any:
    """Rebuild a payload object from :func:`encode_payload` output."""
    return _decode(value)


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


def decode_message(fields: dict) -> Message:
    """Rebuild a :class:`Message` (unknown envelope keys are ignored)."""
    return Message(
        fields["src"],
        fields["dst"],
        decode_payload(fields["payload"]),
        size=fields.get("size"),
        trace=_decode(fields.get("trace")),
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
_register(URI, lambda u: {"value": u.value}, lambda f: URI(f["value"]))
_register(BNode, lambda b: {"id": b.id}, lambda f: BNode(f["id"]))
_register(Variable, lambda v: {"name": v.name}, lambda f: Variable(f["name"]))
_register(
    Triple,
    lambda t: {
        "subject": _encode(t.subject),
        "predicate": _encode(t.predicate),
        "object": _encode(t.object),
    },
    lambda f: Triple(_decode(f["subject"]), _decode(f["predicate"]), _decode(f["object"])),
)
_register(
    Literal,
    lambda l: {
        "lexical": l.lexical,
        "datatype": _encode(l.datatype),
        "language": l.language,
    },
    lambda f: Literal(
        f["lexical"],
        datatype=_decode(f.get("datatype")),
        language=f.get("language"),
    ),
)


# ----------------------------------------------------------------------
# registry: schema and query patterns
# ----------------------------------------------------------------------
def _encode_schema(schema: Schema) -> dict:
    return {
        "uri": schema.namespace.uri,
        "name": schema.name,
        "classes": sorted(c.value for c in schema.classes),
        "properties": sorted(
            [p.uri.value, p.domain.value, p.range.value] for p in schema
        ),
        "subclass": sorted(
            [child.value, parent.value]
            for child in schema.classes
            for parent in schema._super_classes.get(child, ())
        ),
        "subproperty": sorted(
            [child.value, parent.value]
            for child in schema.properties
            for parent in schema._super_properties.get(child, ())
        ),
    }


def _decode_schema(fields: dict) -> Schema:
    schema = Schema(Namespace(fields["uri"]), fields.get("name", ""))
    for cls in fields.get("classes", []):
        schema.add_class(URI(cls))
    for prop, domain, range_ in fields.get("properties", []):
        schema.add_property(URI(prop), URI(domain), URI(range_))
    for child, parent in fields.get("subclass", []):
        schema.add_subclass(URI(child), URI(parent))
    for child, parent in fields.get("subproperty", []):
        schema.add_subproperty(URI(child), URI(parent))
    return schema


_register(Schema, _encode_schema, _decode_schema)
_register(
    SchemaPath,
    lambda p: {
        "domain": _encode(p.domain),
        "property": _encode(p.property),
        "range": _encode(p.range),
    },
    lambda f: SchemaPath(_decode(f["domain"]), _decode(f["property"]), _decode(f["range"])),
)
_register(
    PathPattern,
    lambda p: {
        "label": p.label,
        "schema_path": _encode(p.schema_path),
        "subject_var": p.subject_var,
        "object_var": p.object_var,
        "projected": _encode(p.projected),
    },
    lambda f: PathPattern(
        f["label"],
        _decode(f["schema_path"]),
        f.get("subject_var"),
        f.get("object_var"),
        _decode(f.get("projected", {"$t": []})),
    ),
)
_register(
    QueryPattern,
    lambda q: {
        "patterns": [_encode(p) for p in q.patterns],
        "projections": _encode(q.projections),
        "schema": _encode(q.schema),
    },
    lambda f: QueryPattern(
        [_decode(p) for p in f["patterns"]],
        _decode(f["projections"]),
        _decode(f["schema"]),
    ),
)


# ----------------------------------------------------------------------
# registry: annotations, advertisements, plans, bindings
# ----------------------------------------------------------------------
_register(
    PeerAnnotation,
    lambda a: {
        "peer_id": a.peer_id,
        "rewritten": _encode(a.rewritten),
        "exact": a.exact,
    },
    lambda f: PeerAnnotation(f["peer_id"], _decode(f["rewritten"]), f["exact"]),
)


def _encode_annotated(annotated: AnnotatedQueryPattern) -> dict:
    entries = []
    for index, pattern in enumerate(annotated.query_pattern.patterns):
        annotations = annotated.annotations(pattern)
        if annotations:
            entries.append([index, [_encode(a) for a in annotations]])
    return {"query_pattern": _encode(annotated.query_pattern), "annotated": entries}


def _decode_annotated(fields: dict) -> AnnotatedQueryPattern:
    pattern = _decode(fields["query_pattern"])
    annotated = AnnotatedQueryPattern(pattern)
    for index, annotations in fields.get("annotated", []):
        annotated.extend_trusted(
            pattern.patterns[index], [_decode(a) for a in annotations]
        )
    return annotated


_register(AnnotatedQueryPattern, _encode_annotated, _decode_annotated)
_register(
    ActiveSchema,
    lambda s: s.to_dict(),
    lambda f: ActiveSchema.from_dict(f),
)


def _decode_table(fields: dict) -> EncodedTable:
    """Rebuild an :class:`EncodedTable`, refusing one that is not
    rectangular or whose cells do not name its own terms.

    Checked here, where the frame is: the receiver indexes ``terms`` by
    these ids inside a message handler, past the ``except CodecError``
    that drops a corrupt connection — and a negative id would not even
    fail there, it would silently alias a term from the end.
    """
    table = EncodedTable(
        tuple(fields["columns"]),
        tuple(_decode(term) for term in fields["terms"]),
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


# the one wire shape of a binding table: each distinct term once, the
# cells as plain integer positions into that list
_register(
    EncodedTable,
    lambda t: {
        "columns": list(t.columns),
        "terms": [_encode(term) for term in t.terms],
        "ids": [list(column) for column in t.ids],
        "length": t.length,
    },
    _decode_table,
)
_register(
    Scan,
    lambda s: {"patterns": [_encode(p) for p in s.patterns()], "peer_id": s.peer_id},
    lambda f: Scan([_decode(p) for p in f["patterns"]], f["peer_id"]),
)
_register(
    Hole,
    lambda h: {"pattern": _encode(h.pattern)},
    lambda f: Hole(_decode(f["pattern"])),
)
_register(
    Union,
    lambda u: {"children": [_encode(c) for c in u.children()]},
    lambda f: Union([_decode(c) for c in f["children"]]),
)
_register(
    Join,
    lambda j: {"children": [_encode(c) for c in j.children()]},
    lambda f: Join([_decode(c) for c in f["children"]]),
)


def _check_subplans(packet: SubPlanPacket) -> None:
    """At least one subplan, and every site keyed ``(output index,
    *tree path)`` under an output the packet carries."""
    carried = len(packet.plans)
    if not carried:
        raise CodecError("a SubPlanPacket carries at least one subplan")
    for path in packet.sites:
        if not path or type(path[0]) is not int or not 0 <= path[0] < carried:
            raise CodecError(f"site {path!r} is under none of {carried} outputs")


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
    lambda f: TraceContext(f["trace_id"], f["span_id"]),
)
_register(
    Heartbeat,
    lambda h: {"sender": h.sender},
    lambda f: Heartbeat(f["sender"]),
)
_register(
    DeliveryFailure,
    lambda d: {"original": encode_message(d.original)},
    lambda f: DeliveryFailure(decode_message(f["original"])),
)

for _cls in (
    QuerySubmit,
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
    InsertTriple,
    DeleteTriple,
    RedefineViews,
    UpdateBatch,
    UpdateAck,
    AdvertiseDelta,
    ContinuousSubscribe,
    ContinuousUpdate,
    ContinuousCancel,
    RefreshStanding,
):
    _register_dataclass(_cls)
del _cls
_register_dataclass(SubPlanPacket, _check_subplans)
_register_dataclass(DataPacket, _check_tables)
