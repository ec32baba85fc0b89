"""Wire codec: a payload's dataclass is its wire schema.

Every :class:`~repro.net.message.Message` payload kind (:data:`Payload`)
crosses as a positional JSON record, ``[kind name, field, ...]`` in
field order, whose encoder and decoder are derived from the dataclass's
annotations (:func:`typing.get_type_hints`):

* trailing fields equal to their defaults are left out; the decoder
  fills missing ones from the defaults and ignores extra positions, so
  an old peer reads a newer one's frames while fields are only appended;
* ``str``/``int``/``float``/``bool`` are checked exactly (a ``bool`` is
  not an ``int``; a ``float`` takes an integer too), and ``Optional``,
  ``Tuple[X, ...]``, fixed tuples, ``Dict`` (an object when keyed by
  strings, ``[[key, value], ...]`` otherwise) and unions of payload
  classes (told apart by the kind name) are built from them — so a
  wrongly typed value, in any field, is a :class:`~repro.errors.CodecError`
  at the frame, and so is a decoded payload its class's ``validate()``
  refuses.

Leaf codecs (``_LEAVES``) keep the formats that are not a field per
position:

* a term list is ``{"ns": [namespace, ...], "t": [entry, ...]}``, a URI
  entry being ``[namespace index, local part]`` and any other term
  ``[class name, value, ...]``; a payload with a ``terms`` property (a
  data packet, an update batch) writes it once, after its kind name,
  and its tables (``[columns, ids, length]``) and triple records
  (``["+"|"-", s, p, o]``) index it — a table on its own appends its
  own term list;
* a query pattern is ``[schema fingerprint, [path record, ...],
  [projection, ...]]``, a path record ``[label, domain, property, range,
  subject, object, [projected]]``; a payload with a ``Schema`` field (a
  shipment) names the schema of its plans there; under a schema a URI
  that is one of its :attr:`~repro.rdf.schema.Schema.terms` is its
  position, any other URI its string;
* a plan node is ``[kind, body]``: a scan's ``[site, [path record,
  ...]]``, a hole's path record, a join's or union's children;
* an advertisement is its ``ActiveSchema.to_dict()``.

A fingerprint resolves against the schemas the receiver passes
(:func:`decode_message`; a live transport passes those its nodes hold),
and an unknown one is a :class:`CodecError` like every other decoding
failure — the one exception a live reader catches to drop a corrupt
connection.  An envelope is ``{"src", "dst", "size", "trace",
"payload"}`` without the process-local message ``id``, so re-encoding a
decoded message is byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from functools import wraps
from operator import attrgetter
from typing import (
    Any, Callable, Dict, Iterable, Optional, Tuple, Union, get_args, get_origin, get_type_hints,
)

from ..channels.packets import ChangePlanPacket, DataPacket, SubPlanPacket
from ..core import algebra
from ..core.annotations import AnnotatedQueryPattern, PeerAnnotation
from ..errors import CodecError, SQPeerError
from ..execution.encoded import EncodedTable
from ..livedata.updates import (
    AdvertiseDelta, ContinuousCancel, ContinuousSubscribe, ContinuousUpdate, DeleteTriple,
    InsertTriple, RedefineViews, RefreshStanding, UpdateAck, UpdateBatch, UpdateRecord,
)
from ..net.message import DeliveryFailure, Message
from ..obs.span import TraceContext
from ..peers.protocol import (
    Advertise, AdvertisementReply, AdvertisementRequest, DelegatedResult, Goodbye,
    PartialPlan, QueryResult, QueryShed, QuerySubmit, RouteBusy, RouteReply, RouteRequest,
)
from ..rdf.schema import Schema, fingerprinted
from ..rdf.terms import BNode, Literal, Term, URI, Variable
from ..rdf.triple import Triple
from ..resilience.detector import Heartbeat
from ..rql.pattern import PathPattern, QueryPattern, SchemaPath
from ..rvl.active_schema import ActiveSchema

#: every kind a message may carry
Payload = Union[
    QuerySubmit, QueryResult, QueryShed, RouteBusy, RouteRequest, RouteReply, Advertise,
    AdvertisementRequest, AdvertisementReply, Goodbye, DelegatedResult, PartialPlan,
    SubPlanPacket, DataPacket, ChangePlanPacket, UpdateBatch, UpdateAck, AdvertiseDelta,
    ContinuousSubscribe, ContinuousUpdate, ContinuousCancel, RefreshStanding, Heartbeat,
    DeliveryFailure,
]

#: ``fingerprint -> Schema or None``: what a decoder resolves a
#: pattern's schema against
Resolve = Callable[[str], Optional[Schema]]


class _Scope:
    """What the records inside one payload are written over: the schema
    whose terms a URI may name by position, the term list its tables
    and triple records index, and how a fingerprint resolves."""

    __slots__ = ("resolve", "schema_terms", "ids", "terms", "_positions")

    def __init__(self, resolve: Optional[Resolve], schema: Optional[Schema] = None,
                 terms: Optional[tuple] = None):
        self.resolve, self.terms, self._positions = resolve, terms, None
        self.schema_terms = () if schema is None else schema.terms
        self.ids = {} if schema is None else schema.term_ids

    def position(self, term: Term) -> int:
        """``term``'s position in :attr:`terms`."""
        if self._positions is None:
            self._positions = {term: index for index, term in enumerate(self.terms)}
        return self._positions[term]


#: ``(encode(value, scope), decode(json value, scope))``
Codec = Tuple[Callable[[Any, _Scope], Any], Callable[[Any, _Scope], Any]]
_CODECS: Dict[Any, Codec] = {}


def _codec(hint) -> Codec:
    """The codec of a value annotated ``hint``, derived on first use."""
    codec = _CODECS.get(hint)
    if codec is None:
        codec = _CODECS[hint] = _derive(hint)
    return codec


def _derive(hint) -> Codec:
    origin, args = get_origin(hint), get_args(hint)
    if hint in _LEAVES:
        return _LEAVES[hint]
    if hint in (str, int, float, bool):
        return _identity, _scalar(hint)
    if origin is Union:
        crossing = [arg for arg in args if arg is not type(None)]
        if len(crossing) > 1:  # only records and leaves: a client's term table never crosses
            crossing = [arg for arg in crossing if arg in _LEAVES or dataclasses.is_dataclass(arg)]
        codec = _codec(crossing[0]) if len(crossing) == 1 else _kinds(crossing)
        return _optional(codec) if type(None) in args else codec
    if origin is tuple and args[1:] == (Ellipsis,):
        return _sequence(_codec(args[0]))
    if origin is tuple:
        return _fixed([_codec(arg) for arg in args])
    if origin is dict:
        return _mapping(*args)
    if dataclasses.is_dataclass(hint):
        return _record(hint)
    if isinstance(hint, type) and issubclass(hint, tuple):  # a NamedTuple
        encode, decode = _fixed([_codec(h) for h in get_type_hints(hint).values()])
        return encode, lambda value, scope: hint(*decode(value, scope))
    raise TypeError(f"no wire form for {hint!r}")


def _clip(value) -> str:
    return f"{value!r:.60}"


def _identity(value, scope):
    return value


def _scalar(kind: type) -> Callable:
    def decode(value, scope):
        if type(value) is kind:
            return value
        if kind is float and type(value) is int:
            return float(value)
        raise CodecError(f"{_clip(value)} is not a {kind.__name__}")

    return decode


def _optional(codec: Codec) -> Codec:
    encode, decode = codec
    return (
        encode if encode is _identity
        else lambda value, scope: None if value is None else encode(value, scope),
        lambda value, scope: None if value is None else decode(value, scope),
    )


def _kinds(classes) -> Codec:
    """Payload classes, each value its record, told apart on decode by
    the kind name in front."""
    encoders = {cls: _codec(cls)[0] for cls in classes}
    decoders = {cls.__name__: _codec(cls)[1] for cls in classes}

    def encode(value, scope):
        if type(value) not in encoders:
            raise CodecError(f"{type(value).__name__} is no payload kind")
        return encoders[type(value)](value, scope)

    def decode(record, scope):
        kind = record[0] if type(record) is list and record else None
        if type(kind) is not str or kind not in decoders:
            raise CodecError(f"{_clip(record)} is no record of a payload kind")
        return decoders[kind](record, scope)

    return encode, decode


def _checked(value, kind: type = list, size: Optional[int] = None):
    """``value``, if it is a ``kind`` (a list, unless told otherwise) of
    ``size`` items (of any number, unless told)."""
    if type(value) is not kind or (size is not None and len(value) != size):
        raise CodecError(f"{_clip(value)} is not a {kind.__name__} of {size or 'some'} items")
    return value


def _sequence(item: Codec) -> Codec:
    encode, decode = item
    return (
        (lambda values, scope: list(values)) if encode is _identity
        else lambda values, scope: [encode(value, scope) for value in values],
        lambda values, scope: tuple([decode(value, scope) for value in _checked(values)]),
    )


def _fixed(items) -> Codec:
    return (
        lambda values, scope: [enc(value, scope) for (enc, _), value in zip(items, values)],
        lambda values, scope: tuple([
            dec(value, scope) for (_, dec), value in zip(items, _checked(values, list, len(items)))
        ]),
    )


def _mapping(key, value) -> Codec:
    if key is not str:  # a list of [key, value] pairs
        encode, decode = _fixed([_codec(key), _codec(value)])
        return (lambda mapping, scope: [encode(pair, scope) for pair in mapping.items()],
                lambda pairs, scope: dict(decode(pair, scope) for pair in _checked(pairs)))
    encode, decode = _codec(value)
    return (
        lambda mapping, scope: {k: encode(v, scope) for k, v in mapping.items()},
        lambda mapping, scope: {k: decode(v, scope) for k, v in _checked(mapping, dict).items()},
    )


def _record(cls: type) -> Codec:
    """``[kind name, field, ...]``, the trailing defaults left out.  A
    class with a ``terms`` property writes that term list right after
    its name, and a ``Schema`` field names the schema of its patterns:
    both are the scope of the record's fields."""
    hints, fields = get_type_hints(cls), dataclasses.fields(cls)
    names = [f.name for f in fields]
    read = attrgetter(*names) if len(names) > 1 else lambda obj: (getattr(obj, names[0]),)
    codecs = [_codec(hints[name]) for name in names]
    missing = dataclasses.MISSING
    defaults = [f.default if f.default_factory is missing else f.default_factory() for f in fields]
    required = sum(f.default is missing and f.default_factory is missing for f in fields)
    kind = cls.__name__
    has_terms = isinstance(vars(cls).get("terms"), property)
    schema_at = next((i for i, name in enumerate(names)
                      if hints[name] in (Schema, Optional[Schema])), None)
    scoped, head = has_terms or schema_at is not None, 2 if has_terms else 1
    validate = vars(cls).get("validate")

    def encode(obj, scope):
        values = read(obj)
        end = len(values)
        while end > required and _is_default(values[end - 1], defaults[end - 1]):
            end -= 1
        record = [kind]
        if scoped:
            terms = obj.terms if has_terms else None
            scope = _Scope(scope.resolve, None if schema_at is None else values[schema_at], terms)
            if has_terms:
                record.append(_encode_terms(terms))
        record += [value if enc is _identity else enc(value, scope)
                   for (enc, _), value in zip(codecs, values[:end])]
        return record

    def decode(record, scope):
        if type(record) is not list or len(record) < head + required or record[0] != kind:
            raise CodecError(f"{_clip(record)} is no {kind} record")
        values = record[head:head + len(names)]
        if scoped:
            schema = None
            if schema_at is not None and schema_at < len(values):
                schema = codecs[schema_at][1](values[schema_at], scope)
            scope = _Scope(scope.resolve, schema, _decode_terms(record[1]) if has_terms else None)
        obj = cls(*[dec(value, scope) for (_, dec), value in zip(codecs, values)])
        if validate is not None:
            validate(obj)
        return obj

    return encode, decode


def _is_default(value, default) -> bool:
    return value is default or (type(value) is type(default) and value == default)


def _is_index(value, size: int) -> bool:
    """``value`` is a position into ``size`` items (a bool is not)."""
    return type(value) is int and 0 <= value < size


# ----------------------------------------------------------------------
# leaves: terms, term lists, and the tables and triples indexing them
# ----------------------------------------------------------------------
#: a term written whole: ``[class name, value, ...]``, trailing nulls left out
_TERM_FIELDS = {
    URI: ("value",), BNode: ("id",), Variable: ("name",),
    Literal: ("lexical", "datatype", "language"),
}
_TERM_KINDS = {cls.__name__: cls for cls in _TERM_FIELDS}


def _encode_terms(terms) -> dict:
    """Each distinct URI namespace once, in ``ns``; in ``t`` each URI as
    ``[namespace index, local part]``, any other term (a URI with no
    ``#`` or ``/`` too) whole."""
    namespaces: Dict[str, int] = {}
    entries = []
    for term in terms:
        namespace, local = term.split if type(term) is URI else ("", None)
        if namespace:
            entries.append([namespaces.setdefault(namespace, len(namespaces)), local])
            continue
        values = [getattr(term, name) for name in _TERM_FIELDS[type(term)]]
        while values[-1] is None:
            values.pop()
        entries.append([type(term).__name__, *(v.value if type(v) is URI else v for v in values)])
    return {"ns": list(namespaces), "t": entries}


def _decode_terms(value) -> tuple:
    """Rebuild a term list, refusing any namespace or local part that
    is not a string, an index naming no namespace, an empty URI and an
    entry that is no term."""
    namespaces, entries = (value.get("ns"), value.get("t")) if type(value) is dict else (0, 0)
    if type(namespaces) is not list or any(type(n) is not str for n in namespaces):
        raise CodecError(f"{_clip(value)} is not a term list")
    terms, size = [], len(namespaces)
    for entry in _checked(entries):
        if type(entry) is list and len(entry) == 2 and type(entry[0]) is int:
            index, local = entry  # a URI: [namespace index, local part]
            if not 0 <= index < size or type(local) is not str:
                raise CodecError(f"{_clip(entry)} names no namespace's term")
            terms.append(URI(namespaces[index] + local))
            continue
        head = entry[0] if type(entry) is list and entry else None
        kind = _TERM_KINDS.get(head) if type(head) is str else None
        values = entry[1:] if kind else ()
        if (not 0 < len(values) <= len(_TERM_FIELDS[kind]) or type(values[0]) is not str
                or any(v is not None and type(v) is not str for v in values)):
            raise CodecError(f"{_clip(entry)} is not a term")
        if len(values) > 1 and values[1] is not None:  # a literal's datatype
            values[1] = URI(values[1])
        terms.append(kind(*values))
    return tuple(terms)


def _encode_table(table: EncodedTable, scope: _Scope) -> list:
    record = [list(table.columns), [list(column) for column in table.ids], table.length]
    return record if scope.terms is not None else record + [_encode_terms(table.terms)]


def _decode_table(record, scope: _Scope) -> EncodedTable:
    """Rebuild a table over its payload's term list (or its own),
    refusing one that is not rectangular or whose cells do not name
    those terms.

    Checked here, where the frame is: the receiver indexes the terms by
    these ids inside a message handler, past the ``except CodecError``
    that drops a corrupt connection — and a negative id would not even
    fail there, it would silently alias a term from the end.
    """
    columns, ids, length = _checked(record)[:3]
    columns = _NAMES[1](columns, scope)
    terms = _decode_terms(record[3]) if scope.terms is None else scope.terms
    if any(type(column) is not list for column in _checked(ids)):
        raise CodecError("table cells are not a list of columns")
    try:
        # one C pass per column (it refuses non-integers), then min/max
        cells = [array("q", column) for column in ids]
    except (TypeError, OverflowError):
        raise CodecError("table holds a non-integer id") from None
    if (len(cells) != len(columns) or type(length) is not int or length < 0
            or any(len(column) != length for column in cells)):
        raise CodecError(f"table is not {len(columns)} columns by {_clip(length)} rows")
    if any(c and (min(c) < 0 or max(c) >= len(terms)) for c in cells):
        raise CodecError(f"table has an id outside its {len(terms)} terms")
    return EncodedTable(columns, terms, tuple(map(tuple, ids)), length)


_TRIPLE_KINDS = {"+": InsertTriple, "-": DeleteTriple}


def _encode_update(update, scope: _Scope):
    """A triple record as ``["+"|"-", s, p, o]``, positions into the
    batch's term list; a view redefinition as its record."""
    if type(update) is RedefineViews:
        return _VIEWS[0](update, scope)
    return ["+" if type(update) is InsertTriple else "-", *map(scope.position, update.triple)]


def _decode_update(record, scope: _Scope):
    kind = record[0] if type(record) is list and record else None
    if type(kind) is not str or kind not in _TRIPLE_KINDS:
        return _VIEWS[1](record, scope)
    terms = scope.terms
    if len(record) != 4 or not all(_is_index(i, len(terms)) for i in record[1:]):
        raise CodecError(f"{_clip(record)} is no triple record over {len(terms)} terms")
    return _TRIPLE_KINDS[kind](Triple(*(terms[i] for i in record[1:])))


# ----------------------------------------------------------------------
# leaves: schemas, patterns and plans
# ----------------------------------------------------------------------
def _decode_schema(fingerprint, scope: _Scope) -> Schema:
    schema = scope.resolve(fingerprint) if type(fingerprint) is str else None
    if schema is None:
        raise CodecError(f"no schema known by the fingerprint {_clip(fingerprint)}")
    return schema


def _decode_uri(value, scope: _Scope) -> URI:
    if type(value) is str:
        return URI(value)
    terms = scope.schema_terms
    if type(value) is not int or not 0 <= value < len(terms):
        raise CodecError(f"{_clip(value)} names none of {len(terms)} schema terms")
    return terms[value]


def _encode_path(pattern: PathPattern, scope: _Scope) -> list:
    path, ids = pattern.schema_path, scope.ids
    return [
        pattern.label, ids.get(path.domain, path.domain.value),
        ids.get(path.property, path.property.value), ids.get(path.range, path.range.value),
        pattern.subject_var, pattern.object_var, list(pattern.projected),
    ]


def _decode_path(record, scope: _Scope) -> PathPattern:
    label, domain, property_, range_, subject, object_, projected = _checked(record, list, 7)
    if not (type(label) is str and type(subject) in _NAME and type(object_) in _NAME
            and type(projected) is list and all(type(v) is str for v in projected)):
        raise CodecError(f"{_clip(record)} names a label or variable by a non-string")
    path = SchemaPath(_decode_uri(domain, scope), _decode_uri(property_, scope),
                      _decode_uri(range_, scope))
    return PathPattern(label, path, subject, object_, tuple(projected))


#: the types of a variable's name (``None``: no variable at that end)
_NAME = (str, type(None))


def _encode_query(pattern: QueryPattern, scope: _Scope) -> list:
    inner = _Scope(scope.resolve, pattern.schema)
    return [pattern.schema.fingerprint, [_encode_path(p, inner) for p in pattern.patterns],
            list(pattern.projections)]


def _decode_query(record, scope: _Scope) -> QueryPattern:
    fingerprint, patterns, projections = _checked(record, list, 3)
    schema = _decode_schema(fingerprint, scope)
    inner = _Scope(scope.resolve, schema)
    patterns = [_decode_path(p, inner) for p in _checked(patterns)]
    return QueryPattern(patterns, _NAMES[1](projections, scope), schema)


def _encode_annotated(annotated: AnnotatedQueryPattern, scope: _Scope) -> list:
    """``[query pattern record, [[index, [[peer, exact], ...]], ...]]``
    per annotated pattern — an annotation whose rewritten pattern is not
    the query's own adds it, as a record over the same schema."""
    query = annotated.query_pattern
    inner, entries = _Scope(scope.resolve, query.schema), []
    for index, pattern in enumerate(query.patterns):
        annotations = annotated.annotations(pattern)
        if annotations:
            entries.append([index, [
                [a.peer_id, a.exact] if a.rewritten == pattern
                else [a.peer_id, a.exact, _encode_path(a.rewritten, inner)]
                for a in annotations
            ]])
    return [_encode_query(query, scope), entries]


def _decode_annotated(record, scope: _Scope) -> AnnotatedQueryPattern:
    query, entries = _checked(record, list, 2)
    query = _decode_query(query, scope)
    inner, patterns = _Scope(scope.resolve, query.schema), query.patterns
    annotated = AnnotatedQueryPattern(query)
    for entry in _checked(entries):
        index, annotations = _checked(entry, list, 2)
        if not _is_index(index, len(patterns)):
            raise CodecError(f"{_clip(index)} annotates none of {len(patterns)} patterns")
        pattern = patterns[index]
        annotated.extend_trusted(pattern, [
            _annotation(a, pattern, inner) for a in _checked(annotations)
        ])
    return annotated


def _annotation(entry, pattern: PathPattern, scope: _Scope) -> PeerAnnotation:
    if (type(entry) is not list or len(entry) not in (2, 3)
            or type(entry[0]) is not str or type(entry[1]) is not bool):
        raise CodecError(f"{_clip(entry)} is no peer id and exact flag")
    rewritten = _decode_path(entry[2], scope) if len(entry) == 3 else pattern
    return PeerAnnotation(entry[0], rewritten, entry[1])


def _encode_plan(node: algebra.PlanNode, scope: _Scope) -> list:
    """``[kind, body]``: a scan's ``[site, [path record, ...]]``, a
    hole's record, a join's or union's children."""
    kind = type(node)
    if kind is algebra.Scan:
        body = _SCAN[0]((node.peer_id, node.patterns()), scope)
    elif kind is algebra.Hole:
        body = _encode_path(node.pattern, scope)
    else:
        body = [_encode_plan(child, scope) for child in node.children()]
    return [kind.__name__, body]


def _decode_plan(record, scope: _Scope) -> algebra.PlanNode:
    kind, body = _checked(record, list, 2)
    if kind == "Hole":
        return algebra.Hole(_decode_path(body, scope))
    if kind == "Scan":
        site, patterns = _SCAN[1](body, scope)
        return algebra.Scan(list(patterns), site)
    if kind in ("Join", "Union"):
        return getattr(algebra, kind)(list(_CHILDREN[1](body, scope)))
    raise CodecError(f"{_clip(record)} is no plan node")


def _decode_advertisement(value, scope: _Scope) -> ActiveSchema:
    for key, decode in _ADVERTISEMENT:
        decode(_checked(value, dict).get(key), scope)
    return ActiveSchema.from_dict(value)


def _encode_envelope(message: Message, scope: _Scope) -> dict:
    fields = {"src": message.src, "dst": message.dst, "size": message.size}
    if message.trace is not None:
        # an untraced message (an unsampled query's, or no query's)
        # has no trace position at all
        fields["trace"] = _TRACE[0](message.trace, scope)
    fields["payload"] = _PAYLOAD[0](message.payload, scope)
    return fields


def _decode_envelope(fields, scope: _Scope) -> Message:
    _checked(fields, dict)
    return Message(
        _STR[1](fields.get("src"), scope),
        _STR[1](fields.get("dst"), scope),
        _PAYLOAD[1](fields.get("payload"), scope),
        size=_SIZE[1](fields.get("size"), scope),
        trace=_TRACE[1](fields.get("trace"), scope),
    )


_LEAVES: Dict[Any, Codec] = {
    URI: (lambda uri, scope: scope.ids.get(uri, uri.value), _decode_uri),
    Schema: (lambda schema, scope: schema.fingerprint, _decode_schema),
    PathPattern: (_encode_path, _decode_path),
    QueryPattern: (_encode_query, _decode_query),
    AnnotatedQueryPattern: (_encode_annotated, _decode_annotated),
    algebra.PlanNode: (_encode_plan, _decode_plan),
    EncodedTable: (_encode_table, _decode_table),
    UpdateRecord: (_encode_update, _decode_update),
    ActiveSchema: (lambda advertisement, scope: advertisement.to_dict(), _decode_advertisement),
    Message: (_encode_envelope, _decode_envelope),  # the one a bounce carries
}
_HOP = _codec(Tuple[URI, URI, URI])
_LEAVES[SchemaPath] = (
    lambda path, scope: _HOP[0]((path.domain, path.property, path.range), scope),
    lambda record, scope: SchemaPath(*_HOP[1](record, scope)),
)
_STR, _SIZE, _NAMES = _codec(str), _codec(Optional[int]), _codec(Tuple[str, ...])
_SCAN = _codec(Tuple[str, Tuple[PathPattern, ...]])
_CHILDREN = _codec(Tuple[algebra.PlanNode, ...])
_VIEWS, _TRACE = _codec(RedefineViews), _codec(Optional[TraceContext])
_ADVERTISEMENT = [(key, _codec(hint)[1]) for key, hint in (
    ("schema", str), ("peer", Optional[str]),
    ("paths", Tuple[Tuple[str, str, str], ...]), ("classes", Tuple[str, ...]),
)]
_PAYLOAD = _codec(Payload)


# ----------------------------------------------------------------------
# the public surface
# ----------------------------------------------------------------------
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


def _codec_errors(function):
    """``function``, raising whatever a hostile or mistyped value
    breaks in it as the :class:`CodecError` a live reader drops the
    link on."""
    @wraps(function)
    def guarded(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        except CodecError:
            raise
        except (LookupError, TypeError, ValueError, AttributeError, RecursionError,
                SQPeerError) as exc:
            raise CodecError(f"malformed payload: {type(exc).__name__}: {exc}") from None

    return guarded


@_codec_errors
def encode_as(hint, value) -> Any:
    """Encode ``value`` as its annotation ``hint`` (a payload class,
    ``Tuple[str, int]``, ...) reads it, to a JSON-compatible value."""
    return _codec(hint)[0](value, _Scope(None))


@_codec_errors
def decode_as(hint, value, schemas: Optional[Iterable[Schema]] = None) -> Any:
    """Rebuild a value of annotation ``hint`` from :func:`encode_as`
    output (patterns over ``schemas``, see :func:`decode_message`)."""
    return _codec(hint)[1](value, _Scope(_resolver(schemas)))


def encode_payload(payload: Any) -> list:
    """Encode one protocol payload object to its positional record."""
    return encode_as(Payload, payload)


def decode_payload(value: list, schemas: Optional[Iterable[Schema]] = None) -> Any:
    """Rebuild a payload object from :func:`encode_payload` output."""
    return decode_as(Payload, value, schemas)


@_codec_errors
def encode_message(message: Message) -> dict:
    """Encode a message envelope (payload, addressing, size, trace).

    The local ``id`` is not encoded; the decoded message draws a fresh
    one from the receiving process's counter.
    """
    return _encode_envelope(message, _Scope(None))


@_codec_errors
def decode_message(fields: dict, schemas: Optional[Iterable[Schema]] = None) -> Message:
    """Rebuild a :class:`Message` (unknown envelope keys are ignored).

    A query pattern names its schema by fingerprint; it resolves to the
    one of ``schemas`` with that fingerprint — the receiver's own object
    — and to no schema at all is a :class:`CodecError`.  ``None``
    resolves against the schemas this process fingerprinted.
    """
    return _decode_envelope(fields, _Scope(_resolver(schemas)))


#: the one frame encoder: ``json.dumps`` with these options would build
#: a new encoder per frame; a frame has no cycles to check for
_FRAME_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def encode_frame(kind: str, body: dict) -> bytes:
    """Serialise one wire frame body (sans length prefix) as JSON."""
    return _FRAME_ENCODER.encode({"kind": kind, "body": body}).encode()


def decode_frame(data: bytes) -> Tuple[str, dict]:
    """Parse a frame; returns ``(kind, body)``, ignoring unknown keys."""
    try:
        parsed = json.loads(data.decode())
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:  # nested past the stack
        raise CodecError(f"malformed frame: {exc}") from None
    if not isinstance(parsed, dict) or "kind" not in parsed:
        raise CodecError("frame missing 'kind'")
    body = parsed.get("body", {})
    if not isinstance(body, dict):
        raise CodecError("frame body is not an object")
    return parsed["kind"], body
