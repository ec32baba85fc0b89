"""Test helpers: reaching a field inside a payload's positional wire
record (``[kind name, (term list,) field, ...]``)."""

import dataclasses
from typing import get_args, get_type_hints

from repro.transport.codec import Payload, encode_as

#: payload kind name -> class
KINDS = {cls.__name__: cls for cls in get_args(Payload)}


def position(kind, name):
    """Where field ``name`` sits in a ``kind`` record: after the kind
    name (and the term list of a kind with a ``terms`` property), in
    field order."""
    head = 2 if isinstance(vars(kind).get("terms"), property) else 1
    return head + [f.name for f in dataclasses.fields(kind)].index(name)


def field(body, name):
    """Field ``name`` of a message body's payload record."""
    payload = body["payload"]
    return payload[position(KINDS[payload[0]], name)]


def set_field(body, name, value):
    payload = body["payload"]
    payload[position(KINDS[payload[0]], name)] = value


def written_out(record):
    """``record`` with every field of its kind present: the trailing
    defaults its sender left out written back, as a sender that added a
    field after them would write them."""
    kind = KINDS[record[0]]
    hints, fields = get_type_hints(kind), dataclasses.fields(kind)
    for f in fields[len(record) - position(kind, fields[0].name):]:
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        record.append(encode_as(hints[f.name], default))
    return record
