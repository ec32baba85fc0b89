"""Dictionary-encoded columnar execution: the scan/build/probe path.

Matching every asserted triple of a property against a pattern's
domain/range constraints is the dominant cost of query evaluation.  An
:class:`EncodedBase` does that entailment work once per ``(domain,
property, range)`` schema path and caches the result as a pair of
**encoded ID columns** (subject ids, object ids) interned through the
owning peer's :class:`~repro.rdf.dictionary.TermDictionary`.  Scans then
become cache lookups returning *id tables* — column-major
:class:`~repro.execution.batch.BindingBatch` values whose cells are
ints —, joins run over small integers via that class's value-agnostic
kernels, and terms appear only where a table crosses a link: as an
:class:`EncodedTable`, the one wire form of a binding table, which
names each of its distinct terms once — and where the engine's only
two pivots to the row-major term table are (:meth:`EncodedTable.of_terms`,
:meth:`EncodedTable.to_terms`).

Matching semantics are shared by construction:
:func:`~repro.rql.evaluator.path_triple_matches` is the single matcher
both the centralized evaluator (the test oracle) and the column builder
call, so the two cannot drift apart.

Cached column lists are handed to the scan's join cascade *without
copying*: no batch kernel mutates its input columns in place
(``gather``/``concat``/``project`` all allocate fresh lists), an
invariant the property suite pins down.  The cache itself does mutate
them — :meth:`EncodedBase.apply_delta` patches columns in place — so a
batch that *leaves* :func:`evaluate_scan_encoded` never aliases one: a
multi-pattern scan's columns are fresh from the join, a single-pattern
scan copies its own.  Cache validity keys on ``Graph.version``, so
base mutations invalidate stale columns.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.algebra import Scan
from ..rdf.dictionary import TermDictionary
from ..rdf.graph import Graph
from ..rdf.inference import InferredView
from ..rdf.schema import Schema
from ..rdf.terms import URI, Term
from ..rql.bindings import BindingTable, table_size_bytes, terms_size_bytes
from ..rql.evaluator import path_triple_matches
from ..rql.pattern import SchemaPath
from .batch import BindingBatch


@dataclass(frozen=True)
class EncodedTable:
    """A binding table in the one form that crosses a link.

    ``terms`` holds each distinct term of *this* table (or of the
    packet it rides in, :meth:`of_batches`) once, in first-use order;
    ``ids`` holds the cells column-major as positions into ``terms``.
    A table is therefore self-contained: whoever receives it can
    :meth:`intern` it into its own id space (or read it back
    :meth:`to_terms`) knowing nothing about the sender's dictionary or
    about any other packet of the same stream.
    """

    columns: Tuple[str, ...]
    terms: Tuple[Term, ...]
    ids: Tuple[Tuple[int, ...], ...]  # one tuple per column
    length: int

    @classmethod
    def of_batch(
        cls, batch: BindingBatch, resolve: Callable[[Iterable], Iterable[Term]]
    ) -> "EncodedTable":
        """Pack a batch: number its distinct cell values in first-use
        order and let ``resolve`` turn them into terms."""
        return cls.of_batches((batch,), resolve)[0]

    @classmethod
    def of_batches(
        cls, batches: Sequence[BindingBatch], resolve: Callable
    ) -> Tuple["EncodedTable", ...]:
        """Pack batches over one numbering of their distinct cell values:
        the tables share one ``terms`` tuple, each term resolved once."""
        positions = defaultdict(count().__next__)
        position = positions.__getitem__
        ids = [
            tuple([tuple(map(position, batch.data[c])) for c in batch.columns])
            for batch in batches
        ]
        terms = tuple(resolve(positions))
        return tuple(
            cls(batch.columns, terms, cells, batch.length)
            for batch, cells in zip(batches, ids)
        )

    @classmethod
    def pack(
        cls, batches: Sequence[BindingBatch], resolve: Callable
    ) -> Tuple[Tuple["EncodedTable", ...], int]:
        """:meth:`of_batches`, and the packed tables' modelled wire
        size with them: each table's header and cells, and their one
        term list once (:func:`~repro.rql.bindings.table_size_bytes`)."""
        tables = cls.of_batches(batches, resolve)
        size = terms_size_bytes(tables[0].terms) if tables else 0
        for table in tables:
            columns = table.columns
            size += table_size_bytes(columns, len(columns) * table.length, ())
        return tables, size

    @classmethod
    def of_terms(cls, table: BindingTable) -> "EncodedTable":
        """Pack a table whose cells are terms."""
        return cls.of_batch(BindingBatch.from_table(table), tuple)

    def intern(self, dictionary: TermDictionary) -> BindingBatch:
        """The table as an id table in ``dictionary``'s space: one
        ``encode`` per term, then a list index per cell (idempotent:
        interning is)."""
        return self.over(dictionary.encode_many(self.terms))

    def to_terms(self) -> BindingTable:
        """The table with its cells materialised as terms."""
        return self.over(self.terms).to_table()

    def over(self, values: Sequence) -> BindingBatch:
        """The cells as a batch of ``values[position]`` — ``values``
        being ``terms`` already mapped (interned, say) in order."""
        value = values.__getitem__
        data = {
            name: list(map(value, column))
            for name, column in zip(self.columns, self.ids)
        }
        return BindingBatch(self.columns, data, length=self.length)

    def size_bytes(self) -> int:
        return table_size_bytes(
            self.columns, len(self.columns) * self.length, self.terms
        )

    def __len__(self) -> int:
        return self.length


class EncodedBase:
    """Per-peer columnar store: entailed pattern columns, cached.

    Args:
        graph: The peer's asserted base.
        schema: The community schema entailment runs under.
        dictionary: The owning peer's id space; every column interns
            through it, so all of a peer's bases share one.
    """

    def __init__(self, graph: Graph, schema: Schema, dictionary: TermDictionary):
        self.graph = graph
        self.schema = schema
        self.dictionary = dictionary
        #: (domain, property, range) → (subject id column, object id column)
        self._columns: Dict[Tuple[URI, URI, URI], Tuple[List[int], List[int]]] = {}
        #: property → entailed asserted-triple count (cardinality feedback)
        self._counts: Dict[URI, int] = {}
        self._version = graph.version

    def _fresh(self) -> None:
        if self.graph.version != self._version:
            self._columns.clear()
            self._counts.clear()
            self._version = self.graph.version

    def pattern_columns(self, path: SchemaPath) -> Tuple[List[int], List[int]]:
        """The encoded (subject, object) columns of one schema path,
        built on first use and cached until the graph changes."""
        self._fresh()
        key = (path.domain, path.property, path.range)
        cached = self._columns.get(key)
        if cached is not None:
            return cached
        view = InferredView(self.graph, self.schema)
        schema = self.schema
        encode = self.dictionary.encode
        subjects: List[int] = []
        objects: List[int] = []
        for triple in view.triples(None, path.property, None):
            if not path_triple_matches(triple, path, schema, view):
                continue
            subjects.append(encode(triple.subject))
            objects.append(encode(triple.object))
        self._columns[key] = (subjects, objects)
        return subjects, objects

    def _schema_decided(self, path: SchemaPath) -> bool:
        """Whether :func:`path_triple_matches` for this path is decided
        per-triple by the schema alone — no ``is_instance_of`` fallback
        that could depend on *other* statements of the base.

        Only then can a column be patched in place on updates: its
        content is a pure function of the statements asserting the
        path's subproperty closure.
        """
        from ..rdf.vocabulary import LITERAL_CLASS

        schema = self.schema
        if not schema.has_property(path.property):
            return False
        for sub in schema.subproperties(path.property):
            definition = schema.property_def(sub)
            if not schema.is_subclass(definition.domain, path.domain):
                return False
            if path.range == LITERAL_CLASS:
                continue  # match reduces to isinstance(obj, Literal)
            if definition.range == LITERAL_CLASS or not schema.is_subclass(
                definition.range, path.range
            ):
                return False
        return True

    def _accepts(self, path: SchemaPath, triple) -> bool:
        """Per-triple acceptance for a schema-decided path (the residue
        of :func:`path_triple_matches` once the class checks are known
        to hold by schema): only the literal-shape check on the object
        remains."""
        from ..rdf.terms import Literal
        from ..rdf.vocabulary import LITERAL_CLASS

        if path.range == LITERAL_CLASS:
            return isinstance(triple.object, Literal)
        return not isinstance(triple.object, Literal)

    def apply_delta(self, inserted, deleted) -> None:
        """Patch the cached id columns for one applied update batch —
        the incremental alternative to the ``_fresh()`` wipe.

        The term dictionary is never rebuilt (ids are stable), columns
        of schema-decided paths are appended to / spliced in place, and
        only columns whose matching depends on instance membership —
        which *any* statement can flip under RDFS domain/range
        entailment — are dropped for lazy re-derivation.  Must be
        called immediately after the graph mutations it describes;
        content is multiset-identical to a from-scratch rebuild (the
        property suite pins this).
        """
        touched: set = set()
        for triple in list(inserted) + list(deleted):
            predicate = triple.predicate
            if self.schema.has_property(predicate):
                touched.update(self.schema.superproperties(predicate))
            else:
                touched.add(predicate)
        encode = self.dictionary.encode
        for key in list(self._columns):
            path = SchemaPath(*key)
            if not self._schema_decided(path):
                del self._columns[key]
                continue
            if path.property not in touched:
                continue
            subjects, objects = self._columns[key]
            closure = set(self.schema.subproperties(path.property))
            for triple in inserted:
                if triple.predicate in closure and self._accepts(path, triple):
                    subjects.append(encode(triple.subject))
                    objects.append(encode(triple.object))
            for triple in deleted:
                if triple.predicate in closure and self._accepts(path, triple):
                    sid, oid = encode(triple.subject), encode(triple.object)
                    for index in range(len(subjects) - 1, -1, -1):
                        if subjects[index] == sid and objects[index] == oid:
                            del subjects[index]
                            del objects[index]
                            break
        for prop in list(self._counts):
            if self.schema.has_property(prop):
                closure = set(self.schema.subproperties(prop))
            else:
                closure = {prop}
            self._counts[prop] += sum(
                1 for t in inserted if t.predicate in closure
            ) - sum(1 for t in deleted if t.predicate in closure)
        self._version = self.graph.version

    def property_count(self, prop: URI) -> int:
        """Entailed asserted-triple count for a property, cached until
        the graph changes."""
        self._fresh()
        count = self._counts.get(prop)
        if count is None:
            view = InferredView(self.graph, self.schema)
            count = sum(1 for _ in view.triples(None, prop, None))
            self._counts[prop] = count
        return count


def evaluate_scan_encoded(scan: Scan, base: EncodedBase) -> BindingBatch:
    """Evaluate a (possibly composite) scan on the encoded columns.

    Per-pattern id columns come straight from the cache (shared, not
    copied — see the module invariant); the join cascade runs the
    hash-join over ints.  The result is an *id table* in ``base``'s
    dictionary space: the whole join/union pipeline above it stays on
    ints and terms materialise only at the final answer.
    """
    patterns = scan.patterns()
    if len(patterns) == 1:
        # a lone pattern's columns are the cache's own lists, which
        # ``apply_delta`` patches in place: hand out copies, so a query
        # holding this batch across an update keeps what it scanned
        (pattern,) = patterns
        subjects, objects = base.pattern_columns(pattern.schema_path)
        return _pattern_batch(pattern, subjects, objects, copy=True)
    result: Optional[BindingBatch] = None
    for pattern in patterns:
        batch = _pattern_batch(pattern, *base.pattern_columns(pattern.schema_path))
        result = batch if result is None else result.hash_join(batch)
    return result if result is not None else BindingBatch(())


def _pattern_batch(
    pattern, subjects: List[int], objects: List[int], copy: bool = False
) -> BindingBatch:
    """One pattern's matches as a batch over its variables (over
    copies of the id columns it keeps, with ``copy``)."""
    columns = pattern.variables()
    if not columns:
        return BindingBatch((), length=len(subjects))
    data: Dict[str, List[int]] = {}
    if pattern.subject_var:
        data[pattern.subject_var] = list(subjects) if copy else subjects
    if pattern.object_var:
        data[pattern.object_var] = list(objects) if copy else objects
    return BindingBatch(columns, data)
