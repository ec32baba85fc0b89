"""Outside-in tracing: spans around the layers' public entry points,
recorded from this file — nothing under ``src/`` knows about it.

``TARGETS`` is the one table that says what is wrapped.  Installing a
target patches the attribute on its defining module or class *and* every
``repro.*`` module global bound to the same object (call sites use
``from ... import``).  A target that no longer resolves — a later change
may move or rename it and may not edit this directory — is listed in
``unresolved`` and every metric fed by its span reads ``None``; the run
and all end-to-end metrics still succeed.

A span carries its name, start, end, parent span, the index of the
operation in flight, and one count taken from the call (rows scanned,
peers annotated, ...).  Spans stay in memory until the run ends.  A
layer's *self* time is its spans' duration minus the part of it their
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: index of the operation in flight outside any timed operation
NO_OP = -1
#: stands for the result of a wrapped call that raised
_FAILED = object()


def _rows(table) -> int:
    """Rows of a ``BindingTable`` or an ``EncodedTable``."""
    try:
        return len(table)
    except TypeError:
        return getattr(table, "length", 0)


def _rows_in(args, kwargs, result) -> int:
    return sum(_rows(table) for table in args[0])


def _rows_in_one(args, kwargs, result) -> int:
    return _rows(args[0])


def _rows_out(args, kwargs, result) -> int:
    return _rows(result)


def _peers_annotated(args, kwargs, result) -> int:
    return len(result.all_peers())


def _scans_in_plan(args, kwargs, result) -> int:
    return sum(1 for node in result.walk() if type(node).__name__ == "Scan")


def _packet_rows(args, kwargs, result) -> int:
    return args[1].rows  # (manager, packet)


def _cache_hit(args, kwargs, result) -> int:
    return 0 if result is None else 1


def _events(args, kwargs, result) -> int:
    return result if isinstance(result, int) else 0


def _records(args, kwargs, result) -> int:
    return len(args[1].updates)  # (maintainer, batch)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    Attributes:
        span: Span name, ``<layer>.<operation>``; several targets may
            share one (their spans are summed).
        path: ``module:attribute`` or ``module:Class.method``.
        count: Optional ``(args, kwargs, result) -> number`` taken from
            each call and summed per span name.
    """

    span: str
    path: str
    count: Optional[Callable] = None


_OPERATORS = "repro.execution.operators"
_BATCH = "repro.execution.batch"
_MANAGER = "repro.channels.manager:ChannelManager"
_CLUSTER = "repro.deploy.launcher:LiveCluster"

TARGETS: Tuple[Target, ...] = (
    Target("rql.parse", "repro.rql.parser:parse_query"),
    Target("rql.pattern", "repro.rql.pattern:extract_pattern"),
    Target("subsumption.check", "repro.subsumption.checker:is_subsumed"),
    Target("subsumption.check", "repro.subsumption.checker:can_answer"),
    Target("subsumption.check", "repro.subsumption.checker:covers_pattern"),
    Target("subsumption.rewrite", "repro.subsumption.rewriter:rewrite_for_peer"),
    Target("routing.route", "repro.core.routing_index:RoutingIndex.route", _peers_annotated),
    Target("routing.route_query", "repro.core.routing:route_query"),
    Target("cache.routing_get", "repro.cache.routing_cache:RoutingCache.get", _cache_hit),
    Target("cache.plan_get", "repro.cache.plan_cache:PlanCache.get", _cache_hit),
    Target("planning.build", "repro.core.planning:build_plan", _scans_in_plan),
    Target("optimizer.optimize", "repro.core.optimizer:optimize"),
    Target("execution.scan", "repro.peers.base:PeerBase.evaluate_scan", _rows_out),
    Target("execution.kernel", f"{_OPERATORS}:union_all", _rows_in),
    Target("execution.kernel", f"{_OPERATORS}:join_all", _rows_in),
    Target("execution.kernel", f"{_OPERATORS}:vunion_all", _rows_in),
    Target("execution.kernel", f"{_OPERATORS}:vjoin_all", _rows_in),
    Target("execution.kernel", f"{_OPERATORS}:vunion_all_distinct", _rows_in),
    Target("execution.kernel", f"{_OPERATORS}:vjoin_all_distinct", _rows_in),
    Target("execution.kernel", f"{_BATCH}:concat_tables", _rows_in),
    Target("execution.kernel", f"{_BATCH}:split_table", _rows_in_one),
    Target("execution.finalize", f"{_OPERATORS}:finalize", _rows_out),
    Target("execution.finalize", f"{_OPERATORS}:finalize_encoded", _rows_out),
    Target("channels.open", f"{_MANAGER}.open"),
    Target("channels.on_data", f"{_MANAGER}.on_data", _packet_rows),
    Target("channels.on_dictionary", f"{_MANAGER}.on_dictionary"),
    Target("channels.on_failure", f"{_MANAGER}.on_failure"),
    Target("channels.discard", f"{_MANAGER}.discard"),
    Target("net.send", "repro.net.simulator:Network.send"),
    Target("net.run", "repro.net.simulator:Network.run", _events),
    Target("peers.receive", "repro.peers.base:Peer.receive"),
    Target("livedata.apply", "repro.livedata.maintenance:LiveMaintainer.apply", _records),
    Target("transport.submit", f"{_CLUSTER}.submit"),
    Target("transport.await_result", f"{_CLUSTER}.await_result"),
    Target("transport.run_until", "repro.transport.live:AsyncioTransport.run_until"),
    Target("deploy.start", f"{_CLUSTER}.start"),
    Target("deploy.shutdown", f"{_CLUSTER}.shutdown"),
)

#: the codec stages the transport probe replays captured messages through
CODEC_STAGES: Tuple[Tuple[str, str], ...] = (
    ("encode_message", "repro.transport.codec:encode_message"),
    ("encode_frame", "repro.transport.codec:encode_frame"),
    ("pack_frame", "repro.transport.framing:pack_frame"),
    ("FrameReader", "repro.transport.framing:FrameReader"),
    ("decode_frame", "repro.transport.codec:decode_frame"),
    ("decode_message", "repro.transport.codec:decode_message"),
)


def resolve(path: str):
    """``(owner, attribute name, object)`` for a target path.

    Raises:
        LookupError: When the module, class or attribute is gone.
    """
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{path}: {exc}") from None
    *parents, name = dotted.split(".")
    try:
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, name, getattr(owner, name)
    except AttributeError as exc:
        raise LookupError(f"{path}: {exc}") from None


@dataclass
class SpanStats:
    """Totals of one span name over the timed operations."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: float = 0.0


class SpanRecorder:
    """Installs the wrappers and holds the spans they record.

    A span is the tuple ``(id, name, start, end, self_s, parent id,
    operation index, count)``; ``parent id`` 0 means no enclosing span.
    """

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = tuple(targets)
        self.spans: List[tuple] = []
        #: target paths that did not resolve at install time
        self.unresolved: List[str] = []
        #: operation in flight (``NO_OP`` outside the timed section)
        self.op = NO_OP
        #: messages seen by ``net.send`` during timed operations, kept
        #: (up to ``capture_limit``) for the transport codec probe
        self.captured: List[object] = []
        self.capture_limit = 0
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        """Patch every resolvable target; idempotent per uninstall."""
        if self._patches:
            return
        self.unresolved = []
        for target in self.targets:
            try:
                owner, name, original = resolve(target.path)
            except LookupError:
                self.unresolved.append(target.path)
                continue
            wrapper = self._wrap(target, original)
            self._patch(owner, name, original, wrapper)
            if not isinstance(owner, type):
                # call sites bound the function with ``from x import f``
                for module_name, module in list(sys.modules.items()):
                    if module is owner or not module_name.startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def unresolved_spans(self) -> set:
        """Span names with at least one target that did not resolve."""
        gone = set(self.unresolved)
        return {t.span for t in self.targets if t.path in gone}

    def _wrap(self, target: Target, original):
        name, count = target.span, target.count
        capture = name == "net.send"
        stack, spans = self._stack, self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            result = _FAILED
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                counted = 0
                if count is not None and result is not _FAILED:
                    counted = count(args, kwargs, result)
                if capture and self.op != NO_OP and len(self.captured) < self.capture_limit:
                    self.captured.append(args[1])  # (network, message)
                spans.append(
                    (frame[0], name, start, end, duration - frame[1], parent,
                     self.op, counted)
                )

        return wrapper

    # -- aggregation -----------------------------------------------------
    def stats(self, timed_only: bool = True) -> Dict[str, SpanStats]:
        """Totals per span name (over timed operations by default)."""
        out: Dict[str, SpanStats] = defaultdict(SpanStats)
        for _, name, start, end, self_s, _, op, counted in self.spans:
            if timed_only and op == NO_OP:
                continue
            entry = out[name]
            entry.calls += 1
            entry.total_s += end - start
            entry.self_s += self_s
            entry.count += counted
        return out

    def span_dicts(self):
        """The raw spans as JSON-ready dicts (``--spans FILE``)."""
        for span_id, name, start, end, self_s, parent, op, counted in self.spans:
            yield {
                "id": span_id, "name": name, "start": start, "end": end,
                "self_s": self_s, "parent": parent or None,
                "op": None if op == NO_OP else op, "count": counted,
            }


# ----------------------------------------------------------------------
# transport codec probe
# ----------------------------------------------------------------------
def codec_probe(messages: Sequence[object]) -> Dict[str, Optional[float]]:
    """Replay captured messages through the wire path a live node runs
    — ``encode_message -> encode_frame -> pack_frame -> FrameReader.feed
    -> decode_frame -> decode_message`` — timing each stage.

    Returns microseconds per message for encode / framing / decode and
    the mean frame size, or ``None`` values (plus the unresolved paths
    under ``"unresolved"``) when a stage no longer resolves.
    """
    stages = {}
    unresolved = []
    for key, path in CODEC_STAGES:
        try:
            stages[key] = resolve(path)[2]
        except LookupError:
            unresolved.append(path)
    empty = {
        "encode_us_per_msg": None, "decode_us_per_msg": None,
        "framing_us_per_msg": None, "frame_bytes_per_msg": None,
        "messages": len(messages), "unresolved": unresolved,
    }
    if unresolved or not messages:
        return empty
    encode = framing = decode = 0.0
    frame_bytes = 0
    for message in messages:
        t0 = perf_counter()
        body = stages["encode_message"](message)
        payload = stages["encode_frame"]("msg", body)
        t1 = perf_counter()
        frame = stages["pack_frame"](payload)
        (received,) = stages["FrameReader"]().feed(frame)
        t2 = perf_counter()
        _, fields = stages["decode_frame"](received)
        stages["decode_message"](fields)
        t3 = perf_counter()
        encode += t1 - t0
        framing += t2 - t1
        decode += t3 - t2
        frame_bytes += len(frame)
    count = len(messages)
    return {
        "encode_us_per_msg": encode / count * 1e6,
        "decode_us_per_msg": decode / count * 1e6,
        "framing_us_per_msg": framing / count * 1e6,
        "frame_bytes_per_msg": frame_bytes / count,
        "messages": count, "unresolved": [],
    }
