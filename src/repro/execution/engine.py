"""Distributed plan execution over channels.

A :class:`PlanExecutor` runs one plan subtree *at one peer* (its
executor site).  Nodes sited at this peer are evaluated locally —
scans against the local base, joins/unions over gathered inputs —
while any subtree sited elsewhere is shipped over a channel as a
:class:`~repro.channels.packets.SubPlanPacket`; the destination peer
spins up its own executor recursively (that is how query shipping
pushes operators down, Figure 5 right).

Execution is event-driven and continuation-based: every child produces
its table asynchronously; a gather counter fires the combine step when
the last child arrives.  A peer failure anywhere below aborts the
executor once, reporting the failed peer so the query root can replan
(Section 2.5's run-time adaptation with ubQL discard semantics).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol

if TYPE_CHECKING:  # annotation only — imported lazily to avoid a cycle
    # (channels.manager uses execution.batch for stream assembly)
    from ..channels.manager import ChannelManager

from ..channels.packets import TreePath
from ..core.algebra import Hole, Join, PlanNode, Scan, Union
from ..errors import PlanningError
from ..net.simulator import Network
from ..obs.tracer import NULL_SPAN
from ..rql.bindings import BindingTable
from .batch import concat_tables
from .operators import vjoin_all_distinct, vunion_all_distinct

#: Completion continuation: (result table or None, failed peer or None).
Completion = Callable[[Optional[BindingTable], Optional[str]], None]


class ExecutorHost(Protocol):
    """What a peer must provide to host plan executors."""

    peer_id: str
    channels: ChannelManager

    def local_scan(self, scan: Scan) -> BindingTable:
        """Evaluate a scan against the local base (an id table)."""


class PlanExecutor:
    """Executes one plan subtree at one peer.

    Args:
        host: The hosting peer.
        network: The network for shipping remote subtrees.
        plan: The subtree to execute.
        sites: Execution sites keyed by tree path relative to ``plan``
            (missing inner paths default to this peer; missing scan
            paths default to the scan's own peer).
        query_id: The query this execution belongs to (tracing).
        on_complete: Called exactly once with the result or a failure.
        scan_cache: Optional scan-result cache shared across execution
            phases.  With the ubQL discard policy each attempt gets a
            fresh cache; the *phased* policy of [Ives02] passes the same
            mapping to the replanned execution so completed subresults
            are reused instead of re-shipped (the "cleanup phase"
            combines sub-results from earlier phases).
        retry: Ack/retransmit policy applied to every channel this
            executor opens (``None`` keeps fire-and-forget channels).
        trace: Parent :class:`~repro.obs.span.TraceContext`; the
            executor opens an ``execute`` span underneath it covering
            its whole lifetime, and every channel it ships stitches
            under that span.
    """

    def __init__(
        self,
        host: ExecutorHost,
        network: Network,
        plan: PlanNode,
        sites: Optional[Dict[TreePath, str]] = None,
        query_id: str = "",
        on_complete: Optional[Completion] = None,
        scan_cache: Optional[Dict[Scan, BindingTable]] = None,
        pipelined: bool = False,
        retry=None,
        trace=None,
        keep_variables: Optional[set] = None,
        early_stop: Optional[Callable[[BindingTable], bool]] = None,
    ):
        self.host = host
        self.network = network
        self.plan = plan
        self.sites = dict(sites or {})
        self.query_id = query_id
        self.on_complete = on_complete or (lambda table, failed: None)
        self.scan_cache = scan_cache
        self.pipelined = pipelined
        self.retry = retry
        self.trace = trace
        #: the variables the plan's *consumer* needs (projections plus
        #: condition variables), set only by a coordinator that owns the
        #: whole query: combines then prune dead columns, which is what
        #: keeps chain-join intermediates from exploding.  A serving
        #: peer never sets it — a shipped subplan's raw width is part of
        #: its contract with the root.
        self.keep_variables = keep_variables
        #: top-k early termination (pipelined mode only): called with
        #: the accumulated table after each emitted chunk; returning
        #: True completes with what arrived so far and discards the
        #: remaining channels through the ubQL change-plan path.  Only
        #: sound for monotone plans with order-insensitive consumers —
        #: the coordinator gates it on ``limit`` without ``order_by``.
        self.early_stop = early_stop
        self.span = NULL_SPAN
        #: virtual time of the first output rows (pipelined mode)
        self.first_output_at: Optional[float] = None
        self.reused_rows = 0
        self._finished = False
        #: every channel this executor opened (the manager forgets a
        #: channel once answered; releasing needs its final state)
        self._channels: list = []

    def _defer(self, unit: Callable[[], None]) -> None:
        """Run a local work unit through the host's fair scheduler when
        one is installed (concurrent serving interleaves per-query CPU);
        immediately otherwise (the seed's synchronous path)."""
        schedule = getattr(self.host, "_schedule_work", None)
        if schedule is None:
            unit()
        else:
            schedule(self.query_id, unit)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin execution; completion arrives via ``on_complete``."""
        self.span = self.network.tracer.start_span(
            "execute",
            peer=self.host.peer_id,
            parent=self.trace,
            query=self.query_id,
            pipelined=self.pipelined,
        )
        if self.pipelined:
            self._start_pipelined()
        else:
            self._execute(self.plan, (), self._finish_ok, self.keep_variables)

    def _start_pipelined(self) -> None:
        """Pipelined evaluation (Section 2.5's 'pipeline way'): stream
        remote chunks through incremental operators, recording the time
        the first output rows materialise."""
        accumulated: List[BindingTable] = []

        def emit(chunk: BindingTable) -> None:
            if chunk and self.first_output_at is None:
                self.first_output_at = self.network.now
            accumulated.append(chunk)
            if self.early_stop is not None and chunk and not self._finished:
                merged = concat_tables(accumulated)
                if self.early_stop(merged):
                    self.network.metrics.record_topk_cancel()
                    self.network.emit_event(
                        "topk_cancel",
                        peer=self.host.peer_id,
                        query_id=self.query_id,
                        channels=len(self._channels),
                    )
                    self.span.set(topk_cancelled=True)
                    self._release_channels()
                    self._finish_ok(merged)

        def done() -> None:
            if self._finished:
                return
            if accumulated:
                # one column-aligned concatenation over all chunks —
                # linear in total rows, not quadratic per-chunk unions
                merged = concat_tables(accumulated)
            else:
                merged = BindingTable(self.plan.variables())
            self._finish_ok(merged)

        self._execute_pipelined(self.plan, (), emit, done)

    def abort(self) -> None:
        """Stop without completing.  Under the ubQL discard policy all
        in-flight channels are dropped; under the phased policy their
        late results are salvaged into the scan cache."""
        self._finished = True
        self.span.finish("aborted")
        self._release_channels()

    def _release_channels(self) -> None:
        from ..channels.channel import ChannelState
        from ..channels.packets import ChangePlanPacket
        from ..net.message import Message

        for channel in self._channels:
            channel_id = channel.channel_id
            if self.scan_cache is not None and isinstance(channel.plan, Scan):
                # phased policy: keep collecting into the cache
                self.host.channels.redirect(
                    channel_id, self._cache_filler(channel.plan)
                )
                continue
            unfinished = channel.state is not ChannelState.CLOSED
            self.host.channels.discard(channel_id)
            if unfinished:
                # ubQL "changing plan" packet: tell the destination —
                # open or stalled alike — to terminate its on-going
                # computation for this channel
                self.network.send(
                    Message(
                        self.host.peer_id,
                        channel.destination,
                        ChangePlanPacket(channel_id, reason="plan changed"),
                    )
                )

    def _cache_filler(self, scan: Scan):
        def fill(table: Optional[BindingTable], failed: Optional[str]) -> None:
            if table is not None and self.scan_cache is not None:
                self.scan_cache[scan] = table

        return fill

    def _finish_ok(self, table: BindingTable) -> None:
        if not self._finished:
            self._finished = True
            self.span.set(rows=len(table), reused_rows=self.reused_rows)
            self.span.finish()
            self.on_complete(table, None)

    def _fail(self, failed_peer: str) -> None:
        if not self._finished:
            self._finished = True
            self.span.set(failed_peer=failed_peer)
            self.span.finish("failed")
            self._release_channels()
            self.on_complete(None, failed_peer)

    # ------------------------------------------------------------------
    # recursive execution
    # ------------------------------------------------------------------
    def _site_of(self, node: PlanNode, path: TreePath) -> str:
        site = self.sites.get(path)
        if site is not None and site != "?":
            return site
        if isinstance(node, Scan):
            return node.peer_id
        return self.host.peer_id

    def _execute(
        self,
        node: PlanNode,
        path: TreePath,
        k: Callable[[BindingTable], None],
        needed: Optional[set] = None,
    ) -> None:
        if isinstance(node, Hole):
            raise PlanningError(
                f"cannot execute a plan with hole {node.render()}; fill it first"
            )
        site = self._site_of(node, path)
        if site != self.host.peer_id:
            self._ship(node, path, site, k)
            return
        if isinstance(node, Scan):
            if node.peer_id == self.host.peer_id:

                def run_scan() -> None:
                    if not self._finished:
                        k(self.host.local_scan(node))

                self._defer(run_scan)
            else:
                self._ship(node, path, node.peer_id, k)
            return
        children = node.children()
        # the final answer is a distinct projection, so combines
        # de-duplicate eagerly
        kernel = vunion_all_distinct if isinstance(node, Union) else vjoin_all_distinct
        gather = _Gather(len(children), lambda tables: kernel(tables, needed), k)
        child_vars = [set(child.variables()) for child in children]
        for index, child in enumerate(children):
            child_needed: Optional[set] = None
            if needed is not None:
                # what the rest of the query references: the consumer's
                # variables plus every sibling's (join keys included)
                child_needed = set(needed)
                for j, variables in enumerate(child_vars):
                    if j != index:
                        child_needed |= variables
            self._execute(child, path + (index,), gather.collector(index), child_needed)

    # ------------------------------------------------------------------
    # pipelined execution (Section 2.5's "pipeline way")
    # ------------------------------------------------------------------
    def _execute_pipelined(
        self,
        node: PlanNode,
        path: TreePath,
        emit: Callable[[BindingTable], None],
        done: Callable[[], None],
    ) -> None:
        from .pipeline import IncrementalUnion, JoinCascade

        if isinstance(node, Hole):
            raise PlanningError(
                f"cannot execute a plan with hole {node.render()}; fill it first"
            )
        if isinstance(node, Scan):
            if node.peer_id == self.host.peer_id:

                def run_scan() -> None:
                    if not self._finished:
                        emit(self.host.local_scan(node))
                        done()

                self._defer(run_scan)
            else:
                self._ship_pipelined(node, path, emit, done)
            return
        children = node.children()
        if isinstance(node, Union):
            union = IncrementalUnion(
                tuple(children[0].variables()), len(children), emit
            )

            def child_done() -> None:
                union.finish_one()
                if union.done:
                    done()

            for index, child in enumerate(children):
                self._execute_pipelined(child, path + (index,), union.feed, child_done)
            return
        if isinstance(node, Join):
            if len(children) == 1:
                self._execute_pipelined(children[0], path + (0,), emit, done)
                return
            cascade = JoinCascade(
                [tuple(child.variables()) for child in children], emit
            )

            def cascade_child_done(index: int) -> Callable[[], None]:
                def mark() -> None:
                    cascade.finish(index)
                    if cascade.done:
                        done()

                return mark

            for index, child in enumerate(children):
                self._execute_pipelined(
                    child,
                    path + (index,),
                    lambda chunk, i=index: cascade.feed(i, chunk),
                    cascade_child_done(index),
                )
            return
        raise PlanningError(f"unknown plan node {type(node).__name__}")

    def _ship_pipelined(
        self,
        node: PlanNode,
        path: TreePath,
        emit: Callable[[BindingTable], None],
        done: Callable[[], None],
    ) -> None:
        """Open a pipelined channel: chunks flow straight into ``emit``."""

        def on_channel(table: Optional[BindingTable], failed: Optional[str]) -> None:
            if self._finished:
                return
            if failed is not None:
                self._fail(failed)
            else:
                done()

        def on_progress(chunk: BindingTable) -> None:
            if not self._finished:
                emit(chunk)

        channel = self.host.channels.open(
            self.network,
            node.peer_id if isinstance(node, Scan) else self._site_of(node, path),
            node,
            on_channel,
            query_id=self.query_id,
            progress=on_progress,
            retry=self.retry,
            trace=self.span.context(),
        )
        self._channels.append(channel)

    def _ship(
        self,
        node: PlanNode,
        path: TreePath,
        site: str,
        k: Callable[[BindingTable], None],
    ) -> None:
        """Ship a subtree to its execution site over a fresh channel.

        Cached scan results from an earlier phase short-circuit the
        shipment entirely (phased execution policy).
        """
        if (
            self.scan_cache is not None
            and isinstance(node, Scan)
            and node in self.scan_cache
        ):
            cached = self.scan_cache[node]
            self.reused_rows += len(cached)
            k(cached)
            return
        sub_sites = {
            p[len(path):]: s
            for p, s in self.sites.items()
            if p[: len(path)] == path and p != path
        }

        def on_channel(table: Optional[BindingTable], failed: Optional[str]) -> None:
            if self._finished:
                return
            if failed is not None:
                self._fail(failed)
            else:
                assert table is not None
                if self.scan_cache is not None and isinstance(node, Scan):
                    self.scan_cache[node] = table
                k(table)

        channel = self.host.channels.open(
            self.network,
            site,
            node,
            on_channel,
            sites=sub_sites,
            query_id=self.query_id,
            retry=self.retry,
            trace=self.span.context(),
        )
        self._channels.append(channel)


class _Gather:
    """Counts down child completions, then combines their tables."""

    def __init__(
        self,
        count: int,
        combine: Callable[[List[BindingTable]], BindingTable],
        k: Callable[[BindingTable], None],
    ):
        self._pending = count
        self._results: List[Optional[BindingTable]] = [None] * count
        self._combine = combine
        self._k = k

    def collector(self, index: int) -> Callable[[BindingTable], None]:
        def collect(table: BindingTable) -> None:
            self._results[index] = table
            self._pending -= 1
            if self._pending == 0:
                tables = [t for t in self._results if t is not None]
                self._k(self._combine(tables))

        return collect
