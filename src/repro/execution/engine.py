"""Distributed plan execution over channels.

A :class:`PlanExecutor` runs one plan subtree *at one peer* (its
executor site).  One recursive walk does it: a node sited elsewhere is
shipped (the destination peer spins up its own executor recursively —
that is how query shipping pushes operators down, Figure 5 right), a
scan of the local base is evaluated in place, and a ``Join``/``Union``
sited here gets an operator fed by its children.  The unit of shipping
is the destination, not the subtree: the walk collects every subtree
bound for one site and opens one channel per site, whose single
:class:`~repro.channels.packets.SubPlanPacket` carries them all.

Section 2.5's choices are *policies over that one walk*, fixed per
attempt in an :class:`ExecutionStrategy`: **gather** builds blocking
combines and opens channels that deliver one complete table;
**streaming** ("the pipeline way") builds the incremental operators of
:mod:`repro.execution.pipeline` and opens channels that hand every
arriving chunk on.  Placement (``sites``), the phased policy's scan
cache and dead-column pruning — down to the columns each shipped
subtree is asked for — are properties of the walk, so they hold in
both.

Execution is event-driven and continuation-based.  A peer failure
anywhere below aborts the executor once, reporting the failed peer so
the query root can replan (run-time adaptation with ubQL discard
semantics, or [Ives02]'s phased salvage).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Tuple

if TYPE_CHECKING:  # annotation only — imported lazily to avoid a cycle
    # (channels.manager uses execution.batch for stream assembly)
    from ..channels.manager import ChannelManager

from ..channels.channel import ChannelState, Output
from ..channels.packets import ChangePlanPacket, TreePath
from ..core.algebra import Hole, PlanNode, Scan, Union
from ..errors import PlanningError
from ..net.message import Message
from ..net.simulator import Network
from ..obs.tracer import NULL_SPAN
from .batch import BindingBatch, concat_tables
from .pipeline import BlockingCombine, Emit, streaming_operator

#: Completion continuation: (result id table or None, failed peer or None).
Completion = Callable[[Optional[BindingBatch], Optional[str]], None]


class ExecutorHost(Protocol):
    """What a peer must provide to host plan executors."""

    peer_id: str
    channels: ChannelManager

    def local_scan(self, scan: Scan) -> BindingBatch:
        """Evaluate a scan against the local base (an id table)."""

    def schedule_work(self, query_id: str, unit: Callable[[], None]) -> None:
        """Run a local work unit — through the host's fair per-query
        scheduler when one is installed, immediately otherwise."""


@dataclass(frozen=True)
class ExecutionStrategy:
    """How one attempt runs its plan — chosen once, by
    :meth:`repro.peers.base.Peer.plan_executor`.

    Attributes:
        stream: Incremental operators and per-chunk channels instead of
            gathering complete tables.
        scan_cache: Scan results carried across the query's attempts —
            the *phased* policy of [Ives02]: a cached scan is not
            re-shipped, and channels with scan outputs outliving a
            failed attempt keep filling it.  ``None`` is ubQL discard.
        early_stop: Top-k stop (streaming only): called with everything
            emitted so far after each chunk; True completes with that
            and discards the remaining channels.
        retry: Ack/retransmit policy of every channel opened (``None``
            keeps fire-and-forget channels).
        needed: The variables the plan's *consumer* references;
            operators prune every other column as soon as no later join
            needs it, which keeps chain-join intermediates from
            exploding, and every subtree shipped elsewhere is asked for
            only the columns its consumer here reads.  A coordinator
            derives it from the query; a hosted subplan runs with the
            columns its channel root asked for.  ``None`` keeps every
            column.
        trace: Parent :class:`~repro.obs.span.TraceContext` of the
            ``execute`` span.
    """

    stream: bool = False
    scan_cache: Optional[Dict[Scan, BindingBatch]] = None
    early_stop: Optional[Callable[[BindingBatch], bool]] = None
    retry: object = None
    needed: Optional[frozenset] = None
    trace: object = None


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
        strategy: How to run it (default: gather, discard, no retry).

    The executor opens an ``execute`` span under ``strategy.trace``
    covering its whole lifetime; every channel it opens stitches under
    that span.
    """

    def __init__(
        self,
        host: ExecutorHost,
        network: Network,
        plan: PlanNode,
        sites: Optional[Dict[TreePath, str]] = None,
        query_id: str = "",
        on_complete: Optional[Completion] = None,
        strategy: ExecutionStrategy = ExecutionStrategy(),
    ):
        self.host = host
        self.network = network
        self.plan = plan
        self.sites = dict(sites or {})
        #: the non-root site entries grouped by their first path element,
        #: so shipping a subtree reads only its own branch's entries
        self._branches: Dict[int, List[Tuple[TreePath, str]]] = {}
        for p, s in self.sites.items():
            if p:
                self._branches.setdefault(p[0], []).append((p, s))
        self.query_id = query_id
        self.on_complete = on_complete or (lambda table, failed: None)
        self.strategy = strategy
        self.span = NULL_SPAN
        #: virtual time at which the first output rows materialised
        self.first_output_at: Optional[float] = None
        self.reused_rows = 0
        self._finished = False
        #: what the root of the walk emitted so far
        self._output: List[BindingBatch] = []
        #: every channel this executor opened (the manager forgets a
        #: channel once answered; releasing needs its final state)
        self._channels: list = []
        #: what the walk found bound for each remote site: the outputs
        #: and their placement, keyed ``(output index, *tree path)``
        self._shipments: Dict[str, Tuple[List[Output], Dict[TreePath, str]]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin execution; completion arrives via ``on_complete``.
        The walk reaches every remote subtree before it returns, so
        each destination gets exactly one channel."""
        if self._finished:
            return  # aborted before its scheduled start
        self.span = self.network.tracer.start_span(
            "execute",
            peer=self.host.peer_id,
            parent=self.strategy.trace,
            query=self.query_id,
            pipelined=self.strategy.stream,
        )
        self._walk(self.plan, (), self._emit, self._done, self.strategy.needed)
        retry, trace = self.strategy.retry, self.span.context()
        for site, (outputs, sites) in self._shipments.items():
            if self._finished:
                return  # local rows already answered (top-k stop)
            self._channels.append(
                self.host.channels.open(
                    self.network, site, outputs, sites, self.query_id, retry, trace
                )
            )

    def _emit(self, chunk: BindingBatch) -> None:
        """The root's output: one table when gathering, a chunk at a
        time when streaming — where the top-k stop watches it."""
        if self._finished:
            return
        if chunk and self.first_output_at is None:
            self.first_output_at = self.network.now
        self._output.append(chunk)
        early_stop = self.strategy.early_stop
        if early_stop is not None and chunk:
            merged = concat_tables(self._output)
            if early_stop(merged):
                self.network.metrics.count("topk_cancels")
                self.network.emit_event(
                    "topk_cancel",
                    peer=self.host.peer_id,
                    query_id=self.query_id,
                    channels=len(self._channels),
                )
                self.span.set(topk_cancelled=True)
                # answered: nothing is salvaged, every channel goes
                self._release_channels(salvage=False)
                self._finish_ok(merged)

    def _done(self) -> None:
        if self._finished:
            return
        if self._output:
            # one column-aligned concatenation over all chunks —
            # linear in total rows, not quadratic per-chunk unions
            self._finish_ok(concat_tables(self._output))
        else:
            header = self._emits(self.plan, (), self.strategy.needed)
            self._finish_ok(BindingBatch(header))

    def abort(self) -> None:
        """Stop without completing (a no-op once finished).  Under the
        ubQL discard policy all in-flight channels are dropped; under
        the phased policy their late results are salvaged into the scan
        cache."""
        if not self._finished:
            self._finished = True
            self.span.finish("aborted")
            self._release_channels(salvage=True)
            self._settle()

    def _release_channels(self, salvage: bool) -> None:
        """Tear down what is still open.  ``salvage`` marks an attempt
        given up (failed or aborted) rather than answered: under the
        phased policy a channel with scan outputs then stays open and
        their continuations keep collecting into the cache (a join or
        union shipped beside them runs on too; its rows are dropped on
        arrival — the price of one stream per destination)."""
        salvage = salvage and self.strategy.scan_cache is not None
        for channel in self._channels:
            if salvage and any(isinstance(o.plan, Scan) for o in channel.outputs):
                continue
            unfinished = channel.state is not ChannelState.CLOSED
            self.host.channels.discard(channel.channel_id)
            if unfinished:
                # ubQL "changing plan" packet: tell the destination —
                # open or stalled alike — to terminate its on-going
                # computation for this channel
                self.network.send(
                    Message(
                        self.host.peer_id,
                        channel.destination,
                        ChangePlanPacket(channel.channel_id, reason="plan changed"),
                    )
                )

    def _settle(self) -> Completion:
        """Let go of everything that leads back to this executor — the
        continuation, and the shipments and channels whose outputs close
        over it — so a finished query dies by reference counting.  What
        survives (``strategy``, ``span``, ``plan``, ``first_output_at``,
        ``reused_rows``) is read by the coordinator after completion.
        Salvaged phased channels run on: the channel manager holds them.
        Returns the continuation, for the caller to call once."""
        on_complete, self.on_complete = self.on_complete, None
        self._output, self._channels, self._shipments = [], [], {}
        return on_complete

    def _finish_ok(self, table: BindingBatch) -> None:
        if not self._finished:
            self._finished = True
            self.span.set(rows=len(table), reused_rows=self.reused_rows)
            self.span.finish()
            self._settle()(table, None)

    def _fail(self, failed_peer: str) -> None:
        if not self._finished:
            self._finished = True
            self.span.set(failed_peer=failed_peer)
            self.span.finish("failed")
            self._release_channels(salvage=True)
            self._settle()(None, failed_peer)

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def _site_of(self, node: PlanNode, path: TreePath) -> str:
        """Where ``node`` runs: its assigned site, else (and for a scan
        assigned to this peer) the scan's own peer, else here."""
        site = self.sites.get(path)
        here = self.host.peer_id
        if isinstance(node, Scan):
            return node.peer_id if site in (None, "?", here) else site
        return here if site in (None, "?") else site

    def _requested(self, node: PlanNode, needed: Optional[set]) -> Optional[tuple]:
        """The header a subtree shipped elsewhere is asked for: its
        variables in ``needed`` — ``None`` (raw width) for all or none
        of them, or for a scan filling the phased cache, which may
        serve more."""
        if needed is None or (
            isinstance(node, Scan) and self.strategy.scan_cache is not None
        ):
            return None
        columns = node.variables()
        header = tuple(c for c in columns if c in needed)
        return header if 0 < len(header) < len(columns) else None

    def _emits(self, node: PlanNode, path: TreePath, needed: Optional[set]) -> tuple:
        """The columns the walk at ``node`` emits: an operator built
        here prunes to ``needed``, a shipped subtree arrives with the
        header it was asked for, a local scan at its raw width."""
        columns = tuple(node.variables())
        if needed is None or isinstance(node, Hole):
            return columns
        if self._site_of(node, path) != self.host.peer_id:
            return self._requested(node, needed) or columns
        if isinstance(node, Scan):
            return columns
        return tuple(c for c in columns if c in needed)

    def _walk(
        self,
        node: PlanNode,
        path: TreePath,
        emit: Emit,
        done: Callable[[], None],
        needed: Optional[set],
    ) -> None:
        """Run ``node``: its output goes to ``emit`` (once or in
        chunks), then ``done`` is called."""
        if self._finished:
            return  # answered mid-walk (top-k stop): nothing more to run
        if isinstance(node, Hole):
            raise PlanningError(
                f"cannot execute a plan with hole {node.render()}; fill it first"
            )
        site = self._site_of(node, path)
        if site != self.host.peer_id:
            self._ship(node, path, site, emit, done, needed)
            return
        if isinstance(node, Scan):

            def run_scan() -> None:
                if not self._finished:
                    emit(self.host.local_scan(node))
                    done()

            self.host.schedule_work(self.query_id, run_scan)
            return
        children = node.children()
        # a union's children need only what the union's consumer reads
        child_needed: List[Optional[set]] = [needed] * len(children)
        if needed is not None and not isinstance(node, Union):
            # a join's: what the rest of the query references — the
            # consumer's variables plus every sibling's (join keys
            # included), a variable some *other* child holds, counted
            # once per child
            child_vars = [set(child.variables()) for child in children]
            holders = Counter(v for variables in child_vars for v in variables)
            for index, variables in enumerate(child_vars):
                child_needed[index] = set(needed).union(
                    v for v, n in holders.items() if n > (v in variables)
                )
        # the one difference between gathering and streaming
        if self.strategy.stream:
            inputs = [
                self._emits(child, path + (index,), child_needed[index])
                for index, child in enumerate(children)
            ]
            operator = streaming_operator(isinstance(node, Union), inputs, needed, emit)
        else:
            operator = BlockingCombine(
                isinstance(node, Union), len(children), needed, emit
            )
        for index, child in enumerate(children):
            feed, finish = operator.input(index)

            def child_done(finish=finish) -> None:
                finish()
                if operator.done:
                    done()

            self._walk(child, path + (index,), feed, child_done, child_needed[index])

    def _ship(
        self,
        node: PlanNode,
        path: TreePath,
        site: str,
        emit: Emit,
        done: Callable[[], None],
        needed: Optional[set],
    ) -> None:
        """Add a subtree to the shipment bound for its execution site,
        asking for the columns of it ``needed`` holds.

        A scan cached by an earlier phase short-circuits the shipment
        (phased policy); a shipped scan's rows land in that cache when
        its channel completes — also after this executor aborted, which
        is the salvage.  A streamed output's completion carries no
        rows, so its chunks are kept for the cache as they pass.
        """
        cache = self.strategy.scan_cache if isinstance(node, Scan) else None
        if cache is not None and node in cache:
            cached = cache[node]
            self.reused_rows += len(cached)
            emit(cached)
            done()
            return
        kept: List[BindingBatch] = []

        def on_progress(chunk: BindingBatch) -> None:
            if cache is not None:
                kept.append(chunk)
            if not self._finished:
                emit(chunk)

        def on_channel(table: Optional[BindingBatch], failed: Optional[str]) -> None:
            if failed is None and cache is not None:
                cache[node] = concat_tables(kept) if kept else table
            if self._finished:
                return
            if failed is not None:
                self._fail(failed)
                return
            if not self.strategy.stream:
                emit(table)
            done()

        outputs, sites = self._shipments.setdefault(site, ([], {}))
        depth = len(path)
        entries = self._branches.get(path[0], ()) if path else self.sites.items()
        for p, s in entries:
            if p[:depth] == path and p != path:
                sites[(len(outputs),) + p[depth:]] = s
        progress = on_progress if self.strategy.stream else None
        header = self._requested(node, needed)
        outputs.append(Output(node, on_channel, progress, header))
