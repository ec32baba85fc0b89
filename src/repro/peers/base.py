"""Peer foundations: local storage and the network-node base class.

:class:`PeerBase` is a peer's *database*: an RDF graph plus the
community schema it commits to, optionally populated through RVL views
(virtual scenario).  :class:`Peer` is the network-facing machinery
every peer role shares: a channel manager, subplan execution hosting
and message dispatch.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..channels.manager import ChannelManager
from ..channels.packets import DataPacket, SubPlanPacket, TreePath
from ..config import DEFAULT_CONFIG, PeerConfig
from ..core.algebra import PlanNode, Scan
from ..errors import PeerError
from ..execution.batch import BindingBatch
from ..execution.encoded import EncodedBase, evaluate_scan_encoded
from ..execution.engine import Completion, ExecutionStrategy, PlanExecutor
from ..net.message import DeliveryFailure, Message
from ..net.simulator import Network
from ..obs.gauges import IDLE
from ..rdf.dictionary import TermDictionary
from ..rdf.graph import Graph
from ..rdf.schema import Schema
from ..rvl.active_schema import ActiveSchema
from ..rvl.view import ViewDefinition
from .coordinator import shape

if TYPE_CHECKING:
    from .coordinator import PendingQuery

#: completed subplans remembered for retransmit replay (per peer)
SUBPLAN_REPLAY_LIMIT = 128


class PeerBase:
    """A peer's local description base.

    Args:
        graph: The asserted RDF statements (materialised scenario), or
            the virtual image produced by wrappers.
        schema: The community RDF/S schema the base commits to.
        views: RVL views populating the schema, when the base is
            virtual; their footprint defines the active-schema.
    """

    def __init__(
        self,
        graph: Graph,
        schema: Schema,
        views: Sequence[ViewDefinition] = (),
    ):
        self.graph = graph
        self.schema = schema
        self.views = tuple(views)
        self._encoded: Optional[EncodedBase] = None

    def active_schema(self, peer_id: str) -> ActiveSchema:
        """The advertisement for this base.

        Views take precedence (virtual scenario: what *can* be
        populated); otherwise the materialised base is scanned.
        """
        if self.views:
            merged: Optional[ActiveSchema] = None
            for view in self.views:
                derived = ActiveSchema.from_view(view, self.schema, peer_id)
                merged = derived if merged is None else merged.merge(derived)
            assert merged is not None
            return merged
        return ActiveSchema.from_base(self.graph, self.schema, peer_id)

    def encoded_base(self, dictionary: TermDictionary) -> EncodedBase:
        """The base's columnar twin in ``dictionary``'s id space (built
        lazily, column caches invalidated through ``Graph.version``).

        The id space is named at every use rather than bound once, so a
        base handed to a peer — at construction or by crash recovery —
        can never scan into another dictionary than its holder's.
        """
        if self._encoded is None or self._encoded.dictionary is not dictionary:
            self._encoded = EncodedBase(self.graph, self.schema, dictionary)
        return self._encoded

    def evaluate_scan(self, scan: Scan, dictionary: TermDictionary) -> BindingBatch:
        """Evaluate a (composite) scan against this base, as an *id
        table* in ``dictionary``'s space.

        A composite scan ``(Q1∪Q2)@P`` executes the pushed join at the
        peer — the behaviour Transformation Rules 1/2 rely on.
        Executing the *original* (unrewritten) pattern is sound: class
        filters are enforced during evaluation, so a peer advertising a
        broader class only contributes bindings that satisfy the
        query's classes.
        """
        return evaluate_scan_encoded(scan, self.encoded_base(dictionary))


class Peer:
    """Base class of every network peer role.

    Dispatches incoming messages to ``handle_<PayloadType>`` methods;
    hosts :class:`~repro.execution.engine.PlanExecutor` instances for
    received subplans and roots channels for the plans it launches.
    """

    def __init__(
        self,
        peer_id: str,
        base: Optional[PeerBase] = None,
        secondary_bases: Sequence[PeerBase] = (),
        config: PeerConfig = DEFAULT_CONFIG,
    ):
        self.peer_id = peer_id
        #: every behaviour value this peer reads, at the point of use;
        #: replaced as a whole (:func:`repro.config.reconfigure`), never
        #: poked field by field
        self.config = config
        self.base = base
        #: additional bases for peers committing to several community
        #: schemas ("a simple-peer can be connected to multiple
        #: super-peers when it provides descriptions conforming to more
        #: than one schema", Section 3.1)
        self.secondary_bases: tuple = tuple(secondary_bases)
        #: the peer's one id space, for its lifetime: every base it
        #: holds scans into it, arriving tables are interned into it,
        #: and every table this peer ships is packed through it
        self.dictionary = TermDictionary()
        self.channels = ChannelManager(peer_id, self.dictionary)
        self.network: Optional[Network] = None
        #: channel ids whose roots changed plans: stop streaming to them
        #: (entries live only while the stream they cancel is in flight)
        self._cancelled_streams: set = set()
        #: channel ids with a paced chunk stream currently in flight
        self._active_streams: set = set()
        #: heartbeat-based failure detector, when resilience is enabled
        self.failure_detector = None
        #: channels whose subplans are still executing (duplicate packets
        #: are ignored; the in-flight run will answer)
        self._executing_subplans: set = set()
        #: channel id -> the exact reply payloads of a completed shipment,
        #: replayed verbatim when a retransmitted SubPlanPacket arrives
        self._subplan_replay: Dict[str, List] = {}
        #: fair per-query work scheduler (peers/scheduler.py); None
        #: keeps the seed's run-to-completion message handling
        self.scheduler = None
        #: durable state handle (repro.durability); None keeps the
        #: peer ephemeral (the seed behaviour)
        self.state_store = None

    def attach_durability(self, store) -> None:
        """Persist membership events to ``store`` (a
        :class:`~repro.durability.PeerStateStore`) from now on."""
        self.state_store = store
        if self.network is not None:
            store.bind_metrics(self.network.metrics)

    def save_durable_snapshot(self) -> int:
        """Persist base, views and derived active-schema to the durable
        store (no-op without one); returns the bytes written."""
        if self.state_store is None or self.base is None:
            return 0
        return self.state_store.save_snapshot(
            self.base.graph, self.base.views, self.base.active_schema(self.peer_id)
        )

    def install_scheduler(self, scheduler) -> None:
        """Interleave this peer's local work per query: subplan starts,
        scan evaluations and channel completions become scheduled work
        units instead of running inline in their message handler."""
        self.scheduler = scheduler
        self.channels.bind_scheduler(scheduler)

    def schedule_work(self, query_id: str, unit) -> None:
        """Run ``unit`` through the fair scheduler when one is
        installed; immediately otherwise."""
        if self.scheduler is None:
            unit()
        else:
            self.scheduler.submit(query_id or self.peer_id, unit)

    def load(self) -> Dict[str, int]:
        """Point-in-time load gauges (``Network.diagnostics`` and
        :mod:`repro.obs.gauges` read these): what every role has here,
        the rest idle until a role overrides it."""
        return {
            **IDLE,
            "open_channels": len(self.channels),
            "scheduler_backlog": (
                self.scheduler.pending() if self.scheduler is not None else 0
            ),
        }

    def all_bases(self) -> tuple:
        """Primary base first, then the secondary ones."""
        primary = (self.base,) if self.base is not None else ()
        return primary + self.secondary_bases

    def base_for_property(self, prop) -> Optional[PeerBase]:
        """The base whose schema declares ``prop`` (multi-SON dispatch)."""
        for candidate in self.all_bases():
            if candidate.schema.has_property(prop):
                return candidate
        return None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def join(self, network: Network) -> None:
        """Register with the network (subclasses extend with protocol
        handshakes: pushing or pulling advertisements)."""
        network.register(self)
        self.network = network
        # discarded-binding accounting flows through the channel manager
        self.channels.bind_metrics(network.metrics)

    def _require_network(self) -> Network:
        if self.network is None:
            raise PeerError(f"peer {self.peer_id} has not joined a network")
        return self.network

    def send(self, dst: str, payload, trace=None) -> None:
        """Send a payload; ``trace`` optionally carries a
        :class:`~repro.obs.span.TraceContext` so spans opened at the
        receiver stitch under the sender's span."""
        network = self._require_network()
        network.send(Message(self.peer_id, dst, payload, trace=trace))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def receive(self, message: Message, network: Network) -> None:
        """Route a delivered message to its ``handle_*`` method."""
        handler_name = f"handle_{type(message.payload).__name__}"
        handler = getattr(self, handler_name, None)
        if handler is None:
            raise PeerError(
                f"{type(self).__name__} {self.peer_id} cannot handle {message.kind}"
            )
        handler(message)

    # ------------------------------------------------------------------
    # executor hosting (ExecutorHost protocol)
    # ------------------------------------------------------------------
    def local_scan(self, scan: Scan) -> BindingBatch:
        patterns = scan.patterns()
        prop = patterns[0].schema_path.property if patterns else None
        base = self.base_for_property(prop) if prop is not None else self.base
        if base is None:
            # no base speaks this vocabulary: the empty table, over every
            # pattern's variables (a sibling union checks the header)
            return BindingBatch(scan.variables())
        return base.evaluate_scan(scan, self.dictionary)

    def handle_SubPlanPacket(self, message: Message) -> None:
        """Execute the received subplans — one executor each, narrowed
        to the columns the root asked for — and, when all of them have
        finished, stream the results back as one sequence of packets.

        The stream's first packet also reports statistics (this peer's
        local cardinalities for the subplans' properties) so the
        channel root can feed its optimiser — the "statistics useful
        for query optimization" ubQL packets of Section 2.4.  The first
        failure below fails the whole shipment.
        """
        packet: SubPlanPacket = message.payload
        root = message.src
        channel_id = packet.channel_id
        if channel_id in self._executing_subplans:
            return  # retransmit raced the in-flight execution: it will answer
        replay = self._subplan_replay.get(channel_id)
        if replay is not None:
            # retransmitted request for subplans already answered: resend
            # the exact same packets (the root deduplicates on seq)
            for payload in replay:
                self.send(root, payload)
            return
        self._executing_subplans.add(channel_id)
        tables: List[Optional[BindingBatch]] = [None] * len(packet.plans)
        pending = len(packet.plans)

        def on_complete(output: int, table, failed: Optional[str]) -> None:
            nonlocal pending
            if channel_id not in self._executing_subplans:
                return  # the shipment already failed
            tables[output] = table
            pending -= 1
            if failed is None and pending:
                return  # siblings still running
            self._executing_subplans.discard(channel_id)
            if failed is None:
                packets = DataPacket.stream(
                    channel_id,
                    tables,
                    self.dictionary,
                    self.config.batch_size,
                    self._local_cardinalities(packet),
                    packet.columns,
                )
                self._remember_subplan(channel_id, packets)
                self._stream_packets(root, channel_id, packets)
                return
            for executor in executors:
                executor.abort()
            # failures are not remembered: a retransmit retries execution
            self.send(root, DataPacket(channel_id, failed_peer=failed))

        sites: Dict[int, Dict[TreePath, str]] = {}
        for p, s in packet.sites.items():
            sites.setdefault(p[0], {})[p[1:]] = s
        executors = [
            self.plan_executor(
                plan,
                partial(on_complete, output),
                sites=sites.get(output),
                query_id=packet.query_id,
                # stitch this remote execution under the shipped channel
                # span: the arriving message carries the root's context
                trace=message.trace,
                columns=packet.columns[output] if packet.columns else None,
            )
            for output, plan in enumerate(packet.plans)
        ]
        for executor in executors:
            self.schedule_work(packet.query_id, executor.start)

    def plan_executor(
        self,
        plan: PlanNode,
        on_complete: Completion,
        sites=None,
        query_id: str = "",
        trace=None,
        query: Optional["PendingQuery"] = None,
        columns: Optional[tuple] = None,
    ) -> PlanExecutor:
        """An executor for ``plan`` at this peer, not yet started — the
        one place an executor is built, and where an attempt's
        :class:`ExecutionStrategy` is decided.

        A hosted subplan or delegated plan gathers and discards on
        failure; a hosted one prunes to the ``columns`` its channel
        root asked for (``None`` keeps its raw width), and so do the
        subtrees it ships on.  A coordinator passes the ``query`` it
        runs the plan for, and the configuration applies:
        ``pipelined_execution`` streams, ``failure_policy="phased"``
        carries the query's scan cache across attempts, and
        ``topk_cancel`` stops a ``LIMIT k`` query once k answer rows
        exist — which needs streaming to see rows early, and no
        ``ORDER BY``: every operator is monotone, so the first k
        distinct finalised rows are stable under any completion order,
        while ranked top-k needs every candidate.
        """
        config = self.config
        stream, cache, stop = False, None, None
        needed = None if columns is None else frozenset(columns)
        if query is not None:
            limit = query.constraints.max_results
            if (
                config.topk_cancel
                and limit is not None
                and query.constraints.order_by is None
            ):
                # closes over the parsed query, not ``query``: the pending
                # query holds the executor, whose strategy holds ``stop``
                parsed = query.query

                def stop(merged: BindingBatch) -> bool:
                    return len(shape(parsed, merged, self.dictionary)) >= limit

            stream = config.pipelined_execution or stop is not None
            if config.failure_policy == "phased":
                cache = query.scan_cache
            needed = query.needed()
        strategy = ExecutionStrategy(
            stream, cache, stop, config.resilience.channel_retry, needed, trace
        )
        return PlanExecutor(
            self, self._require_network(), plan, sites, query_id, on_complete, strategy
        )

    def _stream_packets(self, root: str, channel_id: str, packets: list) -> None:
        """Ship result packets.

        A single packet goes immediately.  A table that outgrew
        ``config.batch_size`` fragments; the chunks go back-to-back —
        batching changes message count, not timing — unless
        ``config.stream_interval`` paces them: one chunk of *every*
        output per interval, so a shipment delivers each output as fast
        as a channel of its own would, honouring mid-stream discards.
        """
        if len(packets) == 1:
            self.send(root, packets[0])
            return
        if self.config.stream_interval is None:
            for packet in packets:
                self.send(root, packet)
            return
        self._active_streams.add(channel_id)
        self._send_stream_turn(root, channel_id, packets, 0)

    def _send_stream_turn(
        self, root: str, channel_id: str, packets: list, index: int
    ) -> None:
        """One interval of a paced stream: from ``packets[index]`` on,
        the next chunk of every output, then re-arm for the rest."""
        network = self._require_network()
        if channel_id in self._cancelled_streams:
            # the root changed plans: terminate this stream and
            # account the bindings it will never deliver
            self._cancelled_streams.discard(channel_id)
            self._active_streams.discard(channel_id)
            remaining = sum(p.rows for p in packets[index:])
            if remaining:
                network.metrics.count("discarded_bindings", remaining)
            return
        sent: set = set()  # the outputs this interval has served
        while index < len(packets):
            outputs = {output for output, _ in packets[index].tables}
            if sent & outputs:
                break  # their next chunks wait for the next interval
            sent |= outputs
            self.send(root, packets[index])
            index += 1
        if index < len(packets):
            network.call_later(
                self.config.stream_interval,
                partial(self._send_stream_turn, root, channel_id, packets, index),
            )
        else:
            self._active_streams.discard(channel_id)

    def _remember_subplan(self, channel_id: str, payloads: list) -> None:
        """Cache a completed subplan's replies for retransmit replay
        (bounded FIFO so long-lived peers don't grow without limit)."""
        self._subplan_replay[channel_id] = payloads
        while len(self._subplan_replay) > SUBPLAN_REPLAY_LIMIT:
            self._subplan_replay.pop(next(iter(self._subplan_replay)))

    def _local_cardinalities(self, packet: SubPlanPacket) -> Dict[str, int]:
        """Entailed statement counts for the subplans' properties in the
        local base (the statistics their result stream carries to the
        channel root)."""
        counts: Dict[str, int] = {}
        for pattern in (p for plan in packet.plans for p in plan.patterns()):
            prop = pattern.schema_path.property
            if prop.value in counts:
                continue
            base = self.base_for_property(prop)
            if base is None:
                continue
            # cached on the columnar twin: O(1) after the first ask
            counts[prop.value] = base.encoded_base(self.dictionary).property_count(
                prop
            )
        return counts

    def handle_DataPacket(self, message: Message) -> None:
        self.channels.on_data(message.payload)

    def handle_ChangePlanPacket(self, message: Message) -> None:
        """The channel root changed its plan: terminate on-going work
        for that channel (ubQL discard on the destination side) —
        concretely, stop any in-flight chunk stream.  Channels with no
        active stream have nothing to cancel, so no marker is kept for
        them (markers for already-finished streams used to accumulate
        forever)."""
        channel_id = message.payload.channel_id
        if channel_id in self._active_streams:
            self._cancelled_streams.add(channel_id)

    def handle_Heartbeat(self, message: Message) -> None:
        """Feed liveness beacons to the failure detector, if one runs."""
        if self.failure_detector is not None:
            self.failure_detector.beat(message.payload.sender)

    def handle_DeliveryFailure(self, message: Message) -> None:
        """A message we sent bounced: if it opened a channel, fail it."""
        failure: DeliveryFailure = message.payload
        original = failure.original
        if isinstance(original.payload, SubPlanPacket):
            self.channels.on_failure(original.payload.channel_id)
        # bounced data packets mean the root died: nothing to repair here

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.peer_id})"
