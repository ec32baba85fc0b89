"""Per-peer channel management.

A :class:`ChannelManager` mints root-local channel ids, sends subplan
packets over the network, and dispatches incoming data packets and
failures to the continuation registered when the channel was opened.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from ..core.algebra import PlanNode
from ..errors import ChannelError
from ..execution.batch import BindingBatch, concat_tables
from ..net.message import Message
from ..net.simulator import Network
from ..rdf.dictionary import TermDictionary
from ..resilience.retry import RetryPolicy
from .channel import Channel
from .packets import DataPacket, SubPlanPacket, TreePath

#: Continuation invoked with (table, failed_peer) when a channel completes.
ChannelCallback = Callable[[Optional[BindingBatch], Optional[str]], None]
#: Per-chunk consumer for pipelined channels.
ProgressCallback = Callable[[BindingBatch], None]
#: discarded channel ids remembered for late-packet accounting (per peer)
DISCARDED_CHANNEL_LIMIT = 1024


class ChannelManager:
    """Channels rooted at one peer.

    Args:
        owner: The peer id owning (rooting) these channels.
        dictionary: The owning peer's id space: arriving packets are
            interned into it, so completed tables are id tables the
            owner's pipeline joins directly.
    """

    def __init__(self, owner: str, dictionary: Optional[TermDictionary] = None):
        self.owner = owner
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        #: incarnation epoch: 0 for a peer's first life; a crash-recovered
        #: incarnation sets its recovery count here so freshly minted
        #: channel ids can never collide with a predecessor's — executors
        #: keep a retransmit-replay cache keyed by channel id, and a
        #: stale hit would replay another query's result verbatim
        self.epoch = 0
        #: the open channels: a record lives from :meth:`open` until its
        #: continuation has run (or it is discarded), and all of a
        #: channel's state is on the record, so teardown is one ``del``
        self._channels: Dict[str, Channel] = {}
        self._counter = itertools.count(1)
        #: ids of channels torn down by a replan (bounded FIFO): late
        #: packets for them count as discarded bindings instead of
        #: silently vanishing
        self._discarded: Dict[str, None] = {}
        self._metrics = None  # bound by Peer.join
        self._scheduler = None  # bound by Peer.install_scheduler

    def bind_metrics(self, metrics) -> None:
        """Attach the network's metric set (discarded-binding counts)."""
        self._metrics = metrics

    def bind_scheduler(self, scheduler) -> None:
        """Route completion continuations through a fair per-query
        scheduler (concurrent serving): each channel's callback becomes
        one work unit keyed by its query id, so a query gathering many
        channels cannot starve cheaper concurrent ones."""
        self._scheduler = scheduler

    def _record_discarded(self, count: int) -> None:
        if count and self._metrics is not None:
            self._metrics.count("discarded_bindings", count)

    def mint_id(self) -> str:
        """The next channel id, unique across this owner's incarnations."""
        root = self.owner if not self.epoch else f"{self.owner}~{self.epoch}"
        return f"{root}#{next(self._counter)}"

    # ------------------------------------------------------------------
    # root side
    # ------------------------------------------------------------------
    def open(
        self,
        network: Network,
        destination: str,
        plan: PlanNode,
        callback: ChannelCallback,
        sites: Optional[Dict[TreePath, str]] = None,
        query_id: str = "",
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        trace=None,
    ) -> Channel:
        """Open a channel: ship ``plan`` to ``destination`` and register
        the continuation for its results.

        ``trace`` optionally carries the opener's span context: the
        channel then gets its own ``channel`` span (open to close/fail)
        and the shipped subplan packet propagates that span's context so
        the destination's execution stitches underneath it.

        With ``progress`` set, the channel runs in *pipelined* mode:
        every arriving chunk (including the final one) is handed to
        ``progress`` immediately, no buffering happens, and the
        completion ``callback`` fires with an empty table — a pure
        done-signal.

        With ``retry`` set, the channel is guarded by a deadline: if no
        packet arrives within the attempt's timeout the subplan is
        retransmitted (exponential backoff), and when attempts run out
        the channel fails as if the destination had bounced — the
        timeout-based detection a non-omniscient network requires.
        """
        channel_id = self.mint_id()
        span = network.tracer.start_span(
            "channel",
            peer=self.owner,
            parent=trace,
            channel=channel_id,
            destination=destination,
            query=query_id,
        )
        channel = Channel(
            channel_id,
            self.owner,
            destination,
            plan,
            query_id,
            span=span if span else None,
            callback=callback,
            progress=progress,
        )
        self._channels[channel_id] = channel
        packet = SubPlanPacket(
            channel_id=channel_id,
            plan=plan,
            sites=dict(sites or {}),
            root_peer=self.owner,
            query_id=query_id,
        )
        network.send(Message(self.owner, destination, packet, trace=span.context()))
        if retry is not None:
            self._arm_timeout(network, channel, packet, retry, 1)
        return channel

    def _arm_timeout(
        self,
        network: Network,
        channel: Channel,
        packet: SubPlanPacket,
        retry: RetryPolicy,
        attempt: int,
    ) -> None:
        """Arm one attempt's deadline for an open channel."""
        progress_mark = len(channel.received_seqs)

        def check() -> None:
            if not channel.is_open:
                return
            if len(channel.received_seqs) > progress_mark:
                # packets flowed during the window: the destination is
                # alive, keep waiting without burning an attempt
                self._arm_timeout(network, channel, packet, retry, attempt)
                return
            if retry.attempts_left(attempt + 1):
                network.metrics.count("retransmits")
                if channel.span is not None:
                    channel.span.annotate(f"retransmit attempt={attempt + 1}")
                network.send(
                    Message(
                        self.owner,
                        channel.destination,
                        packet,
                        trace=channel.span.context() if channel.span else None,
                    )
                )
                self._arm_timeout(network, channel, packet, retry, attempt + 1)
            else:
                self.on_failure(channel.channel_id)

        network.call_later(retry.timeout(attempt), check)

    def on_dictionary(self, packet: DataPacket) -> BindingBatch:
        """Intern a packet's terms in the owner's dictionary (one
        ``encode`` per term, not per cell); returns its bindings as an
        *id table* in the owner's space (idempotent: interning is)."""
        return packet.table.intern(self.dictionary)

    def on_data(self, packet: DataPacket) -> None:
        """Dispatch a data packet to the channel's continuation."""
        channel = self._channels.get(packet.channel_id)
        if channel is None:
            # never rooted here, already answered, or torn down
            if packet.channel_id in self._discarded:
                # the replan already tore this channel down: these
                # bindings were computed for nothing — account them
                self._record_discarded(packet.rows)
            return
        seen = channel.received_seqs
        if packet.seq in seen:
            # duplicated in flight, or replayed after a retransmit the
            # original answer raced: never union the same rows twice
            return
        seen.add(packet.seq)
        table = self.on_dictionary(packet)
        channel.record_tuples(len(table))
        if channel.span is not None:
            channel.span.annotate(
                f"data seq={packet.seq} rows={len(table)}"
                + (" final" if packet.final else "")
            )
        if packet.failed_peer is not None:
            channel.fail()
            self._finish(channel, None, packet.failed_peer)
            return
        if packet.final:
            channel.final_seq = packet.seq
        if channel.progress is not None:
            channel.progress(table)
        else:
            channel.chunks.append(table)
        if channel.final_seq is None or len(seen) < channel.final_seq + 1:
            return  # chunks still outstanding
        channel.close()
        if channel.progress is not None:
            self._finish(channel, BindingBatch(table.columns), None)
            return
        chunks, channel.chunks = channel.chunks, []
        self._finish(channel, concat_tables(chunks), None)

    def on_failure(self, channel_id: str) -> None:
        """Transport-level failure of the channel's destination."""
        channel = self._channels.get(channel_id)
        if channel is None:
            return
        channel.fail()
        self._finish(channel, None, channel.destination)

    def _finish(self, channel: Channel, table, failed_peer) -> None:
        """Drop the record and run its continuation."""
        if self._channels.pop(channel.channel_id, None) is None:
            return  # discarded from inside its own progress consumer
        callback = channel.callback
        if self._scheduler is None:
            callback(table, failed_peer)
            return
        key = channel.query_id or channel.channel_id
        self._scheduler.submit(key, lambda: callback(table, failed_peer))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def discard(self, channel_id: str) -> None:
        """Close a channel without invoking its continuation (the ubQL
        discard used when a replan abandons on-going computation).

        Buffered chunks the channel had already received are counted as
        discarded bindings, and the id is remembered as discarded so
        bindings still in flight are counted on arrival too.
        """
        channel = self._channels.pop(channel_id, None)
        if channel is not None:
            channel.close()
            self._record_discarded(sum(len(chunk) for chunk in channel.chunks))
            channel.chunks = []
        self._discarded[channel_id] = None
        while len(self._discarded) > DISCARDED_CHANNEL_LIMIT:
            self._discarded.pop(next(iter(self._discarded)))

    def discard_all(self) -> int:
        """Discard every open channel; returns how many were open."""
        open_ids = list(self._channels)
        for channel_id in open_ids:
            self.discard(channel_id)
        return len(open_ids)

    def channel(self, channel_id: str) -> Channel:
        try:
            return self._channels[channel_id]
        except KeyError:
            raise ChannelError(f"unknown channel {channel_id}") from None

    def open_channels(self) -> Dict[str, Channel]:
        return dict(self._channels)

    def __len__(self) -> int:
        """Channels currently open (finished ones leave no record)."""
        return len(self._channels)
