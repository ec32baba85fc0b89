"""Per-peer channel management.

A :class:`ChannelManager` mints root-local channel ids, sends subplan
packets over the network, and dispatches incoming data packets and
failures to the continuation registered when the channel was opened.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, Optional, Sequence

from ..errors import ChannelError
from ..execution.batch import BindingBatch, concat_tables
from ..net.message import Message
from ..net.simulator import Network
from ..rdf.dictionary import TermDictionary
from ..rdf.schema import Schema
from ..resilience.retry import RetryPolicy
from .channel import Channel, Output
from .packets import DataPacket, SubPlanPacket, TreePath

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

    def _count(self, name: str, n: int = 1) -> None:
        if n and self._metrics is not None:
            self._metrics.count(name, n)

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
        outputs: Sequence[Output],
        sites: Optional[Dict[TreePath, str]] = None,
        query_id: str = "",
        retry: Optional[RetryPolicy] = None,
        trace=None,
        schema: Optional[Schema] = None,
    ) -> Channel:
        """Open a channel: ship every output's plan to ``destination``
        in one packet and register the continuations for its results.
        ``sites`` is keyed ``(output index, *tree path)``.

        ``trace`` optionally carries the opener's span context: the
        channel then gets its own ``channel`` span (open to close/fail)
        and the shipped subplan packet propagates that span's context so
        the destination's execution stitches underneath it.

        An output with ``progress`` set runs in *pipelined* mode: every
        arriving chunk (including the final one) is handed to
        ``progress`` immediately, no buffering happens, and its
        completion ``callback`` fires with an empty table — a pure
        done-signal.

        With ``retry`` set, the channel is guarded by a deadline: if no
        packet arrives within the attempt's timeout the subplans are
        retransmitted (exponential backoff), and when attempts run out
        the channel fails as if the destination had bounced — the
        timeout-based detection a non-omniscient network requires; only
        then is the packet flagged ``retransmits`` (kept for replay).

        ``schema`` is the community schema of the plans' path patterns,
        named by the packet.
        """
        channel_id = self.mint_id()
        span = network.tracer.stage(
            "channel",
            self.owner,
            trace,
            channel=channel_id,
            destination=destination,
            query=query_id,
        )
        channel = Channel(
            channel_id,
            self.owner,
            destination,
            outputs,
            query_id,
            span=span,
        )
        self._channels[channel_id] = channel
        outputs = channel.outputs
        self._count("subplans_shipped", len(outputs))
        columns = tuple([output.columns for output in outputs])
        packet = SubPlanPacket(
            channel_id,
            tuple([output.plan for output in outputs]),
            dict(sites) if sites else {},
            self.owner,
            query_id,
            columns if columns.count(None) < len(columns) else (),
            retry is not None,
            schema,
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
                channel.span.annotate(f"retransmit attempt={attempt + 1}")
                network.send(
                    Message(
                        self.owner, channel.destination, packet,
                        trace=channel.span.context(),
                    )
                )
                self._arm_timeout(network, channel, packet, retry, attempt + 1)
            else:
                self.on_failure(channel.channel_id)

        network.call_later(retry.timeout(attempt), check)

    def on_dictionary(self, packet: DataPacket) -> list:
        """Intern an arriving packet's one term list in the owner's
        dictionary (one ``encode`` per term, not per cell); returns its
        ``(output index, table)`` pairs as *id tables* in the owner's
        space (idempotent: interning is)."""
        values = self.dictionary.encode_many(packet.terms)
        return [(output, table.over(values)) for output, table in packet.tables]

    def on_data(self, packet: DataPacket) -> None:
        """Dispatch a data packet's tables to their outputs'
        continuations."""
        channel = self._channels.get(packet.channel_id)
        if channel is None:
            # never rooted here, already answered, or torn down
            if packet.channel_id in self._discarded:
                # the replan already tore this channel down: these
                # bindings were computed for nothing — account them
                self._count("discarded_bindings", packet.rows)
            return
        outputs = channel.outputs
        seen = channel.received_seqs
        if packet.seq in seen:
            # duplicated in flight, or replayed after a retransmit the
            # original answer raced: never union the same rows twice
            return
        for index, _ in packet.tables:
            if index >= len(outputs):
                return  # nor index past what this channel shipped
        seen.add(packet.seq)
        if packet.failed_peer is not None:
            channel.fail()
            self._finish(channel, packet.failed_peer)
            return
        if packet.final:
            channel.final_seq = packet.seq
        rows = 0
        for index, table in self.on_dictionary(packet):
            output = outputs[index]
            output.rows += table.length
            rows += table.length
            if output.progress is not None:
                output.progress(table)
            else:
                output.chunks.append(table)
        channel.record_tuples(rows)
        if channel.span:  # a recording span: skip the text otherwise
            channel.span.annotate(
                f"data seq={packet.seq} rows={rows}"
                + (" final" if packet.final else "")
            )
        if channel.final_seq is None or len(seen) <= channel.final_seq:
            return  # chunks still outstanding
        channel.close()
        self._finish(channel, None)

    def on_failure(self, channel_id: str) -> None:
        """Transport-level failure of the channel's destination."""
        channel = self._channels.get(channel_id)
        if channel is None:
            return
        channel.fail()
        self._finish(channel, channel.destination)

    def _finish(self, channel: Channel, failed_peer: Optional[str]) -> None:
        """Drop the record and run every output's continuation: with
        its complete table (empty for a pipelined output, whose chunks
        were handed on as they came), or with the failure."""
        if self._channels.pop(channel.channel_id, None) is None:
            return  # discarded from inside its own progress consumer
        key = channel.query_id or channel.channel_id
        for output in channel.outputs:
            table = None
            if failed_peer is None:
                if not output.rows:
                    self._count("scans_empty")
                chunks, output.chunks = output.chunks, []
                table = (
                    concat_tables(chunks)
                    if chunks
                    else BindingBatch(output.columns or output.plan.variables())
                )
            if self._scheduler is None:
                output.callback(table, failed_peer)
            else:
                self._scheduler.submit(key, partial(output.callback, table, failed_peer))

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
            for output in channel.outputs:
                self._count("discarded_bindings", sum(map(len, output.chunks)))
                output.chunks = []
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
