"""The channel construct (paper Section 2.4, after ubQL).

Each channel has a **root** and a **destination** node.  The root
manages the channel under a locally unique id; data packets flow from
the destination to the root; the root reacts to failures and plan
changes.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from ..core.algebra import PlanNode
from ..obs.tracer import NULL_SPAN


class ChannelState(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"
    FAILED = "failed"


class Output:
    """One subplan shipped over a channel and its root-side consumer.

    Attributes:
        plan: The subplan; its position among the channel's outputs is
            the *output index* its tables come back under.
        callback: Continuation invoked with ``(table, failed_peer)``
            when the channel completes.
        progress: Per-chunk consumer (pipelined outputs only).
        columns: The header the root reads — what the destination is
            asked to return, distinct rows only (``None``: the plan's
            raw width).
        chunks: Streamed chunks, concatenated once at completion.
        rows: Result tuples seen so far for this output.
    """

    __slots__ = ("plan", "callback", "progress", "columns", "chunks", "rows")

    def __init__(
        self, plan: Optional[PlanNode], callback=None, progress=None, columns=None
    ):
        self.plan = plan
        self.callback = callback
        self.progress = progress
        self.columns = columns
        self.chunks: list = []
        self.rows = 0


class Channel:
    """Root-side bookkeeping for one channel.

    Attributes:
        channel_id: Root-local unique id (``"P1#3"``).
        root: The managing peer (launched the subplans).
        destination: The peer executing the subplans.
        outputs: Everything shipped over the channel, by output index.
        state: Lifecycle state.
        tuples_received: Result tuples seen so far, all outputs (the
            throughput signal run-time adaptation watches).
        span: The root-side tracing span covering the channel's
            open-transfer-close lifetime (a stage timer for an unsampled
            query, ``NULL_SPAN`` outside a traced network).
        received_seqs: Sequence numbers seen (packet dedup).
        final_seq: The seq carried by the stream's final packet, once
            seen — the stream completes when seqs 0..final have ALL
            arrived, not when the final packet does (back-to-back
            batches can arrive out of order: delivery delay grows with
            packet size).
    """

    __slots__ = (
        "channel_id",
        "root",
        "destination",
        "outputs",
        "state",
        "tuples_received",
        "query_id",
        "span",
        "received_seqs",
        "final_seq",
    )

    def __init__(
        self,
        channel_id: str,
        root: str,
        destination: str,
        outputs: Sequence[Output],
        query_id: str = "",
        span=NULL_SPAN,
    ):
        self.channel_id = channel_id
        self.root = root
        self.destination = destination
        self.outputs = tuple(outputs)
        self.state = ChannelState.OPEN
        self.tuples_received = 0
        self.query_id = query_id
        self.span = span
        self.received_seqs: set = set()
        self.final_seq: Optional[int] = None

    @property
    def is_open(self) -> bool:
        return self.state is ChannelState.OPEN

    def record_tuples(self, count: int) -> None:
        self.tuples_received += count

    def close(self) -> None:
        if self.state is ChannelState.OPEN:
            self.state = ChannelState.CLOSED
            self.span.set(tuples=self.tuples_received)
            self.span.finish()

    def fail(self) -> None:
        if self.state is ChannelState.OPEN:
            self.span.set(tuples=self.tuples_received)
            self.span.finish("failed")
        self.state = ChannelState.FAILED

    def __repr__(self) -> str:
        return (
            f"Channel({self.channel_id}: {self.root} -> {self.destination}, "
            f"{self.state.value}, tuples={self.tuples_received})"
        )
