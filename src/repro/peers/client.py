"""Client-peers: query entry points with no base of their own.

Client-peers "have only the ability to pose RQL queries to the rest of
the P2P system" (Section 3); they connect to a simple peer, submit
queries and collect answers.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set

from ..config import DEFAULT_CONFIG, PeerConfig
from ..livedata.continuous import fold_delta
from ..livedata.updates import ContinuousCancel, ContinuousSubscribe, ContinuousUpdate
from ..net.message import Message
from .base import Peer
from .protocol import QueryResult, QueryShed, QuerySubmit

#: Wall-clock seconds a client lets pass per unit of network time: seen
#: from a client the simulator runs at most 0.8 units per ms (16x the
#: live transport's ``time_scale``), so a closed loop's rate is set by
#: its queries' simulated durations and not by how fast the host
#: computes them.  The live transport's clock *is* wall-clock time at a
#: larger scale and never waits.  ``0`` switches the pacing off — the
#: test suite and ``benchmarks/bench_*.py`` do.
SUBMIT_TIME_SCALE = 0.00125
#: the client compares the two clocks at every third submission, so two
#: queries in three start at once
SUBMIT_SYNC_EVERY = 3


class ClientPeer(Peer):
    """A query-only peer.

    Example:
        >>> client = ClientPeer("C1")          # doctest: +SKIP
        >>> client.join(network)               # doctest: +SKIP
        >>> qid = client.submit("P1", "SELECT ...")  # doctest: +SKIP
        >>> network.run()                      # doctest: +SKIP
        >>> client.result(qid)                 # doctest: +SKIP
    """

    def __init__(self, peer_id: str, config: PeerConfig = DEFAULT_CONFIG):
        super().__init__(peer_id, base=None, config=config)
        self.results: Dict[str, QueryResult] = {}
        self._counter = itertools.count(1)
        #: submission pacing: wall-clock and network time of the last
        #: submission that compared them, and the submissions since
        self._synced = 0.0
        self._synced_network = 0.0
        self._unsynced = 0
        #: open root spans (or stage timers) per in-flight query (repro.obs)
        self._spans: Dict[str, object] = {}
        #: queries with a resubmit armed and no outcome yet (a caller
        #: may take an answer out of :attr:`results`)
        self._awaiting: Set[str] = set()
        #: retry-after hints of queries shed by admission control,
        #: keyed by query id (``repro.scenario.play`` re-offers from these)
        self.sheds: Dict[str, float] = {}
        #: called with ``(client, result)`` whenever a query terminates
        #: — answer, error or shed (``repro.scenario.play`` collects
        #: open-loop answers and re-offers sheds here)
        self.result_listeners: List[Callable[["ClientPeer", QueryResult], None]] = []
        #: continuous subscriptions (repro.livedata): the folded
        #: current answer and the raw pushed deltas, per query id
        self.continuous: Dict[str, object] = {}
        self.continuous_updates: Dict[str, List[ContinuousUpdate]] = {}
        self.continuous_errors: Dict[str, str] = {}

    def submit(
        self,
        via_peer: str,
        text: str,
        max_peers: Optional[int] = None,
        limit: Optional[int] = None,
        order_by: Optional[str] = None,
        descending: bool = False,
        trace: bool = False,
    ) -> str:
        """Submit an RQL query through a simple peer; returns the
        query id to look the answer up with.

        Args:
            via_peer: The simple peer acting as coordinator.
            text: RQL source text.
            max_peers: Broadcast bound per path pattern (Section 5's
                completeness/load trade-off).
            limit: Top-N / Bottom-N bound on the answer size.
            order_by: Variable to order the answer by before the limit.
            descending: Sort direction for ``order_by``.
            trace: Keep this query's span tree even when it is not one
                of the sampled queries (``repro.obs.tracer.sampled``).
        """
        network = self._require_network()
        self._pace(network)
        query_id = f"{self.peer_id}-q{next(self._counter)}"
        retry = self.config.resilience.client_retry
        submit = QuerySubmit(
            query_id, text, self.peer_id, max_peers, limit, order_by, descending,
            resubmits=retry is not None,
        )
        # root of the whole distributed trace, or of no trace at all:
        # the sampling decision is made here, once; the query id
        # doubles as the trace id so exports are deterministic
        span = network.tracer.root(
            "query", self.peer_id, query_id, traced=trace, via=via_peer
        )
        self._spans[query_id] = span
        self.send(via_peer, submit, trace=span.context())
        # resubmit when no result arrives (no policy: wait forever, the
        # seed behaviour); coordinators answer duplicate submits
        # idempotently, so resubmission is always safe
        if retry is not None:
            self._awaiting.add(query_id)
            self._arm_resubmit(via_peer, submit, 1)
        return query_id

    def _pace(self, network) -> None:
        """At every ``SUBMIT_SYNC_EVERY``-th submission, hold it until
        wall-clock time has caught up with the network time that passed
        since the last such submission."""
        self._unsynced += 1
        if self._unsynced < SUBMIT_SYNC_EVERY:
            return
        passed = network.now - self._synced_network
        synced = self._synced + passed * SUBMIT_TIME_SCALE
        now = time.perf_counter()
        if now < synced:
            time.sleep(synced - now)
        else:
            synced = now
        self._synced, self._synced_network, self._unsynced = synced, network.now, 0

    def _arm_resubmit(self, via_peer: str, submit: QuerySubmit, attempt: int) -> None:
        network = self._require_network()
        retry = self.config.resilience.client_retry

        def check() -> None:
            if submit.query_id not in self._awaiting:
                return
            span = self._spans.get(submit.query_id)
            if retry.attempts_left(attempt + 1):
                network.metrics.count("retries")
                if span is not None:
                    span.annotate(f"resubmit attempt={attempt + 1}")
                self.send(
                    via_peer,
                    submit,
                    trace=span.context() if span is not None else None,
                )
                self._arm_resubmit(via_peer, submit, attempt + 1)
            else:
                timeout_result = QueryResult(
                    submit.query_id, None, f"no reply from {via_peer}"
                )
                self.results.setdefault(submit.query_id, timeout_result)
                self._finish_span(timeout_result, "timeout")
                self._notify(self.results[submit.query_id])

        network.call_later(retry.timeout(attempt), check)

    def _finish_span(self, result: QueryResult, status: str) -> None:
        span = self._spans.pop(result.query_id, None)
        if span is not None:
            span.finish(status)
            self._require_network().tracer.summarize(
                result.query_id, span, status, error=result.error,
                coverage=result.coverage and result.coverage.describe(),
            )

    def handle_QueryResult(self, message: Message) -> None:
        result: QueryResult = message.payload
        if result.query_id in self.results:
            return  # late duplicate (ad-hoc races): first answer won
        if result.table is not None:
            # the answer arrives packed; readers get a term table
            result = replace(result, table=result.table.to_terms())
        self.results[result.query_id] = result
        if result.error:
            status = "error"
        elif result.coverage is not None:
            status = "partial"
        else:
            status = "ok"
        self._finish_span(result, status)
        self._notify(result)

    def handle_QueryShed(self, message: Message) -> None:
        """The coordinator refused the query under load.  Record an
        explicit shed outcome (never silence) with the retry-after hint;
        resubmission is the caller's (or the workload driver's) call."""
        shed: QueryShed = message.payload
        if shed.query_id in self.results:
            return  # raced a result from an earlier duplicate submit
        self.sheds[shed.query_id] = shed.retry_after
        result = QueryResult(
            shed.query_id,
            None,
            f"shed by {shed.from_peer}: retry after {shed.retry_after:g}",
        )
        self.results[shed.query_id] = result
        self._finish_span(result, "shed")
        self._notify(result)

    # ------------------------------------------------------------------
    # continuous queries (repro.livedata)
    # ------------------------------------------------------------------
    def subscribe(self, via_peer: str, text: str) -> str:
        """Keep ``text`` standing at ``via_peer``: the coordinator
        pushes binding deltas per quiescent revision, folded here into
        :attr:`continuous` (``next = (prev - removed) + added``)."""
        query_id = f"{self.peer_id}-c{next(self._counter)}"
        self.continuous_updates[query_id] = []
        self.send(via_peer, ContinuousSubscribe(query_id, text, self.peer_id))
        return query_id

    def unsubscribe(self, via_peer: str, query_id: str) -> None:
        """Stop the standing query's pushes (the folded answer and the
        recorded deltas stay readable)."""
        self.send(via_peer, ContinuousCancel(query_id))

    def handle_ContinuousUpdate(self, message: Message) -> None:
        update: ContinuousUpdate = message.payload
        self.continuous_updates.setdefault(update.query_id, []).append(update)
        if update.error is not None:
            self.continuous_errors[update.query_id] = update.error
            return
        self.continuous[update.query_id] = fold_delta(
            self.continuous.get(update.query_id), update
        )

    def _notify(self, result: QueryResult) -> None:
        self._awaiting.discard(result.query_id)  # answered, shed or timed out
        for listener in list(self.result_listeners):
            listener(self, result)

    def result(self, query_id: str) -> Optional[QueryResult]:
        return self.results.get(query_id)
