"""The workload driver: offered load as simulator events.

A :class:`WorkloadDriver` owns a pool of client peers, schedules query
submissions according to a :class:`~repro.workload_engine.spec.
WorkloadSpec` (open-loop Poisson/burst arrivals or closed-loop
think-time clients), listens for their outcomes, resubmits shed queries
after their back-off, and assembles a
:class:`~repro.workload_engine.spec.WorkloadReport` when the network
quiesces.  Everything runs on the virtual clock from the driver's own
seeded RNG, so a workload is bit-for-bit replayable — the property the
concurrent differential tests are built on.
"""

from __future__ import annotations

import random
from typing import Dict, List

from .spec import QueryOutcome, WorkloadReport, WorkloadSpec


class WorkloadDriver:
    """Drives one workload against a deployed system.

    Args:
        system: A :class:`~repro.systems.hybrid.HybridSystem` or
            :class:`~repro.systems.adhoc.AdhocSystem` (anything with a
            ``network`` and ``add_client``).
        spec: The workload to offer.

    Usage::

        driver = WorkloadDriver(system, spec)
        driver.install()
        system.network.run()
        report = driver.report()

    or just :func:`serve`, which does exactly that.
    """

    def __init__(self, system, spec: WorkloadSpec):
        self.system = system
        self.spec = spec
        self.network = system.network
        self.rng = random.Random(spec.seed)
        #: finalized outcomes, in completion order (sorted at report time)
        self.outcomes: List[QueryOutcome] = []
        #: query id -> outcome of the submission awaiting its reply
        self._inflight: Dict[str, QueryOutcome] = {}
        self._clients: List = []
        #: logical indices claimed so far (doubles as the closed loop's
        #: shared remaining-work counter)
        self._next_index = 0
        self._installed = False
        # telemetry (repro.obs.telemetry): optional pull-based sampling
        # on outcome completion — reads metrics, never schedules events
        self.probe = None
        self.telemetry_series = None
        self.slo_monitor = None
        self.slo_window = 60.0
        self.slo_events: List[dict] = []

    @property
    def clients(self) -> List:
        """The driver-owned client peers (created by :meth:`install`)."""
        return list(self._clients)

    def attach_telemetry(self, probe=None, rules=(), window: float = 60.0):
        """Sample telemetry on every completed outcome.

        Pull-based and uncharged: each completion reads the metrics
        into a :class:`~repro.obs.telemetry.sampler.PeerSeries` and
        evaluates the SLO monitor — no simulator events are scheduled,
        so an instrumented run stays bit-identical to a bare one.
        Returns the driver for chaining.
        """
        from ..obs.telemetry import PeerSeries, SLOMonitor, TelemetryProbe

        if probe is None:
            probe = TelemetryProbe(
                self.network,
                peers=[*self.system.peers.values(), *self.system.super_peers.values()],
            )
        self.probe = probe
        self.telemetry_series = PeerSeries()
        self.slo_monitor = SLOMonitor(tuple(rules), scope="sim")
        self.slo_window = window
        return self

    # ------------------------------------------------------------------
    # installation: turn the spec into scheduled submission events
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Create the driver's clients and schedule the arrivals."""
        if self._installed:
            raise RuntimeError("workload driver already installed")
        self._installed = True
        spec = self.spec
        for i in range(min(spec.clients, spec.count)):
            client = self.system.add_client(f"wl-client{i + 1}")
            client.result_listeners.append(self._on_result)
            self._clients.append(client)
        if spec.mode == "open":
            self._install_open_loop()
        else:
            self._install_closed_loop()

    def _install_open_loop(self) -> None:
        """Pre-draw the whole arrival process (independent of query
        completions — that is what makes the loop *open*): exponential
        gaps between arrival instants, ``burst_size`` submissions per
        instant, round-robined over the client pool."""
        spec = self.spec
        at = 0.0
        offered = 0
        while offered < spec.count:
            at += self.rng.expovariate(spec.arrival_rate)
            for _ in range(min(spec.burst_size, spec.count - offered)):
                index = self._next_index
                self._next_index += 1
                client = self._clients[index % len(self._clients)]
                self.network.call_later(
                    at, lambda c=client, i=index: self._submit(c, i)
                )
                offered += 1

    def _install_closed_loop(self) -> None:
        """Each client submits one query at start; the next submission
        is scheduled ``think_time`` after its answer arrives."""
        for client in self._clients:
            index = self._claim_index()
            if index is None:
                break
            self.network.call_later(
                0.0, lambda c=client, i=index: self._submit(c, i)
            )

    def _claim_index(self):
        if self._next_index >= self.spec.count:
            return None
        index = self._next_index
        self._next_index += 1
        return index

    # ------------------------------------------------------------------
    # submissions and outcomes
    # ------------------------------------------------------------------
    def _submit(self, client, index: int) -> None:
        via, text = self.spec.queries[index % len(self.spec.queries)]
        query_id = client.submit(via, text, limit=self.spec.limit)
        self._inflight[query_id] = QueryOutcome(
            index=index,
            via=via,
            text=text,
            client_id=client.peer_id,
            query_id=query_id,
            submitted_at=self.network.now,
        )

    def _resubmit(self, client, outcome: QueryOutcome) -> None:
        """Re-offer a shed query after its back-off: a fresh query id,
        but the same logical outcome (latency keeps counting from the
        first submission)."""
        query_id = client.submit(outcome.via, outcome.text, limit=self.spec.limit)
        outcome.query_id = query_id
        self._inflight[query_id] = outcome

    def _on_result(self, client, result) -> None:
        outcome = self._inflight.pop(result.query_id, None)
        if outcome is None:
            return  # a query somebody else submitted through our client
        retry_after = client.sheds.pop(result.query_id, None)
        if (
            retry_after is not None
            and self.spec.resubmit_sheds
            and outcome.shed_retries < self.spec.max_shed_retries
        ):
            outcome.shed_retries += 1
            self.network.call_later(
                retry_after, lambda: self._resubmit(client, outcome)
            )
            return
        outcome.finished_at = self.network.now
        if result.error:
            outcome.status = "shed" if retry_after is not None else "error"
            outcome.error = result.error
        elif result.coverage is not None and not result.coverage.is_complete:
            outcome.status = "partial"
            outcome.rows = len(result.table)
        else:
            outcome.status = "ok"
            outcome.rows = len(result.table)
        self.outcomes.append(outcome)
        if self.probe is not None:
            sample = self.probe.sample()
            self.telemetry_series.append(sample)
            self.slo_events.extend(
                self.slo_monitor.evaluate(
                    sample.t, self.telemetry_series.rollup(self.slo_window)
                )
            )
        if self.spec.mode == "closed":
            index = self._claim_index()
            if index is not None:
                self.network.call_later(
                    self.spec.think_time,
                    lambda c=client, i=index: self._submit(c, i),
                )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> WorkloadReport:
        """Assemble the report.  Submissions still awaiting a reply are
        included with status ``silent`` — their presence after a run to
        quiescence is a liveness bug the property tests assert against.
        """
        outcomes = sorted(
            list(self.outcomes) + list(self._inflight.values()),
            key=lambda o: o.index,
        )
        started = min((o.submitted_at for o in outcomes), default=0.0)
        # the workload ends at its last completion, not at the last
        # no-op timer (disarmed deadlines and back-offs quiesce later
        # and would otherwise inflate the duration)
        finished = max(
            (o.finished_at for o in outcomes if o.finished_at is not None),
            default=self.network.now,
        )
        return WorkloadReport(
            outcomes=outcomes,
            started_at=started,
            finished_at=finished,
            metrics=dict(self.network.metrics.summary()),
        )


def serve(system, spec: WorkloadSpec, max_events: int = 2_000_000) -> WorkloadReport:
    """Install a workload, run the network to quiescence, report.

    This is the deployment's serving loop: many queries in flight at
    once, injected mid-run by the driver, with admission control and
    fair scheduling active if the system enabled them.
    """
    driver = WorkloadDriver(system, spec)
    driver.install()
    system.network.run(max_events=max_events)
    return driver.report()
