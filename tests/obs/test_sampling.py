"""Head-based trace sampling: the decision is made once, at the query's
root, and rides in the trace context.  An unsampled query builds no
span, its messages carry no trace slot, its stages still reach the
stage histograms, and a bad ending still leaves a root summary."""

import json

import pytest

from repro.channels.packets import SubPlanPacket
from repro.cli import main
from repro.core.algebra import Scan
from repro.deploy import ClusterSpec, build_sim_system, build_workload
from repro.membership import MembershipManager
from repro.net.message import Message
from repro.net.simulator import Network
from repro.obs import StageTimer, Tracer, stitch_summaries, stitch_trace_exports
from repro.obs.tracer import SAMPLE_EVERY, sampled
from repro.peers.base import Peer
from repro.peers.protocol import QuerySubmit
from repro.peers.scheduler import FairScheduler
from repro.scenario import Crash, Query, Scenario, play
from repro.systems import HybridSystem
from repro.transport.codec import (
    decode_frame, decode_message, encode_frame, encode_message,
)
from repro.workloads.paper import PAPER_QUERY, hybrid_scenario


@pytest.fixture
def system():
    return HybridSystem.from_scenario(hybrid_scenario())


@pytest.fixture
def started_spans(monkeypatch):
    """Query ids of every span :meth:`Tracer.start_span` opens."""
    opened = []
    start_span = Tracer.start_span

    def counting(self, *args, **kwargs):
        span = start_span(self, *args, **kwargs)
        opened.append(span.trace_id)
        return span

    monkeypatch.setattr(Tracer, "start_span", counting)
    return opened


@pytest.fixture
def sent(monkeypatch):
    """Every message the simulator is asked to send."""
    messages = []
    send = Network.send

    def recording(network, message):
        messages.append(message)
        return send(network, message)

    monkeypatch.setattr(Network, "send", recording)
    return messages


def _frame(message: Message) -> bytes:
    return encode_frame("msg", encode_message(message))


class TestDecision:
    def test_one_query_in_n_by_its_ordinal(self):
        ids = [f"client1-q{n}" for n in range(1, 3 * SAMPLE_EVERY + 1)]
        assert [i for i in ids if sampled(i)] == [
            "client1-q1", f"client1-q{SAMPLE_EVERY + 1}",
            f"client1-q{2 * SAMPLE_EVERY + 1}",
        ]

    def test_an_id_without_an_ordinal_is_decided_by_its_crc(self):
        # stable across processes: no hash() of a str, no simulator rng
        decisions = [sampled(f"query-{c}") for c in "abcdefghijklmnopqrstuvwxyz"]
        assert decisions == [sampled(f"query-{c}") for c in "abcdefghijklmnopqrstuvwxyz"]
        assert any(decisions) and not all(decisions)

    def test_a_marked_query_is_traced(self, system):
        system.query("P1", PAPER_QUERY)
        system.query("P1", PAPER_QUERY, trace=True)
        assert system.network.trace_collector.trace_ids() == [
            "client1-q1", "client1-q2",
        ]

    def test_a_coordinator_roots_the_decision_for_a_bare_submit(self, system):
        peer = system.peers["P1"]
        for query_id in ("bare-q1", "bare-q2"):
            peer.coordinator.submit(QuerySubmit(query_id, PAPER_QUERY, "P1"))
            system.run()
        assert system.network.trace_collector.trace_ids() == ["bare-q1"]


class TestUnsampledQuery:
    def test_it_creates_no_span(self, system, started_spans):
        system.query("P1", PAPER_QUERY)  # client1-q1: sampled
        traced = len(started_spans)
        assert traced > 0 and set(started_spans) == {"client1-q1"}
        system.query("P1", PAPER_QUERY)  # client1-q2: not
        assert len(started_spans) == traced

    def test_its_frames_have_no_trace_position(self, system, sent):
        system.query("P1", PAPER_QUERY)
        first = len(sent)
        system.query("P1", PAPER_QUERY)
        traced, untraced = sent[:first], sent[first:]
        assert untraced and all(m.trace is None for m in untraced)
        for message in untraced:
            assert "trace" not in encode_message(message)
            assert b'"trace"' not in _frame(message)
        assert any(m.trace is not None for m in traced)

    @pytest.mark.parametrize("traced", [True, False])
    def test_the_codec_round_trips_with_and_without_a_trace(self, system, sent, traced):
        system.query("P1", PAPER_QUERY)
        system.query("P1", PAPER_QUERY)
        messages = [m for m in sent if (m.trace is not None) == traced]
        assert messages
        for message in messages:
            kind, body = decode_frame(_frame(message))
            decoded = decode_message(body)
            assert (decoded.src, decoded.dst, decoded.size) == (
                message.src, message.dst, message.size,
            )
            assert decoded.trace == message.trace
            assert _frame(decoded) == _frame(message)

    def test_its_stages_still_reach_the_histograms(self, monkeypatch):
        def stages():
            system = HybridSystem.from_scenario(hybrid_scenario())
            for _ in range(4):
                system.query("P1", PAPER_QUERY)
            return {
                name: histogram.summary()
                for name, histogram in system.network.metrics.stage_latency.items()
            }

        sampled_one_in_n = stages()
        monkeypatch.setattr("repro.obs.tracer.SAMPLE_EVERY", 1)
        assert stages() == sampled_one_in_n

    def test_a_stage_timer_is_false_and_sends_no_context(self, system):
        timer = system.network.tracer.stage("channel", "P1", None)
        assert isinstance(timer, StageTimer) and not timer
        assert timer.context() is None and timer.set(rows=1) is timer
        timer.finish()
        timer.finish("failed")  # idempotent, as a span's finish
        assert system.network.metrics.stage_latency["channel"].count == 1

    def test_a_partial_ending_keeps_its_summary_and_events(self):
        spec = ClusterSpec(seed=0, peers=3, super_peers=1, resilient=True)
        workload = build_workload(spec)
        system = build_sim_system(spec, workload)
        MembershipManager(system).attach_all()
        text = workload.queries[0]
        outcomes = list(play(
            Scenario((Query("P1", text), Crash("P2"), Query("P1", text))),
            system, bases=workload.bases,
        ))
        assert [o.status for o in outcomes] == ["full", "partial"]
        query_id = outcomes[1].query_id
        assert not sampled(query_id)
        collector = system.network.trace_collector
        assert collector.trace_ids() == [outcomes[0].query_id]
        summary = collector.summaries[query_id]
        assert summary["status"] == "partial" and summary["attempts"] == 2
        assert summary["duration"] > 0 and "missing" in summary["coverage"]
        events = [e for e in system.network.flight_recorder.events()
                  if e.get("query_id") == query_id]
        assert [e["kind"] for e in events] == ["replan"]

    def test_an_ok_ending_keeps_nothing(self, system):
        system.query("P1", PAPER_QUERY)
        system.query("P1", PAPER_QUERY)
        assert not system.network.trace_collector.summaries


def _scan_only_shipments(sent):
    """The shipments of scans alone among ``sent``: a destination runs
    each as scan roots, with no operator."""
    return [
        m for m in sent
        if isinstance(m.payload, SubPlanPacket)
        and all(type(plan) is Scan for plan in m.payload.plans)
    ]


class TestHostedScanShipments:
    """A destination serving scans alone keeps its stage: a sampled
    query's shipment runs in an ``execute`` span under the shipping
    ``channel`` span, an unsampled one still times ``execute`` once."""

    def test_a_sampled_shipment_executes_under_its_channel_span(self, system, sent):
        system.query("P1", PAPER_QUERY)  # client1-q1: sampled
        shipments = _scan_only_shipments(sent)
        assert shipments
        spans = system.network.trace_collector.spans("client1-q1")
        for message in shipments:
            (channel,) = [
                s for s in spans
                if s.name == "channel"
                and s.attributes.get("channel") == message.payload.channel_id
            ]
            executes = [
                s for s in spans
                if s.name == "execute" and s.parent_id == channel.span_id
            ]
            assert [s.peer_id for s in executes] == [message.dst]
            assert executes[0].status == "ok" and executes[0].end is not None

    def test_an_unsampled_shipment_adds_one_execute_observation(self, system, sent):
        system.query("P1", PAPER_QUERY)
        metrics = system.network.metrics
        before = metrics.stage_latency["execute"].count
        first = len(sent)
        system.query("P1", PAPER_QUERY)  # client1-q2: not sampled
        shipped = [m for m in sent[first:] if isinstance(m.payload, SubPlanPacket)]
        assert shipped and all(m.trace is None for m in shipped)
        assert _scan_only_shipments(shipped) == shipped
        # one per hosted shipment, and the coordinator's own executor
        assert metrics.stage_latency["execute"].count - before == len(shipped) + 1

    def test_fair_scheduling_runs_each_hosted_scan_as_a_work_unit(
        self, system, sent, monkeypatch
    ):
        """Every scan a destination serves runs inside a work unit its
        scheduler pumped, one unit per scan."""
        system.enable_fair_scheduling(quantum=0.25)
        pumping, scans = [], []
        pump, local_scan = FairScheduler._pump, Peer.local_scan

        def pumped(scheduler):
            pumping.append(scheduler)
            try:
                pump(scheduler)
            finally:
                pumping.pop()

        def scanned(peer, scan):
            in_unit = bool(pumping) and pumping[-1] is peer.scheduler
            scans.append((peer.peer_id, scan, in_unit))
            return local_scan(peer, scan)

        monkeypatch.setattr(FairScheduler, "_pump", pumped)
        monkeypatch.setattr(Peer, "local_scan", scanned)
        units = {p: peer.scheduler.executed for p, peer in system.peers.items()}
        system.query("P1", PAPER_QUERY)
        hosted = [
            (m.dst, plan.render())
            for m in _scan_only_shipments(sent)
            for plan in m.payload.plans
        ]
        assert hosted
        served = [(p, scan.render()) for p, scan, _ in scans if p != "P1"]
        assert sorted(served) == sorted(hosted)
        assert all(in_unit for _, _, in_unit in scans)
        for destination in {d for d, _ in hosted}:
            executed = system.peers[destination].scheduler.executed - units[destination]
            # its shipment's start, then one unit per scan
            assert executed >= 1 + sum(d == destination for d, _ in hosted)


class TestRetention:
    def test_a_300_query_run_keeps_about_300_over_n_trees(self, system):
        for _ in range(300):
            system.query("P1", PAPER_QUERY)
        kept = system.network.trace_collector.trace_ids()
        assert len(kept) == -(-300 // SAMPLE_EVERY)
        assert system.network.trace_collector.evicted_traces == 0


def _trace_ids(outdir):
    merged = json.loads((outdir / "merged.traces.json").read_text())
    nodes = list(merged["nodes"].values())
    return sorted(stitch_trace_exports(nodes)), sorted(stitch_summaries(nodes))


class TestSimAndLive:
    def test_both_targets_sample_the_same_queries(self, tmp_path, capsys):
        count = str(SAMPLE_EVERY + 2)
        assert main(["run", "--count", count, "--outdir", str(tmp_path / "sim")]) == 0
        assert main(["run", "--live", "--count", count,
                     "--outdir", str(tmp_path / "live")]) == 0
        capsys.readouterr()
        sim, live = _trace_ids(tmp_path / "sim"), _trace_ids(tmp_path / "live")
        assert sim == live
        assert sim[0] == ["client1-q1", f"client1-q{SAMPLE_EVERY + 1}"]

    def test_trace_says_not_sampled_for_a_summarised_query(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        # seed 0: one of the four generated texts matches no peer, so
        # some unsampled queries end in an error
        assert main(["run", "--count", "8", "--outdir", str(outdir)]) == 0
        capsys.readouterr()
        _, summarised = _trace_ids(outdir)
        assert summarised
        assert main(["trace", str(outdir / "merged.traces.json"),
                     "--query", summarised[0], "--check"]) == 0
        out = capsys.readouterr().out
        assert f"query {summarised[0]} not sampled" in out
        assert "status=error" in out
