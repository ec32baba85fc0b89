"""One run of one workload: epochs, timing, metrics, checking.

A run is a fixed number of identical epochs — the workload's count for
a run of ``BENCHMARK.json``'s ``run_seconds``, scaled with ``--seconds``
— so the number of replicas a run draws its values from does not depend
on the speed being measured.  An epoch (1) builds a fresh default-constructed
deployment — the timed set-up, several times for the sim workloads whose
set-up takes milliseconds — (2) makes one untimed pass over the distinct
query texts so imports and lazy closures are paid, (3) times the
workload's fixed operation sequence, one operation in flight, and (4)
checks every answer against the oracle, outside the timed section.

An untraced run reports the end-to-end metrics.  A traced run reports
the per-layer metrics: it alternates untraced and traced epochs (the
wrappers of ``trace.py`` are installed only for the traced ones), so the
tracing overhead is the ratio of the two kinds of epoch inside one run.
The end-to-end timings are those of the run's fastest epoch.
Garbage collection stays enabled throughout.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .oracle import OpResult, Oracle
from .spec import RUN_SECONDS
from .trace import NO_OP, TARGETS, SpanRecorder, codec_probe
from .workloads import Inputs, Op, Workload, launcher_peak_rss_mb

#: an epoch stops after this many failed operations (a stuck live query
#: waits out an 80 s timeout; the run has to end well inside 180 s)
MAX_FAILURES_PER_EPOCH = 3
#: messages of the first traced epoch kept for the codec probe
CODEC_PROBE_MESSAGES = 2000


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


@dataclass
class Epoch:
    """What one epoch measured."""

    traced: bool
    setup_s: List[float]
    wall_s: float
    cpu_s: float
    node_cpu_s: float
    results: List[OpResult]
    counters: Dict[str, Optional[float]]
    peak_rss_mb: float
    shutdown_s: float
    duration_s: float
    failures: List[str] = field(default_factory=list)

    def latencies(self, kind: str) -> List[float]:
        return [r.latency for r in self.results if r.op.kind == kind and r.error is None]

    def latency_ms(self, kind: str, fraction: float) -> Optional[float]:
        """A percentile of this epoch's latencies of one operation kind
        (``None`` when none succeeded)."""
        latencies = self.latencies(kind)
        return percentile(latencies, fraction) * 1e3 if latencies else None

    def count(self, kind: str) -> int:
        return sum(1 for r in self.results if r.op.kind == kind)


def _run_ops(deployment, inputs: Inputs, recorder: Optional[SpanRecorder]):
    """The timed section.  Returns ``(results, wall, cpu)`` with the
    harness's own pauses (checkpoint snapshots) taken out of both."""
    results: List[OpResult] = []
    paused_wall = paused_cpu = 0.0
    failures = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for index, op in enumerate(inputs.ops):
        if recorder is not None:
            recorder.op = index
        started = time.perf_counter()
        try:
            result, error = deployment.execute(op), None
        except Exception as exc:  # the run goes on; the operation failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        results.append(OpResult(op, time.perf_counter() - started, result, error))
        if error is not None:
            failures += 1
            if failures >= MAX_FAILURES_PER_EPOCH:
                results.extend(
                    OpResult(rest, 0.0, None, "skipped after repeated failures")
                    for rest in inputs.ops[index + 1:]
                )
                break
        if op.kind == "update":
            pause_wall, pause_cpu = time.perf_counter(), time.process_time()
            deployment.after_update(op)
            paused_wall += time.perf_counter() - pause_wall
            paused_cpu += time.process_time() - pause_cpu
    wall = time.perf_counter() - wall0 - paused_wall
    cpu = time.process_time() - cpu0 - paused_cpu
    if recorder is not None:
        recorder.op = NO_OP
    return results, wall, cpu


def run_epoch(
    workload: Workload,
    inputs: Inputs,
    oracle: Oracle,
    recorder: Optional[SpanRecorder],
    setup_repeats: int,
) -> Epoch:
    """One epoch; ``recorder`` set means a traced one."""
    epoch_started = time.perf_counter()
    if recorder is not None:
        recorder.install()
    try:
        setup_s: List[float] = []
        deployment = None
        for _ in range(setup_repeats):
            if deployment is not None:
                deployment.close()
            prepared = workload.prepare(inputs)
            started = time.perf_counter()
            deployment = workload.deploy(inputs, prepared)
            setup_s.append(time.perf_counter() - started)
        try:
            for text in inputs.texts:  # untimed: imports, lazy closures
                deployment.execute(Op("query", inputs.peer_ids[0], text))
            before = deployment.counters(detail=recorder is not None)
            node_cpu0 = deployment.cpu_seconds()
            results, wall_s, cpu_s = _run_ops(deployment, inputs, recorder)
            node_cpu_s = deployment.cpu_seconds() - node_cpu0
            after = deployment.counters(detail=recorder is not None)
            peak_rss_mb = launcher_peak_rss_mb() + deployment.extra_rss_mb()
        finally:
            started = time.perf_counter()
            deployment.close()
            shutdown_s = time.perf_counter() - started
    finally:
        if recorder is not None:
            recorder.uninstall()
    counters = {
        name: None if after[name] is None or before[name] is None
        else after[name] - before[name]
        for name in after
    }
    if "obs_retained_traces" in after:
        counters["obs_retained_traces"] = after["obs_retained_traces"]  # a gauge
    epoch = Epoch(
        traced=recorder is not None, setup_s=setup_s, wall_s=wall_s,
        cpu_s=cpu_s + node_cpu_s, node_cpu_s=node_cpu_s, results=results,
        counters=counters, peak_rss_mb=peak_rss_mb, shutdown_s=shutdown_s,
        duration_s=time.perf_counter() - epoch_started,
    )
    epoch.failures = oracle.failures(results, deployment)
    for outcome in results:
        outcome.result = None  # checked; keep the harness's heap small
    return epoch


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def median_over_epochs(values) -> Optional[float]:
    """The median of one value per epoch, skipping epochs that have none."""
    present = [value for value in values if value is not None]
    return statistics.median(present) if present else None


def epoch_timings(epoch: Epoch) -> Dict[str, Optional[float]]:
    """The timing metrics of one epoch: its own throughput, its own
    latency percentiles, its own CPU per query."""
    queries = max(1, epoch.count("query"))
    return {
        "throughput_qps": max(0, epoch.count("query") - len(epoch.failures)) / epoch.wall_s,
        "latency_p50_ms": epoch.latency_ms("query", 0.50),
        "latency_p95_ms": epoch.latency_ms("query", 0.95),
        "cpu_ms_per_query": epoch.cpu_s / queries * 1e3,
        "update_apply_p50_ms": epoch.latency_ms("update", 0.50),
    }


def end_to_end_metrics(epochs: List[Epoch]) -> Dict[str, float]:
    """The end-to-end metrics of a run's (untraced) epochs.

    Epochs are replicas of one another on a host whose speed moves by a
    third from one epoch to the next, so the timings are those of one
    real epoch, the run's **fastest** — the one the host disturbed
    least — with its own percentiles, GC pauses included.  The number of
    epochs is fixed, so every run picks from equally many.  (On ten runs
    of one noisy half hour the median over the epochs spread 21 % on
    ``sim-fanout``'s throughput, the fastest epoch 5.5 %; the medians
    are kept in the report as ``epoch_median``.)  Set-up time likewise:
    the median of one epoch's set-up samples, from the epoch where that
    median is smallest (a slow phase of the host moved the median over
    all samples by 45 %).  The counts are equal in every epoch, and
    memory is the process's high-water mark, i.e. the last reading."""
    clean = [e for e in epochs if not e.failures] or epochs
    fastest = max(clean, key=lambda e: epoch_timings(e)["throughput_qps"])
    queries = max(1, fastest.count("query"))
    metrics = {
        "setup_s": min(statistics.median(e.setup_s) for e in epochs),
        **{name: value or 0.0 for name, value in epoch_timings(fastest).items()},
        "messages_per_query": fastest.counters["messages"] / queries,
        "wire_bytes_per_query": fastest.counters["bytes"] / queries,
        "peak_rss_mb": max(e.peak_rss_mb for e in epochs),
    }
    if not fastest.count("update"):
        del metrics["update_apply_p50_ms"]
    return metrics


def epoch_medians(epochs: List[Epoch]) -> Dict[str, Optional[float]]:
    """The median over the epochs of each timing metric, recorded next
    to the reported values."""
    timings = [epoch_timings(e) for e in epochs]
    medians = {
        name: median_over_epochs(t[name] for t in timings) for name in timings[0]
    }
    medians["setup_s"] = statistics.median([s for e in epochs for s in e.setup_s])
    return medians


def _latency_drift(epoch: Epoch) -> Optional[float]:
    """Mean latency of the last quarter of an epoch's queries over that
    of the first quarter, each latency first divided by the median for
    its query text (the seed shuffles the order, so the two quarters
    hold different texts).  Above 1: state that accumulates per query
    makes later queries slower."""
    answered = [r for r in epoch.results if r.op.kind == "query" and r.error is None]
    quarter = len(answered) // 4
    if not quarter:
        return None
    by_text: Dict[str, List[float]] = {}
    for r in answered:
        by_text.setdefault(r.op.text, []).append(r.latency)
    typical = {text: statistics.median(values) for text, values in by_text.items()}
    relative = [r.latency / typical[r.op.text] for r in answered]
    return statistics.fmean(relative[-quarter:]) / statistics.fmean(relative[:quarter])


def _ratio(numerator, denominator) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def per_layer_metrics(
    workload: Workload,
    epochs: List[Epoch],
    recorder: SpanRecorder,
    probe: Dict[str, Optional[float]],
    generate_s: float,
) -> Dict[str, Optional[float]]:
    """The per-layer metrics of a traced run.  ``None`` marks a metric
    that does not apply to the workload (no updates, no node processes)
    or whose span target no longer resolves."""
    traced = [e for e in epochs if e.traced]
    plain = [e for e in epochs if not e.traced]
    stats = recorder.stats()
    gone = recorder.unresolved_spans()
    queries = sum(e.count("query") for e in traced)
    revisions = sum(e.count("update") for e in traced)
    wall = sum(e.wall_s for e in traced)

    def span(name, attribute):
        if name in gone:
            return None
        return getattr(stats[name], attribute) if name in stats else 0.0

    def total(names, attribute):
        values = [span(name, attribute) for name in names]
        return None if None in values else sum(values)

    def per(names, attribute, denominator, scale=1.0):
        value = _ratio(total(names, attribute), denominator)
        return None if value is None else value * scale

    def counter(name):
        values = [e.counters.get(name) for e in traced]
        return None if None in values else sum(values)

    channel_spans = [
        "channels.open", "channels.on_data", "channels.on_dictionary",
        "channels.on_failure", "channels.discard",
    ]
    messages = span("net.send", "calls")
    records = span("livedata.apply", "count")
    batches = span("livedata.apply", "calls")
    cpu = sum(e.cpu_s for e in traced)
    metrics: Dict[str, Optional[float]] = {
        "rql.parse_us_per_query": per(["rql.parse"], "self_s", queries, 1e6),
        "rql.pattern_us_per_query": per(["rql.pattern"], "self_s", queries, 1e6),
        "subsumption.us_per_query": per(
            ["subsumption.check", "subsumption.rewrite"], "self_s", queries, 1e6
        ),
        "subsumption.checks_per_query": per(["subsumption.check"], "calls", queries),
        "routing.route_us_per_query": per(
            ["routing.route", "routing.route_query"], "self_s", queries, 1e6
        ),
        "routing.peers_annotated_per_query": per(["routing.route"], "count", queries),
        "cache.routing_hit_ratio": _ratio(
            span("cache.routing_get", "count"), span("cache.routing_get", "calls")
        ),
        "cache.plan_hit_ratio": _ratio(
            span("cache.plan_get", "count"), span("cache.plan_get", "calls")
        ),
        "cache.invalidations_per_revision": _ratio(
            counter("cache_invalidations"), revisions
        ),
        "cache.coalesced_per_query": _ratio(counter("coalesced_queries"), queries),
        "planning.build_us_per_query": per(["planning.build"], "self_s", queries, 1e6),
        "planning.scans_per_plan": _ratio(
            span("planning.build", "count"), span("planning.build", "calls")
        ),
        "optimizer.optimize_us_per_query": per(
            ["optimizer.optimize"], "self_s", queries, 1e6
        ),
        "execution.scan_us_per_query": per(["execution.scan"], "self_s", queries, 1e6),
        "execution.scan_rows_per_query": per(["execution.scan"], "count", queries),
        "execution.kernel_us_per_query": per(["execution.kernel"], "self_s", queries, 1e6),
        "execution.kernel_rows_in_per_query": per(["execution.kernel"], "count", queries),
        "execution.finalize_us_per_query": per(
            ["execution.finalize"], "self_s", queries, 1e6
        ),
        "execution.rows_out_per_query": per(["execution.finalize"], "count", queries),
        "execution.useful_row_ratio": _ratio(
            span("execution.finalize", "count"), span("execution.scan", "count")
        ),
        "channels.manager_us_per_query": per(channel_spans, "self_s", queries, 1e6),
        "channels.subplans_per_query": per(["channels.open"], "calls", queries),
        "channels.data_packets_per_query": per(["channels.on_data"], "calls", queries),
        "channels.bindings_per_packet": _ratio(
            span("channels.on_data", "count"), span("channels.on_data", "calls")
        ),
        "channels.discarded_bindings_per_query": _ratio(
            counter("discarded_bindings"), queries
        ),
        "net.dispatch_us_per_msg": per(["net.send", "net.run"], "self_s", messages, 1e6),
        "net.events_per_query": per(["net.run"], "count", queries),
        "peers.handler_us_per_msg": per(
            ["peers.receive"], "self_s", span("peers.receive", "calls"), 1e6
        ),
        "peers.coordinator_us_per_query": per(["peers.receive"], "self_s", queries, 1e6),
        "obs.spans_per_query": _ratio(counter("obs_spans"), queries),
        "obs.retained_traces": (
            traced[-1].counters.get("obs_retained_traces") if traced else None
        ),
        "livedata.apply_us_per_record": per(["livedata.apply"], "self_s", records, 1e6),
        # one super-peer: a batch that moves the advertisement sends
        # exactly one AdvertiseDelta
        "livedata.flip_ratio": _ratio(counter("advertise_delta_messages"), batches),
        "livedata.delta_msgs_per_revision": _ratio(
            counter("advertise_delta_messages"), revisions
        ),
        "livedata.delta_bytes_per_revision": _ratio(
            counter("advertise_delta_bytes"), revisions
        ),
        "livedata.update_apply_p50_ms": median_over_epochs(
            e.latency_ms("update", 0.5) for e in traced
        ),
        "transport.encode_us_per_msg": probe["encode_us_per_msg"],
        "transport.decode_us_per_msg": probe["decode_us_per_msg"],
        "transport.framing_us_per_msg": probe["framing_us_per_msg"],
        "transport.frame_bytes_per_msg": probe["frame_bytes_per_msg"],
        "transport.wait_ms_per_query": (
            per(["transport.run_until"], "self_s", queries, 1e3) if workload.live else None
        ),
        "transport.idle_fraction": None if not wall else 1.0 - cpu / wall,
        "deploy.bringup_s": None,
        "deploy.shutdown_s": None,
        "deploy.node_cpu_ms_per_query": (
            _ratio(sum(e.node_cpu_s for e in traced) * 1e3, queries)
            if workload.live else None
        ),
        "driver.generate_s": generate_s,
        "driver.latency_drift": median_over_epochs(_latency_drift(e) for e in traced),
        # epochs alternate untraced, traced: the median ratio of adjacent
        # pairs holds when the host changes speed in the middle of a run
        "trace.overhead_ratio": median_over_epochs(
            t.wall_s / p.wall_s for p, t in zip(plain, traced)
        ),
        "trace.coverage": _ratio(sum(s.self_s for s in stats.values()), wall),
        "trace.unresolved_targets": float(len(recorder.unresolved) + len(probe["unresolved"])),
    }
    if workload.live:
        lifecycle = recorder.stats(timed_only=False)
        for name, target in (("deploy.bringup_s", "deploy.start"),
                             ("deploy.shutdown_s", "deploy.shutdown")):
            if target not in gone and target in lifecycle:
                metrics[name] = lifecycle[target].total_s / lifecycle[target].calls
    return metrics


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    scale: float = 1.0,
    recorder: Optional[SpanRecorder] = None,
) -> Dict[str, object]:
    """Run one workload: as many epochs as ``seconds`` buy at the
    workload's calibrated rate (``epochs`` per ``RUN_SECONDS``), at least
    one, and in a traced run an even number (untraced, traced, ...).

    Returns the run report: environment, operation and failure counts,
    and the end-to-end metrics (untraced) or per-layer metrics (traced).
    ``recorder`` lets a caller supply the span recorder of a traced run
    (the tests pass one with a bogus target; ``--spans`` reads it back).
    """
    start_env = environment()
    started = time.perf_counter()
    inputs = workload.generate(seed, scale)
    generate_s = time.perf_counter() - started
    oracle = Oracle(workload, inputs)
    if traced and recorder is None:
        recorder = SpanRecorder()
    if recorder is not None:
        recorder.capture_limit = CODEC_PROBE_MESSAGES
    count = max(1, round(workload.epochs * seconds / RUN_SECONDS))
    if traced:
        count += count % 2
    epochs: List[Epoch] = []
    for index in range(count):
        trace_this = traced and index % 2 == 1
        # drop the previous epoch's deployment, then move what the harness
        # itself keeps (inputs, oracle tables, twins, spans) out of the
        # collector's sight: the program's gen-2 passes should traverse
        # the program's objects, as they would without a harness around it
        gc.collect()
        gc.freeze()
        epoch = run_epoch(
            workload, inputs, oracle, recorder if trace_this else None,
            # a scaled-down (smoke) run checks behaviour, not set-up time
            workload.setup_repeats if scale == 1.0 else 1,
        )
        epochs.append(epoch)
    attempted = {
        kind: sum(e.count(kind) for e in epochs) for kind in ("query", "update")
    }
    failures = [line for e in epochs for line in e.failures]
    end_env = environment()
    overloaded = max(start_env["loadavg_1m"], end_env["loadavg_1m"]) > (os.cpu_count() or 1)
    report: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "environment": {
            **start_env,
            "loadavg_1m_end": end_env["loadavg_1m"],
            "overloaded": overloaded,
        },
        "epochs": len(epochs),
        "measured_s": sum(e.duration_s for e in epochs),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "latency_samples_per_epoch": len(epochs[0].latencies("query")),
        "epoch_detail": [
            {"traced": e.traced, "wall_s": e.wall_s, "cpu_s": e.cpu_s,
             "queries": e.count("query"), "duration_s": e.duration_s,
             "setup_s": statistics.median(e.setup_s), **epoch_timings(e),
             "messages": e.counters["messages"], "bytes": e.counters["bytes"]}
            for e in epochs
        ],
    }
    if traced:
        probe = codec_probe(_probe_messages(workload, inputs, recorder))
        report["per_layer"] = per_layer_metrics(
            workload, epochs, recorder, probe, generate_s
        )
        report["unresolved_targets"] = recorder.unresolved + probe["unresolved"]
        report["codec_probe_messages"] = probe["messages"]
    else:
        report["end_to_end"] = end_to_end_metrics(epochs)
        report["epoch_median"] = epoch_medians(epochs)
    if overloaded:
        print(
            f"WARNING: 1-minute load average above {os.cpu_count()} cores "
            f"({start_env['loadavg_1m']:.2f} -> {end_env['loadavg_1m']:.2f}); "
            "timings of this run are suspect", file=sys.stderr,
        )
    return report


def _probe_messages(workload: Workload, inputs: Inputs, recorder: SpanRecorder):
    """The messages the codec probe replays: the workload's own, or for
    ``live-tcp`` — whose node processes are not wrapped — every message
    its in-sim twin sends for the same operations."""
    if not workload.live:
        return recorder.captured
    sender = SpanRecorder([t for t in TARGETS if t.span == "net.send"])
    sender.capture_limit = CODEC_PROBE_MESSAGES
    sender.install()
    try:
        twin = workload.sim_twin(inputs)
        client = twin.add_client()
        for index, op in enumerate(inputs.ops):
            sender.op = index
            client.submit(op.via, op.text)
            twin.run()
    finally:
        sender.uninstall()
    return sender.captured
