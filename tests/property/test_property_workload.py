"""Serving-layer properties: liveness and determinism.

Two guarantees serving makes, checked over randomly drawn regimes of
queries played as a :class:`~repro.scenario.Scenario`:

* **Every admitted query terminates.**  Whatever the arrival process
  (open-loop arrivals, or queries in sequence), admission knobs
  (including zero-length queues and harsh deadlines) or shed re-offer
  count, every offered query ends as ``full``, ``partial``, ``error``
  or ``shed`` — never silence — and the in-flight gauge drains back to
  zero.

* **Same seed, same everything.**  Serving is a deterministic function
  of (dataset seed, workload seed): two runs produce bit-identical
  message sequences, outcome records and metric summaries — including
  under FaultPlan chaos (drops, duplicates, jitter), because faults
  draw from their own seeded RNG.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AdmissionControl
from repro.resilience import FaultPlan, PlayReport, ResilienceConfig
from repro.scenario import Query, Scenario, play
from tests.difftest.harness import build_hybrid, make_workload

STATUSES_THAT_TERMINATE = {"full", "partial", "error", "shed"}


def _serve(system, workload, count, open_loop=True, shed_retries=3, **arrivals):
    """Play ``count`` workload queries on ``system``: open-loop arrivals
    (``rate``, ``seed``, ``burst``) or, closed-loop, in sequence."""
    queries = [
        Query(workload.peer_ids[i % len(workload.peer_ids)],
              workload.queries[i % len(workload.queries)])
        for i in range(count)
    ]
    if open_loop:
        scenario = Scenario.arrivals(queries, count, start=system.network.now,
                                     **arrivals)
    else:
        scenario = Scenario(queries)
    return PlayReport.collect(
        play(scenario, system, shed_retries=shed_retries, max_events=2_000_000),
        system.network,
    )


def _watch_messages(network):
    """Record every delivered message's (kind, src, dst, size, delay)
    in order — the event-order fingerprint the determinism properties
    compare bit-for-bit."""
    log = []
    original = network.metrics.record_message

    def wrapped(kind, src, dst, size, delay=None):
        log.append((kind, src, dst, size, delay))
        original(kind, src, dst, size, delay)

    network.metrics.record_message = wrapped
    return log


admission_controls = st.one_of(
    st.none(),
    st.builds(
        AdmissionControl,
        max_concurrent=st.integers(min_value=1, max_value=3),
        max_queued=st.integers(min_value=0, max_value=3),
        retry_after=st.sampled_from((2.0, 10.0)),
        deadline=st.sampled_from((None, 3.0, 60.0)),
    ),
)


@st.composite
def serving_regimes(draw):
    regime = dict(
        count=draw(st.integers(min_value=4, max_value=14)),
        shed_retries=draw(st.integers(min_value=0, max_value=2)),
    )
    if draw(st.booleans()):
        regime.update(
            rate=draw(st.sampled_from((0.1, 0.5, 2.0))),
            burst=draw(st.integers(min_value=1, max_value=3)),
            seed=draw(st.integers(min_value=0, max_value=999)),
        )
    else:
        regime.update(open_loop=False)
    return regime


@given(
    data_seed=st.integers(min_value=0, max_value=9),
    regime=serving_regimes(),
    admission=admission_controls,
    fair=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_every_admitted_query_terminates(data_seed, regime, admission, fair):
    workload = make_workload(data_seed, queries=4)
    system = build_hybrid(workload)
    if admission is not None:
        system.enable_admission(admission)
    if fair:
        system.enable_fair_scheduling(quantum=0.25)
    report = _serve(system, workload, **regime)
    assert len(report.outcomes) == regime["count"]
    statuses = {outcome.status for outcome in report.outcomes}
    assert statuses <= STATUSES_THAT_TERMINATE, (
        f"non-terminating statuses {statuses - STATUSES_THAT_TERMINATE}"
    )
    assert all(o.finished_at is not None for o in report.outcomes)
    assert system.network.metrics.inflight_queries == 0, (
        "in-flight gauge did not drain to zero"
    )


def _fingerprint(data_seed, spec_seed, chaos):
    """One full serving run, reduced to comparable pure data: the
    ordered message log and the report (outcome records, metric
    snapshot, events processed, in-flight high-water mark)."""
    workload = make_workload(data_seed, queries=4)
    system = build_hybrid(workload)
    if chaos:
        system.enable_resilience(ResilienceConfig.default(data_seed))
        system.network.install_faults(FaultPlan(
            seed=data_seed + 1, drop_rate=0.05, duplicate_rate=0.05,
            jitter=0.5,
        ))
    system.enable_admission(AdmissionControl(
        max_concurrent=2, max_queued=8, retry_after=4.0, deadline=200.0
    ))
    system.enable_fair_scheduling(quantum=0.25)
    log = _watch_messages(system.network)
    report = _serve(system, workload, 24, seed=spec_seed, rate=2.0, burst=8)
    return tuple(log), report


@given(
    data_seed=st.integers(min_value=0, max_value=9),
    spec_seed=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=8, deadline=None)
def test_same_seed_is_bit_identical(data_seed, spec_seed):
    first = _fingerprint(data_seed, spec_seed, chaos=False)
    second = _fingerprint(data_seed, spec_seed, chaos=False)
    assert first == second


@given(
    data_seed=st.integers(min_value=0, max_value=9),
    spec_seed=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=8, deadline=None)
def test_same_seed_is_bit_identical_under_chaos(data_seed, spec_seed):
    first = _fingerprint(data_seed, spec_seed, chaos=True)
    second = _fingerprint(data_seed, spec_seed, chaos=True)
    assert first == second


def test_determinism_holds_with_many_in_flight():
    """The acceptance bar: the bit-identical property is not an
    artefact of low concurrency — the burst regime holds at least 8
    coordinations in flight at once."""
    log, report = _fingerprint(4, 7, chaos=False)
    assert report.max_inflight >= 8
    assert report.count("no-reply") == 0
    assert len(log) > 0 and len(report.outcomes) == 24
