"""Cost-planning differential wall: cost-based vs rule-based vs oracle.

The cost-based planner may pick any join order and any shipping split
it likes — what it may never change is the *answer*.  Every (dataset
seed, execution mode) pair deploys the same workload twice, once with
``cost_based=True`` and once on the seed's rule-based path, evaluates
the same seeded queries through both, and requires the outcomes to be
exactly equal: result tables, error strings and coverage annotations
alike.  Successful answers are additionally checked against the
centralized oracle over the merged bases.

The sweep spans hybrid and ad-hoc deployments, batched and per-binding
shipping, and odd batch sizes, totalling more than 200 seeded
comparisons.
"""

import pytest

from .harness import (
    Workload,
    build_adhoc,
    build_hybrid,
    centralized_answer,
    make_workload,
)

SEEDS = list(range(9))
QUERIES_PER_DATASET = 4

#: Row ids predate the single engine and stay as they were, so a row's
#: history remains comparable: ``*-scalar`` selects what is left of that
#: configuration — per-binding shipping (``batch_size=1``) —
#: ``*-encoded`` the defaults.
#: (mode id, builder, shared system options) — cost_based toggles on top
MODES = [
    ("hybrid-encoded", build_hybrid, {}),
    ("hybrid-scalar", build_hybrid, {"batch_size": 1}),
    ("hybrid-batch-7", build_hybrid, {"batch_size": 7}),
    ("adhoc-encoded", build_adhoc, {}),
    ("adhoc-scalar", build_adhoc, {"batch_size": 1}),
    ("adhoc-encoded-batch-13", build_adhoc, {"batch_size": 13}),
]


def test_sweep_is_large_enough():
    """The acceptance floor: at least 200 seeded comparisons."""
    assert len(SEEDS) * len(MODES) * QUERIES_PER_DATASET >= 200


def _outcome(system, via: str, text: str):
    """One query's full observable outcome: (columns, sorted rows,
    error string, coverage repr) — everything a client can see."""
    client = system.add_client()
    query_id = system.submit(via, text, client=client)
    system.run()
    result = client.result(query_id)
    assert result is not None, f"no reply for {text!r}"
    if result.table is None:
        return None, None, result.error, repr(result.coverage)
    rows = sorted(" ".join(term.n3() for term in row) for row in result.table.rows)
    return tuple(result.table.columns), rows, result.error, repr(result.coverage)


def _check_against_oracle(workload: Workload, outcome, text: str) -> None:
    columns, rows, error, _ = outcome
    expected = centralized_answer(workload, text)
    if error is not None:
        assert "no relevant peers" in error, error
        assert len(expected) == 0, (
            f"cost path found no relevant peers but oracle has "
            f"{len(expected)} rows for {text!r}"
        )
        return
    expected_rows = sorted(
        " ".join(
            dict(zip(expected.columns, row))[c].n3() for c in columns
        )
        for row in expected.rows
    )
    assert rows == expected_rows, (
        f"{len(rows)} rows != oracle {len(expected_rows)} for {text!r}"
    )


@pytest.mark.parametrize("mode,builder,options", MODES, ids=[m[0] for m in MODES])
@pytest.mark.parametrize("seed", SEEDS)
def test_cost_based_matches_rule_based_and_oracle(seed, mode, builder, options):
    workload = make_workload(seed, queries=QUERIES_PER_DATASET)
    rule_system = builder(workload, **options)
    cost_system = builder(workload, cost_based=True, **options)
    via = workload.peer_ids[seed % len(workload.peer_ids)]
    compared = 0
    for text in workload.queries:
        rule = _outcome(rule_system, via, text)
        cost = _outcome(cost_system, via, text)
        assert cost == rule, (
            f"cost-based diverged from rule-based for {text!r} "
            f"(seed {seed}, {mode}):\n  cost={cost}\n  rule={rule}"
        )
        _check_against_oracle(workload, cost, text)
        compared += 1
    assert compared == QUERIES_PER_DATASET


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_cost_based_is_deterministic(seed):
    """Same seed, same options → bit-identical twin runs: answers,
    message counts, bytes and the final virtual clock all agree."""
    fingerprints = []
    for _ in range(2):
        workload = make_workload(seed, queries=QUERIES_PER_DATASET)
        system = build_hybrid(workload, cost_based=True)
        via = workload.peer_ids[0]
        outcomes = [_outcome(system, via, text) for text in workload.queries]
        metrics = system.network.metrics
        fingerprints.append(
            (
                outcomes,
                metrics.messages_total,
                metrics.bytes_total,
                sorted(metrics.messages_by_kind.items()),
                system.network.now,
            )
        )
    assert fingerprints[0] == fingerprints[1]


def test_cost_decision_trace_emitted():
    """A cost-based coordinator records the chosen-vs-rejected plan
    costs as an ``optimize.cost`` span; the rule-based twin never does."""
    workload = make_workload(1, queries=QUERIES_PER_DATASET)
    cost_system = build_hybrid(workload, cost_based=True)
    rule_system = build_hybrid(workload)
    via = workload.peer_ids[0]
    for text in workload.queries:
        _outcome(cost_system, via, text)
        _outcome(rule_system, via, text)
    def spans_named(system, name):
        collector = system.network.tracer.collector
        return [
            span
            for trace_id in collector.trace_ids()
            for span in collector.spans(trace_id)
            if span.name == name
        ]

    cost_spans = spans_named(cost_system, "optimize.cost")
    rule_spans = spans_named(rule_system, "optimize.cost")
    assert cost_spans, "cost-based run emitted no optimize.cost span"
    assert not rule_spans, "rule-based run emitted optimize.cost spans"
    for span in cost_spans:
        assert "chosen" in span.attributes and "rejected" in span.attributes
