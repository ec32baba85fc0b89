"""Experiment churn — Sections 1/2.2: query success under peer churn.

The design goal the paper opens with — "loosely coupled communities of
databases where each peer base can join and leave the network at will"
— combined with Section 2.5's adaptation.  A query stream runs while a
fraction of peers departs between queries (gracefully, with Goodbye
messages, or by crashing); redundancy plus replanning keep the success
rate high, and graceful departures cost less than crash recovery.
"""

from __future__ import annotations

import random

from repro.scenario import Crash, Leave, Query, Scenario, play
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SYNTH = generate_schema(chain_length=2, refinement_fraction=0.0, seed=31)
PEERS = [f"P{i}" for i in range(12)]
QUERY = chain_query(SYNTH, 0, 2)


def _fresh_system() -> HybridSystem:
    gen = generate_bases(
        SYNTH, PEERS, Distribution.HORIZONTAL, statements_per_segment=5, seed=31
    )
    system = HybridSystem(SYNTH.schema)
    system.add_super_peer("SP1")
    for peer_id, graph in gen.bases.items():
        system.add_peer(peer_id, graph, "SP1")
    system.run()
    return system


def _run_stream(departures: int, graceful: bool, queries: int = 8, seed: int = 0):
    """Interleave queries with departures; report successes/messages."""
    rng = random.Random(seed)
    alive = [p for p in PEERS if p != "P0"]  # P0 coordinates
    events = []
    departed = 0
    for step in range(queries):
        if departed < departures and step % 2 == 1 and alive:
            victim = alive.pop(rng.randrange(len(alive)))
            events.append(Leave(victim) if graceful else Crash(victim))
            departed += 1
        events.append(Query("P0", QUERY))
    system = _fresh_system()
    answered = sum(
        1 for outcome in play(Scenario(events), system)
        if outcome.answered and outcome.rows
    )
    return answered, queries, system.network.metrics.messages_total


def report() -> str:
    rows = []
    for departures in (0, 2, 4):
        for graceful in (True, False):
            answered, total, messages = _run_stream(departures, graceful)
            rows.append((
                departures,
                "graceful (Goodbye)" if graceful else "crash",
                f"{answered}/{total}",
                messages,
            ))
    text = banner(
        "churn",
        "Sections 1/2.2/2.5: query stream under peer churn",
        "redundant SONs plus replanning sustain the query stream through "
        "departures; graceful leaves (advertisement withdrawal) avoid the "
        "failed-channel round-trips crashes cause",
    ) + format_table(
        ("departures", "mode", "queries answered", "total messages"), rows
    )
    return write_report("churn", text)


def bench_stream_with_graceful_churn(benchmark):
    def run():
        return _run_stream(departures=3, graceful=True)

    answered, total, _ = benchmark(run)
    assert answered == total
    report()


def bench_stream_with_crash_churn(benchmark):
    def run():
        return _run_stream(departures=3, graceful=False)

    answered, total, _ = benchmark(run)
    assert answered == total  # adaptation repairs every query


def bench_graceful_cheaper_than_crash(benchmark):
    def run():
        return _run_stream(departures=4, graceful=True)

    _, _, graceful_messages = benchmark(run)
    _, _, crash_messages = _run_stream(departures=4, graceful=False)
    assert graceful_messages <= crash_messages
