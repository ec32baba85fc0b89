"""Experiment index-maint — Section 4: maintenance cost under churn.

Quantifies "the cost of maintaining (XML or RDF) indices of entire peer
bases is important compared to the cost of maintaining peer
active-schemas (i.e., views)": a full data index pays per triple
update, an active-schema only when the intensional footprint flips.
"""

from __future__ import annotations

from repro.baselines import run_churn
from repro.livedata import LiveDataDriver, UpdateAck, UpdateStream
from repro.peers.protocol import Advertise
from repro.rdf import Graph
from repro.systems import HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.paper import paper_schema
from repro.workloads.schema_gen import generate_schema

from ._common import banner, format_table, write_report

SCHEMA = paper_schema()

# -- live plane: incremental deltas vs full re-derive ---------------------
LIVE_SEED = 11
LIVE_PEERS = [f"P{i}" for i in range(1, 6)]
LIVE_REVISIONS = 4

#: every peer populates every property, so seeded churn stays purely
#: extensional — the paper's Section 4 claim in its crispest form
_EXTENSIONAL = dict(distribution=Distribution.HORIZONTAL, noise_properties=0)
#: a skewed layout where fresh inserts populate previously-silent
#: properties, so genuine intensional flips flow as (small) deltas
_FOOTPRINT_MOVING = dict(distribution=Distribution.MIXED, noise_properties=1)

_SYNTH_CACHE: dict = {}


def _live_synth(noise_properties: int):
    if noise_properties not in _SYNTH_CACHE:
        _SYNTH_CACHE[noise_properties] = generate_schema(
            chain_length=3,
            refinement_fraction=0.0,
            noise_properties=noise_properties,
            seed=LIVE_SEED,
        )
    return _SYNTH_CACHE[noise_properties]


def _live_deployment(distribution, noise_properties):
    synth = _live_synth(noise_properties)
    gen = generate_bases(
        synth,
        LIVE_PEERS,
        distribution,
        statements_per_segment=60,
        seed=LIVE_SEED,
    )
    system = HybridSystem(synth.schema, seed=LIVE_SEED)
    system.add_super_peer("SP")
    for peer_id in LIVE_PEERS:
        system.add_peer(peer_id, gen.bases[peer_id], "SP")
    system.run()
    return synth, gen, system


def _full_refresh(peer) -> None:
    """Turn ``peer`` into the re-derive-and-republish baseline: after
    every applied update batch it re-pushes each own advertisement
    wholesale instead of a delta (correct, but pays full-advertisement
    bytes for extensional churn the delta path ships nothing for)."""

    def handle_UpdateBatch(message):
        batch = message.payload
        result = peer.live_maintainer().apply(batch)  # every peer has a base
        peer._require_network().emit_event(
            "update_batch",
            peer=peer.peer_id,
            revision=batch.revision,
            applied=result.applied,
        )
        if result.applied or result.views_changed:
            stats = peer.own_stat_summary()
            for advertisement in peer.own_advertisements():
                for target in peer._advertisement_targets():
                    peer.send(target, Advertise(advertisement, stats=stats))
            if peer._tracker is not None:
                peer._tracker.mark_advertised()
            peer._footprint_moved(peer.peer_id)
        peer.send(
            message.src, UpdateAck(peer.peer_id, batch.revision, result.applied)
        )

    peer.handle_UpdateBatch = handle_UpdateBatch


def _ad_traffic(metrics):
    kinds = metrics.messages_by_kind
    sizes = metrics.bytes_by_kind
    return (
        kinds["Advertise"] + kinds["AdvertiseDelta"],
        sizes["Advertise"] + sizes["AdvertiseDelta"],
    )


def live_maintenance_costs(
    rate: float,
    full_refresh: bool,
    *,
    distribution=Distribution.HORIZONTAL,
    noise_properties=0,
):
    """Advertisement traffic (messages, bytes) caused by a seeded update
    stream at ``rate`` (fraction of each base mutated per revision) —
    incremental deltas when ``full_refresh`` is off, the re-derive-and-
    republish baseline when it is on.  The stream is the same either
    way (same seed), so the runs differ only in maintenance policy."""
    synth, gen, system = _live_deployment(distribution, noise_properties)
    if full_refresh:
        for peer_id in LIVE_PEERS:
            _full_refresh(system.peers[peer_id])
    before = _ad_traffic(system.network.metrics)
    stream = UpdateStream(
        synth.schema,
        gen.bases,
        seed=LIVE_SEED,
        revisions=LIVE_REVISIONS,
        rate=rate,
        view_probability=0.0,
    )
    driver = LiveDataDriver(system, stream)
    for revision in range(LIVE_REVISIONS):
        driver.inject(revision)
        system.run()
    after = _ad_traffic(system.network.metrics)
    return after[0] - before[0], after[1] - before[1]


def report() -> str:
    rows = []
    for updates in (100, 500, 2000, 10000):
        result = run_churn(Graph(), SCHEMA, updates=updates, seed=updates)
        rows.append((
            updates,
            result.full_index_cost.update_messages,
            result.full_index_cost.update_bytes,
            result.active_schema_cost.update_messages,
            result.active_schema_cost.update_bytes,
            f"{result.message_ratio:.0f}x",
        ))
    text = banner(
        "index-maint",
        "Section 4: index vs active-schema maintenance under churn",
        "maintaining full data indices costs per-update messages; "
        "active-schemas re-advertise only on intensional changes, so the "
        "gap widens with the update volume",
    ) + format_table(
        ("updates", "index msgs", "index bytes", "ad msgs", "ad bytes",
         "index/ad msgs"),
        rows,
    )
    live_rows = []
    for label, scenario in (
        ("extensional", _EXTENSIONAL),
        ("footprint-moving", _FOOTPRINT_MOVING),
    ):
        for rate in (0.02, 0.05, 0.10, 0.25):
            delta_msgs, delta_bytes = live_maintenance_costs(
                rate, False, **scenario
            )
            full_msgs, full_bytes = live_maintenance_costs(
                rate, True, **scenario
            )
            live_rows.append((
                label,
                f"{rate:.0%}",
                full_msgs,
                full_bytes,
                delta_msgs,
                delta_bytes,
                f"{full_bytes / max(1, delta_bytes):.0f}x",
            ))
    live_text = banner(
        "live-maint",
        "Section 4 live plane: delta advertisements vs full re-derive",
        "under live update streams, re-deriving and republishing full "
        "advertisements pays per-batch; incremental maintenance ships "
        "deltas only when the intensional footprint flips, so at low "
        "update rates the advertisement traffic all but vanishes",
    ) + format_table(
        ("churn", "update rate", "full msgs", "full bytes", "delta msgs",
         "delta bytes", "full/delta bytes"),
        live_rows,
    )
    write_report(
        "live-maint",
        live_text,
        params={
            "seed": LIVE_SEED,
            "peers": len(LIVE_PEERS),
            "revisions": LIVE_REVISIONS,
            "rates": [0.02, 0.05, 0.10, 0.25],
        },
    )
    return write_report("index-maint", text) + "\n" + live_text


def bench_churn_2000_updates(benchmark):
    def run():
        return run_churn(Graph(), SCHEMA, updates=2000, seed=7)

    result = benchmark(run)
    assert result.full_index_cost.update_messages == 2000
    assert result.message_ratio > 10
    report()


def bench_incremental_beats_full_rederive(benchmark):
    """The live-plane economy, asserted: at every update rate up to 10%
    of the base per revision, incremental maintenance moves at least 5x
    fewer advertisement messages AND bytes than full re-derivation."""
    def run():
        return live_maintenance_costs(0.10, False)

    benchmark(run)
    for rate in (0.02, 0.05, 0.10):
        delta_msgs, delta_bytes = live_maintenance_costs(rate, False)
        full_msgs, full_bytes = live_maintenance_costs(rate, True)
        assert full_msgs >= 5 * max(1, delta_msgs), (
            f"rate {rate}: full {full_msgs} msgs vs delta {delta_msgs}"
        )
        assert full_bytes >= 5 * max(1, delta_bytes), (
            f"rate {rate}: full {full_bytes} B vs delta {delta_bytes} B"
        )
        # even when churn genuinely moves the footprint, deltas stay
        # far cheaper than full re-advertisements on the wire
        _, moving_delta_bytes = live_maintenance_costs(
            rate, False, **_FOOTPRINT_MOVING
        )
        _, moving_full_bytes = live_maintenance_costs(
            rate, True, **_FOOTPRINT_MOVING
        )
        assert moving_full_bytes >= 3 * max(1, moving_delta_bytes)


def bench_advertisement_refresh(benchmark):
    """Cost of one footprint check on a populated base."""
    from repro.baselines import ActiveSchemaMaintainer
    from repro.workloads.paper import paper_peer_bases

    graph = paper_peer_bases()["P1"]
    maintainer = ActiveSchemaMaintainer(graph, SCHEMA, "P1")
    sent = benchmark(maintainer.refresh)
    assert sent is False  # footprint unchanged: no advertisement
