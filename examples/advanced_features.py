"""Advanced features: the paper's future work, running.

Demonstrates the four extension mechanisms built on top of the core
middleware, each tied to a passage of the paper:

1. **Top-N / broadcast constraints** (Section 5) — trade completeness
   for processing load;
2. **schema DHT with subsumption information** (Section 5, footnote 2)
   — O(log N) provider lookup in ad-hoc SONs;
3. **phased execution** (Section 2.5's [Ives02] alternative) — reuse
   completed subresults across replans;
4. **throughput monitoring** (Section 2.5) — replan away from stalled
   channels by watching tuple flow.

Run with::

    python examples/advanced_features.py
"""

from repro.config import PeerConfig, reconfigure
from repro.rdf import Graph, TYPE
from repro.systems import AdhocSystem, HybridSystem
from repro.workloads.data_gen import Distribution, generate_bases
from repro.workloads.paper import DATA, N1, PAPER_QUERY, paper_peer_bases, paper_schema
from repro.workloads.query_gen import chain_query
from repro.workloads.schema_gen import generate_schema


def topn_demo() -> None:
    print("=== 1. Top-N / broadcast constraints (Section 5) ===")
    synth = generate_schema(chain_length=2, refinement_fraction=0.0, seed=1)
    peers = [f"P{i}" for i in range(8)]
    gen = generate_bases(synth, peers, Distribution.HORIZONTAL,
                         statements_per_segment=6, seed=1)
    text = chain_query(synth, 0, 2)
    for bound in (1, 3, None):
        system = HybridSystem(synth.schema)
        system.add_super_peer("SP1")
        for peer_id, graph in gen.bases.items():
            system.add_peer(peer_id, graph, "SP1")
        table = system.query("P0", text, max_peers=bound)
        label = bound if bound is not None else "unbounded"
        print(f"  max_peers={label!s:>9}: {len(table):3d} rows, "
              f"{system.network.metrics.messages_total:3d} messages")


def dht_demo() -> None:
    print("\n=== 2. Schema DHT lookup (Section 5 / footnote 2) ===")
    schema = paper_schema()
    provider = Graph()
    for i in range(3):
        x, y, z = DATA[f"vx{i}"], DATA[f"vy{i}"], DATA[f"vz{i}"]
        provider.add(x, TYPE, N1.C1)
        provider.add(y, TYPE, N1.C2)
        provider.add(x, N1.prop1, y)
        provider.add(y, N1.prop2, z)
        provider.add(z, TYPE, N1.C3)
    system = AdhocSystem(
        schema, use_dht=True, config=PeerConfig(max_discovery_depth=1)
    )
    # asker -- relay -- provider: the provider is invisible to 1-depth
    # neighbourhood discovery, but one DHT lookup finds it
    system.add_peer("asker", Graph(), neighbours=("relay",))
    system.add_peer("relay", Graph(), neighbours=("asker", "provider"))
    system.add_peer("provider", provider, neighbours=("relay",))
    system.discover_all()
    table = system.query("asker", PAPER_QUERY)
    print(f"  provider 2 hops away: answered {len(table)} rows "
          f"(DHT lookup hops so far: {system.dht.lookup_hops})")


def phased_demo() -> None:
    print("\n=== 3. Phased execution vs ubQL discard (Section 2.5) ===")
    for policy in ("discard", "phased"):
        system = HybridSystem(paper_schema(), config=PeerConfig(failure_policy=policy))
        system.add_super_peer("SP1")
        for peer_id, graph in paper_peer_bases().items():
            system.add_peer(peer_id, graph, "SP1")
        system.run()
        system.network.fail_peer("P4")
        table = system.query("P1", PAPER_QUERY)
        subplans = system.network.metrics.messages_by_kind["SubPlanPacket"]
        print(f"  {policy:8s}: {len(table)} rows after P4 fails, "
              f"{subplans} subplans shipped")


def monitoring_demo() -> None:
    print("\n=== 4. Throughput monitoring (Section 2.5) ===")
    system = HybridSystem(
        paper_schema(),
        config=PeerConfig(monitor_interval=5.0),
    )
    system.add_super_peer("SP1")
    for peer_id, graph in paper_peer_bases().items():
        system.add_peer(peer_id, graph, "SP1")
    # P2 streams one row per aeon: effectively stalled, never down
    reconfigure(system.peers["P2"], batch_size=1, stream_interval=1e6)
    table = system.query("P1", PAPER_QUERY)
    print(f"  stalled P2 detected by tuple-flow watchdog; replan "
          f"answered {len(table)} rows without it")


def main() -> None:
    topn_demo()
    dht_demo()
    phased_demo()
    monitoring_demo()


if __name__ == "__main__":
    main()
