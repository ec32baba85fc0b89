"""Ad-hoc SONs: interleaved routing, plan holes, and k-depth discovery.

Walks through the two mechanisms of Section 3.2 on concrete topologies:

1. **Interleaved routing/processing** (Figure 7): P1 builds a plan with
   a ``Q2@?`` hole, forwards it to the peers that can answer part of
   it; P2 — whose neighbourhood contains P5 — fills the hole, executes
   the completed plan and ships the results back.

2. **k-depth neighbourhood discovery**: when nobody in forwarding reach
   can help, the root widens its semantic neighbourhood with 2-depth /
   3-depth advertisement requests until a relevant peer is found.

Run with::

    python examples/adhoc_discovery.py
"""

from repro.config import PeerConfig
from repro.core import build_plan, optimize, route_query
from repro.rdf import Graph, TYPE
from repro.rvl import ActiveSchema
from repro.systems import AdhocSystem
from repro.workloads.paper import (
    DATA,
    N1,
    PAPER_QUERY,
    adhoc_scenario,
    paper_query_pattern,
)


def figure7_walkthrough() -> None:
    print("=== Figure 7: interleaved routing and processing ===")
    scenario = adhoc_scenario()
    schema = scenario.schema
    pattern = paper_query_pattern(schema)

    # what P1 knows after pulling its neighbourhood's advertisements
    neighbour_ads = [
        ActiveSchema.from_base(scenario.bases[p], schema, p)
        for p in scenario.neighbours["P1"]
    ]
    print("P1's semantic neighbourhood:")
    for advertisement in neighbour_ads:
        print("  ", advertisement)
    annotated = route_query(pattern, neighbour_ads, schema)
    plan1 = optimize(build_plan(annotated)).result
    print("P1's partial plan (note the Q2@? holes):")
    print("  ", plan1.render())

    # run the real protocol
    system = AdhocSystem.from_scenario(adhoc_scenario())
    table = system.query("P1", PAPER_QUERY)
    print(f"answer via P2's completed plan ({len(table)} rows):")
    for binding in table.bindings():
        print("   X =", binding["X"].local_name, " Y =", binding["Y"].local_name)
    kinds = system.network.metrics.messages_by_kind
    print("partial plans forwarded:", kinds["PartialPlan"],
          "| delegation outcomes:", kinds["DelegatedResult"])


def depth_discovery_walkthrough() -> None:
    print("\n=== k-depth discovery: a provider two hops away ===")
    schema = adhoc_scenario().schema
    # chain: asker - relay - provider; the relay holds nothing relevant
    provider_base = Graph()
    for i in range(3):
        x, y, z = DATA[f"qx{i}"], DATA[f"qy{i}"], DATA[f"qz{i}"]
        provider_base.add(x, TYPE, N1.C1)
        provider_base.add(y, TYPE, N1.C2)
        provider_base.add(x, N1.prop1, y)
        provider_base.add(y, N1.prop2, z)
        provider_base.add(z, TYPE, N1.C3)

    system = AdhocSystem(schema, config=PeerConfig(max_discovery_depth=3))
    system.add_peer("asker", Graph(), neighbours=("relay",))
    system.add_peer("relay", Graph(), neighbours=("asker", "provider"))
    system.add_peer("provider", provider_base, neighbours=("relay",))
    system.discover_all()

    asker, son = system.peers["asker"], schema.namespace.uri
    print("asker's 1-depth knowledge:",
          sorted(asker.sons.members(son)) or "(nothing relevant)")
    table = system.query("asker", PAPER_QUERY)
    print("after deepening, asker knows:", sorted(asker.sons.members(son)))
    print(f"answer rows: {len(table)}")
    print("messages spent:", system.network.metrics.messages_total)


def main() -> None:
    figure7_walkthrough()
    depth_discovery_walkthrough()


if __name__ == "__main__":
    main()
