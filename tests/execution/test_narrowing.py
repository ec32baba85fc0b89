"""What a channel root asks a destination for, and what comes back.

A subtree shipped elsewhere is asked for the columns its consumer at
the root reads.  Under a join that is the consumer's columns plus the
ones a sibling shares (the join keys); under a union it is the union's
own columns only — every child of a union holds the same variables, so
the join rule would keep them all.
"""

from repro.core.algebra import Join, Scan, Union
from repro.execution import PlanExecutor
from repro.execution.engine import ExecutionStrategy
from repro.net import Network
from repro.peers.base import Peer, PeerBase
from repro.workloads.paper import paper_peer_bases, paper_query_pattern, paper_schema

from ..idtables import decode_cells

SCHEMA = paper_schema()
Q1, Q2 = paper_query_pattern(SCHEMA).patterns  # (X, Y) and (Y, Z)


def _deployment():
    network = Network()
    bases = paper_peer_bases()
    peers = {}
    for peer_id in ("P1", "P2", "P3", "P4"):
        peers[peer_id] = Peer(peer_id, PeerBase(bases[peer_id], SCHEMA))
        peers[peer_id].join(network)
    return network, peers


def _asked(plan, needed, sites=None):
    """Start ``plan`` at P1 with ``needed``: ``{(destination, subplan):
    header asked for}`` of the channels it opened, and its answer."""
    network, peers = _deployment()
    outcome = []
    executor = PlanExecutor(
        peers["P1"],
        network,
        (plan,),
        sites,
        on_complete=lambda tables, failed: outcome.append((tables[0], failed)),
        strategy=ExecutionStrategy(needed=(frozenset(needed),)),
    )
    executor.start()
    asked = {
        (channel.destination, output.plan.render()): output.columns
        for channel in peers["P1"].channels.open_channels().values()
        for output in channel.outputs
    }
    network.run()
    ((table, failed),) = outcome
    assert failed is None
    return asked, decode_cells(table, peers["P1"].dictionary)


def test_union_children_are_asked_for_the_union_columns_only():
    union = Union([Scan((Q1,), "P2"), Scan((Q1,), "P3")])
    asked, answer = _asked(union, {"X"})
    assert asked == {("P2", "Q1@P2"): ("X",), ("P3", "Q1@P3"): ("X",)}
    assert answer.columns == ("X",)
    assert len(answer) == len(set(answer.rows))  # distinct rows only


def test_join_children_keep_the_columns_a_sibling_shares():
    join = Join([Scan((Q1,), "P2"), Scan((Q2,), "P3")])
    asked, answer = _asked(join, {"X"})
    # Q1 keeps X and the join key Y: its raw width, so nothing is asked
    assert asked == {("P2", "Q1@P2"): None, ("P3", "Q2@P3"): ("Y",)}
    assert answer.columns == ("X",)


def test_a_union_under_a_join_is_asked_for_its_share_of_the_join():
    union = Union([Scan((Q2,), "P2"), Scan((Q2,), "P3")])
    join = Join([Scan((Q1,), "P2"), union])
    asked, _ = _asked(join, {"X"})
    assert asked[("P3", "Q2@P3")] == ("Y",)
    assert asked[("P2", "Q1@P2")] is None and asked[("P2", "Q2@P2")] == ("Y",)


def test_a_shipped_join_asks_its_own_children_narrowed_too(monkeypatch):
    """Query shipping: the join runs at P2, which is asked for ``X``
    and, hosting it with that header, asks P3 for the join key only."""
    join = Join([Scan((Q1,), "P2"), Scan((Q2,), "P3")])
    network, peers = _deployment()
    shipped = []
    handle = Peer.handle_SubPlanPacket

    def spy(peer, message):
        shipped.append((peer.peer_id, message.payload.columns))
        handle(peer, message)

    monkeypatch.setattr(Peer, "handle_SubPlanPacket", spy)
    outcome = []
    PlanExecutor(
        peers["P1"], network, (join,), {(0,): "P2"},
        on_complete=lambda tables, failed: outcome.extend(tables),
        strategy=ExecutionStrategy(needed=(frozenset({"X"}),)),
    ).start()
    network.run()
    assert shipped == [("P2", (("X",),)), ("P3", (("Y",),))]
    (table,) = outcome
    assert table.columns == ("X",)


def test_without_needed_every_shipment_keeps_its_raw_width():
    network, peers = _deployment()
    plan = Union([Scan((Q1,), "P2"), Scan((Q1,), "P3")])
    PlanExecutor(peers["P1"], network, (plan,)).start()
    channels = peers["P1"].channels.open_channels().values()
    assert [o.columns for c in channels for o in c.outputs] == [None, None]
    network.run()
