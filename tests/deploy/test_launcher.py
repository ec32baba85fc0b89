"""The launcher's own bookkeeping over a real (small) live cluster."""

from repro.deploy import ClusterSpec, LiveCluster
from repro.deploy.launcher import QUERY_INTERVAL
from repro.peers.client import ClientPeer
from repro.scenario import Query, Scenario, play


def _submitters(monkeypatch):
    """The client object behind every submission, in order."""
    submitters = []
    submit = ClientPeer.submit

    def recorded(self, *args, **kwargs):
        submitters.append(self)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ClientPeer, "submit", recorded)
    return submitters


def test_queries_leave_no_per_query_state_and_are_paced(tmp_path, monkeypatch):
    """query()/submit() share one launcher client: the address book
    (which the seed broadcasts to every node on each change) and the
    launcher's node table stay the size bring-up left them.  Consecutive
    query() calls start QUERY_INTERVAL apart whatever the answers take;
    submit()/await_result() never wait for the interval."""
    spec = ClusterSpec(seed=1, peers=2, super_peers=1)
    cluster = LiveCluster(spec, tmp_path / "run")
    submitters = _submitters(monkeypatch)
    try:
        cluster.start()
        sizes = []
        started = cluster.transport.now
        for index in range(30):
            via = spec.peer_ids()[index % 2]
            text = cluster.workload.queries[index % len(cluster.workload.queries)]
            assert cluster.query(via, text) is not None
            sizes.append(
                (len(cluster.transport.book), len(cluster.network.peer_ids()))
            )
        assert cluster.transport.now - started >= 29 * QUERY_INTERVAL
        # an interval far longer than any answer: the primitives ignore it
        cluster._next_query = cluster.transport.now + 1_000.0
        client, query_id = cluster.submit(via, text)
        assert cluster.await_result(client, query_id) is not None
        assert cluster.transport.now < cluster._next_query
    finally:
        cluster.shutdown()
    assert sizes[0] == sizes[-1], f"grew from {sizes[0]} to {sizes[-1]}"
    assert len(submitters) == 31
    assert all(client is cluster.client for client in submitters)


def test_played_limit_queries_share_the_launcher_client(tmp_path, monkeypatch):
    """A LIMIT query goes through the one query client like any other:
    after the first answer it adds no client to the launcher and no node
    to the address book or the launcher's network."""
    spec = ClusterSpec(seed=1, peers=2, super_peers=1)
    cluster = LiveCluster(spec, tmp_path / "run")
    text = cluster.workload.queries[0]
    scenario = Scenario(tuple(
        Query(spec.peer_ids()[index % 2], text, limit=2) for index in range(3)
    ) + (Query(spec.peer_ids()[0], text),))
    submitters = _submitters(monkeypatch)
    try:
        cluster.start()
        outcomes, sizes = [], []
        for outcome in play(scenario, cluster):
            outcomes.append(outcome)
            sizes.append(
                (len(cluster.transport.book), len(cluster.network.peer_ids()))
            )
        assert len(outcomes) == 4 and all(o.answered for o in outcomes)
        assert all(o.rows <= 2 for o in outcomes[:3])
        assert len(submitters) == 4
        assert all(client is cluster.client for client in submitters)
        assert sizes == sizes[:1] * 4, f"grew: {sizes}"
    finally:
        cluster.shutdown()


def test_played_queries_leave_no_answer_in_the_launcher_client(tmp_path, monkeypatch):
    """Every answer is taken out of the one query client as it is
    awaited, so a long ``run --live`` does not grow it."""
    spec = ClusterSpec(seed=1, peers=2, super_peers=1)
    cluster = LiveCluster(spec, tmp_path / "run")
    texts = cluster.workload.queries
    scenario = Scenario(tuple(
        Query(spec.peer_ids()[index % 2], texts[index % len(texts)])
        for index in range(12)
    ))
    submitters = _submitters(monkeypatch)
    try:
        cluster.start()
        outcomes = list(play(scenario, cluster))
        assert len(outcomes) == 12 and all(o.answered for o in outcomes)
        assert len(submitters) == 12
        assert all(client is cluster.client for client in submitters)
        assert cluster.client.results == {}
    finally:
        cluster.shutdown()
