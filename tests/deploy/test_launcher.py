"""The launcher's own bookkeeping over a real (small) live cluster."""

from repro.deploy import ClusterSpec, LiveCluster
from repro.deploy.launcher import QUERY_INTERVAL


def test_queries_leave_no_per_query_state_and_are_paced(tmp_path):
    """query()/submit() share one launcher client: the address book
    (which the seed broadcasts to every node on each change) and the
    launcher's node table stay the size bring-up left them.  Consecutive
    query() calls start QUERY_INTERVAL apart whatever the answers take;
    submit()/await_result() never wait for the interval."""
    spec = ClusterSpec(seed=1, peers=2, super_peers=1)
    cluster = LiveCluster(spec, tmp_path / "run")
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
    assert len(cluster.clients) == 1
