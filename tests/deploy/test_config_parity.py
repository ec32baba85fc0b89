"""A live cluster and its in-sim twin run the same protocol: every node
of ``build_sim_system(spec)`` carries the config a node process derives
from the command line the launcher spawns it with."""

import pytest

from repro.cli import _build_parser
from repro.config import DEFAULT_CONFIG
from repro.deploy import ClusterSpec, build_sim_system, spec_from_args


def _node_process_config(spec: ClusterSpec, node_id: str):
    """What ``python -m repro peer`` configures its node with: the
    launcher's argv through the real parser and ``run_node``'s
    derivation."""
    argv = ["peer", "--node-id", node_id, "--seed", "127.0.0.1:1",
            "--outdir", "unused"] + spec.to_args()
    return spec_from_args(_build_parser().parse_args(argv)).peer_config()


@pytest.mark.parametrize("livedata", [False, True], ids=["plain", "livedata"])
@pytest.mark.parametrize("resilient", [False, True], ids=["baseline", "resilient"])
def test_sim_twin_runs_the_node_processes_config(resilient, livedata):
    spec = ClusterSpec(seed=5, peers=3, super_peers=2,
                       resilient=resilient, livedata=livedata)
    system = build_sim_system(spec)
    for node_id, node in {**system.super_peers, **system.peers}.items():
        assert node.config == _node_process_config(spec, node_id), node_id
    assert system.add_client().config == system.peers["P1"].config

    config = system.peers["P1"].config
    assert (config == DEFAULT_CONFIG) == (not resilient and not livedata)
    assert config.topk_cancel == livedata
    assert config.stream_chunk_rows == (4 if livedata else None)
    assert (config.resilience.channel_retry is not None) == resilient
