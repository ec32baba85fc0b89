"""A live cluster and its in-sim twin run the same protocol: every node
of ``build_sim_system(spec)`` carries the config a node process derives
from the command line the launcher spawns it with."""

from dataclasses import fields

import pytest

from repro.cli import _build_parser
from repro.config import DEFAULT_CONFIG
from repro.deploy import ClusterSpec, LiveCluster, build_sim_system


def _node_process_specs(spec: ClusterSpec, node_ids, outdir):
    """The spec each ``python -m repro peer`` starts from: the argv
    ``LiveCluster`` spawns the node with, through the real parser and
    ``run_node``'s decoding.  (No process, no socket: the cluster is
    never started.)"""
    cluster = LiveCluster(spec, outdir)
    try:
        argvs = {node_id: cluster.node_argv(node_id) for node_id in node_ids}
    finally:
        cluster.transport.close()
    specs = {}
    for node_id, (executable, dash_m, package, *argv) in argvs.items():
        assert (dash_m, package) == ("-m", "repro")
        args = _build_parser().parse_args(argv)
        assert args.node_id == node_id
        specs[node_id] = ClusterSpec.from_json(args.spec)
    return specs


@pytest.mark.parametrize("livedata", [False, True], ids=["plain", "livedata"])
@pytest.mark.parametrize("resilient", [False, True], ids=["baseline", "resilient"])
def test_sim_twin_runs_the_node_processes_config(resilient, livedata, tmp_path):
    spec = ClusterSpec(seed=5, peers=3, super_peers=2,
                       resilient=resilient, livedata=livedata)
    system = build_sim_system(spec)
    nodes = {**system.super_peers, **system.peers}
    process_specs = _node_process_specs(spec, nodes, tmp_path)
    for node_id, node in nodes.items():
        assert process_specs[node_id] == spec, node_id
        assert node.config == process_specs[node_id].peer_config(), node_id
    assert system.add_client().config == system.peers["P1"].config

    config = system.peers["P1"].config
    assert (config == DEFAULT_CONFIG) == (not resilient and not livedata)
    assert config.topk_cancel == livedata
    assert config.stream_chunk_rows == (4 if livedata else None)
    assert (config.resilience.channel_retry is not None) == resilient


def test_every_spec_field_survives_the_hand_off(tmp_path):
    spec = ClusterSpec(seed=11, peers=5, super_peers=2, chain_length=3,
                       queries=7, statements_per_segment=9, resilient=True,
                       time_scale=0.5, joiners=2, livedata=True)
    default = ClusterSpec(seed=0)
    assert all(getattr(spec, f.name) != getattr(default, f.name)
               for f in fields(ClusterSpec))
    assert _node_process_specs(spec, ["P7"], tmp_path) == {"P7": spec}
