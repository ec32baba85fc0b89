"""Multi-process deployment of the middleware over the live transport.

``repro.deploy`` is the layer that takes the protocol stack out of the
simulator and runs it as real OS processes on localhost:

* :mod:`workload` — :class:`ClusterSpec`, the seed-deterministic
  contract every process rebuilds its workload slice from (it reaches a
  child process as one JSON value, ``ClusterSpec.to_json``/``from_json``),
  plus the in-sim twin builder for differential runs.
* :mod:`node` — one process, one peer: ``python -m repro peer``, its
  flags declared beside :func:`run_node`.
* :mod:`launcher` — :class:`LiveCluster`, the seed process that spawns,
  drives, kills and reaps a cluster; ``python -m repro run --live``
  plays a scenario on one.
* :mod:`template` — the warm template process a launcher forks its
  nodes from, and :class:`~repro.deploy.template.NodeProcess`, the
  ``Popen``-like handle it keeps per node.
* :mod:`supervisor` — :class:`Supervisor`, crash-restart supervision
  with exponential backoff and a restart-storm circuit breaker
  (``--supervise``).
"""

from .launcher import LiveCluster
from .node import run_node
from .supervisor import RestartBackoff, Supervisor
from .workload import ClusterSpec, ClusterWorkload, build_sim_system, build_workload

__all__ = [
    "ClusterSpec",
    "ClusterWorkload",
    "LiveCluster",
    "RestartBackoff",
    "Supervisor",
    "build_sim_system",
    "build_workload",
    "run_node",
]
