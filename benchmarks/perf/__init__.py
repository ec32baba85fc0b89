"""The repo's performance benchmark (see README.md in this directory).

Four seeded workloads — ``sim-fanout``, ``sim-join``, ``live-tcp`` and
``sim-updates`` — run against default-constructed deployments; the
end-to-end metrics come from untraced runs, the per-layer metrics from
traced runs whose spans are recorded from this package's own files.
The package imports only ``repro.*`` and the standard library.
"""
