"""Dynamic membership: the membership manager.

Peers join, leave gracefully, crash and come back.
:class:`~repro.membership.manager.MembershipManager` applies those
transitions to a :class:`~repro.systems.hybrid.HybridSystem`: it
attaches durable state stores, bootstraps joiners, persists snapshots
on graceful departure, and drives crash recovery — reload the durable
state, re-derive the active-schema, re-advertise with the ``rejoin``
flag so quarantines lift everywhere.

What happens when — a seeded churn draw included — is a
:class:`~repro.scenario.Scenario`; the same scenario played on a live
cluster is what the sim-vs-live differential tests compare.
"""

from .manager import MembershipManager

__all__ = ["MembershipManager"]
