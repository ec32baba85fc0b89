"""Declarative SLO monitors over sliding-window rollups.

An :class:`SLORule` names one statistic of a rollup dict (the output of
:meth:`~repro.obs.telemetry.sampler.ClusterSeries.rollup`), a
comparison and a threshold, plus a debounce: the rule only *fires*
after the predicate has held for ``for_samples`` consecutive
evaluations — one slow scrape is noise, three in a row is an incident.

The :class:`SLOMonitor` evaluates every rule per tick over rollups of
its own ``window`` and emits structured alert events on **transitions**
only (``firing`` / ``resolved``), so a timeline records incidents, not
every evaluation.  Events are plain dicts with a stable schema
(``repro.obs/alert-v1``) that land in ``timeline.jsonl`` and in a run's
``report.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

#: schema tag stamped into every alert event
ALERT_SCHEMA = "repro.obs/alert-v1"

_OPS = {
    ">": lambda value, threshold: value > threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    "<=": lambda value, threshold: value <= threshold,
}


class SLORule(NamedTuple):
    """One service-level objective.

    Attributes:
        name: Stable identifier (lands in alert events).
        metric: Key into the rollup dict (``p99_latency``,
            ``shed_rate``, ``availability``, ``partial_rate``, ...).
        op: Comparison that means *violated* (``">"`` fires when the
            observed value exceeds ``threshold``).
        threshold: The objective's bound.
        for_samples: Consecutive violating evaluations before firing.
        description: One line for operators.
    """

    name: str
    metric: str
    op: str
    threshold: float
    for_samples: int = 2
    description: str = ""

    def violated(self, rollup: Dict[str, Any]) -> Optional[bool]:
        """Whether this evaluation violates the objective (``None``
        when the statistic is unavailable, e.g. an empty window)."""
        value = rollup.get(self.metric)
        if value is None:
            return None
        return _OPS[self.op](value, self.threshold)


def default_slo_rules(
    p99_bound: float = 600.0,
    shed_bound: float = 0.25,
    availability_floor: float = 0.75,
    partial_bound: float = 0.5,
) -> Tuple[SLORule, ...]:
    """The stock rule set every ``run``, in-sim or live, monitors."""
    return (
        SLORule(
            "p99-latency", "p99_latency", ">", p99_bound,
            description=f"windowed p99 query latency above {p99_bound:g}",
        ),
        SLORule(
            "shed-rate", "shed_rate", ">", shed_bound,
            description=f"more than {shed_bound:.0%} of offered queries shed",
        ),
        SLORule(
            "availability", "availability", "<", availability_floor,
            for_samples=1,
            description=f"fewer than {availability_floor:.0%} of peers up",
        ),
        SLORule(
            "partial-rate", "partial_rate", ">", partial_bound,
            description=f"more than {partial_bound:.0%} of answers partial",
        ),
    )


class SLOMonitor:
    """Evaluates rules each tick, emitting transition events.

    Args:
        rules: The objectives to watch.
        scope: Label for the monitored entity (``"cluster"`` or a peer
            id); lands in every alert event.
        window: Sliding-window width of the rollups the monitor is fed
            (same clock as the samples); stamped into every alert event.
    """

    def __init__(
        self,
        rules: Tuple[SLORule, ...] = (),
        scope: str = "cluster",
        window: float = 60.0,
    ):
        self.rules = tuple(rules) or default_slo_rules()
        self.scope = scope
        self.window = window
        self._violations: Dict[str, int] = {}
        self.firing: Dict[str, Dict[str, Any]] = {}
        #: every transition event ever emitted, in order
        self.history: List[Dict[str, Any]] = []

    def evaluate(self, t: float, rollup: Dict[str, Any]) -> List[Dict[str, Any]]:
        """One tick: returns the transition events (may be empty)."""
        events: List[Dict[str, Any]] = []
        for rule in self.rules:
            violated = rule.violated(rollup)
            if violated is None:
                continue
            streak = self._violations.get(rule.name, 0) + 1 if violated else 0
            self._violations[rule.name] = streak
            fires = streak >= rule.for_samples and rule.name not in self.firing
            if not fires and (violated or rule.name not in self.firing):
                continue
            event = {
                "schema": ALERT_SCHEMA,
                "kind": "alert",
                "state": "firing" if fires else "resolved",
                "rule": rule.name,
                "scope": self.scope,
                "metric": rule.metric,
                "op": rule.op,
                "threshold": rule.threshold,
                "value": rollup.get(rule.metric),
                "window": self.window,
                "t": t,
            }
            if fires:
                self.firing[rule.name] = event
            else:
                event["fired_at"] = self.firing.pop(rule.name)["t"]
            event["description"] = rule.description
            events.append(event)
        self.history.extend(events)
        return events

    def active(self) -> List[Dict[str, Any]]:
        """The currently firing alerts, oldest first."""
        return sorted(self.firing.values(), key=lambda event: event["t"])


def render_alert(event: Dict[str, Any]) -> str:
    """One human-readable line per alert event."""
    value = event.get("value")
    rendered = "n/a" if value is None else f"{value:.4g}"
    return (
        f"[{event['t']:.1f}] {event['state'].upper():<8} {event['rule']} "
        f"({event['scope']}): {event['metric']} = {rendered} "
        f"{event['op']} {event['threshold']:g} over {event['window']:g}"
    )
