"""Prometheus-style text exposition of the metric set.

``render_prometheus(metrics)`` turns a
:class:`~repro.metrics.collectors.MetricSet` (plus optional per-peer
gauges) into the plain-text exposition format: ``# HELP`` / ``# TYPE``
headers, counter samples, histogram ``_bucket``/``_sum``/``_count``
series with ``le`` labels, and labelled gauges.  The schema is stable;
CI archives it as a build artifact and ``python -m repro metrics``
prints it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..metrics.instruments import INSTRUMENTS, Instrument


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _series(lines: List[str], metrics, instrument: Instrument) -> None:
    """One counter or gauge family: its header, then its one sample —
    or, for an instrument split by a label, one sample per label value."""
    name, label = instrument.family, instrument.label
    value = getattr(metrics, instrument.attribute)
    lines.append(f"# HELP {name} {instrument.help}")
    lines.append(f"# TYPE {name} {instrument.kind}")
    if label is None:
        lines.append(f"{name} {_fmt(value)}")
        return
    for key in sorted(value):
        lines.append(f'{name}{{{label}="{_escape(str(key))}"}} {_fmt(value[key])}')


def _histogram(lines: List[str], metrics, instrument: Instrument) -> None:
    """One Prometheus histogram family — the attribute is a
    :class:`Histogram`, or a mapping of them when the instrument is
    split by a label.  A family with no observation yet is left out."""
    value = getattr(metrics, instrument.attribute)
    name, label = instrument.family, instrument.label
    histograms = value if label else {"": value} if value.count else {}
    if not histograms:
        return
    lines.append(f"# HELP {name} {instrument.help}")
    lines.append(f"# TYPE {name} histogram")
    for key in sorted(histograms):
        histogram = histograms[key]
        prefix = f'{label}="{_escape(str(key))}",' if label else ""
        for upper, cumulative in histogram.cumulative_buckets():
            lines.append(f'{name}_bucket{{{prefix}le="{_fmt(upper)}"}} {cumulative}')
        lines.append(f'{name}_bucket{{{prefix}le="+Inf"}} {histogram.count}')
        suffix = f'{{{label}="{_escape(str(key))}"}}' if label else ""
        lines.append(f"{name}_sum{suffix} {_fmt(histogram.total)}")
        lines.append(f"{name}_count{suffix} {histogram.count}")
    if instrument.quantile_help:
        summary = value.summary()
        lines.append(f"# HELP {name}_quantile {instrument.quantile_help}")
        lines.append(f"# TYPE {name}_quantile gauge")
        for quantile in ("p50", "p90", "p99", "max"):
            lines.append(
                f'{name}_quantile{{quantile="{quantile}"}} {_fmt(summary[quantile])}'
            )


def add_const_labels(text: str, labels: Dict[str, Any]) -> str:
    """Inject constant labels into every sample of an exposition.

    Used by live deployments to tag each process's dump with its
    identity (``peer_id``, ``pid``, ``transport``) so per-process series
    stay distinguishable after a merge.  Comment lines pass through.
    """
    if not labels:
        return text
    rendered = ",".join(
        f'{name}="{_escape(str(value))}"' for name, value in sorted(labels.items())
    )
    out: List[str] = []
    # newline splits only: label values may legally contain \f, \v and
    # unicode separators, which str.splitlines would break on
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            out.append(line)
            continue
        name_and_labels, _, value = line.rpartition(" ")
        if name_and_labels.endswith("}"):
            out.append(f"{name_and_labels[:-1]},{rendered}}} {value}")
        else:
            out.append(f"{name_and_labels}{{{rendered}}} {value}")
    if out and out[-1] == "":
        out.pop()  # the split's artifact of the trailing newline
    return "\n".join(out) + "\n"


def merge_expositions(texts: List[str]) -> str:
    """Merge several per-process expositions into one.

    Each input carries distinct const labels (see
    :func:`add_const_labels`), so the merge keeps every sample and emits
    each metric family's ``# HELP``/``# TYPE`` header once, samples
    grouped under it in input order.
    """
    order: List[str] = []
    headers: Dict[str, List[str]] = {}
    samples: Dict[str, List[str]] = {}

    def family_of(sample_line: str, header: List[str]) -> str:
        if header:  # "# HELP <name> ..." names the family authoritatively
            return header[0].split(" ", 3)[2]
        name = sample_line.split("{", 1)[0].split(" ", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in headers:
                return name[: -len(suffix)]
        return name

    for text in texts:
        pending_header: List[str] = []
        for line in text.split("\n"):  # not splitlines: see add_const_labels
            if not line:
                continue
            if line.startswith("#"):
                pending_header.append(line)
                continue
            family = family_of(line, pending_header)
            if family not in headers:
                headers[family] = pending_header or []
                order.append(family)
            pending_header = []
            samples.setdefault(family, []).append(line)
    out: List[str] = []
    for family in order:
        out.extend(headers[family])
        out.extend(samples.get(family, []))
    return "\n".join(out) + "\n"


def render_prometheus(
    metrics,
    gauges: Optional[Dict[str, Dict[str, Any]]] = None,
    const_labels: Optional[Dict[str, Any]] = None,
) -> str:
    """The exposition text for one metric set (and optional gauges).

    ``const_labels`` are appended to every sample — live deployments
    pass ``{"peer_id": ..., "pid": ..., "transport": ...}``.
    """
    lines: List[str] = []
    for instrument in INSTRUMENTS:
        render = _histogram if instrument.kind == "histogram" else _series
        render(lines, metrics, instrument)
    if gauges:
        lines.append("# HELP repro_peer_gauge Point-in-time per-peer state")
        lines.append("# TYPE repro_peer_gauge gauge")
        for peer_id in sorted(gauges):
            for gauge_name in sorted(gauges[peer_id]):
                lines.append(
                    f'repro_peer_gauge{{peer="{_escape(peer_id)}",'
                    f'gauge="{_escape(gauge_name)}"}} '
                    f"{_fmt(gauges[peer_id][gauge_name])}"
                )
    text = "\n".join(lines) + "\n"
    if const_labels:
        text = add_const_labels(text, const_labels)
    return text
