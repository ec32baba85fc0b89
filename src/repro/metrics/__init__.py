"""Measurement utilities shared by the simulator and the benchmarks:
the instrument table (what is measured) and the set that records it."""

from ..obs.histogram import Histogram
from .collectors import MetricSet, MetricSnapshot
from .instruments import COUNTERS, INSTRUMENTS

__all__ = ["COUNTERS", "Histogram", "INSTRUMENTS", "MetricSet", "MetricSnapshot"]
