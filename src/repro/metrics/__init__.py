"""Measurement utilities shared by the simulator and the benchmarks:
the instrument table (what is measured) and the set that records it."""

from .collectors import MetricSet, MetricSnapshot
from .histogram import Histogram
from .instruments import COUNTERS, INSTRUMENTS

__all__ = ["COUNTERS", "Histogram", "INSTRUMENTS", "MetricSet", "MetricSnapshot"]
