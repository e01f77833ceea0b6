"""Exact congruence verification for cycle-indicator and Meixner polynomials."""

from .cycle_index import (
    CycleType,
    class_sizes,
    coefficient,
    cycle_indicator,
    enumerate_cycle_types,
    partition_count,
)
from .meixner import meixner_q, meixner_qstar
from .padic import PadicContext, binomial, factorial, is_prime
from .polyring import MultiPoly, UniPoly, congruent_mod

__version__ = "0.1.0"

__all__ = [
    "CycleType",
    "MultiPoly",
    "PadicContext",
    "UniPoly",
    "binomial",
    "class_sizes",
    "coefficient",
    "congruent_mod",
    "cycle_indicator",
    "enumerate_cycle_types",
    "factorial",
    "is_prime",
    "meixner_q",
    "meixner_qstar",
    "partition_count",
]
