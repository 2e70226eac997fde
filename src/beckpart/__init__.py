"""Exact combinatorics of the part-count companion identities to
Franklin's partition identity: class totals, bijections, truncated
q-series and cross-verification."""

from .bijections import (ZetaCase, ZetaOutcome, adjoin_and_classify,
                         franklin_inverse, franklin_map, glaisher_inverse,
                         glaisher_map)
from .enumeration import MAX_ENUM_N, partitions_of
from .euler_pairs import (EulerPair, make_euler_pair, subbarao_counterexample,
                          tilde_count, verify_tilde)
from .identities import (THEOREM_IDS, VerificationRecord, class_count,
                         distinct_count_gap, modular_part_gap, part_count_gap,
                         repeat_window_total, verify, verify_instance)
from .partition import ClassIndex, Partition, PartitionParseError, classify

__version__ = "0.1.0"

__all__ = [
    "ClassIndex", "EulerPair", "MAX_ENUM_N", "Partition",
    "PartitionParseError", "THEOREM_IDS", "VerificationRecord", "ZetaCase",
    "ZetaOutcome", "adjoin_and_classify", "class_count", "classify",
    "distinct_count_gap", "franklin_inverse", "franklin_map",
    "glaisher_inverse", "glaisher_map", "make_euler_pair",
    "modular_part_gap", "part_count_gap", "partitions_of",
    "repeat_window_total", "subbarao_counterexample", "tilde_count",
    "verify", "verify_instance", "__version__",
]
