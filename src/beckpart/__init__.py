"""Exact combinatorics of the part-count companion identities to
Franklin's partition identity: enumeration, bijections, truncated q-series
and cross-verification."""

from .bijections import (ZetaCase, ZetaOutcome, adjoin_and_classify,
                         franklin_inverse, franklin_map, glaisher_inverse,
                         glaisher_map)
from .enumeration import (MAX_ENUM_N, ClassSpec, count_class, enumerate_class,
                          enumerate_fixed_divisible, enumerate_fixed_repeats,
                          fiber_ragged_repeat_count, index_weight_tuples,
                          partitions_of)
from .euler_pairs import (EulerPair, make_euler_pair, subbarao_counterexample,
                          tilde_count, verify_tilde)
from .identities import (THEOREM_IDS, VerificationRecord, class_count,
                         distinct_count_gap, modular_part_gap, part_count_gap,
                         repeat_window_total, verify, verify_instance)
from .partition import (ClassIndex, PartStats, Partition, PartitionParseError,
                        classify, difference, parse_partition, stats, union)

__version__ = "0.1.0"

__all__ = [
    "ClassIndex", "ClassSpec", "EulerPair", "MAX_ENUM_N", "PartStats",
    "Partition", "PartitionParseError", "THEOREM_IDS", "VerificationRecord",
    "ZetaCase", "ZetaOutcome", "adjoin_and_classify", "class_count",
    "classify", "count_class", "difference", "distinct_count_gap",
    "enumerate_class", "enumerate_fixed_divisible", "enumerate_fixed_repeats",
    "fiber_ragged_repeat_count", "franklin_inverse", "franklin_map",
    "glaisher_inverse", "glaisher_map", "index_weight_tuples",
    "make_euler_pair", "modular_part_gap", "parse_partition",
    "part_count_gap", "partitions_of", "repeat_window_total", "stats",
    "subbarao_counterexample", "tilde_count", "union", "verify",
    "verify_instance", "__version__",
]
