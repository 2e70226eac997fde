"""Exact combinatorics of the part-count companion identities to
Franklin's partition identity: class totals, bijections, truncated
q-series and cross-verification."""

from .bijections import (ZetaCase, ZetaOutcome, adjoin_and_classify,
                         franklin_inverse, franklin_map, glaisher_inverse,
                         glaisher_map)
from .enumeration import MAX_ENUM_N, partitions_of
from .euler_pairs import (EulerPair, make_euler_pair, subbarao_counterexample,
                          tilde_totals, verify_tilde)
from .identities import (STATS, THEOREM_IDS, VerificationRecord, class_totals,
                         stat_value, verify, verify_instance)
from .partition import ClassIndex, Partition, PartitionParseError, classify

__version__ = "0.1.0"

__all__ = [
    "ClassIndex", "EulerPair", "MAX_ENUM_N", "Partition",
    "PartitionParseError", "STATS", "THEOREM_IDS", "VerificationRecord",
    "ZetaCase", "ZetaOutcome", "adjoin_and_classify", "class_totals",
    "classify", "franklin_inverse", "franklin_map", "glaisher_inverse",
    "glaisher_map", "make_euler_pair", "partitions_of", "stat_value",
    "subbarao_counterexample", "tilde_totals", "verify", "verify_instance",
    "__version__",
]
