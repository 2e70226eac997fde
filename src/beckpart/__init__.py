"""Exact combinatorics of the part-count companion identities to
Franklin's partition identity: class totals, bijections, truncated
q-series and cross-verification."""

from .bijections import (ZetaCase, ZetaOutcome, adjoin_and_classify,
                         franklin_inverse, franklin_map, glaisher_inverse,
                         glaisher_map)
from .euler_pairs import (EulerPair, make_euler_pair, subbarao_counterexample,
                          tilde_totals, verify_tilde)
from .identities import class_totals, verify
from .partition import Partition, PartitionParseError
from .theorems import STATS, THEOREM_IDS, VerificationRecord, stat_value

__version__ = "0.1.0"

__all__ = [
    "EulerPair", "Partition", "PartitionParseError", "STATS", "THEOREM_IDS",
    "VerificationRecord", "ZetaCase", "ZetaOutcome", "adjoin_and_classify",
    "class_totals", "franklin_inverse", "franklin_map", "glaisher_inverse",
    "glaisher_map", "make_euler_pair", "stat_value",
    "subbarao_counterexample", "tilde_totals", "verify", "__version__",
]
