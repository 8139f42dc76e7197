"""Exact tooling for approval-based multiwinner voting.

Elections are scored with arbitrary-precision rationals (never floats),
winner sets are computed exactly, and the strategic solvers (coalition
manipulation, election control) come in matched pairs: a brute-force
oracle and a specialized algorithm that must agree with it.
"""

from abmv.core import (
    AV,
    SAV,
    NSAV,
    PAV,
    ABCCV,
    MAV,
    Election,
    Rule,
    ThresholdPartition,
    additive_candidate_score,
    committee_score,
    hamming_distance,
    k_winning_threshold,
    pad_with_dummies,
    partition_candidates,
    restrict,
    thiele,
)
from abmv.winners import JccInstance, WinningSet, j_cc, mav_single_winners, winning_committees

__all__ = [
    "AV",
    "SAV",
    "NSAV",
    "PAV",
    "ABCCV",
    "MAV",
    "Election",
    "Rule",
    "ThresholdPartition",
    "JccInstance",
    "WinningSet",
    "additive_candidate_score",
    "committee_score",
    "hamming_distance",
    "j_cc",
    "k_winning_threshold",
    "mav_single_winners",
    "pad_with_dummies",
    "partition_candidates",
    "restrict",
    "thiele",
    "winning_committees",
]
