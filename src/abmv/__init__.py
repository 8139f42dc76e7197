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
    Verdict,
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
from abmv import control, manipulation


def solve(instance, algo: str = "auto", **options) -> tuple:
    """(algorithm, verdict) for a manipulation or control instance.

    `algo` names an entry of the instance's table, `manipulation.ALGORITHMS`
    or `control.ALGORITHMS`; "auto" takes the table's `auto_algorithm`.
    Each solver gets only the `options` it names. A JCC control instance
    takes no action, so whatever `algo` says, it is J-CC on the registered
    election, reported as "jcc".

    This is where every YES witness is certified, once, by
    `certify_manipulation` or `control_succeeds`; a failure raises
    `AssertionError`. The solvers return the first witness their own
    search accepts, uncertified, except where a certifier is the decision:
    both brute forces (after an exact prefilter), `solve_ccav_mav_fpt` and
    color coding. `verification` certifies every YES it meets the same way.
    """
    if isinstance(instance, manipulation.ManipulationInstance):
        module, certify = manipulation, manipulation.certify_manipulation
    elif instance.ctype == "JCC":
        jcc = JccInstance(instance.base_election, instance.k, instance.distinguished)
        return "jcc", Verdict(j_cc(instance.rule, jcc))
    else:
        module, certify = control, control.control_succeeds
    if algo == "auto":
        algo = module.auto_algorithm(instance)
    if algo not in module.ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}, expected one of {sorted(module.ALGORITHMS)}")
    solver, takes = module.ALGORITHMS[algo]
    verdict = solver(instance, **{name: options[name] for name in takes if name in options})
    if verdict.yes and not certify(instance, verdict.witness):
        raise AssertionError("witness failed certification")
    return algo, verdict


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
    "solve",
    "thiele",
    "winning_committees",
]
