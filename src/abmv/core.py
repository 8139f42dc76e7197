"""Elections, ballots, rules, and exact scoring.

Every score this module returns is a `fractions.Fraction`; comparisons
are therefore decided by cross-multiplied integer arithmetic and ties
are exact. AV, SAV and NSAV scores are summed in integers from the
per-size ballot weights of `size_weights` and become `Fraction`s only
when returned; `omega_table` gives Thiele ω values the same integer
form for callers that sum them. The additive rules expose the
k-winning-threshold machinery (`class_threshold`, `split_classes`,
`partition_candidates`, `admitted_committees`) that the strategic
solvers build on: a k-committee wins under an additive rule iff it
holds every candidate above the threshold and fills its other seats
from the candidates at it. Those are in every winning committee too
when exactly k candidates reach the threshold, and otherwise only in
some.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, filterfalse, islice
from typing import Collection, Iterable, Optional, Sequence

ZERO = Fraction(0)


class DomainError(ValueError):
    """A candidate, vote, or committee is not part of the election."""


class ConfigurationError(ValueError):
    """A rule is internally inconsistent (bad omega table, etc.)."""


class UnsupportedRuleError(ValueError):
    """The requested operation is not defined for this rule."""


class ResourceCapError(RuntimeError):
    """An exact search would exceed its configured cap; never truncated silently."""


class ValidationError(ValueError):
    """An instance or solution violates its problem-type invariants."""


def _as_ballot(members: Iterable[str]) -> frozenset:
    return members if isinstance(members, frozenset) else frozenset(members)


def ballots(votes: Iterable[Iterable[str]]) -> tuple:
    return tuple(map(frozenset, votes))


def coerce_fields(instance, **convert) -> None:
    """Normalize fields of a frozen dataclass from its `__post_init__`."""
    for name, to in convert.items():
        object.__setattr__(instance, name, to(getattr(instance, name)))


@dataclass(frozen=True)
class Election:
    """A candidate roster plus a multiset of approval ballots.

    Votes keep their position, so witnesses can reference them by index.
    Instances are immutable after construction and safe to share.
    `_index` (behind `index`) and `approver_sets` hold one entry per
    candidate; the padded-roster paths (class scores, partition winners,
    additive J-CC, and the class-count walk behind fptn J-CC and
    `optimal_score_by_classes`) go through `approval_classes`, which
    builds neither.
    """

    candidates: tuple
    votes: tuple

    def __init__(self, candidates: Iterable[str], votes: Iterable[Iterable[str]]):
        object.__setattr__(self, "candidates", tuple(candidates))
        object.__setattr__(self, "votes", tuple(_as_ballot(v) for v in votes))
        roster = set(self.candidates)
        if len(roster) != len(self.candidates):
            raise DomainError("duplicate candidate labels")
        for i, vote in enumerate(self.votes):
            if not vote <= roster:
                raise DomainError(f"vote {i} approves candidates outside the roster")

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return len(self.votes)

    @cached_property
    def _index(self) -> dict:
        return {c: i for i, c in enumerate(self.candidates)}

    def index(self, candidate: str) -> int:
        try:
            return self._index[candidate]
        except KeyError:
            raise DomainError(f"unknown candidate {candidate!r}") from None

    @cached_property
    def approver_sets(self) -> dict:
        """Candidate -> frozenset of indices of the votes approving it.

        A whole-roster cache: never-approved candidates (padding clones)
        all share one empty frozenset, but each still costs a dict entry.
        """
        sets = dict.fromkeys(self.candidates, frozenset())
        sets.update(_approved_sets(self.votes))
        return sets

    @cached_property
    def approval_classes(self) -> dict:
        """Group candidates by their approver set (clones land together).

        Keys are frozensets of vote indices (the empty key collects the
        candidates approved by nobody), in the roster order of each class's
        first member; values are roster-ordered tuples. Never-approved
        candidates that end the roster, as padding leaves them, are one slice.
        """
        approved = _approved_sets(self.votes)
        # every candidate before the first unapproved one is approved
        split = next((i for i, c in enumerate(self.candidates) if c not in approved), self.m)
        groups: dict = {}
        for c in self.candidates[:split]:
            groups.setdefault(approved[c], []).append(c)
        if split < self.m:
            rest, later = self.candidates[split:], len(approved) - split
            groups[frozenset()] = tuple(filterfalse(approved.__contains__, rest)) if later else rest
            for c in islice(filter(approved.__contains__, rest), later):
                groups.setdefault(approved[c], []).append(c)
        return {key: tuple(members) for key, members in groups.items()}


def _approved_sets(votes: Sequence[frozenset]) -> dict:
    """Approved candidate -> frozenset of indices of the votes approving it."""
    approvers: dict = {}
    for i, vote in enumerate(votes):
        for c in vote:
            approvers.setdefault(c, []).append(i)
    return {c: frozenset(ids) for c, ids in approvers.items()}


def restrict(election: Election, keep: Iterable[str]) -> Election:
    """Project the election onto a candidate subset; vote indices survive."""
    keep_set = set(keep)
    for c in keep_set:
        election.index(c)
    candidates = tuple(c for c in election.candidates if c in keep_set)
    votes = tuple(vote & keep_set for vote in election.votes)
    return Election(candidates, votes)


def pad_with_dummies(election: Election, count: int, prefix: str = "~dummy") -> Election:
    """Append `count` fresh candidates approved by no vote.

    This ports SAV constructions to NSAV: with at least n*m^2 dummies the
    strict NSAV order of the original candidates matches their strict SAV
    order in the unpadded election.
    """
    if count < 0:
        raise DomainError("dummy count must be nonnegative")
    if count == 0:
        return election
    taken = set(election.candidates)
    names = [f"{prefix}{i}" for i in range(count + len(taken))]  # room for every collision
    dummies = islice(filterfalse(taken.__contains__, names), count)
    return Election(election.candidates + tuple(dummies), election.votes)


# ---------------------------------------------------------------------------
# Rules


_ADDITIVE = ("AV", "SAV", "NSAV")


@dataclass(frozen=True)
class Rule:
    """A committee-selection rule identifier.

    kind is one of AV, SAV, NSAV, PAV, ABCCV, MAV, or THIELE; a THIELE
    rule carries its weight table omega (omega[0] = 0, nondecreasing).
    MAV minimizes its score; every other rule maximizes.
    """

    kind: str
    omega: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("AV", "SAV", "NSAV", "PAV", "ABCCV", "MAV", "THIELE"):
            raise ConfigurationError(f"unknown rule kind {self.kind!r}")
        if self.kind == "THIELE":
            if not self.omega:
                raise ConfigurationError("THIELE rule needs an omega table")
            table = tuple(Fraction(w) for w in self.omega)
            if table[0] != 0:
                raise ConfigurationError("omega[0] must be 0")
            if any(a > b for a, b in zip(table, table[1:])):
                raise ConfigurationError("omega must be nondecreasing")
            object.__setattr__(self, "omega", table)
        elif self.omega is not None:
            raise ConfigurationError(f"{self.kind} does not take an omega table")

    @property
    def orientation(self) -> str:
        return "minimize" if self.kind == "MAV" else "maximize"

    @property
    def is_additive(self) -> bool:
        return self.kind in _ADDITIVE

    @property
    def is_thiele_family(self) -> bool:
        """True when scoring is omega(|vote ∩ committee|) summed over votes."""
        return self.kind in ("AV", "PAV", "ABCCV", "THIELE")

    def omega_value(self, i: int) -> Fraction:
        if self.kind == "AV":
            return Fraction(i)
        if self.kind == "ABCCV":
            return Fraction(1) if i > 0 else ZERO
        if self.kind == "PAV":
            return sum((Fraction(1, j) for j in range(1, i + 1)), ZERO)
        if self.kind == "THIELE":
            if i >= len(self.omega):
                raise ConfigurationError(
                    f"omega table of length {len(self.omega)} is too short for overlap {i}"
                )
            return self.omega[i]
        raise UnsupportedRuleError(f"{self.kind} has no omega weights")

    def __str__(self):
        return self.kind.lower()


AV = Rule("AV")
SAV = Rule("SAV")
NSAV = Rule("NSAV")
PAV = Rule("PAV")
ABCCV = Rule("ABCCV")
MAV = Rule("MAV")


def thiele(omega: Sequence) -> Rule:
    return Rule("THIELE", tuple(Fraction(w) for w in omega))


def rule_from_name(name: str, omega: Optional[Sequence] = None) -> Rule:
    name = name.upper()
    if name == "THIELE":
        return thiele(omega or ())
    return Rule(name)


# ---------------------------------------------------------------------------
# Scoring


def hamming_distance(a: Iterable[str], b: Iterable[str]) -> int:
    return len(frozenset(a) ^ frozenset(b))


def size_weights(rule: Rule, m: int, sizes: Iterable[int]) -> tuple:
    """(scale, weights): the integer worth of one approving ballot of each live size.

    Among m candidates a ballot of size s adds 1 (AV) or 1/s (SAV, NSAV)
    to each member, and an NSAV ballot also charges 1/(m-s) to every
    candidate it does not approve. The weights leave that penalty out and
    give NSAV members 1/s + 1/(m-s) instead, all times `scale`: the lcm of
    the sizes (under NSAV also of each m - s). A candidate's exact score
    is the sum of its approving ballots' weights minus the penalty every
    candidate pays alike (`nsav_penalty`), over the scale. Empty ballots
    approve nobody and get no weight.
    """
    sizes = set(sizes)
    live = sizes - {0}
    if rule.kind == "AV":
        return 1, dict.fromkeys(live, 1)
    if rule.kind == "SAV":
        scale = math.lcm(*live)
        return scale, {s: scale // s for s in live}
    if rule.kind == "NSAV":
        scale = math.lcm(*live, *(m - s for s in sizes if s != m))
        return scale, {s: scale // s + (scale // (m - s) if s != m else 0) for s in live}
    raise UnsupportedRuleError(f"{rule.kind} is not additive")


def omega_table(rule: Rule, top: int) -> tuple:
    """(scale, ints): ω(0..top) of a Thiele-family rule times `scale`, the
    lcm of their denominators.

    No overlap exceeds min(k, largest vote size), so that is the `top` a
    caller needs; a THIELE table too short for it raises
    `ConfigurationError`. Each call gets its own list of a memoised table.
    """
    scale, ints = _omega_ints(rule, top)
    return scale, list(ints)


@lru_cache(maxsize=256)
def _omega_ints(rule: Rule, top: int) -> tuple:
    values = [rule.omega_value(i) for i in range(top + 1)]
    scale = math.lcm(*(w.denominator for w in values))
    return scale, tuple(int(w * scale) for w in values)


def nsav_penalty(rule: Rule, m: int, scale: int, sizes: Iterable[int]) -> int:
    """What every candidate pays to the ballots not approving it, times `scale`.

    Only NSAV charges it, and a ballot approving all m candidates charges
    nobody. `scale` comes from `size_weights` over the same sizes.
    """
    if rule.kind != "NSAV":
        return 0
    return sum(scale // (m - s) for s in sizes if s != m)


def _integer_class_scores(election: Election, weight: dict) -> dict:
    """Approver set -> (sum of `weight` over those votes, members) per approval class."""
    votes = election.votes
    return {
        approvers: (sum(weight[len(votes[i])] for i in approvers), members)
        for approvers, members in election.approval_classes.items()
    }


def integer_scores(election: Election, weight: dict) -> dict:
    """Candidate -> sum of `size_weights` weights over its approving votes."""
    return {
        c: score for score, members in _integer_class_scores(election, weight).values() for c in members
    }


def additive_candidate_score(rule: Rule, election: Election, candidate: str) -> Fraction:
    """Score one candidate under AV, SAV, or NSAV."""
    if not rule.is_additive:
        raise UnsupportedRuleError(f"{rule.kind} is not additive")
    return committee_score(rule, election, (candidate,))


def additive_class_scores(rule: Rule, election: Election) -> dict:
    """Approver set -> (score, members) for each approval class.

    Clones share a score, so scoring by class keeps elections with huge
    padded rosters cheap; keys are those of `Election.approval_classes`
    and members are roster-ordered tuples.
    """
    if not rule.is_additive:
        raise UnsupportedRuleError(f"{rule.kind} is not additive")
    sizes = [len(v) for v in election.votes]
    scale, weight = size_weights(rule, election.m, sizes)
    penalty = nsav_penalty(rule, election.m, scale, sizes)
    return {
        approvers: (Fraction(total - penalty, scale), members)
        for approvers, (total, members) in _integer_class_scores(election, weight).items()
    }


def additive_scores(rule: Rule, election: Election) -> dict:
    scores = {}
    for score, members in additive_class_scores(rule, election).values():
        for c in members:
            scores[c] = score
    return scores


def committee_score(rule: Rule, election: Election, committee: Iterable[str]) -> Fraction:
    """Exact score of a committee; MAV scores are distances (minimized)."""
    members = frozenset(committee)
    for c in members:
        election.index(c)
    if rule.is_additive:
        sizes = [len(v) for v in election.votes]
        scale, weight = size_weights(rule, election.m, sizes)
        total = sum(weight[s] * len(v & members) for s, v in zip(sizes, election.votes) if s)
        penalty = nsav_penalty(rule, election.m, scale, sizes)
        return Fraction(total - len(members) * penalty, scale)
    if rule.kind == "MAV":
        if not election.votes:
            return ZERO  # empty vote multiset: every committee ties at 0
        return Fraction(max(hamming_distance(members, v) for v in election.votes))
    if rule.is_thiele_family:
        return sum((rule.omega_value(len(v & members)) for v in election.votes), ZERO)
    raise UnsupportedRuleError(f"cannot score committees under {rule.kind}")


# ---------------------------------------------------------------------------
# Winning threshold and candidate partition (additive rules)


@dataclass(frozen=True)
class ThresholdPartition:
    """Sure winners / possible winners / sure losers at committee size k.

    swin are the candidates in every winning k-committee, slose those in
    none, pwin the rest; a k-committee wins iff swin ⊆ w ⊆ swin ∪ pwin,
    so pwin is empty iff exactly one committee wins.
    """

    threshold: Fraction
    swin: frozenset
    pwin: frozenset
    slose: frozenset

    @property
    def pool(self) -> frozenset:
        return self.swin | self.pwin


def class_threshold(weighted: Iterable, k: int) -> tuple:
    """(threshold, ties_sure) of (score, count) pairs.

    The threshold is the k-th largest score counted with multiplicity.
    ties_sure says the candidates at the threshold are in every winning
    k-committee: exactly k candidates score at least it, which includes
    a threshold attained once. Otherwise every winning committee takes
    some, not all, of them. Scores may be Fractions or integers scaled
    by a common denominator; only their order matters.
    """
    totals: dict = {}
    for score, count in weighted:
        totals[score] = totals.get(score, 0) + count
    reached = 0
    for score in sorted(totals, reverse=True):
        reached += totals[score]
        if reached >= k:
            return score, reached == k
    raise DomainError(f"k={k} out of range for {reached} candidates")


def jcc_from_scores(weighted: Iterable, k: int, wanted_scores: Iterable) -> bool:
    """Are candidates scoring `wanted_scores` in every winning k-committee?

    `weighted` holds (score, count) pairs for the whole roster.
    """
    threshold, ties_sure = class_threshold(weighted, k)
    return all(s > threshold or (s == threshold and ties_sure) for s in wanted_scores)


def k_winning_threshold(rule: Rule, election: Election, k: int) -> Fraction:
    """The k-th largest candidate score, ties counted with multiplicity."""
    return partition_candidates(rule, election, k).threshold


def split_classes(class_scores: Collection, k: int) -> tuple:
    """(threshold, sure, possible): the k-threshold of (score, members)
    classes, and the classes in every and in only some winning k-committees."""
    threshold, ties_sure = class_threshold(((score, len(members)) for score, members in class_scores), k)
    above = [(score, members) for score, members in class_scores if score > threshold]
    at = [(score, members) for score, members in class_scores if score == threshold]
    return (threshold, above + at, []) if ties_sure else (threshold, above, at)


def partition_candidates(rule: Rule, election: Election, k: int) -> ThresholdPartition:
    if not 1 <= k <= election.m:
        raise DomainError(f"k={k} out of range for {election.m} candidates")
    threshold, sure, possible = split_classes(additive_class_scores(rule, election).values(), k)
    swin, pwin = (frozenset().union(*(members for _, members in group)) for group in (sure, possible))
    return ThresholdPartition(threshold, swin, pwin, frozenset(election.candidates) - swin - pwin)


def admitted_committees(swin: Iterable[str], pwin: Iterable[str], k: int) -> list:
    """The k-committees a (swin, pwin) split admits: swin plus k - |swin| of pwin.

    Listed in `combinations` order over the sorted pwin, so the first
    takes the smallest members.
    """
    sure = frozenset(swin)
    return [sure | frozenset(extra) for extra in combinations(sorted(pwin), k - len(sure))]


def additive_jcc(rule: Rule, election: Election, k: int, distinguished: Iterable[str]) -> bool:
    """Is every distinguished candidate in all winning k-committees?

    Works from class scores only, so it stays fast on padded elections.
    """
    wanted = frozenset(distinguished)
    for c in wanted:
        if c not in election.candidates:
            raise DomainError(f"unknown candidate {c!r}")
    class_scores = additive_class_scores(rule, election)
    keys = {frozenset(i for i, vote in enumerate(election.votes) if c in vote) for c in wanted}
    weighted = [(score, len(members)) for score, members in class_scores.values()]
    return jcc_from_scores(weighted, k, [class_scores[key][0] for key in keys])


@dataclass(frozen=True)
class Verdict:
    """YES/NO answer to a strategic decision problem.

    YES verdicts carry a machine-checkable witness (a ballot profile for
    manipulation, an add/delete selection for control); `abmv.solve`
    certifies it by applying it and recomputing the winners.
    """

    yes: bool
    witness: object = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.yes
