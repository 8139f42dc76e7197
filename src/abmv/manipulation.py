"""Coalition manipulation: CBCM, SBCM, and SDCM.

Three preference extensions are supported: a manipulator prefers a new
committee by cardinality (strictly more approved members), by subset
(keeps every approved member and gains one), or compares whole winning
collections by stochastic domination. Every solver returns a verdict
with a machine-checkable ballot profile on YES, and every specialized
algorithm must agree with `solve_manipulation_bruteforce` on its
applicability domain. `certify_manipulation` checks a profile against
the definition; `abmv.solve` says who calls it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Optional, Sequence

from abmv import core, winners
from abmv.caps import GUESS_CAP, MANIPULATOR_CAP, PROFILE_CAP, effective_cap
from abmv.core import (
    DomainError,
    Election,
    ResourceCapError,
    Rule,
    UnsupportedRuleError,
    ValidationError,
    Verdict,
)
from abmv import ipcore

VARIANTS = ("CBCM", "SBCM", "SDCM")


@dataclass(frozen=True)
class ManipulationInstance:
    rule: Rule
    variant: str
    candidates: tuple
    honest_votes: tuple
    manipulative_votes: tuple
    k: int
    current_committee: Optional[frozenset] = None
    # optional per-manipulator private blocks for structured searches
    ballot_blocks: tuple = ()

    def __post_init__(self):
        core.coerce_fields(
            self, candidates=tuple, honest_votes=core.ballots, manipulative_votes=core.ballots, k=int,
            current_committee=lambda w: None if w is None else frozenset(w),
            ballot_blocks=lambda blocks: tuple(map(core.ballots, blocks)),
        )
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown manipulation variant {self.variant!r}")
        if not self.manipulative_votes:
            raise ValidationError("need at least one manipulator")
        if (self.current_committee is None) != (self.variant == "SDCM"):
            raise ValidationError("a current committee is required exactly when variant is not SDCM")
        if self.ballot_blocks and len(self.ballot_blocks) != len(self.manipulative_votes):
            raise ValidationError("ballot_blocks must align with the manipulators")
        if not 1 <= self.k <= len(self.candidates):
            raise ValidationError("need 1 <= k <= |C|")
        election = self.full_election  # validates ballots against the roster
        if self.current_committee is not None:
            if len(self.current_committee) != self.k:
                raise ValidationError("current committee has the wrong size")
            if not _is_winning(self.rule, election, self.k, self.current_committee):
                raise ValidationError("current committee is not winning in the truthful election")

    @property
    def t(self) -> int:
        return len(self.manipulative_votes)

    @property
    def full_election(self) -> Election:
        return Election(self.candidates, self.honest_votes + self.manipulative_votes)

    @property
    def base_election(self) -> Election:
        return Election(self.candidates, self.honest_votes)

    def election_with(self, profile: Sequence[frozenset]) -> Election:
        return Election(self.candidates, self.honest_votes + tuple(frozenset(b) for b in profile))

    @property
    def approved_union(self) -> frozenset:
        return frozenset().union(*self.manipulative_votes)


def _is_winning(rule, election, k, committee) -> bool:
    score = core.committee_score(rule, election, committee)
    optimum = winners.optimal_score_by_classes(rule, election, k)
    return score == optimum


NO = Verdict(False)


@dataclass(frozen=True)
class SdVerdict:
    dominates: bool
    witness_levels: tuple = ()


def prefers(variant: str, voter: Iterable[str], new_committee, old_committee) -> bool:
    """Does this ballot strictly prefer the new committee to the old one?"""
    v = frozenset(voter)
    new = v & frozenset(new_committee)
    old = v & frozenset(old_committee)
    if variant.lower() in ("cardinality", "cbcm"):
        return len(new) > len(old)
    if variant.lower() in ("subset", "sbcm"):
        return old < new
    raise ValueError(f"unknown preference variant {variant!r}")


def sd_dominates(coll_a, coll_b, subject: Iterable[str]) -> SdVerdict:
    """Stochastic domination of committee collection A over B subject to one ballot.

    For every overlap level i the fraction of committees meeting it must
    be at least as large in A as in B, and strictly larger somewhere.
    """
    a = [frozenset(w) for w in coll_a]
    b = [frozenset(w) for w in coll_b]
    if not a or not b:
        raise ValueError("both collections must be nonempty")
    s = frozenset(subject)
    top = max(len(w) for w in a + b)
    strict = []
    for i in range(0, top + 1):
        count_a = sum(1 for w in a if len(w & s) >= i)
        count_b = sum(1 for w in b if len(w & s) >= i)
        lhs = count_a * len(b)
        rhs = count_b * len(a)
        if lhs < rhs:
            return SdVerdict(False)
        if lhs > rhs:
            strict.append(i)
    return SdVerdict(bool(strict), tuple(strict))


# ---------------------------------------------------------------------------
# Acceptance checks
#
# The additive path reads everything off the threshold partition, held
# as bit masks over the candidates ballots can touch and as counts over
# the roster. The general path walks the optimal count vectors over the
# approval classes of the manipulated election. Every committee with an
# optimal vector wins, so each acceptance predicate follows in closed
# form from the vector, the class sizes and how many members of each
# class a manipulator ballot or the displaced committee holds.


def _class_overlaps(election: Election, references: Sequence[frozenset]) -> list:
    """Per reference set, {g: |A_g ∩ reference|} over the classes A_g of
    `election.approval_classes` that meet it."""
    index = {key: g for g, key in enumerate(election.approval_classes)}
    votes = election.votes
    where = {
        c: index[frozenset(i for i, vote in enumerate(votes) if c in vote)]
        for c in frozenset().union(*references)
    }
    return [Counter(map(where.__getitem__, r)) for r in references]


def _distribution(rule, election, k, subjects, cap):
    """(total, per subject: how many winning committees meet each overlap
    level), with the winning committees counted through their count vectors.

    A vector c stands for prod C(|A|, c_A) committees. Of those, the ones
    taking j members of subject v from class A number
    C(|A ∩ v|, j)·C(|A| − |A ∩ v|, c_A − j) in A, so the counts per
    overlap level are the convolution of these over the classes.
    """
    _, vectors = winners.optimal_count_vectors(rule, election, k, cap)
    sizes = [len(members) for members in election.approval_classes.values()]
    overlaps = _class_overlaps(election, subjects)
    total = 0
    per_level = [[0] * (k + 2) for _ in subjects]
    for vec in vectors:
        weight = math.prod(math.comb(size, c) for size, c in zip(sizes, vec) if c)
        total += weight
        for inside, counts in zip(overlaps, per_level):
            levels, rest = [1], weight
            for g, a in inside.items():
                c, size = vec[g], sizes[g]
                if c:
                    rest //= math.comb(size, c)
                    convolved = [0] * (len(levels) + min(a, c))
                    for j in range(min(a, c) + 1):
                        ways = math.comb(a, j) * math.comb(size - a, c - j)
                        for o, n in enumerate(levels):
                            convolved[o + j] += n * ways
                    levels = convolved
            for o, n in enumerate(levels):
                counts[o] += rest * n
    return total, [_at_least(counts) for counts in per_level]


def _at_least(counts) -> list:
    """Suffix sums: entry i counts the committees meeting overlap level i."""
    cum = [0] * len(counts)
    running = 0
    for i in range(len(counts) - 1, -1, -1):
        running += counts[i]
        cum[i] = running
    return cum


def _sd_dominates_distribution(new_total, new_cum, old_total, old_cum, k) -> bool:
    strict = False
    for i in range(0, k + 2):
        lhs = new_cum[i] * old_total
        rhs = old_cum[i] * new_total
        if lhs < rhs:
            return False
        if lhs > rhs:
            strict = True
    return strict


class _ProfileChecker:
    """Evaluates acceptance of candidate ballot profiles for one instance.

    Under an additive rule the instance is scored once, here. The
    touchable candidates are the truthful union plus `cast`, the
    candidates the caller's search may put on a ballot; each gets a bit
    position. One `core.size_weights` scale covers the honest ballot
    sizes and every size a ballot of touchable candidates can have, so
    `weight` prices any cast ballot. `scores` holds every candidate's
    honest integer score and `base` the touchable ones' in bit order; no
    profile moves the others, so `untouched` holds theirs ascending.

    `decide` is the one additive acceptance: profiles reach it through
    `accepts_scores`, as do split-mode brute force's AV count vectors;
    the FPT searches' guessed partitions and the SAV/NSAV
    constant-manipulator search's picked class options call it directly.
    Other rules go through `_general_accepts` (`_class_accepts`), which
    reads the optimal count vectors over the manipulated election's
    approval classes. For SDCM the truthful winning distribution is
    computed once up front the same way.
    """

    def __init__(self, instance: ManipulationInstance, cap=None, cast=frozenset()):
        self.instance = instance
        self.cap = cap
        self.rule = instance.rule
        if self.rule.is_additive:
            touchable = instance.approved_union | cast
            self.bit = {c: b for b, c in enumerate(filter(touchable.__contains__, instance.candidates))}
            sizes = [len(v) for v in instance.honest_votes] + list(range(1, len(touchable) + 1))
            # an empty ballot approves nobody
            self.weight = {0: 0, **core.size_weights(self.rule, len(instance.candidates), sizes)[1]}
            self.scores = core.integer_scores(instance.base_election, self.weight)
            self.base = [self.scores[c] for c in self.bit]
            self.untouched = sorted(score for c, score in self.scores.items() if c not in self.bit)
            self._untouched_top = self.untouched[-instance.k :]
            w = instance.current_committee or frozenset()
            self._voters = [(self.mask(v), self.mask(v & w), len(v & w)) for v in instance.manipulative_votes]
        self.old_distribution = None
        if instance.variant == "SDCM":
            self.old_distribution = _truthful_distribution(instance, cap)

    def mask(self, candidates) -> int:
        return sum(1 << self.bit[c] for c in candidates if c in self.bit)

    def _scores(self, profile) -> list:
        scores = list(self.base)
        for ballot in profile:
            weight = self.weight[len(ballot)]
            for c in ballot:
                scores[self.bit[c]] += weight
        return scores

    def accepts(self, profile: Sequence[frozenset]) -> bool:
        if not self.rule.is_additive:
            return self._general_accepts(profile)
        return self.accepts_scores(self._scores(profile))

    def accepts_scores(self, scores: Sequence[int]) -> bool:
        """Acceptance when the touchable candidates score `scores` (in bit
        order) and everyone else their honest score."""
        k = self.instance.k
        # the k-th highest score lies among the touchable and the k best others
        threshold = sorted([*self._untouched_top, *scores])[-k]
        rest = self.untouched
        below, not_above = bisect_left(rest, threshold), bisect_right(rest, threshold)
        swin = pwin = 0
        for b, score in enumerate(scores):
            if score > threshold:
                swin |= 1 << b
            elif score == threshold:
                pwin |= 1 << b
        sure = len(rest) - not_above + swin.bit_count()
        return self.decide(swin, sure, pwin, not_above - below + pwin.bit_count())

    def decide(self, swin: int, sure: int, pwin: int, tied: int) -> bool:
        """Do the manipulators accept the winning committees, the `sure`
        candidates plus any k - sure of the `tied` ones? `swin` and `pwin`
        hold the touchable among them as masks.
        """
        inst = self.instance
        k = inst.k
        free = k - sure
        if inst.variant == "SDCM":
            # a winning committee meets each overlap level in binomially many ways
            total = math.comb(tied, free)
            old_total, old_cum = self.old_distribution
            for i, (v, _, _) in enumerate(self._voters):
                inside, have = (pwin & v).bit_count(), (swin & v).bit_count()
                counts = [0] * (k + 2)
                for j in range(min(inside, free) + 1):
                    counts[have + j] = math.comb(inside, j) * math.comb(tied - inside, free - j)
                if not _sd_dominates_distribution(total, _at_least(counts), old_total, old_cum[i], k):
                    return False
            return True
        for v, kept, old in self._voters:
            # the fewest v-approved members a winning committee can have
            if (swin & v).bit_count() + max(0, free - tied + (pwin & v).bit_count()) <= old:
                return False
            # SBCM: every winning committee keeps v's members of the old one
            if inst.variant == "SBCM" and kept & ~swin and (sure + tied != k or kept & ~(swin | pwin)):
                return False
        return True

    def _general_accepts(self, profile) -> bool:
        return _class_accepts(self.instance, profile, self.cap, self.old_distribution)


def _truthful_distribution(instance: ManipulationInstance, cap=None) -> tuple:
    """`_distribution` of the truthful winners over the manipulators' ballots."""
    return _distribution(instance.rule, instance.full_election, instance.k, instance.manipulative_votes, cap)


def _class_accepts(instance: ManipulationInstance, profile, cap=None, old_distribution=None) -> bool:
    """Acceptance read from the optimal count vectors over the manipulated
    election's approval classes, for any rule. SDCM compares with the
    truthful winners' `old_distribution`, computed here when not given."""
    election = instance.election_with(profile)
    if instance.variant == "SDCM":
        old_total, old_levels = old_distribution or _truthful_distribution(instance, cap)
        total, levels = _distribution(instance.rule, election, instance.k, instance.manipulative_votes, cap)
        return all(
            _sd_dominates_distribution(total, new, old_total, old, instance.k)
            for new, old in zip(levels, old_levels)
        )
    _, vectors = winners.optimal_count_vectors(instance.rule, election, instance.k, cap)
    sizes = [len(members) for members in election.approval_classes.values()]
    w, votes = instance.current_committee, instance.manipulative_votes
    kept = [v & w for v in votes] if instance.variant == "SBCM" else []
    overlaps = _class_overlaps(election, [*votes, *kept])
    for i, v in enumerate(votes):
        inside, old = overlaps[i], len(v & w)
        for vec in vectors:
            # the fewest members of v a committee with this vector holds
            if sum(max(0, vec[g] - sizes[g] + a) for g, a in inside.items()) <= old:
                return False
            # SBCM: every such committee holds v ∩ w iff it takes all of
            # each class that meets v ∩ w
            if kept and any(vec[g] != sizes[g] for g in overlaps[instance.t + i]):
                return False
    return True


def certify_manipulation(instance: ManipulationInstance, profile: Sequence[frozenset]) -> bool:
    """Re-verify a YES witness by applying it and checking every winner.

    Runs the plain definition (enumerate winning committees, test every
    manipulator) whenever the committee space is enumerable; otherwise
    falls back to `_class_accepts`, the closed forms over the optimal
    count vectors of the manipulated election's approval classes, never
    to the threshold partition (or the additive scores) the searches
    decide additive profiles with, so their witnesses are still checked
    independently.
    """
    if len(profile) != instance.t:
        return False
    roster = set(instance.candidates)
    if any(not frozenset(b) <= roster for b in profile):
        return False
    election = instance.election_with(profile)
    if math.comb(election.m, instance.k) <= 100_000:
        new = winners.winning_committees(instance.rule, election, instance.k, strategy="exhaustive")
        if instance.variant == "SDCM":
            old = winners.winning_committees(
                instance.rule, instance.full_election, instance.k, strategy="exhaustive"
            )
            return all(
                sd_dominates(new.committees, old.committees, v).dominates
                for v in instance.manipulative_votes
            )
        which = "cardinality" if instance.variant == "CBCM" else "subset"
        return all(
            prefers(which, v, frozenset(wc), instance.current_committee)
            for v in instance.manipulative_votes
            for wc in new.committees
        )
    return _class_accepts(instance, tuple(frozenset(b) for b in profile))


# ---------------------------------------------------------------------------
# Brute force


def _sorted_ballots(candidates: Sequence[str], pool: frozenset) -> list:
    """Every subset of `pool` by size, each drawn in roster order."""
    ordered = list(filter(pool.__contains__, candidates))
    if len(ordered) != len(pool):
        raise DomainError(f"unknown candidates {sorted(pool.difference(ordered))}")
    return [frozenset(combo) for r in range(len(ordered) + 1) for combo in combinations(ordered, r)]


def _base_pool(instance: ManipulationInstance, pool_kind: str, pool_override) -> frozenset:
    """The candidates every manipulator's base ballot is drawn from."""
    if pool_override is not None:
        return frozenset(pool_override)
    if pool_kind == "unrestricted":
        return frozenset(instance.candidates)
    if pool_kind == "with_committee":
        return instance.approved_union | (instance.current_committee or frozenset())
    if pool_kind == "auto":
        # additive rules: recasting outside the truthful pool never helps;
        # for the other rules no such normalization is sound (padding a
        # ballot with unapproved candidates can reshape MAV distances),
        # so the full roster is searched
        return instance.approved_union if instance.rule.is_additive else frozenset(instance.candidates)
    raise ValueError(f"unknown pool {pool_kind!r}")


def _ballot_options(instance: ManipulationInstance, base_pool: frozenset):
    """Per-manipulator candidate ballot lists (base pool plus private blocks)."""
    bases = _sorted_ballots(instance.candidates, base_pool)
    per_manipulator = []
    for i in range(instance.t):
        blocks = instance.ballot_blocks[i] if instance.ballot_blocks else ()
        extras = [frozenset()]
        for r in range(1, len(blocks) + 1):
            for combo in combinations(blocks, r):
                extras.append(frozenset().union(*combo))
        per_manipulator.append(extras)
    return bases, per_manipulator


def _refuse_past(limit: int, total: int, exact: bool = True) -> None:
    """Raise `ResourceCapError` when `total` (or at least `total`) profiles pass the cap."""
    if total > limit:
        # an int of more than about 4,300 digits does not print
        count = total if total.bit_length() <= 4096 else f"over 2**{total.bit_length() - 1}"
        raise ResourceCapError(f"{'' if exact else 'at least '}{count} ballot profiles exceed the cap {limit}")


def _once_per_count_vector(checker, pools, t):
    """(decide, any_accepted): AV acceptance of profiles of the t cast
    ballots, decided once per approval-count vector.

    The checker was built with the options' candidates cast, so each has
    a bit; the one with the j-th highest bit gets the digit (t+1)^j, and
    a ballot the sum of its members' digits; no count exceeds t, so the
    sum of a profile's codes names its count vector exactly. When every
    pool is the power set of the same u candidates, every one of the
    (t+1)^u vectors is some profile's, so all are decided up front from
    the honest scores plus the counts; other pools fill the table as the
    walk meets vectors.
    """
    members = frozenset().union(*(ballot for options in pools for ballot in options))
    ranked = sorted(members, key=checker.bit.__getitem__, reverse=True)
    digit = {c: (t + 1) ** j for j, c in enumerate(ranked)}
    code = {ballot: sum(map(digit.__getitem__, ballot)) for options in pools for ballot in options}
    if all(len(options) == 2 ** len(members) for options in pools):
        # `product` varies the highest bit fastest, so a vector's index is its code
        ranges = [range(s, s + t + 1) if c in members else (s,) for c, s in zip(checker.bit, checker.base)]
        verdicts = list(map(checker.accepts_scores, product(*ranges)))
        return (lambda profile: verdicts[sum(map(code.__getitem__, profile))]), any(verdicts)
    lazy = {}

    def decide(profile) -> bool:
        key = sum(map(code.__getitem__, profile))
        verdict = lazy.get(key)
        if verdict is None:
            verdict = lazy[key] = checker.accepts(profile)
        return verdict

    return decide, True


def solve_manipulation_bruteforce(
    instance: ManipulationInstance,
    profile_mode: str = "split",
    pool: str = "auto",
    pool_override=None,
    cap: Optional[int] = None,
) -> Verdict:
    """Exhaustive search over ballot profiles; YES verdicts carry a witness.

    `split` lets every manipulator pick independently; `common` assigns
    one shared base ballot (each manipulator may still add its private
    blocks, which is how the structured constructions are searched).
    The default pool (`auto`) restricts ballots to candidates some
    manipulator truthfully approves for additive rules, which is exact
    there, and searches the full roster for the other rules, where no
    such restriction is sound; `with_committee` joins the approved union
    with the displaced committee, and `unrestricted` is the full roster.

    Profiles are walked in one fixed order and every accepted profile is
    certified by `certify_manipulation`. Under AV with split ballots,
    acceptance is decided once per approval-count vector (how many of
    the t ballots approve each candidate): AV scores are the honest
    scores plus those counts, so two profiles with one vector get one
    verdict, and the first accepted profile is the same one. When every
    pool is the power set of the same u candidates, all (t+1)^u vectors
    are decided before the walk, and if none is accepted the answer is
    NO without walking a profile; pools with private blocks fill the
    table as the walk meets vectors. SAV and NSAV weigh a ballot by its
    size, so those decide every profile.
    """
    if profile_mode not in ("split", "common"):
        raise ValueError(f"unknown profile mode {profile_mode!r}")
    limit = effective_cap(cap if cap is not None else PROFILE_CAP)
    base_pool, t = _base_pool(instance, pool, pool_override), instance.t
    # refuse before listing the 2^|pool| base ballots: in common mode the
    # profiles are exactly those times each manipulator's 2^|blocks|
    # extras, and in split mode every manipulator has at least the bases
    if profile_mode == "common":
        _refuse_past(limit, 2 ** (len(base_pool) + sum(map(len, instance.ballot_blocks))))
    else:
        _refuse_past(limit, math.comb(2 ** len(base_pool) + t - 1, t), exact=not instance.ballot_blocks)
    bases, extras = _ballot_options(instance, base_pool)
    # the last base is the whole pool
    cast = bases[-1].union(*(extra for options in extras for extra in options))
    checker = _ProfileChecker(instance, cap, cast)
    if profile_mode == "split":
        # each manipulator's distinct ballots, in the order first met
        pools = [list(dict.fromkeys(b | e for b in bases for e in extras[i])) for i in range(instance.t)]
        shared = all(options == pools[0] for options in pools)
        # the cap counts the profiles the walk visits
        _refuse_past(limit, math.comb(len(pools[0]) + t - 1, t) if shared else math.prod(map(len, pools)))
        if shared:
            # acceptance and certification see only the multiset of cast
            # ballots, so the first hit in product order is nondecreasing
            # and the multiset walk meets it first too
            profiles = combinations_with_replacement(pools[0], instance.t)
        else:
            profiles = product(*pools)
        accepts = checker.accepts
        if instance.rule.kind == "AV":
            accepts, any_accepted = _once_per_count_vector(checker, pools, instance.t)
            if not any_accepted:
                return NO
        for profile in profiles:
            if accepts(profile):
                if certify_manipulation(instance, profile):
                    return Verdict(True, tuple(profile))
        return NO
    for base in bases:
        for chosen in product(*extras):
            profile = tuple(base | chosen[i] for i in range(instance.t))
            if checker.accepts(profile):
                if certify_manipulation(instance, profile):
                    return Verdict(True, profile)
    return NO


# ---------------------------------------------------------------------------
# AV with a constant number of manipulators: common ballots built from at
# most two score-consecutive blocks per approval class.


def _manipulator_classes(instance: ManipulationInstance):
    """Candidates grouped by the exact set of manipulators approving them."""
    classes = Election(instance.candidates, instance.manipulative_votes).approval_classes
    return {key: members for key, members in classes.items() if key}


def _block_selections(ordered: Sequence[str]):
    """Every choice of at most two disjoint index intervals, as candidate tuples."""
    z = len(ordered)
    yield ()
    for i in range(z):
        for j in range(i, z):
            yield tuple(ordered[i : j + 1])
    for i1 in range(z):
        for j1 in range(i1, z):
            for i2 in range(j1 + 2, z):
                for j2 in range(i2, z):
                    yield tuple(ordered[i1 : j1 + 1]) + tuple(ordered[i2 : j2 + 1])


def solve_av_const_manipulators(instance: ManipulationInstance, cap: Optional[int] = None) -> Verdict:
    """CBCM/SBCM under AV, polynomial for a fixed number of manipulators.

    A feasible manipulation can be normalized so all manipulators cast
    one common ballot inside the truthfully approved pool whose trace on
    every approval class is at most two blocks of the class's
    base-score order; those ballots are enumerated and tested against
    the closed-form acceptance conditions.
    """
    if instance.rule.kind != "AV":
        raise UnsupportedRuleError("this solver handles AV only")
    if instance.variant not in ("CBCM", "SBCM"):
        raise UnsupportedRuleError("this solver handles CBCM and SBCM")
    checker = _ProfileChecker(instance, cap)
    groups = _manipulator_classes(instance)
    w = instance.current_committee
    forced = frozenset()
    if instance.variant == "SBCM":
        forced = instance.approved_union & w
    ordered_groups = []
    for key in sorted(groups, key=sorted):
        members = [c for c in groups[key] if not (instance.variant == "SBCM" and c in w)]
        # groups list members in roster order, which the stable sort keeps among ties
        members.sort(key=lambda c: -checker.scores[c])
        if members:
            ordered_groups.append(members)
    limit = effective_cap(cap if cap is not None else GUESS_CAP)
    selections = [list(_block_selections(g)) for g in ordered_groups]
    if math.prod(map(len, selections)) > limit:
        raise ResourceCapError("block guess space exceeds the cap")
    for choice in product(*selections):
        ballot = frozenset(forced)
        for part in choice:
            ballot |= frozenset(part)
        profile = (ballot,) * instance.t
        if checker.accepts(profile):
            return Verdict(True, profile)
    return NO


# ---------------------------------------------------------------------------
# AV manipulation in O*(2^m): every common ballot of at most k candidates.


def solve_manipulation_fpt_m_av(instance: ManipulationInstance, cap: Optional[int] = None) -> Verdict:
    if instance.rule.kind != "AV":
        raise UnsupportedRuleError("this solver handles AV only")
    if instance.variant not in ("CBCM", "SBCM"):
        raise UnsupportedRuleError("this solver handles CBCM and SBCM")
    m = len(instance.candidates)
    if m > 22:
        raise ResourceCapError(f"m={m} exceeds the 2^m enumeration bound")
    checker = _ProfileChecker(instance, cap, frozenset(instance.candidates))
    for r in range(0, instance.k + 1):
        for combo in combinations(instance.candidates, r):
            profile = (frozenset(combo),) * instance.t
            if checker.accepts(profile):
                return Verdict(True, profile)
    return NO


# ---------------------------------------------------------------------------
# Additive rules, FPT in m: guess the final score partition, then decide
# reachability with an integer program over ballot reassignments.


def _score_partitions(candidates, k):
    """All (sure, tied) splits a final additive election could realize,
    one per winning collection.

    A single committee W is yielded once, as (∅, W), except for k < 2,
    where ties need two candidates and it comes as (W, ∅).
    """
    roster = list(candidates)
    for sure_size in range(0, k + 1):
        for sure in combinations(roster, sure_size):
            rest = [c for c in roster if c not in sure]
            if sure_size == k:
                if k < 2:
                    yield frozenset(sure), frozenset()
                continue
            need = k - sure_size
            # with a sure member, a tied set of exactly `need` repeats (∅, W)
            first = need + 1 if sure else max(2, need)
            for tied_size in range(first, len(rest) + 1):
                for tied in combinations(rest, tied_size):
                    yield frozenset(sure), frozenset(tied)


def _reassignment_program(checker, swin, pwin):
    """Variables count manipulators moving from each truthful ballot to each
    new ballot; constraints pin the guessed winning collection exactly."""
    instance = checker.instance
    truthful = Counter(instance.manipulative_votes)
    # recast ballots stay inside the truthfully approved pool; feasible
    # solutions outside it can always be normalized into it
    targets = _sorted_ballots(instance.candidates, instance.approved_union)
    # the checker's scale covers every such ballot; the NSAV penalty the
    # weights leave out cancels, because every row compares two k-committees
    weight, base = checker.weight, checker.scores
    program = ipcore.IntegerProgram()
    names = {}
    for s_i, (src, count) in enumerate(sorted(truthful.items(), key=lambda kv: sorted(kv[0]))):
        row = []
        for t_i, dst in enumerate(targets):
            name = program.add_variable(f"x_{s_i}_{t_i}", 0, count)
            names[(src, dst)] = name
            row.append((name, 1))
        program.add_constraint(row, "=", count)

    def committee_expr(committee):
        members = frozenset(committee)
        coeffs = {}
        for (src, dst), name in names.items():
            overlap = len(dst & members)
            if overlap:
                coeffs[name] = weight[len(dst)] * overlap
        return sum(base[c] for c in members), coeffs

    pool = frozenset(swin) | frozenset(pwin)
    family = core.admitted_committees(swin, pwin, instance.k)
    outside = [
        frozenset(c)
        for c in combinations(instance.candidates, instance.k)
        if not (frozenset(swin) <= frozenset(c) <= pool)
    ]
    anchor = committee_expr(family[0])
    for other in family[1:]:
        program.add_comparison(anchor, "=", committee_expr(other))
    for other in outside:
        program.add_comparison(anchor, ">", committee_expr(other))
    return program, names


def _decode_reassignment(instance, names, assignment):
    order = {}
    for i, v in enumerate(instance.manipulative_votes):
        order.setdefault(v, []).append(i)
    profile = [None] * instance.t
    moves = {}
    for (src, dst), name in names.items():
        count = assignment[name]
        if count:
            moves.setdefault(src, []).extend([dst] * count)
    for src, dsts in moves.items():
        for slot, dst in zip(order[src], dsts):
            profile[slot] = dst
    for i in range(instance.t):
        if profile[i] is None:
            profile[i] = instance.manipulative_votes[i]
    return tuple(profile)


def _realize_partition(instance, cap) -> Verdict:
    """First profile that realizes, exactly, a score partition whose
    winning collection the manipulators accept.

    Every partition is decided by `_ProfileChecker.decide`; the checker
    is built without `cap`, which bounds only the programs' nodes.
    """
    m = len(instance.candidates)
    if m > 8:
        raise ResourceCapError(f"m={m} exceeds the collection-enumeration bound")
    checker = _ProfileChecker(instance)
    mask = checker.mask
    for swin, pwin in _score_partitions(instance.candidates, instance.k):
        if not checker.decide(mask(swin), len(swin), mask(pwin), len(pwin)):
            continue
        program, names = _reassignment_program(checker, swin, pwin)
        result = ipcore.solve_ip(program, cap)
        if result.feasible:
            return Verdict(True, _decode_reassignment(instance, names, result.assignment))
    return NO


def solve_manipulation_fpt_m_additive(instance: ManipulationInstance, cap: Optional[int] = None) -> Verdict:
    """CBCM/SBCM for polynomial-computable additive rules, FPT in m.

    Enumerates the score-consistent candidate winning collections (every
    additive winning set is `sure ∪ (choices from tied)`), discards
    collections some manipulator dislikes, and asks the integer program
    whether the manipulators can realize the collection exactly.
    """
    if not instance.rule.is_additive:
        raise UnsupportedRuleError("additive rules only")
    if instance.variant not in ("CBCM", "SBCM"):
        raise UnsupportedRuleError("this solver handles CBCM and SBCM")
    return _realize_partition(instance, cap)


def solve_sdcm_fpt_m(instance: ManipulationInstance, cap: Optional[int] = None) -> Verdict:
    """SDCM for additive rules: a winning collection must stochastically
    dominate the truthful one for every manipulator and be exactly
    realizable by recast ballots."""
    if instance.variant != "SDCM":
        raise UnsupportedRuleError("this solver handles SDCM")
    if not instance.rule.is_additive:
        raise UnsupportedRuleError("additive rules only")
    return _realize_partition(instance, cap)


# ---------------------------------------------------------------------------
# SAV/NSAV with a constant number of manipulators.
#
# Manipulators need not share a ballot under these rules, so the search
# guesses, per approval class and manipulator, how many class members the
# manipulator will approve, plus the final winning threshold; a per-class
# binary table lists which (above, at) counts the class can land with, each
# with the first assignment that reaches it, and one option per class is
# picked whose winners `_ProfileChecker.decide` accepts.


def _class_table(members, quota, subsets, values, s, w_members, mode):
    """The sorted (above, at) options of one class, each with its assignment.

    Transitions follow the candidate order: each member is assigned one
    of `subsets`, the manipulator subsets the quota allows, and lands
    strictly above / at / below the threshold as its score under that
    subset, `values[x][j]`, compares with s; displaced-committee members
    are barred from falling below (at, for the multi-winner branch). A
    state is (above, at, used), where `used` counts each manipulator's
    approvals as one mixed-radix int whose digit i has radix quota[i] + 1.

    Each state keeps the subsets of the first path that reached it, as
    nested (subset, rest) pairs, last member first; an option is an
    (above, at) that meets the quota, with its first state's path.
    """
    t = len(quota)
    place = [1] * t
    for i in range(1, t):
        place[i] = place[i - 1] * (quota[i - 1] + 1)
    target = sum(q * p for q, p in zip(quota, place))
    # full[used]: the manipulators whose approvals have met their quota
    full = [
        sum(1 << i for i in range(t) if used // place[i] % (quota[i] + 1) == quota[i])
        for used in range(target + 1)
    ]
    steps = [(sum(1 << i for i in sub), sum(place[i] for i in sub), sub) for sub in subsets]
    states = {(0, 0, 0): None}
    for x, c in enumerate(members):
        in_w = c in w_members
        moves = []
        for (mask, delta, subset), value in zip(steps, values[x]):
            if value > s:
                moves.append((mask, delta, 1, 0, subset))
            elif value == s:
                if not (mode == "sbcm_multi" and in_w):
                    moves.append((mask, delta, 0, 1, subset))
            elif not in_w or mode == "cbcm":
                moves.append((mask, delta, 0, 0, subset))
        nxt = {}
        for (above, at, used), path in states.items():
            blocked = full[used]
            for mask, delta, up, level, subset in moves:
                if mask & blocked:
                    continue
                new = (above + up, at + level, used + delta)
                if new not in nxt:
                    nxt[new] = (subset, path)
        states = nxt
        if not states:
            break
    final = {}
    for (above, at, used), path in states.items():
        if used == target:
            final.setdefault((above, at), path)
    return sorted(final.items())


def solve_savnsav_const_manipulators(
    instance: ManipulationInstance, cap: Optional[int] = None
) -> Verdict:
    """CBCM/SBCM under SAV or NSAV, polynomial for fixed manipulator count.

    For each guess of per-class approval counts, each threshold s in
    ascending order and each acceptance mode, one option per class is
    picked through `_ProfileChecker.decide`, and the first pick's
    assignments are the ballots. Exact shortcuts keep that first pick:

    - No gain. A manipulator whose ballot lies inside the committee, or
      contains it, can never strictly gain, so the answer is NO at once.
    - The threshold window. Outside candidates keep their base score and
      inside ones score between theirs and their reach, the base plus the
      gains of every manipulator whose quota covers the class. So fewer
      than k strictly above s (cbcm, sbcm_multi) needs s at least the
      k-th highest base score, at most k at or above s (sbcm_unique)
      needs s above the (k+1)-th, and k at or above s (k+1 for
      sbcm_multi) needs s at most the k-th (k+1-th) highest reach. Every
      manipulator must also end with more approved candidates at or above
      s than its old overlap o, so s is at most the (o+1)-th highest reach
      among its approved candidates. An (s, mode) outside the window
      builds no table.
    - The options memo. A class table depends on s only through the sign
      pattern of its members' possible scores against s, so its options
      are kept for the whole call, keyed by class, quota, mode and that
      pattern.
    """
    rule = instance.rule
    if rule.kind not in ("SAV", "NSAV"):
        raise UnsupportedRuleError("this solver handles SAV and NSAV")
    if instance.variant not in ("CBCM", "SBCM"):
        raise UnsupportedRuleError("this solver handles CBCM and SBCM")
    t = instance.t
    if t > MANIPULATOR_CAP:
        raise ResourceCapError(f"{t} manipulators exceed the parameter cap {MANIPULATOR_CAP}")
    limit = effective_cap(cap if cap is not None else GUESS_CAP)
    w = instance.current_committee
    k = instance.k
    if any(v <= w or w <= v for v in instance.manipulative_votes):
        return NO
    m = len(instance.candidates)
    # one scale for every guess: final ballots stay inside the truthful pool
    checker = _ProfileChecker(instance, cap)
    weight, base = checker.weight, checker.scores
    groups = _manipulator_classes(instance)
    group_keys = sorted(groups, key=sorted)
    group_members = [groups[key] for key in group_keys]
    group_sizes = [len(ms) for ms in group_members]
    # prefixes[g][j]: the bits of the first j members of class g, the
    # displaced committee's first
    prefixes = []
    for members in group_members:
        bits = [0]
        for c in sorted(members, key=lambda c: c not in w):
            bits.append(bits[-1] | 1 << checker.bit[c])
        prefixes.append(bits)
    # outside candidates gain nothing, so one sorted list answers every
    # threshold guess by bisection
    outside_base = checker.untouched
    outside_top = outside_base[::-1][: k + 1]
    base_values = sorted(set(base.values()))
    ranked = sorted(base.values(), reverse=True)
    # per mode: the lowest threshold in the window, and how many candidates
    # must be able to reach it; scores are nonnegative
    windows = {
        "cbcm": (ranked[k - 1], k),
        "sbcm_unique": (ranked[k] + 1 if k < m else 0, k),
        "sbcm_multi": (ranked[k - 1], k + 1),
    }
    old_overlap = [len(v & w) for v in instance.manipulative_votes]

    total_guesses = math.prod((size + 1) ** t for size in group_sizes)
    if total_guesses > limit:
        raise ResourceCapError(f"{total_guesses} approval-count guesses exceed the cap {limit}")

    modes = ["cbcm"] if instance.variant == "CBCM" else ["sbcm_unique", "sbcm_multi"]
    count_choices = [list(product(range(size + 1), repeat=t)) for size in group_sizes]
    memo = {}

    for chosen in product(*count_choices):
        m_sum = [sum(counts[i] for counts in chosen) for i in range(t)]
        active = [i for i in range(t) if m_sum[i] > 0]
        subsets = [frozenset(combo) for r in range(len(active) + 1) for combo in combinations(active, r)]
        # score shift of a candidate approved by exactly the manipulators in
        # `subset`, in `core.size_weights` integers: nobody's approval shifts by 0
        gain = {subset: sum(weight[m_sum[i]] for i in subset) for subset in subsets}
        allowed = [frozenset(i for i in range(t) if quota[i]) for quota in chosen]
        reach = [[base[c] + gain[a] for c in members] for a, members in zip(allowed, group_members)]
        bounds = _threshold_bounds(modes, windows, outside_top, reach, group_keys, old_overlap)
        if not bounds:
            continue
        lo = min(b[1] for b in bounds)
        hi = max(b[2] for b in bounds)
        s_values = set(base_values[bisect_left(base_values, lo) : bisect_right(base_values, hi)])
        for c in instance.approved_union:
            for subset in subsets:
                value = base[c] + gain[subset]
                if lo <= value <= hi:
                    s_values.add(value)
        # per class: members, quota, the approver subsets the quota allows
        # and each member's score under each
        classes = []
        for members, quota, a in zip(group_members, chosen, allowed):
            subs = [sub for sub in subsets if sub <= a]
            classes.append((members, quota, subs, [[base[c] + gain[sub] for sub in subs] for c in members]))
        for s in sorted(s_values):
            below = bisect_left(outside_base, s)
            not_above = bisect_right(outside_base, s)
            out_gt = len(outside_base) - not_above
            out_eq = not_above - below
            patterns = {}
            for mode, low, high in bounds:
                if not low <= s <= high:
                    continue
                options = []
                for g, (members, quota, subs, values) in enumerate(classes):
                    if g not in patterns:
                        patterns[g] = tuple((v > s) - (v < s) for row in values for v in row)
                    key = (g, quota, mode, patterns[g])
                    if key not in memo:
                        memo[key] = _class_table(members, quota, subs, values, s, w, mode)
                    if not memo[key]:
                        break
                    options.append(memo[key])
                else:
                    pick = _pick_options(checker, mode, options, prefixes, out_gt, out_eq)
                    if pick is None:
                        continue
                    ballots = [set() for _ in range(t)]
                    for members, path in zip(group_members, pick):
                        for c in reversed(members):
                            subset, path = path
                            for i in subset:
                                ballots[i].add(c)
                    return Verdict(True, tuple(map(frozenset, ballots)))
    return NO


def _threshold_bounds(modes, windows, outside_top, reach, group_keys, old_overlap):
    """(mode, lowest, highest) threshold of each mode whose window is not
    empty, for one count guess.

    `windows[mode]` holds the mode's lowest threshold and how many
    candidates must reach it, `outside_top` the k+1 highest outside base
    scores, and `reach[g]` the best score of each member of class g.
    """
    best = sorted(outside_top + [r for rs in reach for r in rs], reverse=True)
    # each manipulator needs more approved candidates at or above s than
    # its old overlap, which is below its ballot's size
    ceiling = min(
        sorted((r for key, rs in zip(group_keys, reach) if i in key for r in rs), reverse=True)[old]
        for i, old in enumerate(old_overlap)
    )
    bounds = []
    for mode in modes:
        low, need = windows[mode]
        high = min(best[need - 1], ceiling) if need <= len(best) else -1
        if low <= high:
            bounds.append((mode, low, high))
    return bounds


def _pick_options(checker, mode, options, prefixes, out_gt, out_eq):
    """The paths of the first pick of one option per class, in the order of
    each class's sorted `options`, whose totals fit `mode` and whose
    winners `checker.decide` accepts, or None.

    A class's above members take its first bits in `prefixes` and its at
    members the next. Every member of a class is approved by the same
    manipulators, so the per-voter counts need no order; putting the
    displaced committee first makes decide's SBCM test the one the tables
    enforce, since those members land above the threshold (sbcm_multi) or
    at least at it (sbcm_unique).
    """
    k = checker.instance.k
    # the fewest winners at or above the threshold; sbcm_unique allows no more
    need = k + (mode == "sbcm_multi")

    def walk(g, sure, tied, swin, pwin):
        if sure + tied > k if mode == "sbcm_unique" else sure > k - 1:
            return None
        if g == len(options):
            return () if sure + tied >= need and checker.decide(swin, sure, pwin, tied) else None
        bits = prefixes[g]
        for (above, at), path in options[g]:
            found = walk(g + 1, sure + above, tied + at, swin | bits[above], pwin | bits[above + at] ^ bits[above])
            if found is not None:
                return (path, *found)
        return None

    return walk(0, out_gt, out_eq, 0, 0)


# ---------------------------------------------------------------------------
# Algorithm selection


def solve_const_manipulators(instance: ManipulationInstance, cap: Optional[int] = None) -> Verdict:
    """The constant-manipulator algorithm of the rule: AV's, or SAV/NSAV's."""
    if instance.rule.kind == "AV":
        return solve_av_const_manipulators(instance, cap)
    return solve_savnsav_const_manipulators(instance, cap)


# algorithm name -> (solver, the keyword options it takes besides the instance)
ALGORITHMS = {
    "bruteforce": (solve_manipulation_bruteforce, ("profile_mode", "pool")),
    "const-manipulators": (solve_const_manipulators, ()),
    "av-fpt-candidates": (solve_manipulation_fpt_m_av, ()),
    "additive-fpt-candidates": (solve_manipulation_fpt_m_additive, ()),
    "sdcm-fpt-candidates": (solve_sdcm_fpt_m, ()),
}


def auto_algorithm(instance: ManipulationInstance) -> str:
    """The entry of `ALGORITHMS` that `auto` runs: a specialised solver
    whose domain covers the instance, else brute force."""
    rule = instance.rule
    if instance.variant in ("CBCM", "SBCM"):
        if rule.is_additive and instance.t <= 3:
            return "const-manipulators"
        if rule.is_additive and len(instance.candidates) <= 8:
            return "additive-fpt-candidates"
    if instance.variant == "SDCM" and rule.is_additive and len(instance.candidates) <= 8:
        return "sdcm-fpt-candidates"
    return "bruteforce"
