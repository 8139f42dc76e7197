"""Winning-committee enumeration and the J-CC decision problem.

`winning_committees` is the ground truth the strategic solvers are checked
against: exhaustive search over all k-committees, with an additive shortcut
through the threshold partition that must agree with it. Exhaustive search
scores the Thiele family and MAV in integers, a committee as one
candidate-bit mask against one mask per vote; `core.committee_score` is
the `Fraction` specification they must match. `j_cc` decides whether a
candidate set J is contained in every winning k-committee, either by brute
force or from the optimal per-approval-class count vectors. The
class-count enumeration has at most 2^n classes for n votes, so it walks
polynomially many vectors in the number of candidates for a fixed n; it is
not the integer-program bound of the paper's fixed-parameter algorithm. It
keeps every vote's overlap packed in one int that each count change
updates, and fills the last class's seats in one step while counting the
nodes it skips, so its visit count and cap refusals are those of the
one-by-one walk. The two paths share only `core.omega_table`, so each
checks the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, islice
from typing import Optional

from abmv import core
from abmv.caps import COMMITTEE_ENUMERATION_CAP, GUESS_CAP, effective_cap
from abmv.core import (
    DomainError,
    Election,
    ResourceCapError,
    Rule,
    UnsupportedRuleError,
    ValidationError,
    committee_score,
)


@dataclass(frozen=True)
class WinningSet:
    """All optimal k-committees, colexicographically ordered, plus the optimum."""

    committees: tuple
    optimum: Fraction

    def __contains__(self, members) -> bool:
        return frozenset(members) in map(frozenset, self.committees)


@dataclass(frozen=True)
class JccInstance:
    election: Election
    k: int
    distinguished: frozenset

    def __post_init__(self):
        object.__setattr__(self, "distinguished", frozenset(self.distinguished))
        if not 1 <= len(self.distinguished) <= self.k <= self.election.m:
            raise ValidationError("need 1 <= |J| <= k <= |C|")
        for c in self.distinguished:
            if c not in self.election.candidates:
                raise DomainError(f"unknown candidate {c!r}")


def _sorted_committees(position, committees) -> tuple:
    """Committees in roster order by `position`, colexicographically sorted."""
    canon = [tuple(sorted(w, key=position)) for w in committees]
    return tuple(sorted(canon, key=lambda w: [position(c) for c in reversed(w)]))


def winning_committees(
    rule: Rule,
    election: Election,
    k: int,
    strategy: str = "auto",
    cap: Optional[int] = None,
) -> WinningSet:
    """Exactly the argmax (argmin for MAV) k-committees.

    The partition strategy is legal only for additive rules and must
    return the same set as exhaustive search. Exhaustive search refuses
    to enumerate past its cap rather than truncate; outside the additive
    rules it compares `core.committee_score` times one scale, as ints
    (`_scorer`).
    """
    if not 0 < k <= election.m:
        raise core.DomainError(f"k={k} out of range")
    if strategy == "auto":
        strategy = "partition" if rule.is_additive else "exhaustive"
    if strategy == "partition":
        if not rule.is_additive:
            raise UnsupportedRuleError("partition strategy needs an additive rule")
        return _winning_by_partition(rule, election, k, cap)
    if strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}")
    limit = effective_cap(cap if cap is not None else COMMITTEE_ENUMERATION_CAP)
    if math.comb(election.m, k) > limit:
        raise ResourceCapError(
            f"{math.comb(election.m, k)} committees exceed the enumeration cap {limit}"
        )
    scale, members, score = _scorer(rule, election, k)
    best = None
    winners = []
    minimizing = rule.orientation == "minimize"
    for combo in combinations(members, k):
        s = score(combo)
        if best is None or (s < best if minimizing else s > best):
            best = s
            winners = [combo]
        elif s == best:
            winners.append(combo)
    label = dict(zip(members, election.candidates))
    committees = [tuple(map(label.__getitem__, w)) for w in winners]
    return WinningSet(_sorted_committees(election.index, committees), Fraction(best, scale))


def _scorer(rule: Rule, election: Election, k: int) -> tuple:
    """(scale, members, score): `score` maps a k-combination of `members`, which
    stand for the candidates in roster order, to that committee's exact score
    times `scale`.

    The Thiele family and MAV score a committee as one candidate-bit mask
    against one int mask per vote: Σ ω[|v ∩ W|] over `core.omega_table`, the
    only piece shared with `optimal_count_vectors`, or MAV's largest
    |v Δ W| = |v| + k - 2|v ∩ W|. The additive rules keep the `Fraction`
    `core.committee_score`, as their exhaustive search is the partition's oracle.
    """
    if rule.is_additive:
        return 1, election.candidates, partial(committee_score, rule, election)
    bits = [1 << i for i in range(election.m)]
    bit = dict(zip(election.candidates, bits))
    votes = [sum(map(bit.__getitem__, v)) for v in election.votes]
    if rule.kind == "MAV":
        reach = [(len(v) + k, mask) for v, mask in zip(election.votes, votes)]

        def score(combo):
            committee = sum(combo)
            # with no votes every committee ties at 0
            return max([far - 2 * (mask & committee).bit_count() for far, mask in reach], default=0)

        return 1, bits, score
    scale, omega = core.omega_table(rule, min(k, max(map(len, election.votes), default=0)))

    def score(combo):
        committee = sum(combo)
        return sum([omega[(mask & committee).bit_count()] for mask in votes])

    return scale, bits, score


def _winning_by_partition(rule, election, k, cap):
    """swin plus any k - |swin| of pwin, each scoring swin's scores plus one
    threshold per other seat; placed by the pool's roster positions alone."""
    threshold, sure, possible = core.split_classes(core.additive_class_scores(rule, election).values(), k)
    swin = [c for _, members in sure for c in members]
    pwin = [c for _, members in possible for c in members]
    limit = effective_cap(cap if cap is not None else COMMITTEE_ENUMERATION_CAP)
    if math.comb(len(pwin), k - len(swin)) > limit:
        raise ResourceCapError("possible-winner pool too large to enumerate")
    optimum = sum(score * len(members) for score, members in sure) + (k - len(swin)) * threshold
    pool = frozenset(swin).union(pwin)
    # the pass stops at the pool's last member, early in a padded roster
    position = {c: i for i, c in enumerate(islice(filter(pool.__contains__, election.candidates), len(pool)))}
    committees = core.admitted_committees(swin, pwin, k)
    return WinningSet(_sorted_committees(position.__getitem__, committees), optimum)


def mav_single_winners(election: Election) -> frozenset:
    """The tied MAV winners at k=1, computed in closed form.

    Intersect the votes of maximum size x: candidates outside that
    intersection are at distance x+1 from some largest vote, members at
    most x, so winners come from the intersection when it is nonempty
    (otherwise everybody ties at x+1). Within the intersection only
    votes of size x-1 can still discriminate: a member they all approve
    sits at the floor distance x-1; if no member is approved by all of
    them, the whole intersection ties at x. Matches exhaustive search
    at k=1; an empty vote multiset ties everyone.
    """
    if election.m < 1:
        raise core.DomainError("no candidates")
    if not election.votes:
        return frozenset(election.candidates)
    top = max(len(v) for v in election.votes)
    shared = None
    for v in election.votes:
        if len(v) == top:
            shared = v if shared is None else shared & v
    if not shared:
        return frozenset(election.candidates)
    floor_winners = set(shared)
    for v in election.votes:
        if len(v) == top - 1:
            floor_winners &= v
    return frozenset(floor_winners or shared)


# ---------------------------------------------------------------------------
# Optimal committee score through approval classes (polynomial in the
# candidates for a fixed vote count)


def optimal_count_vectors(rule: Rule, election: Election, k: int, cap: Optional[int] = None) -> tuple:
    """(optimum, every optimal count vector) over the k-committees.

    Entry g of a vector is how many members a committee takes from the
    g-th class of `election.approval_classes`, whose key names the class's
    approvers. Members of a class are interchangeable, so a committee's
    score depends only on its vector, and every committee with an optimal
    vector wins; this stays feasible when the roster is huge but the vote
    multiset is small. Vectors are enumerated depth-first from an
    explicit stack, smallest counts first, and returned in that order.
    Every visited node, pruned or not, counts against the cap. The
    optimum is None when no vector fills k seats.

    The walk carries its state in one int that each count change moves by
    the class's `packed` step: the additive score itself, or under the
    other rules every vote's overlap in a field of k.bit_length() + 1 bits,
    whose top bit is a guard no overlap reaches. The last class takes all
    r remaining seats in one step; its r + 1 children count as visited, so
    the visit count is that of walking them one by one.
    """
    limit = effective_cap(cap if cap is not None else GUESS_CAP)
    approvers = list(election.approval_classes)
    sizes = [len(members) for members in election.approval_classes.values()]
    suffix = [0] * (len(sizes) + 1)
    for g in range(len(sizes) - 1, -1, -1):
        suffix[g] = suffix[g + 1] + sizes[g]
    vote_sizes = [len(v) for v in election.votes]
    # scores are integers over `scale`: additive weights from size_weights,
    # Thiele weights from omega_table, MAV distances as they are
    scale, score = 1, None
    if rule.is_additive:
        scale, weight = core.size_weights(rule, election.m, vote_sizes)
        penalty = core.nsav_penalty(rule, election.m, scale, vote_sizes)
        totals = core._integer_class_scores(election, weight)
        packed = [totals[key][0] - penalty for key in approvers]
    else:
        width = k.bit_length() + 1
        ones = sum(1 << width * vid for vid in range(len(vote_sizes)))
        guard = ones << width - 1
        packed = [sum(1 << width * vid for vid in key) for key in approvers]
        if rule.kind == "MAV":
            field = (1 << width) - 1
            reach = [(size + k, width * vid) for vid, size in enumerate(vote_sizes)]

            def score(overlaps):
                return max([far - 2 * (overlaps >> shift & field) for far, shift in reach], default=0)

        else:
            scale, omega = core.omega_table(rule, min(k, max(vote_sizes, default=0)))
            # Σ_v ω[o_v] = Σ_j (ω[j] - ω[j-1]) · #{v : o_v ≥ j}, and a field
            # keeps its guard bit through subtracting j iff its overlap is ≥ j
            steps = [(omega[j] - omega[j - 1], j * ones) for j in range(1, len(omega)) if omega[j] != omega[j - 1]]

            def score(overlaps):
                raised = overlaps | guard
                return sum([gain * ((raised - lowered) & guard).bit_count() for gain, lowered in steps])

    minimizing = rule.orientation == "minimize"
    best, vectors = None, []
    # counts[:depth] is the stack: one frame per class, holding its count;
    # `state` is the sum of count times `packed` over the classes
    counts = [0] * len(sizes)
    last = len(sizes) - 1
    depth, remaining, visited, state = 0, k, 0, 0
    while True:
        visited += 1
        if visited > limit:
            raise ResourceCapError("class-count enumeration exceeded its cap")
        if remaining <= suffix[depth]:
            if depth < last:
                depth += 1  # the first child takes no member of this class
                continue
            if depth == last:
                # children 0..remaining, of which only the last fills k seats
                visited += remaining + 1
                if visited > limit:
                    raise ResourceCapError("class-count enumeration exceeded its cap")
                counts[last] = remaining
                state += remaining * packed[last]
                depth, remaining = last + 1, 0
            s = state if score is None else score(state)
            if best is None or (s < best if minimizing else s > best):
                best, vectors = s, [tuple(counts)]
            elif s == best:
                vectors.append(tuple(counts))
        # back up to the deepest class that can take one more member
        while True:
            depth -= 1
            if depth < 0:
                return (None if best is None else Fraction(best, scale)), vectors
            if counts[depth] < sizes[depth] and remaining > 0:
                counts[depth] += 1
                state += packed[depth]
                remaining -= 1
                depth += 1
                break
            remaining += counts[depth]
            state -= counts[depth] * packed[depth]
            counts[depth] = 0


def optimal_score_by_classes(rule: Rule, election: Election, k: int, cap: Optional[int] = None) -> Fraction:
    """Optimum committee score, enumerated as per-approval-class member counts."""
    best, _ = optimal_count_vectors(rule, election, k, cap)
    if best is None:
        raise core.DomainError("k exceeds the number of candidates")
    return best


# ---------------------------------------------------------------------------
# J-CC


def j_cc(rule: Rule, instance: JccInstance, algo: str = "auto", cap: Optional[int] = None) -> bool:
    """True iff J is contained in every winning k-committee.

    `bruteforce` enumerates winners; `fptn` enumerates the optimal
    per-approval-class count vectors (`optimal_count_vectors`) and checks
    that each takes all of every class holding a member of J. The walk is
    polynomial in the number of candidates for a fixed number of votes,
    not the paper's integer-program bound. `fptn` is only defined for
    the non-additive rules — additive rules are answered from the
    threshold partition in constant extra work.
    """
    election, k, wanted = instance.election, instance.k, instance.distinguished
    if algo == "auto":
        if rule.is_additive:
            return core.additive_jcc(rule, election, k, wanted)
        if math.comb(election.m, k) <= 200_000:
            algo = "bruteforce"
        else:
            algo = "fptn"
    if algo == "bruteforce":
        ws = winning_committees(rule, election, k, strategy="exhaustive", cap=cap)
        return all(wanted <= frozenset(w) for w in ws.committees)
    if algo != "fptn":
        raise ValueError(f"unknown algorithm {algo!r}")
    if rule.is_additive:
        raise UnsupportedRuleError(
            "fptn is not defined for additive rules; the partition answers them directly"
        )
    return _jcc_fptn(rule, instance, cap)


def _jcc_fptn(rule: Rule, instance: JccInstance, cap) -> bool:
    """J lies in every winning committee iff every optimal count vector
    takes all of each class that holds a member of J.

    Clones are interchangeable, so an optimal committee taking fewer than
    all of such a class can swap the missing J member in for a clone.
    """
    election, k, wanted = instance.election, instance.k, instance.distinguished
    limit = effective_cap(cap if cap is not None else GUESS_CAP)
    classes = tuple(election.approval_classes.values())
    if len(classes) > limit:
        raise ResourceCapError("too many approval classes for the fptn path")
    _, vectors = optimal_count_vectors(rule, election, k, cap)
    tagged = [g for g, members in enumerate(classes) if not wanted.isdisjoint(members)]
    return all(v[g] == len(classes[g]) for v in vectors for g in tagged)
