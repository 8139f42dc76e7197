"""Election control: CCAV, CCDV, CCAC, CCDC, and the combined variants.

An external agent adds or deletes a budgeted number of voters or
candidates so that a distinguished set J lands in every winning
k-committee. Verdicts are tie-breaking-free (J must be in *all* winning
committees) and every YES ships an add/delete selection;
`control_succeeds` checks one by applying it and deciding J-CC on the
result, and `abmv.solve` says who calls it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, islice, product
from typing import Optional, Sequence

from abmv import core, ipcore, winners
from abmv.caps import GUESS_CAP, SUBSET_CAP, effective_cap
from abmv.core import (
    Election,
    ResourceCapError,
    Rule,
    UnsupportedRuleError,
    ValidationError,
    Verdict,
)

# control type -> (what it adds, what it deletes): "votes", "candidates" or
# None; a ControlInstance has a budget for exactly the actions its type takes
ACTIONS = {
    "CCAV": ("votes", None),
    "CCDV": (None, "votes"),
    "CCAC": ("candidates", None),
    "CCDC": (None, "candidates"),
    "CCADV": ("votes", "votes"),
    "CCADC": ("candidates", "candidates"),
    "JCC": (None, None),
}
CONTROL_TYPES = tuple(ACTIONS)
VOTER_TYPES = tuple(t for t, acts in ACTIONS.items() if "votes" in acts)
CANDIDATE_TYPES = tuple(t for t, acts in ACTIONS.items() if "candidates" in acts)


@dataclass(frozen=True)
class ControlInstance:
    ctype: str
    rule: Rule
    registered_candidates: tuple
    registered_votes: tuple
    k: int
    distinguished: frozenset
    unregistered_candidates: tuple = ()
    unregistered_votes: tuple = ()
    budget_add: Optional[int] = None
    budget_delete: Optional[int] = None

    def __post_init__(self):
        core.coerce_fields(
            self, registered_candidates=tuple, registered_votes=core.ballots, k=int,
            distinguished=frozenset, unregistered_candidates=tuple, unregistered_votes=core.ballots,
        )
        self._validate()

    def _validate(self):
        if self.ctype not in CONTROL_TYPES:
            raise ValidationError(f"unknown control type {self.ctype!r}")
        C = self.registered_candidates
        D = self.unregistered_candidates
        if not (registered := set(C)).isdisjoint(D):
            raise ValidationError("registered and unregistered candidates overlap")
        if not 1 <= len(self.distinguished) <= self.k <= len(C):
            raise ValidationError("need 1 <= |J| <= k <= |C|")
        if not self.distinguished <= registered:
            raise ValidationError("distinguished candidates must be registered")
        pool = registered.union(D) if D else registered
        for i, v in enumerate(self.registered_votes + self.unregistered_votes):
            if not v <= pool:
                raise ValidationError(f"vote {i} leaves the candidate pool")
        if self.ctype in VOTER_TYPES and D:
            raise ValidationError("voter control takes no unregistered candidates")
        if self.ctype in CANDIDATE_TYPES and self.unregistered_votes:
            raise ValidationError("candidate control takes no unregistered votes")
        adds, deletes = ACTIONS[self.ctype]
        addable = {"votes": self.unregistered_votes, "candidates": D}
        deletable = {"votes": self.registered_votes, "candidates": C}
        for action, kind, budget, pools in (
            ("addition", adds, self.budget_add, addable),
            ("deletion", deletes, self.budget_delete, deletable),
        ):
            if kind is None:
                if budget is not None:
                    raise ValidationError(f"{self.ctype} takes no {action} budget")
            elif budget is None or budget < 0:
                raise ValidationError(f"{self.ctype} needs a nonnegative {action} budget")
            elif budget > len(pools[kind]):
                raise ValidationError(f"{action} budget exceeds its pool")

    @property
    def base_election(self) -> Election:
        """The election before any control action (restricted to registered candidates)."""
        if self.ctype in CANDIDATE_TYPES:
            keep = set(self.registered_candidates)
            return Election(self.registered_candidates, [v & keep for v in self.registered_votes])
        return Election(self.registered_candidates, self.registered_votes)


@dataclass(frozen=True)
class ControlSolution:
    added_votes: tuple = ()
    deleted_votes: tuple = ()
    added_candidates: tuple = ()
    deleted_candidates: tuple = ()


EMPTY_SOLUTION = ControlSolution()


def apply_control(instance: ControlInstance, solution: ControlSolution) -> Election:
    """The election after performing a control action; validates budgets."""
    ctype = instance.ctype
    added_votes, deleted_votes, added_cands, deleted_cands = picks = (
        tuple(solution.added_votes),
        tuple(solution.deleted_votes),
        tuple(solution.added_candidates),
        tuple(solution.deleted_candidates),
    )
    adds, deletes = ACTIONS[ctype]
    checks = (
        ("add", "votes", adds, range(len(instance.unregistered_votes)), "bad unregistered vote indices"),
        ("delete", "votes", deletes, range(len(instance.registered_votes)), "bad registered vote indices"),
        ("add", "candidates", adds, instance.unregistered_candidates, "bad unregistered candidates"),
        ("delete", "candidates", deletes, instance.registered_candidates, "bad deleted candidates"),
    )
    for chosen, (verb, kind, allowed, _, _) in zip(picks, checks):
        if chosen and kind != allowed:
            raise ValidationError(f"{ctype} cannot {verb} {kind}")
    for chosen, (verb, kind, _, pool, bad) in zip(picks, checks):
        if not chosen:
            continue
        if len(set(chosen)) != len(chosen) or not all(map(pool.__contains__, chosen)):
            raise ValidationError(bad)
        if (verb, kind) == ("delete", "candidates") and not instance.distinguished.isdisjoint(chosen):
            raise ValidationError("distinguished candidates cannot be deleted")
        if len(chosen) > (instance.budget_add if verb == "add" else instance.budget_delete):
            raise ValidationError(("addition" if verb == "add" else "deletion") + " budget violated")
    if ctype not in CANDIDATE_TYPES:
        dropped = set(deleted_votes)
        votes = [v for i, v in enumerate(instance.registered_votes) if i not in dropped]
        votes += [instance.unregistered_votes[i] for i in added_votes]
        return Election(instance.registered_candidates, votes)
    removed, added = set(deleted_cands), set(added_cands)
    added_order = [c for c in instance.unregistered_candidates if c in added]
    roster = [c for c in instance.registered_candidates if c not in removed] + added_order
    if len(roster) < instance.k:
        raise ValidationError("fewer than k candidates would remain")
    # ballots lose the deleted candidates and the unregistered ones not added
    dropped = removed.union(instance.unregistered_candidates).difference(added)
    return Election(tuple(roster), [v - dropped for v in instance.registered_votes])


def control_succeeds(instance: ControlInstance, solution: ControlSolution) -> bool:
    """Apply the solution and decide whether J is in all winning committees."""
    election = apply_control(instance, solution)
    jcc = winners.JccInstance(election, instance.k, instance.distinguished)
    return winners.j_cc(instance.rule, jcc)


def _solution_stream(instance: ControlInstance, deletion_pool=None):
    """All budget-respecting solutions in increasing-cardinality order."""
    la = instance.budget_add or 0
    ld = instance.budget_delete or 0
    if instance.ctype in CANDIDATE_TYPES:
        skipped = ((), ())  # the vote fields of ControlSolution
        add_pool = instance.unregistered_candidates
        roster = instance.registered_candidates
        if deletion_pool is None:
            del_pool = [c for c in roster if c not in instance.distinguished]
        else:
            del_pool = list(filter(set(deletion_pool).__contains__, roster))
        # at least k candidates must remain
        room = len(roster) - instance.k
    else:
        skipped = ()
        add_pool = range(len(instance.unregistered_votes))
        del_pool = range(len(instance.registered_votes))
        room = math.inf
    for total in range(la + ld + 1):
        for ra in range(min(la, total), -1, -1):
            rd = total - ra
            if rd > ld or rd - ra > room:
                continue
            for added in combinations(add_pool, ra):
                for deleted in combinations(del_pool, rd):
                    yield ControlSolution(*skipped, added, deleted)


class _AdditiveControlOracle:
    """J-CC after any control action under AV, SAV or NSAV, without an Election.

    Identical ballots collapse into ballot types with multiplicities and
    live sizes (the ballot restricted to the registered roster), and the
    approved pool candidates into classes keyed by the ballot types
    approving them; the class of no types only counts the never-approved
    candidates, so a padded roster costs nothing per clone. An action
    changes the multiplicities (voter control) or the sizes and class
    counts (candidate control). Each ballot type is then worth its
    multiplicity times the `core.size_weights` of its size, and a class
    scores the worths of its types: integers that keep the order of the
    exact scores, not their values. A voter action's verdict depends only
    on the ballot types it deletes and adds, so it is decided once per pair.
    """

    def __init__(self, instance: ControlInstance):
        self.rule = instance.rule
        self.k = instance.k
        self.wanted = instance.distinguished
        self.m = len(instance.registered_candidates)
        unregistered = frozenset(instance.unregistered_candidates)
        type_id: dict = {}
        for ballot in instance.registered_votes + instance.unregistered_votes:
            type_id.setdefault(ballot, len(type_id))
        self.registered_type = [type_id[b] for b in instance.registered_votes]
        self.unregistered_type = [type_id[b] for b in instance.unregistered_votes]
        self.size = [len(b) - len(b & unregistered) for b in type_id]
        self.mult = [0] * len(type_id)
        for t in self.registered_type:
            self.mult[t] += 1
        approving: dict = {}
        for ballot, t in type_id.items():
            for c in ballot:
                approving.setdefault(c, []).append(t)
        self.approving = {c: tuple(types) for c, types in approving.items()}
        self.class_count = {(): self.m - len(approving.keys() - unregistered)}
        for c, types in self.approving.items():
            self.class_count[types] = self.class_count.get(types, 0) + (c not in unregistered)
        self.wanted_classes = {self.approving.get(c, ()) for c in self.wanted}
        self.weights: dict = {}
        self.verdicts: dict = {}

    def jcc_after(self, solution: ControlSolution) -> bool:
        """Decide J-CC on `apply_control(instance, solution)` without building it."""
        if solution.deleted_votes or solution.added_votes:
            deleted = sorted(self.registered_type[i] for i in solution.deleted_votes)
            added = sorted(self.unregistered_type[i] for i in solution.added_votes)
            key = (tuple(deleted), tuple(added))
            if key not in self.verdicts:
                mult = list(self.mult)
                for t in deleted:
                    mult[t] -= 1
                for t in added:
                    mult[t] += 1
                self.verdicts[key] = self._decide(self.m, mult, self.size, self.class_count)
            return self.verdicts[key]
        if not self.wanted.isdisjoint(solution.deleted_candidates):
            return False
        m = self.m + len(solution.added_candidates) - len(solution.deleted_candidates)
        if m < self.k:
            return False
        size, counts = list(self.size), dict(self.class_count)
        for sign, cands in ((-1, solution.deleted_candidates), (1, solution.added_candidates)):
            for c in cands:
                types = self.approving.get(c, ())
                counts[types] += sign
                for t in types:
                    size[t] += sign
        return self._decide(m, self.mult, size, counts)

    def _decide(self, m: int, mult: list, size: list, counts: dict) -> bool:
        """J-CC among m candidates from ballot-type multiplicities and sizes and class counts."""
        live = frozenset(compress(size, mult))
        weight = self.weights.get((m, live))
        if weight is None:
            weight = self.weights[m, live] = core.size_weights(self.rule, m, live)[1]
        worth = [count * weight.get(s, 0) for count, s in zip(mult, size)]
        weighted = [(sum(map(worth.__getitem__, types)), count) for types, count in counts.items() if count]
        wanted = [sum(map(worth.__getitem__, types)) for types in self.wanted_classes]
        return core.jcc_from_scores(weighted, self.k, wanted)


def solve_control_bruteforce(
    instance: ControlInstance,
    cap: Optional[int] = None,
    deletion_pool=None,
) -> Verdict:
    """Search all budget-respecting actions; minimal-cardinality witness.

    `deletion_pool` narrows candidate deletion to a subset of the roster
    when deletions outside it are provably irrelevant (score padding).
    """
    limit = effective_cap(cap if cap is not None else SUBSET_CAP)
    oracle = None
    if instance.ctype != "JCC" and instance.rule.is_additive:
        oracle = _AdditiveControlOracle(instance)
    tried = 0
    for solution in _solution_stream(instance, deletion_pool):
        tried += 1
        if tried > limit:
            raise ResourceCapError(f"control search exceeded the cap {limit}")
        if oracle is not None and not oracle.jcc_after(solution):
            continue
        # an oracle YES is re-verified on the rebuilt election
        if control_succeeds(instance, solution):
            return Verdict(True, solution)
    return Verdict(False)


# ---------------------------------------------------------------------------
# CCDV under MAV, polynomial for constant k


def solve_ccdv_mav_poly(instance: ControlInstance, cap: Optional[int] = None) -> Verdict:
    """Guess a target committee containing J and a score bound x; delete the
    votes too far from the committee and demand every J-missing committee
    scores worse than x."""
    if instance.rule.kind != "MAV" or instance.ctype != "CCDV":
        raise UnsupportedRuleError("this solver handles CCDV under MAV")
    election = instance.base_election
    m, k = election.m, instance.k
    limit = effective_cap(cap if cap is not None else GUESS_CAP)
    if math.comb(m, k) > limit:
        raise ResourceCapError("committee space exceeds the cap")
    budget = instance.budget_delete
    wanted = instance.distinguished
    roster = list(election.candidates)
    with_j = [w for w in combinations(roster, k) if wanted <= frozenset(w)]
    without_j = [frozenset(w) for w in combinations(roster, k) if not wanted <= frozenset(w)]
    for x in range(0, m + k + 1):
        for w in with_j:
            members = frozenset(w)
            far = [core.hamming_distance(members, v) > x for v in election.votes]
            deleted = tuple(i for i, too_far in enumerate(far) if too_far)
            if len(deleted) > budget:
                continue
            kept = [v for v, too_far in zip(election.votes, far) if not too_far]
            if all(
                (max((core.hamming_distance(other, v) for v in kept), default=0)) >= x + 1
                for other in without_j
            ):
                return Verdict(True, ControlSolution(deleted_votes=deleted))
    return Verdict(False)


# ---------------------------------------------------------------------------
# Immunity


@dataclass(frozen=True)
class ImmunityVerdict:
    status: str  # immune | susceptible | undetermined
    justification: str


def immunity_verdict(rule: Rule, ctype: str, k: int, j_size: int) -> ImmunityVerdict:
    """Rule-level immunity to a control type; immune only on a proved fact."""
    if ctype not in CONTROL_TYPES or ctype == "JCC":
        raise ValidationError(f"{ctype!r} is not a control type")
    if ctype != "CCAC":
        # adding/deleting voters and deleting candidates can always move
        # scores of registered candidates for every rule built here
        return ImmunityVerdict("susceptible", "vote-or-deletion-control-moves-scores")
    if rule.kind == "AV":
        return ImmunityVerdict("immune", "candidate-additions-never-change-av-scores")
    if rule.is_thiele_family and j_size == k:
        return ImmunityVerdict("immune", "non-unique-committees-stay-non-unique")
    if rule.kind in ("ABCCV", "PAV") and j_size < k:
        return ImmunityVerdict("susceptible", "witnessed-by-candidate-addition")
    if rule.kind == "MAV":
        return ImmunityVerdict("susceptible", "distance-floor-moves-with-additions")
    return ImmunityVerdict("undetermined", "no-proved-fact-applies")


# ---------------------------------------------------------------------------
# Combined voter control, FPT in the candidate count (additive rules)


def _ballot_groups(votes: Sequence[frozenset]):
    groups = {}
    for i, v in enumerate(votes):
        groups.setdefault(v, []).append(i)
    return sorted(groups.items(), key=lambda kv: sorted(kv[0]))


def _vote_count_search(instance: ControlInstance, guesses, cap) -> Verdict:
    """First solution of the voter-control programs, one per guess.

    The variables count, per distinct ballot, the deleted registered copies
    (`d<g>`) and the added unregistered copies (`a<g>`) within the budgets.
    `guesses(change)` yields one list of `(left, relation, right)`
    comparisons per guess, where `change(value)` maps each variable to the
    change its copies make to a sum of per-ballot `value(ballot)`.
    """
    deletable, addable = (
        [(f"{prefix}{g}", ballot, ids) for g, (ballot, ids) in enumerate(_ballot_groups(votes))]
        for prefix, votes in (("d", instance.registered_votes), ("a", instance.unregistered_votes))
    )

    def change(value):
        coeffs = {name: -v for name, ballot, _ in deletable if (v := value(ballot))}
        coeffs.update((name, v) for name, ballot, _ in addable if (v := value(ballot)))
        return coeffs

    def chosen(groups, counts):
        return tuple(sorted(i for name, _, ids in groups for i in ids[: counts[name]]))

    for comparisons in guesses(change):
        program = ipcore.IntegerProgram()
        for name, _, ids in deletable + addable:
            program.add_variable(name, 0, len(ids))
        for groups, budget in ((deletable, instance.budget_delete), (addable, instance.budget_add)):
            if groups:
                program.add_constraint([(name, 1) for name, _, _ in groups], "<=", budget or 0)
        for left, relation, right in comparisons:
            program.add_comparison(left, relation, right)
        result = ipcore.solve_ip(program, cap)
        if result.feasible:
            solution = ControlSolution(
                added_votes=chosen(addable, result.assignment),
                deleted_votes=chosen(deletable, result.assignment),
            )
            return Verdict(True, solution)
    return Verdict(False)


def solve_ccadv_additive_fpt(instance: ControlInstance, cap: Optional[int] = None) -> Verdict:
    """CCAV/CCDV/CCADV for additive rules: guess the weakest distinguished
    candidate and which rivals must end strictly below it, then solve the
    add/delete counting program."""
    if not instance.rule.is_additive:
        raise UnsupportedRuleError("additive rules only")
    if instance.ctype not in VOTER_TYPES:
        raise UnsupportedRuleError("this solver handles voter control")
    election = instance.base_election
    k = instance.k
    wanted = sorted(instance.distinguished, key=election.index)
    others = [c for c in election.candidates if c not in instance.distinguished]
    # one scale covers every ballot; the NSAV penalty the weights leave out
    # cancels, because every row compares two candidates
    sizes = [len(v) for v in instance.registered_votes + instance.unregistered_votes]
    _, weight = core.size_weights(instance.rule, election.m, sizes)
    base = core.integer_scores(election, weight)

    def guesses(change):
        score = {
            c: (base[c], change(lambda ballot: weight[len(ballot)] if c in ballot else 0))
            for c in election.candidates
        }
        for weakest in wanted:
            for keep_size in range(0, k - len(wanted) + 1):
                for keep in combinations(others, keep_size):
                    yield [(score[c], ">=", score[weakest]) for c in wanted if c != weakest] + [
                        (score[c], "<", score[weakest]) for c in others if c not in keep
                    ]

    return _vote_count_search(instance, guesses, cap)


# ---------------------------------------------------------------------------
# Combined voter control for Thiele rules: guess a winning committee with J


def thiele_fpt_refusal(instance: ControlInstance) -> Optional[str]:
    """Why `solve_ccadv_thiele_fpt` refuses the instance up front, or None.

    Its `cap` bounds each program's nodes; this bounds what all its programs
    hold: at most one row per anchor and k-committee, each a constant plus
    one coefficient per distinct ballot."""
    ballots = len(set(instance.registered_votes)) + len(set(instance.unregistered_votes))
    m, k = len(instance.registered_candidates), instance.k
    if _thiele_anchors(instance) * math.comb(m, k) * (ballots + 1) > effective_cap(GUESS_CAP):
        return "anchor programs' coefficients exceed the cap"
    return None


def _thiele_anchors(instance: ControlInstance) -> int:
    """The committees containing J, one program each."""
    m, k, j = len(instance.registered_candidates), instance.k, len(instance.distinguished)
    return math.comb(m - j, k - j)


def solve_ccadv_thiele_fpt(instance: ControlInstance, cap: Optional[int] = None) -> Verdict:
    """CCAV/CCDV/CCADV for Thiele rules. J lies in every winning committee
    exactly when some committee W* containing J scores strictly above every
    committee without J (any winner holding J is such a W*), so guess W*
    and solve the add/delete counting program that keeps it ahead."""
    if not instance.rule.is_thiele_family:
        raise UnsupportedRuleError("Thiele-family rules only")
    if instance.ctype not in VOTER_TYPES:
        raise UnsupportedRuleError("this solver handles voter control")
    if (refusal := thiele_fpt_refusal(instance)) is not None:
        raise ResourceCapError(refusal)
    election = instance.base_election
    k = instance.k

    # one scale covers every ballot, and every row compares two committees
    ballots = election.votes + instance.unregistered_votes
    _, omega = core.omega_table(instance.rule, min(k, max((len(v) for v in ballots), default=0)))

    def guesses(change):
        # the coefficients fix the whole score (each registered ballot adds
        # what deleting it takes away), so committees alike in them need one
        # anchor or one row between them
        distinct = ({}, {})  # committees without J, with J
        for members in combinations(election.candidates, k):
            w = frozenset(members)
            coeffs = change(lambda ballot: omega[len(ballot & w)])
            score = (sum(omega[len(ballot & w)] for ballot in election.votes), coeffs)
            distinct[instance.distinguished <= w].setdefault(frozenset(coeffs.items()), score)
        rows, anchors = (list(scores.values()) for scores in distinct)
        for anchor in anchors:
            yield [(anchor, ">", w) for w in rows]

    return _vote_count_search(instance, guesses, cap)


# ---------------------------------------------------------------------------
# CCAV under MAV, FPT in the candidate count


def solve_ccav_mav_fpt(instance: ControlInstance, cap: Optional[int] = None) -> Verdict:
    """Duplicate unregistered votes never help MAV (scores are maxima), so
    dedup first and enumerate the at-most-2^m distinct additions."""
    if instance.rule.kind != "MAV" or instance.ctype != "CCAV":
        raise UnsupportedRuleError("this solver handles CCAV under MAV")
    limit = effective_cap(cap if cap is not None else SUBSET_CAP)
    budget = instance.budget_add or 0
    representatives = []
    seen = set()
    for i, v in enumerate(instance.unregistered_votes):
        if v not in seen:
            seen.add(v)
            representatives.append(i)
    total = sum(math.comb(len(representatives), r) for r in range(min(budget, len(representatives)) + 1))
    if total > limit:
        raise ResourceCapError("dedup subset space exceeds the cap")
    for r in range(0, min(budget, len(representatives)) + 1):
        for chosen in combinations(representatives, r):
            solution = ControlSolution(added_votes=chosen)
            if control_succeeds(instance, solution):
                return Verdict(True, solution)
    return Verdict(False)


# ---------------------------------------------------------------------------
# Perfect hash families and color-coding candidate control


@dataclass(frozen=True)
class PerfectHashFamily:
    universe: tuple
    colors: int
    functions: tuple  # tuple of dicts element -> color in [0, colors)
    mode: str


def verify_perfect(family: PerfectHashFamily) -> tuple:
    """(is_perfect, covered_fraction): every |colors|-subset must be rainbow
    under at least one member function."""
    kappa = family.colors
    universe = family.universe
    total = 0
    covered = 0
    for subset in combinations(universe, kappa):
        total += 1
        for f in family.functions:
            if len({f[x] for x in subset}) == kappa:
                covered += 1
                break
    if total == 0:
        return True, Fraction(1)
    return covered == total, Fraction(covered, total)


def build_perfect_hash_family(
    universe: Sequence,
    kappa: int,
    mode: str = "exhaustive",
    seed: int = 0,
    repetitions: int = 1,
    cap: Optional[int] = None,
) -> PerfectHashFamily:
    """Colorings of the universe with kappa colors covering every kappa-subset.

    Exhaustive mode walks all kappa^|X| colorings and greedily keeps a
    verified perfect subfamily (deterministic). Randomized mode draws
    about e^kappa * kappa * ln|X| colorings per repetition; the result is
    one-sided and should be checked with `verify_perfect`.
    """
    universe = tuple(universe)
    if kappa > len(universe):
        raise ValidationError("kappa exceeds the universe size")
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    limit = effective_cap(cap if cap is not None else GUESS_CAP)
    if mode == "exhaustive":
        if kappa ** len(universe) > limit:
            raise ResourceCapError("coloring space exceeds the cap")
        uncovered = set(combinations(universe, kappa))
        chosen = []
        for values in product(range(kappa), repeat=len(universe)):
            if not uncovered:
                break
            f = dict(zip(universe, values))
            hits = [s for s in uncovered if len({f[x] for x in s}) == kappa]
            if hits:
                chosen.append(f)
                uncovered.difference_update(hits)
        family = PerfectHashFamily(universe, kappa, tuple(chosen), "exhaustive")
        ok, _ = verify_perfect(family)
        if not ok:
            raise AssertionError("exhaustive family failed verification")
        return family
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    draws = max(1, math.ceil(math.e**kappa * kappa * max(1.0, math.log(len(universe)))))
    functions = []
    for _ in range(draws * max(1, repetitions)):
        functions.append({x: rng.randrange(kappa) for x in universe})
    return PerfectHashFamily(universe, kappa, tuple(functions), "randomized")


def solve_ccadc_colorcoding(
    instance: ControlInstance,
    hash_mode: str = "exhaustive",
    seed: int = 0,
    repetitions: int = 1,
    cap: Optional[int] = None,
) -> Verdict:
    """CCAC/CCDC/CCADC by color coding over added and deleted candidates.

    For each exact budget pair, hash the deletable and addable candidates
    into that many color classes; a solution picks one candidate per
    class, and within a class only the approver set of the pick matters,
    so distinct approver sets are tried through representatives. With an
    exhaustive (verified) family the verdict is deterministic and equals
    brute force; the randomized family gives a one-sided answer (YES is
    certain, NO may be wrong) and says so in the verdict details.
    """
    if instance.ctype not in CANDIDATE_TYPES:
        raise UnsupportedRuleError("this solver handles candidate control")
    if instance.rule.kind not in ("SAV", "NSAV", "ABCCV", "PAV", "MAV", "THIELE", "AV"):
        raise UnsupportedRuleError(f"unsupported rule {instance.rule.kind}")
    la = instance.budget_add or 0
    ld = instance.budget_delete or 0
    deletable = [c for c in instance.registered_candidates if c not in instance.distinguished]
    addable = list(instance.unregistered_candidates)
    approvers = {}
    all_votes = instance.registered_votes
    for c in list(instance.registered_candidates) + addable:
        approvers[c] = frozenset(i for i, v in enumerate(all_votes) if c in v)
    details = {"hash_mode": hash_mode}
    for exact_delete in range(0, ld + 1):
        for exact_add in range(0, la + 1):
            if len(instance.registered_candidates) - exact_delete + exact_add < instance.k:
                continue
            if exact_delete > len(deletable) or exact_add > len(addable):
                continue
            del_family, add_family = (
                build_perfect_hash_family(pool, size, hash_mode, seed + shift, repetitions, cap).functions
                if size
                else [None]
                for pool, size, shift in ((deletable, exact_delete, 0), (addable, exact_add, 1))
            )
            for f, g in product(del_family, add_family):
                del_classes = _color_class_representatives(deletable, f, exact_delete, approvers)
                add_classes = _color_class_representatives(addable, g, exact_add, approvers)
                if del_classes is None or add_classes is None:
                    continue
                for deleted in product(*del_classes):
                    for added in product(*add_classes):
                        solution = ControlSolution(
                            added_candidates=tuple(added), deleted_candidates=tuple(deleted)
                        )
                        if control_succeeds(instance, solution):
                            return Verdict(True, solution, details)
    return Verdict(False, None, details)


def _color_class_representatives(pool, coloring, classes, approvers):
    """Per color class, one representative per distinct approver set."""
    if classes == 0:
        return []
    buckets = [[] for _ in range(classes)]
    if coloring is None:
        return None
    for c in pool:
        buckets[coloring[c]].append(c)
    reps = []
    for bucket in buckets:
        if not bucket:
            return None  # this coloring cannot host an exact-size solution
        seen = {}
        for c in bucket:
            seen.setdefault(approvers[c], c)
        reps.append(sorted(seen.values()))
    return reps


# ---------------------------------------------------------------------------
# Algorithm selection


# algorithm name -> (solver, the keyword options it takes besides the instance)
ALGORITHMS = {
    "bruteforce": (solve_control_bruteforce, ()),
    "ccdv-mav-poly": (solve_ccdv_mav_poly, ()),
    "additive-fpt": (solve_ccadv_additive_fpt, ()),
    "thiele-fpt": (solve_ccadv_thiele_fpt, ()),
    "ccav-mav-fpt": (solve_ccav_mav_fpt, ()),
    "color-coding": (solve_ccadc_colorcoding, ("hash_mode", "seed", "repetitions")),
}


def auto_algorithm(instance: ControlInstance) -> str:
    """The entry of `ALGORITHMS` that `auto` runs: a specialised solver whose
    domain covers the instance, else brute force. Both Thiele voter-control
    solvers score every k-committee per step, so `thiele-fpt` runs only when
    `thiele_fpt_refusal` accepts and its anchors number at most the actions
    brute force would walk. Candidate control goes to brute force too:
    color coding's exhaustive hash family walks κ^|pool| colourings, past
    the cap on instances brute force answers at once."""
    rule = instance.rule
    if instance.ctype in VOTER_TYPES:
        if rule.kind == "MAV":
            return {"CCDV": "ccdv-mav-poly", "CCAV": "ccav-mav-fpt"}.get(instance.ctype, "bruteforce")
        if rule.is_additive:
            return "additive-fpt"
        if rule.is_thiele_family and thiele_fpt_refusal(instance) is None:
            anchors = _thiele_anchors(instance)
            if len(list(islice(_solution_stream(instance), anchors))) == anchors:
                return "thiele-fpt"
    return "bruteforce"
