import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abmv import core, winners
from abmv.core import (
    ABCCV,
    AV,
    MAV,
    NSAV,
    PAV,
    SAV,
    ConfigurationError,
    DomainError,
    Election,
    UnsupportedRuleError,
    thiele,
)


def election(votes, m=None, prefix="c"):
    cands = sorted({c for v in votes for c in v})
    if m is not None:
        cands = [f"{prefix}{i}" for i in range(m)]
    return Election(cands, votes)


@st.composite
def elections(draw, m_max=6, n_max=6):
    m = draw(st.integers(1, m_max))
    cands = [f"c{i}" for i in range(m)]
    votes = draw(st.lists(st.sets(st.sampled_from(cands)), min_size=0, max_size=n_max))
    return Election(cands, votes)


def reference_vote_score(rule, ballot, candidate, m):
    """The per-vote definition: AV adds 1 to members and SAV adds 1/|v|;
    NSAV adds 1/|v| too and charges -1/(m-|v|) to every non-member."""
    if candidate in ballot:
        return Fraction(1) if rule == AV else Fraction(1, len(ballot))
    if rule == NSAV and len(ballot) != m:
        return -Fraction(1, m - len(ballot))
    return Fraction(0)


def reference_score(rule, e, candidate):
    return sum((reference_vote_score(rule, v, candidate, e.m) for v in e.votes), Fraction(0))


@st.composite
def additive_elections(draw, m_max=6, n_max=6):
    """Elections with zero votes, empty ballots and whole-roster ballots drawn often."""
    m = draw(st.integers(1, m_max))
    cands = [f"c{i}" for i in range(m)]
    ballot = st.one_of(st.just(set()), st.just(set(cands)), st.sets(st.sampled_from(cands)))
    return Election(cands, draw(st.lists(ballot, min_size=0, max_size=n_max)))


class TestAdditiveScores:
    def test_sav_example1(self, example1_full):
        scores = core.additive_scores(SAV, example1_full)
        assert scores["x"] == scores["y"] == scores["z"] == Fraction(7, 4)
        assert scores["a"] == Fraction(5, 3)
        assert scores["b"] == scores["c"] == Fraction(5, 6)
        assert all(scores[d] < 1 for d in ("d1", "d2", "d3"))

    def test_av_zero_votes(self):
        e = Election(["a", "b"], [])
        assert core.additive_candidate_score(AV, e, "a") == 0

    def test_nsav_hand_oracle(self):
        e = Election(["a", "b", "c", "d"], [{"a"}, {"a", "b"}])
        assert core.additive_candidate_score(NSAV, e, "a") == Fraction(3, 2)
        # b: 1/2 from the second vote, minus 1/(4-1) from the first
        assert core.additive_candidate_score(NSAV, e, "b") == Fraction(1, 2) - Fraction(1, 3)

    def test_unknown_candidate(self, example1_full):
        with pytest.raises(DomainError):
            core.additive_candidate_score(SAV, example1_full, "nobody")

    def test_nonadditive_rule_rejected(self, example1_full):
        with pytest.raises(UnsupportedRuleError):
            core.additive_candidate_score(PAV, example1_full, "x")

    def test_empty_ballot_contributes_nothing_under_sav(self):
        e = Election(["a"], [set(), {"a"}])
        assert core.additive_candidate_score(SAV, e, "a") == 1

    def test_full_ballot_penalizes_nobody_under_nsav(self):
        e = Election(["a", "b"], [{"a", "b"}])
        assert core.additive_candidate_score(NSAV, e, "a") == Fraction(1, 2)

    @settings(max_examples=150, deadline=None)
    @given(additive_elections(), st.sampled_from([AV, SAV, NSAV]))
    def test_size_weights_are_a_positive_affine_image(self, e, rule):
        sizes = [len(v) for v in e.votes]
        scale, weight = core.size_weights(rule, e.m, sizes)
        assert all(isinstance(w, int) for w in [scale, *weight.values()])
        ints = {c: sum(weight[len(e.votes[i])] for i in e.approver_sets[c]) for c in e.candidates}
        assert ints == core.integer_scores(e, weight)
        exact = {c: reference_score(rule, e, c) for c in e.candidates}
        # each integer is the exact score times the scale plus a shared penalty
        penalty = core.nsav_penalty(rule, e.m, scale, sizes)
        assert all(Fraction(ints[c] - penalty, scale) == exact[c] for c in e.candidates)

    @settings(max_examples=200, deadline=None)
    @given(additive_elections(), st.sampled_from([AV, SAV, NSAV]))
    @example(Election(["c0", "c1", "c2"], []), NSAV)
    @example(Election(["c0", "c1"], [set(), {"c0", "c1"}, {"c1"}]), NSAV)
    def test_scores_follow_the_per_vote_definition(self, e, rule):
        exact = {c: reference_score(rule, e, c) for c in e.candidates}
        assert core.additive_scores(rule, e) == exact
        for c in e.candidates:
            assert core.additive_candidate_score(rule, e, c) == exact[c]
        for size in range(e.m + 1):
            for committee in combinations(e.candidates, size):
                expected = sum((exact[c] for c in committee), Fraction(0))
                assert core.committee_score(rule, e, committee) == expected


class TestCommitteeScore:
    def test_mav_example2(self):
        e = Election(["a", "b", "c", "d"], [{"b"}, {"a", "c"}, {"a", "d"}])
        assert core.committee_score(MAV, e, {"a"}) == 2

    def test_thiele_all_empty_votes(self):
        e = Election(["a", "b"], [set(), set()])
        for rule in (PAV, ABCCV, thiele([0, 1, 1])):
            assert core.committee_score(rule, e, {"a", "b"}) == 0

    def test_abccv_example3(self):
        e = Election(["a", "b", "c", "d"], [{"a"}, {"b", "d"}, {"b", "d"}, {"c", "d"}, {"c", "d"}])
        assert core.committee_score(ABCCV, e, {"b", "c"}) == 4

    def test_short_omega_table_rejected(self):
        e = Election(["a", "b", "c"], [{"a", "b", "c"}])
        with pytest.raises(ConfigurationError):
            core.committee_score(thiele([0, 1]), e, {"a", "b", "c"})

    def test_mav_empty_vote_multiset_scores_zero(self):
        e = Election(["a", "b"], [])
        assert core.committee_score(MAV, e, {"a"}) == 0


class TestHamming:
    @pytest.mark.parametrize(
        "a,b,expected",
        [({"a"}, {"a"}, 0), ({"a"}, {"b"}, 2), ({"p", "d1"}, {"p", "d3", "d4"}, 3)],
    )
    def test_examples(self, a, b, expected):
        assert core.hamming_distance(a, b) == expected


class TestThresholdAndPartition:
    def test_example1_threshold(self, example1_full):
        assert core.k_winning_threshold(SAV, example1_full, 2) == Fraction(7, 4)

    def test_single_candidate(self):
        e = Election(["a"], [{"a"}, {"a"}])
        assert core.k_winning_threshold(AV, e, 1) == 2

    def test_out_of_range(self, example1_full):
        with pytest.raises(DomainError):
            core.k_winning_threshold(SAV, example1_full, 0)
        with pytest.raises(DomainError):
            core.k_winning_threshold(SAV, example1_full, 10)

    def test_example1_partition(self, example1_full):
        part = core.partition_candidates(SAV, example1_full, 2)
        assert part.swin == frozenset()
        assert part.pwin == {"x", "y", "z"}
        assert part.slose == {"a", "b", "c", "d1", "d2", "d3"}

    def test_distinct_scores_fill_swin(self):
        e = Election(["a", "b", "c"], [{"a"}, {"a"}, {"a", "b"}])
        part = core.partition_candidates(AV, e, 2)
        assert part.swin == {"a", "b"} and part.pwin == frozenset()

    def test_nonadditive_rejected(self, example1_full):
        with pytest.raises(UnsupportedRuleError):
            core.partition_candidates(MAV, example1_full, 2)

    @settings(max_examples=120, deadline=None)
    @given(elections(m_max=6, n_max=6), st.randoms(use_true_random=False))
    def test_partition_matches_bruteforce_argmax(self, e, rnd):
        k = rnd.randint(1, e.m)
        for rule in (AV, SAV, NSAV):
            part = core.partition_candidates(rule, e, k)
            scores = core.additive_scores(rule, e)
            best = None
            arg = set()
            for combo in combinations(e.candidates, k):
                s = sum((scores[c] for c in combo), Fraction(0))
                if best is None or s > best:
                    best, arg = s, {frozenset(combo)}
                elif s == best:
                    arg.add(frozenset(combo))
            family = {
                frozenset(part.swin | set(extra))
                for extra in combinations(sorted(part.pwin), k - len(part.swin))
            }
            assert family == arg
            # partition invariants
            assert part.swin | part.pwin | part.slose == set(e.candidates)
            assert part.swin == frozenset.intersection(*arg)
            assert part.pool == frozenset.union(*arg)
            assert len(part.swin) <= k <= len(part.swin) + len(part.pwin)

    def test_threshold_reached_by_exactly_k_is_sure(self):
        # b and c tie at the threshold, but a, b and c fill k=3 seats exactly
        e = Election(["a", "b", "c", "d"], [{"a"}] * 3 + [{"b"}] * 2 + [{"c"}] * 2)
        part = core.partition_candidates(AV, e, 3)
        assert part.swin == {"a", "b", "c"}
        assert part.pwin == frozenset()
        assert winners.j_cc(AV, winners.JccInstance(e, 3, {"b"}))

    def test_tie_break_never_moves_threshold(self):
        # permuting the roster permutes only labels, never the partition
        votes = [{"a", "b"}, {"b"}, {"c"}, {"a", "c", "d"}]
        base = Election(["a", "b", "c", "d"], votes)
        part = core.partition_candidates(SAV, base, 2)
        shuffled = Election(["d", "c", "b", "a"], votes)
        part2 = core.partition_candidates(SAV, shuffled, 2)
        assert part.threshold == part2.threshold
        assert part.swin == part2.swin and part.pwin == part2.pwin


class TestRestrictAndPad:
    def test_restrict_identity(self, example1_full):
        assert core.restrict(example1_full, example1_full.candidates) == example1_full

    def test_restrict_projection(self):
        e = Election(["a", "b"], [{"a", "b"}])
        r = core.restrict(e, {"a"})
        assert r.candidates == ("a",) and r.votes == (frozenset({"a"}),)

    def test_restrict_preserves_vote_indices(self):
        e = Election(["a", "b"], [{"b"}, {"a"}])
        r = core.restrict(e, {"a"})
        assert r.votes == (frozenset(), frozenset({"a"}))

    def test_pad_zero_is_identity(self, example1_full):
        assert core.pad_with_dummies(example1_full, 0) == example1_full

    def test_pad_adds_unapproved(self):
        e = Election(["a"], [{"a"}])
        p = core.pad_with_dummies(e, 3)
        assert p.m == 4 and all(len(v) == 1 for v in p.votes)

    @settings(max_examples=60, deadline=None)
    @given(elections(m_max=5, n_max=5))
    def test_lemma2_order_preservation(self, e):
        if e.m < 2:
            return
        padded = core.pad_with_dummies(e, max(1, e.n) * e.m * e.m)
        sav = core.additive_scores(SAV, e)
        nsav = core.additive_scores(NSAV, padded)
        for a in e.candidates:
            for b in e.candidates:
                if sav[a] != sav[b]:
                    assert (sav[a] > sav[b]) == (nsav[a] > nsav[b])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), max_size=6, unique=True), st.integers(1, 8))
    @example(taken=[0, 1, 2], count=3)
    @example(taken=[1, 3], count=4)
    def test_pad_skips_taken_dummy_names(self, taken, count):
        e = Election(["a"] + [f"~dummy{i}" for i in taken], [{"a"}, set()])
        expected, i = [], 0
        while len(expected) < count:
            if f"~dummy{i}" not in e.candidates:
                expected.append(f"~dummy{i}")
            i += 1
        p = core.pad_with_dummies(e, count)
        assert p.candidates == e.candidates + tuple(expected)
        assert p.votes == e.votes


def approval_classes_by_roster_loop(e):
    """The reference grouping: every candidate, in roster order, by approver set."""
    groups = {}
    for c in e.candidates:
        key = frozenset(i for i, vote in enumerate(e.votes) if c in vote)
        groups.setdefault(key, []).append(c)
    return [(key, tuple(members)) for key, members in groups.items()]


@st.composite
def rosters_with_unapproved(draw):
    """Approved-able candidates plus never-approved ones placed first,
    interleaved or last; votes may be missing or empty."""
    real = [f"c{i}" for i in range(draw(st.integers(0, 5)))]
    unapproved = [f"u{i}" for i in range(draw(st.integers(0, 4)))]
    placement = draw(st.sampled_from(["first", "interleaved", "last"]))
    if placement == "first":
        roster = unapproved + real
    elif placement == "last":
        roster = real + unapproved
    else:
        roster = draw(st.permutations(real + unapproved))
    votes = draw(st.lists(st.sets(st.sampled_from(real)), max_size=5)) if real else draw(
        st.lists(st.just(set()), max_size=3)
    )
    return Election(roster, votes)


class TestApprovalClasses:
    def test_clones_share_a_group(self):
        e = Election(["a", "b", "c"], [{"a", "b"}, {"a", "b", "c"}])
        assert e.approval_classes[frozenset({0, 1})] == ("a", "b")

    def test_example1_grouping(self, example1_full):
        assert ("x", "y", "z") in example1_full.approval_classes.values()

    def test_all_distinct(self):
        e = Election(["a", "b"], [{"a"}, {"a", "b"}])
        classes = e.approval_classes
        assert all(len(members) == 1 for members in classes.values())
        assert sum(len(members) for members in classes.values()) == e.m

    @settings(max_examples=400, deadline=None)
    @given(rosters_with_unapproved())
    @example(Election(["u0", "c0", "u1", "c1"], [{"c0"}, set(), {"c0", "c1"}]))
    @example(Election(["c0", "u0"], []))
    @example(Election([], []))
    def test_matches_a_loop_over_the_roster(self, e):
        assert list(e.approval_classes.items()) == approval_classes_by_roster_loop(e)
        assert "_index" not in e.__dict__ and "approver_sets" not in e.__dict__


class TestRules:
    def test_orientation(self):
        assert MAV.orientation == "minimize"
        assert all(r.orientation == "maximize" for r in (AV, SAV, NSAV, PAV, ABCCV))

    def test_thiele_validation(self):
        with pytest.raises(ConfigurationError):
            thiele([1, 2])
        with pytest.raises(ConfigurationError):
            thiele([0, 2, 1])

    @settings(max_examples=60, deadline=None)
    @given(elections(m_max=5, n_max=5), st.randoms(use_true_random=False))
    def test_thiele_encodings_score_identically(self, e, rnd):
        k = rnd.randint(1, e.m)
        tables = {
            AV: [Fraction(i) for i in range(e.m + 1)],
            ABCCV: [Fraction(min(i, 1)) for i in range(e.m + 1)],
            PAV: [sum((Fraction(1, j) for j in range(1, i + 1)), Fraction(0)) for i in range(e.m + 1)],
        }
        for rule, table in tables.items():
            encoded = thiele(table)
            for combo in combinations(e.candidates, k):
                assert core.committee_score(rule, e, combo) == core.committee_score(encoded, e, combo)


class TestOmegaTable:
    def test_pav_scales_by_the_lcm(self):
        assert core.omega_table(PAV, 4) == (12, [0, 12, 18, 22, 25])

    @pytest.mark.parametrize(
        "rule",
        [AV, PAV, ABCCV, thiele([0, 1, Fraction(4, 3), Fraction(11, 7), Fraction(9, 5), 2])],
        ids=["av", "pav", "abccv", "thiele"],
    )
    def test_values_over_the_scale_are_omega(self, rule):
        scale, ints = core.omega_table(rule, 5)
        assert [Fraction(w, scale) for w in ints] == [rule.omega_value(i) for i in range(6)]
        assert scale == math.lcm(*(rule.omega_value(i).denominator for i in range(6)))

    def test_short_table_rejected(self):
        assert core.omega_table(thiele([0, 1, 1]), 2) == (1, [0, 1, 1])
        with pytest.raises(ConfigurationError):
            core.omega_table(thiele([0, 1, 1]), 3)

    def test_additive_and_mav_rules_have_no_table(self):
        for rule in (SAV, NSAV, MAV):
            with pytest.raises(UnsupportedRuleError):
                core.omega_table(rule, 2)


@settings(max_examples=80, deadline=None)
@given(elections(m_max=6, n_max=6))
def test_scores_are_exact_rationals(e):
    for rule in (AV, SAV, NSAV):
        scores = core.additive_scores(rule, e)
        for a in e.candidates:
            assert isinstance(scores[a], Fraction)
            for b in e.candidates:
                # equality is decided by cross-multiplied integers, nothing fuzzier
                cross = scores[a].numerator * scores[b].denominator == (
                    scores[b].numerator * scores[a].denominator
                )
                assert (scores[a] == scores[b]) == cross
