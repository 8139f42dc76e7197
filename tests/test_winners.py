import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from rules import COPRIME_THIELE

from abmv import core, ipcore, winners
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
    ResourceCapError,
    UnsupportedRuleError,
)
from abmv.winners import JccInstance, j_cc, mav_single_winners, winning_committees


def random_election(rng, m_max=6, n_max=5, m_min=1, n_min=0):
    m = rng.randint(m_min, m_max)
    cands = [f"c{i}" for i in range(m)]
    votes = [frozenset(rng.sample(cands, rng.randint(0, m))) for _ in range(rng.randint(n_min, n_max))]
    return Election(cands, votes)


@st.composite
def tied_additive_jcc(draw):
    """A few repeated ballots over up to 6 candidates, so scores tie often.

    k is often one of the counts of candidates scoring at least some
    score, which puts exactly k candidates at or above the threshold.
    """
    m = draw(st.integers(2, 6))
    cands = [f"c{i}" for i in range(m)]
    kinds = draw(st.lists(st.frozensets(st.sampled_from(cands)), min_size=1, max_size=3))
    votes = [ballot for ballot in kinds for _ in range(draw(st.integers(1, 3)))]
    e = Election(cands, votes)
    rule = draw(st.sampled_from([AV, SAV, NSAV]))
    scores = core.additive_scores(rule, e).values()
    cuts = sorted({sum(t >= s for t in scores) for s in scores})
    k = draw(st.sampled_from(cuts) | st.integers(1, m))
    wanted = draw(st.frozensets(st.sampled_from(cands), min_size=1, max_size=k))
    return rule, JccInstance(e, k, wanted)


class TestWinningCommittees:
    def test_example1(self, example1_full):
        ws = winning_committees(SAV, example1_full, 2)
        assert set(ws.committees) == {("x", "y"), ("x", "z"), ("y", "z")}
        assert ws.optimum == Fraction(7, 2)

    def test_whole_roster(self):
        e = Election(["a", "b"], [{"a"}])
        for rule in (AV, SAV, NSAV, PAV, ABCCV, MAV):
            assert winning_committees(rule, e, 2).committees == (("a", "b"),)

    def test_membership_ignores_member_order(self):
        ws = winning_committees(AV, Election(["a", "b", "c", "d"], [{"a", "b"}, {"a", "b"}, {"c"}]), 2)
        assert ws.committees == (("a", "b"),)
        for members in (("a", "b"), ("b", "a"), ["b", "a"], frozenset({"a", "b"}), {"b", "a"}):
            assert members in ws
        for members in (("a",), ("a", "c"), ("a", "b", "c"), frozenset({"b", "c"})):
            assert members not in ws

    def test_example3_pav_restricted(self):
        e = Election(["a", "b", "c", "d"], [{"a"}, {"a"}] + [{"b", "d"}] * 3 + [{"c", "d"}] * 3)
        ws = winning_committees(PAV, core.restrict(e, {"a", "b", "c"}), 2)
        assert ws.committees == (("b", "c"),)

    def test_partition_strategy_scores_classes_once(self, example1_full, monkeypatch):
        calls = []
        scorer = core.additive_class_scores

        def counted(*args):
            calls.append(args)
            return scorer(*args)

        monkeypatch.setattr(core, "additive_class_scores", counted)
        ws = winning_committees(SAV, example1_full, 3, strategy="partition")
        assert len(calls) == 1
        assert ws == winning_committees(SAV, example1_full, 3, strategy="exhaustive")

    @pytest.mark.parametrize("rule", [AV, SAV, NSAV])
    def test_partition_strategy_builds_no_whole_roster_table(self, rule):
        base = Election(["a", "b", "c", "d"], [{"a", "b"}, {"b", "c"}, {"c"}])
        e = core.pad_with_dummies(base, 2000)
        ws = winning_committees(rule, e, 2, strategy="partition")
        assert core.additive_jcc(rule, e, 2, ["b"]) and not core.additive_jcc(rule, e, 2, ["a"])
        assert j_cc(rule, JccInstance(e, 2, {"b"})) and not j_cc(rule, JccInstance(e, 2, {"a"}))
        assert "_index" not in e.__dict__ and "approver_sets" not in e.__dict__
        assert ws.committees == (("b", "c"),)
        assert ws.optimum == core.committee_score(rule, e, ("b", "c"))
        with pytest.raises(DomainError, match="unknown candidate"):
            core.additive_jcc(rule, e, 2, ["z"])
        with pytest.raises(DomainError, match="unknown candidate"):
            JccInstance(e, 2, {"z"})

    def test_partition_strategy_needs_additive(self, example1_full):
        with pytest.raises(UnsupportedRuleError):
            winning_committees(MAV, example1_full, 1, strategy="partition")

    def test_enumeration_cap_is_loud(self):
        e = Election([f"c{i}" for i in range(30)], [])
        with pytest.raises(ResourceCapError):
            winning_committees(MAV, e, 15, strategy="exhaustive", cap=1000)

    def test_colexicographic_order(self):
        e = Election(["a", "b", "c"], [])
        ws = winning_committees(AV, e, 2, strategy="exhaustive")
        assert ws.committees == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_partition_equals_exhaustive(self):
        rng = random.Random(13)
        for _ in range(120):
            e = random_election(rng)
            k = rng.randint(1, e.m)
            for rule in (AV, SAV, NSAV):
                assert winning_committees(rule, e, k, "partition") == winning_committees(
                    rule, e, k, "exhaustive"
                )


# every table reaches overlap 7; the last one's gains 1, 2, 1/2, 5/2, 0, 1, 3 are not concave
EXHAUSTIVE_RULES = (
    AV, SAV, NSAV, PAV, ABCCV, MAV, COPRIME_THIELE, core.thiele([0, 1, 3, Fraction(7, 2), 6, 6, 7, 10]),
)


@st.composite
def exhaustive_cases(draw):
    """Up to 7 candidates and 6 votes, some empty or the whole roster,
    any k up to m and k = m often."""
    m = draw(st.integers(1, 7))
    cands = [f"c{i}" for i in range(m)]
    ballot = st.frozensets(st.sampled_from(cands)) | st.sampled_from([frozenset(), frozenset(cands)])
    votes = draw(st.lists(ballot, max_size=6))
    k = draw(st.just(m) | st.integers(1, m))
    return draw(st.sampled_from(EXHAUSTIVE_RULES)), Election(cands, votes), k


def fraction_winners(rule, election, k):
    """The argmax (argmin for MAV) k-committees by `core.committee_score`,
    colexicographically ordered, and the optimum."""
    scores = {w: core.committee_score(rule, election, w) for w in itertools.combinations(election.candidates, k)}
    best = (min if rule.orientation == "minimize" else max)(scores.values())
    won = [w for w, score in scores.items() if score == best]
    return tuple(sorted(won, key=lambda w: [election.index(c) for c in reversed(w)])), best


WIDE = Election(
    [f"c{i}" for i in range(66)],
    [{"c0", "c64", "c65"}, {"c63", "c64"}, {f"c{i}" for i in range(66)}, {"c65"}, {"c1", "c65"}, set()],
)


class TestExhaustiveScoring:
    """Exhaustive winners against the `Fraction` specification
    `core.committee_score`, which the Thiele family and MAV reach through
    integer scores."""

    @given(exhaustive_cases())
    @example((MAV, Election(["a", "b"], []), 2))
    @example((NSAV, Election(["a", "b", "c"], [set(), {"a", "b", "c"}, {"a"}]), 3))
    @example((COPRIME_THIELE, Election([f"c{i}" for i in range(7)], [{f"c{i}" for i in range(7)}] * 2), 7))
    # 66 candidates: committee and vote masks reach past one 64-bit word
    @example((PAV, WIDE, 2))
    @example((MAV, WIDE, 2))
    @example((ABCCV, WIDE, 3))
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_scores(self, case):
        rule, e, k = case
        ws = winning_committees(rule, e, k, "exhaustive")
        committees, optimum = fraction_winners(rule, e, k)
        assert ws.committees == committees
        assert isinstance(ws.optimum, Fraction) and ws.optimum == optimum

    def test_short_omega_table_is_a_configuration_error(self):
        # a vote of size 3 and k = 3 reach overlap 3, which [0, 1, 3/2] lacks
        e = Election(["a", "b", "c", "d"], [{"a", "b", "c"}, {"d"}])
        short = core.thiele([0, 1, Fraction(3, 2)])
        with pytest.raises(ConfigurationError):
            winning_committees(short, e, 3, "exhaustive")
        with pytest.raises(ConfigurationError):
            j_cc(short, JccInstance(e, 3, {"d"}), "bruteforce")


class TestMavSingleWinners:
    def test_formula_example(self):
        e = Election(["a", "b", "c"], [{"a", "b"}, {"a", "c"}, {"b"}])
        assert mav_single_winners(e) == {"a"}

    def test_disjoint_max_votes_tie_everyone(self):
        e = Election(["a", "b", "c", "d"], [{"a", "b"}, {"c", "d"}])
        assert mav_single_winners(e) == {"a", "b", "c", "d"}

    def test_single_vote(self):
        e = Election(["a", "b"], [{"a"}])
        assert mav_single_winners(e) == {"a"}

    def test_near_maximum_votes_break_ties(self):
        # both of {c0,c1} sit in the unique largest vote, but the size-1
        # votes approve only c1, which pins the distance floor on c1
        e = Election(["c0", "c1"], [set(), {"c1"}, {"c1"}, set(), {"c0", "c1"}])
        assert mav_single_winners(e) == {"c1"}

    def test_matches_exhaustive_k1(self):
        rng = random.Random(5)
        for _ in range(250):
            e = random_election(rng, m_max=7, n_max=6)
            ws = winning_committees(MAV, e, 1, strategy="exhaustive")
            assert mav_single_winners(e) == {w[0] for w in ws.committees}

    def test_output_shape(self):
        # winners are the max-vote intersection, a refinement of it, or all of C
        rng = random.Random(6)
        for _ in range(200):
            e = random_election(rng, m_max=6, n_max=5, n_min=1)
            out = mav_single_winners(e)
            top = max(len(v) for v in e.votes)
            shared = frozenset(e.candidates)
            for v in e.votes:
                if len(v) == top:
                    shared &= v
            assert out <= shared or out == frozenset(e.candidates)


class TestJcc:
    def test_example2_restricted(self):
        e = Election(["a", "b"], [{"b"}, {"a"}, {"a"}])
        assert j_cc(MAV, JccInstance(e, 1, {"a"})) is False

    def test_sure_winners_trivially_contained(self):
        e = Election(["a", "b", "c"], [{"a"}, {"a"}, {"b"}])
        assert j_cc(AV, JccInstance(e, 1, {"a"})) is True

    def test_fptn_refused_for_additive(self):
        e = Election(["a", "b"], [{"a"}])
        with pytest.raises(UnsupportedRuleError):
            j_cc(SAV, JccInstance(e, 1, {"a"}), algo="fptn")

    @settings(max_examples=300, deadline=None)
    @given(tied_additive_jcc())
    def test_additive_path_agrees_with_bruteforce(self, case):
        rule, inst = case
        expected = j_cc(rule, inst, "bruteforce")
        assert j_cc(rule, inst) == expected
        part = core.partition_candidates(rule, inst.election, inst.k)
        assert (inst.distinguished <= part.swin) == expected

    def test_fptn_agrees_with_bruteforce(self):
        rng = random.Random(17)
        for _ in range(60):
            e = random_election(rng, m_max=6, n_max=4, m_min=2, n_min=1)
            k = rng.randint(1, e.m)
            J = frozenset(rng.sample(e.candidates, rng.randint(1, k)))
            inst = JccInstance(e, k, J)
            for rule in (ABCCV, PAV, MAV):
                assert j_cc(rule, inst, "fptn") == j_cc(rule, inst, "bruteforce")

    def test_fptn_takes_more_than_twenty_votes(self):
        # the fptn guard counts approval classes, not votes
        rng = random.Random(21)
        cands = [f"c{i}" for i in range(8)]
        for _ in range(4):
            e = Election(cands, [rng.sample(cands, rng.randint(1, 3)) for _ in range(21)])
            top = max(cands, key=lambda c: len(e.approver_sets[c]))
            for rule in (ABCCV, PAV, MAV):
                for k in (2, 3):
                    inst = JccInstance(e, k, {top})
                    assert j_cc(rule, inst, "fptn") == j_cc(rule, inst, "bruteforce")


def test_clone_swap_preserves_winning():
    # candidates with identical approver sets are interchangeable in winners
    rng = random.Random(23)
    for _ in range(150):
        e = random_election(rng, m_max=6, n_max=5, m_min=2)
        clones = [
            (a, b)
            for i, a in enumerate(e.candidates)
            for b in e.candidates[i + 1:]
            if e.approver_sets[a] == e.approver_sets[b]
        ]
        if not clones:
            continue
        a, b = clones[0]
        k = rng.randint(1, e.m)
        for rule in (ABCCV, PAV, MAV):
            ws = winning_committees(rule, e, k, strategy="exhaustive")
            for w in ws.committees:
                members = set(w)
                if a in members and b not in members:
                    swapped = tuple(sorted((members - {a}) | {b}, key=e.index))
                    assert swapped in ws.committees


# both tables reach overlap 8: a plateau after overlap 2, and gains 1, 2,
# 1/2, 5/2, 0, 1, 3, 2, which are not concave
PACKED_RULES = (
    PAV, ABCCV, MAV, core.thiele([0, 1, 2, 2, 2, 2, 2, 2, 2]), core.thiele([0, 1, 3, Fraction(7, 2), 6, 6, 7, 10, 12]),
)


@st.composite
def packed_walk_cases(draw):
    """k at the edges of the packed fields' widths (3 and 7 fill
    k.bit_length() bits, 4 and 8 need one more), m from k to k + 2, and up
    to 30 votes, so the packed overlaps pass 64 bits; ballots may be empty
    or the whole roster."""
    k = draw(st.sampled_from([3, 4, 7, 8]))
    m = draw(st.integers(k, k + 2))
    cands = [f"c{i}" for i in range(m)]
    ballot = st.frozensets(st.sampled_from(cands)) | st.sampled_from([frozenset(), frozenset(cands)])
    votes = draw(st.lists(ballot, max_size=30))
    return draw(st.sampled_from(PACKED_RULES)), Election(cands, votes), k


class TestClassCountEnumeration:
    RULES = (
        AV, SAV, NSAV, PAV, ABCCV, MAV, core.thiele([0, 2, 3, Fraction(7, 2), 4, 4, 4, 4]), COPRIME_THIELE,
    )

    def test_matches_exhaustive(self):
        rng = random.Random(41)
        for _ in range(60):
            e = random_election(rng, m_max=7, n_max=5)
            classes = tuple(e.approval_classes.values())
            for k in range(1, e.m + 1):
                for rule in self.RULES:
                    ws = winning_committees(rule, e, k, strategy="exhaustive")
                    assert winners.optimal_score_by_classes(rule, e, k) == ws.optimum
                    best, vectors = winners.optimal_count_vectors(rule, e, k)
                    assert best == ws.optimum
                    assert len(set(vectors)) == len(vectors)
                    assert set(vectors) == {
                        tuple(len(set(w) & set(members)) for members in classes)
                        for w in ws.committees
                    }

    @pytest.mark.parametrize("rule", [PAV, ABCCV, MAV])
    def test_class_walk_builds_no_whole_roster_table(self, rule):
        base = Election(["a", "b", "c", "d"], [{"a", "b"}, {"b", "c"}, {"c"}])
        e = core.pad_with_dummies(base, 2000)
        truth = winning_committees(rule, base, 2, strategy="exhaustive")
        assert winners.optimal_score_by_classes(rule, e, 2) == truth.optimum
        for c in base.candidates:
            wanted = all(c in w for w in truth.committees)
            assert j_cc(rule, JccInstance(e, 2, {c}), algo="fptn") == wanted
        assert "approver_sets" not in e.__dict__

    def test_deep_class_layout(self, monkeypatch):
        # one class per candidate: 1,100 classes deep, far past the recursion limit
        monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
        candidates = [f"c{i}" for i in range(1100)]
        votes = [{f"c{i}" for i in range(1100) if i >> b & 1} for b in range(11)]
        e = Election(candidates, votes)
        assert len(e.approval_classes) == 1100
        assert winners.optimal_score_by_classes(PAV, e, 1) == 10
        assert (
            winners.optimal_score_by_classes(MAV, e, 1)
            == winning_committees(MAV, e, 1, strategy="exhaustive").optimum
        )

    def test_node_count_is_pinned(self, monkeypatch):
        # 383 nodes is the visit count of the depth-first count walk on this
        # election; a change of visit order or pruning moves it
        monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
        e = Election(
            [f"c{i}" for i in range(9)],
            [{"c0", "c1", "c2"}, {"c2", "c3"}, {"c3", "c4", "c5", "c6"}, {"c0", "c6", "c7"}, {"c1"}],
        )
        assert winners.optimal_score_by_classes(PAV, e, 4, cap=383) == Fraction(13, 2)
        with pytest.raises(ResourceCapError):
            winners.optimal_score_by_classes(PAV, e, 4, cap=382)

    def test_closed_last_class_node_count_is_pinned(self, monkeypatch):
        # recorded while the walk still visited the last class's counts one
        # by one: the 12 never-approved dummies form the last class, and
        # every optimal vector gives it 5 to 7 of the 10 seats
        monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
        base = Election(
            ["c0", "c1", "c2", "c3", "c4"],
            [{"c0", "c1"}, {"c1", "c2"}, {"c2", "c3", "c4"}, {"c0"}, {"c4"}, set()],
        )
        e = core.pad_with_dummies(base, 12)
        best, vectors = winners.optimal_count_vectors(ABCCV, e, 10, cap=335)
        assert best == 5 and len(vectors) == 6
        assert vectors[0] == (1, 0, 1, 0, 1, 7) and {v[-1] for v in vectors} == {5, 6, 7}
        with pytest.raises(ResourceCapError):
            winners.optimal_count_vectors(ABCCV, e, 10, cap=334)

    def test_mav_node_count_is_pinned(self, monkeypatch):
        # recorded while the walk rebuilt every overlap at each leaf
        monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
        e = Election(
            [f"c{i}" for i in range(10)],
            [{"c0", "c1", "c2"}, {"c2", "c3", "c4"}, {"c4", "c5", "c6", "c7"}, {"c7", "c8"},
             {"c0", "c9"}, {"c1", "c3", "c5", "c9"}, {"c8"}],
        )
        best, vectors = winners.optimal_count_vectors(MAV, e, 4, cap=911)
        assert best == 5 and len(vectors) == 3
        with pytest.raises(ResourceCapError):
            winners.optimal_count_vectors(MAV, e, 4, cap=910)

    @given(packed_walk_cases())
    @example((PAV, Election([f"c{i}" for i in range(8)], []), 8))
    @example((MAV, Election([f"c{i}" for i in range(9)], [{f"c{i}" for i in range(9)}] * 30), 8))
    @example((PACKED_RULES[3], Election([f"c{i}" for i in range(5)], [{"c0", "c1", "c2", "c3"}] * 30), 4))
    @settings(max_examples=200, deadline=None)
    def test_packed_overlaps_match_exhaustive_winners(self, case):
        rule, e, k = case
        ws = winning_committees(rule, e, k, strategy="exhaustive")
        best, vectors = winners.optimal_count_vectors(rule, e, k)
        assert best == ws.optimum
        assert len(set(vectors)) == len(vectors)
        classes = tuple(e.approval_classes.values())
        assert set(vectors) == {tuple(len(set(w) & set(members)) for members in classes) for w in ws.committees}

    def test_short_omega_table_is_a_configuration_error(self):
        # a vote of size 3 and k = 3 reach overlap 3, which [0, 1, 3/2] lacks
        e = Election(["a", "b", "c", "d"], [{"a", "b", "c"}, {"d"}])
        short = core.thiele([0, 1, Fraction(3, 2)])
        with pytest.raises(ConfigurationError):
            winners.optimal_score_by_classes(short, e, 3)
        with pytest.raises(ConfigurationError):
            j_cc(short, JccInstance(e, 3, {"d"}), "fptn")

    def test_omega_is_needed_only_up_to_the_largest_vote(self):
        # no overlap passes 2 here, so a table of length 3 decides k = 3
        e = Election(["a", "b", "c", "d"], [{"a", "b"}, {"b", "c"}, {"d"}])
        rule = core.thiele([0, 1, Fraction(3, 2)])
        assert winners.optimal_score_by_classes(rule, e, 3) == Fraction(7, 2)
        for wanted in ({"a"}, {"b"}, {"d"}):
            inst = JccInstance(e, 3, wanted)
            assert j_cc(rule, inst, "fptn") == j_cc(rule, inst, "bruteforce")


FPTN_RULES = (ABCCV, PAV, MAV, COPRIME_THIELE)


@st.composite
def cloned_jcc(draw):
    """Up to 4 approval patterns, each cast as 1-3 clones, 0-4 votes over
    the patterns, any k up to m and J drawn from the whole roster."""
    patterns = draw(st.integers(1, 4))
    names = [[f"p{i}_{j}" for j in range(draw(st.integers(1, 3)))] for i in range(patterns)]
    ballots = draw(st.lists(st.frozensets(st.integers(0, patterns - 1)), max_size=4))
    e = Election([c for group in names for c in group], [[c for i in b for c in names[i]] for b in ballots])
    rule = draw(st.sampled_from(FPTN_RULES))
    # COPRIME_THIELE's table reaches overlap 7
    k = draw(st.integers(1, e.m if rule is not COPRIME_THIELE else min(e.m, 7)))
    wanted = draw(st.frozensets(st.sampled_from(e.candidates), min_size=1, max_size=k))
    return rule, JccInstance(e, k, wanted)


class TestFptnDifferential:
    """fptn J-CC against exhaustive winners, which share no code with the
    class-count enumeration."""

    @given(cloned_jcc())
    @settings(max_examples=300, deadline=None)
    def test_agrees_on_clone_heavy_rosters(self, case):
        rule, inst = case
        assert j_cc(rule, inst, "fptn") == j_cc(rule, inst, "bruteforce")

    @pytest.mark.parametrize("rule", FPTN_RULES, ids=["abccv", "pav", "mav", "coprime-thiele"])
    def test_zero_votes_and_whole_roster(self, rule):
        # with no votes every committee wins, so J is in all of them only at k = m
        e = Election(["a", "b", "c", "d"], [])
        for k in range(1, 5):
            for wanted in ({"a"}, {"a", "d"}):
                if len(wanted) <= k:
                    inst = JccInstance(e, k, wanted)
                    assert j_cc(rule, inst, "fptn") is (k == 4) is j_cc(rule, inst, "bruteforce")
        voted = Election(["a", "b", "c", "d"], [{"a"}, {"b", "c"}])
        assert j_cc(rule, JccInstance(voted, 4, {"d"}), "fptn") is True

    def test_abccv_tagged_classes_larger_than_k(self):
        # J's classes hold 3 + 2 clones against k = 2 (and 3 clones against k = 2)
        e = Election(["a1", "a2", "a3", "b1", "b2", "c"], [{"a1", "a2", "a3"}, {"b1", "b2"}, {"c"}])
        for wanted in ({"a1"}, {"a1", "b1"}):
            inst = JccInstance(e, 2, wanted)
            assert j_cc(ABCCV, inst, "fptn") is False is j_cc(ABCCV, inst, "bruteforce")
        inst = JccInstance(e, 5, {"a1", "b1"})
        assert j_cc(ABCCV, inst, "fptn") is j_cc(ABCCV, inst, "bruteforce")

    def test_j_spread_over_classes(self):
        # under the Thiele rules {a, b, c} is the one winner at k = 3, so J
        # spread over those three classes is in it; MAV prefers d1 to c
        e = Election(["a", "b", "c", "d1", "d2"], [{"a"}, {"a"}, {"b"}, {"b"}, {"c"}, {"c"}, {"d1", "d2"}])
        for rule in FPTN_RULES:
            for wanted in ({"a", "b", "c"}, {"a", "d1"}, {"b", "d1", "d2"}):
                inst = JccInstance(e, 3, wanted)
                expected = j_cc(rule, inst, "bruteforce")
                assert j_cc(rule, inst, "fptn") is expected
                if wanted == {"a", "b", "c"}:
                    assert expected is (rule is not MAV)

    def test_mav_ties(self):
        # disjoint votes of one size: every 1-committee ties under MAV
        e = Election(["a", "b", "c", "d"], [{"a", "b"}, {"c", "d"}])
        ws = winning_committees(MAV, e, 1, strategy="exhaustive")
        assert len(ws.committees) == 4
        for k in (1, 2, 3):
            for wanted in ({"a"}, {"a", "c"}):
                if len(wanted) <= k:
                    inst = JccInstance(e, k, wanted)
                    assert j_cc(MAV, inst, "fptn") is j_cc(MAV, inst, "bruteforce")


# The Thiele shorting program that fptn J-CC once solved per class of J:
# "is there an optimal k-committee taking fewer than all of one class?".
# fptn now reads that from the optimal count vectors; the program stays
# here as a fixed `ipcore` workload whose node counts are pinned below.


def _class_layout(election: Election):
    """Stable list of (approver-index-set, size) plus per-vote class ids."""
    classes = list(election.approval_classes.items())
    per_vote = [[] for _ in range(election.n)]
    for g, (key, members) in enumerate(classes):
        for vid in key:
            per_vote[vid].append(g)
    return classes, per_vote


def _short_class_variables(election, k, short_key):
    """Per-class member counts summing to k; the `short_key` class (None
    shorts none) must leave at least one member out."""
    classes, per_vote = _class_layout(election)
    program = ipcore.IntegerProgram()
    names = []
    for g, (key, members) in enumerate(classes):
        upper = len(members) - 1 if key == short_key else len(members)
        names.append(program.add_variable(f"x{g}", 0, upper))
    program.add_constraint([(x, 1) for x in names], "=", k)
    return program, names, classes, per_vote


def _thiele_short_program(rule, election, k, short_key, optimum):
    """Omega-sum formulation: prefix indicators expand omega over integer overlaps.

    No overlap passes the largest vote, so the indicators stop there when
    it is below k.
    """
    program, names, classes, per_vote = _short_class_variables(election, k, short_key)
    scale, omega = core.omega_table(rule, min(k, max((len(v) for v in election.votes), default=0)))
    total = []
    for vid in range(election.n):
        xv = program.add_variable(f"v{vid}", 0, k)
        coeffs = [(names[g], 1) for g in per_vote[vid]] + [(xv, -1)]
        program.add_constraint(coeffs, "=", 0)
        prev = None
        zs = []
        for i in range(1, len(omega)):
            z = program.add_variable(f"z{vid}_{i}", 0, 1)
            zs.append(z)
            if prev is not None:
                program.add_constraint([(z, 1), (prev, -1)], "<=", 0)
            total.append((z, omega[i] - omega[i - 1]))
            prev = z
        program.add_constraint([(z, 1) for z in zs] + [(xv, -1)], "=", 0)
    program.add_constraint(total, "=", optimum * scale)
    return program


@pytest.fixture
def thiele_short_program():
    return _thiele_short_program


# (rule, nodes): what `solve_ip` branched through on the Thiele shorting
# program below when it propagated by full sweeps; a propagation that
# tightens more or less than the full-sweep fixpoint moves these counts
SHORT_PROGRAM_NODES = [(PAV, 219), (COPRIME_THIELE, 187)]


@pytest.mark.parametrize("rule, nodes", SHORT_PROGRAM_NODES, ids=["pav", "coprime-thiele"])
def test_thiele_short_program_node_count_is_pinned(rule, nodes, thiele_short_program, monkeypatch):
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    e = Election(
        [f"c{i}" for i in range(9)],
        [{"c0", "c1", "c2"}, {"c2", "c3"}, {"c3", "c4", "c5", "c6"}, {"c0", "c6", "c7"}, {"c1"}],
    )
    optimum = winners.optimal_score_by_classes(rule, e, 4)
    program = thiele_short_program(rule, e, 4, e.approver_sets["c2"], optimum)
    assert ipcore.solve_ip(program, node_cap=nodes).feasible
    with pytest.raises(ResourceCapError):
        ipcore.solve_ip(program, node_cap=nodes - 1)


def test_deep_jcc_program_node_count_is_pinned(thiele_short_program, monkeypatch):
    # the 1,100-class bit-pattern election: the shorting program for c1's
    # class needs 1,024 nodes, and fptn J-CC decides it with no program
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    candidates = [f"c{i}" for i in range(1100)]
    votes = [{f"c{i}" for i in range(1100) if i >> b & 1} for b in range(11)]
    e = Election(candidates, votes)
    optimum = winners.optimal_score_by_classes(PAV, e, 1)
    program = thiele_short_program(PAV, e, 1, e.approver_sets["c1"], optimum)
    assert ipcore.solve_ip(program, node_cap=1024).feasible
    with pytest.raises(ResourceCapError):
        ipcore.solve_ip(program, node_cap=1023)
    monkeypatch.setattr(ipcore, "IP_NODE_CAP", 1)
    assert j_cc(PAV, JccInstance(e, 1, {"c1"}), "fptn") is False


# clone elections with C(m, k) > 2,500 committees, too many for the
# benchmark's brute-force reference check: (approver patterns, votes,
# clones per pattern, committee size)
PIN_CLONE_SHAPES = ((5, 5, 6, 4), (6, 6, 5, 4), (7, 6, 5, 4), (8, 6, 5, 4), (10, 6, 4, 4))
PIN_THIELE = core.thiele([0, 1, Fraction(3, 2), Fraction(7, 4), 2])
FPTN_PIN_SHA256 = "f26f9a40a55d76484dcd722e4e9f9506db712f7368478b0adb9ff8477d9fef9b"


def _cloned(base, copies, single):
    """`base` with each candidate but `single` replaced by `copies` clones."""
    names = {c: [f"{c}_{j}" for j in range(1 if c == single else copies)] for c in base.candidates}
    votes = [[x for c in vote for x in names[c]] for vote in base.votes]
    return Election([x for c in base.candidates for x in names[c]], votes)


def test_fptn_verdicts_on_large_clone_elections_are_pinned():
    """Verdicts recorded from the fptn path while it scored in `Fraction`s
    and propagated by full sweeps; J is the uncloned, most approved candidate."""
    digest = hashlib.sha256()
    yes = 0
    for i in range(200):
        rng = random.Random(f"fptn-pin:{i}")
        patterns, n, copies, k = PIN_CLONE_SHAPES[i % len(PIN_CLONE_SHAPES)]
        rule = (PAV, ABCCV, MAV, PIN_THIELE)[i % 4]
        base = random_election(rng, m_max=patterns, n_max=n, m_min=patterns, n_min=n)
        top = max(base.candidates, key=lambda c: sum(c in v for v in base.votes))
        e = _cloned(base, copies, top)
        assert math.comb(e.m, k) > 2500
        verdict = j_cc(rule, JccInstance(e, k, {f"{top}_0"}), algo="fptn")
        yes += verdict
        digest.update(repr((i, verdict)).encode())
    assert yes == 77
    assert digest.hexdigest() == FPTN_PIN_SHA256
