import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st
from rules import COPRIME_THIELE

from abmv import core, control as ctl, reductions as red, winners
from abmv.core import ABCCV, AV, MAV, NSAV, PAV, SAV, Election, UnsupportedRuleError, ValidationError
from abmv.control import (
    ControlInstance,
    ControlSolution,
    EMPTY_SOLUTION,
    apply_control,
    build_perfect_hash_family,
    control_succeeds,
    immunity_verdict,
    solve_ccadc_colorcoding,
    solve_ccadv_additive_fpt,
    solve_ccadv_thiele_fpt,
    solve_ccav_mav_fpt,
    solve_ccdv_mav_poly,
    solve_control_bruteforce,
    verify_perfect,
)
from abmv.verification import random_control_instance


class TestApplyControl:
    def test_empty_solution_is_identity(self):
        inst = ControlInstance("CCDV", AV, ["a", "b"], [{"a"}, {"b"}], 1, {"a"}, budget_delete=1)
        assert apply_control(inst, EMPTY_SOLUTION).votes == (frozenset({"a"}), frozenset({"b"}))

    def test_example3_addition_flips_the_committee(self):
        inst = ControlInstance(
            "CCAC", ABCCV, ["a", "b", "c"],
            [{"a"}, {"b", "d"}, {"b", "d"}, {"c", "d"}, {"c", "d"}],
            2, {"a"}, unregistered_candidates=["d"], budget_add=1,
        )
        before = winners.winning_committees(ABCCV, inst.base_election, 2)
        assert before.committees == (("b", "c"),)
        after = apply_control(inst, ControlSolution(added_candidates=("d",)))
        assert winners.winning_committees(ABCCV, after, 2).committees == (("a", "d"),)

    def test_example3_pav_variant(self):
        inst = ControlInstance(
            "CCAC", PAV, ["a", "b", "c"],
            [{"a"}, {"a"}] + [{"b", "d"}] * 3 + [{"c", "d"}] * 3,
            2, {"a"}, unregistered_candidates=["d"], budget_add=1,
        )
        assert winners.winning_committees(PAV, inst.base_election, 2).committees == (("b", "c"),)
        after = apply_control(inst, ControlSolution(added_candidates=("d",)))
        assert winners.winning_committees(PAV, after, 2).committees == (("a", "d"),)

    @pytest.mark.parametrize("ctype", ["CCAC", "CCDC", "CCADC"])
    def test_candidate_actions_restrict_ballots_to_the_roster(self, ctype):
        # the definition: every ballot keeps exactly the remaining roster
        rng = random.Random(f"restrict:{ctype}")
        for _ in range(40):
            inst = random_control_instance(rng, SAV, ctype, m_max=6, n_max=5)
            for solution in ctl._solution_stream(inst):
                after = apply_control(inst, solution)
                keep = set(after.candidates)
                assert after == Election(after.candidates, [v & keep for v in inst.registered_votes])

    def test_budget_violation_rejected(self):
        inst = ControlInstance("CCDV", AV, ["a", "b"], [{"a"}, {"b"}], 1, {"a"}, budget_delete=1)
        with pytest.raises(ValidationError):
            apply_control(inst, ControlSolution(deleted_votes=(0, 1)))

    def test_deleting_distinguished_rejected(self):
        inst = ControlInstance("CCDC", AV, ["a", "b", "c"], [{"a"}], 1, {"a"}, budget_delete=1)
        with pytest.raises(ValidationError):
            apply_control(inst, ControlSolution(deleted_candidates=("a",)))

    @pytest.mark.parametrize(
        "ctype,picks,message",
        [
            ("CCADV", {"added_votes": (1,)}, "bad unregistered vote indices"),
            ("CCADV", {"added_votes": (0, 0)}, "bad unregistered vote indices"),
            ("CCADV", {"added_votes": (-1,)}, "bad unregistered vote indices"),
            ("CCADV", {"deleted_votes": (2,)}, "bad registered vote indices"),
            ("CCADV", {"deleted_votes": (0, 1)}, "deletion budget violated"),
            ("CCADV", {"added_votes": (5,), "deleted_votes": (7,)}, "bad unregistered vote indices"),
            ("CCADV", {"deleted_votes": (7,), "added_candidates": ("d",)}, "CCADV cannot add candidates"),
            ("CCADC", {"added_candidates": ("a",)}, "bad unregistered candidates"),
            ("CCADC", {"added_candidates": ("d", "e")}, "addition budget violated"),
            ("CCADC", {"deleted_candidates": ("z",)}, "bad deleted candidates"),
            ("CCADC", {"deleted_candidates": ("b", "b")}, "bad deleted candidates"),
            ("CCADC", {"deleted_candidates": ("a", "b")}, "distinguished candidates cannot be deleted"),
            ("CCADC", {"deleted_candidates": ("b", "c")}, "deletion budget violated"),
            ("CCADC", {"added_candidates": ("d", "e"), "deleted_candidates": ("z",)},
             "addition budget violated"),
        ],
    )
    def test_messages_in_check_order(self, ctype, picks, message):
        unregistered = {"unregistered_votes": [{"c"}]} if ctype == "CCADV" else {
            "unregistered_candidates": ["d", "e"]}
        inst = ControlInstance(ctype, AV, ["a", "b", "c"], [{"a"}, {"b"}], 1, {"a"},
                               budget_add=1, budget_delete=1, **unregistered)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            apply_control(inst, ControlSolution(**picks))

    def test_must_leave_k_candidates(self):
        inst = ControlInstance("CCDC", AV, ["a", "b"], [{"a"}], 2, {"a"}, budget_delete=1)
        with pytest.raises(ValidationError):
            apply_control(inst, ControlSolution(deleted_candidates=("b",)))


class TestBruteForce:
    def test_budget_zero_reduces_to_jcc(self):
        e_votes = [{"a"}, {"a"}, {"b"}]
        inst = ControlInstance("CCAV", AV, ["a", "b"], e_votes, 1, {"a"},
                               unregistered_votes=[{"b"}], budget_add=0)
        assert solve_control_bruteforce(inst).yes
        inst2 = ControlInstance("CCAV", AV, ["a", "b"], e_votes, 1, {"b"},
                                unregistered_votes=[{"b"}], budget_add=0)
        assert not solve_control_bruteforce(inst2).yes

    def test_minimal_witness_first(self):
        inst = ControlInstance("CCAV", AV, ["a", "b"], [{"b"}], 1, {"a"},
                               unregistered_votes=[{"a"}, {"a"}], budget_add=2)
        verdict = solve_control_bruteforce(inst)
        assert verdict.yes and len(verdict.witness.added_votes) == 2
        inst2 = ControlInstance("CCAV", AV, ["a", "b"], [], 1, {"a"},
                                unregistered_votes=[{"a"}, {"a"}], budget_add=2)
        verdict2 = solve_control_bruteforce(inst2)
        assert verdict2.yes and len(verdict2.witness.added_votes) == 1

    def test_monotone_budget(self):
        rng = random.Random(73)
        for _ in range(50):
            ctype = rng.choice(["CCAV", "CCDV", "CCAC"])
            rule = rng.choice([AV, SAV, NSAV, ABCCV, MAV])
            inst = random_control_instance(rng, rule, ctype, m_max=4, n_max=4, u_max=3, d_max=2, b_max=1)
            bigger = ControlInstance(
                inst.ctype, inst.rule, inst.registered_candidates, inst.registered_votes,
                inst.k, inst.distinguished, inst.unregistered_candidates, inst.unregistered_votes,
                None if inst.budget_add is None else min(
                    inst.budget_add + 1,
                    len(inst.unregistered_votes if ctype == "CCAV" else inst.unregistered_candidates),
                ),
                None if inst.budget_delete is None else min(
                    inst.budget_delete + 1, len(inst.registered_votes)
                ),
            )
            if solve_control_bruteforce(inst).yes:
                assert solve_control_bruteforce(bigger).yes


@st.composite
def additive_control_instances(draw):
    """Small AV/SAV/NSAV control instances of all six types.

    Ballots may repeat, be empty or approve the whole pool, and the
    registered roster may carry never-approved padding candidates.
    """
    rule = draw(st.sampled_from([AV, SAV, NSAV]))
    ctype = draw(st.sampled_from(["CCAV", "CCDV", "CCADV", "CCAC", "CCDC", "CCADC"]))
    voter = ctype in ("CCAV", "CCDV", "CCADV")
    m = draw(st.integers(1, 4))
    registered = [f"c{i}" for i in range(m)]
    unregistered = [] if voter else [f"d{i}" for i in range(draw(st.integers(0, 3)))]
    registered += [f"~dummy{i}" for i in range(draw(st.integers(0, 3)))]
    whole = frozenset(registered + unregistered)
    ballot = st.one_of(
        st.frozensets(st.sampled_from(registered[:m] + unregistered)),
        st.just(frozenset()),
        st.just(whole),
    )
    votes = draw(st.lists(ballot, max_size=5))
    votes += draw(st.lists(st.sampled_from(votes), max_size=3)) if votes else []
    extra = draw(st.lists(ballot, max_size=4)) if voter else []
    k = draw(st.integers(1, min(m, 3)))
    wanted = draw(st.sets(st.sampled_from(registered[:m]), min_size=1, max_size=k))
    adds = len(extra) if voter else len(unregistered)
    budget_add = draw(st.integers(0, min(adds, 2))) if ctype in ("CCAV", "CCADV", "CCAC", "CCADC") else None
    deletes = len(votes) if voter else len(registered)
    budget_delete = draw(st.integers(0, min(deletes, 2))) if ctype in ("CCDV", "CCADV", "CCDC", "CCADC") else None
    return ControlInstance(
        ctype, rule, registered, votes, k, wanted,
        unregistered_candidates=unregistered, unregistered_votes=extra,
        budget_add=budget_add, budget_delete=budget_delete,
    )


# an RX3C source whose sets H0-H2, H3-H5 and H6-H8 are each an exact cover
COVERED_RX3C = red.Rx3cInstance(
    [f"a{i}" for i in range(9)],
    [("a0", "a1", "a2"), ("a3", "a4", "a5"), ("a6", "a7", "a8"),
     ("a0", "a3", "a6"), ("a1", "a4", "a7"), ("a2", "a5", "a8"),
     ("a0", "a4", "a8"), ("a1", "a5", "a6"), ("a2", "a3", "a7")],
)


def assert_oracle_matches_rebuilt(inst, solutions, algo="auto"):
    """The oracle's J-CC equals `j_cc` on the rebuilt election for every solution."""
    oracle = ctl._AdditiveControlOracle(inst)
    answers = []
    for solution in solutions:
        jcc = winners.JccInstance(apply_control(inst, solution), inst.k, inst.distinguished)
        answers.append(winners.j_cc(inst.rule, jcc, algo=algo))
        assert oracle.jcc_after(solution) == answers[-1], solution
    return answers


class TestAdditiveControlOracle:
    @settings(max_examples=300, deadline=None)
    @given(additive_control_instances())
    def test_matches_rebuilt_bruteforce_on_every_action(self, inst):
        assert_oracle_matches_rebuilt(inst, ctl._solution_stream(inst), algo="bruteforce")

    @pytest.mark.parametrize("ctype", ["CCAC", "CCDC", "CCADC"])
    def test_matches_rebuilt_bruteforce_on_seeded_candidate_control(self, ctype):
        rng = random.Random(ctype)
        for rule in (AV, SAV, NSAV):
            for _ in range(60):
                inst = random_control_instance(rng, rule, ctype, m_max=5, n_max=6)
                assert_oracle_matches_rebuilt(inst, ctl._solution_stream(inst), algo="bruteforce")

    def test_every_ccdc_sav_deletion_of_three_pool_candidates(self):
        inst = red.generate("CcdcSavRx3c", COVERED_RX3C)
        assert inst.budget_delete == 3
        approved = frozenset().union(*inst.registered_votes)
        pool = [c for c in inst.registered_candidates if c in approved and c not in inst.distinguished]
        solutions = list(ctl._solution_stream(inst, pool))
        assert len(solutions) == sum(comb(len(pool), r) for r in range(4))
        answers = assert_oracle_matches_rebuilt(inst, solutions)
        # the YES deletions are the set candidates of the source's three exact covers
        covers = [{f"c(H{i})" for i in range(j, j + 3)} for j in (0, 3, 6)]
        assert [set(s.deleted_candidates) for s, yes in zip(solutions, answers) if yes] == covers

    @pytest.mark.parametrize("kind", ["CcavNsavRx3c", "CcdvNsavRx3c"])
    @pytest.mark.parametrize("kappa", [1, 2])
    def test_every_padded_nsav_voter_action(self, kind, kappa):
        inst = red.generate(kind, red.random_rx3c(kappa, random.Random(kappa)))
        answers = assert_oracle_matches_rebuilt(inst, ctl._solution_stream(inst))
        assert True in answers and False in answers

    @pytest.mark.parametrize("rule", [AV, SAV, NSAV])
    def test_memoised_voter_verdicts_match_a_fresh_oracle(self, rule):
        rng = random.Random(f"memo:{rule}")
        patterns = [frozenset(), frozenset({"c0"}), frozenset({"c0", "c1"}), frozenset({"c1", "c2", "c3"})]
        for _ in range(12):
            inst = ControlInstance(
                "CCADV", rule, ["c0", "c1", "c2", "c3"], rng.choices(patterns, k=6), rng.randint(1, 2),
                {"c0"}, unregistered_votes=rng.choices(patterns, k=5), budget_add=2, budget_delete=2,
            )
            memo = ctl._AdditiveControlOracle(inst)
            solutions = list(ctl._solution_stream(inst))
            for solution in solutions:
                assert memo.jcc_after(solution) == ctl._AdditiveControlOracle(inst).jcc_after(solution), solution
            assert len(memo.verdicts) < len(solutions)
        inst = red.generate("CcavSavRx3c", red.random_rx3c(2, random.Random(5)))
        memo = ctl._AdditiveControlOracle(inst)
        for solution in ctl._solution_stream(inst):
            assert memo.jcc_after(solution) == ctl._AdditiveControlOracle(inst).jcc_after(solution), solution

    @pytest.mark.parametrize(
        "sets,answer",
        [
            ([("a0", "a1", "a2")] * 3, True),
            (
                [("a0", "a2", "a3"), ("a1", "a3", "a4"), ("a0", "a3", "a5"),
                 ("a1", "a2", "a5"), ("a2", "a4", "a5"), ("a0", "a1", "a4")],
                False,
            ),
        ],
    )
    def test_padded_nsav_ccav_rebuilds_only_to_verify_yes(self, monkeypatch, sets, answer):
        universe = sorted({a for s in sets for a in s})
        inst = red.generate("CcavNsavRx3c", red.Rx3cInstance(universe, sets))
        calls = []
        real = ctl.apply_control

        def counting(instance, solution):
            calls.append(solution)
            return real(instance, solution)

        monkeypatch.setattr(ctl, "apply_control", counting)
        verdict = solve_control_bruteforce(inst)
        assert verdict.yes == answer
        assert len(calls) == (1 if answer else 0)
        if answer:
            assert calls == [verdict.witness]


class TestCcdvMavPoly:
    def test_rejects_other_problems(self):
        inst = ControlInstance("CCAV", MAV, ["a", "b"], [{"a"}], 1, {"a"},
                               unregistered_votes=[{"a"}], budget_add=1)
        with pytest.raises(UnsupportedRuleError):
            solve_ccdv_mav_poly(inst)

    def test_delete_everything_boundary(self):
        # an emptied election ties every committee, so J is universally
        # winning only when every k-committee contains it (k = m here)
        inst = ControlInstance("CCDV", MAV, ["a", "b"], [{"a"}, {"b"}], 2, {"a", "b"},
                               budget_delete=2)
        assert solve_ccdv_mav_poly(inst).yes
        strict = ControlInstance("CCDV", MAV, ["a", "b"], [{"b"}, {"b"}], 1, {"a"},
                                 budget_delete=2)
        assert not solve_ccdv_mav_poly(strict).yes

    def test_agrees_with_bruteforce(self):
        rng = random.Random(79)
        for _ in range(80):
            inst = random_control_instance(rng, MAV, "CCDV", m_max=6, n_max=5)
            assert solve_ccdv_mav_poly(inst).yes == solve_control_bruteforce(inst).yes


class TestImmunity:
    @pytest.mark.parametrize(
        "rule,ctype,k,j,status",
        [
            (AV, "CCAC", 3, 2, "immune"),
            (PAV, "CCAC", 2, 2, "immune"),
            (ABCCV, "CCAC", 2, 1, "susceptible"),
            (MAV, "CCAC", 1, 1, "susceptible"),
            (SAV, "CCAC", 2, 1, "undetermined"),
            (SAV, "CCAV", 2, 1, "susceptible"),
            (PAV, "CCDC", 2, 2, "susceptible"),
        ],
    )
    def test_table(self, rule, ctype, k, j, status):
        assert immunity_verdict(rule, ctype, k, j).status == status

    def test_brute_force_never_contradicts_immunity(self):
        rng = random.Random(83)
        trials = 0
        while trials < 60:
            rule = rng.choice([AV, PAV, ABCCV])
            m = rng.randint(2, 4)
            C = [f"c{i}" for i in range(m)]
            D = [f"d{i}" for i in range(rng.randint(1, 2))]
            V = [frozenset(rng.sample(C + D, rng.randint(0, m + 1))) for _ in range(rng.randint(1, 4))]
            k = rng.randint(1, m)
            j_size = k if rule is not AV else rng.randint(1, k)
            J = frozenset(rng.sample(C, j_size))
            inst = ControlInstance("CCAC", rule, C, V, k, J, D, budget_add=len(D))
            if immunity_verdict(rule, "CCAC", k, j_size).status != "immune":
                continue
            if control_succeeds(inst, EMPTY_SOLUTION):
                continue
            trials += 1
            assert not solve_control_bruteforce(inst).yes


class TestFptControl:
    def test_additive_agrees(self):
        rng = random.Random(89)
        for _ in range(60):
            rule = rng.choice([AV, SAV, NSAV])
            ctype = rng.choice(["CCAV", "CCDV", "CCADV"])
            inst = random_control_instance(rng, rule, ctype, m_max=5, n_max=4, u_max=4)
            assert solve_ccadv_additive_fpt(inst).yes == solve_control_bruteforce(inst).yes

    def test_thiele_agrees(self):
        rng = random.Random(97)
        for _ in range(40):
            rule = rng.choice([ABCCV, PAV])
            ctype = rng.choice(["CCAV", "CCDV", "CCADV"])
            inst = random_control_instance(rng, rule, ctype, m_max=4, n_max=4, u_max=3)
            assert solve_ccadv_thiele_fpt(inst).yes == solve_control_bruteforce(inst).yes

    def test_ccav_mav_agrees(self):
        rng = random.Random(101)
        for _ in range(60):
            inst = random_control_instance(rng, MAV, "CCAV", m_max=5, n_max=4, u_max=5)
            assert solve_ccav_mav_fpt(inst).yes == solve_control_bruteforce(inst).yes

    def test_duplicate_unregistered_votes_collapse(self):
        rng = random.Random(103)
        for _ in range(30):
            inst = random_control_instance(rng, MAV, "CCAV", m_max=4, n_max=3, u_max=3)
            cloned = ControlInstance(
                "CCAV", MAV, inst.registered_candidates, inst.registered_votes,
                inst.k, inst.distinguished,
                unregistered_votes=inst.unregistered_votes + inst.unregistered_votes,
                budget_add=inst.budget_add,
            )
            assert solve_ccav_mav_fpt(inst).yes == solve_ccav_mav_fpt(cloned).yes


THIELE_RULES = (ABCCV, PAV, COPRIME_THIELE)
# every (m, k) with m = 5-8, and those with more than 40 committees
ROSTER_SHAPES = [(m, k) for m in range(5, 9) for k in range(1, m + 1)]
CROWDED_SHAPES = [(m, k) for m, k in ROSTER_SHAPES if comb(m, k) > 40]


@st.composite
def thiele_voter_control(draw):
    """CCAV, CCDV and CCADV under a Thiele rule with 5-8 candidates, half
    the draws from rosters with more than 40 committees of size k."""
    rule = draw(st.sampled_from(THIELE_RULES))
    ctype = draw(st.sampled_from(["CCAV", "CCDV", "CCADV"]))
    m, k = draw(st.sampled_from(CROWDED_SHAPES) | st.sampled_from(ROSTER_SHAPES))
    # COPRIME_THIELE's table reaches overlap 7
    k = min(k, 7) if rule is COPRIME_THIELE else k
    roster = [f"c{i}" for i in range(m)]
    ballot = st.frozensets(st.sampled_from(roster))
    votes = draw(st.lists(ballot, max_size=5))
    adds, deletes = ctl.ACTIONS[ctype]
    extra = draw(st.lists(ballot, max_size=4)) if adds else []
    wanted = draw(st.sets(st.sampled_from(roster), min_size=1, max_size=k))
    budget_add = draw(st.integers(0, min(len(extra), 2))) if adds else None
    budget_delete = draw(st.integers(0, min(len(votes), 2))) if deletes else None
    return ControlInstance(
        ctype, rule, roster, votes, k, wanted,
        unregistered_votes=extra, budget_add=budget_add, budget_delete=budget_delete,
    )


def assert_thiele_fpt_agrees(inst):
    verdict = solve_ccadv_thiele_fpt(inst)
    assert verdict.yes == solve_control_bruteforce(inst).yes
    if verdict.yes:
        assert control_succeeds(inst, verdict.witness)


class TestThieleFptBeyondCommitteeGuard:
    @settings(max_examples=200, deadline=None)
    @given(thiele_voter_control())
    def test_agrees_with_bruteforce(self, inst):
        assert_thiele_fpt_agrees(inst)

    @pytest.mark.parametrize("rule", THIELE_RULES, ids=lambda rule: rule.kind)
    @pytest.mark.parametrize("ctype", ["CCAV", "CCDV", "CCADV"])
    @pytest.mark.parametrize(
        "wanted,budget",
        # a budget of 0 with c0 in every winner and with c7 in none, |J| = k,
        # and a pair that only some rules and types can force in
        [({"c0"}, 0), ({"c7"}, 0), ({"c0", "c5", "c6"}, 2), ({"c1", "c4"}, 2)],
    )
    def test_fixed_cases(self, rule, ctype, wanted, budget):
        # eight candidates give 56 committees of three
        roster = [f"c{i}" for i in range(8)]
        votes = [{"c0", "c1"}, {"c0", "c2"}, {"c0", "c3"}, {"c1", "c4"}, {"c5", "c6"}, {"c7"}, {"c4", "c5"}]
        extra = [{"c0", "c5", "c6"}, {"c5", "c6"}, {"c6"}]
        adds, deletes = ctl.ACTIONS[ctype]
        inst = ControlInstance(
            ctype, rule, roster, votes, 3, wanted,
            unregistered_votes=extra if adds else (),
            budget_add=budget if adds else None, budget_delete=budget if deletes else None,
        )
        assert_thiele_fpt_agrees(inst)

    def test_committees_share_a_program_only_when_alike(self):
        # the one ballot gives {c0, c1} and {c0, c2} coefficients on the same
        # variable, 1 and 3/2 times PAV's scale: only {c0, c2} beats {c1, c2}
        inst = ControlInstance("CCDV", PAV, ["c0", "c1", "c2"], [{"c0", "c2"}], 2, {"c0"}, budget_delete=1)
        assert solve_ccadv_thiele_fpt(inst).yes
        assert_thiele_fpt_agrees(inst)


ALL_RULES = (AV, SAV, NSAV, PAV, ABCCV, MAV, COPRIME_THIELE)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_jcc_holds_iff_some_committee_with_j_beats_all_without(data):
    """The condition `solve_ccadv_thiele_fpt` guesses on, under every rule:
    MAV's better score is the lower one."""
    rule = data.draw(st.sampled_from(ALL_RULES))
    m = data.draw(st.integers(1, 6))
    roster = [f"c{i}" for i in range(m)]
    votes = data.draw(st.lists(st.frozensets(st.sampled_from(roster)), max_size=5))
    election = Election(roster, votes)
    k = data.draw(st.integers(1, m))
    wanted = frozenset(data.draw(st.sets(st.sampled_from(roster), min_size=1, max_size=k)))
    score = {frozenset(w): core.committee_score(rule, election, w) for w in combinations(roster, k)}
    sign = -1 if rule.orientation == "minimize" else 1
    anchored = any(
        all(sign * score[w] > sign * score[other] for other in score if not wanted <= other)
        for w in score
        if wanted <= w
    )
    jcc = winners.JccInstance(election, k, wanted)
    assert winners.j_cc(rule, jcc, algo="bruteforce") == anchored


class TestPerfectHashFamilies:
    def test_kappa_one_single_constant(self):
        family = build_perfect_hash_family(["x", "y"], 1)
        assert len(family.functions) == 1
        ok, coverage = verify_perfect(family)
        assert ok and coverage == 1

    def test_exhaustive_covers_all_pairs(self):
        family = build_perfect_hash_family(list("abcd"), 2, "exhaustive")
        ok, coverage = verify_perfect(family)
        assert ok and coverage == 1

    def test_randomized_reports_coverage(self):
        family = build_perfect_hash_family(list("abcdef"), 2, "randomized", seed=7, repetitions=64)
        ok, coverage = verify_perfect(family)
        assert 0 <= coverage <= 1
        assert family.mode == "randomized"

    def test_kappa_too_large(self):
        with pytest.raises(ValidationError):
            build_perfect_hash_family(["x"], 2)


class TestColorCoding:
    def test_agrees_with_bruteforce(self):
        rng = random.Random(107)
        for _ in range(50):
            rule = rng.choice([SAV, NSAV, ABCCV, PAV, MAV])
            ctype = rng.choice(["CCAC", "CCDC", "CCADC"])
            inst = random_control_instance(rng, rule, ctype, m_max=5, n_max=4, d_max=3)
            assert solve_ccadc_colorcoding(inst).yes == solve_control_bruteforce(inst).yes

    def test_randomized_mode_is_one_sided(self):
        rng = random.Random(109)
        for _ in range(20):
            rule = rng.choice([SAV, ABCCV])
            inst = random_control_instance(rng, rule, "CCDC", m_max=4, n_max=3)
            randomized = solve_ccadc_colorcoding(inst, hash_mode="randomized", seed=5, repetitions=8)
            assert randomized.details["hash_mode"] == "randomized"
            if randomized.yes:
                assert control_succeeds(inst, randomized.witness)

    def test_within_clone_swap_keeps_verdict(self):
        # swapping two candidates with identical approver sets inside a
        # guessed class never changes the decision
        votes = [{"a", "b"}, {"a", "b", "p"}, {"c"}]
        inst = ControlInstance("CCDC", SAV, ["p", "a", "b", "c"], votes, 1, {"p"}, budget_delete=2)
        base = solve_ccadc_colorcoding(inst)
        swapped_votes = [frozenset({"b", "a"}), frozenset({"b", "a", "p"}), frozenset({"c"})]
        swapped = ControlInstance("CCDC", SAV, ["p", "b", "a", "c"], swapped_votes, 1, {"p"}, budget_delete=2)
        assert base.yes == solve_ccadc_colorcoding(swapped).yes


def test_witness_soundness_across_solvers():
    rng = random.Random(113)
    for _ in range(40):
        ctype = rng.choice(["CCAV", "CCDV", "CCADV"])
        rule = rng.choice([AV, SAV, NSAV])
        inst = random_control_instance(rng, rule, ctype, m_max=4, n_max=4, u_max=3)
        for solver in (solve_control_bruteforce, solve_ccadv_additive_fpt):
            verdict = solver(inst)
            if verdict.yes:
                assert control_succeeds(inst, verdict.witness)


def test_thm7_construction_kappa1_is_yes(trivial_rx3c):
    from abmv import reductions as red

    inst = red.generate("CcavMavRx3c", trivial_rx3c)
    fpt = solve_ccav_mav_fpt(inst)
    brute = solve_control_bruteforce(inst)
    assert fpt.yes and brute.yes
    assert control_succeeds(inst, fpt.witness)


# ---------------------------------------------------------------------------
# What each control type may do, written out independently of control.ACTIONS

ALLOWED = {
    "CCAV": {"added_votes"},
    "CCDV": {"deleted_votes"},
    "CCAC": {"added_candidates"},
    "CCDC": {"deleted_candidates"},
    "CCADV": {"added_votes", "deleted_votes"},
    "CCADC": {"added_candidates", "deleted_candidates"},
    "JCC": set(),
}
VOTER = ("CCAV", "CCDV", "CCADV")
CANDIDATE = ("CCAC", "CCDC", "CCADC")
# solution field -> (a valid value, verb, kind)
ACTION_FIELDS = {
    "added_votes": ((0,), "add", "votes"),
    "deleted_votes": ((1,), "delete", "votes"),
    "added_candidates": (("d",), "add", "candidates"),
    "deleted_candidates": (("b",), "delete", "candidates"),
}
# budget field -> (action word, solution fields it covers)
BUDGETS = {
    "budget_add": ("addition", {"added_votes", "added_candidates"}),
    "budget_delete": ("deletion", {"deleted_votes", "deleted_candidates"}),
}


def typed_instance(ctype, **changes):
    """Roster a, b, c with two votes, J = {a}, k = 1; one unregistered vote
    and one unregistered candidate d wherever the type admits them, and a
    budget of 1 for each action the type allows."""
    fields = {
        "unregistered_candidates": [] if ctype in VOTER else ["d"],
        "unregistered_votes": [] if ctype in CANDIDATE else [{"c"}],
    }
    for budget, (_, covered) in BUDGETS.items():
        fields[budget] = 1 if ALLOWED[ctype] & covered else None
    fields.update(changes)
    return ControlInstance(ctype, AV, ["a", "b", "c"], [{"a"}, {"b"}], 1, {"a"}, **fields)


def test_control_types_are_the_table_order():
    assert ctl.CONTROL_TYPES == tuple(ALLOWED)
    assert ctl.VOTER_TYPES == VOTER and ctl.CANDIDATE_TYPES == CANDIDATE


@pytest.mark.parametrize("field", list(ACTION_FIELDS))
@pytest.mark.parametrize("ctype", list(ALLOWED))
def test_apply_control_refuses_exactly_the_forbidden_actions(ctype, field):
    value, verb, kind = ACTION_FIELDS[field]
    inst = typed_instance(ctype)
    solution = ControlSolution(**{field: value})
    if field in ALLOWED[ctype]:
        apply_control(inst, solution)
    else:
        with pytest.raises(ValidationError, match=f"^{ctype} cannot {verb} {kind}$"):
            apply_control(inst, solution)


@pytest.mark.parametrize("budget", list(BUDGETS))
@pytest.mark.parametrize("ctype", list(ALLOWED))
def test_budget_messages(ctype, budget):
    action, covered = BUDGETS[budget]
    if not ALLOWED[ctype] & covered:
        typed_instance(ctype, **{budget: None})
        return
    for bad in (None, -1):
        with pytest.raises(ValidationError, match=f"^{ctype} needs a nonnegative {action} budget$"):
            typed_instance(ctype, **{budget: bad})
    # the pools: one unregistered vote or candidate, two votes, three candidates
    if budget == "budget_add":
        pool = 1
    else:
        pool = 2 if ctype in VOTER else 3
    typed_instance(ctype, **{budget: pool})
    with pytest.raises(ValidationError, match=f"^{action} budget exceeds its pool$"):
        typed_instance(ctype, **{budget: pool + 1})


@pytest.mark.parametrize(
    "ctype,budget",
    [(t, b) for t in ALLOWED for b, (_, covered) in BUDGETS.items() if not ALLOWED[t] & covered],
)
def test_budgets_for_forbidden_actions_are_rejected(ctype, budget):
    """Solvers may then read every budget as given (None as 0)."""
    action, _ = BUDGETS[budget]
    for stray in (0, 1):
        with pytest.raises(ValidationError, match=f"^{ctype} takes no {action} budget$"):
            typed_instance(ctype, **{budget: stray})


@pytest.mark.parametrize("ctype", list(ALLOWED))
def test_unregistered_pools_follow_the_type(ctype):
    if ctype in VOTER:
        with pytest.raises(ValidationError, match="^voter control takes no unregistered candidates$"):
            typed_instance(ctype, unregistered_candidates=["d"])
    else:
        typed_instance(ctype, unregistered_candidates=["d"])
    if ctype in CANDIDATE:
        with pytest.raises(ValidationError, match="^candidate control takes no unregistered votes$"):
            typed_instance(ctype, unregistered_votes=[{"c"}])
    else:
        typed_instance(ctype, unregistered_votes=[{"c"}])


def reference_solution_stream(instance, deletion_pool=None):
    """The enumeration order brute force has always used; it returns the
    first certified solution, so the order decides the witness."""
    ctype = instance.ctype
    la = instance.budget_add or 0
    ld = instance.budget_delete or 0
    if ctype == "JCC":
        yield EMPTY_SOLUTION
        return
    if ctype in ("CCAV", "CCDV", "CCADV"):
        add_ids = range(len(instance.unregistered_votes))
        del_ids = range(len(instance.registered_votes))
        for total in range(la + ld + 1):
            for ra in range(min(la, total), -1, -1):
                rd = total - ra
                if rd > ld:
                    continue
                for added in combinations(add_ids, ra):
                    for deleted in combinations(del_ids, rd):
                        yield ControlSolution(added_votes=added, deleted_votes=deleted)
        return
    election_order = instance.registered_candidates
    if deletion_pool is None:
        pool = [c for c in election_order if c not in instance.distinguished]
    else:
        pool = list(filter(set(deletion_pool).__contains__, election_order))
    addable = instance.unregistered_candidates
    for total in range(la + ld + 1):
        for ra in range(min(la, total), -1, -1):
            rd = total - ra
            if rd > ld:
                continue
            if len(instance.registered_candidates) - rd + ra < instance.k:
                continue
            for added in combinations(addable, ra):
                for deleted in combinations(pool, rd):
                    yield ControlSolution(added_candidates=added, deleted_candidates=deleted)


@st.composite
def typed_control_instances(draw):
    """Control instances of all seven types, budgets only where the type acts."""
    ctype = draw(st.sampled_from(list(ALLOWED)))
    m = draw(st.integers(1, 5))
    registered = [f"c{i}" for i in range(m)]
    unregistered = [] if ctype in VOTER else [f"d{i}" for i in range(draw(st.integers(0, 3)))]
    ballot = st.frozensets(st.sampled_from(registered + unregistered))
    votes = draw(st.lists(ballot, max_size=4))
    extra = [] if ctype in CANDIDATE else draw(st.lists(ballot, max_size=3))
    k = draw(st.integers(1, m))
    wanted = draw(st.sets(st.sampled_from(registered), min_size=1, max_size=k))
    adds = len(unregistered) if ctype in CANDIDATE else len(extra)
    deletes = len(registered) if ctype in CANDIDATE else len(votes)
    allowed = ALLOWED[ctype]
    budget_add = draw(st.integers(0, min(adds, 3))) if allowed & BUDGETS["budget_add"][1] else None
    budget_delete = (
        draw(st.integers(0, min(deletes, 3))) if allowed & BUDGETS["budget_delete"][1] else None
    )
    instance = ControlInstance(
        ctype, AV, registered, votes, k, wanted,
        unregistered_candidates=unregistered, unregistered_votes=extra,
        budget_add=budget_add, budget_delete=budget_delete,
    )
    deletion_pool = draw(st.none() | st.lists(st.sampled_from(registered), unique=True))
    return instance, deletion_pool


@settings(max_examples=400, deadline=None)
@given(typed_control_instances())
def test_solution_stream_keeps_the_reference_order(drawn):
    instance, deletion_pool = drawn
    expected = list(reference_solution_stream(instance, deletion_pool))
    assert list(ctl._solution_stream(instance, deletion_pool)) == expected
    assert list(ctl._solution_stream(instance)) == list(reference_solution_stream(instance))
