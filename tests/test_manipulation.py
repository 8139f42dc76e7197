import hashlib
import math
import random
from functools import partial
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings, strategies as st
from rules import COPRIME_THIELE

from abmv import core, manipulation as man, reductions as red, verification as ver, winners
from abmv.core import (
    ABCCV,
    AV,
    MAV,
    NSAV,
    PAV,
    SAV,
    Election,
    ResourceCapError,
    UnsupportedRuleError,
    ValidationError,
    Verdict,
)
from abmv.manipulation import (
    ManipulationInstance,
    certify_manipulation,
    prefers,
    sd_dominates,
    solve_av_const_manipulators,
    solve_manipulation_bruteforce,
    solve_manipulation_fpt_m_additive,
    solve_manipulation_fpt_m_av,
    solve_savnsav_const_manipulators,
    solve_sdcm_fpt_m,
)


def random_instance(rng, rule, variant, m_max=5, n_max=4, t_max=2):
    m = rng.randint(2, m_max)
    cands = [f"c{i}" for i in range(m)]
    honest = [frozenset(rng.sample(cands, rng.randint(0, m))) for _ in range(rng.randint(0, n_max))]
    manip = [frozenset(rng.sample(cands, rng.randint(1, m))) for _ in range(rng.randint(1, t_max))]
    k = rng.randint(1, m)
    committee = None
    if variant != "SDCM":
        ws = winners.winning_committees(rule, Election(cands, honest + manip), k, "exhaustive")
        committee = frozenset(rng.choice(ws.committees))
    return ManipulationInstance(rule, variant, cands, honest, manip, k, committee)


def yes_leaning_instance(rng, rule, variant, t, pad):
    """A draw that is YES far more often than `random_instance`.

    Honest votes back the first k candidates; each manipulator approves
    some of one or two target candidates and dilutes its ballot with
    fillers, so that concentrating the recast ballots can lift the
    targets. `pad` dummies extend the roster. Brute force decides the
    label; the shape is only a bias.
    """
    m = rng.randint(4, 6)
    cands = [f"c{i}" for i in range(m)]
    k = rng.randint(1, 2)
    backed = cands[:k]
    targets = cands[k : k + rng.randint(1, 2)]
    fillers = cands[len(backed) + len(targets) :]
    honest = [
        frozenset(backed + rng.sample(fillers, rng.randint(0, min(1, len(fillers)))))
        for _ in range(rng.randint(1, 3))
    ]
    honest += [
        frozenset(rng.sample(targets, 1) + rng.sample(cands, rng.randint(0, 2)))
        for _ in range(rng.randint(0, 2))
    ]
    manip = []
    for _ in range(t):
        ballot = set(rng.sample(targets, rng.randint(1, len(targets))))
        ballot |= set(rng.sample(fillers + backed, rng.randint(1, min(3, len(fillers + backed)))))
        manip.append(frozenset(ballot))
    roster = core.pad_with_dummies(Election(cands, []), pad).candidates
    ws = winners.winning_committees(rule, Election(roster, honest + manip), k)
    committee = frozenset(rng.choice(ws.committees))
    return ManipulationInstance(rule, variant, roster, honest, manip, k, committee)


@pytest.mark.parametrize("rule", [SAV, PAV])
@pytest.mark.parametrize("variant", man.VARIANTS)
@pytest.mark.parametrize("k", [0, 4])
def test_k_outside_one_to_m_is_rejected(rule, variant, k):
    cands = ["a", "b", "c"]
    committee = None if variant == "SDCM" else cands[:k]
    with pytest.raises(ValidationError, match=r"^need 1 <= k <= \|C\|$"):
        ManipulationInstance(rule, variant, cands, [{"a"}], [{"b"}], k, committee)


class TestPreferences:
    def test_cardinality(self):
        assert prefers("cardinality", {"a", "b"}, {"a", "b", "c"}, {"a", "x", "y"})

    def test_subset_loses_a_winner(self):
        assert not prefers("subset", {"a", "b"}, {"b", "c", "d"}, {"a", "c", "d"})

    def test_subset_proper_gain(self):
        assert prefers("subset", {"a", "b"}, {"a", "b", "c"}, {"a", "c", "d"})


class TestStochasticDomination:
    def test_strict_at_level_one(self):
        verdict = sd_dominates([{"a"}], [{"a"}, {"b"}], {"a"})
        assert verdict.dominates and verdict.witness_levels == (1,)

    def test_identical_collections(self):
        assert not sd_dominates([{"a"}, {"b"}], [{"a"}, {"b"}], {"a"}).dominates

    def test_plain_loss(self):
        assert not sd_dominates([{"b"}], [{"a"}], {"a"}).dominates


class TestBruteForce:
    def test_example1_split_yes(self, example1_election):
        cands, honest, manip = example1_election
        inst = ManipulationInstance(SAV, "CBCM", cands, honest, manip, 2, {"x", "y"})
        verdict = solve_manipulation_bruteforce(inst)
        assert verdict.yes
        assert len(set(verdict.witness)) > 1  # a genuinely split profile
        assert certify_manipulation(inst, verdict.witness)

    def test_example1_common_no(self, example1_election):
        cands, honest, manip = example1_election
        inst = ManipulationInstance(SAV, "CBCM", cands, honest, manip, 2, {"x", "y"})
        assert not solve_manipulation_bruteforce(inst, profile_mode="common").yes

    def test_fully_satisfied_manipulator_blocks(self):
        # v inside w can never strictly gain
        e_c = ["a", "b"]
        inst = ManipulationInstance(AV, "CBCM", e_c, [{"a"}], [{"a"}], 1, {"a"})
        assert not solve_manipulation_bruteforce(inst).yes

    def test_path_graph_instance_is_hopeless(self):
        # path u1-u2-u3 under the four-supporting-votes shape: the filler
        # holds score 4 and two manipulators can raise a vertex to at most
        # 2, so no recast profile can displace it
        cands = ["u1", "u2", "u3", "c1"]
        inst = ManipulationInstance(
            AV, "CBCM", cands, [{"c1"}] * 4, [{"u1", "u2"}, {"u2", "u3"}], 1, {"c1"}
        )
        assert not solve_manipulation_bruteforce(inst).yes

    def test_three_manipulators_elevate_a_cover(self):
        # triangle edges versus two supporting votes: recasting every edge
        # ballot to the cover {u1,u2} makes it the unique winner
        cands = ["u1", "u2", "u3", "f1", "f2"]
        inst = ManipulationInstance(
            AV, "CBCM", cands, [{"f1", "f2"}] * 2,
            [{"u1", "u2"}, {"u2", "u3"}, {"u1", "u3"}], 2, {"f1", "f2"},
        )
        verdict = solve_manipulation_bruteforce(inst, profile_mode="common")
        assert verdict.yes
        assert all(b == {"u1", "u2"} or b == {"u1", "u3"} or b == {"u2", "u3"} for b in verdict.witness)

    def test_unrestricted_pool_matches_default(self):
        rng = random.Random(3)
        for _ in range(60):
            rule = rng.choice([AV, SAV, NSAV, PAV, ABCCV, MAV])
            variant = rng.choice(["CBCM", "SBCM", "SDCM"])
            inst = random_instance(rng, rule, variant, m_max=4, n_max=3, t_max=2)
            assert (
                solve_manipulation_bruteforce(inst).yes
                == solve_manipulation_bruteforce(inst, pool="unrestricted").yes
            )

    def test_pool_override_outside_the_roster_raises(self, example1_election):
        cands, honest, manip = example1_election
        inst = ManipulationInstance(SAV, "CBCM", cands, honest, manip, 2, {"x", "y"})
        with pytest.raises(core.DomainError, match=r"^unknown candidates \['q', 'zz'\]$"):
            solve_manipulation_bruteforce(inst, pool_override=["a", "zz", "q"])


class TestAvConstManipulators:
    def test_k3_triangle_construction(self):
        graph = red.GraphInstance(["u1", "u2", "u3"], [("u1", "u2"), ("u2", "u3"), ("u1", "u3")], 2)
        # hand-built triangle instance: one supporting vote keeps the
        # filler committee on top until the manipulators move
        cands = ["u1", "u2", "u3", "f1", "f2"]
        inst = ManipulationInstance(
            AV, "CBCM", cands, [{"f1", "f2"}] * 2,
            [frozenset(e) for e in sorted(map(sorted, graph.edges))], 2, {"f1", "f2"},
        )
        verdict = solve_av_const_manipulators(inst)
        assert verdict.yes == solve_manipulation_bruteforce(inst).yes

    def test_requires_av(self, example1_election):
        cands, honest, manip = example1_election
        inst = ManipulationInstance(SAV, "CBCM", cands, honest, manip, 2, {"x", "y"})
        with pytest.raises(UnsupportedRuleError):
            solve_av_const_manipulators(inst)

    def test_agrees_with_bruteforce(self):
        rng = random.Random(41)
        for _ in range(80):
            variant = rng.choice(["CBCM", "SBCM"])
            inst = random_instance(rng, AV, variant, m_max=5, n_max=4, t_max=3)
            assert solve_av_const_manipulators(inst).yes == solve_manipulation_bruteforce(inst).yes


class TestSavNsavConstManipulators:
    def test_example1_yes(self, example1_election):
        cands, honest, manip = example1_election
        inst = ManipulationInstance(SAV, "CBCM", cands, honest, manip, 2, {"x", "y"})
        verdict = solve_savnsav_const_manipulators(inst)
        assert verdict.yes and certify_manipulation(inst, verdict.witness)

    def test_example1_nsav_padded_yes(self, example1_election):
        cands, honest, manip = example1_election
        padded = core.pad_with_dummies(Election(cands, []), 9 * 10 * 10).candidates
        inst = ManipulationInstance(NSAV, "CBCM", padded, honest, manip, 2, {"x", "y"})
        verdict = solve_savnsav_const_manipulators(inst)
        assert verdict.yes and certify_manipulation(inst, verdict.witness)

    def test_nsav_instance_needs_the_nsav_weights(self):
        # searched with SAV weights, this NSAV instance reads as NO
        cands = [f"c{i}" for i in range(5)]
        honest = [set(), set(cands), {"c1"}, {"c0"}]
        manip = [{"c3", "c4"}, {"c2", "c3"}]
        inst = ManipulationInstance(NSAV, "CBCM", cands, honest, manip, 3, {"c0", "c1", "c3"})
        verdict = solve_savnsav_const_manipulators(inst)
        assert verdict.yes and certify_manipulation(inst, verdict.witness)

    # seeds of `random_instance` draws with three manipulators, none of whose
    # ballots lies inside or contains the committee, so that the search runs
    THREE_MANIPULATOR_DRAWS = (
        10403, 11251, 14938, 18886, 19057, 20242, 21212, 25258, 25501, 26415, 29523, 31814,
        37003, 42217, 42728, 43103, 45476, 53701, 54014, 56731,
    )

    def test_agrees_with_bruteforce(self):
        rng = random.Random(43)
        draws = [rng] * 60 + [random.Random(f"savnsav-t3:{i}") for i in self.THREE_MANIPULATOR_DRAWS]
        for rng in draws:
            rule = rng.choice([SAV, NSAV])
            variant = rng.choice(["CBCM", "SBCM"])
            inst = random_instance(rng, rule, variant, m_max=4, n_max=4, t_max=3)
            assert (
                solve_savnsav_const_manipulators(inst).yes
                == solve_manipulation_bruteforce(inst).yes
            )

    def test_sbcm_agrees_with_bruteforce(self):
        # the acceptance test must see the committee's members where the
        # class tables put them; with those members taking a class's last
        # bits, draws 54, 145 and 162 read NO where brute force finds YES
        for i in range(200):
            rng = random.Random(f"mut:{i}")
            rule = rng.choice([SAV, NSAV])
            t = rng.choice((1, 2, 2, 3))
            if i % 2:
                inst = random_instance(rng, rule, "SBCM", m_max=6, n_max=5, t_max=t)
            else:
                inst = yes_leaning_instance(rng, rule, "SBCM", t, 0)
            verdict = solve_savnsav_const_manipulators(inst)
            assert verdict.yes == solve_manipulation_bruteforce(inst).yes, i
            assert not verdict.yes or certify_manipulation(inst, verdict.witness), i

    @pytest.mark.parametrize(
        "m,honest,manip,committee,witness",
        [
            (6, [{"c0", "c1"}, {"c2"}, {"c0", "c2"}], [{"c1", "c2", "c4"}], {"c0", "c2"}, [{"c1"}]),
            (5, [{"c0", "c1", "c4"}, {"c0", "c1"}], [{"c1", "c2", "c3"}, {"c3", "c4"}], {"c0", "c1"},
             [{"c3"}, {"c1"}]),
        ],
    )
    def test_sbcm_yes_keeps_the_committee(self, m, honest, manip, committee, witness):
        cands = [f"c{i}" for i in range(m)]
        inst = ManipulationInstance(SAV, "SBCM", cands, honest, manip, 2, committee)
        verdict = solve_savnsav_const_manipulators(inst)
        assert verdict.witness == tuple(map(frozenset, witness))
        assert certify_manipulation(inst, verdict.witness)

    def test_single_manipulator_all_tied(self):
        inst = ManipulationInstance(SAV, "CBCM", ["a", "b"], [], [{"a"}], 1, {"a"})
        assert (
            solve_savnsav_const_manipulators(inst).yes
            == solve_manipulation_bruteforce(inst).yes
        )


class TestFptCandidates:
    def test_av_agrees(self):
        rng = random.Random(47)
        for _ in range(60):
            variant = rng.choice(["CBCM", "SBCM"])
            inst = random_instance(rng, AV, variant, m_max=5, n_max=4, t_max=3)
            assert solve_manipulation_fpt_m_av(inst).yes == solve_manipulation_bruteforce(inst).yes

    def test_additive_agrees(self):
        rng = random.Random(53)
        for _ in range(50):
            rule = rng.choice([AV, SAV, NSAV])
            variant = rng.choice(["CBCM", "SBCM"])
            inst = random_instance(rng, rule, variant, m_max=4, n_max=4, t_max=2)
            assert (
                solve_manipulation_fpt_m_additive(inst).yes
                == solve_manipulation_bruteforce(inst).yes
            )

    def test_sdcm_agrees(self):
        rng = random.Random(59)
        for _ in range(40):
            rule = rng.choice([AV, SAV, NSAV])
            inst = random_instance(rng, rule, "SDCM", m_max=4, n_max=4, t_max=2)
            assert solve_sdcm_fpt_m(inst).yes == solve_manipulation_bruteforce(inst).yes

    def test_sdcm_witness_comes_from_a_guess_filling_the_committee(self):
        # the witness comes from the first guess, (∅, {c0, c3}): two tied candidates for k=2 seats
        cands = [f"c{i}" for i in range(5)]
        honest = [set(cands), {"c0", "c1", "c2", "c4"}, set(), set()]
        manip = [{"c0", "c2", "c3"}, {"c1", "c3"}]
        inst = ManipulationInstance(NSAV, "SDCM", cands, honest, manip, 2, None)
        verdict = solve_sdcm_fpt_m(inst)
        assert verdict.yes and verdict.witness == ({"c0", "c3"}, {"c0", "c3"})


def _parent_score_partitions(candidates, k):
    """The split generator before duplicate collections were dropped."""
    roster = list(candidates)
    for sure_size in range(0, k + 1):
        for sure in combinations(roster, sure_size):
            rest = [c for c in roster if c not in sure]
            if sure_size == k:
                yield frozenset(sure), frozenset()
                continue
            need = k - sure_size
            for tied_size in range(max(2, need), len(rest) + 1):
                for tied in combinations(rest, tied_size):
                    yield frozenset(sure), frozenset(tied)


def test_score_partitions_yield_each_collection_once():
    for m in range(1, 7):
        cands = [f"c{i}" for i in range(m)]
        for k in range(0, m + 1):
            families = [
                frozenset(core.admitted_committees(swin, pwin, k))
                for swin, pwin in man._score_partitions(cands, k)
            ]
            assert len(families) == len(set(families)), (m, k)
            parent = {
                frozenset(core.admitted_committees(swin, pwin, k))
                for swin, pwin in _parent_score_partitions(cands, k)
            }
            assert set(families) == parent, (m, k)


class TestClaimProperties:
    def test_common_ballot_inside_pool_suffices_for_av(self):
        # whenever split search says YES under AV, a common ballot drawn
        # from the truthfully approved pool also works
        rng = random.Random(61)
        for _ in range(60):
            inst = random_instance(rng, AV, "CBCM", m_max=4, n_max=3, t_max=2)
            split = solve_manipulation_bruteforce(inst)
            if split.yes:
                common = solve_manipulation_bruteforce(inst, profile_mode="common")
                assert common.yes
                assert all(b <= inst.approved_union for b in common.witness)

    def test_two_blocks_suffice_for_av(self):
        # the block-structured search must find a YES whenever one exists
        rng = random.Random(67)
        for _ in range(60):
            variant = rng.choice(["CBCM", "SBCM"])
            inst = random_instance(rng, AV, variant, m_max=5, n_max=4, t_max=2)
            if solve_manipulation_bruteforce(inst).yes:
                assert solve_av_const_manipulators(inst).yes


class TestHardnessEquivalence:
    def test_vertex_cover_equivalences_on_k4(self, k4):
        for kappa, expected in [(1, False), (2, False), (3, True)]:
            for kind in ("ManipAvVc", "ManipSavVc", "ManipNsavVc", "ManipMavVc"):
                assert red.roundtrip_check(kind, k4(kappa), variant="CBCM"), (kind, kappa)
            assert red.solve_source(k4(kappa), "VERTEX_COVER") == expected

    def test_sdcm_is_not_instance_equivalent(self, k4):
        # documented gap: a recast tie can dominate subject to every
        # manipulator without any single committee covering them all
        inst = red.generate("ManipAvVc", k4(1), variant="SDCM")
        verdict = solve_manipulation_bruteforce(
            inst, profile_mode="common", pool_override=sorted(inst.approved_union)
        )
        assert verdict.yes and not red.solve_source(k4(1), "VERTEX_COVER")
        with pytest.raises(red.GenerationError):
            red.roundtrip_check("ManipAvVc", k4(1), variant="SDCM")


def test_witness_soundness_across_solvers():
    rng = random.Random(71)
    solvers = [
        solve_manipulation_bruteforce,
        solve_av_const_manipulators,
        solve_manipulation_fpt_m_av,
        solve_manipulation_fpt_m_additive,
    ]
    for _ in range(40):
        inst = random_instance(rng, AV, rng.choice(["CBCM", "SBCM"]), m_max=4, n_max=3, t_max=2)
        for solver in solvers:
            verdict = solver(inst)
            if verdict.yes:
                assert certify_manipulation(inst, verdict.witness)


def test_example1_rescored_under_av_matches_bruteforce(example1_election):
    cands, honest, manip = example1_election
    ws = winners.winning_committees(AV, Election(cands, honest + manip), 2, "exhaustive")
    inst = ManipulationInstance(AV, "CBCM", cands, honest, manip, 2, frozenset(ws.committees[0]))
    assert solve_av_const_manipulators(inst).yes == solve_manipulation_bruteforce(inst).yes


def option_pools(inst, pool):
    """Each manipulator's ballot options, in the order the search lists them."""
    bases, extras = man._ballot_options(inst, man._base_pool(inst, pool, None))
    return [list(dict.fromkeys(b | e for b in bases for e in extras[i])) for i in range(inst.t)]


def cast_by(profiles):
    """The candidates the ballots of `profiles` approve."""
    return frozenset().union(*(ballot for profile in profiles for ballot in profile))


def reference_bruteforce(inst, pool):
    """Every ordered profile in `product` order, decided by the class-count
    evaluator; the search's own decision must agree on each one."""
    pools = option_pools(inst, pool)
    checker = man._ProfileChecker(inst, cast=cast_by(pools))
    for profile in product(*pools):
        accepted = checker._general_accepts(profile)
        assert checker.accepts(profile) == accepted, profile
        if accepted and certify_manipulation(inst, profile):
            return Verdict(True, profile)
    return man.NO


@st.composite
def manipulation_instances(draw):
    rule = draw(st.sampled_from([AV, SAV, NSAV, PAV, MAV]))
    variant = draw(st.sampled_from(["CBCM", "SBCM", "SDCM"]))
    blocked = draw(st.booleans())
    m = draw(st.integers(2, 3 if blocked else 4))
    cands = [f"c{i}" for i in range(m)]
    ballot = st.frozensets(st.sampled_from(cands))
    nonempty = st.frozensets(st.sampled_from(cands), min_size=1)
    honest = draw(st.lists(ballot, max_size=4))
    t = draw(st.integers(1, 2 if blocked or m == 4 else 3))
    manip = draw(st.lists(nonempty, min_size=t, max_size=t))
    blocks = ()
    if blocked:
        # private blocks make the manipulators' option lists differ
        blocks = draw(st.lists(st.lists(nonempty, max_size=2), min_size=t, max_size=t))
    k = draw(st.integers(1, m))
    committee = None
    if variant != "SDCM":
        ws = winners.winning_committees(rule, Election(cands, honest + manip), k, "exhaustive")
        # the winner the manipulators like least leaves them the most to gain
        committee = min(ws.committees, key=lambda w: sum(len(v & set(w)) for v in manip))
    return ManipulationInstance(rule, variant, cands, honest, manip, k, committee, blocks)


def _yes_case(rule, variant, m, honest, manip, blocks, k, committee, pool):
    cands = [f"c{i}" for i in range(m)]
    return ManipulationInstance(rule, variant, cands, honest, manip, k, committee, blocks), pool


# YES instances are rare among random draws, so these make the test compare
# witnesses; the first seven give the manipulators different private blocks
YES_CASES = [
    (AV, "SDCM", 3, [{"c0", "c1"}], [{"c0", "c2"}, {"c1", "c2"}], [[{"c0", "c1", "c2"}], []], 1, None, "auto"),
    (SAV, "SDCM", 3, [{"c1"}, {"c0", "c1"}, {"c0", "c1", "c2"}, {"c0", "c1"}], [{"c1", "c2"}] * 2,
     [[{"c0", "c1", "c2"}, {"c1"}], [{"c0", "c2"}, {"c0", "c1", "c2"}]], 2, None, "unrestricted"),
    (NSAV, "SDCM", 3, [{"c0", "c1", "c2"}, {"c0", "c1"}], [{"c1", "c2"}, {"c0", "c2"}],
     [[{"c0", "c1"}], [{"c0", "c2"}]], 1, None, "with_committee"),
    (PAV, "CBCM", 3, [{"c1"}, {"c0", "c1", "c2"}, {"c0"}], [{"c0", "c2"}] * 2,
     [[{"c2"}, {"c0", "c2"}], [{"c0"}]], 2, {"c0", "c1"}, "auto"),
    (MAV, "CBCM", 3, [{"c0", "c2"}, {"c0", "c1"}, set(), {"c0", "c1", "c2"}], [{"c1", "c2"}] * 2,
     [[], [{"c0", "c1", "c2"}]], 2, {"c0", "c1"}, "with_committee"),
    (MAV, "SBCM", 3, [{"c1", "c2"}, set(), set()], [{"c0", "c1"}] * 2,
     [[], [{"c0", "c1"}, {"c0", "c1", "c2"}]], 2, {"c0", "c2"}, "auto"),
    # same ballots, listed in another order: the first hit is (∅, {c0}), not (∅, {c2})
    (MAV, "SDCM", 3, [set()], [{"c0", "c2"}] * 2, [[{"c2"}], []], 2, None, "with_committee"),
    (SAV, "CBCM", 4, [{"c1"}, set(), {"c3"}, set()], [{"c0", "c2"}, {"c0", "c3"}], [], 2, {"c1", "c3"},
     "unrestricted"),
    (NSAV, "CBCM", 4, [{"c0", "c1", "c2"}, {"c0", "c1", "c2", "c3"}, {"c0", "c1", "c3"}], [{"c2"}, {"c3"}],
     [], 2, {"c0", "c1"}, "auto"),
    (AV, "SDCM", 3, [{"c0", "c2"}, {"c0"}], [{"c1", "c2"}, {"c0", "c1"}, {"c1", "c2"}], [], 1, None,
     "with_committee"),
    (MAV, "CBCM", 3, [set(), {"c0"}, set()], [{"c0", "c1"}] * 3, [], 2, {"c0", "c2"}, "auto"),
    (PAV, "SBCM", 3, [{"c2"}, {"c2"}, {"c0", "c2"}], [{"c1", "c2"}], [], 2, {"c0", "c2"}, "auto"),
    (MAV, "SDCM", 3, [], [{"c0"}, {"c2"}], [], 1, None, "with_committee"),
]


def _with_examples(test):
    for case in YES_CASES:
        test = example(*_yes_case(*case))(test)
    return test


@settings(max_examples=150, deadline=None)
@_with_examples
@given(manipulation_instances(), st.sampled_from(["auto", "with_committee", "unrestricted"]))
def test_bruteforce_matches_ordered_class_count_reference(inst, pool):
    verdict = solve_manipulation_bruteforce(inst, pool=pool)
    expected = reference_bruteforce(inst, pool)
    assert (verdict.yes, verdict.witness) == (expected.yes, expected.witness)


def fresh_checker_bruteforce(inst, pool):
    """The split search's profile order, each profile decided by a checker
    built for it alone and then certified."""
    pools = option_pools(inst, pool)
    if all(options == pools[0] for options in pools):
        profiles = combinations_with_replacement(pools[0], inst.t)
    else:
        profiles = product(*pools)
    for profile in profiles:
        if man._ProfileChecker(inst, cast=cast_by([profile])).accepts(profile) and certify_manipulation(inst, profile):
            return Verdict(True, profile), pools
    return man.NO, pools


@st.composite
def av_split_instances(draw):
    """AV instances with one to three manipulators, sometimes with private
    blocks so that their option lists differ."""
    variant = draw(st.sampled_from(man.VARIANTS))
    t = draw(st.integers(1, 3))
    blocked = draw(st.booleans())
    m = draw(st.integers(2, 4 if t <= 2 and not blocked else 3))
    cands = [f"c{i}" for i in range(m)]
    nonempty = st.frozensets(st.sampled_from(cands), min_size=1)
    honest = draw(st.lists(st.frozensets(st.sampled_from(cands)), max_size=4))
    manip = draw(st.lists(nonempty, min_size=t, max_size=t))
    blocks = draw(st.lists(st.lists(nonempty, max_size=2), min_size=t, max_size=t)) if blocked else ()
    k = draw(st.integers(1, m))
    committee = None
    if variant != "SDCM":
        ws = winners.winning_committees(AV, Election(cands, honest + manip), k, "exhaustive")
        committee = min(ws.committees, key=lambda w: sum(len(v & set(w)) for v in manip))
    return ManipulationInstance(AV, variant, cands, honest, manip, k, committee, blocks)


def av_tie(order, pool):
    """An AV tie that random draws almost never produce: truthfully c0-c3
    all score 2, and both manipulators casting {c0, c1} leaves {c0, c1}
    the only winner, a CBCM YES under either manipulator order."""
    manip = [{"c0", "c1", "c3"}, {"c0", "c1", "c2"}][::order]
    return ManipulationInstance(AV, "CBCM", ["c0", "c1", "c2", "c3"], [{"c2", "c3"}], manip, 2, {"c2", "c3"}), pool


def _with_av_ties(test):
    for order in (1, -1):
        for pool in ("auto", "unrestricted"):
            test = example(*av_tie(order, pool))(test)
    return test


@settings(max_examples=120, deadline=None)
@example(_yes_case(*YES_CASES[0])[0], "auto")
@example(_yes_case(*YES_CASES[9])[0], "with_committee")
@_with_av_ties
@given(av_split_instances(), st.sampled_from(["auto", "unrestricted"]))
def test_av_count_vectors_keep_fresh_checker_verdicts(inst, pool):
    """Deciding each AV count vector once gives the verdict and witness of
    deciding every profile afresh, and decides at most (t+1)^u vectors."""
    decisions = []
    decide = man._ProfileChecker.decide

    def counted(checker, *partition):
        decisions.append(partition)
        return decide(checker, *partition)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(man._ProfileChecker, "decide", counted)
        verdict = solve_manipulation_bruteforce(inst, pool=pool)
    expected, pools = fresh_checker_bruteforce(inst, pool)
    assert (verdict.yes, verdict.witness) == (expected.yes, expected.witness)
    u = len(cast_by(pools))
    assert len(decisions) <= (inst.t + 1) ** u


def reference_split(rule, election, k):
    """(swin, pwin) by the definition, from the full candidate -> score map:
    the threshold is the k-th highest score, and when more than k
    candidates reach it the ones at it are only possible winners."""
    scores = core.additive_scores(rule, election)
    threshold = sorted(scores.values(), reverse=True)[k - 1]
    above = {c for c, score in scores.items() if score > threshold}
    at = {c for c, score in scores.items() if score == threshold}
    if len(above) + len(at) == k:
        return above | at, set()
    return above, at


def reference_levels(swin, pwin, k, v):
    """How many winning committees, swin plus any k - |swin| of pwin, hold
    at least i members of v, for i = 0..k+1."""
    free, inside = k - len(swin), len(pwin & v)
    counts = [0] * (k + 2)
    for j in range(min(inside, free) + 1):
        counts[len(swin & v) + j] = math.comb(inside, j) * math.comb(len(pwin) - inside, free - j)
    return [sum(counts[i:]) for i in range(k + 2)]


def reference_accepts(inst, profile):
    return reference_accepts_split(inst, *reference_split(inst.rule, inst.election_with(profile), inst.k))


def reference_accepts_split(inst, swin, pwin):
    """Do the manipulators accept the committees swin plus any k - |swin|
    of pwin?"""
    free = inst.k - len(swin)
    if inst.variant == "SDCM":
        old_swin, old_pwin = reference_split(inst.rule, inst.full_election, inst.k)
        new_total, old_total = math.comb(len(pwin), free), math.comb(len(old_pwin), inst.k - len(old_swin))
        for v in inst.manipulative_votes:
            new = [count * old_total for count in reference_levels(swin, pwin, inst.k, v)]
            old = [count * new_total for count in reference_levels(old_swin, old_pwin, inst.k, v)]
            if any(a < b for a, b in zip(new, old)) or new == old:
                return False
        return True
    w = inst.current_committee
    for v in inst.manipulative_votes:
        # the fewest approved members a winning committee can have
        if len(swin & v) + max(0, free - len(pwin - v)) <= len(v & w):
            return False
        in_every = swin | (pwin if len(pwin) == free else set())
        if inst.variant == "SBCM" and not v & w <= in_every:
            return False
    return True


@st.composite
def padded_additive_profiles(draw):
    """An AV, SAV or NSAV instance on a roster padded with up to 2,000
    dummies, and several profiles, of several ballot sizes, to decide
    with one checker built with their candidates cast.

    Half the draws plant a tie like `av_tie`'s: under AV the k targets
    and the honest voters' k favourites all score t, each manipulator
    approves the targets and fewer than k favourites, and one profile
    casts only the targets, which lifts them over the favourites.
    """
    rule = draw(st.sampled_from([AV, SAV, NSAV]))
    variant = draw(st.sampled_from(man.VARIANTS))
    planted = draw(st.booleans())
    m = draw(st.integers(4 if planted else 2, 5))
    pad = draw(st.one_of(st.integers(0, 3), st.integers(0, 2000)))
    roster = core.pad_with_dummies(Election([f"c{i}" for i in range(m)], []), pad).candidates
    named = st.sampled_from(roster[:m])
    profiles, favourites = [], ()
    if planted:
        t, k = draw(st.integers(2, 3)), 2
        targets, favourites = frozenset(roster[:k]), roster[k : 2 * k]
        # t - 1 honest votes and one manipulator approve each favourite, and
        # honest votes alone approve the others, who may tie the rest at t
        honest = [frozenset(favourites)] * (t - 1) + [frozenset(roster[2 * k : m])] * draw(st.integers(0, t + 1))
        manip = [targets | set(favourites[i::t]) for i in range(t)]
        profiles.append((targets,) * t)
    else:
        t = draw(st.integers(1, 3))
        honest = draw(st.lists(st.frozensets(named), max_size=4))
        manip = draw(st.lists(st.frozensets(named, min_size=1), min_size=t, max_size=t))
        # now and then k = m, which makes every candidate a winner
        k = len(roster) if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, m + min(pad, 2)))
    union = sorted(frozenset().union(*manip))
    committee = None
    if variant != "SDCM":
        # the favourites if they win, else the winner the manipulators like least
        swin, pwin = reference_split(rule, Election(roster, honest + manip), k)
        committee = swin | set(sorted(pwin, key=lambda c: (c not in favourites, c in union, c))[: k - len(swin)])
    inst = ManipulationInstance(rule, variant, roster, honest, manip, k, committee)
    # cast ballots may be empty, and may reach a dummy no truthful ballot
    # touches; ballots inside the truthful union are the ones that can help
    cast = st.one_of(
        st.frozensets(st.sampled_from(roster[: m + min(pad, 2)])),
        st.frozensets(st.sampled_from(union), max_size=2),
    )
    profiles += draw(st.lists(st.lists(cast, min_size=t, max_size=t).map(tuple), min_size=1, max_size=3))
    return inst, profiles


@settings(max_examples=150, deadline=None)
@given(padded_additive_profiles())
def test_additive_acceptance_matches_the_definition(case):
    """The bitmask acceptance, one checker over several profiles whose
    sizes and candidates its one scale covers, against the definition on
    the whole score map; ties may straddle touched and untouched
    candidates, since dummies and unapproved candidates score alike."""
    inst, profiles = case
    checker = man._ProfileChecker(inst, cast=cast_by(profiles))
    for profile in profiles:
        assert checker.accepts(profile) == reference_accepts(inst, profile), profile


@pytest.mark.parametrize("rule", [AV, SAV], ids=["av", "sav"])
def test_new_ballot_sizes_and_candidates_need_no_rescore(rule, monkeypatch):
    """The honest ballots all have two members. Profiles of one and three
    members, and one that casts a candidate no manipulator approves, are
    priced by the scale the checker builds up front, so scoring happens
    once. One checker decides as the definition and a fresh checker do."""
    cands = ["a", "b", "c", "d", "e"]
    honest = [{"a", "b"}, {"c", "d"}, {"d", "e"}, {"a", "e"}]
    manip = [{"a", "b", "c"}, {"b"}]
    ws = winners.winning_committees(rule, Election(cands, honest + manip), 2, "exhaustive")
    inst = ManipulationInstance(rule, "CBCM", cands, honest, manip, 2, frozenset(ws.committees[0]))
    new_sizes = [({"a"}, {"a", "b", "c"}), ({"b", "c"}, {"c"}), (set(), {"a", "b", "c"}), ({"b"}, {"b"})]
    new_candidate = [({"a", "d"}, {"b"})]
    profiles = [tuple(map(frozenset, profile)) for profile in new_sizes + new_candidate]
    scorings = count_integer_scores(monkeypatch)
    checker = man._ProfileChecker(inst, cast=cast_by(profiles))
    verdicts = [checker.accepts(profile) for profile in profiles]
    assert len(scorings) == 1
    for profile, verdict in zip(profiles, verdicts):
        assert verdict == reference_accepts(inst, profile), profile
        assert verdict == man._ProfileChecker(inst, cast=cast_by([profile])).accepts(profile), profile


def test_additive_solvers_score_each_instance_once(monkeypatch):
    """Every additive manipulation solver scores its instance with at most
    one `core.integer_scores` call, however many ballot sizes, candidates,
    count vectors or partitions it meets."""
    scorings = count_integer_scores(monkeypatch)
    scored = 0
    for i in range(300):
        rng = random.Random(f"one-scoring:{i}")
        rule = rng.choice([AV, SAV, NSAV])
        variant = rng.choice(man.VARIANTS)
        inst = ver.random_manipulation_instance(rng, rule, variant, 4, 4, 3)
        solvers = [
            partial(solve_manipulation_bruteforce, profile_mode="split"),
            partial(solve_manipulation_bruteforce, profile_mode="split", pool="unrestricted"),
            partial(solve_manipulation_bruteforce, profile_mode="common"),
        ]
        if variant == "SDCM":
            solvers.append(solve_sdcm_fpt_m)
        elif rule == AV:
            solvers += [solve_av_const_manipulators, solve_manipulation_fpt_m_av, solve_manipulation_fpt_m_additive]
        else:
            solvers += [solve_savnsav_const_manipulators, solve_manipulation_fpt_m_additive]
        for solver in solvers:
            scorings.clear()
            solver(inst)
            assert len(scorings) <= 1, (i, solver)
            scored += len(scorings)
    assert scored


def count_integer_scores(monkeypatch):
    """A list that collects every `core.integer_scores` call."""
    calls = []
    integer_scores = core.integer_scores

    def counted(*args):
        calls.append(args)
        return integer_scores(*args)

    monkeypatch.setattr(core, "integer_scores", counted)
    return calls


@settings(max_examples=100, deadline=None)
@given(padded_additive_profiles(), st.data())
def test_partition_acceptance_matches_the_definition(case, data):
    """`decide` on any split the FPT search may guess, realizable or not,
    such as a possible winner filling the last seats exactly."""
    inst, _ = case
    named = sorted(inst.approved_union | (inst.current_committee or set()))
    swin = data.draw(st.sets(st.sampled_from(named), max_size=inst.k))
    others = [c for c in inst.candidates if c not in swin]
    few = others[: len(named) + 2]
    pwin = data.draw(st.sets(st.sampled_from(few)) if few else st.just(set()))
    # top up to the seats left, which under k = m is the whole roster
    pwin |= set([c for c in others if c not in pwin][: inst.k - len(swin) - len(pwin)])
    checker = man._ProfileChecker(inst)
    decided = checker.decide(checker.mask(swin), len(swin), checker.mask(pwin), len(pwin))
    assert decided == reference_accepts_split(inst, swin, pwin)


@st.composite
def clone_heavy_profiles(draw):
    """A PAV, ABCCV, MAV or `COPRIME_THIELE` instance whose roster falls
    into up to three blocks of clones, and profiles to decide with one
    checker.

    Honest ballots are unions of blocks, and so are many cast ballots, so
    the manipulated election keeps large approval classes; truthful
    ballots and the displaced committee may take part of one. The other
    profiles lean to YES: all manipulators cast one k-subset of their
    union.
    """
    rule = draw(st.sampled_from([PAV, ABCCV, MAV, COPRIME_THIELE]))
    variant = draw(st.sampled_from(man.VARIANTS))
    m = draw(st.integers(3, 7))
    cands = [f"c{i}" for i in range(m)]
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), max_size=2)))
    blocks = [frozenset(cands[a:b]) for a, b in zip([0, *cuts], [*cuts, m])]
    unions = st.sets(st.sampled_from(blocks)).map(lambda chosen: frozenset().union(*chosen))
    honest = draw(st.lists(unions, max_size=4))
    t = draw(st.integers(1, 3))
    manip = draw(st.lists(st.frozensets(st.sampled_from(cands), min_size=1), min_size=t, max_size=t))
    k = draw(st.integers(1, m))
    committee = None
    if variant != "SDCM":
        ws = winners.winning_committees(rule, Election(cands, honest + manip), k, "exhaustive")
        # the winner the manipulators like least leaves them the most to gain
        committee = min(ws.committees, key=lambda w: sum(len(v & set(w)) for v in manip))
    inst = ManipulationInstance(rule, variant, cands, honest, manip, k, committee)
    union = sorted(inst.approved_union)
    cast = st.one_of(unions, st.frozensets(st.sampled_from(cands)))
    profile = st.lists(cast, min_size=t, max_size=t).map(tuple)
    if len(union) >= k:
        common = st.sets(st.sampled_from(union), min_size=k, max_size=k).map(lambda s: (frozenset(s),) * t)
        profile = st.one_of(profile, common)
    return inst, draw(st.lists(profile, min_size=1, max_size=3))


def defined_accepts(inst, profile):
    """Acceptance by the definition, over the exhaustive winners of the
    manipulated election."""
    new = winners.winning_committees(inst.rule, inst.election_with(profile), inst.k, "exhaustive").committees
    if inst.variant == "SDCM":
        old = winners.winning_committees(inst.rule, inst.full_election, inst.k, "exhaustive").committees
        return all(sd_dominates(new, old, v).dominates for v in inst.manipulative_votes)
    which = "cardinality" if inst.variant == "CBCM" else "subset"
    return all(prefers(which, v, w, inst.current_committee) for v in inst.manipulative_votes for w in new)


def _acceptance_case(rule, variant, m, honest, manip, k, committee, profile):
    cands = [f"c{i}" for i in range(m)]
    inst = ManipulationInstance(rule, variant, cands, honest, manip, k, committee)
    return inst, [tuple(map(frozenset, profile))]


# cases where a truthful ballot or the displaced committee holds part of an
# approval class of the manipulated election; all but the third and fourth
# are YES
ACCEPTANCE_CASES = [
    # the one winner {c1, c2} takes nobody from the class {c0, c3, c4}, which holds c4 of v
    (ABCCV, "SBCM", 5, [{"c2"}, set(), {"c0", "c1", "c2", "c3", "c4"}], [{"c1", "c2", "c4"}], 2, {"c0", "c2"},
     [{"c1"}]),
    (ABCCV, "CBCM", 4, [{"c3"}, {"c0", "c1", "c2", "c3"}, set(), {"c3"}], [{"c1", "c2", "c3"}] * 2, 2,
     {"c0", "c3"}, [{"c1"}] * 2),
    # every winner holds c3 and one of {c0, c1}, so some winner drops c0 of v ∩ W
    (ABCCV, "SBCM", 5, [set(), {"c0", "c1"}], [{"c0", "c1", "c3"}], 2, {"c0", "c2"}, [{"c3"}]),
    (ABCCV, "SDCM", 4, [set()], [{"c0", "c2"}], 2, None, [{"c0", "c1"}]),
    (MAV, "CBCM", 5, [set(), {"c1", "c2", "c3", "c4"}], [{"c1", "c4"}] * 2, 2, {"c1", "c2"}, [{"c0", "c1", "c4"}] * 2),
    (MAV, "SBCM", 6, [{"c0"}], [{"c0", "c1", "c3"}], 5, {"c0", "c1", "c2", "c4", "c5"}, [{"c1", "c3"}]),
    (PAV, "SBCM", 6, [{"c0", "c1"}, {"c0", "c2", "c3", "c4", "c5"}, {"c0", "c1"}], [{"c0", "c2", "c3", "c4"}], 2,
     {"c0", "c1"}, [{"c2"}]),
    (PAV, "SDCM", 4, [{"c0"}, {"c0"}], [{"c2"}, {"c3"}], 1, None, [{"c2", "c3"}] * 2),
    (COPRIME_THIELE, "SDCM", 6, [{"c1", "c2", "c3", "c4", "c5"}, {"c0", "c1", "c2", "c3", "c4", "c5"}, set()],
     [{"c0", "c1", "c2", "c4", "c5"}, {"c0", "c3", "c4", "c5"}], 3, None, [{"c0", "c4", "c5"}] * 2),
]


def _with_acceptance_cases(test):
    for case in ACCEPTANCE_CASES:
        test = example(_acceptance_case(*case))(test)
    return test


@settings(max_examples=300, deadline=None)
@_with_acceptance_cases
@given(clone_heavy_profiles())
def test_general_acceptance_matches_the_definition(case):
    """The closed forms over the manipulated election's approval classes,
    where truthful ballots and the displaced committee cut classes."""
    inst, profiles = case
    checker = man._ProfileChecker(inst)
    for profile in profiles:
        assert checker._general_accepts(profile) == defined_accepts(inst, profile), profile


def test_split_cap_counts_walked_profiles(monkeypatch):
    # 8 ballots over the union {a, b, c} and t = 3: the cap counts the
    # C(10, 3) = 120 multisets the search would visit, not 8**3 = 512
    # ordered profiles; under AV it decides their 4**3 = 64 count vectors
    # first, and since none is accepted it walks no profile at all
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    inst = ManipulationInstance(
        AV, "CBCM", ["a", "b", "c", "d"], [{"d"}] * 3, [{"a", "b"}, {"b", "c"}, {"a", "c"}], 1, {"d"}
    )
    with pytest.raises(ResourceCapError, match="^120 ballot profiles exceed the cap 119$"):
        solve_manipulation_bruteforce(inst, cap=119)
    walked, decided = count_walk_and_decisions(monkeypatch)
    assert not solve_manipulation_bruteforce(inst, cap=120).yes
    assert len(walked) == 0
    assert len(decided) == 64


def count_walk_and_decisions(monkeypatch):
    """Lists that collect the multisets the split search walks and the
    partitions its acceptance decides."""
    walked, decided = [], []
    walk = man.combinations_with_replacement
    decide = man._ProfileChecker.decide

    def counted_walk(options, t):
        for profile in walk(options, t):
            walked.append(profile)
            yield profile

    def counted(checker, *partition):
        decided.append(partition)
        return decide(checker, *partition)

    monkeypatch.setattr(man, "combinations_with_replacement", counted_walk)
    monkeypatch.setattr(man._ProfileChecker, "decide", counted)
    return walked, decided


@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("pool", ["auto", "unrestricted"])
def test_split_walk_stops_at_the_first_witness(monkeypatch, order, pool):
    # on the AV tie all 3**4 count vectors are decided up front, then the
    # walk meets the multisets in order and stops at the first accepted one
    inst, pool = av_tie(order, pool)
    expected, pools = fresh_checker_bruteforce(inst, pool)
    walked, decided = count_walk_and_decisions(monkeypatch)
    verdict = solve_manipulation_bruteforce(inst, pool=pool)
    assert verdict.yes and verdict.witness == expected.witness
    assert certify_manipulation(inst, verdict.witness)
    assert len(decided) == 3**4
    profiles = list(combinations_with_replacement(pools[0], 2))
    assert walked == profiles[: profiles.index(verdict.witness) + 1]


def test_split_cap_counts_distinct_ballots_per_pool(monkeypatch):
    # the first manipulator's block {a} lies in the base pool {a, b}, so its
    # 4 bases x 2 extras give 4 distinct ballots; the second's block {e}
    # gives 8. The pools differ, so the walk is their 4 * 8 = 32 products
    # (the count before pools were deduplicated was 2 * 2 * 4**2 = 64)
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    inst = ManipulationInstance(
        AV, "CBCM", ["a", "b", "c", "d", "e"], [{"d"}] * 3, [{"a"}, {"b"}], 1, {"d"},
        ballot_blocks=[[{"a"}], [{"e"}]],
    )
    with pytest.raises(ResourceCapError, match="^32 ballot profiles exceed the cap 31$"):
        solve_manipulation_bruteforce(inst, cap=31)
    assert not solve_manipulation_bruteforce(inst, cap=32).yes


def test_padded_sdcm_certifies_without_the_partition(monkeypatch):
    # C(503, 2) > 100,000 committees, so certification takes the fallback,
    # which must not lean on the partition path the search used
    cands = core.pad_with_dummies(Election(["c0", "c1", "c2"], []), 500).candidates
    honest = [{"c0", "c1", "c2"}, {"c0"}, set(), {"c0", "c2"}]
    inst = ManipulationInstance(SAV, "SDCM", cands, honest, [{"c0", "c1"}], 2)
    verdict = solve_manipulation_bruteforce(inst)
    assert verdict.yes and verdict.witness == (frozenset({"c1"}),)

    def refuse(*args):
        raise AssertionError("certification decided SDCM through the threshold partition")

    monkeypatch.setattr(man._ProfileChecker, "decide", refuse)
    scorings = count_integer_scores(monkeypatch)
    assert certify_manipulation(inst, verdict.witness)
    assert not certify_manipulation(inst, inst.manipulative_votes)
    assert scorings == []


def test_padded_cbcm_certifies_without_the_partition(monkeypatch):
    # the CBCM/SBCM counterpart: C(503, 2) > 100,000 committees again
    cands = core.pad_with_dummies(Election(["c0", "c1", "c2"], []), 500).candidates
    honest = [{"c0"}, set(), {"c0", "c2"}]
    inst = ManipulationInstance(SAV, "CBCM", cands, honest, [{"c0", "c1"}], 2, {"c0", "c2"})
    verdict = solve_manipulation_bruteforce(inst)
    assert verdict.yes and verdict.witness == (frozenset({"c1"}),)

    def refuse(*args):
        raise AssertionError("certification decided CBCM through the threshold partition")

    monkeypatch.setattr(man._ProfileChecker, "decide", refuse)
    scorings = count_integer_scores(monkeypatch)
    assert certify_manipulation(inst, verdict.witness)
    assert not certify_manipulation(inst, inst.manipulative_votes)
    assert scorings == []


@pytest.mark.parametrize("mode", ["split", "common"])
def test_cap_refuses_before_listing_ballots(monkeypatch, mode):
    # 2^28 ballots over the whole roster: the cap is checked from the pool
    # size alone, before a single ballot is built
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    cands = [f"c{i}" for i in range(28)]
    inst = ManipulationInstance(SAV, "CBCM", cands, [{"c0"}, {"c0", "c1"}], [{"c1", "c2"}], 1, {"c0"})

    def refuse(*args):
        raise AssertionError("listed ballots before checking the cap")

    monkeypatch.setattr(man, "_sorted_ballots", refuse)
    with pytest.raises(ResourceCapError, match="^268435456 ballot profiles exceed the cap 2000000$"):
        solve_manipulation_bruteforce(inst, profile_mode=mode, pool="unrestricted")


# draws past the first 250 that are YES instances, so witnesses get pinned too
PIN_YES_DRAWS = (
    502, 559, 610, 1044, 1206, 1411, 2074, 2384, 2750, 3163, 3437, 3570, 6406, 6607,
    6949, 8248, 8852, 8949, 9658, 11501, 12905, 15323, 15445, 17354, 17720, 22708,
    23864, 25297, 28100,
)
PIN_SHA256 = "ba065a64ca76adf4b1c3ae506335899aef6e32f82792f736e9ecada37be7bdef"


def test_witness_pin():
    """Verdicts and witnesses of the searches are those recorded before the
    multiset walk and the integer SAV/NSAV search."""
    digest = hashlib.sha256()
    for i in [*range(250), *PIN_YES_DRAWS]:
        rng = random.Random(f"witness-pin:{i}")
        rule = rng.choice([AV, SAV, NSAV, PAV, MAV])
        variant = rng.choice(["CBCM", "SBCM", "SDCM"])
        m_max, t_max = (3, 3) if i % 3 == 0 else (4, 2)
        inst = ver.random_manipulation_instance(rng, rule, variant, m_max, 4, t_max)
        verdicts = [solve_manipulation_bruteforce(inst)]
        if rule in (SAV, NSAV) and variant != "SDCM":
            verdicts.append(solve_savnsav_const_manipulators(inst))
        for v in verdicts:
            witness = v.witness and tuple(tuple(sorted(b)) for b in v.witness)
            digest.update(repr((i, v.yes, witness)).encode())
    assert digest.hexdigest() == PIN_SHA256


# (rule, variant, t, dummies) -> draws of `yes_leaning_instance` that brute
# force answers YES
SAVNSAV_PIN_DRAWS = {
    (SAV, "CBCM", 3, 0): (36, 39, 43, 45, 61, 109, 118),
    (NSAV, "CBCM", 3, 0): (27, 51, 82),
    (SAV, "SBCM", 3, 0): (76,),
    (NSAV, "SBCM", 3, 0): (12,),
    (NSAV, "CBCM", 3, 20): (45, 61, 93),
    (NSAV, "SBCM", 3, 20): (115,),
    (NSAV, "CBCM", 2, 200): (34, 51),
    (NSAV, "SBCM", 2, 200): (38, 81),
}
SAVNSAV_PIN_SHA256 = "36c4eb4bcd75c9850b20db3768d7e44529f52af34273f6591103918208e8ebba"


def test_savnsav_witness_pin():
    """Verdicts and witnesses of the SAV/NSAV constant-manipulator search
    on YES instances with three manipulators, SBCM and padded NSAV
    rosters, as recorded before its threshold window and options memo."""
    digest = hashlib.sha256()
    for (rule, variant, t, pad), yes_draws in SAVNSAV_PIN_DRAWS.items():
        for i in yes_draws:
            rng = random.Random(f"savnsav-pin:{rule.kind}:{variant}:{t}:{pad}:{i}")
            inst = yes_leaning_instance(rng, rule, variant, t, pad)
            verdict = solve_savnsav_const_manipulators(inst)
            assert verdict.yes and certify_manipulation(inst, verdict.witness)
            witness = verdict.witness and tuple(tuple(sorted(b)) for b in verdict.witness)
            digest.update(repr((rule.kind, variant, t, pad, i, verdict.yes, witness)).encode())
    assert digest.hexdigest() == SAVNSAV_PIN_SHA256
