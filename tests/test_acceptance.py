"""Acceptance gate: one test per criterion, each printing a verdict line.

Everything here is exact (rational equality, integer counts); the time
budgets are wall-clock ceilings for the whole criterion.
"""

import random
import time
from fractions import Fraction

from abmv import control as ctl
from abmv import core, manipulation as man
from abmv import reductions as red
from abmv import verification, winners
from abmv.core import ABCCV, MAV, PAV, SAV, Election


def report(name, ok, elapsed, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"[acceptance] {name}: {status} ({elapsed:.2f}s){tail}")
    assert ok


EXAMPLE1_CANDIDATES = ["x", "y", "z", "a", "b", "c", "d1", "d2", "d3"]
EXAMPLE1_HONEST = [{"x", "y", "z", "a"}] * 4 + [{"x", "y", "z", "d3"}] * 3
EXAMPLE1_MANIPULATIVE = [{"a", "b", "d1"}, {"a", "c", "d2"}, {"b", "c"}]


def test_criterion_1_example1_fixture():
    start = time.time()
    election = Election(EXAMPLE1_CANDIDATES, EXAMPLE1_HONEST + EXAMPLE1_MANIPULATIVE)
    scores = core.additive_scores(SAV, election)
    ok = (
        scores["x"] == scores["y"] == scores["z"] == Fraction(7, 4)
        and scores["a"] == Fraction(5, 3)
        and scores["b"] == scores["c"] == Fraction(5, 6)
    )
    ws = winners.winning_committees(SAV, election, 2)
    ok = ok and set(ws.committees) == {("x", "y"), ("x", "z"), ("y", "z")}
    instance = man.ManipulationInstance(
        SAV, "CBCM", EXAMPLE1_CANDIDATES, EXAMPLE1_HONEST, EXAMPLE1_MANIPULATIVE, 2, {"x", "y"}
    )
    split = man.solve_manipulation_bruteforce(instance)
    common = man.solve_manipulation_bruteforce(instance, profile_mode="common")
    ok = ok and split.yes and len(set(split.witness)) > 1 and not common.yes
    ok = ok and man.certify_manipulation(instance, split.witness)
    elapsed = time.time() - start
    report("1 example-1 fixture", ok and elapsed < 1.0, elapsed)


def test_criterion_2_table_fixtures():
    start = time.time()
    rng = random.Random(210)
    ok = True
    for kappa in (1, 3):
        src = (
            red.Rx3cInstance(["a1", "a2", "a3"], [("a1", "a2", "a3")] * 3)
            if kappa == 1
            else red.random_rx3c(3, rng)
        )
        ccdv = red.generate("CcdvSavRx3c", src)
        scores = core.additive_scores(SAV, ccdv.base_election)
        ok = ok and scores["p"] == Fraction(5, 6)
        ok = ok and all(scores[a] == 1 for a in src.universe)
        ok = ok and scores["d1"] == Fraction(1, 2) and scores["d2"] == scores["d3"] == Fraction(1, 3)
        ccac = red.generate("CcacSavRx3c", src)
        scores = core.additive_scores(SAV, ccac.base_election)
        ok = ok and scores["p"] == Fraction(11, 6)
        ok = ok and all(scores[f"c({a})"] == 2 for a in src.universe)
        if kappa == 3:
            ccdc = red.generate("CcdcSavRx3c", src)
            scores = core.additive_scores(SAV, ccdc.base_election)
            ok = ok and scores["p"] == 9 * kappa + 6
            ok = ok and all(scores[f"c({a})"] == 11 * kappa + 4 for a in src.universe)
            ok = ok and all(
                scores[f"c(H{i})"] == 9 * kappa + 3 for i in range(len(src.sets))
            )
    elapsed = time.time() - start
    report("2 table fixtures", ok and elapsed < 2.0, elapsed)


def test_criterion_3_lemma1_suite():
    start = time.time()
    result = verification.run_lemma1_suite(trials=500, seed=1)
    elapsed = time.time() - start
    report(
        "3 lemma-1 suite", result.ok and result.trials == 500 and elapsed < 30.0,
        elapsed, f"{result.trials} elections",
    )


def test_criterion_4_lemma2_suite():
    start = time.time()
    result = verification.run_lemma2_suite(trials=200, seed=2)
    elapsed = time.time() - start
    report("4 lemma-2 suite", result.ok and result.trials == 200, elapsed, f"{result.trials} elections")


def test_criterion_5_examples_2_and_3():
    start = time.time()
    restricted = Election(["a", "b"], [{"b"}, {"a"}, {"a"}])
    before = winners.winning_committees(MAV, restricted, 1)
    full = Election(["a", "b", "c", "d"], [{"b"}, {"a", "c"}, {"a", "d"}])
    after = winners.winning_committees(MAV, full, 1)
    ok = set(before.committees) == {("a",), ("b",)} and after.committees == (("a",),)

    abccv = ctl.ControlInstance(
        "CCAC", ABCCV, ["a", "b", "c"],
        [{"a"}, {"b", "d"}, {"b", "d"}, {"c", "d"}, {"c", "d"}],
        2, {"a"}, unregistered_candidates=["d"], budget_add=1,
    )
    ok = ok and winners.winning_committees(ABCCV, abccv.base_election, 2).committees == (("b", "c"),)
    flipped = ctl.apply_control(abccv, ctl.ControlSolution(added_candidates=("d",)))
    ok = ok and winners.winning_committees(ABCCV, flipped, 2).committees == (("a", "d"),)

    pav = ctl.ControlInstance(
        "CCAC", PAV, ["a", "b", "c"],
        [{"a"}, {"a"}] + [{"b", "d"}] * 3 + [{"c", "d"}] * 3,
        2, {"a"}, unregistered_candidates=["d"], budget_add=1,
    )
    ok = ok and winners.winning_committees(PAV, pav.base_election, 2).committees == (("b", "c"),)
    flipped = ctl.apply_control(pav, ctl.ControlSolution(added_candidates=("d",)))
    ok = ok and winners.winning_committees(PAV, flipped, 2).committees == (("a", "d"),)
    elapsed = time.time() - start
    report("5 examples 2 and 3", ok, elapsed)


def test_criterion_6_reduction_round_trips():
    start = time.time()
    result = verification.run_reduction_suite(seed=3)
    elapsed = time.time() - start
    report(
        "6 reduction round trips",
        result.ok and result.trials >= 200 and elapsed < 300.0,
        elapsed, f"{result.trials} round trips",
    )


def test_criterion_7_algorithm_oracle_agreement():
    start = time.time()
    result = verification.run_agreement_suite(trials=100, seed=4)
    elapsed = time.time() - start
    report(
        "7 algorithm/oracle agreement",
        result.ok and result.trials >= 1100 and elapsed < 600.0,
        elapsed,
        f"{result.trials} trials, {result.yes_verdicts} YES verdicts",
    )


def test_criterion_8_immunity_fuzz():
    start = time.time()
    result = verification.run_immunity_suite(trials=200, seed=5)
    elapsed = time.time() - start
    report("8 immunity fuzz", result.ok and result.trials == 200, elapsed, f"{result.trials} instances")


def test_criterion_9_witness_certification():
    start = time.time()
    result = verification.run_agreement_suite(trials=40, seed=9)
    ok = result.ok and result.yes_verdicts > 0 and result.certified == result.yes_verdicts
    elapsed = time.time() - start
    report(
        "9 witness certification", ok, elapsed,
        f"{result.certified}/{result.yes_verdicts} YES verdicts certified",
    )
