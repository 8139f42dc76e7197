"""`abmv.solve`: the algorithm tables, the auto choice and the CLI's `--algo` lists."""

import argparse

import pytest

import abmv
from abmv import cli, control as ctl, manipulation as man
from abmv.core import AV, MAV, NSAV, PAV, SAV, Election, Verdict, thiele
from abmv.winners import winning_committees

EX1_CANDIDATES = ["x", "y", "z", "a", "b", "c", "d1", "d2", "d3"]
EX1_HONEST = [{"x", "y", "z", "a"}] * 4 + [{"x", "y", "z", "d3"}] * 3
EX1_MANIPULATORS = [{"a", "b", "d1"}, {"a", "c", "d2"}, {"b", "c"}]


def ex1(rule=SAV, variant="CBCM"):
    committee = None if variant == "SDCM" else {"x", "y"}
    return man.ManipulationInstance(
        rule, variant, EX1_CANDIDATES, EX1_HONEST, EX1_MANIPULATORS, 2, committee
    )


def small_manip(rule=AV, variant="CBCM", t=2):
    """Five candidates, t manipulators; the displaced committee is the first winner."""
    honest = [{"a", "b"}, {"a", "b"}, {"a", "c"}, {"b"}, {"d"}]
    manipulators = [{"c", "d"}, {"c", "e"}, {"d", "e"}, {"c"}][:t]
    committee = None
    if variant != "SDCM":
        truthful = Election("abcde", honest + manipulators)
        committee = winning_committees(rule, truthful, 2).committees[0]
    return man.ManipulationInstance(rule, variant, "abcde", honest, manipulators, 2, committee)


def voter_control(ctype, rule, budget=1):
    unregistered = [{"a"}, {"a", "d"}, {"c"}] if ctype != "CCDV" else []
    return ctl.ControlInstance(
        ctype, rule, "abcde", [{"a", "b"}, {"c"}, {"b", "c"}, {"a", "d"}, {"e"}], 2, {"a"},
        unregistered_votes=unregistered,
        budget_add=budget if ctype != "CCDV" else None,
        budget_delete=budget if ctype != "CCAV" else None,
    )


def candidate_control(ctype="CCADC", rule=SAV):
    return ctl.ControlInstance(
        ctype, rule, ["p", "a", "b"], [{"a"}, {"a", "x"}, {"p", "b"}, {"b"}, {"p", "x"}], 1, {"p"},
        unregistered_candidates=["x"],
        budget_add=1 if ctype != "CCDC" else None,
        budget_delete=1 if ctype != "CCAC" else None,
    )


# (table, algorithm, instance, options); every table entry needs one case
CASES = [
    (man, "bruteforce", ex1(), {}),
    (man, "bruteforce", ex1(), {"profile_mode": "common"}),
    (man, "bruteforce", small_manip(MAV), {"pool": "with_committee"}),
    (man, "const-manipulators", ex1(), {}),
    (man, "const-manipulators", small_manip(AV), {}),
    (man, "av-fpt-candidates", small_manip(AV, "SBCM"), {}),
    (man, "av-fpt-candidates", small_manip(AV, "SBCM", t=3), {}),
    (man, "additive-fpt-candidates", small_manip(NSAV), {}),
    (man, "additive-fpt-candidates", small_manip(NSAV, t=4), {}),
    (man, "sdcm-fpt-candidates", small_manip(SAV, "SDCM"), {}),
    (ctl, "bruteforce", voter_control("CCADV", PAV), {}),
    (ctl, "ccdv-mav-poly", voter_control("CCDV", MAV), {}),
    (ctl, "additive-fpt", voter_control("CCAV", SAV), {}),
    (ctl, "thiele-fpt", voter_control("CCDV", PAV), {}),
    (ctl, "ccav-mav-fpt", voter_control("CCAV", MAV, budget=2), {}),
    (ctl, "color-coding", candidate_control(), {}),
    (ctl, "color-coding", candidate_control(rule=MAV), {}),
    (ctl, "color-coding", candidate_control(rule=PAV), {"hash_mode": "randomized", "seed": 3}),
]


def test_every_table_entry_has_a_case():
    for module in (man, ctl):
        assert {name for table, name, _, _ in CASES if table is module} == set(module.ALGORITHMS)


@pytest.mark.parametrize("module,name,instance,options", CASES)
def test_solve_returns_the_solver_verdict(module, name, instance, options):
    solver, takes = module.ALGORITHMS[name]
    assert set(options) <= set(takes)
    assert abmv.solve(instance, name, **options) == (name, solver(instance, **options))


def test_cases_reach_both_answers():
    for module in (man, ctl):
        answers = {abmv.solve(instance, name, **options)[1].yes for table, name, instance, options in CASES
                   if table is module}
        assert answers == {True, False}


def test_options_a_solver_does_not_name_are_dropped():
    # the CLI passes --mode whatever auto picks; only brute force reads it
    algorithm, verdict = abmv.solve(ex1(), profile_mode="common", hash_mode="randomized")
    assert (algorithm, verdict) == ("const-manipulators", man.solve_const_manipulators(ex1()))
    assert abmv.solve(ex1(), "bruteforce", profile_mode="common")[1].yes is False


def test_unknown_algorithm_raises_value_error():
    with pytest.raises(ValueError, match="unknown algorithm 'color-coding'"):
        abmv.solve(ex1(), "color-coding")


@pytest.mark.parametrize("rule,answer", [(MAV, True), (SAV, False)])
def test_jcc_control_is_decided_whatever_the_algorithm(rule, answer):
    # {a} alone has the least maximum distance under MAV; a ties with b under SAV
    instance = ctl.ControlInstance("JCC", rule, "abcd", [{"b"}, {"a", "c"}, {"a", "d"}], 1, {"a"})
    for algo in ("auto", "color-coding"):
        assert abmv.solve(instance, algo) == ("jcc", Verdict(answer))


def test_a_failed_certification_raises(monkeypatch):
    # three empty ballots leave x and y winning, which no manipulator prefers
    bogus = Verdict(True, (frozenset(),) * 3)
    monkeypatch.setitem(man.ALGORITHMS, "bruteforce", (lambda instance: bogus, ()))
    with pytest.raises(AssertionError, match="certification"):
        abmv.solve(ex1(), "bruteforce")


# YES instances of every solver that returns its own search's witness
# uncertified; `abmv.solve` certifies for them
SELF_DECIDING = [
    (man.solve_av_const_manipulators, small_manip(AV, t=3)),
    (man.solve_savnsav_const_manipulators, ex1()),
    (man.solve_manipulation_fpt_m_av, small_manip(AV, "SBCM", t=3)),
    (man.solve_manipulation_fpt_m_additive, small_manip(NSAV)),
    (man.solve_sdcm_fpt_m, small_manip(SAV, "SDCM")),
    (ctl.solve_ccdv_mav_poly, voter_control("CCDV", MAV)),
    (ctl.solve_ccadv_additive_fpt, voter_control("CCAV", SAV)),
    (ctl.solve_ccadv_thiele_fpt, voter_control("CCDV", PAV)),
]


@pytest.mark.parametrize("solver,instance", SELF_DECIDING, ids=[s.__name__ for s, _ in SELF_DECIDING])
def test_specialised_solvers_do_not_certify_their_own_witness(monkeypatch, solver, instance):
    certify = man.certify_manipulation if solver.__module__ == man.__name__ else ctl.control_succeeds

    def refuse(*args):
        raise AssertionError("certified inside the search")

    monkeypatch.setattr(man, "certify_manipulation", refuse)
    monkeypatch.setattr(ctl, "control_succeeds", refuse)
    verdict = solver(instance)
    assert verdict.yes
    assert certify(instance, verdict.witness)


@pytest.mark.parametrize(
    "instance,algorithm",
    [
        (ex1(SAV), "const-manipulators"),  # three manipulators
        (ex1(AV, "SBCM"), "const-manipulators"),
        (small_manip(NSAV, t=4), "additive-fpt-candidates"),
        (small_manip(SAV, "SBCM", t=4), "additive-fpt-candidates"),
        (man.ManipulationInstance(  # four manipulators, nine candidates
            AV, "CBCM", EX1_CANDIDATES, EX1_HONEST, EX1_MANIPULATORS + [{"c"}], 2, {"x", "y"}
        ), "bruteforce"),
        (small_manip(SAV, "SDCM"), "sdcm-fpt-candidates"),
        (ex1(SAV, "SDCM"), "bruteforce"),  # nine candidates
        (small_manip(MAV), "bruteforce"),
        (small_manip(PAV, "SDCM"), "bruteforce"),
        (voter_control("CCDV", MAV), "ccdv-mav-poly"),
        (voter_control("CCAV", MAV), "ccav-mav-fpt"),
        (voter_control("CCADV", MAV), "bruteforce"),
        (voter_control("CCADV", SAV), "additive-fpt"),
        (voter_control("CCDV", NSAV), "additive-fpt"),
        (voter_control("CCAV", PAV), "thiele-fpt"),
        (voter_control("CCDV", thiele([0, 1, 1])), "thiele-fpt"),
        # color coding's hash family can pass its cap where brute force is quick
        (candidate_control("CCAC", MAV), "bruteforce"),
        (candidate_control("CCDC", SAV), "bruteforce"),
        (candidate_control("CCADC", PAV), "bruteforce"),
        (ctl.ControlInstance("JCC", SAV, "ab", [{"a"}], 1, {"a"}), "bruteforce"),
        # 4 committees holding a against the one action of a zero budget
        (voter_control("CCDV", PAV, budget=0), "bruteforce"),
    ],
)
def test_auto_algorithm(instance, algorithm):
    module = man if isinstance(instance, man.ManipulationInstance) else ctl
    assert module.auto_algorithm(instance) == algorithm


def _algo_choices(command):
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return next(a.choices for a in subparsers.choices[command]._actions if a.dest == "algo")


def test_cli_algo_choices_are_pinned():
    """Renaming a table entry renames a CLI choice; scripts depend on these."""
    assert _algo_choices("solve-manip") == [
        "auto", "additive-fpt-candidates", "av-fpt-candidates", "bruteforce",
        "const-manipulators", "sdcm-fpt-candidates",
    ]
    assert _algo_choices("solve-control") == [
        "auto", "additive-fpt", "bruteforce", "ccav-mav-fpt", "ccdv-mav-poly",
        "color-coding", "thiele-fpt",
    ]
