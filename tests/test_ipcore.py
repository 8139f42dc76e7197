import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from abmv import control as ctl, ipcore, manipulation as man, verification as ver
from abmv.core import AV, NSAV, PAV, SAV, ResourceCapError
from abmv.ipcore import IntegerProgram, check_solution, solve_ip


def simple_program(constraints, bounds):
    program = IntegerProgram()
    for name, lo, hi in bounds:
        program.add_variable(name, lo, hi)
    for coeffs, rel, rhs in constraints:
        program.add_constraint(coeffs, rel, rhs)
    return program


def test_infeasible_pair():
    p = simple_program([([("x", 1)], ">=", 1), ([("x", 1)], "<=", 0)], [("x", 0, 5)])
    assert solve_ip(p).status == ipcore.INFEASIBLE


def test_equality():
    p = simple_program([([("x", 2)], "=", 4)], [("x", 0, 3)])
    result = solve_ip(p)
    assert result.feasible and result.assignment == {"x": 2}


def test_check_solution():
    p = simple_program([([("x", 2)], "=", 4)], [("x", 0, 3)])
    assert check_solution(p, {"x": 2})
    assert not check_solution(p, {"x": 1})


def test_unbounded_variable_rejected():
    p = IntegerProgram()
    with pytest.raises(ValueError):
        p.add_variable("x", None, 4)


def test_cap_exceeded_is_distinct():
    p = IntegerProgram()
    for i in range(12):
        p.add_variable(f"x{i}", 0, 6)
    # a constraint only full assignments can violate keeps propagation useless
    p.add_constraint([(f"x{i}", 1) for i in range(12)], "=", 37)
    p.add_constraint([(f"x{i}", (-1) ** i) for i in range(12)], "=", 1)
    with pytest.raises(ResourceCapError):
        solve_ip(p, node_cap=25)
    # the cap hit is not a verdict: the same program is feasible
    assert solve_ip(p, node_cap=10_000).feasible


RELATION_HOLDS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}
small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=3)
expressions = st.tuples(
    small_fraction, st.dictionaries(st.sampled_from(["x", "y", "z"]), small_fraction, max_size=3)
)


@settings(max_examples=200, deadline=None)
@given(expressions, st.sampled_from(ipcore.RELATIONS), expressions)
def test_comparison_rows_accept_exactly_the_true_comparisons(left, relation, right):
    p = IntegerProgram()
    for name in ("x", "y", "z"):
        p.add_variable(name, -2, 2)
    p.add_comparison(left, relation, right)

    def value(expr, assignment):
        const, coeffs = expr
        return const + sum(c * assignment[name] for name, c in coeffs.items())

    for values in product(range(-2, 3), repeat=3):
        assignment = dict(zip(("x", "y", "z"), values))
        holds = RELATION_HOLDS[relation](value(left, assignment), value(right, assignment))
        assert check_solution(p, assignment) == holds


def _ccadv(rule, votes, k, wanted, unregistered, budget_add, budget_delete):
    cands = sorted(set().union(*votes, *unregistered, wanted))
    return ctl.ControlInstance(
        "CCADV", rule, cands, votes, k, wanted,
        unregistered_votes=unregistered, budget_add=budget_add, budget_delete=budget_delete,
    )


# (solver, instance, a cap that only its integer program hits): the
# Thiele solver's one program (every committee holds J) takes 4 nodes, past a cap of 2
FPT_CAP_CASES = [
    (
        man.solve_manipulation_fpt_m_additive,
        man.ManipulationInstance(
            AV, "CBCM", ["c0", "c1", "c2", "c3"], [set(), {"c2"}], [{"c0", "c1", "c3"}], 3,
            {"c1", "c2", "c3"},
        ),
        1,
    ),
    (
        man.solve_sdcm_fpt_m,
        man.ManipulationInstance(
            NSAV, "SDCM", ["c0", "c1", "c2"], [{"c0", "c2"}, {"c0", "c1", "c2"}, {"c0"}],
            [{"c1", "c2"}, {"c1"}], 2,
        ),
        1,
    ),
    (
        ctl.solve_ccadv_additive_fpt,
        _ccadv(SAV, [{"c2"}, {"c0", "c1", "c2"}], 2, {"c2"}, [set(), set(), {"c0", "c1", "c2"}], 1, 2),
        1,
    ),
    (
        ctl.solve_ccadv_thiele_fpt,
        _ccadv(PAV, [{"c0"}, {"c0", "c1"}], 2, {"c0", "c1"}, [{"c0"}, {"c1"}], 1, 1),
        2,
    ),
]


@pytest.mark.parametrize(
    "solve, instance, ip_cap", FPT_CAP_CASES, ids=[case[0].__name__ for case in FPT_CAP_CASES]
)
def test_fpt_solvers_raise_past_the_ip_node_cap(solve, instance, ip_cap, monkeypatch):
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    solve(instance)  # decided under the default cap
    with pytest.raises(ResourceCapError):
        solve(instance, cap=1)
    with pytest.raises(ResourceCapError, match="node cap"):
        solve(instance, cap=ip_cap)


def test_thiele_fpt_cap_bounds_only_the_program_nodes(monkeypatch):
    # the refusal guard counts coefficients against the guess cap, so a program cap
    # of 1 is hit inside the program, not before it runs
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    instance = FPT_CAP_CASES[-1][1]
    with pytest.raises(ResourceCapError, match="node cap"):
        ctl.solve_ccadv_thiele_fpt(instance, cap=1)


def propagate_by_full_sweeps(rows, lower, upper):
    """The reference propagation: sweep every row until a whole sweep
    tightens nothing; False on wipeout."""
    changed = True
    while changed:
        changed = False
        for pairs, bound in rows:
            min_sum = 0
            for j, c in pairs:
                min_sum += c * (lower[j] if c > 0 else upper[j])
            if min_sum > bound:
                return False
            slack = bound - min_sum
            for j, c in pairs:
                if c > 0:
                    new_upper = lower[j] + slack // c
                    if new_upper < upper[j]:
                        upper[j] = new_upper
                        changed = True
                else:
                    new_lower = upper[j] - slack // (-c)
                    if new_lower > lower[j]:
                        lower[j] = new_lower
                        changed = True
                if lower[j] > upper[j]:
                    return False
    return True


@st.composite
def propagation_cases(draw):
    """Random integer `sum <= bound` rows (each variable once per row),
    bounds, and one variable to fix after the first fixpoint."""
    count = draw(st.integers(1, 6))
    bounds = [sorted(draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))) for _ in range(count)]
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        members = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=count, unique=True))
        coefficient = st.integers(-5, 5).filter(bool)
        rows.append((tuple((j, draw(coefficient)) for j in members), draw(st.integers(-12, 12))))
    branch = draw(st.integers(0, count - 1))
    return rows, [lo for lo, _ in bounds], [hi for _, hi in bounds], branch, draw(st.integers(-4, 4))


@settings(max_examples=500, deadline=None)
@given(propagation_cases())
def test_row_queue_propagation_matches_full_sweeps(case):
    rows, lower, upper, branch, value = case
    raises, falls = ipcore._moved_rows(rows, len(lower))
    # from the root every row is queued
    ref_lower, ref_upper = list(lower), list(upper)
    expected = propagate_by_full_sweeps(rows, ref_lower, ref_upper)
    assert ipcore._propagate(rows, raises, falls, lower, upper, range(len(rows))) == expected
    if not expected:
        return
    assert (lower, upper) == (ref_lower, ref_upper)
    # after a branch only the rows whose minimum activity the fix moves are
    # queued, as `solve_ip` queues them
    if not lower[branch] <= value <= upper[branch]:
        return
    queue = ipcore._fix(raises, falls, lower, upper, branch, value)
    ref_lower[branch] = ref_upper[branch] = value
    assert (lower, upper) == (ref_lower, ref_upper)
    expected = propagate_by_full_sweeps(rows, ref_lower, ref_upper)
    assert ipcore._propagate(rows, raises, falls, lower, upper, queue) == expected
    if expected:
        assert (lower, upper) == (ref_lower, ref_upper)


def test_a_variable_listed_twice_occurs_in_its_row_once():
    p = simple_program([([("x", 1), ("y", 2), ("x", -3)], "<=", 1)], [("x", -3, 3), ("y", 0, 2)])
    assert ipcore._normalized(p) == [(((0, -2), (1, 2)), 1)]
    assert solve_ip(p).assignment == {"x": 0, "y": 0}


def test_strict_and_rational_normalization():
    # x/3 < 1 over integers means x <= 2
    p = simple_program([([("x", Fraction(1, 3))], "<", 1)], [("x", 0, 9)])
    rows = ipcore._normalized(p)
    assert rows == [(((0, 1),), 2)]
    # the row is stored scaled by 3, in ints: 1 == Fraction(1) would hide a Fraction
    (con,) = p.constraints
    assert (con.coeffs, con.rhs) == ((("x", 1),), 3)
    assert all(type(c) is int for _, c in con.coeffs) and type(con.rhs) is int


@pytest.mark.parametrize(
    "constraints, bounds, message",
    [
        ([([("x", 1)], "==", 1)], [("x", 0, 1)], "unknown relation"),
        ([([("y", 1)], "<=", 1)], [("x", 0, 1)], "unknown variable"),
        ([], [("x", 0, 1), ("x", 0, 2)], "duplicate variable names"),
    ],
    ids=["relation", "undeclared-variable", "duplicate-variable"],
)
def test_malformed_programs_raise_value_error(constraints, bounds, message):
    with pytest.raises(ValueError, match=message):
        solve_ip(simple_program(constraints, bounds))


def holds_as_drawn(constraints, assignment):
    """The constraints as drawn, evaluated in `Fraction` arithmetic and so
    independently of the integer rows the program stores."""
    return all(
        RELATION_HOLDS[rel](sum((Fraction(assignment[name]) * c for name, c in coeffs), Fraction(0)), rhs)
        for coeffs, rel, rhs in constraints
    )


def test_matches_enumeration_on_random_programs():
    rng = random.Random(31)
    for _ in range(150):
        nvars = rng.randint(1, 4)
        bounds = [(f"x{i}", rng.randint(-2, 0), rng.randint(0, 3)) for i in range(nvars)]
        constraints = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [
                (f"x{i}", Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for i in range(nvars)
            ]
            rel = rng.choice(["<=", "<", "=", ">=", ">"])
            rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            constraints.append((coeffs, rel, rhs))
        program = simple_program(constraints, bounds)
        result = solve_ip(program)
        domains = [range(lo, hi + 1) for _, lo, hi in bounds]
        names = [name for name, _, _ in bounds]
        feasible = [
            dict(zip(names, values))
            for values in product(*domains)
            if holds_as_drawn(constraints, dict(zip(names, values)))
        ]
        assert result.feasible == bool(feasible)
        if result.feasible:
            assert check_solution(program, result.assignment)
            # the search returns the lexicographically first feasible assignment
            assert result.assignment == feasible[0]


def test_deep_program_needs_no_recursion(monkeypatch):
    # every binary is branched on in turn, 2,000 levels deep
    monkeypatch.delenv("ABMV_NODE_CAP", raising=False)
    p = IntegerProgram()
    names = [p.add_variable(f"x{i}", 0, 1) for i in range(2000)]
    p.add_constraint([(x, 1) for x in names], "<=", 2000)
    assert solve_ip(p).status == ipcore.FEASIBLE


# draws past the first 1,200 that are YES for the two manipulation solvers
IP_PIN_YES_DRAWS = (
    646, 912, 937, 949, 1189, 1225, 1249, 1974, 2224, 2467,
    3049, 3208, 3300, 4072, 4759, 4930, 5047, 5644, 5850, 5896,
)
IP_PIN_SHA256 = "b66e779d4fc5fa26aeb74eb7d5aca45dad900e486c2f4ca0f9a43098dd472aa5"


def test_ip_solver_witness_pin():
    """Verdicts and witnesses of the additive IP-based solvers are those
    recorded while they built their programs from `Fraction` scores."""
    digest = hashlib.sha256()
    for i in [*range(1200), *IP_PIN_YES_DRAWS]:
        rng = random.Random(f"ip-pin:{i}")
        rule = rng.choice([AV, SAV, NSAV])
        if i % 3 == 0:
            variant = rng.choice(["CBCM", "SBCM"])
            inst = ver.random_manipulation_instance(rng, rule, variant, 4, 4, 2)
            verdict = man.solve_manipulation_fpt_m_additive(inst)
        elif i % 3 == 1:
            inst = ver.random_manipulation_instance(rng, rule, "SDCM", 4, 4, 2)
            verdict = man.solve_sdcm_fpt_m(inst)
        else:
            ctype = rng.choice(["CCAV", "CCDV", "CCADV"])
            inst = ver.random_control_instance(rng, rule, ctype, m_max=5, n_max=5, u_max=4)
            verdict = ctl.solve_ccadv_additive_fpt(inst)
        witness = verdict.witness
        if isinstance(witness, ctl.ControlSolution):
            witness = (witness.added_votes, witness.deleted_votes)
        elif witness is not None:
            witness = tuple(tuple(sorted(b)) for b in witness)
        digest.update(repr((i, verdict.yes, witness)).encode())
    assert digest.hexdigest() == IP_PIN_SHA256
