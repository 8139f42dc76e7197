"""A small exact integer-program representation and solver.

All the fixed-parameter formulations in this package bound every
variable by a multiset size, so a depth-first branch-and-bound with
bound-tightening propagation decides them exactly. Propagation works
from a queue of rows, and a branch queues only the rows its variable
occurs in, since the bounds it starts from are already a fixpoint.
Strict inequalities are first-class: constraints are scaled to integer
coefficients, after which `a < b` over integer-valued expressions
becomes `a <= b - 1`. There is no LP relaxation and no floating point
anywhere. A search that passes its node cap raises `ResourceCapError`,
so a returned result is always a decision.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from abmv.caps import IP_NODE_CAP, effective_cap
from abmv.core import ResourceCapError

RELATIONS = ("<=", "<", "=", ">=", ">")

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple  # ((variable_name, Fraction), ...)
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass
class IntegerProgram:
    """Integer variables with finite bounds plus rational linear constraints."""

    variables: list = field(default_factory=list)  # (name, lower, upper)
    constraints: list = field(default_factory=list)

    def add_variable(self, name: str, lower: int, upper: int) -> str:
        if lower is None or upper is None:
            raise ValueError(f"variable {name!r} must have finite bounds")
        self.variables.append((name, int(lower), int(upper)))
        return name

    def add_constraint(self, coeffs, relation: str, rhs) -> None:
        pairs = tuple((name, c) for name, c in ((name, Fraction(c)) for name, c in coeffs) if c)
        self.constraints.append(Constraint(pairs, relation, Fraction(rhs)))

    def add_comparison(self, left, relation: str, right) -> None:
        """Add `left relation right` over (constant, {variable: coefficient})
        expressions, stored as the row `left - right relation 0`."""
        (left_const, left_coeffs), (right_const, right_coeffs) = left, right
        coeffs = dict(left_coeffs)
        for name, c in right_coeffs.items():
            coeffs[name] = coeffs.get(name, 0) - c
        self.add_constraint(coeffs.items(), relation, right_const - left_const)

    def variable_names(self):
        return [name for name, _, _ in self.variables]

    def to_lp_text(self) -> str:
        """LP-format export for external study; the internal solver is authoritative."""
        lines = ["\\ exported integer program", "Minimize", " obj: 0", "Subject To"]
        for i, con in enumerate(self.constraints):
            terms = " + ".join(f"{c} {name}" for name, c in con.coeffs) or "0"
            rel = {"<=": "<=", "<": "<", "=": "=", ">=": ">=", ">": ">"}[con.relation]
            lines.append(f" c{i}: {terms} {rel} {con.rhs}")
        lines.append("Bounds")
        for name, lo, hi in self.variables:
            lines.append(f" {lo} <= {name} <= {hi}")
        lines.append("General")
        lines.append(" " + " ".join(self.variable_names()))
        lines.append("End")
        return "\n".join(lines)


@dataclass(frozen=True)
class IpResult:
    status: str
    assignment: Optional[dict] = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def check_solution(program: IntegerProgram, assignment: dict) -> bool:
    """Exact re-evaluation of every constraint; certifies solver output."""
    for name, lo, hi in program.variables:
        if name not in assignment:
            raise KeyError(f"assignment is missing variable {name!r}")
        value = assignment[name]
        if value != int(value) or not lo <= value <= hi:
            return False
    for con in program.constraints:
        lhs = sum((Fraction(assignment[name]) * c for name, c in con.coeffs), Fraction(0))
        ok = {
            "<=": lhs <= con.rhs,
            "<": lhs < con.rhs,
            "=": lhs == con.rhs,
            ">=": lhs >= con.rhs,
            ">": lhs > con.rhs,
        }[con.relation]
        if not ok:
            return False
    return True


def _normalized(program: IntegerProgram):
    """Rewrite constraints as integer-coefficient `sum <= bound` rows.

    Scaling by the lcm of denominators preserves the solution set, and
    strict relations tighten by one because both sides are integers.
    """
    index = {name: i for i, (name, _, _) in enumerate(program.variables)}
    rows = []

    def add_row(pairs, bound):
        merged = {}  # a variable listed twice occurs in its row once
        for name, c in pairs:
            merged[index[name]] = merged.get(index[name], 0) + c
        rows.append((tuple((j, c) for j, c in merged.items() if c != 0), bound))

    for con in program.constraints:
        for name, _ in con.coeffs:
            if name not in index:
                raise ValueError(f"constraint references unknown variable {name!r}")
        denoms = [c.denominator for _, c in con.coeffs] + [con.rhs.denominator]
        scale = math.lcm(*denoms) if denoms else 1
        pairs = [(name, int(c * scale)) for name, c in con.coeffs]
        rhs = int(con.rhs * scale)
        if con.relation == "<=":
            add_row(pairs, rhs)
        elif con.relation == "<":
            add_row(pairs, rhs - 1)
        elif con.relation == ">=":
            add_row([(n, -c) for n, c in pairs], -rhs)
        elif con.relation == ">":
            add_row([(n, -c) for n, c in pairs], -rhs - 1)
        else:  # equality: a pair of <= rows
            add_row(pairs, rhs)
            add_row([(n, -c) for n, c in pairs], -rhs)
    return rows


def _propagate(rows, occurs, lower, upper, queue):
    """Tighten variable bounds until fixpoint; False on wipeout.

    Only the rows in `queue` are visited at first: the root passes every
    row, a branch the rows of its variable, because the frame's bounds
    are already a fixpoint. A tightened variable queues the other rows
    it occurs in (`occurs[j]`); a row's own tightenings never change its
    minimum activity, since each variable occurs in a row once. Every
    tightening is monotone, so the fixpoint, and the verdict, do not
    depend on the order rows are visited in.
    """
    queue = deque(queue)
    waiting = set(queue)
    while queue:
        r = queue.popleft()
        waiting.discard(r)
        pairs, bound = rows[r]
        min_sum = 0
        for j, c in pairs:
            min_sum += c * (lower[j] if c > 0 else upper[j])
        if min_sum > bound:
            return False
        slack = bound - min_sum
        for j, c in pairs:
            if c > 0:
                new_upper = lower[j] + slack // c
                if new_upper >= upper[j]:
                    continue
                upper[j] = new_upper
            else:
                new_lower = upper[j] - slack // (-c)
                if new_lower <= lower[j]:
                    continue
                lower[j] = new_lower
            if lower[j] > upper[j]:
                return False
            for other in occurs[j]:
                if other != r and other not in waiting:
                    waiting.add(other)
                    queue.append(other)
    return True


def solve_ip(program: IntegerProgram, node_cap: Optional[int] = None) -> IpResult:
    """Depth-first search over variable domains with propagation.

    The search runs from an explicit stack, so deep programs need no
    recursion. Complete within the node cap; a cap hit raises
    `ResourceCapError`, so INFEASIBLE always means proved infeasible.
    Feasible results are certified with `check_solution` before being
    returned.
    """
    cap = effective_cap(node_cap if node_cap is not None else IP_NODE_CAP)
    names = program.variable_names()
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    rows = _normalized(program)
    occurs = [[] for _ in names]
    for r, (pairs, _) in enumerate(rows):
        for j, _ in pairs:
            occurs[j].append(r)
    queue = range(len(rows))
    lower = [lo for _, lo, _ in program.variables]
    upper = [hi for _, _, hi in program.variables]
    for (name, lo, hi) in program.variables:
        if lo > hi:
            return IpResult(INFEASIBLE)

    nodes = 0
    # one frame per depth: [propagated lower, propagated upper, branch variable, next value]
    stack = []
    while True:
        if _propagate(rows, occurs, lower, upper, queue):
            branch = next((j for j in range(len(lower)) if lower[j] < upper[j]), None)
            if branch is None:
                assignment = dict(zip(names, lower))
                break
            stack.append([lower, upper, branch, lower[branch]])
        while stack:
            frame_lower, frame_upper, branch, value = stack[-1]
            if value <= frame_upper[branch]:
                break
            stack.pop()
        else:
            return IpResult(INFEASIBLE)
        stack[-1][3] = value + 1
        nodes += 1
        if nodes > cap:
            raise ResourceCapError(f"integer program exceeded the node cap {cap}")
        lower, upper = list(frame_lower), list(frame_upper)
        lower[branch] = upper[branch] = value
        queue = occurs[branch]
    if not check_solution(program, assignment):
        raise AssertionError("solver produced an uncertified assignment")
    return IpResult(FEASIBLE, assignment)
