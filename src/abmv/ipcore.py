"""A small exact integer-program representation and solver.

All the fixed-parameter formulations in this package bound every
variable by a multiset size, so a depth-first branch-and-bound with
bound-tightening propagation decides them exactly. Propagation works
from a queue of rows, and a bound change queues only the rows whose
minimum activity it moves, since the bounds it starts from are already
a fixpoint.
Strict inequalities are first-class: rows are scaled to integers as
they are added, so `a < b` over integer-valued expressions becomes
`a <= b - 1`. There is no LP relaxation and no floating point
anywhere. A search that passes its node cap raises `ResourceCapError`,
so a returned result is always a decision.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from abmv.caps import IP_NODE_CAP, effective_cap
from abmv.core import ResourceCapError

_HOLDS = {"<=": operator.le, "<": operator.lt, "=": operator.eq, ">=": operator.ge, ">": operator.gt}
RELATIONS = tuple(_HOLDS)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple  # ((variable_name, int), ...), no zero coefficients
    relation: str
    rhs: int


@dataclass
class IntegerProgram:
    """Integer variables with finite bounds plus linear constraints kept in integers."""

    variables: list = field(default_factory=list)  # (name, lower, upper)
    constraints: list = field(default_factory=list)

    def add_variable(self, name: str, lower: int, upper: int) -> str:
        if lower is None or upper is None:
            raise ValueError(f"variable {name!r} must have finite bounds")
        self.variables.append((name, int(lower), int(upper)))
        return name

    def add_constraint(self, coeffs, relation: str, rhs) -> None:
        """Add `sum(c * x) relation rhs`, scaled by the lcm of its denominators."""
        if relation not in _HOLDS:
            raise ValueError(f"unknown relation {relation!r}")
        pairs = [(name, c) for name, c in coeffs if c]
        scale = math.lcm(rhs.denominator, *(c.denominator for _, c in pairs))
        row = tuple((name, int(c * scale)) for name, c in pairs)
        self.constraints.append(Constraint(row, relation, int(rhs * scale)))

    def add_comparison(self, left, relation: str, right) -> None:
        """Add `left relation right` over (constant, {variable: coefficient})
        expressions, stored as the row `left - right relation 0`."""
        (left_const, left_coeffs), (right_const, right_coeffs) = left, right
        coeffs = dict(left_coeffs)
        for name, c in right_coeffs.items():
            coeffs[name] = coeffs.get(name, 0) - c
        self.add_constraint(coeffs.items(), relation, right_const - left_const)


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
        lhs = sum(assignment[name] * c for name, c in con.coeffs)
        if not _HOLDS[con.relation](lhs, con.rhs):
            return False
    return True


def _normalized(program: IntegerProgram):
    """Rewrite constraints as `sum <= bound` rows over variable indices.

    Strict relations tighten by one because both sides are integers.
    """
    index = {name: i for i, (name, _, _) in enumerate(program.variables)}
    rows = []

    def add_row(pairs, bound):
        merged = {}  # a variable listed twice occurs in its row once
        for name, c in pairs:
            if name not in index:
                raise ValueError(f"constraint references unknown variable {name!r}")
            merged[index[name]] = merged.get(index[name], 0) + c
        rows.append((tuple((j, c) for j, c in merged.items() if c != 0), bound))

    for con in program.constraints:
        if con.relation in ("<=", "<", "="):
            add_row(con.coeffs, con.rhs - (con.relation == "<"))
        if con.relation in (">=", ">", "="):
            add_row([(name, -c) for name, c in con.coeffs], -con.rhs - (con.relation == ">"))
    return rows


def _moved_rows(rows, count):
    """(raises, falls): per variable, the rows whose minimum activity a
    rising lower bound moves (positive coefficient) and those a falling
    upper bound moves (negative coefficient)."""
    raises = [[] for _ in range(count)]
    falls = [[] for _ in range(count)]
    for r, (pairs, _) in enumerate(rows):
        for j, c in pairs:
            (raises if c > 0 else falls)[j].append(r)
    return raises, falls


def _fix(raises, falls, lower, upper, j, value):
    """Fix variable j to `value` in place; return the rows to propagate."""
    queue = raises[j] if value > lower[j] else []
    if value < upper[j]:
        queue = queue + falls[j]
    lower[j] = upper[j] = value
    return queue


def _propagate(rows, raises, falls, lower, upper, queue):
    """Tighten variable bounds until fixpoint; False on wipeout.

    Only the rows in `queue` are visited at first: the root passes every
    row, a branch the rows its fix moves (`_fix`), because the frame's
    bounds are already a fixpoint. A tightened bound queues the rows
    whose minimum activity it moves, `falls[j]` for an upper bound and
    `raises[j]` for a lower one; every other row keeps its slack. A
    row's own tightenings never move its minimum activity, since each
    variable occurs in a row once. Every tightening is monotone, so the
    fixpoint, and the verdict, do not depend on the order rows are
    visited in.
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
                moved = falls[j]
            else:
                new_lower = upper[j] - slack // (-c)
                if new_lower <= lower[j]:
                    continue
                lower[j] = new_lower
                moved = raises[j]
            if lower[j] > upper[j]:
                return False
            for other in moved:
                if other not in waiting:
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
    names = [name for name, _, _ in program.variables]
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    rows = _normalized(program)
    raises, falls = _moved_rows(rows, len(names))
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
        if _propagate(rows, raises, falls, lower, upper, queue):
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
        queue = _fix(raises, falls, lower, upper, branch, value)
    if not check_solution(program, assignment):
        raise AssertionError("solver produced an uncertified assignment")
    return IpResult(FEASIBLE, assignment)
