"""Hardness constructions as instance generators with round-trip checks.

Each generator turns a source instance (vertex cover, clique,
independent set, or restricted exact cover by 3-sets) into a strategic
voting instance whose answer provably matches the source answer; the
round-trip check runs both sides with independent brute-force oracles.
The source oracles below share no scoring code with the voting solvers,
so agreement is genuine cross-validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from abmv import control as ctl
from abmv import core, manipulation as man
from abmv import winners
from abmv.caps import SUBSET_CAP, effective_cap
from abmv.core import AV, MAV, NSAV, PAV, SAV, ResourceCapError, Rule, ValidationError

DUMMY_PREFIX = "~pad"

# kind -> (source problem, generator, inverted). The independent-set
# reduction proves p is forced exactly when the source answer is NO, so its
# round trip compares against the negation. The order is the listing order.
_REDUCTIONS = {
    "ManipAvVc": (
        "VERTEX_COVER",
        lambda src, **kw: generate_manip_av_vc(src, kw.get("variant", "CBCM")),
        False,
    ),
    "ManipSavVc": (
        "VERTEX_COVER",
        lambda src, **kw: generate_manip_sav_vc(src, kw.get("variant", "CBCM"), SAV),
        False,
    ),
    "ManipNsavVc": (
        "VERTEX_COVER",
        lambda src, **kw: generate_manip_sav_vc(src, kw.get("variant", "CBCM"), NSAV),
        False,
    ),
    "ManipMavVc": (
        "VERTEX_COVER",
        lambda src, **kw: generate_manip_mav_vc(src, kw.get("variant", "CBCM")),
        False,
    ),
    "CcavSavRx3c": ("RX3C", lambda src, **kw: generate_ccav_sav_rx3c(src, SAV), False),
    "CcavNsavRx3c": ("RX3C", lambda src, **kw: generate_ccav_sav_rx3c(src, NSAV), False),
    "CcdvSavRx3c": ("RX3C", lambda src, **kw: generate_ccdv_sav_rx3c(src, SAV), False),
    "CcdvNsavRx3c": ("RX3C", lambda src, **kw: generate_ccdv_sav_rx3c(src, NSAV), False),
    "CcavMavRx3c": ("RX3C", lambda src, **kw: generate_ccav_mav_rx3c(src), False),
    "CcacSavRx3c": ("RX3C", lambda src, **kw: generate_ccac_sav_rx3c(src, SAV), False),
    "CcacNsavRx3c": ("RX3C", lambda src, **kw: generate_ccac_sav_rx3c(src, NSAV), False),
    "PccThieleIs": (
        "INDEPENDENT_SET",
        lambda src, **kw: generate_pcc_thiele_is(src, kw.get("rule", PAV)),
        True,
    ),
    "PccMavRx3c": ("RX3C", lambda src, **kw: generate_pcc_mav_rx3c(src), False),
    "CcdcSavRx3c": ("RX3C", lambda src, **kw: generate_ccdc_sav_rx3c(src, SAV), False),
    "CcdcNsavRx3c": ("RX3C", lambda src, **kw: generate_ccdc_sav_rx3c(src, NSAV), False),
    "CcdcMavRx3c": ("RX3C", lambda src, **kw: generate_ccdc_mav_rx3c(src), False),
    "CcdcThieleClique": (
        "CLIQUE",
        lambda src, **kw: generate_ccdc_thiele_clique(src, kw.get("rule", PAV)),
        False,
    ),
}
REDUCTION_KINDS = tuple(_REDUCTIONS)


class GenerationError(ValidationError):
    """The source instance violates a construction's preconditions."""


# ---------------------------------------------------------------------------
# Source problems


@dataclass(frozen=True)
class GraphInstance:
    vertices: tuple
    edges: frozenset  # frozensets of size 2
    kappa: int

    def __post_init__(self):
        core.coerce_fields(
            self, vertices=tuple, edges=lambda es: frozenset(map(frozenset, es)), kappa=int
        )
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValidationError("duplicate vertices")
        for e in self.edges:
            if len(e) != 2 or not e <= vs:
                raise ValidationError("edges must be 2-subsets of the vertices")
        if not 0 <= self.kappa <= len(self.vertices):
            raise ValidationError("kappa out of range")

    def degree(self, v) -> int:
        return sum(1 for e in self.edges if v in e)

    def is_regular(self, d: Optional[int] = None) -> bool:
        degrees = {self.degree(v) for v in self.vertices}
        if len(degrees) != 1:
            return False
        return d is None or degrees == {d}


@dataclass(frozen=True)
class Rx3cInstance:
    universe: tuple
    sets: tuple  # tuples of 3 distinct elements; a multiset

    def __post_init__(self):
        core.coerce_fields(self, universe=tuple, sets=lambda sets: tuple(map(tuple, sets)))
        elements = set(self.universe)
        if len(elements) != len(self.universe):
            raise ValidationError("duplicate universe elements")
        if len(self.universe) % 3 != 0 or len(self.sets) != len(self.universe):
            raise ValidationError("need |universe| = |sets| = 3*kappa")
        occurrences = {a: 0 for a in self.universe}
        for s in self.sets:
            if len(set(s)) != 3 or not set(s) <= elements:
                raise ValidationError("every set must be a 3-subset of the universe")
            for a in s:
                occurrences[a] += 1
        if any(count != 3 for count in occurrences.values()):
            raise ValidationError("every element must occur in exactly three sets")

    @property
    def kappa(self) -> int:
        return len(self.universe) // 3


def solve_source(instance, problem: str, cap: Optional[int] = None) -> bool:
    """Exhaustive oracle for the source problems (no voting code involved)."""
    limit = effective_cap(cap if cap is not None else SUBSET_CAP)
    if problem == "RX3C":
        inst: Rx3cInstance = instance
        kappa = inst.kappa
        ids = range(len(inst.sets))
        universe = frozenset(inst.universe)
        count = 0
        for chosen in combinations(ids, kappa):
            count += 1
            if count > limit:
                raise ResourceCapError("RX3C search exceeded the cap")
            covered = []
            for i in chosen:
                covered.extend(inst.sets[i])
            if len(covered) == len(set(covered)) and frozenset(covered) == universe:
                return True
        return False
    graph: GraphInstance = instance
    if len(graph.vertices) > 16 or graph.kappa > 8:
        raise ResourceCapError("graph source exceeds the size cap")
    if problem == "VERTEX_COVER":
        for chosen in combinations(graph.vertices, graph.kappa):
            picked = set(chosen)
            if all(e & picked for e in graph.edges):
                return True
        return False
    if problem == "INDEPENDENT_SET":
        for chosen in combinations(graph.vertices, graph.kappa):
            picked = set(chosen)
            if not any(e <= picked for e in graph.edges):
                return True
        return False
    if problem == "CLIQUE":
        for chosen in combinations(graph.vertices, graph.kappa):
            if all(frozenset(pair) in graph.edges for pair in combinations(chosen, 2)):
                return True
        return False
    raise ValueError(f"unknown source problem {problem!r}")


# ---------------------------------------------------------------------------
# Random sources (for the fuzz corpus)


def random_regular_graph(n: int, degree: int, rng: random.Random, tries: int = 400) -> GraphInstance:
    """Simple d-regular graph via the pairing model with rejection."""
    if n * degree % 2 != 0 or degree >= n:
        raise ValidationError("no such regular graph")
    vertices = [f"u{i}" for i in range(n)]
    for _ in range(tries):
        stubs = [v for v in vertices for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or frozenset((a, b)) in edges:
                ok = False
                break
            edges.add(frozenset((a, b)))
        if ok:
            return GraphInstance(vertices, edges, 0)
    raise ResourceCapError("failed to sample a simple regular graph")


def random_cubic_graph(n: int, rng: random.Random) -> GraphInstance:
    return random_regular_graph(n, 3, rng)


def random_rx3c(kappa: int, rng: random.Random, tries: int = 600) -> Rx3cInstance:
    """Random universe/3-set system with every element in exactly three sets."""
    universe = [f"a{i}" for i in range(3 * kappa)]
    for _ in range(tries):
        slots = [a for a in universe for _ in range(3)]
        rng.shuffle(slots)
        triples = [slots[3 * i : 3 * i + 3] for i in range(3 * kappa)]
        for _ in range(200):
            bad = next((i for i, t in enumerate(triples) if len(set(t)) != 3), None)
            if bad is None:
                break
            other = rng.randrange(len(triples))
            i = rng.randrange(3)
            j = rng.randrange(3)
            triples[bad][i], triples[other][j] = triples[other][j], triples[bad][i]
        if all(len(set(t)) == 3 for t in triples):
            return Rx3cInstance(universe, [tuple(sorted(t)) for t in triples])
    raise ResourceCapError("failed to sample an RX3C instance")


# ---------------------------------------------------------------------------
# Generators


def _edge_votes(graph: GraphInstance):
    return [frozenset(e) for e in sorted(graph.edges, key=lambda e: tuple(sorted(e)))]


def _require(condition: bool, message: str):
    if not condition:
        raise GenerationError(message)


def _nsav_padded(rule: Rule, candidates: list, n: int, m: int, extra: int = 0) -> list:
    """The roster plus, under NSAV, n·m² + extra never-approved `~pad` dummies:
    enough that NSAV orders the other candidates as SAV does."""
    if rule.kind != "NSAV":
        return candidates
    return candidates + [f"{DUMMY_PREFIX}{i}" for i in range(n * m * m + extra)]


def _manip_vc_common(graph: GraphInstance, kappa: int):
    _require(graph.is_regular(3), "the manipulation constructions need a 3-regular graph")
    _require(1 <= kappa <= len(graph.vertices), "kappa must address the vertex set")
    return [f"c{i}" for i in range(1, kappa + 1)], _edge_votes(graph)


def generate_manip_av_vc(graph: GraphInstance, variant: str = "CBCM") -> man.ManipulationInstance:
    fillers, manip = _manip_vc_common(graph, graph.kappa)
    _require(len(manip) > 4, "needs more than four edges")
    candidates = list(graph.vertices) + fillers
    honest = [frozenset(fillers)] * 4
    committee = None if variant == "SDCM" else frozenset(fillers)
    instance = man.ManipulationInstance(
        AV, variant, candidates, honest, manip, graph.kappa, committee
    )
    assert len(instance.honest_votes) == 4
    assert len(instance.manipulative_votes) == len(graph.edges)
    return instance


def generate_manip_sav_vc(
    graph: GraphInstance, variant: str = "CBCM", rule: Rule = SAV
) -> man.ManipulationInstance:
    fillers, manip = _manip_vc_common(graph, graph.kappa)
    edge_count = len(manip)
    _require(edge_count > 5, "needs more than five edges")
    _require(
        3 * graph.kappa < 2 * (edge_count - 1),
        "needs kappa < (2/3)(|E| - 1) so the fillers outscore the vertices",
    )
    candidates = list(graph.vertices) + fillers
    honest = [frozenset(fillers)] * (edge_count - 1)
    candidates = _nsav_padded(rule, candidates, len(honest) + len(manip), len(candidates))
    committee = None if variant == "SDCM" else frozenset(fillers)
    return man.ManipulationInstance(rule, variant, candidates, honest, manip, graph.kappa, committee)


def generate_manip_mav_vc(graph: GraphInstance, variant: str = "CBCM") -> man.ManipulationInstance:
    kappa = graph.kappa
    fillers, manip = _manip_vc_common(graph, kappa)
    _require(len(manip) > kappa, "needs more edges than kappa")
    shield = [f"x{i}" for i in range(2 * kappa + 1)]
    pads = []
    blocks = []
    for e_i, vote in enumerate(manip):
        block = tuple(f"y{e_i}_{j}" for j in range(3 * kappa + 1))
        pads.extend(block)
        blocks.append((frozenset(block),))
    candidates = list(graph.vertices) + shield + pads
    honest = [frozenset(shield)]
    committee = None if variant == "SDCM" else frozenset(shield[:kappa])
    instance = man.ManipulationInstance(
        MAV, variant, candidates, honest, manip, kappa, committee, ballot_blocks=tuple(blocks)
    )
    assert len(instance.honest_votes) == 1
    approvals = {c: 0 for c in candidates}
    for v in instance.honest_votes + instance.manipulative_votes:
        for c in v:
            approvals[c] += 1
    assert max(approvals.values()) <= 3
    return instance


def normalize_rx3c_kappa_mod4(source: Rx3cInstance) -> Rx3cInstance:
    """Pad so kappa is divisible by 4 (and exceeds 2) without changing the
    answer: each padding triple appears three times and must contribute
    exactly one copy to any exact cover."""
    remainder = source.kappa % 4
    groups = {3: 1, 2: 2, 1: 3}.get(remainder, 0)
    if groups == 0:
        return source
    universe = list(source.universe)
    sets = list(source.sets)
    for g in range(groups):
        fresh = tuple(f"{DUMMY_PREFIX}el{g}_{j}" for j in range(3))
        universe.extend(fresh)
        sets.extend([fresh] * 3)
    return Rx3cInstance(universe, sets)


def generate_ccav_sav_rx3c(source: Rx3cInstance, rule: Rule = SAV) -> ctl.ControlInstance:
    source = normalize_rx3c_kappa_mod4(source)
    kappa = source.kappa
    _require(kappa > 2 and kappa % 4 == 0, "kappa must be divisible by four and exceed two")
    candidates = list(source.universe) + ["p"]
    registered = [frozenset(source.universe)] * (3 * kappa * (kappa - 2) // 4)
    unregistered = [frozenset(("p",) + s) for s in source.sets]
    candidates = _nsav_padded(rule, candidates, len(registered) + len(unregistered), len(candidates))
    return ctl.ControlInstance(
        "CCAV", rule, candidates, registered, 1, {"p"},
        unregistered_votes=unregistered, budget_add=kappa,
    )


def generate_ccdv_sav_rx3c(source: Rx3cInstance, rule: Rule = SAV) -> ctl.ControlInstance:
    kappa = source.kappa
    candidates = list(source.universe) + ["p", "d1", "d2", "d3"]
    votes = [frozenset(("p", "d1")), frozenset(("p", "d2", "d3"))]
    votes += [frozenset(s) for s in source.sets]
    candidates = _nsav_padded(rule, candidates, len(votes), len(candidates))
    return ctl.ControlInstance("CCDV", rule, candidates, votes, 1, {"p"}, budget_delete=kappa)


def generate_ccav_mav_rx3c(source: Rx3cInstance) -> ctl.ControlInstance:
    kappa = source.kappa
    set_cands = {s_i: tuple(f"h{s_i}_{j}" for j in range(3)) for s_i in range(len(source.sets))}
    candidates = list(source.universe)
    for s_i in range(len(source.sets)):
        candidates.extend(set_cands[s_i])
    candidates.append("p")
    registered = [frozenset(list(source.universe) + ["p"])]
    unregistered = []
    for s_i, s in enumerate(source.sets):
        outside = [a for a in source.universe if a not in s]
        unregistered.append(frozenset(["p", *set_cands[s_i], *outside]))
    instance = ctl.ControlInstance(
        "CCAV", MAV, candidates, registered, 1, {"p"},
        unregistered_votes=unregistered, budget_add=kappa,
    )
    assert all(len(v) == 3 * kappa + 1 for v in instance.registered_votes + instance.unregistered_votes)
    return instance


def generate_ccac_sav_rx3c(source: Rx3cInstance, rule: Rule = SAV) -> ctl.ControlInstance:
    kappa = source.kappa
    element_cands = {a: f"c({a})" for a in source.universe}
    set_cands = {s_i: f"c(H{s_i})" for s_i in range(len(source.sets))}
    registered = list(element_cands.values()) + ["p", "d1", "d2", "d3"]
    unregistered = list(set_cands.values())
    votes = [frozenset(["p"]), frozenset(["p", "d1"]), frozenset(["p", "d2", "d3"])]
    for a in source.universe:
        votes.append(frozenset([element_cands[a]]))
        votes.append(
            frozenset([element_cands[a]] + [set_cands[s_i] for s_i, s in enumerate(source.sets) if a in s])
        )
    registered = _nsav_padded(rule, registered, len(votes), len(registered) + len(unregistered))
    return ctl.ControlInstance(
        "CCAC", rule, registered, votes, 1, {"p"},
        unregistered_candidates=unregistered, budget_add=kappa,
    )


def generate_ccdc_sav_rx3c(source: Rx3cInstance, rule: Rule = SAV) -> ctl.ControlInstance:
    kappa = source.kappa
    _require(kappa >= 3, "needs kappa of at least three")
    element_cands = {a: f"c({a})" for a in source.universe}
    set_cands = {s_i: f"c(H{s_i})" for s_i in range(len(source.sets))}
    candidates = list(element_cands.values()) + list(set_cands.values()) + ["p"]
    votes = []
    for s_i in range(len(source.sets)):
        votes.extend([frozenset(["p", set_cands[s_i]])] * 6)
    for a in source.universe:
        hit = frozenset(
            [element_cands[a]] + [set_cands[s_i] for s_i, s in enumerate(source.sets) if a in s]
        )
        votes.extend([hit] * (12 * kappa))
        votes.extend([frozenset([element_cands[a]])] * (8 * kappa - 2))
    votes.extend([frozenset(["p", *element_cands.values()])] * (6 * (3 * kappa + 1)))
    assert len(votes) == 60 * kappa * kappa + 30 * kappa + 6
    candidates = _nsav_padded(rule, candidates, len(votes), len(candidates), kappa)
    return ctl.ControlInstance("CCDC", rule, candidates, votes, 1, {"p"}, budget_delete=kappa)


def generate_ccdc_mav_rx3c(source: Rx3cInstance) -> ctl.ControlInstance:
    kappa = source.kappa
    set_cands = {s_i: f"c(H{s_i})" for s_i in range(len(source.sets))}
    candidates = ["p", "d1", "d2", "d3", "d4"] + list(set_cands.values())
    votes = [frozenset(["p", "d1", "d2"]), frozenset(["p", "d3", "d4"])]
    for a in source.universe:
        votes.append(frozenset(set_cands[s_i] for s_i, s in enumerate(source.sets) if a in s))
    instance = ctl.ControlInstance("CCDC", MAV, candidates, votes, 1, {"p"}, budget_delete=kappa)
    assert all(len(v) == 3 for v in instance.registered_votes)
    return instance


def generate_pcc_mav_rx3c(source: Rx3cInstance) -> ctl.ControlInstance:
    kappa = source.kappa
    set_cands = {s_i: f"c(H{s_i})" for s_i in range(len(source.sets))}
    candidates = ["p", "d1", "d2", "d3", "d4"] + list(set_cands.values())
    votes = []
    for a in source.universe:
        votes.append(frozenset(set_cands[s_i] for s_i, s in enumerate(source.sets) if a in s))
    votes.append(frozenset(["p", "d1", "d2"]))
    votes.append(frozenset(["p", "d3", "d4"]))
    instance = ctl.ControlInstance("JCC", MAV, candidates, votes, kappa + 1, {"p"})
    assert all(len(v) == 3 for v in instance.registered_votes)
    return instance


def _check_thiele_subclass(rule: Rule):
    _require(
        rule.is_thiele_family and rule.omega_value(2) < 2 * rule.omega_value(1),
        "needs a Thiele rule with omega(2) < 2*omega(1)",
    )


def generate_pcc_thiele_is(graph: GraphInstance, rule: Rule = PAV) -> ctl.ControlInstance:
    _check_thiele_subclass(rule)
    _require(graph.is_regular(), "needs a regular graph")
    _require(1 <= graph.kappa <= len(graph.vertices), "kappa must address the vertex set")
    degree = graph.degree(graph.vertices[0])
    candidates = list(graph.vertices) + ["p"]
    votes = _edge_votes(graph) + [frozenset(["p"])] * degree
    return ctl.ControlInstance("JCC", rule, candidates, votes, graph.kappa, {"p"})


def generate_ccdc_thiele_clique(graph: GraphInstance, rule: Rule = PAV) -> ctl.ControlInstance:
    _check_thiele_subclass(rule)
    _require(graph.is_regular(), "needs a regular graph")
    _require(2 <= graph.kappa <= len(graph.vertices), "needs kappa between two and |N|")
    degree = graph.degree(graph.vertices[0])
    candidates = ["p"] + list(graph.vertices)
    votes = [frozenset(["p"])] * degree + _edge_votes(graph)
    instance = ctl.ControlInstance(
        "CCDC", rule, candidates, votes, 2, {"p"},
        budget_delete=len(graph.vertices) - graph.kappa,
    )
    assert all(len(v) <= 2 for v in instance.registered_votes)
    return instance


def generate(kind: str, source, **kwargs):
    if kind not in _REDUCTIONS:
        raise ValueError(f"unknown reduction kind {kind!r}")
    problem, build, _ = _REDUCTIONS[kind]
    wanted = Rx3cInstance if problem == "RX3C" else GraphInstance
    if not isinstance(source, wanted):
        raise GenerationError(f"{kind} reduces from {problem}, which takes a {wanted.__name__}")
    return build(source, **kwargs)


def source_problem(kind: str) -> str:
    return _REDUCTIONS[kind][0]


def _strategic_answer(kind: str, instance, cap=None) -> bool:
    if isinstance(instance, man.ManipulationInstance):
        # the manipulation witnesses of these constructions are one shared
        # ballot (plus each manipulator's private padding block for MAV),
        # and their NO directions hold over all profiles
        verdict = man.solve_manipulation_bruteforce(
            instance,
            profile_mode="common",
            pool_override=sorted(instance.approved_union),
            cap=cap,
        )
        return verdict.yes
    if instance.ctype == "JCC":
        election = instance.base_election
        jcc = winners.JccInstance(election, instance.k, instance.distinguished)
        return winners.j_cc(instance.rule, jcc, algo="bruteforce")
    deletion_pool = None
    if instance.ctype == "CCDC":
        # padding clones are approved by nobody; deleting them never changes
        # any strict score comparison, so they stay out of the search
        approved = frozenset().union(*instance.registered_votes)
        deletion_pool = [
            c
            for c in instance.registered_candidates
            if c in approved and c not in instance.distinguished
        ]
    verdict = ctl.solve_control_bruteforce(instance, cap=cap, deletion_pool=deletion_pool)
    return verdict.yes


def roundtrip_check(kind: str, source, cap=None, **kwargs) -> bool:
    """Source-oracle answer equals the strategic brute-force answer.

    The manipulation constructions are checked under the cardinality and
    subset extensions; under stochastic domination the instance-level
    biconditional genuinely fails (a recast profile can win a large tie
    whose members cover the manipulators' ballots collectively without
    any single committee covering them), so that variant is refused.
    """
    if kwargs.get("variant") == "SDCM":
        raise GenerationError(
            "stochastic domination is not instance-equivalent to the source problem"
        )
    source_answer = solve_source(source, source_problem(kind), cap)
    instance = generate(kind, source, **kwargs)
    strategic = _strategic_answer(kind, instance, cap)
    if _REDUCTIONS[kind][2]:
        return source_answer == (not strategic)
    return source_answer == strategic
