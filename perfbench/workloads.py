"""The four seeded workloads: corpus generation, the timed call, the reference check.

Each workload yields a corpus of items from a seed, one item at a time,
through public abmv generators only; a run generates each item just
before its timed call, so only the instance being solved is alive.
`solve(item)` is the timed call and returns a plain outcome;
`check(item, outcome)` runs on an item regenerated from the same seed
after timing, so it never warms a cache the timed call reads, and
returns None when the outcome is right or a message when it is not.

Shapes (roster size, committee size, vote count, reduction kind, solver
family) follow fixed or stratified schedules; the seed draws the ballots,
graphs and set systems. Every seed therefore yields nearly the same mix
of work, which keeps the figures of one seed comparable with another's.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from abmv import control as ctl
from abmv import core, manipulation as man
from abmv import reductions as red
from abmv import verification as ver
from abmv import winners
from abmv.core import ABCCV, AV, MAV, NSAV, PAV, SAV, Election, thiele

THIELE = thiele([0, 1, Fraction(3, 2), Fraction(7, 4), 2, Fraction(9, 4), Fraction(5, 2), Fraction(11, 4)])
RULE_NAMES = {AV: "av", SAV: "sav", NSAV: "nsav", PAV: "pav", ABCCV: "abccv", MAV: "mav", THIELE: "thiele"}

# fptn answers are re-derived by enumeration only up to this many committees
BRUTEFORCE_CHECK_LIMIT = 2500


class Item:
    """One instance: a label for per-kind totals plus the solver's inputs."""

    __slots__ = ("label", "data")

    def __init__(self, label, data):
        self.label = label
        self.data = data


# ---------------------------------------------------------------------------
# committees: exhaustive committee scoring on dense random elections

# (roster size, committee size) -> elections per rule. The j-th of c
# elections draws its vote count from the j-th of c equal slices of VOTES,
# so latencies spread smoothly and nearly alike for every seed.
COMMITTEE_MIX = {
    "full": {(12, 3): 6, (13, 3): 6, (14, 3): 6, (12, 4): 4, (13, 4): 4, (14, 4): 4},
    "tiny": {(7, 2): 1, (8, 3): 1},
}
VOTES = {"full": (20, 40), "tiny": (4, 8)}


class Committees:
    name = "committees"

    def generate(self, seed, size):
        rng = random.Random(f"{seed}:committees")
        fewest, most = VOTES[size]
        for (m, k), count in COMMITTEE_MIX[size].items():
            for j in range(count):
                for rule, label in RULE_NAMES.items():
                    n = fewest + int((j + rng.random()) * (most - fewest + 1) / count)
                    election = ver.random_election(rng, m_max=m, n_max=n, m_min=m, n_min=n)
                    yield Item(label, (rule, election, k))

    def solve(self, item):
        rule, election, k = item.data
        ws = winners.winning_committees(rule, election, k, strategy="exhaustive")
        return ws.committees, ws.optimum

    def check(self, item, outcome):
        rule, election, k = item.data
        committees, optimum = outcome
        if rule.is_additive:
            ws = winners.winning_committees(rule, election, k, strategy="partition")
            if (ws.committees, ws.optimum) != outcome:
                return "exhaustive and partition winners differ"
            return None
        if winners.optimal_score_by_classes(rule, election, k) != optimum:
            return "optimum differs from the class-count optimum"
        if any(core.committee_score(rule, election, w) != optimum for w in committees):
            return "a reported winner does not reach the optimum"
        return None


# ---------------------------------------------------------------------------
# clones: few votes, many interchangeable candidates


def _cloned(base, copies, single):
    """`base` with each candidate but `single` replaced by `copies` clones."""
    names = {c: [f"{c}_{j}" for j in range(1 if c == single else copies)] for c in base.candidates}
    votes = [[x for c in vote for x in names[c]] for vote in base.votes]
    return Election([x for c in base.candidates for x in names[c]], votes)


# (approver patterns, votes, clones per pattern, committee size); the first
# four shapes are small enough for the brute-force check
FPTN_SHAPES = {
    "full": (
        (4, 4, 5, 3), (5, 4, 4, 3), (6, 5, 4, 3), (5, 6, 6, 3),
        (5, 5, 6, 4), (6, 6, 5, 4), (7, 6, 5, 4), (8, 6, 5, 4), (9, 5, 4, 4), (10, 6, 4, 4),
    ),
    "tiny": ((3, 3, 3, 2), (4, 4, 3, 3)),
}
# padded rosters: (count, fewest dummies, most dummies), evenly spaced so
# that the latency tail is the same for every seed
PADDING = {"full": (30, 1000, 50000), "tiny": (2, 100, 300)}
# (real candidates, votes, committee size), cycled over the padded rosters
PARTITION_SHAPES = ((6, 4, 3), (8, 6, 4), (10, 8, 5), (8, 5, 3), (10, 6, 4))
FPTN_RULES = 20 * (PAV, ABCCV, MAV, THIELE)
PARTITION_RULES = (AV, SAV, NSAV)


class Clones:
    name = "clones"

    def __init__(self):
        self.bruteforce_checked = 0

    def generate(self, seed, size):
        rng = random.Random(f"{seed}:clones")
        for patterns, n, copies, k in FPTN_SHAPES[size]:
            for rule in FPTN_RULES:
                base = ver.random_election(rng, m_max=patterns, n_max=n, m_min=patterns, n_min=n)
                # J is the uncloned, most approved candidate, so both answers occur
                top = max(base.candidates, key=lambda c: sum(c in v for v in base.votes))
                election = _cloned(base, copies, top)
                yield Item("fptn", (rule, winners.JccInstance(election, k, {f"{top}_0"})))
        count, fewest, most = PADDING[size]
        for j in range(count):
            m, n, k = PARTITION_SHAPES[j % len(PARTITION_SHAPES)]
            dummies = fewest + j * (most - fewest) // (count - 1)
            for rule in PARTITION_RULES:
                base = ver.random_election(rng, m_max=m, n_max=n, m_min=m, n_min=n)
                # k stays within the approved candidates, so the threshold
                # never falls into the dummy class and the pool stays small
                approved = len(frozenset().union(*base.votes))
                if approved == 0:
                    base = Election(base.candidates, base.votes + (frozenset(base.candidates),))
                    approved = m
                # padded here, so no local keeps the roster alive after its call
                yield Item("partition", (rule, core.pad_with_dummies(base, dummies), min(k, approved)))

    def solve(self, item):
        if item.label == "fptn":
            rule, instance = item.data
            return winners.j_cc(rule, instance, algo="fptn")
        rule, election, k = item.data
        ws = winners.winning_committees(rule, election, k, strategy="partition")
        return ws.committees, ws.optimum

    def check(self, item, outcome):
        if item.label == "fptn":
            rule, instance = item.data
            if math.comb(instance.election.m, instance.k) > BRUTEFORCE_CHECK_LIMIT:
                return None
            self.bruteforce_checked += 1
            if winners.j_cc(rule, instance, algo="bruteforce") != outcome:
                return "fptn and brute-force J-CC differ"
            return None
        rule, election, k = item.data
        if winners.optimal_score_by_classes(rule, election, k) != outcome[1]:
            return "partition optimum differs from the class-count optimum"
        return None


# ---------------------------------------------------------------------------
# reductions: the round-trip mix of the verification suite


class Reductions:
    name = "reductions"

    def generate(self, seed, size):
        rng = random.Random(f"{seed}:reductions")
        templates = _tiny_reduction_templates(rng) if size == "tiny" else _reduction_templates(rng)
        rng.shuffle(templates)
        for kind, source, kwargs in templates:
            yield Item(kind, (source, kwargs))

    def solve(self, item):
        source, kwargs = item.data
        return red.roundtrip_check(item.label, source, **kwargs)

    def check(self, item, outcome):
        return None if outcome is True else "source oracle and strategic brute force disagree"


def _cubic(rng, n, kappa):
    g = red.random_cubic_graph(n, rng)
    return red.GraphInstance(g.vertices, g.edges, kappa)


def _regular(rng, n, d, kappa):
    g = red.random_regular_graph(n, d, rng)
    return red.GraphInstance(g.vertices, g.edges, kappa)


def _spread(i, low, high):
    """The i-th of a cycle through low..high, where the suite draws randint(low, high)."""
    return low + i % (high - low + 1)


def _rx3c(rng, kappa, answer=None):
    """A random RX3C source, redrawn until its exact-cover answer is `answer`."""
    for _ in range(1000):
        source = red.random_rx3c(kappa, rng)
        if answer is None or red.solve_source(source, "RX3C") == answer:
            return source
    raise RuntimeError(f"no RX3C source with kappa={kappa} and answer {answer}")


def _reduction_templates(rng):
    """The kinds, counts and sizes of `verification.run_reduction_suite`.

    Where the suite draws kappa at random, kappa cycles through the same
    range. The slow kappa-3 candidate-deletion kinds search until the
    first witness, so their exact-cover answers follow a fixed schedule
    of two YES to one NO, near the two-thirds YES rate of random sources.
    """
    out = []
    for variant in ("CBCM", "SBCM"):
        for n, kappas in ((4, (1, 2, 3)), (6, (1, 2, 3, 4)), (8, (2, 4))):
            for kappa in kappas:
                out.append(("ManipAvVc", _cubic(rng, n, kappa), {"variant": variant}))
        for n, kappas in ((4, (1, 2, 3)), (6, (1, 2, 3)), (8, (2, 5))):
            for kappa in kappas:
                if 3 * kappa < 2 * (3 * n // 2 - 1):
                    out.append(("ManipSavVc", _cubic(rng, n, kappa), {"variant": variant}))
    for kappa in (1, 2, 3):
        out.append(("ManipNsavVc", _cubic(rng, 4, kappa), {"variant": "CBCM"}))
        out.append(("ManipMavVc", _cubic(rng, 4, kappa), {"variant": "CBCM" if kappa != 2 else "SBCM"}))
        out.append(("ManipNsavVc", _cubic(rng, 6, kappa + 1), {"variant": "SBCM"}))
    for i in range(18):
        out.append(("CcavSavRx3c", _rx3c(rng, _spread(i, 1, 2)), {}))
        out.append(("CcdvSavRx3c", _rx3c(rng, _spread(i, 1, 3)), {}))
    for i in range(14):
        for kind in ("CcavMavRx3c", "CcacSavRx3c", "PccMavRx3c", "CcdcMavRx3c", "CcdvNsavRx3c"):
            out.append((kind, _rx3c(rng, _spread(i, 1, 2)), {}))
    for i in range(8):
        out.append(("CcavNsavRx3c", _rx3c(rng, 1), {}))
        out.append(("CcacNsavRx3c", _rx3c(rng, _spread(i, 1, 2)), {}))
    for i in range(6):
        out.append(("CcdcSavRx3c", _rx3c(rng, 3, i % 3 != 2), {}))
    for i in range(3):
        out.append(("CcdcNsavRx3c", _rx3c(rng, 3, i % 3 != 2), {}))
    for rule in (PAV, ABCCV):
        for i, (n, d) in enumerate(((4, 3), (6, 3), (6, 2), (5, 2), (8, 3), (7, 2), (8, 2))):
            kappa = _spread(i, 1, min(4, n))
            out.append(("PccThieleIs", _regular(rng, n, d, kappa), {"rule": rule}))
            out.append(("CcdcThieleClique", _regular(rng, n, d, max(2, kappa)), {"rule": rule}))
    return out


def _tiny_reduction_templates(rng):
    """One small round trip of every kind except the slow CcdcNsavRx3c."""
    out = [
        ("ManipAvVc", _cubic(rng, 4, 1), {"variant": "CBCM"}),
        ("ManipSavVc", _cubic(rng, 4, 1), {"variant": "SBCM"}),
        ("ManipNsavVc", _cubic(rng, 4, 1), {"variant": "CBCM"}),
        ("ManipMavVc", _cubic(rng, 4, 1), {"variant": "CBCM"}),
        ("CcdcSavRx3c", red.random_rx3c(3, rng), {}),
        ("PccThieleIs", _regular(rng, 4, 3, 2), {"rule": PAV}),
        ("CcdcThieleClique", _regular(rng, 4, 3, 2), {"rule": ABCCV}),
    ]
    for kind in ("CcavSavRx3c", "CcdvSavRx3c", "CcavMavRx3c", "CcacSavRx3c", "PccMavRx3c",
                 "CcdcMavRx3c", "CcdvNsavRx3c", "CcavNsavRx3c", "CcacNsavRx3c"):
        out.append((kind, red.random_rx3c(1, rng), {}))
    return out


# ---------------------------------------------------------------------------
# agreement: specialised solvers against brute force, as in run_agreement_suite


def _quotas(weights, trials):
    """Split `trials` over the cells in proportion to `weights` (largest remainder)."""
    total = sum(weights.values())
    exact = {cell: trials * w / total for cell, w in weights.items()}
    quota = {cell: int(x) for cell, x in exact.items()}
    by_remainder = sorted(weights, key=lambda cell: quota[cell] - exact[cell])
    for cell in by_remainder[: trials - sum(quota.values())]:
        quota[cell] += 1
    return quota


def _union_size_probabilities(m, t):
    """Distribution of |union| of t ballots, each a uniform subset of a uniform size 1..m."""
    dist = {0: 1.0}
    for _ in range(t):
        step = {}
        for have, p in dist.items():
            for size in range(1, m + 1):
                for new in range(max(0, size - have), min(size, m - have) + 1):
                    q = math.comb(m - have, new) * math.comb(have, size - new) / math.comb(m, size)
                    step[have + new] = step.get(have + new, 0.0) + p * q / m
        dist = step
    return dist


def _manipulation(rules, variants, m_max, t_max):
    """Stratified draws of `random_manipulation_instance`.

    The brute force enumerates 2^(u*t) ballot profiles, where t is the
    number of manipulators and u the size of the union of their truthful
    ballots. Every (m, t, u) cell gets a fixed quota in proportion to its
    probability under the generator's uniform draws, so the cost of a
    corpus barely depends on the seed, which still draws everything else.
    """
    weights = {
        (m, t, u): p
        for m in range(2, m_max + 1)
        for t in range(1, t_max + 1)
        for u, p in _union_size_probabilities(m, t).items()
    }

    def make(rng, trials):
        quota = _quotas(weights, trials)
        out, draws = [], 0
        while len(out) < trials:
            draws += 1
            if draws > 1000 * trials:
                raise RuntimeError("random_manipulation_instance no longer fills its strata")
            rule, variant = rng.choice(rules), rng.choice(variants)
            instance = ver.random_manipulation_instance(rng, rule, variant, m_max, 4, t_max)
            cell = (len(instance.candidates), instance.t, len(instance.approved_union))
            if quota.get(cell):
                quota[cell] -= 1
                out.append(instance)
        return out

    return make


def _savnsav(rng, trials):
    """As the suite: a fifth of the trials with up to three manipulators."""
    few = _manipulation((SAV, NSAV), ("CBCM", "SBCM"), 4, 2)
    many = _manipulation((SAV, NSAV), ("CBCM", "SBCM"), 3, 3)
    out = many(rng, trials // 5) + few(rng, trials - trials // 5)
    rng.shuffle(out)
    return out


def _control(rules, ctypes, **ranges):
    def make(rng, trials):
        return [
            ver.random_control_instance(rng, rng.choice(rules), rng.choice(ctypes), **ranges)
            for _ in range(trials)
        ]

    return make


def _jcc(rng, trials):
    out = []
    for _ in range(trials):
        election = ver.random_election(rng, m_max=6, n_max=5, m_min=2, n_min=1)
        k = rng.randint(1, election.m)
        J = frozenset(rng.sample(election.candidates, rng.randint(1, k)))
        rule = rng.choice([ABCCV, PAV, MAV, thiele([0, 1] + [Fraction(3, 2)] * election.m)])
        out.append((rule, winners.JccInstance(election, k, J)))
    return out


CBCM_SBCM = ("CBCM", "SBCM")
ADDITIVE = (AV, SAV, NSAV)
# family -> (problem, instance maker, name of the specialised solver); the
# ranges are those of verification.run_agreement_suite
FAMILIES = {
    "additive-fpt-candidates": (
        "manipulation", _manipulation(ADDITIVE, CBCM_SBCM, 4, 2), "solve_manipulation_fpt_m_additive"
    ),
    "av-const-manipulators": ("manipulation", _manipulation((AV,), CBCM_SBCM, 5, 3), "solve_av_const_manipulators"),
    "av-fpt-candidates": ("manipulation", _manipulation((AV,), CBCM_SBCM, 5, 3), "solve_manipulation_fpt_m_av"),
    "ccadc-color-coding": (
        "control",
        _control((SAV, NSAV, ABCCV, PAV, MAV), ("CCAC", "CCDC", "CCADC"), m_max=5, n_max=4, d_max=3),
        "solve_ccadc_colorcoding",
    ),
    "ccadv-additive-fpt": (
        "control",
        _control(ADDITIVE, ("CCAV", "CCDV", "CCADV"), m_max=5, n_max=5, u_max=4),
        "solve_ccadv_additive_fpt",
    ),
    "ccadv-thiele-fpt": (
        "control",
        _control((ABCCV, PAV), ("CCAV", "CCDV", "CCADV"), m_max=4, n_max=4, u_max=3),
        "solve_ccadv_thiele_fpt",
    ),
    "ccav-mav-fpt": ("control", _control((MAV,), ("CCAV",), m_max=6, n_max=4, u_max=5), "solve_ccav_mav_fpt"),
    "ccdv-mav-poly": ("control", _control((MAV,), ("CCDV",), m_max=6, n_max=5), "solve_ccdv_mav_poly"),
    "jcc-fptn": ("jcc", _jcc, None),
    "savnsav-const-manipulators": ("manipulation", _savnsav, "solve_savnsav_const_manipulators"),
    "sdcm-fpt-candidates": ("manipulation", _manipulation(ADDITIVE, ("SDCM",), 4, 2), "solve_sdcm_fpt_m"),
}
TRIALS_PER_FAMILY = {"full": 300, "tiny": 3}


def _certify(problem, instance, witness):
    if problem == "manipulation":
        return man.certify_manipulation(instance, witness)
    return ctl.control_succeeds(instance, witness)


class Agreement:
    name = "agreement"

    def generate(self, seed, size):
        trials = TRIALS_PER_FAMILY[size]
        per_family = {
            family: make(random.Random(f"{seed}:agreement:{family}"), trials)
            for family, (_, make, _) in FAMILIES.items()
        }
        # families interleaved, so any stretch of the corpus mixes them
        for i in range(trials):
            for family in FAMILIES:
                yield Item(family, per_family[family][i])

    def solve(self, item):
        """Brute force, the specialised solver, and re-certification of every YES."""
        problem, _, solver = FAMILIES[item.label]
        if problem == "jcc":
            rule, instance = item.data
            return winners.j_cc(rule, instance, algo="bruteforce"), winners.j_cc(rule, instance, algo="fptn")
        instance = item.data
        if problem == "manipulation":
            brute = man.solve_manipulation_bruteforce(instance)
            special = getattr(man, solver)(instance)
        else:
            brute = ctl.solve_control_bruteforce(instance)
            special = getattr(ctl, solver)(instance)
        witnesses = tuple(v.witness for v in (brute, special) if v.yes)
        certified = all(_certify(problem, instance, w) for w in witnesses)
        return brute.yes, special.yes, witnesses, certified

    def check(self, item, outcome):
        problem = FAMILIES[item.label][0]
        if outcome[0] != outcome[1]:
            return "brute force and specialised solver disagree"
        if problem == "jcc":
            return None
        _, _, witnesses, certified = outcome
        if not certified or not all(_certify(problem, item.data, w) for w in witnesses):
            return "a YES witness failed certification"
        return None


WORKLOADS = {w.name: w for w in (Committees, Clones, Reductions, Agreement)}
REDUCTION_KINDS = red.REDUCTION_KINDS
AGREEMENT_FAMILIES = tuple(FAMILIES)
