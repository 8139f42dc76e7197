"""Seeded verification campaigns: oracle equivalences and round trips.

Each suite runs deterministic randomized trials and reports failures as
strings; the CLI `verify` command and the acceptance tests both run
these. Every YES verdict encountered anywhere is certified by
applying its witness and recomputing winners; an uncertified YES is a
failure regardless of any other agreement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from abmv import control as ctl
from abmv import core, manipulation as man
from abmv import reductions as red
from abmv import winners
from abmv.core import ABCCV, AV, MAV, NSAV, PAV, SAV, Election, thiele


@dataclass
class SuiteResult:
    name: str
    trials: int = 0
    failures: list = field(default_factory=list)
    yes_verdicts: int = 0
    certified: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        self.failures.append(message)


def random_election(rng: random.Random, m_max=6, n_max=6, m_min=1, n_min=0) -> Election:
    m = rng.randint(m_min, m_max)
    candidates = [f"c{i}" for i in range(m)]
    votes = [frozenset(rng.sample(candidates, rng.randint(0, m))) for _ in range(rng.randint(n_min, n_max))]
    return Election(candidates, votes)


def run_lemma1_suite(trials: int = 500, seed: int = 1) -> SuiteResult:
    """Closed-form MAV single winners against exhaustive search at k=1."""
    rng = random.Random(seed)
    result = SuiteResult("lemma1")
    for _ in range(trials):
        election = random_election(rng, m_max=10, n_max=8)
        result.trials += 1
        closed = winners.mav_single_winners(election)
        exhaustive = winners.winning_committees(MAV, election, 1, strategy="exhaustive")
        flattened = {w[0] for w in exhaustive.committees}
        if closed != flattened:
            result.fail(f"lemma1 mismatch on {sorted(map(sorted, election.votes))}")
    return result


def run_lemma2_suite(trials: int = 200, seed: int = 2) -> SuiteResult:
    """Strict SAV comparisons survive n*m^2 dummy padding under NSAV.

    Checked on every pair with distinct SAV scores (both directions of
    the equivalence). Pairs tied under SAV are exempt: the padded NSAV
    penalties resolve such ties by approval counts, so only clones are
    required to stay tied.
    """
    rng = random.Random(seed)
    result = SuiteResult("lemma2")
    for _ in range(trials):
        election = random_election(rng, m_max=7, n_max=6, m_min=2, n_min=1)
        result.trials += 1
        padded = core.pad_with_dummies(election, election.n * election.m * election.m)
        sav = core.additive_scores(SAV, election)
        nsav = core.additive_scores(NSAV, padded)
        for a in election.candidates:
            for b in election.candidates:
                if sav[a] != sav[b] and (sav[a] > sav[b]) != (nsav[a] > nsav[b]):
                    result.fail(f"lemma2 mismatch on pair ({a},{b})")
                if (
                    election.approver_sets[a] == election.approver_sets[b]
                    and nsav[a] != nsav[b]
                ):
                    result.fail(f"lemma2: clones ({a},{b}) broke their tie")
    return result


# ---------------------------------------------------------------------------
# Reduction round trips


def _reduction_templates(rng: random.Random):
    """One full pass over every reduction kind at mixed sizes."""
    templates = []

    def cubic(n, kappa):
        g = red.random_cubic_graph(n, rng)
        return red.GraphInstance(g.vertices, g.edges, kappa)

    def regular(n, d, kappa):
        g = red.random_regular_graph(n, d, rng)
        return red.GraphInstance(g.vertices, g.edges, kappa)

    for variant in ("CBCM", "SBCM"):
        for n, kappas in ((4, (1, 2, 3)), (6, (1, 2, 3, 4)), (8, (2, 4))):
            for kappa in kappas:
                templates.append(("ManipAvVc", cubic(n, kappa), {"variant": variant}))
        for n, kappas in ((4, (1, 2, 3)), (6, (1, 2, 3)), (8, (2, 5))):
            for kappa in kappas:
                if 3 * kappa < 2 * (3 * n // 2 - 1):
                    templates.append(("ManipSavVc", cubic(n, kappa), {"variant": variant}))
    for kappa in (1, 2, 3):
        templates.append(("ManipNsavVc", cubic(4, kappa), {"variant": "CBCM"}))
        templates.append(("ManipMavVc", cubic(4, kappa), {"variant": "CBCM" if kappa != 2 else "SBCM"}))
        templates.append(("ManipNsavVc", cubic(6, kappa + 1), {"variant": "SBCM"}))

    for _ in range(18):
        templates.append(("CcavSavRx3c", red.random_rx3c(rng.randint(1, 2), rng), {}))
        templates.append(("CcdvSavRx3c", red.random_rx3c(rng.randint(1, 3), rng), {}))
    for _ in range(14):
        templates.append(("CcavMavRx3c", red.random_rx3c(rng.randint(1, 2), rng), {}))
        templates.append(("CcacSavRx3c", red.random_rx3c(rng.randint(1, 2), rng), {}))
        templates.append(("PccMavRx3c", red.random_rx3c(rng.randint(1, 2), rng), {}))
        templates.append(("CcdcMavRx3c", red.random_rx3c(rng.randint(1, 2), rng), {}))
        templates.append(("CcdvNsavRx3c", red.random_rx3c(rng.randint(1, 2), rng), {}))
    for _ in range(8):
        templates.append(("CcavNsavRx3c", red.random_rx3c(1, rng), {}))
        templates.append(("CcacNsavRx3c", red.random_rx3c(rng.randint(1, 2), rng), {}))
    for _ in range(6):
        templates.append(("CcdcSavRx3c", red.random_rx3c(3, rng), {}))
    for _ in range(3):
        templates.append(("CcdcNsavRx3c", red.random_rx3c(3, rng), {}))
    for rule in (PAV, ABCCV):
        for n, d in ((4, 3), (6, 3), (6, 2), (5, 2), (8, 3), (7, 2), (8, 2)):
            kappa = rng.randint(1, min(4, n))
            templates.append(("PccThieleIs", regular(n, d, kappa), {"rule": rule}))
            templates.append(
                ("CcdcThieleClique", regular(n, d, max(2, kappa)), {"rule": rule})
            )
    rng.shuffle(templates)
    return templates


def run_reduction_suite(trials: int = 0, seed: int = 3) -> SuiteResult:
    """Round-trip equivalence over the whole reduction corpus.

    `trials` truncates or repeats the corpus; 0 means one full pass
    (about 210 round trips).
    """
    rng = random.Random(seed)
    templates = _reduction_templates(rng)
    if trials:
        while len(templates) < trials:
            templates += _reduction_templates(rng)
        templates = templates[:trials]
    result = SuiteResult("reductions")
    for kind, source, kwargs in templates:
        result.trials += 1
        try:
            ok = red.roundtrip_check(kind, source, **kwargs)
        except Exception as exc:  # a crash is a failure, not an abort
            result.fail(f"{kind}: {exc!r}")
            continue
        if not ok:
            result.fail(f"{kind} round trip mismatch (kappa={getattr(source, 'kappa', '?')})")
    return result


# ---------------------------------------------------------------------------
# Specialized solver vs brute force


def random_manipulation_instance(rng, rule, variant, m_max, n_max, t_max):
    m = rng.randint(2, m_max)
    candidates = [f"c{i}" for i in range(m)]
    honest = [frozenset(rng.sample(candidates, rng.randint(0, m))) for _ in range(rng.randint(0, n_max))]
    manip = [frozenset(rng.sample(candidates, rng.randint(1, m))) for _ in range(rng.randint(1, t_max))]
    k = rng.randint(1, m)
    committee = None
    if variant != "SDCM":
        full = Election(candidates, honest + manip)
        ws = winners.winning_committees(rule, full, k, strategy="exhaustive")
        committee = frozenset(rng.choice(ws.committees))
    return man.ManipulationInstance(rule, variant, candidates, honest, manip, k, committee)


def random_control_instance(rng, rule, ctype, m_max=5, n_max=5, u_max=4, d_max=3, b_max=2):
    adds, deletes = ctl.ACTIONS.get(ctype, (None, None))
    m = rng.randint(2, m_max)
    C = [f"c{i}" for i in range(m)]
    D = [f"d{i}" for i in range(rng.randint(1, d_max))] if adds == "candidates" else []
    pool = C + D
    V = [frozenset(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(rng.randint(1, n_max))]
    U = []
    if adds == "votes":
        U = [frozenset(rng.sample(C, rng.randint(0, m))) for _ in range(rng.randint(1, u_max))]
    k = rng.randint(1, m)
    J = frozenset(rng.sample(C, rng.randint(1, k)))
    ba = bd = None
    if adds:
        ba = rng.randint(0, min(b_max, len(U if adds == "votes" else D)))
    if deletes:
        bd = rng.randint(0, min(b_max, len(V if deletes == "votes" else C)))
    return ctl.ControlInstance(ctype, rule, C, V, k, J, D, U, ba, bd)


def _check_agreement(result, instance, solver, bruteforce, certify, describe):
    """Check `solver` against `bruteforce`, certify every YES witness with
    `certify`, and report a disagreement as `describe()`."""
    brute = bruteforce(instance)
    special = solver(instance)
    for verdict in (brute, special):
        if verdict.yes:
            result.yes_verdicts += 1
            if certify(instance, verdict.witness):
                result.certified += 1
            else:
                result.fail("uncertified YES witness")
    if brute.yes != special.yes:
        result.fail(describe())


def _check_manip_agreement(result, instance, solver):
    _check_agreement(
        result, instance, solver, man.solve_manipulation_bruteforce, man.certify_manipulation,
        lambda: (
            f"disagreement on {instance.rule.kind} {instance.variant} "
            f"votes={sorted(map(sorted, instance.honest_votes))} "
            f"manip={sorted(map(sorted, instance.manipulative_votes))} k={instance.k}"
        ),
    )


def _check_control_agreement(result, instance, solver):
    _check_agreement(
        result, instance, solver, ctl.solve_control_bruteforce, ctl.control_succeeds,
        lambda: (
            f"disagreement on {instance.rule.kind} {instance.ctype} "
            f"votes={sorted(map(sorted, instance.registered_votes))} k={instance.k} "
            f"J={sorted(instance.distinguished)}"
        ),
    )


def _agreement_trial_builders():
    def av_const(result, rng):
        variant = rng.choice(["CBCM", "SBCM"])
        inst = random_manipulation_instance(rng, AV, variant, 5, 4, 3)
        _check_manip_agreement(result, inst, man.solve_av_const_manipulators)

    def savnsav_const(result, rng):
        rule = rng.choice([SAV, NSAV])
        variant = rng.choice(["CBCM", "SBCM"])
        t_max = 3 if rng.random() < 0.2 else 2
        inst = random_manipulation_instance(rng, rule, variant, 4 if t_max == 2 else 3, 4, t_max)
        _check_manip_agreement(result, inst, man.solve_savnsav_const_manipulators)

    def fpt_av(result, rng):
        variant = rng.choice(["CBCM", "SBCM"])
        inst = random_manipulation_instance(rng, AV, variant, 5, 4, 3)
        _check_manip_agreement(result, inst, man.solve_manipulation_fpt_m_av)

    def fpt_additive(result, rng):
        rule = rng.choice([AV, SAV, NSAV])
        variant = rng.choice(["CBCM", "SBCM"])
        inst = random_manipulation_instance(rng, rule, variant, 4, 4, 2)
        _check_manip_agreement(result, inst, man.solve_manipulation_fpt_m_additive)

    def fpt_sdcm(result, rng):
        rule = rng.choice([AV, SAV, NSAV])
        inst = random_manipulation_instance(rng, rule, "SDCM", 4, 4, 2)
        _check_manip_agreement(result, inst, man.solve_sdcm_fpt_m)

    def ccdv_mav(result, rng):
        inst = random_control_instance(rng, MAV, "CCDV", m_max=6, n_max=5)
        _check_control_agreement(result, inst, ctl.solve_ccdv_mav_poly)

    def ccadv_additive(result, rng):
        rule = rng.choice([AV, SAV, NSAV])
        ctype = rng.choice(ctl.VOTER_TYPES)
        inst = random_control_instance(rng, rule, ctype, m_max=5, n_max=5, u_max=4)
        _check_control_agreement(result, inst, ctl.solve_ccadv_additive_fpt)

    def ccadv_thiele(result, rng):
        rule = rng.choice([ABCCV, PAV])
        ctype = rng.choice(ctl.VOTER_TYPES)
        inst = random_control_instance(rng, rule, ctype, m_max=4, n_max=4, u_max=3)
        _check_control_agreement(result, inst, ctl.solve_ccadv_thiele_fpt)

    def ccav_mav(result, rng):
        inst = random_control_instance(rng, MAV, "CCAV", m_max=6, n_max=4, u_max=5)
        _check_control_agreement(result, inst, ctl.solve_ccav_mav_fpt)

    def ccadc_colors(result, rng):
        rule = rng.choice([SAV, NSAV, ABCCV, PAV, MAV])
        ctype = rng.choice(ctl.CANDIDATE_TYPES)
        inst = random_control_instance(rng, rule, ctype, m_max=5, n_max=4, d_max=3)
        _check_control_agreement(result, inst, ctl.solve_ccadc_colorcoding)

    def jcc_fptn(result, rng):
        election = random_election(rng, m_max=6, n_max=5, m_min=2, n_min=1)
        k = rng.randint(1, election.m)
        J = frozenset(rng.sample(election.candidates, rng.randint(1, k)))
        inst = winners.JccInstance(election, k, J)
        rule = rng.choice([ABCCV, PAV, MAV, thiele([0, 1] + [Fraction(3, 2)] * election.m)])
        brute = winners.j_cc(rule, inst, algo="bruteforce")
        special = winners.j_cc(rule, inst, algo="fptn")
        if brute != special:
            result.fail(
                f"j_cc disagreement under {rule.kind} on "
                f"{sorted(map(sorted, election.votes))} k={k} J={sorted(J)}"
            )

    return {
        "av-const-manipulators": av_const,
        "savnsav-const-manipulators": savnsav_const,
        "av-fpt-candidates": fpt_av,
        "additive-fpt-candidates": fpt_additive,
        "sdcm-fpt-candidates": fpt_sdcm,
        "ccdv-mav-poly": ccdv_mav,
        "ccadv-additive-fpt": ccadv_additive,
        "ccadv-thiele-fpt": ccadv_thiele,
        "ccav-mav-fpt": ccav_mav,
        "ccadc-color-coding": ccadc_colors,
        "jcc-fptn": jcc_fptn,
    }


def run_agreement_suite(trials: int = 100, seed: int = 4) -> SuiteResult:
    """Every specialized solver against brute force on its domain, `trials` each."""
    result = SuiteResult("agreement")
    for name, builder in sorted(_agreement_trial_builders().items()):
        rng = random.Random(f"{seed}:{name}")
        for _ in range(trials):
            result.trials += 1
            try:
                builder(result, rng)
            except Exception as exc:
                result.fail(f"{name}: {exc!r}")
    return result


def run_immunity_suite(trials: int = 200, seed: int = 5) -> SuiteResult:
    """Immune settings never let control force a non-winning J in.

    Random candidate-addition instances under AV (any |J|) and under
    PAV/ABCCV with |J| = k; whenever J is not already in all winning
    committees, brute force must answer NO.
    """
    rng = random.Random(seed)
    result = SuiteResult("immunity")
    while result.trials < trials:
        if rng.random() < 0.5:
            rule, fix_j_to_k = AV, False
        else:
            rule, fix_j_to_k = rng.choice([PAV, ABCCV]), True
        m = rng.randint(2, 5)
        C = [f"c{i}" for i in range(m)]
        D = [f"d{i}" for i in range(rng.randint(1, 3))]
        pool = C + D
        V = [frozenset(rng.sample(pool, rng.randint(0, len(pool)))) for _ in range(rng.randint(1, 5))]
        k = rng.randint(1, m)
        j_size = k if fix_j_to_k else rng.randint(1, k)
        J = frozenset(rng.sample(C, j_size))
        ba = rng.randint(1, len(D))
        inst = ctl.ControlInstance("CCAC", rule, C, V, k, J, D, budget_add=ba)
        verdict_status = ctl.immunity_verdict(rule, "CCAC", k, j_size).status
        if verdict_status != "immune":
            continue
        if ctl.control_succeeds(inst, ctl.EMPTY_SOLUTION):
            continue  # J already universally winning; nothing to convert
        result.trials += 1
        brute = ctl.solve_control_bruteforce(inst)
        if brute.yes:
            result.fail(
                f"immunity violated: {rule.kind} CCAC k={k} J={sorted(J)} "
                f"votes={sorted(map(sorted, V))}"
            )
    return result


SUITES: dict = {
    "lemma1": run_lemma1_suite,
    "lemma2": run_lemma2_suite,
    "reductions": run_reduction_suite,
    "agreement": run_agreement_suite,
    "immunity": run_immunity_suite,
}
