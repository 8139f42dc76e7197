"""Command-line surface.

Verdict commands exit 0 for YES, 1 for NO, 2 on usage or validation
errors, 3 when a resource cap refuses an exact search, and 4 on an
internal error (a bug, never a verdict), reported on stderr as
`internal error: <repr>`. `--json` emits a machine-readable result
(sorted keys, so identical inputs and seeds give byte-identical
output). ABMV_NODE_CAP in the environment overrides the solver caps.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import abmv
from abmv import control as ctl
from abmv import core, manipulation as man
from abmv import reductions as red
from abmv import serialize, verification, winners
from abmv.core import ResourceCapError, Rule, UnsupportedRuleError, ValidationError

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _rule_from_args(args) -> Rule:
    omega = None
    if getattr(args, "omega", None):
        omega = [Fraction(w) for w in args.omega.split(",")]
    return core.rule_from_name(args.rule, omega)


def _read_json(path: str) -> dict:
    with open(path) as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: the input must be a JSON object, not {type(obj).__name__}")
    return obj


def _emit(args, obj: dict, text_lines):
    if args.json:
        sys.stdout.write(serialize.dumps(obj))
    else:
        for line in text_lines:
            print(line)


def cmd_winners(args) -> int:
    rule = _rule_from_args(args)
    election = serialize.load_election(_read_json(args.input))
    ws = winners.winning_committees(rule, election, args.k, strategy=args.algo)
    obj = {
        "committees": [list(w) for w in ws.committees],
        "optimum": serialize.fraction_str(ws.optimum),
        "rule": str(rule),
        "k": args.k,
    }
    _emit(args, obj, [" ".join(w) for w in ws.committees])
    return EXIT_YES


def cmd_score(args) -> int:
    rule = _rule_from_args(args)
    election = serialize.load_election(_read_json(args.input))
    if args.committee:
        members = args.committee.split(",")
        if len(set(members)) != len(members):
            raise ValidationError(f"committee {args.committee!r} repeats a member")
        value = core.committee_score(rule, election, members)
        label = "{" + ",".join(members) + "}"
    elif args.candidate:
        value = core.additive_candidate_score(rule, election, args.candidate)
        label = args.candidate
    else:
        raise ValidationError("need --candidate or --committee")
    _emit(args, {"score": serialize.fraction_str(value), "of": label}, [f"{label} {serialize.fraction_str(value)}"])
    return EXIT_YES


def cmd_jcc(args) -> int:
    rule = _rule_from_args(args)
    obj = _read_json(args.input)
    election = serialize.load_election(obj)
    distinguished = args.J.split(",") if args.J else serialize.field(obj, "J", serialize.LABELS, [])
    k = args.k if args.k is not None else serialize.field(obj, "k", serialize.COUNT, None)
    if k is None:
        raise ValidationError("no committee size: pass -k or put 'k' in the file")
    instance = winners.JccInstance(election, k, frozenset(distinguished))
    answer = winners.j_cc(rule, instance, algo=args.algo)
    _emit(args, {"answer": "YES" if answer else "NO", "k": k, "J": sorted(distinguished)},
          ["YES" if answer else "NO"])
    return EXIT_YES if answer else EXIT_NO


def cmd_solve(args) -> int:
    rule = _rule_from_args(args)
    data = _read_json(args.input)
    if args.command == "solve-manip":
        instance = serialize.load_manipulation_instance(data, rule, args.variant)
        options = {"profile_mode": args.profile_mode, "pool": args.pool}
    else:
        instance = serialize.load_control_instance(data, rule, args.type)
        options = {"hash_mode": args.hash_mode, "seed": args.seed, "repetitions": args.repetitions}
    algo, verdict = abmv.solve(instance, args.algo, **options)
    lines = ["YES" if verdict.yes else "NO"]
    obj = {"answer": lines[0]}
    if algo != "jcc":  # a JCC file is a plain J-CC decision: no algorithm choice, no witness
        obj = {**serialize.verdict_to_obj(verdict), "algorithm": algo}
    if verdict.yes and args.command == "solve-manip":
        lines.append("profile: " + " | ".join(",".join(sorted(b)) or "-" for b in verdict.witness))
    elif verdict.witness is not None:
        lines.append(json.dumps(serialize.witness_to_obj(verdict.witness), sort_keys=True))
    _emit(args, obj, lines)
    return EXIT_YES if verdict.yes else EXIT_NO


def cmd_gen(args) -> int:
    source = serialize.load_source(_read_json(args.input))
    kwargs = {}
    if args.variant:
        kwargs["variant"] = args.variant.upper()
    if args.rule:
        kwargs["rule"] = core.rule_from_name(args.rule)
    instance = red.generate(args.kind, source, **kwargs)
    obj = serialize.instance_to_obj(instance)
    payload = serialize.dumps(obj)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_YES


def cmd_verify(args) -> int:
    names = sorted(verification.SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        runner = verification.SUITES[name]
        kwargs = {"seed": args.seed}
        if args.trials is not None:
            kwargs["trials"] = args.trials
        results.append(runner(**kwargs))
    obj = {
        "suites": [
            {
                "name": r.name,
                "trials": r.trials,
                "failures": r.failures,
                "yes_verdicts": r.yes_verdicts,
                "certified": r.certified,
            }
            for r in results
        ]
    }
    lines = []
    for r in results:
        status = "ok" if r.ok else f"FAILED ({len(r.failures)} mismatches)"
        lines.append(f"{r.name}: {r.trials} trials, {status}")
        lines.extend(f"  {msg}" for msg in r.failures[:10])
    _emit(args, obj, lines)
    return EXIT_YES if all(r.ok for r in results) else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abmv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rule=True):
        if rule:
            p.add_argument("--rule", required=True,
                           help="av | sav | nsav | pav | abccv | mav | thiele")
            p.add_argument("--omega", help="comma-separated omega table for thiele")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("winners", help="enumerate winning k-committees")
    add_common(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--algo", default="auto", choices=["auto", "exhaustive", "partition"])
    p.add_argument("input")
    p.set_defaults(func=cmd_winners)

    p = sub.add_parser("score", help="exact candidate or committee score")
    add_common(p)
    p.add_argument("--candidate")
    p.add_argument("--committee", help="comma-separated members")
    p.add_argument("input")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("jcc", help="is J in every winning k-committee?")
    add_common(p)
    p.add_argument("-k", type=int)
    p.add_argument("--J", help="comma-separated distinguished candidates")
    p.add_argument("--algo", default="auto", choices=["auto", "bruteforce", "fptn"])
    p.add_argument("input")
    p.set_defaults(func=cmd_jcc)

    p = sub.add_parser("solve-manip", help="decide a coalition manipulation instance")
    add_common(p)
    p.add_argument("--variant", choices=["cbcm", "sbcm", "sdcm", "CBCM", "SBCM", "SDCM"])
    p.add_argument("--algo", default="auto", choices=["auto"] + sorted(man.ALGORITHMS))
    p.add_argument("--mode", dest="profile_mode", default="split", choices=["split", "common"])
    p.add_argument("--pool", default="auto", choices=["auto", "with_committee", "unrestricted"])
    p.add_argument("input")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-control", help="decide an election control instance")
    add_common(p)
    p.add_argument("--type", help=" | ".join(ctl.CONTROL_TYPES))
    p.add_argument("--algo", default="auto", choices=["auto"] + sorted(ctl.ALGORITHMS))
    p.add_argument("--hash-mode", default="exhaustive", choices=["exhaustive", "randomized"])
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("input")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate a hardness-construction instance")
    p.add_argument("--kind", required=True, choices=sorted(red.REDUCTION_KINDS))
    p.add_argument("--variant", help="manipulation variant for the Manip* kinds")
    p.add_argument("--rule", help="rule for the Thiele-family kinds")
    p.add_argument("-o", "--output")
    p.add_argument("input")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run seeded verification campaigns")
    p.add_argument("--suite", default="all", choices=["all"] + sorted(verification.SUITES))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValidationError, UnsupportedRuleError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # anything else is a bug; exiting 1 would read as NO
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
