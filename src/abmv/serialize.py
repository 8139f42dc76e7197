"""JSON formats for elections, strategic instances, sources, and verdicts.

An election object carries "candidates" (array of strings) and "votes"
(array of arrays of strings); instance loaders additionally consume
"k", "J", "manipulators", "variant", "baseline_committee",
"unregistered_votes", "unregistered_candidates", and the budget keys.
Scores serialize as exact "numerator/denominator" strings.

The loaders check each key's JSON type before building anything: labels
are strings, rosters and ballots are arrays of strings, and sizes and
budgets are integers, not booleans. A missing or ill-typed key raises
`ValidationError` naming the key. The instance classes themselves stay
permissive, so library callers may pass any iterables.
"""

from __future__ import annotations

import json
from fractions import Fraction

from abmv import control as ctl
from abmv import manipulation as man
from abmv import reductions as red
from abmv.core import Election, Rule, ValidationError, Verdict


def fraction_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _is_labels(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _is_ballots(value) -> bool:
    return isinstance(value, list) and all(map(_is_labels, value))


# JSON types of input keys: (test, what the error message calls it)
TEXT = (lambda value: isinstance(value, str), "a string")
LABELS = (_is_labels, "an array of strings")
BALLOTS = (_is_ballots, "an array of arrays of strings")
BLOCKS = (lambda value: isinstance(value, list) and all(map(_is_ballots, value)),
          "an array of arrays of arrays of strings")
COUNT = (lambda value: isinstance(value, int) and not isinstance(value, bool), "an integer")
_REQUIRED = object()


def field(obj: dict, key: str, kind, default=_REQUIRED, nullable=False):
    """obj[key] if it has the JSON type `kind` (or is null and `nullable`),
    else `default` when the key is absent and a default is given."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"missing key {key!r}")
        return default
    test, name = kind
    value = obj[key]
    if not (test(value) or (nullable and value is None)):
        raise ValidationError(f"{key!r} must be {name}{' or null' if nullable else ''}")
    return value


def load_election(obj: dict) -> Election:
    return Election(field(obj, "candidates", LABELS), field(obj, "votes", BALLOTS))


def load_manipulation_instance(obj: dict, rule: Rule, variant=None) -> man.ManipulationInstance:
    variant = (variant or field(obj, "variant", TEXT, "CBCM")).upper()
    return man.ManipulationInstance(
        rule,
        variant,
        field(obj, "candidates", LABELS),
        field(obj, "votes", BALLOTS, ()),
        field(obj, "manipulators", BALLOTS),
        field(obj, "k", COUNT),
        field(obj, "baseline_committee", LABELS, None, nullable=True),
        ballot_blocks=field(obj, "ballot_blocks", BLOCKS, ()),
    )


def manipulation_instance_to_obj(instance: man.ManipulationInstance) -> dict:
    order = {c: i for i, c in enumerate(instance.candidates)}
    out = {
        "candidates": list(instance.candidates),
        "votes": [sorted(v, key=order.get) for v in instance.honest_votes],
        "manipulators": [sorted(v, key=order.get) for v in instance.manipulative_votes],
        "k": instance.k,
        "variant": instance.variant,
    }
    if instance.current_committee is not None:
        out["baseline_committee"] = sorted(instance.current_committee, key=order.get)
    if instance.ballot_blocks:
        out["ballot_blocks"] = [
            [sorted(b, key=order.get) for b in blocks] for blocks in instance.ballot_blocks
        ]
    return out


def load_control_instance(obj: dict, rule: Rule, ctype=None) -> ctl.ControlInstance:
    ctype = (ctype or field(obj, "type", TEXT, "JCC")).upper()
    budget_add = field(obj, "budget_add", COUNT, None, nullable=True)
    budget_delete = field(obj, "budget_delete", COUNT, None, nullable=True)
    if "budget" in obj:
        adds, deletes = ctl.ACTIONS.get(ctype, (None, None))
        if (adds is None) == (deletes is None):
            raise ValidationError(f"{ctype} needs budget_add/budget_delete, not 'budget'")
        if adds:
            budget_add = field(obj, "budget", COUNT)
        else:
            budget_delete = field(obj, "budget", COUNT)
    return ctl.ControlInstance(
        ctype,
        rule,
        field(obj, "candidates", LABELS),
        field(obj, "votes", BALLOTS, ()),
        field(obj, "k", COUNT),
        field(obj, "J", LABELS),
        unregistered_candidates=field(obj, "unregistered_candidates", LABELS, ()),
        unregistered_votes=field(obj, "unregistered_votes", BALLOTS, ()),
        budget_add=budget_add,
        budget_delete=budget_delete,
    )


def control_instance_to_obj(instance: ctl.ControlInstance) -> dict:
    order = {c: i for i, c in enumerate(instance.registered_candidates)}
    for i, c in enumerate(instance.unregistered_candidates):
        order[c] = len(order) + i

    def ballot(v):
        return sorted(v, key=order.get)

    out = {
        "type": instance.ctype,
        "candidates": list(instance.registered_candidates),
        "votes": [ballot(v) for v in instance.registered_votes],
        "k": instance.k,
        "J": sorted(instance.distinguished, key=order.get),
    }
    if instance.unregistered_candidates:
        out["unregistered_candidates"] = list(instance.unregistered_candidates)
    if instance.unregistered_votes:
        out["unregistered_votes"] = [ballot(v) for v in instance.unregistered_votes]
    if instance.budget_add is not None:
        out["budget_add"] = instance.budget_add
    if instance.budget_delete is not None:
        out["budget_delete"] = instance.budget_delete
    return out


def instance_to_obj(instance) -> dict:
    if isinstance(instance, man.ManipulationInstance):
        return manipulation_instance_to_obj(instance)
    return control_instance_to_obj(instance)


def load_source(obj: dict):
    if "universe" in obj:
        return red.Rx3cInstance(field(obj, "universe", LABELS), field(obj, "sets", BALLOTS))
    if "vertices" in obj:
        return red.GraphInstance(
            field(obj, "vertices", LABELS), field(obj, "edges", BALLOTS), field(obj, "kappa", COUNT, 0)
        )
    raise ValidationError("a source is a graph ('vertices'/'edges') or an RX3C system ('universe'/'sets')")


def witness_to_obj(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, ctl.ControlSolution):
        return {
            "added_votes": list(witness.added_votes),
            "deleted_votes": list(witness.deleted_votes),
            "added_candidates": list(witness.added_candidates),
            "deleted_candidates": list(witness.deleted_candidates),
        }
    return [sorted(b) for b in witness]


def verdict_to_obj(verdict: Verdict) -> dict:
    out = {"answer": "YES" if verdict.yes else "NO"}
    if verdict.witness is not None:
        out["witness"] = witness_to_obj(verdict.witness)
    if verdict.details:
        out["details"] = {k: v for k, v in sorted(verdict.details.items())}
    return out


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
