"""Span tracing of abmv's public functions, installed from outside the package.

`Tracer.install()` replaces each function listed in `TRACED` with a
wrapper in every loaded `abmv` module that bound it, including names
bound with `from ... import`. It also counts `Election` constructions
and wraps the function behind the cached `Election.approval_classes`.
Spans are recorded only while an instance is open (`Tracer.instance`),
kept in memory, and reduced to per-layer metrics by `Tracer.metrics()`.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

TRACED = {
    "core": ("committee_score", "additive_class_scores", "partition_candidates", "additive_jcc"),
    "control": (
        "apply_control",
        "control_succeeds",
        "solve_control_bruteforce",
        "solve_ccadv_additive_fpt",
        "solve_ccadv_thiele_fpt",
        "solve_ccdv_mav_poly",
        "solve_ccav_mav_fpt",
        "solve_ccadc_colorcoding",
        "build_perfect_hash_family",
    ),
    "winners": ("winning_committees", "optimal_score_by_classes", "j_cc"),
    "ipcore": ("solve_ip",),
    "manipulation": (
        "solve_manipulation_bruteforce",
        "certify_manipulation",
        "solve_av_const_manipulators",
        "solve_savnsav_const_manipulators",
        "solve_manipulation_fpt_m_av",
        "solve_manipulation_fpt_m_additive",
        "solve_sdcm_fpt_m",
    ),
    "reductions": ("solve_source", "generate"),
}

RULES = ("av", "sav", "nsav", "pav", "abccv", "mav", "thiele")
CLASSES = "core.Election.approval_classes"

# Which argument or result a span keeps as its tag.
_TAGS = {
    "core.committee_score": lambda args, result: args[0].kind.lower(),
    "ipcore.solve_ip": lambda args, result: result.status,
    "control.control_succeeds": lambda args, result: bool(result),
}


def per_layer_names(reduction_kinds, agreement_families) -> list:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, functions in TRACED.items():
        for function in functions:
            name = f"{module}.{function}"
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
            if name == "core.committee_score":
                out += [(f"{name}.{rule}.per_s", "1/s") for rule in RULES]
            elif name == "control.control_succeeds":
                out.append((f"{name}.yes_share", "ratio"))
            elif name == "winners.j_cc":
                out.append((f"{name}.per_s", "1/s"))
            elif name == "ipcore.solve_ip":
                out += [(f"{name}.feasible_share", "ratio"), (f"{name}.cap_hits", "count")]
    out += [("core.Election.builds", "count"), (f"{CLASSES}.builds", "count"), (f"{CLASSES}.self_s", "s")]
    out += [(f"reductions.kind.{kind}.total_s", "s") for kind in reduction_kinds]
    out += [(f"agreement.{family}.total_s", "s") for family in agreement_families]
    out.append(("trace_overhead", "ratio"))
    return out


class Tracer:
    """Records (name, start, end, parent, instance, tag) spans in memory."""

    def __init__(self):
        self.spans = []
        self.election_builds = 0
        self._stack = []
        self._instance = None
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, tag_of = self.spans, self._stack, _TAGS.get(name)

        def traced(*args, **kwargs):
            if self._instance is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tag = tag_of(args, result) if tag_of and result is not None else None
                spans[index] = (name, start, end, parent, self._instance, tag)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever an abmv module bound it."""
        modules = [m for key, m in sys.modules.items() if key == "abmv" or key.startswith("abmv.")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"abmv.{module_name}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))
        election = sys.modules["abmv.core"].Election
        init = election.__init__

        def counted_init(obj, *args, **kwargs):
            if self._instance is not None:
                self.election_builds += 1
            init(obj, *args, **kwargs)

        election.__init__ = counted_init
        self._undo.append((election, "__init__", init))
        classes = election.__dict__["approval_classes"]
        self._undo.append((classes, "func", classes.func))
        classes.func = self._wrap(CLASSES, classes.func)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    @contextmanager
    def instance(self, instance_id, label):
        """Open the root span of one timed instance."""
        self._instance = instance_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = ("instance", start, end, -1, instance_id, label)
            self._instance = None

    def metrics(self, workload_name, reduction_kinds, agreement_families, overhead) -> dict:
        """Reduce the spans to the per-layer metrics, as name -> (value, unit)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s, total_s, tags = {}, {}, {}, {}
        for i, (name, start, end, parent, _, tag) in enumerate(self.spans):
            duration = end - start
            if name == "instance":
                name = f"{workload_name}.{tag}"
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
            total_s[name] = total_s.get(name, 0.0) + duration
            if tag is not None:
                key = (name, tag)
                count, seconds = tags.get(key, (0, 0.0))
                tags[key] = (count + 1, seconds + duration)

        def share(name, tag):
            return tags.get((name, tag), (0, 0.0))[0] / calls[name] if calls.get(name) else 0.0

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        values = {}
        for name, unit in per_layer_names(reduction_kinds, agreement_families):
            base, _, field = name.rpartition(".")
            if name == "trace_overhead":
                value = overhead
            elif name == "core.Election.builds":
                value = self.election_builds
            elif name == f"{CLASSES}.builds":
                value = calls.get(CLASSES, 0)
            elif field == "calls":
                value = calls.get(base, 0)
            elif field == "self_s":
                value = self_s.get(base, 0.0)
            elif field == "total_s":
                label = base.split(".")[-1]
                value = total_s.get(f"{workload_name}.{label}", 0.0)
            elif field == "cap_hits":
                value = tags.get((base, "cap_exceeded"), (0, 0.0))[0]
            elif field == "feasible_share":
                value = share(base, "feasible")
            elif field == "yes_share":
                value = share(base, True)
            elif name == "winners.j_cc.per_s":
                value = rate(calls.get(base, 0), total_s.get(base, 0.0))
            else:  # core.committee_score.<rule>.per_s
                rule = base.rpartition(".")[2]
                value = rate(*tags.get(("core.committee_score", rule), (0, 0.0)))
            values[name] = (value, unit)
        return values
