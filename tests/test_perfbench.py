import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


def test_every_traced_name_resolves():
    """The benchmark's traced run wraps these functions by name."""
    spans = load_spans()
    for module_name, functions in spans.TRACED.items():
        module = importlib.import_module(f"abmv.{module_name}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"abmv.{module_name}.{function}"
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_every_agreement_solver_resolves():
    """The agreement workload calls its specialised solvers by name."""
    workloads = load_perfbench("workloads")
    modules = {"manipulation": "abmv.manipulation", "control": "abmv.control"}
    for family, (problem, _, solver) in workloads.FAMILIES.items():
        if problem == "jcc":
            assert solver is None, family
            continue
        module = importlib.import_module(modules[problem])
        assert callable(getattr(module, solver, None)), f"{family}: {modules[problem]}.{solver}"


def test_solve_ip_spans_are_tagged_with_the_status():
    """`feasible_share` counts the `solve_ip` spans tagged "feasible"."""
    spans = load_spans()
    for module_name in spans.TRACED:
        importlib.import_module(f"abmv.{module_name}")
    ipcore = importlib.import_module("abmv.ipcore")
    programs = []
    for bound in (1, 2):  # x in [0, 1]: x >= 2 is infeasible
        program = ipcore.IntegerProgram()
        program.add_variable("x", 0, 1)
        program.add_constraint([("x", 1)], ">=", bound)
        programs.append(program)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.instance(0, "ip"):
            for program in programs:
                ipcore.solve_ip(program)
    finally:
        tracer.uninstall()
    tags = [tag for name, _, _, _, _, tag in tracer.spans if name == "ipcore.solve_ip"]
    assert tags == ["feasible", "infeasible"]
