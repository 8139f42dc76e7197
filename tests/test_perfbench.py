import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
