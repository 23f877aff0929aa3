"""The benchmark tracer wraps slotmesh functions by module attribute name,
so renaming one of them has to fail the suite, not only a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # the tracer needs only the stdlib
    for module_name, name in [*tracer.SPANNED, tracer.COUNTED]:
        module = importlib.import_module(f"slotmesh.{module_name}")
        assert callable(getattr(module, name)), f"slotmesh.{module_name}.{name}"
