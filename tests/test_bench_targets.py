"""The benchmark's tracer wraps margincal functions by module and name; a
renamed or deleted one would break every traced benchmark run."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists_and_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr in tracing.target_attributes():
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
