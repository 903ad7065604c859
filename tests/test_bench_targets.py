"""The benchmark wraps and calls margincal functions by module and name; a
renamed or deleted one would break every benchmark run, and only then."""
import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_attributes():
    """(module object, attribute) of every name ``perfbench/tracing.py`` wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.target_attributes()


def workload_names():
    """(module name, attribute) of each name ``workloads.py`` imports from a
    margincal module, and each attribute it reads from a margincal module it
    imports (``trainer.forward``, ...), read from its source without running it."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "margincal":
            for alias in node.names:
                if node.module == "margincal":
                    modules[alias.asname or alias.name] = f"margincal.{alias.name}"
                else:
                    names.append((node.module, alias.name))
    names += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return names


def test_every_traced_name_exists_and_is_callable():
    for module, attr in traced_attributes():
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


def test_every_name_the_workloads_read_exists():
    names = workload_names()
    assert {("margincal.trainer", "forward"), ("margincal.metrics", "lower_bound_report"),
            ("margincal.trainer", "evaluate"), ("margincal.trainer", "train")} <= set(names)
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_every_traced_name_has_the_module_and_name_the_tracer_reads():
    """``Tracer.install`` names each span ``<layer>.<__name__>``, the layer
    taken from ``__module__``, and the per-layer metrics look the spans up by
    those names: a ``functools.partial`` (no ``__name__``) or a lambda in a
    traced name's place would fail every benchmark run, and only then."""
    for module, attr in traced_attributes():
        fn = getattr(module, attr)
        where = f"{module.__name__}.{attr}"
        assert getattr(fn, "__name__", None) == attr, where
        assert getattr(fn, "__module__", "").startswith("margincal."), where
