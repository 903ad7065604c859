"""Dead-code guard: every top-level function, class and constant in
``src/margincal``, and every method and property of its classes, is
referenced somewhere in ``src/`` outside its own definition.  The package's
``__init__.py`` holds only its docstring and version, and is not searched.

A reference is a name or an attribute with the definition's name, so this
is a lower bound on liveness: it cannot see that ``x.run`` is another
class's ``run``.  Two groups are exempt: the paper's oracles, which only the
acceptance tests call, and the names the benchmark wraps, calls or reads."""
import ast
import importlib
import inspect
from pathlib import Path

from test_bench_targets import traced_attributes, workload_names

SRC = Path(__file__).resolve().parents[1] / "src" / "margincal"

#: the paper's checks: closed forms and brute-force searches the tests compare against
ORACLES = {"rho_margin_loss", "rho_calibrated_log_loss", "rho_margin_objective",
           "brute_force_allocation", "reparam_identity_check", "scaling_check"}


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function, class and constant,
    and of each method and property of a top-level class but the dunder
    methods.  A constant is each name a module-level assignment binds, plain
    (``A = ...``), tuple (``A, B = ...``) or annotated (``A: int = ...``);
    its node is the whole assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def pinned():
    """(module name, qualified name) of every margincal function or class the
    benchmark wraps or calls, wherever the benchmark reaches it from, and of
    every constant it reads from the module it names."""
    attributes = [(module.__name__, attr) for module, attr in traced_attributes()]
    out = set()
    for module, attr in attributes + workload_names():
        obj = getattr(importlib.import_module(module), attr)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            out.add((obj.__module__, obj.__qualname__))
        else:
            out.add((module, attr))
    return out


def unreferenced():
    trees = {f"margincal.{path.stem}": ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    uses = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    exempt = pinned()
    dead = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name in ORACLES or (module, qualname) in exempt:
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(used == name and id(use) not in inside for used, use in uses):
                dead.append(f"{module}.{qualname}")
    return dead


def test_every_definition_is_referenced_in_src():
    assert unreferenced() == []


def test_the_exemptions_name_live_definitions():
    """Every oracle and every pinned name is still defined, so neither list
    exempts a name that has gone."""
    defined = {(f"margincal.{path.stem}", qualname)
               for path in SRC.glob("*.py") if path.name != "__init__.py"
               for qualname, _ in definitions(ast.parse(path.read_text()))}
    assert ORACLES <= {qualname for _, qualname in defined}
    assert pinned() <= defined
