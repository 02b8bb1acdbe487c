"""Every name the package exports is used: inside the package, by the
acceptance suite, or in the README's library quickstart. Every import is
used, every function that steps the FTCS kernel binds it through
``schemes._row_stepper``, the numerical layers report a diverged run rather
than raise it, and only the run writer and ``reproduce`` create or clear a
run directory."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "advisc"


def used_names(source: str) -> set[str]:
    """The names read and the attributes taken in Python source; a definition
    or an import alone is no use."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_used():
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= used_names(path.read_text())
    used |= used_names((ROOT / "tests" / "test_acceptance.py").read_text())
    quickstart = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    used |= used_names(re.search(r"```python\n(.*?)```", quickstart, re.DOTALL).group(1))
    assert sorted(exported - used) == []


def test_every_import_is_used():
    # A module keeps no import it does not use; __init__.py imports to export.
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names if alias.name != "annotations"}
        left = imported - used_names(path.read_text())
        if left:
            unused[path.name] = sorted(left)
    assert unused == {}


def test_every_stepping_function_binds_the_one_kernel():
    # schemes._row_stepper is the one FTCS binder: each function that steps
    # the kernel calls it, rather than wiring buffers of its own.
    steppers = {"schemes.py": {"simulate", "_first_mismatch"},
                "adjoint.py": {"grad_mu_global"},
                "optimizer.py": {"_descend"}}
    missing = []
    for module, names in steppers.items():
        tree = ast.parse((PACKAGE / module).read_text())
        for function in tree.body:
            if isinstance(function, ast.FunctionDef) and function.name in names:
                names = names - {function.name}
                calls = {getattr(call.func, "id", None) for call in ast.walk(function)
                         if isinstance(call, ast.Call)}
                if "_row_stepper" not in calls:
                    missing.append(f"{module}:{function.name}")
        missing += [f"{module}:{name} (not defined)" for name in sorted(names)]
    assert missing == []


def test_the_numerical_layers_report_divergence_and_never_raise_it():
    # A diverged run is a trajectory that stops short of its horizon, so the
    # numerical layers neither catch an exception nor define one.
    try_nodes = (ast.Try, getattr(ast, "TryStar", ast.Try))
    found = []
    for module in ("schemes.py", "adjoint.py", "optimizer.py", "diagnostics.py", "grid.py"):
        for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
            if isinstance(node, try_nodes):
                found.append(f"{module}:{node.lineno}: try")
            elif isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", "")).endswith(
                        ("Error", "Exception", "Warning")) for base in node.bases):
                found.append(f"{module}:{node.lineno}: class {node.name}")
    assert found == []


def test_only_the_run_writer_and_reproduce_create_or_clear_a_directory():
    # cli._write_run creates and clears a run's directory once the run exists,
    # and cmd_reproduce its study root before it trains; _clear_previous_run
    # recurses into a study's subruns.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)]
    callers = {}
    for function in functions:
        for call in ast.walk(function):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "attr", getattr(call.func, "id", None))
                if name in ("mkdir", "_clear_previous_run"):
                    callers.setdefault(name, set()).add(function.name)
    callers["_clear_previous_run"].discard("_clear_previous_run")
    assert callers == {"mkdir": {"_write_run", "cmd_reproduce"},
                       "_clear_previous_run": {"_write_run", "cmd_reproduce"}}
