"""The package's import graph, as ``coupled_do/__init__.py`` states it."""

import ast
from pathlib import Path

import coupled_do

PACKAGE = Path(coupled_do.__file__).parent
# each module may import, at top level, only the modules before it
ORDER = ["errors", "basis", "learner", "observer", "sim", "csvblocks", "fileio", "cli"]
LEAF = "oracles"        # the reference checks: imported by no module at top level


def imported(node) -> set:
    """The package modules that one import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return {node.module} if node.module else {a.name for a in node.names}
    if isinstance(node, ast.ImportFrom) and node.module == "coupled_do":
        return {a.name for a in node.names}
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coupled_do."):
        return {node.module.split(".")[1]}
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("coupled_do.")}
    return set()


def top_level_imports(module: str) -> set:
    """The package modules that ``module`` imports outside function and
    class bodies."""
    found, todo = set(), list(ast.parse((PACKAGE / f"{module}.py").read_text()).body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= imported(node)
            todo += ast.iter_child_nodes(node)
    return found


def test_every_module_is_placed_in_the_graph():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER) | {LEAF}


def test_modules_import_only_modules_listed_before_them():
    for i, module in enumerate(ORDER):
        assert top_level_imports(module) <= set(ORDER[:i]), module


def test_observer_imports_errors_alone():
    assert top_level_imports("observer") == {"errors"}


def test_oracles_is_imported_by_no_module_at_top_level():
    for module in ORDER + ["__init__"]:
        assert LEAF not in top_level_imports(module), module
    assert top_level_imports(LEAF) <= set(ORDER)
    # verify loads it inside the function that runs the checks
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    assert any(LEAF in imported(node) for node in ast.walk(cli))


def test_the_package_docstring_lists_the_order():
    doc = coupled_do.__doc__
    positions = [doc.index(f"``{module}``") for module in ORDER]
    assert positions == sorted(positions)
