"""Every top-level import of a popctrl module is used by that module."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "popctrl").glob("*.py"))


def _exported(tree):
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_top_level_import(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import math\nimport numpy as np\nfrom .grid import Field2D, lattice_inner\n" \
             "__all__ = ['Field2D']\nx = np.zeros(1)\n"
    assert _unused_imports(source) == ["lattice_inner (line 3)", "math (line 1)"]


def test_every_public_name_imports():
    import popctrl

    assert [name for name in popctrl.__all__ if not hasattr(popctrl, name)] == []
    retired = {"evaluate_objective", "objective_gradient", "fertile_male_integral",
               "threshold_margins", "ThresholdReport", "forced_terminal_mask",
               "unreachable_from_window", "observability_ratio"}
    assert retired.isdisjoint(popctrl.__all__)
