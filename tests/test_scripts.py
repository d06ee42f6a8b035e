"""The demos and tools import only names that ``starparadox`` defines.

The scripts are parsed, not run: some take minutes (demo 04 alone runs for
about two), so a renamed or deleted library name would otherwise go
unnoticed until someone ran them by hand.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("tools/*.py")])


def _missing_names(path: Path) -> list[str]:
    """Names imported from starparadox modules that the modules lack.

    A starparadox module that does not exist makes the import itself raise.
    """
    missing = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            pairs = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module_name, name in pairs:
            if module_name.partition(".")[0] != "starparadox":
                continue
            module = importlib.import_module(module_name)
            if name is None or hasattr(module, name):
                continue
            if not (hasattr(module, "__path__") and importlib.util.find_spec(f"{module_name}.{name}")):
                missing.append(f"{module_name}.{name}")
    return missing


def test_scripts_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_starparadox_imports_exist(path):
    assert _missing_names(path) == []
