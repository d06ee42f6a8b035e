"""The demos, tools and benchmark tracer use only names that ``starparadox`` defines.

The scripts are parsed, not run: some take minutes (demo 04 alone runs for
about two), so a renamed or deleted library name would otherwise go
unnoticed until someone ran them by hand.  The traced benchmark run
(``perfbench/run.py --trace 1``) wraps the functions and methods listed in
``perfbench/spans.py``; a rename would crash it, so those targets are
resolved here too.
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


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # reads the tables; patches nothing
    missing = []
    for _, module_name, attr in spans._FUNCTIONS:
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(f"{module_name}.{attr}")
    for _, path, attr in spans._METHODS:
        module_name, _, cls_name = path.rpartition(".")
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if not callable(getattr(cls, attr, None)):
            missing.append(f"{path}.{attr}")
    assert len(spans._FUNCTIONS) >= 10 and len(spans._METHODS) >= 5
    assert missing == []
