"""The demos, tools and benchmark tracer use only names that ``starparadox`` defines.

The scripts are parsed, not run: some take minutes (demo 04 alone runs for
about two), so a renamed or deleted library name, or a removed parameter,
would otherwise go unnoticed until someone ran them by hand.  The traced
benchmark run (``perfbench/run.py --trace 1``) wraps the functions and
methods listed in ``perfbench/spans.py``; a rename would crash it, so those
targets are resolved here too.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("tools/*.py")])


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _starparadox_imports(tree: ast.Module):
    """(module name, imported name or None, local name) of each starparadox import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            triples = [(alias.name, None, alias.asname) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            triples = [(node.module, alias.name, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        for module_name, name, local in triples:
            if module_name.partition(".")[0] == "starparadox":
                yield module_name, name, local


def _missing_names(path: Path) -> list[str]:
    """Names imported from starparadox modules that the modules lack.

    A starparadox module that does not exist makes the import itself raise.
    """
    missing = []
    for module_name, name, _ in _starparadox_imports(_parse(path)):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        if not (hasattr(module, "__path__") and importlib.util.find_spec(f"{module_name}.{name}")):
            missing.append(f"{module_name}.{name}")
    return missing


def _unbound_calls(path: Path) -> list[str]:
    """Direct calls of imported starparadox callables that do not fit their signatures.

    Each call's positional count and keyword names are bound with
    ``inspect.signature(...).bind``; calls with ``*`` or ``**`` unpacking
    are skipped, since their arguments are only known at run time.
    """
    tree = _parse(path)
    targets = {}
    for module_name, name, local in _starparadox_imports(tree):
        obj = getattr(importlib.import_module(module_name), name, None) if name else None
        if callable(obj):
            targets[local] = obj
    bad = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in targets):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(targets[node.func.id]).bind(
                *([None] * len(node.args)), **{k.arg: None for k in node.keywords}
            )
        except TypeError as exc:
            bad.append(f"line {node.lineno}: {node.func.id}: {exc}")
    return bad


def test_scripts_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_starparadox_imports_exist(path):
    assert _missing_names(path) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_starparadox_calls_bind(path):
    assert _unbound_calls(path) == []


def test_call_check_catches_a_removed_parameter(tmp_path):
    script = tmp_path / "uses_removed_parameter.py"
    script.write_text(
        "from starparadox.tempering import check_tempered, default_z_grid\n"
        "from starparadox.priors import UniformPrior\n"
        "check_tempered(UniformPrior(1.0), 0.1, z_points=7)\n"
        "default_z_grid(0.1, 5, 3)\n"
        "default_z_grid(*[0.1])\n",
        encoding="utf-8",
    )
    bad = _unbound_calls(script)
    assert [line.split(":")[0] for line in bad] == ["line 3", "line 4"]


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
    # every catalog class's sample is wrapped; the probe reads size as the third positional argument
    for kind, cls in importlib.import_module("starparadox.priors").PRIOR_KINDS.items():
        sample = getattr(cls, "sample", None)
        try:
            size = inspect.signature(sample).bind(cls, "rng", "size").arguments["size"]
        except (TypeError, ValueError, KeyError):
            size = None
        if not callable(sample) or size != "size":
            missing.append(f"{kind}.sample(rng, size)")
    assert len(spans._FUNCTIONS) >= 10 and len(spans._METHODS) >= 5
    assert missing == []
