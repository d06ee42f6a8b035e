"""The demos, tools and benchmark use only names that ``starparadox`` defines.

The scripts are parsed, so a renamed or deleted library name, or a removed
parameter, shows here without running them; the demos, about 2 s together,
are also run, so a changed result type shows as well.  The traced
benchmark run (``perfbench/run.py --trace 1``) wraps the functions and
methods listed in ``perfbench/spans.py``; a rename would crash it, so those
targets are resolved here too.

The other way round, every definition in the package is called by some
code other than the tests: another package module, a demo, a tool or the
benchmark.  Code that only the tests call lives with the tests
(``tests/oracles.py``), unless ``_TEST_ONLY`` names it with a reason.

The package's own sources are parsed for more rules: ``scipy.integrate``
is not imported at all (H and the moments come from fixed Gauss-Legendre
rules; the adaptive reference lives in ``tests/oracles.py``), and no scipy
module is imported when a module loads; the
posterior rule reads the prior through a fixed interface, with one CDF call
site; and Monte Carlo log-means are reduced in one place (``_exp_inplace``
is used only by ``posterior._shifted_exp``).
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("tools/*.py"),
                  *ROOT.glob("perfbench/*.py")])
PACKAGE = ROOT / "src" / "starparadox"


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


@pytest.mark.parametrize("path", sorted(ROOT.glob("demos/*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_demo_runs(path, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    r = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


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


def test_benchmark_argv_parses(tmp_path, monkeypatch):
    # a flag the benchmark passes and the CLI dropped would otherwise fail only in a benchmark run
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)  # builds argv; runs nothing
    parser = importlib.import_module("starparadox.cli").build_parser()
    jobs, rejected = 0, []
    for workload in workloads.WORKLOADS:
        for job in workloads.make_pass(workload, np.random.default_rng(0), 2):
            jobs += 1
            try:
                args = parser.parse_args([*job.argv, "--out", str(tmp_path)])
            except SystemExit:
                rejected.append(" ".join(job.argv))
                continue
            assert args.command == job.command
    assert rejected == [] and jobs == 21


def _scipy_imports(path: Path) -> list[tuple[str | None, str]]:
    """(enclosing function's dotted name or None, imported name) of each scipy import.

    None marks an import that runs when the module loads, class bodies
    included.  ``from scipy import integrate`` and ``from scipy.integrate
    import quad`` both read as ``scipy.integrate...``.
    """
    found = []

    def visit(node, names: tuple[str, ...], function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                imported = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                imported = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                imported = []
            scope = ".".join((path.stem, *names)) if function else None
            found.extend((scope, name) for name in imported if name.partition(".")[0] == "scipy")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*names, child.name), True)
            elif isinstance(child, ast.ClassDef):
                visit(child, (*names, child.name), function)
            else:
                visit(child, names, function)

    visit(_parse(path), (), False)
    return found


def _package_scipy_imports() -> list[tuple[str | None, str]]:
    return [imp for path in sorted(PACKAGE.glob("*.py")) for imp in _scipy_imports(path)]


def test_no_scipy_import_at_module_level():
    assert [name for scope, name in _package_scipy_imports() if scope is None] == []


def test_one_function_imports_scipy_integrate():
    # no function at all since H has its fixed rule: adaptive quadrature is test-only
    scopes = [scope for scope, name in _package_scipy_imports()
              if f"{name}.".startswith("scipy.integrate.")]
    assert scopes == []


def test_scipy_import_check_sees_every_form(tmp_path):
    module = tmp_path / "copies.py"
    module.write_text(
        "import scipy.special\n"
        "class Table:\n"
        "    from scipy import integrate\n"
        "    def build(self):\n"
        "        from scipy.integrate import quad\n"
        "def outer():\n"
        "    def inner():\n"
        "        import scipy.integrate as si\n"
        "    from scipy.optimize import brentq\n"
        "    from .priors import _quad\n",
        encoding="utf-8",
    )
    assert _scipy_imports(module) == [
        (None, "scipy.special"),
        (None, "scipy.integrate"),
        ("copies.Table.build", "scipy.integrate.quad"),
        ("copies.outer.inner", "scipy.integrate"),
        ("copies.outer", "scipy.optimize.brentq"),
    ]


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _prior_reads(path: Path) -> tuple[list[tuple[int, bool]], set[str]]:
    """The calls ``<x>.log_ti_cdf(...)``, each as (line, whether a loop or a comprehension
    encloses it), and the attributes read from a name ``prior``."""
    tree = _parse(path)
    looped = {id(inner) for loop in ast.walk(tree) if isinstance(loop, _LOOPS)
              for inner in ast.walk(loop) if inner is not loop}
    sites, attrs = [], set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "log_ti_cdf"):
            sites.append((node.lineno, id(node) in looped))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "prior"):
            attrs.add(node.attr)
    return sorted(sites), attrs


def test_posterior_reads_the_prior_through_one_cdf_site():
    # the deterministic rule reads the Ti law only through exact CDF values at its
    # nodes, all of a rule's nodes in one call, and the Te law through rate_e; the
    # scan draws with sample
    sites, attrs = _prior_reads(PACKAGE / "posterior.py")
    assert len(sites) == 1, sites
    assert not sites[0][1], f"line {sites[0][0]} reads the CDF inside a loop or a comprehension"
    assert attrs <= {"rate_e", "ti_max", "log_ti_cdf", "sample"}, attrs


def test_prior_read_check_sees_every_site(tmp_path):
    module = tmp_path / "reads.py"
    module.write_text(
        "def f(prior, other, v):\n"
        "    a = prior.log_ti_cdf(v)\n"
        "    b = [other.log_ti_cdf(t) for t in v]\n"
        "    for t in v:\n"
        "        a += prior.log_ti_cdf(t)\n"
        "    while a:\n"
        "        a = sum(prior.log_ti_cdf(t) for t in b)\n"
        "    return prior.theta * prior.rate_e\n",
        encoding="utf-8",
    )
    sites = [(2, False), (3, True), (5, True), (7, True)]
    assert _prior_reads(module) == (sites, {"log_ti_cdf", "theta", "rate_e"})


def _references(path: Path) -> dict[str, list[str]]:
    """Each name the module uses, with the enclosing scope's dotted name of each use: a
    bare name, an attribute, or a name imported with ``from`` (under any alias)."""
    found = defaultdict(list)

    def visit(node, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.ImportFrom):
                names = [alias.name for alias in child.names]
            else:
                names = []
            for name in names:
                found[name].append(".".join((path.stem, *scope)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, (*scope, child.name) if named else scope)

    visit(_parse(path), ())
    return found


def _uses(path: Path, name: str) -> list[str]:
    """Enclosing scope's dotted name of each use of ``name``."""
    return _references(path).get(name, [])


def test_one_log_mean_exp_reduction():
    # the scan and both claims reduce their kernel rows through _shifted_exp
    uses = [use for path in sorted(PACKAGE.glob("*.py")) for use in _uses(path, "_exp_inplace")]
    assert uses == ["posterior._shifted_exp"]


def test_use_check_sees_every_site(tmp_path):
    module = tmp_path / "copies.py"
    module.write_text(
        "from .posterior import _exp_inplace as exp\n"
        "from . import posterior\n"
        "def _exp_inplace(a):\n"
        "    return a\n"
        "class Reducer:\n"
        "    def reduce(self, a):\n"
        "        return posterior._exp_inplace(a)\n"
        "def reduce(a):\n"
        "    f = _exp_inplace\n"
        "    return f(a)\n",
        encoding="utf-8",
    )
    assert _uses(module, "_exp_inplace") == ["copies", "copies.Reducer.reduce", "copies.reduce"]


#: definitions that only the tests call, each with the reason it stays in the package
_TEST_ONLY = {
    "moments.TailParams.series_tail": "the series a TailParams stands for; series_moment_closed "
    "and certified_gap_curve integrate it in closed form, and the tests' quadrature "
    "reference and ExpansionTailV evaluate the same series through it",
}


def _definitions(path: Path) -> list[tuple[str, str]]:
    """(dotted name, name) of each top-level function and class of a module, and of
    each method that is not a dunder."""
    found = []
    for node in _parse(path).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        found.append((f"{path.stem}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (f"{path.stem}.{node.name}.{m.name}", m.name) for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            )
    return found


def _uncalled(package: Path, callers: list[Path]) -> list[str]:
    """Definitions in ``package`` that no code refers to by name: not another of its
    modules (``__init__`` re-exports do not count), not one of ``callers``, and not
    their own module outside the definition itself."""
    modules = sorted(path for path in package.glob("*.py") if path.name != "__init__.py")
    references = {path: _references(path) for path in [*modules, *callers]}
    found = []
    for path in modules:
        for dotted, name in _definitions(path):
            users = [(other, scope) for other, refs in references.items()
                     for scope in refs.get(name, ())]
            if all(other == path and (scope == dotted or scope.startswith(f"{dotted}."))
                   for other, scope in users):
                found.append(dotted)
    return found


def test_package_holds_only_called_code():
    found = _uncalled(PACKAGE, SCRIPTS)
    # move such code to tests/oracles.py, delete it, or name it in _TEST_ONLY with a reason
    assert sorted(set(found) - set(_TEST_ONLY)) == []
    assert sorted(set(_TEST_ONLY) - set(found)) == []  # a stale entry


def test_caller_check_sees_every_reference(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import orphan, shared\n", encoding="utf-8")
    (package / "a.py").write_text(
        "def shared():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def orphan(n):\n"
        "    return orphan(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = Box.unit()\n"
        "    def unit():\n"
        "        return 1\n"
        "    def read(self):\n"
        "        return self.size\n"
        "    def spare(self):\n"
        "        return self.read()\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text("from .a import shared as s\nVALUE = s()\n", encoding="utf-8")
    script = tmp_path / "demo.py"
    script.write_text("import pkg.a\nbox = pkg.a.Box()\n", encoding="utf-8")
    # orphan only calls itself and is re-exported; spare has no caller at all
    assert _uncalled(package, [script]) == ["a.orphan", "a.Box.spare"]
