"""Repository-level guards: the package's import graph, the home of the
RC/FOCS relation and of the JSON file layout, the public entry points of
chain extraction, the package version, the benchmark's tracing tables and
what its tracer sees, and the test configuration."""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "indefcanon"


def _relative_imports(path: Path) -> set[str]:
    """Package modules imported by ``path`` at any depth, including imports
    inside function bodies."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_package_import_graph_is_acyclic():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {m: _relative_imports(PACKAGE / f"{m}.py") & modules for m in modules}
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + [module])
        done.add(module)

    for module in sorted(graph):
        visit(module, [])


def _names(path: Path) -> set[str]:
    """Every identifier ``path`` binds, loads, imports or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
    return found


def test_mixing_transform_is_used_only_by_structure_and_rc():
    # the package root only re-exports the public API
    mixers = {"mixing_matrix", "mixing_matrix_inv"}
    users = sorted(p.stem for p in PACKAGE.glob("*.py")
                   if p.stem not in {"__init__", "structure", "rc"}
                   and _names(p) & mixers)
    assert users == [], f"modules naming the mixing transform outside rc: {users}"


def test_no_module_imports_a_private_name_from_chains():
    # the benchmark tracer spans public names only: a private entry point
    # into chain extraction would hide its calls
    imports = sorted(f"{p.stem}: {a.name}" for p in PACKAGE.glob("*.py")
                     for node in ast.walk(ast.parse(p.read_text()))
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     and node.module == "chains"
                     for a in node.names if a.name.startswith("_"))
    assert imports == []


def test_package_version_is_the_project_version():
    # --version prints indefcanon.__version__; installed metadata comes from
    # pyproject.toml
    import indefcanon

    project = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(),
                        re.MULTILINE)
    assert project is not None
    assert project.group(1) == indefcanon.__version__


def _json_writes(path: Path) -> list[str]:
    """Every ``json.dump``/``json.dumps`` call or import in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in {"dump", "dumps"}
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(f"json.{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"from json import {a.name} at line {node.lineno}"
                      for a in node.names if a.name in {"dump", "dumps"}]
    return found


def test_json_text_is_written_only_by_serialize():
    # serialize.dumps holds the one file layout (and keeps the C encoder)
    writers = {p.stem: _json_writes(p) for p in PACKAGE.glob("*.py")
               if p.stem != "serialize"}
    assert {m: w for m, w in writers.items() if w} == {}
    assert _json_writes(PACKAGE / "serialize.py")


def _tracing():
    """The benchmark's ``perfbench/tracing.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracing_tables_resolve():
    tracing = _tracing()
    assert tracing.SPANNED and tracing.COUNTED
    for home, attr, name in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(home, attr, None)), \
            f"{home.__name__}.{attr} (traced as {name}) does not resolve"


def test_tracer_spans_every_chain_extraction_of_a_strict_experiment():
    # a strict experiment on one worker extracts the chains of each delta's
    # trials in one call, through the public name the tracer rebinds
    from indefcanon import BlockSpec, JordanSpec, chains, estimate_lipschitz, \
        generate_instance, harness

    spec = JordanSpec((BlockSpec("real", 1.5, 2, 1), BlockSpec("pair", -0.5 + 1.0j, 2)))
    inst = generate_instance(spec, 11)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            report = estimate_lipschitz(inst, [1e-3, 1e-4], 2)
    finally:
        tracer.uninstall()
    assert harness.jordan_chains is chains.jordan_chains
    assert [t.status for t in report.trials] == ["ok"] * 4
    assert tracer.totals({0})["chains.jordan_chains"]["calls"] == 2


def _private_numpy_uses(path: Path) -> list[str]:
    """Imports of, and attribute chains into, a numpy module or name whose
    dotted path has a ``_``-prefixed component (dunders aside), such as
    ``numpy.linalg._umath_linalg``."""
    def private(dotted: str) -> bool:
        parts = dotted.split(".")
        return parts[0] == "numpy" and any(
            p.startswith("_") and not (p.startswith("__") and p.endswith("__"))
            for p in parts)

    tree = ast.parse(path.read_text())
    aliases = {"numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy" or a.name.startswith("numpy."):
                    aliases.add(a.asname or a.name.split(".")[0])
                    if private(a.name):
                        found.append(f"import {a.name} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for a in node.names:
                if private(f"{node.module}.{a.name}"):
                    found.append(f"from {node.module} import {a.name} at line {node.lineno}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, inner = [node.attr], node.value
            while isinstance(inner, ast.Attribute):
                chain.append(inner.attr)
                inner = inner.value
            if isinstance(inner, ast.Name) and inner.id in aliases:
                dotted = ".".join(["numpy"] + chain[::-1])
                if private(dotted):
                    found.append(f"{dotted} at line {node.lineno}")
    return found


def test_no_private_numpy_api():
    # private numpy modules (the linalg gufuncs under numpy.linalg._umath_linalg,
    # say) change without notice between releases
    uses = {p.stem: _private_numpy_uses(p) for p in PACKAGE.glob("*.py")}
    assert {m: u for m, u in uses.items() if u} == {}


def test_private_numpy_api_check_catches_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "import numpy.linalg._umath_linalg\n"
                     "from numpy.linalg import _umath_linalg\n"
                     "from numpy._core import multiarray\n"
                     "x = np.linalg._umath_linalg.svd_f\n"
                     "y = np.__version__\n")
    flagged = {int(use.rsplit(" ", 1)[1]) for use in _private_numpy_uses(probe)}
    assert flagged == {2, 3, 4, 5}


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # under the repository's pytest configuration, which turns warnings into
    # errors, hypothesis's failure report must still reach the output
    probe = tmp_path / "test_probe.py"
    probe.write_text("from hypothesis import given, strategies as st\n\n\n"
                     "@given(st.integers())\n"
                     "def test_fails(x):\n"
                     "    assert x < 0\n")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), str(probe)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
