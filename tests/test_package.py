"""The package's layout: every public name in ``src/pro`` is one the program uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pro

ROOT = Path(__file__).resolve().parent.parent

# Public names that nothing in the program calls, kept on purpose
KEPT = {
    "facets_discrete": "the closed-form facet system of a discrete page's action hull "
                       "(acceptance criterion 4)",
    "facets_box": "facets_discrete's twin for a weight page's box-with-simplex set",
    "utility_gradient": "the derivative of income in the chain rows (acceptance criterion 6)",
    "DiscreteUniform": "the sequential reference action set of the vectorized sweep, "
                       "read by linear_maximize",
}


def _docstrings(tree):
    """The string constants that are docstrings, by identity."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _references(tree):
    """Names the code of a module uses: names, attributes, imported names
    and string constants other than docstrings (a binding table names its
    targets as strings)."""
    skip = _docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            out.add(node.value)
    return out


def test_every_public_name_is_used_by_the_program():
    # a module-level public function or class that only tests call belongs
    # in tests/helpers.py, not in the package
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "pro").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _references(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.stem
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    assert set(KEPT) <= set(defined)
    unused = sorted(f"{module}.{name}" for name, module in defined.items()
                    if name not in used and name not in pro._EXPORTS and name not in KEPT)
    assert unused == []


def test_graph_loads_apart_from_the_solvers():
    # the chain class lives in pro.graph, which the enumeration and the
    # simplex import: it must pull in neither solver nor the audit
    fast = ("pro.solver_local", "pro.solver_coupled", "pro.analysis")
    code = f"import sys, pro.graph; print([m for m in {fast!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


def test_only_the_list_reader_scans_item_types():
    # every list of a document is read by sparse.flat_array, which checks
    # its items' types once; a type scan elsewhere is a second check that
    # can drift from it
    scans = []
    for path in sorted((ROOT / "src" / "pro").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "flat_array"
                  for node in ast.walk(fn)}
        scans += [f"{path.stem}:{node.lineno}" + (" (the reader)" if id(node) in reader else "")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "map" and node.args
                  and isinstance(node.args[0], ast.Name) and node.args[0].id == "type"]
    assert [scan for scan in scans if not scan.endswith("(the reader)")] == []
    assert len(scans) == 1
