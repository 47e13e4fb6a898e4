"""No module-level function or class of the package, and no method of
one of its classes other than a dunder method, goes unnamed.

A definition counts as used when `src/`, `scripts/` or `perfbench/` names
it anywhere outside its own body: a call, an import, an attribute, or a
string that `perfbench/tracing.py` resolves with getattr.  A method counts
as used when its name is, on any class.  The package's own `__init__.py`
does not count, since exporting a name is no use of it, and only the few
reference helpers below are exempt.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steinberg"
SEARCHED = ("src", "scripts", "perfbench")

# Kept for the tests, each as the slow and obvious form of what the package
# computes another way.
TEST_REFERENCES = {
    "transpose_anti",  # phi(transpose_anti(w)) is phi(w)^t
    "StWord.is_empty",  # a word with no letters, as the vdk tests state a trivial builder
    "Ring.elements",  # every element, where a test loops over a whole ring
    "FGIdeal.elements",  # every element, where a test loops over a whole ideal
}


def _names(node):
    """Every identifier `node` names, with multiplicity."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # "Class.method" in perfbench/tracing.py's table
            out.update(p for p in sub.value.split(".") if p.isidentifier())
    return out


def _definitions(tree):
    """(key, node) of each module-level definition, keyed by its name, and
    of each method that is not a dunder method, keyed "Class.method"."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs[:2]) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def _unnamed():
    """{key: "module.py:line"} of each definition nothing else names."""
    named = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                named += _names(ast.parse(path.read_text()))
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for key, node in _definitions(ast.parse(path.read_text())):
            if named[node.name] == _names(node)[node.name]:
                out[key] = f"{path.name}:{node.lineno}"
    return out


def test_every_module_level_definition_is_named_outside_itself():
    unnamed = _unnamed()
    assert {k: at for k, at in unnamed.items() if k not in TEST_REFERENCES} == {}
    # a reference helper the program starts to use leaves the list
    assert TEST_REFERENCES <= set(unnamed)
