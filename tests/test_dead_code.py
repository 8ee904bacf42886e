"""Every module-level function and every method of the package is used
by the package.

A function that only tests call is dead weight; delete it together with
its tests, or list it below with the reason it stays. A private function
that nothing names is left over from a refactor and has no such excuse.
A method counts as used when the package names it (as an attribute or a
bare name) outside its own body; dunder methods are called by Python.
"""

import ast
from pathlib import Path

import modimage

PACKAGE = Path(modimage.__file__).parent

UNREFERENCED_OK = {
    "division_polynomial": "named by the acceptance suite (criterion 6)",
    "is_conjugate": "used by tests/test_tables.py (3.G4 against N_ns(3), "
                    "13.G7 against the octahedral normalizer) and "
                    "tests/test_gl2.py",
    "octahedral_normalizer": "named by the acceptance suite (criterion 10) "
                             "as the enumerated exceptional group",
    "quadratic_twist": "library API for building twists, used by the tests",
}

METHODS_UNREFERENCED_OK = {
    "_Parser.error": "argparse calls it on a parse error",
}

TREES = {p.stem: ast.parse(p.read_text())
         for p in sorted(PACKAGE.glob("*.py"))}

# (name, module, line, whether an attribute) for every name the package uses
USES = [(node.id, module, node.lineno, False)
        for module, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Name)] + \
       [(node.attr, module, node.lineno, True)
        for module, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)]


def _unreferenced(module, defs, attributes_count):
    """Names of the FunctionDefs in defs, dunders aside, that the package
    names nowhere outside their own body."""
    out = set()
    for node in defs:
        if not isinstance(node, ast.FunctionDef) \
                or node.name.startswith("__"):
            continue
        own_body = range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and (attributes_count or not attr)
                   and not (where == module and line in own_body)
                   for name, where, line, attr in USES):
            out.add(node.name)
    return out


def _unreferenced_functions():
    return {name for module, tree in TREES.items()
            for name in _unreferenced(module, tree.body, False)}


def _unreferenced_methods():
    return {f"{cls.name}.{name}" for module, tree in TREES.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for name in _unreferenced(module, cls.body, True)}


def test_every_public_function_has_a_caller():
    public = {n for n in _unreferenced_functions() if not n.startswith("_")}
    assert public == set(UNREFERENCED_OK)


def test_every_private_function_has_a_caller():
    assert {n for n in _unreferenced_functions() if n.startswith("_")} == set()


def test_every_method_has_a_caller():
    assert _unreferenced_methods() == set(METHODS_UNREFERENCED_OK)
