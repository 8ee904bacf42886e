"""Every module-level function, method, constant and import of the
package is used by the package.

A function that only tests call is dead weight; delete it together with
its tests, or list it below with the reason it stays. A private function
that nothing names is left over from a refactor and has no such excuse.
A method counts as used when the package names it (as an attribute or a
bare name) outside its own body; dunder methods are called by Python.
Likewise every name a module imports is read in that module, and every
module-level constant is read somewhere in the package outside its own
assignment; dunders such as __version__ are read by tools, not code.
Every defaulted or keyword-only parameter of a module-level function is
passed by some call in the package, or listed below with its reason: an
option that no caller sets is dead weight too.
"""

import ast
from pathlib import Path

import modimage

PACKAGE = Path(modimage.__file__).parent

UNREFERENCED_OK = {
    "division_polynomial": "named by the acceptance suite (criterion 6)",
    "frobenius_noncontainment": "named by the acceptance suite (criterion "
                                "10) as the certificate scan; classify "
                                "reaches its body, _certificates, with l "
                                "already checked",
    "octahedral_normalizer": "named by the acceptance suite (criterion 10) "
                             "as the enumerated exceptional group",
    "quadratic_twist": "library API for building twists, used by the tests",
}

METHODS_UNREFERENCED_OK = {
    "_Parser.error": "argparse calls it on a parse error",
}

# "function(parameter)": reason
PARAMETERS_UNPASSED_OK = {}

TREES = {p.stem: ast.parse(p.read_text())
         for p in sorted(PACKAGE.glob("*.py"))}

# (name, module, line, whether an attribute) for every name the package uses
USES = [(node.id, module, node.lineno, False)
        for module, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Name)] + \
       [(node.attr, module, node.lineno, True)
        for module, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)]
# the same for every name and attribute the package reads
READS = [(node.id, module, node.lineno, False)
         for module, tree in TREES.items() for node in ast.walk(tree)
         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)] + \
        [(node.attr, module, node.lineno, True)
         for module, tree in TREES.items() for node in ast.walk(tree)
         if isinstance(node, ast.Attribute)
         and isinstance(node.ctx, ast.Load)]


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


def _imported_names(tree):
    """The names that the module's imports bind, __future__ features
    aside."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
            and node.module != "__future__" for alias in node.names}


def test_every_import_is_read():
    unread = {f"{module}.{name}" for module, tree in TREES.items()
              for name in _imported_names(tree)
              if not any(use == name and where == module and not attr
                         for use, where, _, attr in READS)}
    assert unread == set()


def _constants(tree):
    """The module-level names bound by a plain or annotated assignment,
    dunders aside, each with the lines of its assignment."""
    out = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        out += [(t.id, range(node.lineno, node.end_lineno + 1))
                for t in targets if isinstance(t, ast.Name)
                and not t.id.startswith("__")]
    return out


def _imported_from(module):
    """The names that other modules of the package import from module."""
    return {alias.name for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for alias in node.names}


def test_every_constant_is_read():
    # a constant counts as read where its module reads it, where another
    # module imports it (and test_every_import_is_read sees it read there),
    # or where the package reads an attribute of that name
    imported = {module: _imported_from(module) for module in TREES}
    unread = {f"{module}.{name}" for module, tree in TREES.items()
              for name, lines in _constants(tree)
              if name not in imported[module]
              and not any(use == name and (attr or where == module
                                           and line not in lines)
                          for use, where, line, attr in READS)}
    assert unread == set()


def _optional_parameters(fn):
    """(name, position) of each defaulted or keyword-only parameter of a
    FunctionDef; the position is None for a keyword-only one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(a.arg, i) for i, a in enumerate(positional) if i >= first] + \
        [(a.arg, None) for a in args.kwonlyargs]


def _passes(call, name, position):
    """Whether a call passes the parameter: by name, by a **mapping, by
    position, or by a *sequence that reaches its position."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_optional_parameter_is_passed():
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    unpassed = {f"{fn.name}({name})" for tree in TREES.values()
                for fn in tree.body if isinstance(fn, ast.FunctionDef)
                for name, position in _optional_parameters(fn)
                if not any(_passes(call, name, position)
                           for call in calls.get(fn.name, ()))}
    assert unpassed == set(PARAMETERS_UNPASSED_OK)


def _is_euler_criterion(node):
    """Whether node is a call pow(x, (p - 1) // 2, p), p a bare name."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3
            and isinstance(node.args[2], ast.Name)):
        return False
    half = ast.parse(f"({node.args[2].id} - 1) // 2", mode="eval").body
    return ast.dump(node.args[1]) == ast.dump(half)


def test_one_euler_criterion():
    # the quadratic character mod a prime has one implementation,
    # exactmath._euler, that legendre and gl2 share
    found = [module for module, tree in TREES.items()
             for node in ast.walk(tree) if _is_euler_criterion(node)]
    assert found == ["exactmath"]


def test_one_scan_bound():
    # the bound of the trace scans, classifier.MAX_SCAN_BOUND, is written
    # once: the command line reads it for --r and --frobenius-bound
    scan_bound = ast.dump(ast.parse("10 ** 5", mode="eval").body)
    found = [module for module, tree in TREES.items()
             for node in ast.walk(tree) if ast.dump(node) == scan_bound]
    assert found == ["classifier"]


# the a-invariant scaling and the formulas of Silverman III.1 for b2, b4,
# b6, b8, c4, c6 and the discriminant, as ec._invariants writes them
INVARIANT_FORMULAS = (
    "x.numerator * u ** w // x.denominator",
    "a1 ** 2 + 4 * a2",
    "2 * a4 + a1 * a3",
    "a3 ** 2 + 4 * a6",
    "b2 * a6 + a3 * (a2 * a3 - a1 * a4) - a4 ** 2",
    "b2 ** 2 - 24 * b4",
    "-b2 * (c4 - 12 * b4) - 216 * b6",
    "b2 * (9 * b4 * b6 - b2 * b8) - (8 * b4 ** 3 + 27 * b6 ** 2)",
)


def test_one_invariant_kernel():
    # the invariants of a curve have one path, the kernel ec._invariants,
    # which scales to the integral model and computes in ints; a curve
    # runs it once and keeps it, so it has one call site
    sums = [(module, ast.dump(node)) for module, tree in TREES.items()
            for node in ast.walk(tree) if isinstance(node, ast.BinOp)]
    for formula in INVARIANT_FORMULAS:
        want = ast.dump(ast.parse(formula, mode="eval").body)
        assert [module for module, dump in sums if dump == want] == ["ec"], \
            formula
    calls = [module for module, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "_invariants"]
    assert calls == ["ec"]


def _is_signed_digit_fix(node):
    """Whether node is an augmented assignment x -= 1 << k, k a bare name:
    the step that reads a k-bit digit as negative."""
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.LShift)
            and ast.dump(node.value.left) == ast.dump(ast.Constant(1))
            and isinstance(node.value.right, ast.Name))


def _is_kronecker_pack(node):
    """Whether node is a shift c << (k * i) of one name by the product of
    two: a coefficient put at its place in a packed integer."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
            and isinstance(node.left, ast.Name)
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Mult)
            and all(isinstance(side, ast.Name)
                    for side in (node.right.left, node.right.right)))


def test_one_kronecker_pack_and_unpack():
    # products and compose pack integer polynomials at 2^k and read the
    # result back as signed k-bit digits through one pair of helpers,
    # polyq._pack and polyq._unpack
    for found_by in (_is_signed_digit_fix, _is_kronecker_pack):
        found = [module for module, tree in TREES.items()
                 for node in ast.walk(tree) if found_by(node)]
        assert found == ["polyq"], found_by.__name__
