"""Static checks over the package sources: no handler broad enough to hide a
ConsistencyError, no `assert` statement (`python -O` strips it) and no
`raise AssertionError` (it escapes the CLI as a traceback), no unused
import, no assignment or parameter a function never reads, no function,
method or class that only tests use, no runtime dependency besides the
standard library and mpmath, no module-level import of a module off the
decision path from a module on it, no import of the symbolic layer from the
polynomial kernel, no import in the packed kernel of a package module
besides errors and no call there of the identities it is handed outside its
recorder, no import in the oracles of a module whose results they check, no
construction of RootRows, the decision's table, outside lctkit.rootdata, no
read of the band formula in lctkit.criterion beyond choose_p and the
per-(d, c) head cache, and no mention of that table or its cache in
lctkit.ideals, whose containment check reads the paper's pair.  Importing
the package loads the decision path only and the CLI neither dataclasses
nor inspect; every other layer, mpmath included, stays unloaded until a
command uses it, also on truncated input at d <= 4, which never expands;
nothing is recorded or cached on import, and the identities are recorded
once per degree; an exact decision constructs no OrderVal, and an exact
table-cache miss constructs one UPoly."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lctkit"
MODULES = sorted(SRC.glob("*.py"))
BROAD = {"Exception", "BaseException"}
ALLOWED = set(sys.stdlib_module_names) | {"mpmath"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the modules `import lctkit` and `lctkit lct` load, and the package's
# modules (and mpmath) that those may import only inside a function
DECISION_PATH = ("__init__.py", "errors.py", "series.py", "poly.py",
                 "packed.py", "rootdata.py", "criterion.py", "cli.py")
OFF_PATH = {"mpoly", "reports", "numeric", "ideals", "qideal", "oracle",
            "verify", "mpmath"}
# the modules whose results the oracles check, which they must not reuse
CHECKED_BY_ORACLE = {"rootdata", "reports", "numeric", "criterion"}
# the package modules lctkit.packed must not import: all but errors
BESIDE_PACKED = {path.stem for path in MODULES} - {"__init__", "errors"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def broad_handlers(tree):
    """Line numbers of bare `except:` and of handlers naming Exception or
    BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if caught is None or any(isinstance(n, ast.Name) and n.id in BROAD
                                 for n in names):
            lines.append(node.lineno)
    return lines


def unused_imports(tree):
    """Names bound by an import (other than `from __future__`) that the
    module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def _own_nodes(fn):
    """Nodes of a function's body, not descending into nested functions or
    classes (each is checked as its own scope)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_assignments(tree):
    """(line, name) of every plain `name = value` in a function whose name
    the function (nested closures included) never reads.  Loop targets,
    tuple unpacking and names declared global or nonlocal are exempt."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read.update(name for n in ast.walk(fn)
                    if isinstance(n, (ast.Global, ast.Nonlocal))
                    for name in n.names)
        for node in _own_nodes(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id not in read):
                found.append((node.lineno, node.targets[0].id))
    return sorted(found)


def unread_parameters(tree):
    """(line, function, parameter) of every parameter that a function or
    lambda (nested closures included) never reads.  `self` and `cls` are
    exempt."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        spec = fn.args
        params = [a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs
                  + [spec.vararg, spec.kwarg] if a is not None]
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.extend((fn.lineno, name, p) for p in params
                     if p not in read and p not in ("self", "cls"))
    return sorted(found)


def _name_reads(node):
    """How often each identifier occurs under node as a name, an attribute
    or a string constant (a getattr target or a key can name a method)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def unreferenced_definitions(trees, exported):
    """(module, line, name) of every function, method or class, dunders
    aside, that lctkit/__init__.py does not export and whose name no
    package code reads outside the definition itself (a recursive call is
    no use)."""
    reads = Counter()
    for tree in trees.values():
        reads.update(_name_reads(tree))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if (isinstance(node, DEFS) and name not in exported
                    and not (name.startswith("__") and name.endswith("__"))
                    and reads[name] == _name_reads(node)[name]):
                found.append((module, node.lineno, name))
    return sorted(found)


def exported_names(tree):
    """Names an __init__ module imports from its submodules, and the keys
    of its `_LAZY` table, the names it imports on first access."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "_LAZY"
                        for t in node.targets)):
            names.update(key.value for key in node.value.keys)
    return names


def assert_statements(tree):
    """Line numbers of `assert` statements: `python -O` strips them, so a
    check that must hold raises instead."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def assertion_raises(tree):
    """Line numbers of `raise AssertionError`, bare or called: lctkit.cli.run
    turns a ConsistencyError into exit 1 with a JSON error, but lets an
    AssertionError out as a traceback."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(node.lineno)
    return found


def foreign_imports(tree):
    """(line, top-level module) of every absolute import from outside the
    standard library and mpmath; relative imports stay in the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name.split(".")[0]) for name in names
                     if name.split(".")[0] not in ALLOWED)
    return found


def _imported_modules(node):
    """The modules an import node names, a package module relatively or as
    lctkit.<module>, each by its first name below the package."""
    if isinstance(node, ast.ImportFrom) and node.module not in (None,
                                                                "lctkit"):
        names = [node.module]
    else:
        names = [alias.name for alias in node.names]
    for name in names:
        parts = name.split(".")
        yield parts[1] if parts[0] == "lctkit" and parts[1:] else parts[0]


def eager_imports(tree):
    """(line, module) of every import that runs when the module loads (at
    module level or in a class body, not inside a function) of a module in
    OFF_PATH, named relatively or as lctkit.<module>."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((node.lineno, module)
                         for module in _imported_modules(node)
                         if module in OFF_PATH)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def imports_of(tree, modules):
    """(line, module) of every import, wherever it runs, of one of
    `modules`, named relatively or as lctkit.<module>."""
    return sorted((node.lineno, module) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  for module in _imported_modules(node) if module in modules)


def imported_names(tree, names):
    """(line, name) of every `from ... import` of one of `names`, wherever
    it runs."""
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name in names)


def _names(node, name):
    """Whether node is `name` or an attribute `<...>.name`."""
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def names_of(tree, names):
    """(line, name) of every mention in code of one of `names`: a name, an
    attribute, an imported name or a string that is exactly the name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update((node.lineno, alias.name.rpartition(".")[2])
                         for alias in node.names)
        elif isinstance(node, ast.Name):
            found.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.add((node.lineno, node.attr))
        elif isinstance(node, ast.Constant):
            found.add((node.lineno, node.value))
    return sorted((line, name) for line, name in found if name in names)


def constructions(tree, name):
    """Line numbers of every construction of the class `name`, plain or
    as an attribute: a call of it, `object.__new__` of it, or a class
    deriving from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                _names(node.func, name)
                or (_names(node.func, "__new__")
                    and any(_names(arg, name) for arg in node.args))):
            found.append(node.lineno)
        elif isinstance(node, ast.ClassDef) and any(
                _names(base, name) for base in node.bases):
            found.append(node.lineno)
    return sorted(found)


def _scoped(tree, match):
    """(line, scope) of every node `match` accepts, with the name of the
    innermost function it runs in: "<lambda>" in a lambda, "" at module or
    class level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append((child.lineno, scope))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Lambda):
                visit(child, "<lambda>")
            elif isinstance(child, ast.ClassDef):
                visit(child, "")
            else:
                visit(child, scope)

    visit(tree, "")
    return sorted(found)


def callers_of(tree, name):
    """(line, scope) of every call of the plain name `name`."""
    return _scoped(tree, lambda node: isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == name)


def readers_of(tree, name):
    """(line, scope) of every read of the plain name `name`: a call of it,
    or an alias or argument that passes it on."""
    return _scoped(tree, lambda node: isinstance(node, ast.Name)
                   and node.id == name and isinstance(node.ctx, ast.Load))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_broad_except(path):
    assert broad_handlers(_tree(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_assignment(path):
    assert unread_assignments(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameter(path):
    assert unread_parameters(_tree(path)) == []


def test_every_definition_is_used_or_exported():
    trees = {path.name: _tree(path) for path in MODULES}
    exported = exported_names(trees["__init__.py"])
    assert unreferenced_definitions(trees, exported) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_statements(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assertion_error_raised(path):
    assert assertion_raises(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_stdlib_and_mpmath_imports(path):
    assert foreign_imports(_tree(path)) == []


@pytest.mark.parametrize("name", DECISION_PATH)
def test_decision_path_imports_stay_on_it(name):
    assert eager_imports(_tree(SRC / name)) == []


def test_oracle_stays_disjoint_from_what_it_checks():
    assert imports_of(_tree(SRC / "oracle.py"), CHECKED_BY_ORACLE) == []


def test_kernel_stays_apart_from_the_symbolic_layer():
    """lctkit.poly imports lctkit.mpoly nowhere, not even inside a function,
    and names MPoly nowhere: it reaches a coefficient domain through the
    coefficients' own type."""
    assert imports_of(_tree(SRC / "poly.py"), {"mpoly"}) == []
    assert "MPoly" not in (SRC / "poly.py").read_text()


def test_packed_kernel_imports_only_errors():
    """lctkit.packed imports no package module besides lctkit.errors, not
    even inside a function.  It reads the certificate's orders off packed
    ints and builds no series, so no reader that unpacks them, and no
    series route, sits beside the kernel the built polynomials check."""
    assert imports_of(_tree(SRC / "packed.py"), BESIDE_PACKED) == []


def test_identities_run_only_in_the_recorder():
    """lctkit.packed calls the identities it is handed, `newton`, in one
    place: the recorder, once per degree.  Every packed run replays the
    recorded program, so no route runs the identities per call."""
    assert [scope for _, scope in callers_of(_tree(SRC / "packed.py"),
                                             "newton")] == ["_program"]


def test_band_is_derived_once_per_threshold():
    """In lctkit.criterion the band formula `_band` is read in two places:
    choose_p and the per-(d, c) head cache.  lct_ge reads the band off the
    cached head, so no per-call route derives it again."""
    assert [scope for _, scope in readers_of(_tree(SRC / "criterion.py"),
                                             "_band")] == ["choose_p", "_head"]


def test_one_builder_of_the_decision_table():
    """RootRows, the table V reads, is built from a root tree in
    lctkit.rootdata and nowhere else; lctkit.numeric, whose DiffOrderTable
    is a table of its own, does not even import it."""
    assert imported_names(_tree(SRC / "numeric.py"), {"RootRows"}) == []
    assert [path.name for path in MODULES
            if constructions(_tree(path), "RootRows")] == ["rootdata.py"]


def test_containment_check_reads_no_table():
    """lctkit.ideals checks the paper's plus/minus pair along arcs: it
    names neither the decision's table cache nor its table."""
    assert names_of(_tree(SRC / "ideals.py"),
                    {"_table_for", "RootRows"}) == []


def test_checks_catch_offenders():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from .errors import BudgetError, ConsistencyError\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    raise ConsistencyError\n")
    assert broad_handlers(tree) == [6, 10]
    assert unused_imports(tree) == [(2, "os"), (3, "BudgetError")]
    tree = ast.parse("assert True\n"
                     "def f(x):\n"
                     "    assert x > 0, 'positive'\n"
                     "    if x:\n"
                     "        raise ConsistencyError\n"   # raises: kept
                     "    return [y for y in x if y]\n")
    assert assert_statements(tree) == [1, 3]
    tree = ast.parse("def f(x):\n"
                     "    if x:\n"
                     "        raise AssertionError('unreachable')\n"
                     "    if not x:\n"
                     "        raise AssertionError\n"
                     "    raise ConsistencyError('kept')\n")
    assert assertion_raises(tree) == [3, 5]
    assert assert_statements(tree) == []
    tree = ast.parse("import math, numpy as np\nimport mpmath.libmp\n"
                     "from scipy.linalg import eig\nfrom . import poly\n"
                     "from collections import OrderedDict\n")
    assert foreign_imports(tree) == [(1, "numpy"), (3, "scipy")]


def test_eager_import_check_catches_offenders():
    tree = ast.parse(
        "import mpmath\n"
        "from .numeric import _expanded\n"
        "from . import mpoly, oracle, poly, reports\n"
        "from lctkit.ideals import degree3_test\n"
        "import lctkit.verify\n"
        "from lctkit import qideal\n"
        "from .series import YES\n"                # on the path: kept
        "try:\n    from mpmath import mpf\nexcept ImportError:\n    pass\n"
        "class A:\n    from . import numeric\n"    # runs on load
        "def f():\n"                              # runs on call: exempt
        "    from .numeric import diff_orders\n"
        "    import mpmath\n")
    assert eager_imports(tree) == [
        (1, "mpmath"), (2, "numeric"), (3, "mpoly"), (3, "oracle"),
        (3, "reports"), (4, "ideals"),
        (5, "verify"), (6, "qideal"), (9, "mpmath"), (13, "numeric")]


def test_oracle_import_check_catches_offenders():
    tree = ast.parse(
        "from .rootdata import _lower_hull\n"
        "from . import criterion, poly, reports\n"
        "import lctkit.numeric\n"
        "from .mpoly import MPoly\n"                # not checked: kept
        "def f():\n"                               # inside a function too
        "    from lctkit.rootdata import root_orders\n"
        "    from lctkit import criterion\n")
    assert imports_of(tree, CHECKED_BY_ORACLE) == [
        (1, "rootdata"), (2, "criterion"), (2, "reports"), (3, "numeric"),
        (6, "rootdata"), (7, "criterion")]


def test_packed_import_check_catches_offenders():
    tree = ast.parse(
        "import math\n"
        "from .errors import ConsistencyError\n"     # errors: kept
        "from .series import _reduced\n"
        "from . import errors, poly\n"
        "def f():\n"                                # inside a function too
        "    import lctkit.series\n")
    assert imports_of(tree, BESIDE_PACKED) == [
        (3, "series"), (4, "poly"), (6, "series")]


def test_caller_check_catches_offenders():
    tree = ast.parse(
        "def _program(newton, d):\n"
        "    return newton(rec, d)\n"
        "def _run(h, newton):\n"
        "    return newton(dom, h)\n"
        "class A:\n"
        "    def m(self, newton):\n"
        "        return lambda: newton(1, 2)\n"
        "    x = newton(0, 1)\n"
        "def g(newton):\n"
        "    return dom.newton(newton)\n")   # an attribute: not a call of it
    assert callers_of(tree, "newton") == [
        (2, "_program"), (4, "_run"), (7, "<lambda>"), (8, "")]


def test_reader_check_catches_offenders():
    tree = ast.parse(
        "def _band(d, c):\n"                  # the definition: not a read
        "    return d\n"
        "def _head(d, a, b):\n"
        "    return _band(d, a)\n"
        "def lct_ge(d, c):\n"
        "    band = _band\n"                   # an alias
        "    return band(d, c), map(_band, d)\n"
        "class A:\n"
        "    f = staticmethod(lambda d: _band(d, 1))\n"
        "def g(_band):\n"                    # a parameter: not a read
        "    _band = 1\n"                       # a store: not a read
        "    return criterion._band\n")      # an attribute: not the name
    assert readers_of(tree, "_band") == [
        (4, "_head"), (6, "lct_ge"), (7, "lct_ge"), (9, "<lambda>")]


def test_table_builder_checks_catch_offenders():
    tree = ast.parse(
        "from .rootdata import RootRows, certified_rows\n"
        "from . import rootdata\n"
        "t = RootRows(1, (None,), ((0,),))\n"
        "u = rootdata.RootRows(1, (None,), ((0,),))\n"
        "v = object.__new__(RootRows)\n"
        "class Table(rootdata.RootRows):\n    pass\n"
        "w = certified_rows(h)\n"             # reads a table: kept
        "x = isinstance(w, RootRows)\n"       # names the class: kept
        "def f():\n"                          # inside a function too
        "    from lctkit.rootdata import RootRows\n"
        "    return RootRows(*args)\n")
    assert imported_names(tree, {"RootRows"}) == [
        (1, "RootRows"), (11, "RootRows")]
    assert constructions(tree, "RootRows") == [3, 4, 5, 6, 12]


def test_name_check_catches_offenders():
    tree = ast.parse(
        "from .criterion import _table_for\n"
        "from . import criterion, rootdata\n"
        "t = criterion._table_for(coeffs)\n"
        "isinstance(t, rootdata.RootRows)\n"
        "u = getattr(criterion, '_table_for')\n"
        "w = 'the RootRows of a table'\n"     # prose: kept
        "def f():\n"                          # inside a function too
        "    from lctkit.rootdata import RootRows as Rows\n")
    assert names_of(tree, {"_table_for", "RootRows"}) == [
        (1, "_table_for"), (3, "_table_for"), (4, "RootRows"),
        (5, "_table_for"), (8, "RootRows")]


def test_exported_names_read_the_lazy_table():
    tree = ast.parse("from .a import api\n"
                     "_LAZY = {'later': 'b', 'other': 'c'}\n"
                     "TABLE = {'not_exported': 'd'}\n")
    assert exported_names(tree) == {"api", "later", "other"}


def test_unread_assignment_check_catches_offenders():
    tree = ast.parse(
        "def div(a, b):\n"
        "    bx = b.max_exp()\n"          # never read: flagged
        "    me = a.max_exp()\n"
        "    lo, hi = a, b\n"             # tuple unpacking: exempt
        "    for k in range(3):\n"        # loop target: exempt
        "        pass\n"
        "    def inner():\n"
        "        unused = 1\n"            # flagged in its own scope
        "        return me\n"             # a closure read counts
        "    return inner\n"
        "def count():\n"
        "    global TOTAL\n"
        "    TOTAL = 0\n"                 # declared global: exempt
        "    n = 0\n"
        "    return n\n")
    assert unread_assignments(tree) == [(2, "bx"), (8, "unused")]


def test_unread_parameter_check_catches_offenders():
    tree = ast.parse(
        "class A:\n"
        "    def m(self, x, y):\n"       # y never read; self exempt
        "        return x\n"
        "    @classmethod\n"
        "    def k(cls, *args, **kw):\n"  # args never read
        "        return kw\n"
        "def outer(a, b, *, c=0):\n"      # b and c never read
        "    def inner():\n"
        "        return a\n"             # a closure read counts
        "    return inner\n"
        "f = lambda u, v: u\n"           # v never read
        "def _suite_x(rng, seed):\n"     # seed never read
        "    return rng\n")
    assert unread_parameters(tree) == [
        (2, "m", "y"), (5, "k", "args"), (7, "outer", "b"),
        (7, "outer", "c"), (11, "<lambda>", "v"), (12, "_suite_x", "seed")]


def test_unreferenced_definition_check_catches_offenders():
    trees = {
        "__init__.py": ast.parse("from .a import api\n"),
        "a.py": ast.parse(
            "def api():\n"                  # exported: exempt
            "    return _used() + Box().size\n"
            "def _used():\n"
            "    return 1\n"
            "def helper():\n"               # never read: flagged
            "    return 2\n"
            "def walk(n):\n"                # read only by itself: flagged
            "    return walk(n - 1) if n else 0\n"
            "class Box:\n"
            "    def __len__(self):\n"      # dunder: exempt
            "        return 0\n"
            "    @property\n"
            "    def size(self):\n"
            "        return 0\n"
            "    def scaled(self, k):\n"    # never read: flagged
            "        return k\n"
            "    def named(self):\n"        # read as a string: kept
            "        return 0\n"
            "KEYS = ['named']\n"),
    }
    assert unreferenced_definitions(trees, exported_names(
        trees["__init__.py"])) == [
        ("a.py", 5, "helper"), ("a.py", 7, "walk"), ("a.py", 15, "scaled")]


LAZY_MPMATH = """
import json
import sys


def loaded():
    return json.dumps(sorted(m for m in sys.modules
                             if m.split(".")[0] in ("lctkit", "mpmath")
                             and m.count(".") < 2))


import lctkit
print(loaded())
import lctkit.cli
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
code = lctkit.cli.run(["lct", "--c", "5/6", "--coeff", "x", "--coeff",
                       "x^2 - x^3", "--coeff", "2*x^3"])
print(code, "mpmath" in sys.modules)
print(loaded())
lctkit.cli.run(["integrality", "--poly", "y^3 + t^2*y + t^3"])
print(loaded())
lctkit.cli.run(["orders", "--poly", "y^3 + t^2*y + t^3"])
print(loaded())
lctkit.cli.run(["diffs", "--poly", "y^3 + t^2*y + t^3"])
print("mpmath" in sys.modules)
print(loaded())
lctkit.cli.run(["oracle", "--binomial", "3", "4"])
print(loaded())
"""

DECISION_MODULES = ["lctkit", "lctkit.criterion", "lctkit.errors",
                    "lctkit.packed", "lctkit.poly", "lctkit.rootdata",
                    "lctkit.series"]


def test_exact_decision_leaves_mpmath_unloaded():
    """Importing the package loads exactly the decision path, and importing
    the CLI neither dataclasses nor inspect.  A d = 3 `lctkit lct` run
    decides from the certificate alone, so it adds only lctkit.cli: the
    process imports neither mpmath nor the symbolic layer (lctkit.mpoly)
    nor the reports (lctkit.reports).  `lctkit integrality` loads the
    reports and nothing else, and `lctkit orders` then adds nothing;
    `lctkit diffs` expands and loads lctkit.numeric, lctkit.mpoly and
    mpmath, and `lctkit oracle` loads lctkit.oracle."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", LAZY_MPMATH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (package, heavy, verdict, lct_done, after_lct, _, after_integrality, _,
     after_orders, _, diffs_done, after_diffs, _,
     after_oracle) = proc.stdout.splitlines()
    assert heavy == "[]"
    assert '"verdict": "no"' in verdict
    assert (lct_done, diffs_done) == ("0 False", "True")
    (package, after_lct, after_integrality, after_orders, after_diffs,
     after_oracle) = (set(json.loads(line)) for line in (
         package, after_lct, after_integrality, after_orders, after_diffs,
         after_oracle))
    assert package == set(DECISION_MODULES)
    assert after_lct - package == {"lctkit.cli"}
    assert after_integrality - after_lct == {"lctkit.reports"}
    assert after_orders == after_integrality
    assert ({"lctkit.numeric", "lctkit.mpoly", "mpmath"}
            <= after_diffs - after_orders)
    assert after_oracle - after_diffs == {"lctkit.oracle"}


RECORDING = """
import json
import sys

import lctkit
from lctkit import criterion, packed

print(packed._program.cache_info().currsize,
      criterion._head.cache_info().currsize)
import lctkit.cli
print(packed._program.cache_info().currsize,
      criterion._head.cache_info().currsize)
from lctkit.criterion import lct_ge
from lctkit.series import PSeries
for blob in sys.argv[1:]:
    verdicts = set()
    for d, coeffs in json.loads(blob):
        verdicts.add(lct_ge(d, "2/3",
                            [PSeries.from_json(a) for a in coeffs])[0])
    info = packed._program.cache_info()
    print(info.misses, info.currsize, *sorted(verdicts))
"""


def test_identities_are_recorded_on_first_use():
    """Nothing is recorded on import: importing the package and the CLI
    leaves packed._program and the decision's head cache empty.  Deciding
    50 exact inputs at d = 2 and 3 records the identities once per degree,
    twice in all.  Deciding
    truncated inputs at d = 4 and 5, which keep known terms and are
    decided or left unknown, records nothing more: truncated input takes
    the series route.  Nor does deciding the exact y^5 + x^100000 at the
    new degree 5, which takes the depth-one route.  Nor does the exact
    degree-5 input with the roots x^50, x^50, -x^50, -x^50 and x^3, which
    depth one refuses (its edge polynomial (u^2 - 1)^2 repeats a root):
    input too sparse for packing to pay takes the series route before any
    recording."""
    exact = json.dumps([[d, [a.to_json() for a in _exact_coeffs(d, shift)]]
                        for d in (2, 3) for shift in range(1, 26)])
    cut = json.dumps([[d, [a.truncated(bound).to_json()
                           for a in _exact_coeffs(d, shift)]]
                      for d in (4, 5) for shift in (1, 2)
                      for bound in (4, 8, 12)])
    sparse = json.dumps([[5, [{"var": "x", "terms": [], "trunc": "inf"}] * 4
                          + [{"var": "x", "terms": [{"e": "100000", "c": "1"}],
                              "trunc": "inf"}]]])
    repeated = json.dumps([[5, [
        {"var": "x", "terms": [{"e": e, "c": c}], "trunc": "inf"}
        for e, c in (("3", "-1"), ("100", "-2"), ("103", "2"),
                     ("200", "1"), ("203", "-1"))]]])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", RECORDING, exact, cut,
                           sparse, repeated],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 0", "0 0", "2 2 no yes",
                                        "2 2 no unknown", "2 2 no",
                                        "2 2 no"]


TRUNCATED_MPMATH = """
import json
import sys
from lctkit.criterion import lct_ge
from lctkit.series import PSeries
for d, c, coeffs in json.loads(sys.argv[1]):
    print(lct_ge(d, c, [PSeries.from_json(a) for a in coeffs])[0])
print("mpmath" in sys.modules)
"""


def _truncated_cases():
    """(d, c, coeffs, verdict) of truncated inputs at d = 2..4 that the
    certificate's root tree decides, and of inputs it leaves unknown: a
    hint from h's own polygon (y^2 + O(x^3), and d = 3 cut at 3) or from
    the difference polynomial's (d = 4 cut at 8)."""
    from fractions import Fraction

    from lctkit.series import PSeries

    x, zero = PSeries.monomial("x", 1), PSeries.zero("x")
    cases = [(2, Fraction(3, 4), (x, PSeries.zero("x", 5)), "yes"),
             (2, Fraction(3, 4), (zero, PSeries.zero("x", 3)), "unknown")]
    for d, bound, verdict in ((3, 5, "no"), (3, 3, "unknown"),
                              (4, 9, "no"), (4, 8, "unknown")):
        cut = tuple(a.truncated(Fraction(bound))
                    for a in _exact_coeffs(d, 1))
        cases.append((d, Fraction(2, 3), cut, verdict))
    return cases


def test_truncated_decision_leaves_mpmath_unloaded():
    """Truncated input at d = 2..4 is decided from the certificate's root
    tree, or left unknown by a polygon, so the process never imports
    mpmath."""
    cases = _truncated_cases()
    blob = json.dumps([[d, str(c), [a.to_json() for a in coeffs]]
                       for d, c, coeffs, _ in cases])
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", TRUNCATED_MPMATH, blob],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == \
        [verdict for *_, verdict in cases] + ["False"]


def test_truncated_decision_never_expands(monkeypatch):
    """The same truncated decisions with the expansion replaced by a
    failure: none of them reaches it."""
    from lctkit import criterion, numeric
    from lctkit.criterion import lct_ge

    def refuse(*args):
        raise AssertionError("expanded")

    criterion._table_for.cache_clear()
    monkeypatch.setattr(numeric, "_expanded", refuse)
    for d, c, coeffs, verdict in _truncated_cases():
        assert lct_ge(d, c, coeffs)[0] == verdict


def _exact_coeffs(d, shift):
    """Coefficients of the polynomial with the d roots
    (k + shift) x^(k + 1) + x^((k + 2)/2), k < d: distinct inputs for
    distinct shifts."""
    from fractions import Fraction

    from lctkit.poly import UPoly
    from lctkit.series import PSeries

    roots = [PSeries("x", {Fraction(k + 1): Fraction(k + shift),
                           Fraction(k + 2, 2): Fraction(1)})
             for k in range(d)]
    return UPoly.from_roots("y", roots).coeffs


def test_exact_decision_constructs_no_orderval(monkeypatch):
    """An exact lct_ge decision at d = 2..4 reads the certificate on ints
    from the difference polynomial's coefficients to the verdict: after
    one warm-up decision per degree, fresh inputs construct no OrderVal."""
    from fractions import Fraction

    from lctkit import criterion
    from lctkit.criterion import lct_ge
    from lctkit.series import OrderVal

    for d in (2, 3, 4):
        lct_ge(d, Fraction(2, 3), _exact_coeffs(d, 1))
    made = []
    real = OrderVal.__init__

    def counted(self, *args):
        made.append(args)
        real(self, *args)

    inputs = [(d, _exact_coeffs(d, shift)) for d in (2, 3, 4)
              for shift in (2, 3)]
    monkeypatch.setattr(OrderVal, "__init__", counted)
    misses = criterion._table_for.cache_info().misses
    verdicts = [lct_ge(d, c, coeffs)[0] for d, coeffs in inputs
                for c in (Fraction(2, 3), Fraction(1))]
    monkeypatch.undo()
    assert criterion._table_for.cache_info().misses == misses + len(inputs)
    assert set(verdicts) <= {"yes", "no"}
    assert made == []


def test_exact_miss_constructs_no_upoly(monkeypatch):
    """An exact lct_ge miss at d = 2..4 validates the coefficients once, in
    lct_ge: it runs the UPoly constructor for neither h nor a difference
    polynomial.  The certificate is read off the packed ints' lowest
    digits, so no difference polynomial is built."""
    from fractions import Fraction

    from lctkit import criterion
    from lctkit.criterion import lct_ge
    from lctkit.poly import UPoly

    inputs = [(d, _exact_coeffs(d, shift)) for d in (2, 3, 4)
              for shift in (4, 5)]
    made = []
    real = UPoly.__init__

    def counted(self, var, coeffs):
        real(self, var, coeffs)
        made.append(self.degree)

    criterion._table_for.cache_clear()
    monkeypatch.setattr(UPoly, "__init__", counted)
    for d, coeffs in inputs:
        lct_ge(d, Fraction(2, 3), coeffs)
    monkeypatch.undo()
    assert criterion._table_for.cache_info().misses == len(inputs)
    assert made == []


def test_truncated_certificate_constructs_no_upoly(monkeypatch):
    """On truncated input the certificate builds D on the series route,
    whose coefficients the kernel made in h's own domain: it runs the
    UPoly constructor for no difference polynomial."""
    from lctkit import rootdata
    from lctkit.errors import TruncationError
    from lctkit.poly import UPoly

    inputs = [UPoly.of_series("y", tuple(a.truncated(trunc) for a in
                                         _exact_coeffs(d, 4)))
              for d in (2, 3, 4) for trunc in (3, 5, 8)]
    made, built = [], []
    real, real_d = UPoly.__init__, rootdata.difference_poly

    def counted(self, var, coeffs):
        real(self, var, coeffs)
        made.append(self.degree)

    def counted_d(h):
        built.append(h.degree)
        return real_d(h)

    monkeypatch.setattr(UPoly, "__init__", counted)
    monkeypatch.setattr(rootdata, "difference_poly", counted_d)
    for h in inputs:
        try:
            rootdata._difference_levels(h)
        except TruncationError:
            pass
    monkeypatch.undo()
    assert len(built) == len(inputs) and made == []


def _shared_lead_coeffs(d, shift):
    """Coefficients of the polynomial with the d roots
    x + (k + shift) x^((k + 3)/2), k < d: every root has the leading term
    x, so the edge polynomial (u - 1)^d is degenerate and only the
    certificate decides."""
    from fractions import Fraction

    from lctkit.poly import UPoly
    from lctkit.series import PSeries

    roots = [PSeries("x", {Fraction(1): Fraction(1),
                           Fraction(k + 3, 2): Fraction(k + shift)})
             for k in range(d)]
    return UPoly.from_roots("y", roots).coeffs


def test_exact_miss_replays_once_on_ints(monkeypatch):
    """An exact dense lct_ge miss at d = 2..4 that the certificate decides
    runs the recorded identities once on packed ints and never on series:
    one packed._replay_ints call per miss, no series.sum_of_products call.
    At d = 4 that is a degenerate input; a nondegenerate d = 4 miss, whose
    rows come from its own polygon, makes neither call."""
    from fractions import Fraction

    from lctkit import criterion, packed, poly, series
    from lctkit.criterion import lct_ge

    inputs = [(d, _exact_coeffs(d, shift), ["_replay_ints"])
              for d in (2, 3) for shift in (6, 7)]
    inputs += [(4, _shared_lead_coeffs(4, shift), ["_replay_ints"])
               for shift in (6, 7)]
    inputs += [(4, _exact_coeffs(4, shift), []) for shift in (6, 7)]
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(packed, "_replay_ints")
    counted(poly, "sum_of_products")
    counted(series, "sum_of_products")
    criterion._table_for.cache_clear()
    for d, coeffs, want in inputs:
        assert all(a.terms and a.trunc == series.INF for a in coeffs)
        del calls[:]
        lct_ge(d, Fraction(2, 3), coeffs)
        assert calls == want, d
    assert criterion._table_for.cache_info().misses == len(inputs)
