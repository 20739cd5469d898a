"""Every imported name is read, and every private name of the package too:
a stdlib `ast` scan of the package and the tests.

A name bound by `import` or `from ... import` must be read somewhere in its
module, as a name or as the base of an attribute.  A name listed in the
module's `__all__` counts as read; `from __future__` imports are skipped.
A module-level `_name` defined in `src/randlab` must be read somewhere in
`src/randlab`, so code that nothing calls is deleted.  A name in
`randlab.__all__` must be read outside the module that defines it and the
package's `__init__.py`, in `src/randlab` or the tests, or be named in
README.md.  `BudgetExceeded` is built in `src/randlab` only by
`errors.check_budget` and by the two budgets with their own wording.
No `add_argument` in `src/randlab/cli.py` passes `type=int`, which reads
`1_0`, ` 2` and `+3` as integers.
"""

from __future__ import annotations

import ast
import glob
import os
import re

import randlab

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unused_imports_flags_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from fractions import Fraction as F\n"
        "from typing import Any, Optional\n"
        "__all__ = ['Any']\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return os.path.join(str(x))\n"
    )
    assert unused_imports(source) == ["json", "F"]


def test_no_unused_imports():
    paths = sorted(
        glob.glob(os.path.join(ROOT, "src", "randlab", "*.py"))
        + glob.glob(os.path.join(ROOT, "tests", "*.py"))
    )
    assert paths
    unused = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}


def defined_and_read(source: str) -> tuple[list[str], set[str]]:
    """The module-level names that `source` defines (functions, classes and
    assigned names), in definition order, and the names it reads, as a name
    or as an attribute."""
    tree = ast.parse(source)
    defined: list[str] = []
    read: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return defined, read


def unread_private_names(sources: list[str]) -> list[str]:
    """The module-level `_name`s (functions, classes and assigned names, not
    dunders) that `sources` define and none of them reads, as a name or as an
    attribute, in definition order."""
    defined: list[str] = []
    read: set[str] = set()
    for source in sources:
        names, reads = defined_and_read(source)
        defined += names
        read |= reads
    return [
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_unread_private_names_flags_what_nothing_reads():
    sources = [
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f(): return _A\n"
        "def _g(): pass\n"
        "class _C: pass\n",
        "import m\nm._g()\n",
    ]
    assert unread_private_names(sources) == ["_B", "_f", "_C"]


def test_no_unread_private_names():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "randlab", "*.py")))
    assert paths
    sources = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    assert unread_private_names(sources) == []


def budget_exceeded_builders(sources: dict[str, str]) -> list[str]:
    """Where each module in `sources` calls `BudgetExceeded(...)`, as the
    module and its enclosing classes and functions joined by dots (the module
    alone at module level), in source order."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "BudgetExceeded" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                found.append(where)
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            visit(child, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_budget_exceeded_builders_names_each_enclosing_function():
    sources = {
        "m": "def f():\n    raise BudgetExceeded('x')\n"
        "class C:\n    def g(self):\n        def h():\n"
        "            return errors.BudgetExceeded('y')\n"
        "BudgetExceeded\nBudgetExceeded('z')\n",
        "n": "raise ValueError(BudgetExceeded('w'))\n",
    }
    assert budget_exceeded_builders(sources) == ["m.f", "m.C.g.h", "m", "n"]


def test_only_the_budget_checks_build_budget_exceeded():
    # every named budget goes through errors.check_budget; the Demuth version
    # budget and the LimitOracle mind-change budget keep their own wording
    sources = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "randlab", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            sources[os.path.basename(path)[: -len(".py")]] = fh.read()
    assert sorted(set(budget_exceeded_builders(sources))) == [
        "errors.check_budget",
        "randomness.demuth_update",
        "randomness.schnorr_to_interval_sequence",
    ]


def unread_exports(sources: dict[str, str], readme: str, exported: list[str]) -> list[str]:
    """The exported names that no source reads, as a name or as an attribute,
    outside the modules that define them at module level and `__init__.py`,
    and that `readme` never names as a word, in export order."""
    scans = {path: defined_and_read(source) for path, source in sources.items()}

    def read_elsewhere(name: str) -> bool:
        return any(
            name in read and name not in defined and path != "__init__.py"
            for path, (defined, read) in scans.items()
        )

    return [
        name for name in exported
        if not read_elsewhere(name) and not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", readme)
    ]


def test_unread_exports_flags_what_only_its_home_reads():
    sources = {
        "__init__.py": "from .m import A, B, C, D, E\n__all__ = ['A', 'B', 'C', 'D', 'E']\n",
        "m.py": "A = B = C = D = 1\nclass E: pass\nprint(A, B)\n",
        "n.py": "from m import B\nprint(B)\n",
        "test_m.py": "import randlab\nrandlab.C\n",
    }
    assert unread_exports(sources, "`D` and DE", ["A", "B", "C", "D", "E"]) == ["A", "E"]


def test_every_export_is_read_outside_its_home():
    paths = sorted(
        glob.glob(os.path.join(ROOT, "src", "randlab", "*.py"))
        + glob.glob(os.path.join(ROOT, "tests", "*.py"))
    )
    sources = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources[os.path.relpath(path, os.path.join(ROOT, "src", "randlab"))] = fh.read()
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    assert unread_exports(sources, readme, randlab.__all__) == []


def int_typed_arguments(source: str) -> list[int]:
    """The lines of `source` where an `add_argument` call passes `type=int`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "add_argument"
        and any(
            k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id == "int"
            for k in node.keywords
        )
    ]


def test_int_typed_arguments_flags_each_int_type():
    source = (
        "p.add_argument('--a', type=int)\n"
        "p.add_argument('--b', type=_integer, default=int)\n"
        "add_argument('--c', default=1,\n"
        "             type=int)\n"
        "p.add_option('--d', type=int)\n"
    )
    assert int_typed_arguments(source) == [1, 3]


def test_no_cli_flag_is_read_by_int():
    # an integer flag goes through cli._integer, which reads ASCII digits
    with open(os.path.join(ROOT, "src", "randlab", "cli.py"), encoding="utf-8") as fh:
        assert int_typed_arguments(fh.read()) == []
