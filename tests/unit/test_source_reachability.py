"""Every definition and every import in ``src/repro`` is reached from somewhere.

A top-level function, a class or a method of one is *reached* when its
name appears outside its own definition as a ``Name`` or an
``Attribute``, an import alias, a quoted annotation, or an
identifier-shaped string constant that is not a docstring (the service's ``"/query": "_handle_query"``
dispatch table) — anywhere in ``src/``, or in ``bench/``, ``tools/`` or
``examples/``, the callers outside the package.  ``__all__`` entries are
string constants, so every exported name is reached; dunder names are
called by the language.  Tests, docs and docstrings do not count: a
definition only a test calls is the test's helper and lives in
``tests/support/``.

The scan matches words, not bindings: one ``x.run`` somewhere reaches
every method called ``run``.  It misses only a name built at run time;
such a definition goes in ``ALLOWED`` with a comment naming its caller.

A module-level import whose bound name the module never uses, and does
not list in ``__all__``, fails too: it is the first thing a deletion
orphans, and CI's ``ruff check`` (pyflakes F401) refuses it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter, defaultdict
from functools import cache
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = ("bench", "tools", "examples")

#: ``"module.py:Qualified.name"`` → why the scan cannot see its caller.
ALLOWED: dict[str, str] = {}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _alias_words(alias: ast.alias) -> list[str]:
    return [*alias.name.split("."), *([alias.asname] if alias.asname else [])]


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(qualified name, node)`` of each top-level definition and method."""
    found = []
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{node.name}.{member.name}", member)
                    for member in node.body
                    if isinstance(member, _DEFINITIONS)
                )
    return found


def _marked(node: ast.AST) -> tuple[Optional[ast.AST], Optional[ast.AST]]:
    """The string constants ``node`` owns that are read apart from the rest:
    its docstring, which names nothing, and its quoted annotation, which
    names every identifier in it (``None`` for either it lacks)."""
    docstring = annotation = None
    if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body:
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
            docstring = first.value
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        annotation = node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        annotation = node.returns
    if not (isinstance(annotation, ast.Constant) and isinstance(annotation.value, str)):
        annotation = None
    return docstring, annotation


@cache
def _references(tree: ast.Module) -> dict[str, list[tuple[int, int]]]:
    """Word → the ``(line, column)`` of each reference to it in ``tree``.

    Docstrings refer to nothing; a quoted annotation
    (``"PlanOperator | Rewriting"``) refers to every name in it."""
    docstrings: set[int] = set()
    quoted: set[int] = set()
    found = defaultdict(list)
    for node in ast.walk(tree):  # breadth first: a node before the strings it owns
        kind = type(node)
        if kind is ast.Name:
            words = [node.id]
        elif kind is ast.Attribute:
            words = [node.attr]
        elif kind is ast.alias:
            words = _alias_words(node)
        elif kind is ast.Constant and id(node) in quoted:
            words = _IDENTIFIER.findall(node.value)
        elif kind is ast.Constant and id(node) not in docstrings:
            value = node.value
            words = [value] if isinstance(value, str) and value.isidentifier() else []
        else:
            docstring, annotation = _marked(node)
            docstrings.add(id(docstring))
            quoted.add(id(annotation))
            continue
        for word in words:
            found[word].append((node.lineno, node.col_offset))
    return found


def _span(definition: ast.AST) -> tuple[tuple[int, int], tuple[int, int]]:
    """Where a definition starts (its first decorator) and ends."""
    start = min(
        (node.lineno, node.col_offset) for node in [definition, *definition.decorator_list]
    )
    return start, (definition.end_lineno, definition.end_col_offset)


def _unreached(modules: dict[str, ast.Module], outside: set[str]) -> list[str]:
    total: Counter = Counter()
    for tree in modules.values():
        total.update({word: len(found) for word, found in _references(tree).items()})
    unreached = []
    for name, tree in modules.items():
        for qualified, node in _definitions(tree):
            start, end = _span(node)
            own = sum(start <= where <= end for where in _references(tree).get(node.name, ()))
            if (
                not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in outside
                and total[node.name] == own
            ):
                unreached.append(f"{name}:{qualified}")
    return unreached


def _module_imports(statements: list[ast.stmt]):
    """The imports run at module level, ``if TYPE_CHECKING:`` ones included."""
    for statement in statements:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            yield statement
        elif isinstance(statement, (ast.If, ast.Try)):
            yield from _module_imports(statement.body + statement.orelse)


def _unused_imports(name: str, tree: ast.Module) -> list[str]:
    used = _references(tree)
    unused = []
    for statement in _module_imports(tree.body):
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            bound = alias.asname or alias.name.split(".")[0]
            if len(used.get(bound, ())) <= _alias_words(alias).count(bound):
                unused.append(f"{name}: {bound}")
    return unused


@cache
def _source_modules() -> dict[str, ast.Module]:
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }


@cache
def _outside_words() -> frozenset[str]:
    return frozenset(
        word
        for caller in CALLERS
        for path in sorted((ROOT / caller).rglob("*.py"))
        for word in _references(ast.parse(path.read_text()))
    )


def test_the_scan_sees_every_reference_form():
    module = ast.parse(
        '"""Mentions helper_in_docstring."""\n'
        "from os import path as p\n"
        "import json\n"
        "import sys\n"
        "if TYPE_CHECKING:\n"
        "    from typing import Iterator, Sequence\n"
        "__all__ = ['exported']\n"
        "def exported(): return called()\n"
        "def called(): return 1\n"
        "def by_string(): pass\n"
        "def from_outside(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def helper_in_docstring(): pass\n"
        "TABLE = {'/x': 'by_string'}\n"
        "class Box:\n"
        "    def __len__(self): return 0\n"
        "    def used(self): return self.unused_elsewhere\n"
        "    def unused_elsewhere(self): return Box\n"
        "def user(box) -> 'Sequence | None': return box.used(), json.dumps(p)\n"
    )
    assert _unreached({"m.py": module}, {"from_outside"}) == [
        "m.py:recursive",
        "m.py:helper_in_docstring",
        "m.py:Box",
        "m.py:user",
    ]
    assert _unused_imports("m.py", module) == ["m.py: sys", "m.py: Iterator"]


def test_a_reference_in_another_module_reaches_the_definition():
    modules = {
        "a.py": ast.parse("def shared(): pass\ndef lonely(): pass\n"),
        "b.py": ast.parse("from a import shared\n"),
    }
    assert _unreached(modules, set()) == ["a.py:lonely"]


def test_one_attribute_reaches_every_method_of_that_name():
    module = ast.parse(
        "class A:\n    def run(self): pass\n"
        "class B:\n    def run(self): pass\n    def stop(self): pass\n"
        "def main(thing): return thing.run(), A, B\n"
    )
    assert _unreached({"m.py": module}, {"main"}) == ["m.py:B.stop"]


def test_a_deletion_can_orphan_the_helpers_it_called():
    source = "def dead(): return _helper()\ndef _helper(): return 1\n"
    assert _unreached({"m.py": ast.parse(source)}, set()) == ["m.py:dead"]
    # with ``dead`` deleted, the next pass finds its helper: scan to a fixpoint
    remaining = source.split("\n", 1)[1]
    assert _unreached({"m.py": ast.parse(remaining)}, set()) == ["m.py:_helper"]


def test_an_import_listed_in_all_is_a_re_export():
    module = ast.parse("from os import path, sep\n__all__ = ['path']\n")
    assert _unused_imports("m.py", module) == ["m.py: sep"]


def test_every_definition_in_src_is_reached():
    unreached = _unreached(_source_modules(), _outside_words())
    fresh = [found for found in unreached if found not in ALLOWED]
    assert not fresh, "reached from nowhere:\n" + "\n".join(fresh)
    stale = sorted(set(ALLOWED) - set(unreached))
    assert not stale, "allowed, but reached or gone:\n" + "\n".join(stale)


def test_no_module_keeps_an_unused_import():
    unused = [
        found
        for name, tree in _source_modules().items()
        for found in _unused_imports(name, tree)
    ]
    assert not unused, "imported and never used:\n" + "\n".join(unused)
