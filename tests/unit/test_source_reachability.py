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

Two rules narrow that:

* a bare ``Name`` inside a function body is a local or a global, so it
  reaches no method (one at class level does: ``PlanExecutor``'s
  ``_OPERATORS`` table names its methods);
* a reference from inside a definition nothing reaches does not count,
  followed to a fixed point, so a dead definition takes the helpers only
  it calls down with it.

The scan matches words, not bindings: one ``x.run`` somewhere reaches
every method called ``run``.  It misses only a name built at run time;
such a definition goes in ``ALLOWED`` with a comment naming its caller.

A module-level import whose bound name the module never uses, and does
not list in ``__all__``, fails too: it is the first thing a deletion
orphans, and CI's ``ruff check`` (pyflakes F401) refuses it.  That check
also covers ``tests/``, ``tools/``, ``examples/`` and ``benchmarks/`` (CI's
ruff never reaches ``tools/`` or ``examples/``), where an import marked
``# noqa: F401`` — a pytest fixture a conftest re-exports — is waived.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from functools import cache
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = ("bench", "tools", "examples")
#: directories outside ``src/`` whose imports are checked too
LINTED = ("tests", "tools", "examples", "benchmarks")

#: ``"module.py:Qualified.name"`` → why the scan cannot see its caller.
ALLOWED: dict[str, str] = {}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
# a bare ``# noqa`` or one whose codes include F401
_NOQA_F401 = re.compile(r"#\s*noqa(?::[^#]*\bF401\b|(?![:\w]))")


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


def _walk(tree: ast.Module):
    """Every node of ``tree``, each before the nodes it contains, with
    whether it lies in a function body (decorators excluded) and the
    definitions of :func:`_definitions` it lies in, outermost first."""
    qualified = {id(node): name for name, node in _definitions(tree)}
    stack = [(tree, False, ())]
    while stack:
        node, in_function, owners = stack.pop()
        yield node, in_function, owners
        if id(node) in qualified:
            owners = (*owners, qualified[id(node)])
        body = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        decorators = {id(child) for child in getattr(node, "decorator_list", ())}
        for child in reversed(list(ast.iter_child_nodes(node))):
            stack.append((child, in_function if id(child) in decorators else body, owners))


@cache
def _references(tree: ast.Module) -> dict[str, list[tuple[bool, tuple[str, ...]]]]:
    """Word → per reference to it in ``tree``: whether it is a bare ``Name``
    in a function body, and the definitions it lies in (see :func:`_walk`).

    Docstrings refer to nothing; a quoted annotation
    (``"PlanOperator | Rewriting"``) refers to every name in it."""
    docstrings: set[int] = set()
    quoted: set[int] = set()
    found = defaultdict(list)
    for node, in_function, owners in _walk(tree):
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
            found[word].append((kind is ast.Name and in_function, owners))
    return found


def _unreached(
    modules: dict[str, ast.Module], callers: dict[str, ast.Module]
) -> list[str]:
    """The definitions of ``modules`` nothing reaches.

    Every reference in ``callers``, and every one at module level, reaches;
    so does every one from inside a definition already reached, followed
    to a fixed point.  A bare ``Name`` in a function body is a local or a
    global, so it reaches no method; a definition does not reach itself."""
    definitions = [
        (name, qualified, node)
        for name, tree in modules.items()
        for qualified, node in _definitions(tree)
    ]
    uses = defaultdict(list)
    for name, tree in modules.items():
        for word, found in _references(tree).items():
            uses[word] += [(bare, {(name, owner) for owner in owners}) for bare, owners in found]
    for tree in callers.values():
        for word, found in _references(tree).items():
            uses[word] += [(bare, set()) for bare, _ in found]
    reached = {
        (name, qualified)
        for name, qualified, node in definitions
        if node.name.startswith("__") and node.name.endswith("__")
    }
    grew = True
    while grew:
        grew = False
        for name, qualified, node in definitions:
            key = (name, qualified)
            if key in reached:
                continue
            method = "." in qualified
            if any(
                not (method and bare) and key not in owners and owners <= reached
                for bare, owners in uses.get(node.name, ())
            ):
                reached.add(key)
                grew = True
    return [
        f"{name}:{qualified}"
        for name, qualified, _ in definitions
        if (name, qualified) not in reached
    ]


def _module_imports(statements: list[ast.stmt]):
    """The imports run at module level, ``if TYPE_CHECKING:`` ones included."""
    for statement in statements:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            yield statement
        elif isinstance(statement, (ast.If, ast.Try)):
            yield from _module_imports(statement.body + statement.orelse)


def _unused_imports(name: str, tree: ast.Module, waived: frozenset = frozenset()) -> list[str]:
    """The imports of ``tree`` it never uses, but for those on a line in
    ``waived`` (the alias's own, or the statement's first)."""
    used = _references(tree)
    unused = []
    for statement in _module_imports(tree.body):
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        for alias in statement.names:
            bound = alias.asname or alias.name.split(".")[0]
            if {alias.lineno, statement.lineno} & waived:
                continue
            if len(used.get(bound, ())) <= _alias_words(alias).count(bound):
                unused.append(f"{name}: {bound}")
    return unused


def _noqa_lines(text: str) -> frozenset:
    """The line numbers whose comment waives F401."""
    return frozenset(
        number
        for number, line in enumerate(text.splitlines(), start=1)
        if _NOQA_F401.search(line)
    )


@cache
def _source_modules() -> dict[str, ast.Module]:
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }


@cache
def _caller_modules() -> dict[str, ast.Module]:
    return {
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
        for caller in CALLERS
        for path in sorted((ROOT / caller).rglob("*.py"))
    }


@cache
def _linted_modules() -> dict[str, tuple[ast.Module, frozenset]]:
    modules = {}
    for top in LINTED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text()
            modules[path.relative_to(ROOT).as_posix()] = (ast.parse(text), _noqa_lines(text))
    return modules


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
    assert _unreached({"m.py": module}, {"c.py": ast.parse("from_outside()")}) == [
        "m.py:recursive",
        "m.py:helper_in_docstring",
        "m.py:Box",
        # named only inside ``user`` and ``Box``, which nothing reaches
        "m.py:Box.used",
        "m.py:Box.unused_elsewhere",
        "m.py:user",
    ]
    assert _unused_imports("m.py", module) == ["m.py: sys", "m.py: Iterator"]


def test_a_reference_in_another_module_reaches_the_definition():
    modules = {
        "a.py": ast.parse("def shared(): pass\ndef lonely(): pass\n"),
        "b.py": ast.parse("from a import shared\n"),
    }
    assert _unreached(modules, {}) == ["a.py:lonely"]


def test_one_attribute_reaches_every_method_of_that_name():
    module = ast.parse(
        "class A:\n    def run(self): pass\n"
        "class B:\n    def run(self): pass\n    def stop(self): pass\n"
        "def main(thing): return thing.run(), A, B\n"
    )
    assert _unreached({"m.py": module}, {"c.py": ast.parse("main")}) == ["m.py:B.stop"]


def test_a_bare_name_in_a_function_body_reaches_no_method():
    module = ast.parse(
        "class Table:\n"
        "    def _scan(self): pass\n"
        "    def _join(self): pass\n"
        "    def answer(self): pass\n"
        "    OPERATORS = {1: _scan}\n"
        "def main():\n"
        "    answer = Table.OPERATORS\n"
        "    return _join, answer\n"
    )
    caller = ast.parse("def run():\n    return main()\n")
    # ``_scan`` is named at class level; ``_join`` and ``answer`` only by a
    # function's locals and globals
    assert _unreached({"m.py": module}, {"c.py": caller}) == [
        "m.py:Table._join",
        "m.py:Table.answer",
    ]


def test_a_reference_from_an_unreached_definition_does_not_count():
    source = (
        "def dead(): return _helper()\n"
        "def _helper(): return _deeper()\n"
        "def _deeper(): return 1\n"
        "def ping(): return pong()\n"
        "def pong(): return ping()\n"
    )
    assert _unreached({"m.py": ast.parse(source)}, {}) == [
        "m.py:dead",
        "m.py:_helper",
        "m.py:_deeper",
        "m.py:ping",
        "m.py:pong",
    ]


def test_an_import_listed_in_all_is_a_re_export():
    module = ast.parse("from os import path, sep\n__all__ = ['path']\n")
    assert _unused_imports("m.py", module) == ["m.py: sep"]


def test_a_noqa_f401_import_is_waived():
    text = (
        "import os  # noqa: F401\n"
        "import re  # noqa: E402\n"
        "import sys  # noqa\n"
        "from json import (  # noqa: E402, F401\n"
        "    dumps,\n"
        ")\n"
        "from ast import (\n"
        "    parse,  # noqa: F401\n"
        "    walk,\n"
        ")\n"
    )
    module = ast.parse(text)
    assert _unused_imports("m.py", module, _noqa_lines(text)) == ["m.py: re", "m.py: walk"]


def test_every_definition_in_src_is_reached():
    unreached = _unreached(_source_modules(), _caller_modules())
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
    unused += [
        found
        for name, (tree, waived) in _linted_modules().items()
        for found in _unused_imports(name, tree, waived)
    ]
    assert not unused, "imported and never used:\n" + "\n".join(unused)
