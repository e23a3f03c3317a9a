"""No module under ``src/repro`` reads or writes a pickle-family format,
and importing :mod:`repro` loads no TLS or crypto library.

Snapshots and the change log are JSONL records whose derived state is
rebuilt on load; a module importing ``pickle``, ``marshal`` or ``shelve``
would bring back a durable format that runs code when read.  Nor does
any class keep pickle hooks: the one ``__getstate__`` left is
``PlanOperator``'s, which keeps the executor's memo out of
``copy.deepcopy``.

``xml.sax.saxutils`` pulls in ``urllib.request`` and with it ``ssl`` and
``http.client``; a top-level ``hashlib`` loads libcrypto (``_hashlib``).
Either costs every process that imports :mod:`repro` several megabytes
of resident memory it never uses.  Nor does :mod:`repro` load the
``email`` package: ``email.utils.formatdate`` brought it in, with
``calendar`` and ``locale``, for one ``Date`` header.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src" / "repro"
FORBIDDEN = {"pickle", "marshal", "shelve"}


def _imported(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@cache
def _modules() -> list[tuple[str, ast.AST]]:
    return [
        (path.relative_to(SRC.parent).as_posix(), ast.parse(path.read_text()))
        for path in sorted(SRC.rglob("*.py"))
    ]


def test_the_scan_sees_every_import_form():
    tree = ast.parse("import os, pickle as p\nfrom marshal import dumps\nfrom . import x")
    assert {name.split(".")[0] for name in _imported(tree)} & FORBIDDEN == {
        "pickle",
        "marshal",
    }


def test_no_module_imports_a_pickle_format():
    offenders = [
        f"{name}: {module}"
        for name, tree in _modules()
        for module in _imported(tree)
        if module.split(".")[0] in FORBIDDEN
    ]
    assert offenders == []


def test_no_class_keeps_pickle_hooks():
    hooks = [
        (name, node.name)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("__getstate__", "__setstate__", "__reduce__", "__reduce_ex__")
    ]
    assert hooks == [("repro/algebra/operators.py", "__getstate__")]


def _loaded_after_import_repro(condition: str) -> list[str]:
    """The modules matching ``condition`` (an expression in ``m``) that a
    fresh interpreter holds after ``import repro``."""
    # a child process: this one has long since imported what pytest needs
    probe = (
        "import json, sys, repro; print(json.dumps(sorted(m for m in "
        f"list(sys.modules) if {condition})))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return json.loads(run.stdout)


def test_importing_repro_loads_no_tls_or_crypto_library():
    assert _loaded_after_import_repro(
        "m in ('ssl', '_hashlib', 'urllib.request', 'http.client')"
    ) == []


def test_importing_repro_loads_no_email_package():
    assert _loaded_after_import_repro("m == 'email' or m.startswith('email.')") == []
