"""Lint gate: no unused import anywhere in the repository's Python.

No linter ships with the toolchain, so this is a small ``ast`` check of
its own.  An imported name counts as used when the module refers to it
anywhere (including inside a string annotation) or lists it in
``__all__``.  ``__init__.py`` files are skipped (their imports are the
package's re-exports), and an import line marked ``# noqa: F401`` is
deliberate (an import made for its side effect or its failure).

The same walk keeps the object codecs out of the package: nothing under
``src/`` may import ``pickle``, ``marshal`` or ``shelve``.  Everything
the repro persists or sends is plain data in canonical JSON, so no
read runs code a file or a peer supplied.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Directories the gate covers.
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench")

#: Modules no file under ``src/`` may import.
OBJECT_CODECS = frozenset({"pickle", "marshal", "shelve"})

_NOQA = re.compile(r"#\s*noqa(?::[^#]*\bF401\b|\s*$|\s*\()")


def _annotation_names(node: ast.AST):
    """Names inside the string annotations under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (
                n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
            )


def _used_names(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        for annotation in annotations:
            used.update(_annotation_names(annotation))
    return used


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path):
    """``(line, name)`` of every unused import in one module."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree) | _exported(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if _NOQA.search(lines[node.lineno - 1]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                found.append((node.lineno, bound))
    return found


def codec_imports(path: Path):
    """``(line, module)`` of every import of an :data:`OBJECT_CODECS`
    module in one file, ``noqa`` or not."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found.extend(
            (node.lineno, name)
            for name in names
            if name.split(".")[0] in OBJECT_CODECS
        )
    return found


def _modules():
    for directory in SCANNED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


@pytest.mark.parametrize("directory", SCANNED)
def test_no_unused_imports(directory):
    offenders = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in _modules()
        if path.relative_to(ROOT).parts[0] == directory
        for line, name in unused_imports(path)
    ]
    assert offenders == []


def test_no_object_codec_in_src():
    offenders = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, name in codec_imports(path)
    ]
    assert offenders == []


class TestTheGate:
    def _check(self, tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(source)
        return [name for _, name in unused_imports(path)]

    def test_flags_an_unused_import(self, tmp_path):
        assert self._check(
            tmp_path, "import os\nfrom typing import List, Tuple\nx: List = []\n"
        ) == ["os", "Tuple"]

    def test_string_annotations_all_and_noqa_count_as_used(self, tmp_path):
        assert self._check(
            tmp_path,
            "from __future__ import annotations\n"
            "import cffi  # noqa: F401  (fail early)\n"
            "import json  # noqa: E402\n"
            "from typing import Dict, Tuple\n"
            "from os import sep\n"
            "__all__ = ['sep']\n"
            "cache: 'Dict[Tuple, int]' = {}\n",
        ) == ["json"]

    def test_dotted_import_binds_its_head(self, tmp_path):
        assert self._check(tmp_path, "import os.path\nos.sep\n") == []

    def test_flags_every_object_codec_import(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import json\n"
            "import pickle  # noqa: F401\n"
            "from marshal import loads\n"
            "import shelve as db\n"
            "from .pickle import x\n"
        )
        assert codec_imports(path) == [
            (2, "pickle"), (3, "marshal"), (4, "shelve"),
        ]
