"""Every name `rnla` exports has a user outside the tests.

A name in `rnla.__all__` is used when a module of `src/rnla` other than
`__init__.py` refers to it (an `ast.Name` or `ast.Attribute` node), or when
it is a word of README.md, `bench/*.py` or `tools/*.py`.  Code that only
tests call belongs in `tests/`, or nowhere.
"""

import ast
import re
from pathlib import Path

import rnla

ROOT = Path(__file__).resolve().parents[1]


def _source_references() -> set:
    refs = set()
    for path in (ROOT / "src" / "rnla").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
    return refs


def _words() -> set:
    paths = [ROOT / "README.md", *(ROOT / "bench").glob("*.py"),
             *(ROOT / "tools").glob("*.py")]
    return {w for p in paths for w in re.findall(r"\w+", p.read_text())}


def test_every_export_has_a_user_outside_the_tests():
    used = _source_references() | _words()
    assert [n for n in rnla.__all__ if n != "__version__" and n not in used] == []
