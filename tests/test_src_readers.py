"""Every function, class and method of src/cnets has a reader outside tests.

A definition counts as read when its name appears as a whole word in
src, scripts, perfbench or README.md more often than it is defined
there. Matching by name is a lower bound on what nothing outside tests
reads: a name that some other object or a comment also uses passes, so
the test finds only names mentioned nowhere but in their definitions.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cnets"

# names that no run reads, kept on purpose
ALLOWED = {
    "_missing_": "Enum calls it to look up a value no member has",
}


def definitions() -> list[str]:
    """The names of src/cnets' top-level functions and classes and of their methods."""
    names = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
    return names


def unread() -> set[str]:
    readers = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    text = "\n".join(path.read_text() for path in [*readers, ROOT / "README.md"])
    mentions = Counter(re.findall(r"\w+", text))
    defined = Counter(definitions())
    return {
        name
        for name, count in defined.items()
        if mentions[name] <= count and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_src_definition_is_read_outside_tests():
    assert unread() - set(ALLOWED) == set()


def test_every_allowed_name_is_still_unread():
    assert set(ALLOWED) - unread() == set()
