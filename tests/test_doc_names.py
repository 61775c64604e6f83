"""Every ``repro.…`` name README and DESIGN quote can be imported.

A dotted name in backticks (a module, or a class, function or method
inside one) must resolve, so a rename or a deletion cannot leave the
docs pointing at code that is gone.  Fenced code blocks are left to
``tests/test_readme_snippets.py``; CHANGELOG.md is history and names
what was removed on purpose.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

FENCE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
INLINE = re.compile(r"`([^`]+)`")
NAME = re.compile(r"\brepro(?:\.\w+)+")


def _quoted_names(doc: str) -> set[str]:
    text = FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))
    return {name for span in INLINE.findall(text)
            for name in NAME.findall(span)}


def _resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, then look up the
    rest as attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_quoted_repro_names_import(doc):
    names = _quoted_names(doc)
    assert names, f"{doc} quotes no repro names"
    assert sorted(name for name in names if not _resolves(name)) == []
