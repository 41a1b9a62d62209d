"""Every random draw of a run comes from one object, ``harness.DrawSource``.

The rule that session k draws only from its own generators, in the order
and sizes of the session run alone, lives in that class alone.  This
guard parses the package and fails on a generator draw anywhere else.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hyperqsdc

SOURCES = sorted(Path(hyperqsdc.__file__).parent.glob("*.py"))
DRAWS = {"random", "integers", "choice"}  # the Generator methods the package draws with
# (module, top-level name) that may call them: the draw source, and the
# one-pair and one-signal helpers that take a generator from their caller
ALLOWED = {("harness", "DrawSource"), ("hyperstate", "chbsa"), ("adversary", "craft_trojan"),
           ("adversary", "apply_defenses")}


def draw_calls(path: Path) -> list:
    """(module, enclosing top-level name or None, line) of each ``.random(``, ``.integers(``
    or ``.choice(`` call in a module."""
    calls = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DRAWS):
                calls.append((path.stem, getattr(top, "name", None), node.lineno))
    return calls


def test_only_the_draw_source_calls_a_generator():
    calls = [call for path in SOURCES for call in draw_calls(path)]
    assert [call for call in calls if call[:2] not in ALLOWED] == []
    # the guard sees the draws it allows: each site of the source draws
    assert len([call for call in calls if call[:2] == ("harness", "DrawSource")]) >= 10
