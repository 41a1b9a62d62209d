"""No module of the package reads another module's private names.

A name with a leading underscore is internal to the module that defines it;
a value two modules share is exported under a public name.  This guard
parses the package and fails on a private name taken from a sibling, either
by ``from .module import _name`` or as ``module._name`` through a module it
imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hyperqsdc

SOURCES = sorted(Path(hyperqsdc.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list:
    """(name, line) of each sibling module's private name that ``source`` imports or reads."""
    tree = ast.parse(source)
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level or (node.module or "").startswith("hyperqsdc")
            for alias in node.names if package else ():
                if _private(alias.name):
                    uses.append((alias.name, node.lineno))
                elif node.module is None or node.module == "hyperqsdc":  # a module itself
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("hyperqsdc."))
    uses += [(node.attr, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and _private(node.attr)]
    return sorted(uses, key=lambda use: use[1])


def test_no_module_reads_a_siblings_private_name():
    found = {path.stem: private_uses(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {module: uses for module, uses in found.items() if uses} == {}


def test_the_guard_sees_both_forms():
    source = ("from .adversary import _ALARMED, SCREENS\n"
              "from . import channel as chn\n"
              "from hyperqsdc.protocol import _PHASE\n"
              "x = chn._noisy, chn.ChannelParams, SCREENS.__len__\n")
    assert private_uses(source) == [("_ALARMED", 1), ("_PHASE", 3), ("_noisy", 4)]
