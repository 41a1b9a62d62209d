"""No module of the package reads a sibling's private names, and every public name is used.

A name with a leading underscore is internal to the module that defines it;
a value two modules share is exported under a public name.  The first guard
parses the package and fails on a private name taken from a sibling, either
by ``from .module import _name`` or as ``module._name`` through a module it
imported.

The import guard keeps the draw module, which makes numbers from raw generator
words, free of every other module of the package: it imports only numpy
and the standard library.

The usage guard fails on a public module-level function or class, or a
public method or property of a module-level class, that no module of the
package, no demo and not the acceptance suite names: code that only the
other tests keep alive.  The unread-import guard fails on a name that a
module of the package other than ``__init__``, a demo or a test imports
and never reads.  The last test keeps ``numpy.random`` out of the import
of the command-line module.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import hyperqsdc
from test_harness import package_env

SOURCES = sorted(Path(hyperqsdc.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# every file whose names keep a public definition alive
USERS = [*SOURCES, *sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


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


def imported_modules(source: str) -> set:
    """Every module ``source`` imports, a module of the package as ``hyperqsdc.<name>``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module:  # ``from .protocol import ChannelParams``
                found.add(f"hyperqsdc.{node.module}")
            elif node.level or node.module == "hyperqsdc":  # ``from . import harness``
                found.update(f"hyperqsdc.{alias.name}" for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_the_draw_module_imports_only_numpy_and_the_standard_library():
    # how numbers are made from raw words stays apart from what the phases draw
    found = imported_modules((Path(hyperqsdc.__file__).parent / "draws.py").read_text("utf-8"))
    assert {name for name in found if name.startswith("hyperqsdc")} == set()
    assert {name.partition(".")[0] for name in found} <= {"numpy", *sys.stdlib_module_names}


def test_the_import_guard_sees_every_form():
    source = ("from .protocol import ChannelParams\n"
              "from . import harness as h\n"
              "from hyperqsdc.adversary import EveKind\n"
              "import hyperqsdc.cli\n"
              "from hyperqsdc import hyperstate\n"
              "import numpy.random\n"
              "from typing import Optional\n")
    assert imported_modules(source) == {
        "hyperqsdc.protocol", "hyperqsdc.harness", "hyperqsdc.adversary", "hyperqsdc.cli",
        "hyperqsdc.hyperstate", "numpy.random", "typing"}


def public_definitions(source: str) -> set:
    """The public functions and classes that ``source`` defines at module level, and the
    public methods and properties of its classes as ``Class.name``."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _private(node.name):
            found.add(node.name)
        if isinstance(node, ast.ClassDef):
            found.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return found


def names_used(source: str) -> set:
    """Every name ``source`` reads, as a ``Name`` or an ``Attribute``, or imports by ``from``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_used_outside_the_tests():
    used = set().union(*(names_used(path.read_text(encoding="utf-8")) for path in USERS))
    unused = {path.stem: {name for name in public_definitions(path.read_text(encoding="utf-8"))
                          if name.rpartition(".")[2] not in used}
              for path in SOURCES}
    assert {module: names for module, names in unused.items() if names} == {}


def test_the_usage_guard_sees_every_form():
    source = ("from .hyperstate import bell_labels_table as readout\n"
              "import numpy as np\n"
              "class Kept:\n"
              "    def __init__(self): self.held = 0\n"
              "    def method(self): return np.zeros(1), hs.draw\n"
              "    @property\n"
              "    def size(self): return self._inner()\n"
              "    def _inner(self): return 1\n"
              "class _Hidden:\n"
              "    @staticmethod\n"
              "    def made(): return _Hidden()\n"
              "def _helper(): return Kept\n"
              "def unused(): return unused_too\n")
    assert public_definitions(source) == {"Kept", "Kept.method", "Kept.size", "_Hidden.made",
                                          "unused"}
    assert names_used(source) >= {"bell_labels_table", "np", "zeros", "hs", "draw", "Kept",
                                  "unused_too"}
    assert not names_used(source) & {"readout", "method", "size", "made", "_helper", "unused"}


def unread_imports(source: str) -> list:
    """(name, line) of each name that ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name.partition(".")[0], node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return sorted((use for use in bound if use[0] not in read), key=lambda use: use[1])


def test_no_module_demo_or_test_imports_a_name_it_never_reads():
    # ``__init__`` imports to re-export; everything else imports to read
    files = [*(path for path in SOURCES if path.name != "__init__.py"),
             *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]
    found = {path.relative_to(ROOT).as_posix(): unread_imports(path.read_text(encoding="utf-8"))
             for path in files}
    assert {path: names for path, names in found.items() if names} == {}


def test_the_unread_import_guard_sees_every_form():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "import json, re\n"
              "from .protocol import ChannelParams, Phase as P\n"
              "from typing import Optional\n"
              "def f(x: Optional[int]):\n"
              "    Phase = ChannelParams = 1\n"
              "    return np.zeros(1), json.dumps(P.ENCODING), os.sep\n")
    assert unread_imports(source) == [("re", 4), ("ChannelParams", 5)]


def test_importing_the_cli_leaves_numpy_random_unimported():
    # numpy imports ``numpy.random`` only when asked for it; the seeding code
    # builds its seed class on first use, so a fresh interpreter's setup
    # does not pay for it
    code = "import sys, hyperqsdc.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "False"
