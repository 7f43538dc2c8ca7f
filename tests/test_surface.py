"""Dead-code guard: the package holds only what its own code uses.

Every top-level function and class in ``src/supercong/*.py`` must be loaded,
as a name or an attribute, by package code outside its own definition.
``__init__`` re-exports do not count as a use.  The only exceptions are the
console entry point ``main``, ``sweep_family``, the library API of the
acceptance family sweep, and ``exact_reduce_sum``, the one-prime oracle that
the benchmark's output checks and the tests import (package code calls
``exact_reduce_sums``).
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supercong"
ENTRY_POINTS = {"main", "sweep_family", "exact_reduce_sum"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loaded_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions_and_uses():
    defined = []  # (module, name)
    uses = defaultdict(int)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            own = node.name if isinstance(node, DEFINITIONS) else None
            if own is not None:
                defined.append((path.stem, own))
            for name in _loaded_names(node):
                if name != own:
                    uses[name] += 1
    return defined, uses


def test_every_definition_is_used_by_package_code():
    defined, uses = _definitions_and_uses()
    assert len(defined) > 50  # the walk really saw the package
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if name not in ENTRY_POINTS and not uses[name]
    ]
    assert unused == []
