"""Dead-code guard: the package holds only what its own code uses.

Every top-level function and class in ``src/supercong/*.py``, and every
method of such a class, must be loaded, as a name or an attribute, by
package code outside its own definition.  ``__init__`` re-exports do not
count as a use, and dunder methods are exempt.  The only exceptions are
the console entry point ``main``, ``sweep_family``, the library API of the
acceptance family sweep, ``exact_reduce_sum``, the one-prime oracle that
the benchmark's output checks and the tests import (package code calls
``exact_reduce_sums``), and the methods in ``TEST_METHODS``.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supercong"
ENTRY_POINTS = {"main", "sweep_family", "exact_reduce_sum"}
# Methods that only the tests call, each with its reason.
TEST_METHODS = {
    "PrimeContext.residue": "the tests embed integers and rationals as ResidueZ "
                            "with it, until ResidueZ leaves the package",
}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loaded_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions_and_uses():
    """Every top-level definition and non-dunder method, as (qualified name,
    uses of its name outside its own definition)."""
    defined = []  # (qualified name, name, definition node)
    uses = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        uses.update(_loaded_names(tree))
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defined.append((f"{path.stem}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{path.stem}.{node.name}.{sub.name}", sub.name, sub)
                    for sub in node.body
                    if isinstance(sub, DEFINITIONS) and not sub.name.startswith("__")
                )
    return [
        (qualified, uses[name] - sum(n == name for n in _loaded_names(node)))
        for qualified, name, node in defined
    ]


def test_every_definition_is_used_by_package_code():
    found = _definitions_and_uses()
    assert len(found) > 50  # the walk really saw the package
    assert "modring.GridContext.series" in dict(found)  # and its methods
    exempt = ENTRY_POINTS | set(TEST_METHODS)
    unused = [q for q, used in found if not used and q.split(".", 1)[1] not in exempt]
    assert unused == []


def test_listed_test_methods_exist():
    found = {qualified.split(".", 1)[1] for qualified, _ in _definitions_and_uses()}
    assert set(TEST_METHODS) <= found
