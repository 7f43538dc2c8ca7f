"""Dead-code guard: the package holds only what its own code uses.

Every top-level function and class in ``src/supercong/*.py``, and every
method of such a class, must be loaded, as a name or an attribute, by
package code outside its own definition.  ``__init__`` re-exports do not
count as a use, and dunder methods are exempt.  The only exceptions are
the console entry point ``main``; ``exact_reduce_sum``, the one-prime
oracle whose record's ``value`` the benchmark's output checks read (package
code calls ``exact_reduce_sums``); and the one-point checkers of the
statements with parameters, the public API that the benchmark's tracer
binds (package code runs those statements through ``congruences.points``).

Every name an ``import`` or ``from ... import`` binds in such a module must
also be loaded as a plain name somewhere in it; ``from __future__`` is
exempt.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supercong"
ENTRY_POINTS = {"main", "exact_reduce_sum", "check_theorem_2_1", "check_theorem_2_2",
                "check_theorem_2_3", "check_theorem_2_4", "check_corollary_2_2",
                "check_identity_1_3"}
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
    assert "modring.PrimeContext.series" in dict(found)  # and its methods
    unused = [q for q, used in found if not used and q.split(".", 1)[1] not in ENTRY_POINTS]
    assert unused == []


def test_every_imported_name_is_loaded_by_its_module():
    imported, unused = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported += 1
                if name not in loaded:
                    unused.append(f"{path.stem}.{name}")
    assert imported > 40  # the walk really saw the imports
    assert unused == []
