"""Dead-code guard: the package holds only what its own code uses.

Every top-level function, class and assignment (a constant or a type
alias) in ``src/supercong/*.py``, and every method of such a class, must be
loaded, as a name or an attribute, by package code outside its own
definition.  ``__init__`` re-exports do not count as a use, and dunder
names are exempt.  The only exceptions are the console entry point
``main``; ``exact_reduce_sum``, the one-prime oracle whose record's
``value`` the benchmark's output checks read (package code calls
``exact_reduce_sums``); the two library checkers ``check`` (one
point of a statement with parameters) and ``fixed_records`` (a statement at
fixed arguments over a prime list), whose records the tests hold the CLI's
report text against (package code encodes the rows of ``congruences.points``
and ``congruences.fixed_columns`` with no dict per record); and the
one-point sums ``core_sum``, ``plain_sum`` and ``family_sum``, the
public API through which the tests check the one-x (Horner) path of
``PrimeContext.series`` and which the benchmark's tracer binds (package
code, the ``reduce-equivalence`` oracle too, sums at whole argument
vectors).

Every name an ``import`` or ``from ... import`` binds in such a module must
also be loaded as a plain name somewhere in it; ``from __future__`` is
exempt.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "supercong"
ENTRY_POINTS = {"main", "exact_reduce_sum", "check", "fixed_records", "core_sum",
                "plain_sum", "family_sum"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loaded_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _assigned_names(node):
    """The names a top-level assignment binds, dunder names left out."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return
    for target in targets:
        yield from (t.id for t in ast.walk(target)
                    if isinstance(t, ast.Name) and not t.id.startswith("__"))


def _definitions_and_uses():
    """Every top-level definition, assigned name and non-dunder method, as
    (qualified name, uses of its name outside its own definition)."""
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
            defined.extend((f"{path.stem}.{name}", name, node) for name in _assigned_names(node))
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
    assert "cli.FAILED_SHOWN" in dict(found)  # and its assignments
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
