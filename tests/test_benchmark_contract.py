"""The package surface that the benchmark imports.

``perfbench/checks.py`` recomputes sampled report residues exactly through
``modring.make_context`` and the ``value`` of ``oracle.exact_reduce_sum``.
A change that drops or renames any of them fails every benchmark command,
so this test runs those checks on real CLI records.

``perfbench/tracing.py`` wraps the package bindings it lists in ``WRAPPED``
and skips those that do not exist, so their spans read nothing.  The set it
skips is pinned here: a change that blinds another span, or deletes a
module the tracer imports, has to say so.
"""

import importlib
import json
from pathlib import Path

import pytest

from supercong.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("argv", [
    ["check", "eq1.2", "--primes", "5..40"],
    ["explore", "remark2.3", "--primes", "5..40"],
    ["check", "thm2.1", "--exhaustive-am", "--primes", "7..7", "--jobs", "1"],
    ["check", "thm2.3", "--exhaustive-am", "--primes", "7..7", "--jobs", "1"],
])
def test_benchmark_checks_recompute_cli_residues(argv, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    out = tmp_path / "records.jsonl"
    assert main([*argv, "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    with_residues = [r for r in records if r["residues"]]
    assert with_residues
    for r in with_residues:
        reported, exact = checks._exact_residue(r)
        assert reported == exact, r


# The WRAPPED bindings the package no longer has, as "module.attribute".
BLIND_BINDINGS = {
    "legendre.reduce_rational",
    "congruences.make_context",
    "congruences.legendre_square_at_sqrt",
    "oracle.lemma_2_2_sides",
    "oracle.zeilberger_certificate_check",
}


def test_tracer_skips_exactly_the_known_blind_bindings(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        skipped = {
            f"{module.rsplit('.', 1)[1]}.{attr}"
            for module, attr, _, _ in tracing.WRAPPED
            if not hasattr(getattr(importlib.import_module(module), attr, None), "__wrapped__")
        }
    finally:
        tracer.uninstall()
    assert skipped == BLIND_BINDINGS
