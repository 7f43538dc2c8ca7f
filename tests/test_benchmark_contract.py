"""The package surface that the benchmark's output checks import.

``perfbench/checks.py`` recomputes sampled report residues exactly through
``modring.make_context`` and the ``value`` of ``oracle.exact_reduce_sum``.
A change that drops or renames any of them fails every benchmark command,
so this test runs those checks on real CLI records.
"""

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
