"""The benchmark's own tests, at a smoke size of a few seconds per workload.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(harness.SRC))  # the exact oracle used by the checks

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        tracing.PER_LAYER
    )
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted_with_a_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert NAME.match(m["name"])
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0


def test_a_command_that_exits_2_counts_as_failed(tmp_path):
    # A real defect: 1/3 is not 3-integral, and the CLI aborts before any pool.
    cmd = workloads.Command(
        "thm2.2", ("check", "thm2.2", "--primes", "3..3", "--a", "1/3", "--x", "1"),
        (), True, 1, 3,
    )
    wl = workloads.Workload("defect", "3", (cmd,), cmd)
    expected = {"exit": 0, "stdout": "", "reports": {}, "status_counts": {}, "records": 0}
    runner = run.Runner(wl, {"setup": expected}, random.Random(0), tmp_path)
    outcome = runner.cli(cmd, 1)
    assert outcome.exit == 2
    assert (runner.attempted, runner.failed) == (1, 1)


def test_the_seed_picks_the_inputs_and_the_cli_sees_only_them(tmp_path, monkeypatch):
    a = workloads.for_seed("prime_sweep", 3)
    assert a == workloads.for_seed("prime_sweep", 3)
    assert a != workloads.for_seed("prime_sweep", 4)
    seen = []
    real_execute = harness.execute

    def spy(argv, cwd, timeout_s=harness.TIMEOUT_S):
        seen.append(argv)
        return real_execute(argv, cwd, timeout_s)

    monkeypatch.setattr(harness, "execute", spy)
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["smoke"]["prime_sweep"]
    wl = workloads.for_seed("prime_sweep", 3, "smoke")
    runner = run.Runner(wl, reference, random.Random(3), tmp_path)
    for cmd in wl.commands:
        runner.cli(cmd, None)
    assert runner.failed == 0
    assert seen == [harness.cli_argv(c.args) for c in wl.commands]


def test_terms_count_the_oracle_grids():
    from supercong import oracle

    assert workloads.GRID_X_DENOMINATORS == tuple(x.denominator for x in oracle.GRID_X)
    assert workloads.GRID_A_DENOMINATORS == tuple(a.denominator for a in oracle.GRID_A)


def test_self_time_leaves_out_child_spans():
    dump = {
        "names": ["outer", "inner"],
        "spans": [[0, -1, 0, 100, 0, 1], [1, 0, 10, 40, 2, 5], [1, 0, 50, 70, 3, 5]],
    }
    layers = tracing.layer_totals([dump])
    assert layers["outer"].self_ns == 50
    assert layers["inner"].self_ns == 50
    assert layers["inner"].per_unit((2,)) == 6.0


def test_a_nonzero_in_class_eq12_residue_fails_the_checks(tmp_path):
    cmd = workloads.build("prime_sweep", "300", "smoke").commands[0]
    outcome = harness.execute(harness.cli_argv(cmd.argv(1)), tmp_path)
    path = tmp_path / cmd.reports[0]
    lines = path.read_text().splitlines()
    # p = 5 is in class for two_three (5 = 2 mod 3): its residue must be 0.
    i = next(i for i, line in enumerate(lines) if '"p": 5,' in line and "two_three" in line)
    lines[i] = lines[i].replace('"sum_mod_p2": 0', '"sum_mod_p2": 5')
    path.write_text("\n".join(lines) + "\n")
    obs, records = checks.observe(cmd, outcome, tmp_path)
    found = checks.problems(cmd, outcome, obs, records, obs, random.Random(0))
    assert any("in-class eq1.2 residue is not 0" in f for f in found)
