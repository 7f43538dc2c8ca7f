"""Output checks for every command the benchmark runs.

A command fails if it timed out, exited 2, crashed, or its output differs
from what the reference expects:

- the exit code, stdout and report bytes equal the reference, which was
  recorded at ``--jobs 1``; a run at any other ``--jobs`` therefore shows that
  output does not depend on ``--jobs``;
- the status counts per theorem equal the reference counts;
- every in-class eq1.2 residue is 0, with the class worked out here from p;
- a seeded sample of records with p <= 97 is recomputed exactly with
  ``oracle.exact_reduce_sum``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

from harness import Outcome
from workloads import Command

ORACLE_P_MAX = 97
SAMPLE_PER_REPORT = 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(cmd: Command, outcome: Outcome, cwd: Path) -> Tuple[dict, List[dict]]:
    """What one run of cmd produced, in the form the reference stores, and
    the parsed JSONL records."""
    reports = {}
    records: List[dict] = []
    for name in cmd.reports:
        path = cwd / name
        data = path.read_bytes() if path.is_file() else b""
        reports[name] = {"sha256": _sha256(data), "bytes": len(data)}
        if name.endswith(".jsonl"):
            try:
                records.extend(json.loads(line) for line in data.splitlines())
            except ValueError:
                reports[name]["unparseable"] = True
    counts: Dict[str, Dict[str, int]] = {}
    for r in records:
        by_status = counts.setdefault(str(r.get("theorem")), {})
        status = str(r.get("status"))
        by_status[status] = by_status.get(status, 0) + 1
    obs = {
        "exit": outcome.exit,
        "stdout": outcome.stdout.decode(errors="replace"),
        "reports": reports,
        "status_counts": counts,
        "records": len(records),
    }
    return obs, records


def _in_class(family: str, p: int) -> bool:
    if family == "two_three":
        return p % 3 == 2
    if family == "two_four":
        return p % 8 in (5, 7)
    return p % 4 == 3  # three_six


def _exact_residue(record: dict) -> Tuple[int, int]:
    """(reported, exact) value of the record's truncated sum."""
    from supercong.congruences import FamilyTag
    from supercong.modring import make_context
    from supercong.oracle import exact_reduce_sum

    params, residues = record["params"], record["residues"]
    ctx = make_context(record["p"], record["e"])
    theorem = record["theorem"]
    if theorem in ("eq1.2", "remark2.3"):
        family = next(f for f in FamilyTag if f.label == params["family"])
        key = "sum_mod_p2" if theorem == "eq1.2" else "sum_mod_p3"
        exact = exact_reduce_sum(0, Fraction(params["x"]), ctx, family)
        return residues[key], exact.value
    if theorem == "thm2.1":
        exact = exact_reduce_sum(Fraction(params["a"]), Fraction(params["x"]), ctx, "core")
        return residues["sum"], exact.value
    if theorem == "thm2.3":
        x = 1 / Fraction(params["m"])
        exact = exact_reduce_sum(Fraction(params["a"]), x, ctx, "core")
        return residues["sum_mod_p2"], exact.value
    raise ValueError(f"no exact recomputation for {theorem}")


def problems(
    cmd: Command, outcome: Outcome, obs: dict, records: List[dict], ref: dict,
    rng: random.Random,
) -> List[str]:
    """Why this run of cmd counts as failed; empty if it passed."""
    if outcome.timed_out:
        return ["timed out"]
    found = []
    if outcome.exit == 2:
        found.append("exit code 2")
    if b"Traceback" in outcome.stderr:
        found.append("crashed: " + outcome.stderr.decode(errors="replace").strip()[-300:])
    for key in ("exit", "stdout", "reports", "status_counts", "records"):
        if obs[key] != ref[key]:
            found.append(f"{key} {obs[key]!r} differs from the reference {ref[key]!r}")
    try:
        found.extend(_invariant_problems(records))
        found.extend(_oracle_problems(records, rng))
    except Exception as exc:  # a malformed record fails its command, not the run
        found.append(f"malformed record: {exc!r}")
    return found


def _invariant_problems(records: List[dict]) -> List[str]:
    found = []
    for r in records:
        if r["theorem"] == "eq1.2" and _in_class(r["params"]["family"], r["p"]):
            if r["residues"]["sum_mod_p2"] != 0:
                found.append(f"in-class eq1.2 residue is not 0: {r}")
    return found


def _oracle_problems(records: List[dict], rng: random.Random) -> List[str]:
    found = []
    small = [r for r in records if r["p"] <= ORACLE_P_MAX and r["residues"]]
    for r in rng.sample(small, min(SAMPLE_PER_REPORT, len(small))):
        reported, exact = _exact_residue(r)
        if reported != exact:
            found.append(f"residue {reported} differs from exact {exact}: {r}")
    return found
