"""Records the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every input variant of every workload, at both sizes, once at
``--jobs 1`` and writes perfbench/reference.json: per command the exit code,
stdout and report digests and sizes, status counts per theorem and record
count, with the input sizes. The same checks as in a benchmark run must
pass first (in-class eq1.2 residues are 0, a sample of records matches the
exact oracle); a command that fails them stops the recording. Re-record
only when a change to the program is meant to change its output.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import checks
import harness
import workloads
from run import REFERENCE, WORK


def record(cmd: workloads.Command, workdir) -> dict:
    outcome = harness.execute(harness.cli_argv(cmd.argv(1)), workdir)
    obs, records = checks.observe(cmd, outcome, workdir)
    found = checks.problems(cmd, outcome, obs, records, obs, random.Random(0))
    if outcome.exit == 2 or found:
        raise SystemExit(f"{' '.join(cmd.args)}: {found or outcome.stderr.decode()}")
    print(f"{outcome.wall_s:7.2f}s  {' '.join(cmd.args)}", file=sys.stderr)
    return dict(obs, primes=cmd.primes, terms=cmd.terms)


def main() -> int:
    if not harness.program_present():
        print(f"error: no supercong sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    workdir = WORK / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out: dict = {}
    for size, variants in workloads.SIZES.items():
        for name in workloads.NAMES:
            entry = {"variants": {}}
            for variant in variants[name]:
                wl = workloads.build(name, variant, size)
                commands = {c.key: record(c, workdir) for c in wl.commands}
                entry["variants"][variant] = {
                    "commands": commands,
                    "terms": wl.terms,
                    "records": sum(c["records"] for c in commands.values()),
                }
            entry["setup"] = record(wl.setup, workdir)
            out.setdefault(size, {})[name] = entry
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
