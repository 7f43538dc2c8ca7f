"""Runs one benchmark workload through the supercong CLI and prints its
metrics as the last line of stdout, one JSON object:

    python3 perfbench/run.py --workload prime_sweep --seed 7 --seconds 24 --trace 0

Every command is a fresh ``python -m supercong`` process on the sources in
``src/``, and every command's output is checked (see checks.py). The seed
selects the workload's inputs and the sample of records recomputed exactly;
the CLI receives only the generated arguments.

``--trace 0`` repeats the workload at the CLI's default ``--jobs`` (all
cores) for ``--seconds`` and reports the end-to-end metrics: medians over the
repetitions (for wall time, the sum of each command's median), and the
median of several set-up runs. ``--trace 1`` repeats,
for ``--seconds``, the workload untraced at ``--jobs 1``, traced at
``--jobs 1`` with every span in one process, and untraced at the default
``--jobs``, and reports the per-layer metrics of tracing.py as medians.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import harness
import tracing
import workloads

SETUP_REPEATS = 15
END_TO_END = (
    ("wall_s", "s"),
    ("terms_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK = harness.ROOT / ".perfbench"


class Runner:
    """Runs and checks the commands of one workload, counting failures."""

    def __init__(self, workload: workloads.Workload, reference: dict,
                 rng: random.Random, workdir: Path) -> None:
        self.workload = workload
        self.reference = reference
        self.rng = rng
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def _reference(self, cmd: workloads.Command) -> dict:
        if cmd is self.workload.setup:
            return self.reference["setup"]
        return self.reference["variants"][self.workload.variant]["commands"][cmd.key]

    def run(self, cmd: workloads.Command, argv: List[str]) -> Tuple[harness.Outcome, dict]:
        for name in cmd.reports:
            (self.workdir / name).unlink(missing_ok=True)
        outcome = harness.execute(argv, self.workdir)
        obs, records = checks.observe(cmd, outcome, self.workdir)
        found = checks.problems(cmd, outcome, obs, records, self._reference(cmd), self.rng)
        self.attempted += 1
        if found:
            self.failed += 1
            print(f"FAILED: {' '.join(argv[1:])}", file=sys.stderr)
            for problem in found:
                print(f"  {problem}", file=sys.stderr)
        return outcome, obs

    def cli(self, cmd: workloads.Command, jobs: Optional[int]) -> harness.Outcome:
        return self.run(cmd, harness.cli_argv(cmd.argv(jobs)))[0]

    def traced(self, cmd: workloads.Command) -> Tuple[float, dict, int]:
        """Traced run at --jobs 1: (wall less span writing, spans, report bytes)."""
        spans = self.workdir / f"{cmd.key}.spans.json"
        outcome, obs = self.run(cmd, harness.traced_argv(spans, cmd.argv(1)))
        try:
            dump = json.loads(spans.read_text(encoding="utf-8"))
            meta = json.loads(Path(f"{spans}.meta").read_text(encoding="utf-8"))
        except (OSError, ValueError):  # the command's failure is already counted
            dump, meta = {"names": [], "spans": []}, {"dump_s": 0.0}
        report_bytes = sum(r["bytes"] for r in obs["reports"].values())
        return outcome.wall_s - meta["dump_s"], dump, report_bytes


def until(seconds: float, iteration) -> list:
    """Repeat iteration() until seconds have passed; at least once."""
    start = time.monotonic()
    results = [iteration()]
    while time.monotonic() - start < seconds:
        results.append(iteration())
    return results


def end_to_end(s: Runner, seconds: float) -> Dict[str, float]:
    wl = s.workload
    s.cli(wl.setup, None)  # compiles the bytecode; users do not pay that per run
    setup = [s.cli(wl.setup, None).wall_s for _ in range(SETUP_REPEATS)]

    def iteration() -> List[harness.Outcome]:
        return [s.cli(c, None) for c in wl.commands]

    samples = until(seconds, iteration)
    # Each command's median, summed: a burst of load from outside that slows
    # one command of a repetition then spoils one sample, not the whole sum.
    wall = sum(statistics.median(o.wall_s for o in runs) for runs in zip(*samples))
    print(f"{wl.name} {wl.variant}: {len(samples)} runs, wall "
          f"{[round(sum(o.wall_s for o in outcomes), 3) for outcomes in samples]}",
          file=sys.stderr)
    return {
        "wall_s": wall,
        "terms_per_s": wl.terms / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(o.rss_kb for o in outcomes) for outcomes in samples)
        / 1024,
    }


def per_layer(s: Runner, seconds: float) -> Dict[str, float]:
    wl = s.workload
    s.cli(wl.setup, None)  # compiles the bytecode
    pooled = any(c.pooled for c in wl.commands)
    nproc = os.cpu_count() or 1

    def iteration() -> Dict[str, float]:
        wall_1 = sum(s.cli(c, 1).wall_s for c in wl.commands)
        traced = [s.traced(c) for c in wl.commands]
        wall_n = sum(s.cli(c, None).wall_s for c in wl.commands) if pooled else None
        return tracing.layer_metrics(
            [t[1] for t in traced],
            sum(t[2] for t in traced),
            wall_1,
            sum(t[0] for t in traced),
            wall_n,
            nproc,
        )

    samples = until(seconds, iteration)
    print(f"{wl.name} {wl.variant}: {len(samples)} traced runs", file=sys.stderr)
    return tracing.median_metrics(samples)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(workloads.SIZES),
                        help="'smoke' runs a few seconds, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not harness.program_present():
        print(f"error: no supercong sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))  # the exact oracle used by the checks
    try:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.size][args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference for {args.workload}: {exc!r}", file=sys.stderr)
        return 2
    workload = workloads.for_seed(args.workload, args.seed, args.size)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workload, reference, random.Random(args.seed), workdir)
    if args.trace:
        values = per_layer(runner, args.seconds)
        units = {name: unit for name, unit, _better in tracing.PER_LAYER}
    else:
        values = end_to_end(runner, args.seconds)
        units = dict(END_TO_END)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
