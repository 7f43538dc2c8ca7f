"""Runs one CLI command as a fresh process and measures it.

Each command gets its own process group, so a timed-out command is killed
together with its pool workers. The command is reaped with ``os.wait4``,
whose resource usage covers the pool workers it reaped itself: its
``ru_maxrss`` is the largest resident set in the process tree.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracing.py"
TIMEOUT_S = 150.0


@dataclass
class Outcome:
    argv: List[str]
    exit: int
    wall_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def program_present() -> bool:
    return (SRC / "supercong" / "cli.py").is_file()


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    env.pop("SUPERCONG_LOG", None)  # the CLI's default: quiet
    return env


def cli_argv(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "supercong", *args]


def traced_argv(spans_file: Path, args: Sequence[str]) -> List[str]:
    return [sys.executable, str(TRACER), str(spans_file), "--", *args]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, deadline_s: float = 10.0) -> None:
    """Kill what is left of the group and wait until it has ended."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def execute(argv: List[str], cwd: Path, timeout_s: float = TIMEOUT_S) -> Outcome:
    """Run argv in cwd; stdout and stderr go to files there and are read back."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=cli_env(), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )

        def on_timeout() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout_s, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    # Popen must not reap the pid again: it may belong to a new process.
    proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    return Outcome(
        argv=list(argv),
        exit=proc.returncode,
        wall_s=wall,
        rss_kb=usage.ru_maxrss,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        timed_out=timed_out.is_set(),
    )
