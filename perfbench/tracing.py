"""Spans around the calls into each supercong module, and the per-layer
metrics computed from them.

Run as a script, this executes one CLI command in-process with the wrappers
installed, keeps every span in memory and writes them out when the command
ends:

    python perfbench/tracing.py SPANS.json -- check thm2.1 --exhaustive-am --primes 3..13 --jobs 1

``from ... import`` copies names, so each wrapper replaces the binding that
the caller actually looks up (``congruences.make_context`` and
``cli.make_context`` are wrapped separately). A span records its name, its
parent span, start and end, and the work the call was asked to do. Its self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (module, attribute, span name, work). ``work(args, kwargs, result)`` gives
# (key, amount): the key splits a layer by exponent e where a normalised cost
# depends on it; the amount is p, terms or records.
Work = Callable[[tuple, dict, object], Tuple[int, int]]


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _ctx_work(i: int) -> Work:
    def work(args, kwargs, result):
        ctx = _arg(args, kwargs, i, "ctx")
        return ctx.e, ctx.p
    return work


def _context_work(args, kwargs, result):
    return _arg(args, kwargs, 1, "e"), _arg(args, kwargs, 0, "p")


def _legendre_work(args, kwargs, result):
    return 0, _arg(args, kwargs, 0, "n") + 1


def _records_work(args, kwargs, result):
    return 0, len(result) if isinstance(result, (list, tuple)) else 1


def _written_work(args, kwargs, result):
    return 0, len(_arg(args, kwargs, 0, "reports"))


def _no_work(args, kwargs, result):
    return 0, 0


_CHECKERS = (
    "check_theorem_2_1", "check_theorem_2_2", "check_theorem_2_3",
    "check_theorem_2_4", "check_corollary_2_2", "check_corollary_2_3",
    "check_rodriguez_villegas", "check_identity_1_3", "explore_remark_2_3",
)

WRAPPED: Tuple[Tuple[str, str, str, Work], ...] = (
    ("supercong.congruences", "core_sum", "congruences.core_sum", _ctx_work(2)),
    ("supercong.congruences", "plain_sum", "congruences.plain_sum", _ctx_work(2)),
    ("supercong.congruences", "family_sum", "congruences.family_sum", _ctx_work(2)),
    ("supercong.congruences", "reduce_rational", "modring.reduce_rational", _no_work),
    ("supercong.legendre", "reduce_rational", "modring.reduce_rational", _no_work),
    ("supercong.congruences", "make_context", "modring.make_context", _context_work),
    ("supercong.cli", "make_context", "modring.make_context", _context_work),
    ("supercong.congruences", "legendre_square_at_sqrt",
     "legendre.legendre_square_at_sqrt", _legendre_work),
    *(("supercong.congruences", c, "congruences.check", _records_work) for c in _CHECKERS),
    ("supercong.oracle", "exact_reduce_sum", "oracle.exact_reduce_sum", _ctx_work(2)),
    ("supercong.oracle", "lemma_2_2_sides", "oracle.lemma2_2", _no_work),
    ("supercong.oracle", "zeilberger_certificate_check", "oracle.lemma2_2", _no_work),
    ("supercong.cli", "primes_in_range", "cli.primes_in_range", _no_work),
    ("supercong.cli", "run_checks", "cli.sweep", _records_work),
    ("supercong.cli", "run_exploration", "cli.sweep", _records_work),
    ("supercong.cli", "write_jsonl", "cli.write_jsonl", _written_work),
    ("supercong.cli", "write_csv", "cli.write_csv", _written_work),
)


class Tracer:
    """Span store for one process. A span is
    [name index, parent index or -1, start ns, end ns, key, amount]."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[list]] = []  # None while the call runs
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, work: Work) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = [name_id, parent, t0, clock(), 0, 0]
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[index] = [name_id, parent, t0, t1, *work(args, kwargs, result)]
            return result

        return traced

    def install(self) -> None:
        """Replace every binding in WRAPPED that exists in this program."""
        for module_name, attr, name, work in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, work))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


# ---------------------------------------------------------------------------
# Per-layer metrics

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("modring.make_context.calls", "count", "lower"),
    ("modring.make_context.s", "s", "lower"),
    ("modring.make_context.ns_per_p", "ns", "lower"),
    ("modring.reduce_rational.calls", "count", "lower"),
    ("modring.reduce_rational.s", "s", "lower"),
    ("congruences.family_sum.calls", "count", "lower"),
    ("congruences.family_sum.s", "s", "lower"),
    ("congruences.family_sum.ns_per_term.e2", "ns", "lower"),
    ("congruences.family_sum.ns_per_term.e3", "ns", "lower"),
    ("congruences.core_sum.calls", "count", "lower"),
    ("congruences.core_sum.s", "s", "lower"),
    ("congruences.core_sum.ns_per_term.e1", "ns", "lower"),
    ("congruences.core_sum.ns_per_term.e2", "ns", "lower"),
    ("congruences.core_sum.ns_per_term.e3", "ns", "lower"),
    ("congruences.plain_sum.calls", "count", "lower"),
    ("congruences.plain_sum.s", "s", "lower"),
    ("congruences.plain_sum.ns_per_term", "ns", "lower"),
    ("congruences.check.calls", "count", "lower"),
    ("congruences.check.self_s", "s", "lower"),
    ("congruences.check.us_per_record", "us", "lower"),
    ("legendre.legendre_square_at_sqrt.calls", "count", "lower"),
    ("legendre.legendre_square_at_sqrt.s", "s", "lower"),
    ("legendre.legendre_square_at_sqrt.ns_per_term", "ns", "lower"),
    ("oracle.exact_reduce_sum.calls", "count", "lower"),
    ("oracle.exact_reduce_sum.s", "s", "lower"),
    ("oracle.exact_reduce_sum.us_per_term", "us", "lower"),
    ("oracle.lemma2_2.s", "s", "lower"),
    ("cli.primes_in_range.s", "s", "lower"),
    ("cli.sweep.self_s", "s", "lower"),
    ("cli.write_jsonl.s", "s", "lower"),
    ("cli.write_jsonl.us_per_record", "us", "lower"),
    ("cli.write_csv.s", "s", "lower"),
    ("cli.write_csv.us_per_record", "us", "lower"),
    ("cli.records", "count", "higher"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.pool.parallel_eff", "ratio", "higher"),
    ("cli.pool.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class _Layer:
    """Totals of one span name: calls, self ns, and per key self ns and work."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.by_key: Dict[int, List[int]] = {}

    def add(self, self_ns: int, key: int, amount: int) -> None:
        self.calls += 1
        self.self_ns += self_ns
        slot = self.by_key.setdefault(key, [0, 0])
        slot[0] += self_ns
        slot[1] += amount

    def per_unit(self, keys: Optional[Iterable[int]] = None) -> float:
        """Self ns per unit of work over the given keys (all keys if None)."""
        slots = [s for k, s in self.by_key.items() if keys is None or k in keys]
        amount = sum(s[1] for s in slots)
        return sum(s[0] for s in slots) / amount if amount else 0.0

    @property
    def amount(self) -> int:
        return sum(s[1] for s in self.by_key.values())


def layer_totals(dumps: Iterable[dict]) -> Dict[str, _Layer]:
    """Fold the spans of several traced processes into per-name totals."""
    layers: Dict[str, _Layer] = {}
    for dump in dumps:
        spans = dump["spans"]
        child_ns = [0] * len(spans)
        for span in spans:
            if span[1] >= 0:
                child_ns[span[1]] += span[3] - span[2]
        for i, (name_id, _parent, t0, t1, key, amount) in enumerate(spans):
            layer = layers.setdefault(dump["names"][name_id], _Layer())
            layer.add(t1 - t0 - child_ns[i], key, amount)
    return layers


def layer_metrics(
    dumps: List[dict],
    report_bytes: int,
    wall_jobs1: float,
    wall_traced: float,
    wall_jobs_n: Optional[float],
    nproc: int,
) -> Dict[str, float]:
    """Every PER_LAYER metric for one traced iteration of a workload.

    ``wall_jobs_n`` is None for a workload that runs no pool; its pool
    metrics, like those of every layer the workload never enters, read 0.
    """
    layers = layer_totals(dumps)
    out: Dict[str, float] = {}

    def get(name: str) -> _Layer:
        return layers.get(name, _Layer())

    def basic(name: str, self_key: str = "s") -> _Layer:
        layer = get(name)
        out[f"{name}.calls"] = layer.calls
        out[f"{name}.{self_key}"] = layer.self_ns / 1e9
        return layer

    out["modring.make_context.ns_per_p"] = basic("modring.make_context").per_unit()
    basic("modring.reduce_rational")
    fam = basic("congruences.family_sum")
    out["congruences.family_sum.ns_per_term.e2"] = fam.per_unit((2,))
    out["congruences.family_sum.ns_per_term.e3"] = fam.per_unit((3,))
    core = basic("congruences.core_sum")
    for e in (1, 2, 3):
        out[f"congruences.core_sum.ns_per_term.e{e}"] = core.per_unit((e,))
    out["congruences.plain_sum.ns_per_term"] = basic("congruences.plain_sum").per_unit()
    check = basic("congruences.check", "self_s")
    out["congruences.check.us_per_record"] = check.per_unit() / 1e3
    leg = basic("legendre.legendre_square_at_sqrt")
    out["legendre.legendre_square_at_sqrt.ns_per_term"] = leg.per_unit()
    exact = basic("oracle.exact_reduce_sum")
    out["oracle.exact_reduce_sum.us_per_term"] = exact.per_unit() / 1e3
    out["oracle.lemma2_2.s"] = get("oracle.lemma2_2").self_ns / 1e9
    out["cli.primes_in_range.s"] = get("cli.primes_in_range").self_ns / 1e9
    sweep = get("cli.sweep")
    out["cli.sweep.self_s"] = sweep.self_ns / 1e9
    for writer in ("cli.write_jsonl", "cli.write_csv"):
        layer = get(writer)
        out[f"{writer}.s"] = layer.self_ns / 1e9
        out[f"{writer}.us_per_record"] = layer.per_unit() / 1e3
    out["cli.records"] = sweep.amount
    out["cli.report_bytes"] = report_bytes
    if wall_jobs_n:
        out["cli.pool.parallel_eff"] = wall_jobs1 / (nproc * wall_jobs_n)
        out["cli.pool.overhead_s"] = wall_jobs_n - wall_jobs1 / nproc
    else:
        out["cli.pool.parallel_eff"] = 0.0
        out["cli.pool.overhead_s"] = 0.0
    out["trace.overhead_frac"] = (wall_traced - wall_jobs1) / wall_jobs1
    return {name: out[name] for name, _unit, _better in PER_LAYER}


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# Traced child process

def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    spans_file, cli_args = argv[0], argv[2:]
    from supercong import cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        t0 = time.perf_counter()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
        # The parent subtracts the time spent writing spans from the wall.
        with open(spans_file + ".meta", "w", encoding="utf-8") as fh:
            json.dump({"dump_s": time.perf_counter() - t0}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
