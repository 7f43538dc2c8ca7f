"""Command-line front end: theorem checks over prime ranges, conjecture
exploration, exact-oracle runs, and JSONL/CSV report emission.

Every ``check`` id and the ``explore`` conjecture is a row of
``congruences.STATEMENTS``, which gives its parameters, exponent, smallest
prime and its series or checker; this module states none of them.  Whether a
parameter applies at a prime is one rule, ``congruences.applies``: the
--exhaustive-am grid takes the residues that apply, and an explicit
parameter gives one vacuous record at a prime where it does not.  --primes
and --jobs are bounded; parameters a statement does not take, excluded
values and --exhaustive-am for a statement without parameters rejected; and
the oracle sizes checked, before any work starts.

A statement at fixed arguments (eq1.2, cor2.3, remark2.3) runs once over
the whole prime list in this process.  Every other statement runs prime by
prime: each prime builds one context and the parameter axes, sorted by
string, and the --exhaustive-am grid and explicit parameters, a grid of one
point, run the same path.  Without --jobs the sweep runs in this process,
with no pool, unless its serial time, estimated from the statement and the
primes alone (:func:`_serial_s`), pays for starting one; a pool, at the
default or at --jobs N, takes the primes largest first.
``congruences.points`` sums each series of the grid once, at its whole
argument vector in one packed pass, and yields the grid row by row.

Records are encoded where they are computed, a row at a time, with no sort
and no dict per record (:func:`_encode`): a row fills the %-format template
of its shape (theorem, parameter names, residue names), built once per
process, with its constants, then the text of its points with one flat
tuple of its columns.  That writes the bytes of ``json.dumps(record,
sort_keys=True)`` and of ``csv.writer`` over the flat projection; a string
that csv.writer would quote is refused.  Each prime gives JSONL and CSV
text with the status counts and first FAILED records; the caller adds up
the counts and writes the chunks in prime order, so report files are
byte-identical regardless of --jobs.  Dict records (a statement at fixed
arguments, remark2.3, and the vacuous record of explicit parameters that
do not apply) are sorted and encoded as rows of one point
(:func:`encode`).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from operator import getitem, methodcaller
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import congruences as cg
from . import oracle
from .errors import BoundExceeded, RangeError, SupercongError
from .modring import make_context, reduce_rational

log = logging.getLogger("supercong")

_LOG_LEVELS = {
    "quiet": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# Largest --primes upper bound; the sieve allocates hi + 1 bytes.
PRIME_RANGE_MAX = 10**7


def primes_in_range(lo: int, hi: int) -> List[int]:
    """Odd primes in [lo, hi], by sieve."""
    if hi < 3:
        return []
    sieve = bytearray((1,)) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, hi + 1, i)))
    start = max(lo, 3)
    return [n for n in range(start, hi + 1) if sieve[n]]


def parse_rational(text: str) -> Fraction:
    """CLI rationals: optional sign, "num/den" or a bare integer, with a
    nonzero denominator."""
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(f"not a rational 'num/den': {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None


def parse_prime_range(text: str) -> Tuple[int, int]:
    """Inclusive prime range "lo..hi"."""
    m = re.match(r"^(\d+)\.\.(\d+)$", text)
    if not m:
        raise argparse.ArgumentTypeError(f"not a range 'lo..hi': {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    if hi > PRIME_RANGE_MAX:
        raise argparse.ArgumentTypeError(
            f"upper bound {hi} exceeds the sieve limit {PRIME_RANGE_MAX}"
        )
    return lo, hi


def parse_size(text: str, least: int = 0) -> int:
    """An integer size of at least ``least``."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
    return n


# ---------------------------------------------------------------------------
# Per-prime runners

def _reports_for_prime(
    p: int,
    theorem: str,
    params: Optional[Dict[str, Fraction]],
    exhaustive: bool,
    formats: Sequence[str] = (),
) -> Chunk:
    """All records for one theorem at one prime, encoded in ``formats``.

    The grid and explicit parameters are one path: the axes, built once,
    hold the residues that apply (grid) or the one given value (explicit),
    and :func:`congruences.points` sums every series of the statement at
    its whole argument vector on one context.  Explicit parameters that do
    not apply at p give one vacuous record and no sums.
    """
    spec = cg.STATEMENTS[theorem]
    ctx = make_context(p, spec.e)
    if exhaustive:
        axes = {n: sorted([(str(r), r) for r in range(p) if cg.applies(theorem, n, r, p)])
                for n in spec.params}
    else:
        given = {n: params[n] for n in spec.params}
        vacuous = cg.inapplicable(theorem, p, given)
        if vacuous:
            return encode([vacuous], formats)
        axes = {n: [(cg.format_rational(q), reduce_rational(q, ctx))] for n, q in given.items()}
    *_, arg = spec.params
    counts: Counter = Counter()
    failed, jsonl, csv_text = _encode((theorem, *cg.record_names(theorem)), p, spec.e,
                                      [s for s, _ in axes[arg]], cg.points(theorem, ctx, axes),
                                      formats, counts)
    log.debug("p=%d: %d report(s) for %s", p, sum(counts.values()), theorem)
    return Chunk(counts, [cg.record(theorem, p, pt) for pt in failed], jsonl, csv_text)


# The serial cost of a sweep: a record costs RECORD_S plus FORMAT_S per
# report format, a coefficient-row term ROW_TERM_S and a power of an
# argument POWER_S.  Fitted to 69 in-process runs of every statement with
# parameters, with 0, 1 and 2 formats (grids over 3..67 to 3..700, explicit
# parameters over 3..500 to 3..5000; 2-vCPU VM, CPython 3.11.7), the model
# reads 0.4 to 1.6 times each run's time, the low end on runs under 0.1 s.
RECORD_S = 0.65e-6
FORMAT_S = 0.9e-6
ROW_TERM_S = 0.22e-6
POWER_S = 0.05e-6
# The estimated serial seconds above which a worker pool pays for itself:
# starting one costs about 45 ms, and two workers on two cores save at most
# 25-35 % of the serial time.
POOL_BREAK_EVEN_S = 0.2


def _serial_s(theorem: str, primes: Sequence[int], exhaustive: bool,
              formats: Sequence[str]) -> float:
    """Estimated seconds of a sweep in one process, from the statement's row
    and the primes alone.  At p, a grid has s spec-axis values (p for a, the
    families, or one) by a arguments (the residues that are not excluded,
    or the one given value), so s * a records; each of its n series has a
    coefficient row of about p terms per spec-axis value, and p powers of
    each argument."""
    row = cg.STATEMENTS[theorem]
    series = row.series
    *_, excluded = row.params.values()
    # the series of one spec-axis value
    n = len(series.specs(0 if series.spec == "a" else series.values[0][1], row.min_p))
    record_s = RECORD_S + FORMAT_S * len(formats)
    total = 0.0
    for p in primes:
        s = p if exhaustive and series.spec == "a" else len(series.values)
        a = p - len(excluded) if exhaustive else 1
        total += s * a * record_s + n * p * (s * ROW_TERM_S + a * POWER_S)
    return total


def _resolve_jobs(jobs: Optional[int], n_items: int, serial_s: float = float("inf")) -> int:
    """Worker count: the request, at most the core count and the number of
    items, at least 1.  Without a request, all cores if the estimated serial
    seconds exceed POOL_BREAK_EVEN_S, else 1: the sweep runs in this process
    with no pool."""
    cores = os.cpu_count() or 1
    if jobs is None:
        jobs = cores if serial_s > POOL_BREAK_EVEN_S else 1
    return max(1, min(jobs, cores, n_items))


def _parallel_map(fn, items: Sequence, jobs: int) -> list:
    """fn of each item, in item order, over ``jobs`` worker processes; the
    cost of an item grows along the list (ascending primes)."""
    if jobs <= 1:
        return [fn(item) for item in items]
    # The pool takes the last, largest items first, so that no worker ends
    # the run alone on them; small chunks keep the tail balanced.
    chunk = max(1, min(32, len(items) // (8 * jobs)))
    # Imported here: it loads multiprocessing, which a run that never forks
    # should not pay for at start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items[::-1], chunksize=chunk))[::-1]


def run_checks(
    theorem: str,
    primes: Iterable[int],
    params: Optional[Dict[str, Fraction]] = None,
    exhaustive: bool = False,
    jobs: Optional[int] = None,
    formats: Sequence[str] = (),
) -> List[Chunk]:
    """Run one theorem's checker over primes, encoded in ``formats``: one
    chunk per prime in ascending order, over the workers
    :func:`_resolve_jobs` gives for ``jobs`` (1: in this process), or, for a
    statement at fixed arguments, one chunk from one pass over the whole
    list."""
    spec = cg.STATEMENTS[theorem]
    qualifying = sorted(p for p in primes if p >= spec.min_p)
    if not spec.params:
        log.info("checking %s over %d prime(s) in one pass", theorem, len(qualifying))
        return [encode(spec.check(qualifying), formats)]
    serial_s = _serial_s(theorem, qualifying, exhaustive, formats)
    jobs = _resolve_jobs(jobs, len(qualifying), serial_s)
    log.info("checking %s over %d prime(s) %s (serial estimate %.2f s)", theorem,
             len(qualifying), f"with {jobs} workers" if jobs > 1 else "in this process",
             serial_s)
    fn = partial(_reports_for_prime, theorem=theorem, params=params,
                 exhaustive=exhaustive, formats=formats)
    return _parallel_map(fn, qualifying, jobs)


def run_exploration(primes: Iterable[int]) -> List[dict]:
    """remark2.3 records over the qualifying primes (those in its class), in
    ascending p."""
    [(_, _, mod, classes)] = cg.STATEMENTS["remark2.3"].cases
    qualifying = sorted(p for p in primes if p % mod in classes)
    log.info("exploring remark2.3 over %d prime(s)", len(qualifying))
    return cg.explore_remark_2_3(qualifying)


# ---------------------------------------------------------------------------
# Report encoding and writers

# FAILED records a summary prints, and so the most a chunk keeps.
FAILED_SHOWN = 5

_PARAM_COLUMNS = ("a", "x", "m", "u", "family")
_CSV_COLUMNS = ("theorem", "p", "e", *_PARAM_COLUMNS, "hypothesis_holds",
                "conclusion_holds", "status", "residues")

# The string escape json.dumps applies (ensure_ascii).
_json_str = json.encoder.encode_basestring_ascii
_JSON_BOOL = ("false", "true")
_JSON_STATUS = {s: _json_str(s) for row in cg.STATUS for s in row}
# A value written into a template as literal text.
_literal = methodcaller("replace", "%", "%%")
# A character that makes csv.writer quote a field, which encoding refuses.
_csv_quoted = re.compile('[,"\r\n]').search
_CSV_QUOTE_ERROR = "a CSV field holds a comma, a quote or a line break"


class Chunk(NamedTuple):
    """Records as report text: the count per status, the first FAILED_SHOWN
    FAILED records, and the JSONL lines and CSV rows ("" if not asked for)."""

    counts: Counter
    failed: List[dict]
    jsonl: str
    csv: str


# A record shape's JSONL and CSV templates (None if csv.writer would quote
# its theorem or a residue name), and the indices that put the parameters
# and residues of a row, in record order, in template order.
_Template = Tuple[str, Optional[str], List[int], List[int], List[int]]
# One template per (theorem, parameter names, residue names), names in
# record order: p and e are slots, so a sweep needs a few dozen however many
# primes it covers.  The entries are pure functions of their key, so every
# caller may share them.
_TEMPLATES: Dict[Tuple[str, Tuple[str, ...], Tuple[str, ...]], _Template] = {}


def _template(shape: Tuple[str, Tuple[str, ...], Tuple[str, ...]]) -> _Template:
    """Build and keep the template of one record shape: the bytes of
    json.dumps(record, sort_keys=True) and of csv.writer over the flat
    projection, literal parts written once, filled in two steps.

    The last parameter is the argument, which varies along a row.  A row's
    constants come first: e, p and the other parameters, escaped and in name
    order (JSONL), or p, e and those in column order (CSV).  That leaves the
    text of one point, whose slots take the two booleans as JSON, the
    escaped argument, the residues in name order and the escaped status
    (JSONL), or the argument, the two booleans, the status and the residues
    (CSV).  A shape whose theorem or residue name csv.writer would quote
    has no CSV template."""
    theorem, params, residues = shape
    arg = params[-1]
    json_order = sorted(params)
    csv_order = [n for n in _PARAM_COLUMNS if n in params]
    residue_order = sorted(range(len(residues)), key=residues.__getitem__)

    def lit(text: str) -> str:  # a literal through both steps
        return text.replace("%", "%%%%")

    def slot(name: str) -> str:  # a row's constant, or the point's argument
        return "%%s" if name == arg else "%s"

    jsonl = "".join((
        '{"conclusion_holds": %%s, "e": %d, "hypothesis_holds": %%s, "p": %d, "params": {',
        ", ".join(lit(_json_str(n)) + ": " + slot(n) for n in json_order),
        '}, "residues": {',
        ", ".join(lit(_json_str(residues[i])) + ": %%d" for i in residue_order),
        '}, "status": %%s, "theorem": ', lit(_json_str(theorem)), "}\n",
    ))
    # an argument with no CSV column fills an empty slot
    csv_row = ",".join((
        lit(theorem), "%d", "%d", *(slot(n) if n in params else "" for n in _PARAM_COLUMNS),
        ("" if arg in _PARAM_COLUMNS else "%%.0s") + "%%s", "%%s", "%%s",
        ";".join(lit(residues[i]) + "=%%d" for i in residue_order),
    )) + "\r\n" if not _csv_quoted("".join((theorem, *residues))) else None
    t = _TEMPLATES[shape] = (jsonl, csv_row, [params.index(n) for n in json_order if n != arg],
                             [params.index(n) for n in csv_order if n != arg], residue_order)
    return t


def _encode(shape: Tuple[str, Tuple[str, ...], Tuple[str, ...]], p: int, e: int,
            args: Sequence[str], rows: Iterable[cg.Row], formats: Sequence[str],
            counts: Counter) -> Tuple[List[cg.Point], str, str]:
    """The rows of one record shape at p, each at the argument strings
    ``args``, encoded in ``formats`` ("jsonl", "csv"), their statuses
    added to ``counts``: the first FAILED_SHOWN FAILED points, and the
    JSONL lines and CSV rows, in the order given.

    A row fills its constants into its shape's template, repeats the text
    of one point once per argument and fills that with a single ``%`` from
    one flat tuple of its columns.  A JSONL line is the bytes of
    ``json.dumps(record, sort_keys=True)``; a CSV row is the bytes
    ``csv.writer`` writes for the flat projection.  A CSV field that
    csv.writer would quote (a comma, quote or line break) raises
    ValueError: the strings that vary, a row's head and the arguments, are
    checked here, and the names when the template is built.
    """
    jsonl, csv_row, json_head, csv_head, residue_order = (
        _TEMPLATES.get(shape) or _template(shape))
    as_csv = "csv" in formats
    if as_csv and (csv_row is None or _csv_quoted("".join(args))):
        raise ValueError(_CSV_QUOTE_ERROR)
    json_args = list(map(_json_str, args))
    failed: List[cg.Point] = []
    lines: List[str] = []
    csv_rows: List[str] = []
    for head, hypothesis, conclusion, residues in rows:
        if as_csv and _csv_quoted("".join(head)):
            raise ValueError(_CSV_QUOTE_ERROR)
        statuses = list(map(getitem, map(cg.STATUS.__getitem__, hypothesis), conclusion))
        counts.update(statuses)
        if len(failed) < FAILED_SHOWN and "FAILED" in statuses:
            failed += islice((((*head, args[i]), True, False, tuple(c[i] for c in residues))
                              for i, s in enumerate(statuses) if s == "FAILED"),
                             FAILED_SHOWN - len(failed))
        head = list(map(_literal, head))
        residues = list(map(residues.__getitem__, residue_order))
        if "jsonl" in formats:
            text = jsonl % (e, p, *map(_json_str, map(head.__getitem__, json_head)))
            lines.append(text * len(args) % tuple(chain.from_iterable(zip(
                map(_JSON_BOOL.__getitem__, conclusion), map(_JSON_BOOL.__getitem__, hypothesis),
                json_args, *residues, map(_JSON_STATUS.__getitem__, statuses)))))
        if as_csv:
            text = csv_row % (p, e, *map(head.__getitem__, csv_head))
            csv_rows.append(text * len(args) % tuple(chain.from_iterable(zip(
                args, hypothesis, conclusion, statuses, *residues))))
    return failed, "".join(lines), "".join(csv_rows)


def encode(records: List[dict], formats: Sequence[str] = ()) -> Chunk:
    """Sort records into report order, in place: p, theorem, then the
    parameters as (name, string) pairs, so "10" comes before "2".  Encode
    them in each of ``formats``, each as a row of one point of its shape."""
    records.sort(key=lambda d: (d["p"], d["theorem"], tuple(sorted(d["params"].items()))))
    counts: Counter = Counter()
    lines: List[str] = []
    rows: List[str] = []
    for r in records:
        params, residues = r["params"], r["residues"]
        *head, arg = params.values()
        _, jsonl, csv_text = _encode(
            (r["theorem"], tuple(params), tuple(residues)), r["p"], r["e"], (arg,),
            [(head, [r["hypothesis_holds"]], [r["conclusion_holds"]],
              [(v,) for v in residues.values()])], formats, counts)
        lines.append(jsonl)
        rows.append(csv_text)
    failed = list(islice((r for r in records if r["status"] == "FAILED"), FAILED_SHOWN))
    return Chunk(counts, failed, "".join(lines), "".join(rows))


def write_jsonl(chunks: Iterable[Chunk], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(c.jsonl for c in chunks)


def write_csv(chunks: Iterable[Chunk], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(_CSV_COLUMNS)
        fh.writelines(c.csv for c in chunks)


# ---------------------------------------------------------------------------
# Commands

def _cmd_check(args: argparse.Namespace) -> int:
    theorem = args.theorem
    given = {
        name: value
        for name, value in (("a", args.a), ("x", args.x), ("m", args.m), ("u", args.u))
        if value is not None
    }
    needed = cg.STATEMENTS[theorem].params
    unused = [n for n in given if n not in needed]
    if args.exhaustive_am and not needed:
        unused.append("exhaustive-am")
    if unused:
        print(f"error: {theorem} takes no --{' --'.join(unused)}", file=sys.stderr)
        return 2
    for name, value in given.items():
        if value in needed[name]:
            print(f"error: {theorem} excludes --{name} {value} at every prime", file=sys.stderr)
            return 2
    missing = [n for n in needed if n not in given]
    if missing and not args.exhaustive_am:
        print(f"error: {theorem} needs --{' --'.join(missing)} (or --exhaustive-am)",
              file=sys.stderr)
        return 2
    if args.exhaustive_am and given:
        print(
            "error: --exhaustive-am and explicit parameters are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    primes = primes_in_range(*args.primes)
    chunks = run_checks(
        theorem,
        primes,
        params=given or None,
        exhaustive=args.exhaustive_am,
        jobs=args.jobs,
        formats=[f for f, path in (("jsonl", args.out), ("csv", args.csv)) if path],
    )
    counts: Counter = Counter()
    for c in chunks:
        counts.update(c.counts)
    print(
        f"{theorem}: {sum(counts.values())} check(s) over {len(primes)} prime(s) -- "
        f"verified {counts['verified']}, vacuous {counts['vacuous']}, "
        f"FAILED {counts['FAILED']}"
    )
    for r in [r for c in chunks for r in c.failed][:FAILED_SHOWN]:
        print(f"  FAILED: p={r['p']} params={r['params']} residues={r['residues']}")
    if args.out:
        write_jsonl(chunks, args.out)
        print(f"wrote {args.out}")
    if args.csv:
        write_csv(chunks, args.csv)
        print(f"wrote {args.csv}")
    return 1 if counts["FAILED"] else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    primes = primes_in_range(*args.primes)
    reports = run_exploration(primes)
    vanishing = sum(1 for r in reports if r["residues"]["sum_mod_p3"] == 0)
    print(
        f"remark2.3: {vanishing}/{len(reports)} qualifying prime(s) vanish mod p^3"
    )
    for r in reports:
        if r["residues"]["sum_mod_p3"] != 0:
            print(
                f"  NON-VANISHING at p={r['p']}: "
                f"residue {r['residues']['sum_mod_p3']} mod {r['p']}^3"
            )
    if args.out:
        write_jsonl([encode(reports, ("jsonl",))], args.out)
        print(f"wrote {args.out}")
    return 0


# Per oracle target: the size option it reads, its minimum, its default and
# its cap.  The other size options are rejected.  reduce-equivalence starts
# at p = 3, so a smaller --p-max would compare nothing.
_ORACLE_SIZES = {
    "lemma2.1": ("n_max", 0, oracle.LEMMA_2_1_BOUND, oracle.LEMMA_2_1_BOUND),
    "lemma2.2": ("n_max", 0, oracle.LEMMA_2_2_BOUND, oracle.LEMMA_2_2_BOUND),
    "eq1.7": ("k_max", 0, oracle.IDENTITY_1_7_BOUND, oracle.IDENTITY_1_7_BOUND),
    "reduce-equivalence": ("p_max", 3, 97, oracle.REDUCE_P_BOUND),
}


def _oracle_size(target: str, args: argparse.Namespace) -> int:
    """The target's size: the user's, checked against the minimum and the
    cap, or the default."""
    name, least, default, cap = _ORACLE_SIZES[target]
    size = getattr(args, name)
    if size is None:
        return default
    flag = "--" + name.replace("_", "-")
    if size < least:
        raise RangeError(f"{flag} must be at least {least} for {target}, got {size}")
    if size > cap:
        raise BoundExceeded(f"{flag} must be at most {cap} for {target}, got {size}")
    return size


def _run_oracle_target(target: str, args: argparse.Namespace) -> Tuple[bool, str]:
    if target == "lemma2.1":
        n_max = _oracle_size(target, args)
        for n in range(n_max + 1):
            if not oracle.lemma_2_1_exact_check(n):
                return False, f"squared-value expansion differs at n={n}"
        return True, f"squared-value expansion exact for all n <= {n_max}"
    if target == "lemma2.2":
        n_max = _oracle_size(target, args)
        failure = oracle.lemma_2_2_check(n_max)
        return failure is None, failure or f"identity and certificate exact for all n <= {n_max}"
    if target == "eq1.7":
        k_max = _oracle_size(target, args)
        for k in range(k_max + 1):
            if not oracle.identity_1_7_check(k):
                return False, f"dictionary equality fails at k={k}"
        return True, f"dictionary exact for all k <= {k_max}"
    if target == "reduce-equivalence":
        p_max = _oracle_size(target, args)
        primes = primes_in_range(3, p_max)
        # (a, which, the modular sum at (x, ctx), its name, a in a mismatch)
        series = [(0, f, partial(cg.family_sum, f), f"family {f.label}", "")
                  for f in cg.FamilyTag]
        series += [(a, which, partial(fn, a), which, f" a={a}")
                   for a in oracle.GRID_A
                   for which, fn in (("core", cg.core_sum), ("plain", cg.plain_sum))]
        cases = [(x, modular, name, at_a, oracle.exact_reduce_sums(a, x, which, primes, 3))
                 for x in oracle.GRID_X for a, which, modular, name, at_a in series]
        # each context, and the rows it caches, lives for one (p, e)
        for p in primes:
            for e in (1, 2, 3):
                ctx = make_context(p, e)
                for x, modular, name, at_a, exact in cases:
                    if p in exact and modular(x, ctx) != exact[p] % ctx.modulus:
                        return False, f"{name} differs at p={p} e={e}{at_a} x={x}"
        return True, f"modular pipeline matches exact reduction for all p <= {p_max}"
    raise ValueError(f"unknown oracle target {target!r}")


def _cmd_oracle(args: argparse.Namespace) -> int:
    read = _ORACLE_SIZES[args.target][0]
    unread = [
        "--" + name.replace("_", "-")
        for name in dict.fromkeys(size[0] for size in _ORACLE_SIZES.values())
        if name != read and getattr(args, name) is not None
    ]
    if unread:
        print(f"error: {args.target} takes no {' '.join(unread)}", file=sys.stderr)
        return 2
    ok, message = _run_oracle_target(args.target, args)
    print(f"oracle {args.target}: {'ok' if ok else 'MISMATCH'} -- {message}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Verify binomial-sum supercongruences mod p^2 and p^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a theorem checker over a prime range")
    check.add_argument("theorem", choices=[t for t in cg.STATEMENTS if t != "remark2.3"])
    check.add_argument("--primes", type=parse_prime_range, required=True,
                       metavar="LO..HI")
    check.add_argument("--a", type=parse_rational, default=None)
    check.add_argument("--x", type=parse_rational, default=None)
    check.add_argument("--m", type=parse_rational, default=None)
    check.add_argument("--u", type=parse_rational, default=None)
    check.add_argument("--exhaustive-am", action="store_true",
                       help="sweep the full integer parameter grid per prime")
    check.add_argument("--jobs", type=partial(parse_size, least=1), default=None,
                       help="at most this many worker processes over primes (default: "
                            "all cores when the estimated work pays for a pool, else "
                            "none); eq1.2 and cor2.3 run in one pass in this process")
    check.add_argument("--out", default=None, help="JSONL output path")
    check.add_argument("--csv", default=None, help="CSV output path")
    check.set_defaults(func=_cmd_check)

    explore = sub.add_parser("explore", help="record conjecture residues")
    explore.add_argument("conjecture", choices=("remark2.3",))
    explore.add_argument("--primes", type=parse_prime_range, required=True,
                         metavar="LO..HI")
    explore.add_argument("--jobs", type=partial(parse_size, least=1), default=None,
                         help="accepted; the sweep is one pass in this process")
    explore.add_argument("--out", default=None, help="JSONL output path")
    explore.set_defaults(func=_cmd_explore)

    orc = sub.add_parser("oracle", help="run an exact-arithmetic oracle suite")
    orc.add_argument(
        "target",
        choices=("lemma2.1", "lemma2.2", "eq1.7", "reduce-equivalence"),
    )
    orc.add_argument("--n-max", type=parse_size, default=None)
    orc.add_argument("--k-max", type=parse_size, default=None)
    orc.add_argument("--p-max", type=parse_size, default=None)
    orc.set_defaults(func=_cmd_oracle)

    return parser


def _configure_logging() -> bool:
    raw = os.environ.get("SUPERCONG_LOG", "quiet")
    level = _LOG_LEVELS.get(raw)
    if level is None:
        print(
            f"error: SUPERCONG_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}",
            file=sys.stderr,
        )
        return False
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    log.setLevel(level)
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not _configure_logging():
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SupercongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
