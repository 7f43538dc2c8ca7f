"""Command-line front end: theorem checks over prime ranges, conjecture
exploration, exact-oracle runs, and JSONL/CSV report emission.

Every ``check`` id and the ``explore`` conjecture is a row of
``congruences.STATEMENTS``, which gives its parameters, exponent, smallest
prime and its series or cases; this module states none of them.  Whether a
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

Every record is encoded by one function, :func:`_encode`, a row at a time,
with no sort and no dict per record: a row fills the bytes %-format
template of its shape (theorem, parameter names, residue names, and the
slot that varies along the row), built once per process as UTF-8, with its
constants, then the text of its points with one flat tuple of its columns
(:func:`_points`).  The fields that depend only on a point's code,
2 * hypothesis + conclusion, are one slot per run of adjacent fields:
conclusion_holds to hypothesis_holds (with e) and the status in JSONL, the
hypothesis, conclusion and status fields in CSV.  That writes the bytes of
``json.dumps(record, sort_keys=True)`` and of ``csv.writer`` over the flat
projection, with strings escaped as json.dumps does (:func:`_json_str`,
which loads ``json`` only for a string that needs an escape); a string
that csv.writer would quote is refused.  A grid row
varies its argument at one prime; each prime gives JSONL and CSV bytes
with the status counts and first FAILED records; the caller adds up the
counts and writes the chunks in prime order to files opened in binary
mode, so report files are byte-identical regardless of --jobs, and JSONL
lines end in a bare line feed on every platform.  A case of a statement at
fixed arguments is a row along p, encoded a run of primes with or without
a residue at a time, and the cases' records interleave in report order
(:func:`_encode_fixed`); ``explore`` prints its summary from the sums.
Explicit parameters that do not apply at a prime give a row of one
vacuous point, with the given names and no residues.  Only the first
FAILED_SHOWN FAILED records become dicts (``congruences.record``), for the
summary.  Log lines go to stderr with no stdlib ``logging`` (:func:`_log`).

``oracle`` reads its target's row of ``oracle.TARGETS`` (size option,
bounds and run), checks the size and runs it.  Only that command imports
``oracle``, so ``check`` and ``explore`` never load it.

:func:`main` returns the exit code and leaves the collector as it found
it; the program entry, ``supercong.__main__.run``, freezes it after
``main`` returns, so that the process exits without collecting the module
cycles of its teardown.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, groupby, islice
from operator import add, attrgetter, itemgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import congruences as cg
from .errors import BoundExceeded, RangeError, SupercongError
from .modring import make_context, reduce_rational

# SUPERCONG_LOG's values, each with the levels it writes to stderr.
_LOG_LEVELS = {"quiet": (), "info": ("INFO",), "debug": ("INFO", "DEBUG")}

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
    not apply at p give no sums but one vacuous point, encoded as a row of
    the shape of the given names with no residues.
    """
    spec = cg.STATEMENTS[theorem]
    ctx = make_context(p, spec.e)
    *_, arg = spec.params
    shape = (theorem, *cg.record_names(theorem), arg)
    if exhaustive:
        axes = {n: sorted([(str(r), r) for r in range(p) if cg.applies(theorem, n, r, p)])
                for n in spec.params}
        rows = cg.points(theorem, ctx, axes)
    else:
        given = {n: params[n] for n in spec.params}
        if all(cg.applies(theorem, n, q, p) for n, q in given.items()):
            axes = {n: [(str(q), reduce_rational(q, ctx))] for n, q in given.items()}
            rows = cg.points(theorem, ctx, axes)
        else:
            # one vacuous point of the given names, with no residues
            *head, last = map(str, given.values())
            shape, axes = (theorem, tuple(given), (), arg), {arg: [(last, None)]}
            rows = [(tuple(head), [False], [True], ())]
    chunk = _encode(shape, p, spec.e, [s for s, _ in axes[arg]], rows, formats)
    _log("DEBUG", "p=%d: %d report(s) for %s", p, sum(chunk.counts.values()), theorem)
    return chunk


# The serial cost of a sweep: a record costs RECORD_S plus FORMAT_S per
# report format, a coefficient-row term ROW_TERM_S and a power of an
# argument POWER_S.  Fitted to 69 in-process runs of every statement with
# parameters, with 0, 1 and 2 formats (grids over 3..67 to 3..700, explicit
# parameters over 3..500 to 3..5000; 2-vCPU VM, CPython 3.11.7).  FORMAT_S
# is the bytes encoder's: the thm2.1 and thm2.3 grids over 3..67 and
# 3..131, min of 5 in-process runs, cost 0.32 to 0.74 us (median 0.38) per
# record and format with both formats over none.  On 84 runs (every such
# statement, grids over 3..67 and 3..131, explicit parameters over 3..500
# and 3..2000, 0 to 2 formats, min of 3) the model reads 0.37 to 1.96 times
# each run's time, median 0.84.
RECORD_S = 0.65e-6
FORMAT_S = 0.38e-6
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
    """Check one theorem over primes, its records encoded in ``formats``: one
    chunk per prime in ascending order, over the workers
    :func:`_resolve_jobs` gives for ``jobs`` (1: in this process), or, for a
    statement at fixed arguments, one chunk from one pass over the whole
    list."""
    spec = cg.STATEMENTS[theorem]
    qualifying = sorted(p for p in primes if p >= spec.min_p)
    if not spec.params:
        _log("INFO", "checking %s over %d prime(s) in one pass", theorem, len(qualifying))
        return [_encode_fixed(theorem, qualifying, cg.fixed_sums(theorem, qualifying), formats)]
    serial_s = _serial_s(theorem, qualifying, exhaustive, formats)
    jobs = _resolve_jobs(jobs, len(qualifying), serial_s)
    _log("INFO", "checking %s over %d prime(s) %s (serial estimate %.2f s)", theorem,
             len(qualifying), f"with {jobs} workers" if jobs > 1 else "in this process",
             serial_s)
    fn = partial(_reports_for_prime, theorem=theorem, params=params,
                 exhaustive=exhaustive, formats=formats)
    return _parallel_map(fn, qualifying, jobs)


def run_exploration(primes: Iterable[int]) -> List[Tuple[int, int]]:
    """remark2.3's sum mod p^3 at each qualifying prime (those in its
    class), as (p, residue) in ascending p.  No prime of its class divides
    its scale, so every one has a residue."""
    [(_, _, mod, classes)] = cg.STATEMENTS["remark2.3"].cases
    qualifying = sorted(p for p in primes if p % mod in classes)
    _log("INFO", "exploring remark2.3 over %d prime(s)", len(qualifying))
    [sums] = cg.fixed_sums("remark2.3", qualifying)
    return list(zip(qualifying, sums))


# ---------------------------------------------------------------------------
# Report encoding and writers

# FAILED records a summary prints, and so the most a chunk keeps.
FAILED_SHOWN = 5

# The parameter options of ``check``, in CSV column order.
_OPTIONS = ("a", "x", "m", "u")
_PARAM_COLUMNS = (*_OPTIONS, "family")
_CSV_COLUMNS = ("theorem", "p", "e", *_PARAM_COLUMNS, "hypothesis_holds",
                "conclusion_holds", "status", "residues")
# The header row as csv.writer writes it: no column name needs quoting.
_CSV_HEADER = (",".join(_CSV_COLUMNS) + "\r\n").encode()


def _json_str(s: str) -> str:
    """``s`` as ``json.dumps`` writes it (ensure_ascii).  A string of
    printable ASCII without ``"`` or ``\\``, every name and status the
    program writes, needs no escape; only another loads ``json``."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(s)


# A point's code, 2 * hypothesis + conclusion, indexes its status and the
# text of the fields that depend only on it: its status (JSONL), the run
# from conclusion_holds to hypothesis_holds, which holds e (JSONL, filled
# once per chunk), and the hypothesis, conclusion and status fields (CSV,
# whose booleans csv.writer writes as True and False).
_CODE_STATUS = tuple(s for row in cg.STATUS for s in row)
_JSON_STATUS = tuple(_json_str(s).encode() for s in _CODE_STATUS)
_JSON_CODE = b'%s, "e": %d, "hypothesis_holds": %s'
_JSON_BOOL = (b"false", b"true")
_CSV_CODE = tuple(f"{bool(h)},{bool(c)},{s}".encode()
                  for h, row in enumerate(cg.STATUS) for c, s in enumerate(row))
# A character that makes csv.writer quote a field, which encoding refuses.
_csv_quoted = re.compile('[,"\r\n]').search
_CSV_QUOTE_ERROR = "a CSV field holds a comma, a quote or a line break"
# The records of report text, each with its b"\n": "." matches every byte
# but b"\n", so no other byte a field holds splits a record.
_lines = re.compile(rb".*\n").findall


class Chunk(NamedTuple):
    """Records as report bytes: the count per status, the first FAILED_SHOWN
    FAILED records, and the JSONL lines and CSV rows (b"" if not asked
    for)."""

    counts: Counter
    failed: List[dict]
    jsonl: bytes
    csv: bytes


# A record shape: the theorem, the parameter and residue names in record
# order, and the slot that varies along its rows: the last parameter, or p.
Shape = Tuple[str, Tuple[str, ...], Tuple[str, ...], str]
# A shape's JSONL and CSV templates (CSV None if csv.writer would quote its
# theorem or a residue name), and the indices that put a row's constant
# parameters and its residues, in record order, in template order.
_Template = Tuple[bytes, Optional[bytes], List[int], List[int], List[int]]
# One template per shape: p and e are slots, so a sweep needs a few dozen
# however many primes it covers.  The entries are pure functions of their
# key, so every caller may share them.
_TEMPLATES: Dict[Shape, _Template] = {}


def _template(shape: Shape) -> _Template:
    """Build and keep the template of one record shape: the bytes of
    json.dumps(record, sort_keys=True) and of csv.writer over the flat
    projection, literal parts written once, as UTF-8, filled in two steps.

    A row's constants come first: p and the parameters but the one that
    varies, escaped and in name order (JSONL), or p, e and those in column
    order (CSV).  Along p, p's slot there takes the row's p (b"") as no
    text.  That leaves the text of one point, whose slots take the code's
    run from conclusion_holds to hypothesis_holds, the varying slot, the
    residues in name order and the code's escaped status (JSONL), or the
    varying slot, the code's hypothesis, conclusion and status fields and
    the residues (CSV).  A shape whose theorem or residue name csv.writer
    would quote has no CSV template."""
    theorem, params, residues, along = shape
    json_order = sorted(params)
    csv_order = [n for n in _PARAM_COLUMNS if n in params]
    residue_order = sorted(range(len(residues)), key=residues.__getitem__)

    def lit(text: str) -> str:  # a literal through both steps
        return text.replace("%", "%%%%")

    def slot(name: str, const: str = "%s") -> str:  # a row's constant, or a point's slot
        return "%.0s%%s" if name == along == "p" else "%%s" if name == along else const

    jsonl = "".join((
        '{"conclusion_holds": %%s, "p": ', slot("p", "%d"),
        ', "params": {', ", ".join(lit(_json_str(n)) + ": " + slot(n) for n in json_order),
        '}, "residues": {',
        ", ".join(lit(_json_str(residues[i])) + ": %%d" for i in residue_order),
        '}, "status": %%s, "theorem": ', lit(_json_str(theorem)), "}\n",
    ))
    # a varying parameter with no CSV column fills an empty slot
    csv_row = ",".join((
        lit(theorem), slot("p", "%d"), "%d",
        *(slot(n) if n in params else "" for n in _PARAM_COLUMNS),
        ("" if along in ("p", *_PARAM_COLUMNS) else "%%.0s") + "%%s",
        ";".join(lit(residues[i]) + "=%%d" for i in residue_order),
    )) + "\r\n" if not _csv_quoted("".join((theorem, *residues))) else None
    t = _TEMPLATES[shape] = (jsonl.encode(), csv_row and csv_row.encode(),
                             [params.index(n) for n in json_order if n != along],
                             [params.index(n) for n in csv_order if n != along], residue_order)
    return t


def _points(*columns: Sequence) -> tuple:
    """The values of equal-length columns point by point, as one flat tuple:
    each column is copied into its stride of one list."""
    n = len(columns)
    flat = [None] * (n * len(columns[0]))
    for i, column in enumerate(columns):
        flat[i::n] = column
    return tuple(flat)


def _encode(shape: Shape, p: Optional[int], e: int, args: Sequence[str], rows: Iterable[cg.Row],
            formats: Sequence[str]) -> Chunk:
    """The rows of one record shape at p (None along p), each at the strings
    ``args`` of its varying slot, encoded in ``formats`` ("jsonl", "csv"):
    the count per status, the first FAILED_SHOWN FAILED records, and the
    JSONL lines and CSV rows as bytes, in the order given.

    A row computes the code of each point, 2 * hypothesis + conclusion,
    once: its status counts are a Counter of the codes, and its FAILED
    points are those of code 2.  It fills its constants into its shape's
    template, repeats the text of one point once per arg and fills that
    with a single bytes ``%`` from one flat tuple of its columns
    (:func:`_points`), in which each code-dependent run of a record is one
    slot.  A JSONL line is the UTF-8 bytes of ``json.dumps(record,
    sort_keys=True)``; a CSV row is the bytes ``csv.writer`` writes for the
    flat projection.  A CSV field that csv.writer would quote (a comma,
    quote or line break) raises ValueError: the strings that vary, a row's
    head and the args, are checked here, and the names when the template
    is built.
    """
    theorem, _, _, along = shape
    jsonl, csv_row, json_head, csv_head, residue_order = (
        _TEMPLATES.get(shape) or _template(shape))
    as_jsonl, as_csv = "jsonl" in formats, "csv" in formats
    if as_csv and (csv_row is None or _csv_quoted("".join(args))):
        raise ValueError(_CSV_QUOTE_ERROR)
    if as_jsonl:
        json_code = [_JSON_CODE % (_JSON_BOOL[c], e, _JSON_BOOL[h])
                     for h in (0, 1) for c in (0, 1)]
        json_args = [a.encode() for a in (args if along == "p" else map(_json_str, args))]
    if as_csv:
        csv_args = [a.encode() for a in args]
    p_slot = b"" if p is None else p  # bytes %s refuses None
    counts: Counter = Counter()
    failed: List[dict] = []
    lines: List[bytes] = []
    csv_rows: List[bytes] = []
    for head, hypothesis, conclusion, residues in rows:
        if as_csv and _csv_quoted("".join(head)):
            raise ValueError(_CSV_QUOTE_ERROR)
        codes = list(map(add, map(add, hypothesis, hypothesis), conclusion))
        row_counts = Counter(codes)
        for code, n in row_counts.items():
            counts[_CODE_STATUS[code]] += n
        if len(failed) < FAILED_SHOWN and 2 in row_counts:
            for i in islice((i for i, c in enumerate(codes) if c == 2),
                            FAILED_SHOWN - len(failed)):
                q, params = (int(args[i]), head) if along == "p" else (p, (*head, args[i]))
                failed.append(cg.record(theorem, q, (params, True, False,
                                                     tuple(c[i] for c in residues))))
        head = [h.replace("%", "%%") for h in head]  # literal text in the template
        residues = list(map(residues.__getitem__, residue_order))
        if as_jsonl:
            text = jsonl % (p_slot, *[_json_str(head[i]).encode() for i in json_head])
            lines.append(text * len(args) % _points(
                [json_code[c] for c in codes], json_args, *residues,
                [_JSON_STATUS[c] for c in codes]))
        if as_csv:
            text = csv_row % (p_slot, e, *[head[i].encode() for i in csv_head])
            csv_rows.append(text * len(args) % _points(
                csv_args, [_CSV_CODE[c] for c in codes], *residues))
    return Chunk(counts, failed, b"".join(lines), b"".join(csv_rows))


def _encode_fixed(theorem: str, primes: Sequence[int],
                  sums: Sequence[Sequence[Optional[int]]], formats: Sequence[str]) -> Chunk:
    """The records of a statement at fixed arguments over ``primes``, from
    the sums of its cases (``congruences.fixed_sums``), encoded in
    ``formats`` in report order: per prime, one record per case.

    Each case (``congruences.fixed_columns``) is a row along the primes,
    which :func:`_encode` encodes one run of primes with a residue, or
    without one, at a time; the cases' records are then interleaved, and
    their FAILED records merged, in report order.
    """
    e = cg.STATEMENTS[theorem].e
    names, residue_names = cg.record_names(theorem)
    ps = list(map(str, primes))
    cases: List[List[Chunk]] = []
    for head, hypotheses, conclusions, (residues,) in cg.fixed_columns(theorem, primes, sums):
        cases.append([])
        for bare, run in groupby(zip(ps, hypotheses, conclusions, residues),
                                 lambda point: point[3] is None):
            args, h, c, r = zip(*run)
            cases[-1].append(_encode((theorem, names, () if bare else residue_names, "p"), None,
                                     e, args, [(head, h, c, () if bare else (r,))], formats))
    chunks = list(chain.from_iterable(cases))

    def interleave(text: Callable[[Chunk], bytes]) -> bytes:
        return b"".join(chain.from_iterable(zip(*(_lines(b"".join(map(text, runs)))
                                                 for runs in cases))))

    # each case's FAILED records come in prime order, cases in report order
    return Chunk(sum((c.counts for c in chunks), Counter()),
                 sorted((r for c in chunks for r in c.failed), key=itemgetter("p"))[:FAILED_SHOWN],
                 interleave(attrgetter("jsonl")), interleave(attrgetter("csv")))


def write_jsonl(chunks: Iterable[Chunk], path: str) -> None:
    with open(path, "wb") as fh:
        fh.writelines(c.jsonl for c in chunks)


def write_csv(chunks: Iterable[Chunk], path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER)
        fh.writelines(c.csv for c in chunks)


# ---------------------------------------------------------------------------
# Commands

def _cmd_check(args: argparse.Namespace) -> int:
    theorem = args.theorem
    given = {name: getattr(args, name) for name in _OPTIONS if getattr(args, name) is not None}
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
    pairs = run_exploration(primes_in_range(*args.primes))
    sums = [residue for _, residue in pairs]
    print(f"remark2.3: {sums.count(0)}/{len(sums)} qualifying prime(s) vanish mod p^3")
    for p, residue in pairs:
        if residue:
            print(f"  NON-VANISHING at p={p}: residue {residue} mod {p}^3")
    if args.out:
        write_jsonl([_encode_fixed("remark2.3", [p for p, _ in pairs], [sums], ("jsonl",))],
                    args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    # Imported here, so that check and explore do not load the oracles.
    from .oracle import TARGETS

    target = args.target
    option, least, default, cap, run, clean = TARGETS[target]
    given = {"--" + name.replace("_", "-"): value for name, value in vars(args).items()}
    unread = [other for other in dict.fromkeys(t.option for t in TARGETS.values())
              if other != option and given[other] is not None]
    if unread:
        print(f"error: {target} takes no {' '.join(unread)}", file=sys.stderr)
        return 2
    size = given[option]
    if size is None:
        size = default
    elif size < least:
        raise RangeError(f"{option} must be at least {least} for {target}, got {size}")
    elif size > cap:
        raise BoundExceeded(f"{option} must be at most {cap} for {target}, got {size}")
    failure = run(size)
    print(f"oracle {target}: {'MISMATCH' if failure else 'ok'} -- {failure or clean.format(size)}")
    return 1 if failure else 0


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
    for name in _OPTIONS:
        check.add_argument(f"--{name}", type=parse_rational, default=None)
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


def _log(level: str, message: str, *args: object) -> None:
    """Write the line ``LEVEL supercong: message % args`` to stderr if
    SUPERCONG_LOG turns LEVEL on, in one write, so that the lines of pool
    workers do not interleave."""
    if level in _LOG_LEVELS.get(os.environ.get("SUPERCONG_LOG", "quiet"), ()):
        sys.stderr.write(f"{level} supercong: {message % args}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = os.environ.get("SUPERCONG_LOG", "quiet")
    if raw not in _LOG_LEVELS:
        print(f"error: SUPERCONG_LOG must be one of {sorted(_LOG_LEVELS)}, got {raw!r}",
              file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SupercongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
