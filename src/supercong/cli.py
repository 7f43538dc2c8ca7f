"""Command-line front end: theorem checks over prime ranges, conjecture
exploration, exact-oracle runs, and JSONL/CSV report emission.

Every ``check`` id and the ``explore`` conjecture is a row of
``congruences.STATEMENTS``, which gives its parameters, exponent, smallest
prime and checker call; this module states none of them.  Whether a
parameter applies at a prime is one rule, ``congruences.applies``: the
--exhaustive-am grid takes the residues that apply, and an explicit
parameter gives one vacuous record at a prime where it does not.  --primes
and --jobs are bounded; parameters a statement does not take, excluded
values and --exhaustive-am for a statement without parameters rejected; and
the oracle sizes checked, before any work starts.

A statement at fixed arguments (eq1.2, cor2.3, remark2.3, the family sweep)
runs once over the whole prime list in this process.  Every other statement
is distributed over primes: each worker owns its context.  A two-parameter
--exhaustive-am grid runs its checker at every point on one GridContext per
prime, which evaluates each sum from cached coefficient and power rows;
one-parameter grids and explicit parameters run on a plain PrimeContext.

Records are encoded where they are computed (:func:`encode`): each worker
sorts its prime's records by (theorem, parameters), the parameters compared
as strings, and returns them as JSONL and CSV text with their status counts
and first FAILED records.  A record fills the %-format template of its
shape (theorem, parameter names, residue names), built once per process,
which writes the bytes of ``json.dumps(record, sort_keys=True)`` and of
``csv.writer`` over the flat projection.  The parent adds up the counts
and writes the chunks in prime order, so report files are byte-identical
regardless of --jobs.  A statement at fixed arguments and remark2.3 go through the same
encoder in this process.
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
from itertools import islice, product
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import congruences as cg
from . import oracle
from .errors import BoundExceeded, RangeError, SupercongError
from .modring import GridContext, PrimeContext, make_context

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

    The grid runs the same checker as explicit parameters.  A grid over two
    parameters runs on one GridContext, so each sum is a dot product of rows
    shared by the grid.  In a one-parameter grid each argument serves one
    point, so a power row would cost more than the streaming sum and keep
    O(p) memory per point; it runs on a plain context.
    Explicit parameters that do not apply at p give one vacuous record and
    no checker call; the grid leaves out the residues that do not apply.
    """
    spec = cg.STATEMENTS[theorem]
    if exhaustive:
        axes = [[r for r in range(p) if cg.applies(theorem, n, r, p)] for n in spec.params]
        ctx = (GridContext if len(axes) > 1 else make_context)(p, spec.e)
        points = product(*axes)
    else:
        given = {n: params[n] for n in spec.params}
        vacuous = cg.inapplicable(theorem, p, given)
        if vacuous:
            return encode([vacuous], formats)
        ctx = make_context(p, spec.e)
        points = (tuple(given.values()),)
    records = [r for point in points for r in spec.check(ctx, *point)]
    log.debug("p=%d: %d report(s) for %s", p, len(records), theorem)
    return encode(records, formats)


def _resolve_jobs(jobs: Optional[int], n_items: int) -> int:
    """Worker count: the request (default all cores), at most the core count
    and the number of items, at least 1."""
    cores = os.cpu_count() or 1
    if jobs is None:
        jobs = cores
    return max(1, min(jobs, cores, n_items))


def _parallel_map(fn, items: Sequence, jobs: int) -> list:
    if jobs <= 1:
        return [fn(item) for item in items]
    # Small contiguous chunks keep the workers balanced when per-item cost
    # grows along the list (larger primes later); map returns the results in
    # item order.
    chunk = max(1, min(32, len(items) // (8 * jobs)))
    # Imported here: it loads multiprocessing, which a run that never forks
    # should not pay for at start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def run_checks(
    theorem: str,
    primes: Iterable[int],
    params: Optional[Dict[str, Fraction]] = None,
    exhaustive: bool = False,
    jobs: Optional[int] = None,
    formats: Sequence[str] = (),
) -> List[Chunk]:
    """Run one theorem's checker over primes, encoded in ``formats``: one
    chunk per prime in ascending order, in parallel over ``jobs`` workers,
    or, for a statement at fixed arguments, one chunk from one pass over
    the whole list."""
    spec = cg.STATEMENTS[theorem]
    qualifying = sorted(p for p in primes if p >= spec.min_p)
    if not spec.params:
        log.info("checking %s over %d prime(s) in one pass", theorem, len(qualifying))
        return [encode(spec.check(qualifying), formats)]
    jobs = _resolve_jobs(jobs, len(qualifying))
    log.info("checking %s over %d prime(s) with %d job(s)", theorem, len(qualifying), jobs)
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


def sweep_family(
    tag: cg.FamilyTag,
    x: Fraction,
    primes: Iterable[int],
    e: int = 2,
) -> List[Tuple[int, Optional[int]]]:
    """One family sum at fixed x for every prime; (p, residue) pairs in
    ascending p.

    The residue is None at a prime dividing the denominator of x.
    """
    primes = sorted(primes)
    sums = cg.family_sums(tag, x, primes, e)
    return [(p, sums.get(p)) for p in primes]


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


class Chunk(NamedTuple):
    """Records as report text: the count per status, the first FAILED_SHOWN
    FAILED records, and the JSONL lines and CSV rows ("" if not asked for)."""

    counts: Counter
    failed: List[dict]
    jsonl: str
    csv: str


def _values(names: Tuple[str, ...]) -> Callable[[dict], tuple]:
    """A function from a dict to the tuple of its values at ``names``."""
    if len(names) == 1:
        name = names[0]
        return lambda d: (d[name],)
    return itemgetter(*names) if names else lambda d: ()


class _Template(NamedTuple):
    """The report text of one record shape, with %-slots for its fields.

    ``jsonl`` takes the two booleans as JSON, e, p, the escaped parameters
    in name order, the residues in name order and the escaped status;
    ``csv`` takes p, e, the parameters in column order, the two booleans,
    the status and the residues.  The getters pick those values out of a
    record's ``params`` and ``residues``.
    """

    jsonl: str
    csv: str
    json_params: Callable[[dict], tuple]
    csv_params: Callable[[dict], tuple]
    residues: Callable[[dict], tuple]


# One template per (theorem, parameter names, residue names): p and e are
# slots, so a sweep needs a few dozen however many primes it covers.  The
# entries are pure functions of their key, so every caller may share them.
_TEMPLATES: Dict[Tuple[str, Tuple[str, ...], Tuple[str, ...]], _Template] = {}


def _template(shape: Tuple[str, Tuple[str, ...], Tuple[str, ...]]) -> _Template:
    """Build and keep the template of one record shape: the bytes of
    json.dumps(record, sort_keys=True) and of csv.writer over the flat
    projection, literal parts written once."""
    theorem, params, residues = shape
    residues = tuple(sorted(residues))
    json_params = tuple(sorted(params))
    csv_params = tuple(n for n in _PARAM_COLUMNS if n in params)

    def lit(text: str) -> str:
        return text.replace("%", "%%")

    jsonl = "".join((
        '{"conclusion_holds": %s, "e": %d, "hypothesis_holds": %s, "p": %d, "params": {',
        ", ".join(lit(_json_str(n)) + ": %s" for n in json_params),
        '}, "residues": {',
        ", ".join(lit(_json_str(n)) + ": %d" for n in residues),
        '}, "status": %s, "theorem": ', lit(_json_str(theorem)), "}\n",
    ))
    csv_row = ",".join((
        lit(theorem), "%d", "%d", *("%s" if n in params else "" for n in _PARAM_COLUMNS),
        "%s", "%s", "%s", ";".join(lit(n) + "=%d" for n in residues),
    )) + "\r\n"
    t = _TEMPLATES[shape] = _Template(jsonl, csv_row, _values(json_params),
                                      _values(csv_params), _values(residues))
    return t


def _report_sort_key(d: dict):
    """Report order: p, theorem, then the parameters as (name, string) pairs,
    so "10" comes before "2"."""
    return (d["p"], d["theorem"], tuple(sorted(d["params"].items())))


def encode(records: List[dict], formats: Sequence[str] = ()) -> Chunk:
    """Sort records by :func:`_report_sort_key`, in place, and encode them
    in each of ``formats`` ("jsonl", "csv"): the one path from a record to
    report bytes.

    Each record fills the template of its shape.  A JSONL line is the bytes
    of ``json.dumps(record, sort_keys=True)``; a CSV row is the bytes
    ``csv.writer`` writes for the flat projection, and a field that writer
    would quote (a comma, quote or line break) raises ValueError.
    """
    records.sort(key=_report_sort_key)
    failed = list(islice((r for r in records if r["status"] == "FAILED"), FAILED_SHOWN))
    lines: List[str] = []
    rows: List[str] = []
    if formats:
        want_jsonl, want_csv = "jsonl" in formats, "csv" in formats
        get = _TEMPLATES.get
        for r in records:
            params, residues = r["params"], r["residues"]
            shape = (r["theorem"], tuple(params), tuple(residues))
            t = get(shape) or _template(shape)
            values = t.residues(residues)
            hypothesis, conclusion, status = (
                r["hypothesis_holds"], r["conclusion_holds"], r["status"])
            if want_jsonl:
                lines.append(t.jsonl % (
                    _JSON_BOOL[conclusion], r["e"], _JSON_BOOL[hypothesis], r["p"],
                    *map(_json_str, t.json_params(params)), *values, _json_str(status)))
            if want_csv:
                rows.append(t.csv % (r["p"], r["e"], *t.csv_params(params),
                                     hypothesis, conclusion, status, *values))
    csv_text = "".join(rows)
    n = len(rows)
    if '"' in csv_text or csv_text.count(",") != (len(_CSV_COLUMNS) - 1) * n or not (
            csv_text.count("\n") == csv_text.count("\r") == n):
        raise ValueError("a CSV field holds a comma, a quote or a line break")
    return Chunk(Counter(map(itemgetter("status"), records)), failed, "".join(lines), csv_text)


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
        for n in range(n_max + 1):
            s1, s2 = oracle.lemma_2_2_sides(n)
            if s1 != s2:
                return False, f"identity sides differ at n={n}"
            if n >= 2:
                for side in (1, 2):
                    if not oracle.zeilberger_certificate_check(n, side):
                        return False, f"recurrence certificate fails at n={n} side {side}"
        return True, f"identity and certificate exact for all n <= {n_max}"
    if target == "eq1.7":
        k_max = _oracle_size(target, args)
        for k in range(k_max + 1):
            if not oracle.identity_1_7_check(k):
                return False, f"dictionary equality fails at k={k}"
        return True, f"dictionary exact for all k <= {k_max}"
    if target == "reduce-equivalence":
        p_max = _oracle_size(target, args)
        primes = primes_in_range(3, p_max)
        exact: Dict[tuple, Dict[int, int]] = {}

        def want(a: Fraction, x: Fraction, which, ctx: PrimeContext) -> int:
            """The exact sum mod p^e, from one pass over all primes at e = 3."""
            if (a, x, which) not in exact:
                exact[a, x, which] = oracle.exact_reduce_sums(a, x, which, primes, 3)
            return exact[a, x, which][ctx.p] % ctx.modulus

        for p in primes:
            for e in (1, 2, 3):
                ctx = make_context(p, e)
                for x in oracle.GRID_X:
                    if x.denominator % p == 0:
                        continue
                    for f in cg.FamilyTag:
                        if cg.family_sum(f, x, ctx) != want(0, x, f, ctx):
                            return False, f"family {f.label} differs at p={p} e={e} x={x}"
                    for a in oracle.GRID_A:
                        if a.denominator % p == 0:
                            continue
                        for which, fn in (("core", cg.core_sum), ("plain", cg.plain_sum)):
                            if fn(a, x, ctx) != want(a, x, which, ctx):
                                return (
                                    False,
                                    f"{which} differs at p={p} e={e} a={a} x={x}",
                                )
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
                       help="parallel workers over primes (default: all cores); "
                            "eq1.2 and cor2.3 run in one pass in this process")
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
