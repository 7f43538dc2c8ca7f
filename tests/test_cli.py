"""CLI surface: parsing, exit codes, report files, determinism."""

import csv
import json
import os
import subprocess
import sys
import time
from argparse import ArgumentTypeError
from fractions import Fraction
from math import comb

import pytest

from supercong import cli, modring, oracle
from supercong import congruences as cg
from supercong.cli import (
    PRIME_RANGE_MAX,
    _resolve_jobs,
    main,
    parse_prime_range,
    parse_rational,
    primes_in_range,
    run_checks,
    run_exploration,
    write_csv,
    write_jsonl,
)
from supercong.congruences import FamilyTag
from supercong.errors import BadExponent, ExcludedValue, RangeError
from supercong.modring import make_context

import reference

REPORT_KEYS = {
    "theorem",
    "p",
    "e",
    "params",
    "hypothesis_holds",
    "conclusion_holds",
    "residues",
    "status",
}


def _records(chunks):
    """The records of run_checks chunks encoded with formats=("jsonl",)."""
    return [json.loads(line) for c in chunks for line in c.jsonl.splitlines()]


def test_primes_in_range():
    assert primes_in_range(5, 20) == [5, 7, 11, 13, 17, 19]
    assert primes_in_range(2, 10) == [3, 5, 7]  # odd primes only
    assert primes_in_range(14, 16) == []
    assert primes_in_range(0, 2) == []
    assert len(primes_in_range(3, 100)) == 24


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+7") == Fraction(7)
    for bad in ("1.5", "a/b", "3/", "/4", "1e3", "2/-3"):
        with pytest.raises(Exception):
            parse_rational(bad)


def test_parse_prime_range():
    assert parse_prime_range("5..97") == (5, 97)
    for bad in ("5-97", "97..5", "x..y"):
        with pytest.raises(Exception):
            parse_prime_range(bad)


def test_check_eq12_writes_reports(tmp_path):
    out = tmp_path / "r.jsonl"
    csvp = tmp_path / "r.csv"
    code = main(
        ["check", "eq1.2", "--primes", "5..60", "--jobs", "1",
         "--out", str(out), "--csv", str(csvp)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 * len(primes_in_range(5, 60))
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == REPORT_KEYS
        assert rec["status"] in ("verified", "vacuous", "FAILED")
        assert rec["status"] != "FAILED"
    with csvp.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "theorem" and len(rows) == len(lines) + 1


def test_report_files_deterministic_across_jobs(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["check", "cor2.3", "--primes", "5..80", "--jobs", "1", "--out", str(a)]) == 0
    assert main(["check", "cor2.3", "--primes", "5..80", "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_single_instance_trivial():
    assert main(["check", "thm2.2", "--primes", "3..3", "--a", "0/1", "--x", "0/1"]) == 0


def test_check_exhaustive_sweeps():
    assert main(["check", "thm2.3", "--primes", "5..13", "--exhaustive-am", "--jobs", "1"]) == 0
    assert main(["check", "thm2.4i", "--primes", "5..13", "--exhaustive-am", "--jobs", "1"]) == 0
    assert main(["check", "thm2.1", "--primes", "3..7", "--exhaustive-am", "--jobs", "1"]) == 0


def test_check_exit_1_on_failed_record(tmp_path, capsys):
    # the honest ramified-class failure: cor2.2, two_three family, p=5, m=3
    out = tmp_path / "f.jsonl"
    code = main(["check", "cor2.2", "--primes", "5..5", "--m", "3", "--jobs", "1",
                 "--out", str(out)])
    assert code == 1
    assert "FAILED" in capsys.readouterr().out
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    failed = [r for r in recs if r["status"] == "FAILED"]
    assert failed and failed[0]["params"]["family"] == "two_three"


def test_check_config_errors():
    # missing required parameter
    assert main(["check", "thm2.1", "--primes", "5..7"]) == 2
    # explicit params and exhaustive are mutually exclusive
    assert main(["check", "thm2.3", "--primes", "5..7", "--a", "1", "--m", "2",
                 "--exhaustive-am"]) == 2
    # an explicit u equal to an excluded value is a config error
    assert main(["check", "thm2.4i", "--primes", "7..7", "--u", "1/4"]) == 2
    # argparse-level failures exit 2 via SystemExit
    with pytest.raises(SystemExit) as exc:
        main(["check", "nope", "--primes", "5..7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "thm2.1", "--primes", "5"])
    assert exc.value.code == 2


def test_explore_command(capsys):
    assert main(["explore", "remark2.3", "--primes", "5..100", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "remark2.3" in out and "vanish" in out
    # empty qualifying range: 7 = 1 mod 6
    assert main(["explore", "remark2.3", "--primes", "7..7"]) == 0
    assert "0/0" in capsys.readouterr().out


def test_explore_writes_jsonl(tmp_path):
    out = tmp_path / "e.jsonl"
    assert main(["explore", "remark2.3", "--primes", "5..60", "--out", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["p"] for r in recs] == [p for p in primes_in_range(5, 60) if p % 6 == 5]
    assert all(r["e"] == 3 and "sum_mod_p3" in r["residues"] for r in recs)


def test_oracle_commands():
    assert main(["oracle", "lemma2.1", "--n-max", "5"]) == 0
    assert main(["oracle", "lemma2.2", "--n-max", "6"]) == 0
    assert main(["oracle", "eq1.7", "--k-max", "10"]) == 0
    assert main(["oracle", "lemma2.1", "--n-max", "0"]) == 0
    assert main(["oracle", "reduce-equivalence", "--p-max", "11"]) == 0


def test_log_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("SUPERCONG_LOG", "bogus")
    assert main(["check", "cor2.3", "--primes", "5..5"]) == 2
    assert "SUPERCONG_LOG" in capsys.readouterr().err
    monkeypatch.setenv("SUPERCONG_LOG", "info")
    assert main(["check", "cor2.3", "--primes", "5..5"]) == 0


def test_run_checks_library_surface():
    chunks = run_checks("eq1.3", primes_in_range(5, 20), params={"m": Fraction(64)}, jobs=1,
                        formats=("jsonl",))
    reports = _records(chunks)
    assert all(r["status"] == "verified" for r in reports)
    assert [r["p"] for r in reports] == [5, 7, 11, 13, 17, 19]
    assert [c.counts for c in chunks] == [{"verified": 1}] * 6
    assert all(c.csv == "" and c.failed == [] for c in chunks)
    # p <= 3 is skipped for statements requiring p > 3
    [chunk] = run_checks("eq1.2", [3, 5], jobs=1, formats=("jsonl",))
    assert {r["p"] for r in _records([chunk])} == {5}
    # without formats the chunks carry counts and no text
    [chunk] = run_checks("eq1.2", [3, 5], jobs=1)
    assert chunk.jsonl == chunk.csv == "" and sum(chunk.counts.values()) == 3


def test_run_exploration_and_family_sums():
    reports = run_exploration(primes_in_range(5, 40))
    assert [r["p"] for r in reports] == [5, 11, 17, 23, 29]
    sums = cg.family_sums(FamilyTag.TWO_THREE, Fraction(1, 1458), [5, 11, 17], 2)
    assert sums == {5: 0, 11: 0, 17: 0}


def test_family_sums_skip_primes_dividing_the_denominator():
    # 1458 = 2 * 3^6: x = 1/1458 has no residue at p = 3, and the sweep goes on
    sums = cg.family_sums(FamilyTag.TWO_THREE, Fraction(1, 1458), [3, 5, 7, 11], 2)
    assert list(sums) == [5, 7, 11]
    assert sums[5] == 0 and sums[11] == 0


def test_resolve_jobs_is_bounded():
    cores = os.cpu_count() or 1
    assert _resolve_jobs(10**6, 10**6) == cores
    assert _resolve_jobs(10**6, 3) == min(cores, 3)
    assert _resolve_jobs(None, 10**6) == cores
    assert _resolve_jobs(None, 0) == 1
    assert _resolve_jobs(0, 50) == 1
    assert _resolve_jobs(-4, 50) == 1


def test_without_jobs_a_sweep_forks_only_where_its_estimate_pays_for_a_pool():
    cores = os.cpu_count() or 1
    small = primes_in_range(3, 67)
    for theorem in ("thm2.1", "thm2.3"):
        serial_s = cli._serial_s(theorem, small, True, ("jsonl", "csv"))
        assert _resolve_jobs(None, len(small), serial_s) == 1, theorem
        # an explicit request still forks below the break-even
        assert _resolve_jobs(2, len(small), serial_s) == min(cores, 2)
    grid = primes_in_range(3, 199)
    assert _resolve_jobs(None, len(grid), cli._serial_s("thm2.3", grid, True, ())) == min(
        cores, len(grid))
    many = primes_in_range(3, 20000)
    assert _resolve_jobs(None, len(many), cli._serial_s("thm2.3", many, False, ("jsonl",))) == (
        min(cores, len(many)))


@pytest.mark.parametrize("jobs, pooled", [((), False), (("--jobs", "2"), True)])
def test_a_small_grid_loads_the_pool_only_at_an_explicit_jobs(jobs, pooled):
    argv = ["check", "thm2.3", "--exhaustive-am", "--primes", "3..13", *jobs]
    code = ("import sys\nfrom supercong.cli import main\n"
            f"main({argv!r})\nprint('concurrent.futures.process' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    # a one-core machine gets no pool at --jobs 2 either
    assert out.stdout.splitlines()[-1] == str(pooled and (os.cpu_count() or 1) > 1), out.stderr


def _started(item):
    """The item and the time a worker started it."""
    return item, time.monotonic_ns()


def test_the_pool_takes_the_largest_primes_first_and_keeps_their_order():
    # 15 primes at 2 jobs go out one at a time: the first two taken are the
    # two largest, and whichever starts first, the results are in item order.
    primes = primes_in_range(3, 50)
    results = cli._parallel_map(_started, primes, 2)
    assert [p for p, _ in results] == primes
    first = min(results, key=lambda r: r[1])[0]
    assert first in primes[-2:]


def test_jsonl_and_csv_writers_round_trip(tmp_path):
    chunks = run_checks("cor2.3", [11, 5], jobs=1, formats=("jsonl", "csv"))
    jpath = tmp_path / "x.jsonl"
    cpath = tmp_path / "x.csv"
    write_jsonl(chunks, str(jpath))
    write_csv(chunks, str(cpath))
    back = [json.loads(line) for line in jpath.read_text().splitlines()]
    assert back == cg.check_corollary_2_3([5, 11])
    with cpath.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["theorem"] == "cor2.3"
    assert rows[0]["family"] == "two_three"


# ---------------------------------------------------------------------------
# The theorem table

# One usable parameter set per theorem that takes parameters, for p in 5..13.
EXPLICIT = {
    "thm2.1": {"a": Fraction(-1, 2), "x": Fraction(1, 3)},
    "thm2.2": {"a": Fraction(2, 3), "x": Fraction(-1, 4)},
    "thm2.3": {"a": Fraction(-1, 3), "m": Fraction(-9, 2)},
    "thm2.4i": {"u": Fraction(5)},
    "thm2.4ii": {"u": Fraction(5)},
    "cor2.2": {"m": Fraction(3, 2)},
    "eq1.3": {"m": Fraction(-3, 8)},
}


def direct_reports(theorem, p, params):
    """One prime's records by direct checker calls, without the table."""
    if theorem == "cor2.3":
        return cg.check_corollary_2_3([p])
    if theorem == "eq1.2":
        return cg.check_rodriguez_villegas([p])
    ctx = make_context(p, 1 if theorem == "thm2.1" else 2)
    out = []
    if theorem in ("thm2.1", "thm2.2"):
        check = cg.check_theorem_2_1 if theorem == "thm2.1" else cg.check_theorem_2_2
        pairs = [(params["a"], params["x"])] if params else [
            (a, x) for a in range(p) for x in range(p)
        ]
        out = [check(a, x, ctx) for a, x in pairs]
    elif theorem == "thm2.3":
        pairs = [(params["a"], params["m"])] if params else [
            (a, m) for a in range(p) for m in range(1, p)
        ]
        out = [cg.check_theorem_2_3(a, m, ctx) for a, m in pairs]
    elif theorem.startswith("thm2.4"):
        for u in [params["u"]] if params else range(p):
            try:
                out.append(cg.check_theorem_2_4(theorem[6:], u, ctx))
            except ExcludedValue:
                assert not params
    elif theorem == "cor2.2":
        for m in [params["m"]] if params else range(1, p):
            out.extend(cg.check_corollary_2_2(f, m, ctx) for f in FamilyTag)
    else:  # eq1.3
        for m in [params["m"]] if params else range(1, p):
            out.append(cg.check_identity_1_3(m, ctx))
    return out


def _cli_params(params):
    return [f"--{name}={value}" for name, value in params.items()]


@pytest.mark.parametrize(
    "theorem, params",
    [(t, None) for t in cg.STATEMENTS if t != "remark2.3"]
    + [(t, q) for t, q in EXPLICIT.items()],
)
def test_theorem_table_matches_direct_checker_calls(tmp_path, theorem, params):
    assert set(EXPLICIT) == {t for t, spec in cg.STATEMENTS.items() if spec.params}
    # a statement at fixed arguments takes no --exhaustive-am
    if params:
        args = _cli_params(params)
    else:
        args = ["--exhaustive-am"] if cg.STATEMENTS[theorem].params else []
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.jsonl"
        code = main(["check", theorem, "--primes", "5..13", "--jobs", jobs,
                     *args, "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    records = [json.loads(line) for line in outs[0].decode().splitlines()]
    want = [r for p in (5, 7, 11, 13) for r in direct_reports(theorem, p, params)]
    want.sort(key=lambda d: (d["p"], tuple(sorted(d["params"].items()))))
    assert records == want
    assert code == (1 if any(r["status"] == "FAILED" for r in records) else 0)


@pytest.mark.parametrize("theorem", [t for t, spec in cg.STATEMENTS.items() if spec.params])
def test_exhaustive_grid_equals_per_point_checker_records(tmp_path, theorem):
    """Every prime from min_p to 101: the grid, whose sums are packed
    evaluations of the shared coefficient rows of one context per prime,
    writes the bytes of the per-point checker calls, each a grid of one
    point evaluated by Horner's rule, each line encoded on its own.  Both
    sides share the statement's verdict, which
    test_grid_verdicts_equal_exact_sums_and_the_paper_statements holds
    against exact sums."""
    lo = cg.STATEMENTS[theorem].min_p
    want = [r for p in primes_in_range(lo, 101) for r in direct_reports(theorem, p, None)]
    want.sort(key=lambda d: (d["p"], tuple(sorted(d["params"].items()))))
    want_bytes = "".join(json.dumps(r, sort_keys=True) + "\n" for r in want).encode()
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}.jsonl"
        main(["check", theorem, "--primes", f"{lo}..101", "--exhaustive-am",
              "--jobs", jobs, "--out", str(out)])
        assert out.read_bytes() == want_bytes, jobs


def legendre_sq(n, y, ctx):
    """P_n(sqrt(1+4y))^2 mod p^e, from sum_k C(n,k) C(n+k,k) C(2k,k) y^k."""
    y = Fraction(y)
    total = sum(comb(n, k) * comb(n + k, k) * comb(2 * k, k) * y**k for k in range(n + 1))
    return modring.reduce_rational(total, ctx)


def paper_verdict(theorem, p, params):
    """Hypothesis, conclusion and residues of one grid point, from the exact
    sums of tests/reference.py and each statement as the paper states it."""
    ctx = make_context(p, 1 if theorem == "thm2.1" else 2)

    def exact(which, x, a=0):
        return reference.exact_reduce_sum(a, x, ctx, which)

    if theorem in ("thm2.1", "thm2.2"):
        a, x = int(params["a"]), int(params["x"])
        if theorem == "thm2.1":
            s, sq, mirror = exact("core", x, a), legendre_sq(a, -x, ctx), legendre_sq(p - 1 - a, -x, ctx)
            return True, s == sq == mirror, {"sum": s, "legendre_sq": sq, "legendre_sq_mirror": mirror}
        sq, core = exact("plain", x, a) ** 2 % ctx.modulus, exact("core", x * (1 - x), a)
        return True, sq == core, {"plain_sum_sq": sq, "core_sum": core}
    if theorem.startswith("thm2.4"):
        u = int(params["u"])
        if theorem == "thm2.4i":
            f, x, y = FamilyTag.TWO_THREE, Fraction(u**2, (1 - 4 * u) ** 3), Fraction(-u, (1 - 16 * u) ** 3)
        else:
            f, x, y = FamilyTag.TWO_FOUR, Fraction(u**3, (1 + 3 * u) ** 4), Fraction(u, (1 + 27 * u) ** 4)
        h, c = exact(f, x) % p, exact(f, y)
        return h == 0, c == 0, {"hypothesis_sum_mod_p": h, "conclusion_sum_mod_p2": c}
    x = Fraction(1, int(params["m"]))
    if theorem == "eq1.3":
        s, sq = exact(FamilyTag.CUBE, x), legendre_sq((p - 1) // 2, -16 * x, ctx)
        return True, s == sq, {"family_sum": s, "legendre_sq": sq}
    if theorem == "thm2.3":
        s = exact("core", x, int(params["a"]))
    else:  # cor2.2
        s = exact({f.label: f for f in FamilyTag}[params["family"]], x)
    return s % p == 0, s == 0, {"sum_mod_p2": s, "sum_mod_p": s % p}


@pytest.mark.parametrize("theorem", [t for t, spec in cg.STATEMENTS.items() if spec.params])
def test_grid_verdicts_equal_exact_sums_and_the_paper_statements(tmp_path, theorem):
    """Each grid record's hypothesis, conclusion, residues and status, at
    every prime from min_p to 11, against exact sums and the statement's
    rule written out here, apart from the statement's Series."""
    lo = cg.STATEMENTS[theorem].min_p
    out = tmp_path / "r.jsonl"
    main(["check", theorem, "--primes", f"{lo}..11", "--exhaustive-am", "--jobs", "1",
          "--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["p"] for r in records} == set(primes_in_range(lo, 11))
    for r in records:
        hypothesis, conclusion, residues = paper_verdict(theorem, r["p"], r["params"])
        status = "vacuous" if not hypothesis else "verified" if conclusion else "FAILED"
        assert (r["hypothesis_holds"], r["conclusion_holds"], r["residues"], r["status"]) == (
            hypothesis, conclusion, residues, status), r
    if theorem == "thm2.3":
        # the one FAILED point of thm2.3 at every p < 1000
        assert [(r["p"], r["params"]) for r in records if r["status"] == "FAILED"] == [
            (3, {"a": "1", "m": "1"})]


@pytest.mark.parametrize("p", [7, 11])
def test_every_grid_shares_its_rows_on_one_grid_context(monkeypatch, p):
    # Every point of a grid at p evaluates a few series at different x, so
    # the grid builds one coefficient row per distinct series: a core row
    # and a Legendre (thm2.1) or plain (thm2.2) row per a, a core row per a
    # (thm2.3), one row per family (cor2.2), the cube family and Legendre
    # rows (eq1.3), and one family row for each part of thm2.4.
    want = {"thm2.1": 2 * p, "thm2.2": 2 * p, "thm2.3": p, "thm2.4i": 1, "thm2.4ii": 1,
            "cor2.2": 4, "eq1.3": 2}
    assert set(want) == {t for t, spec in cg.STATEMENTS.items() if spec.params}
    built, rows = [], []

    real_context, real = cli.make_context, modring.hyper_terms

    def spy(q, e):
        built.append(q)
        return real_context(q, e)

    def counted(c, factors, d, n, ctx):
        rows.append((c, factors, d, n))
        return real(c, factors, d, n, ctx)

    monkeypatch.setattr(cli, "make_context", spy)
    monkeypatch.setattr(modring, "hyper_terms", counted)
    for theorem, n_rows in want.items():
        built.clear()
        rows.clear()
        assert cli._reports_for_prime(p, theorem, None, True).counts
        assert built == [p], theorem
        assert len(rows) == len(set(rows)) == n_rows, theorem


# Each statement with parameters at the parameter value 1, by its checker.
ONE_POINT = {
    "thm2.1": lambda ctx: cg.check_theorem_2_1(1, 1, ctx),
    "thm2.2": lambda ctx: cg.check_theorem_2_2(1, 1, ctx),
    "thm2.3": lambda ctx: cg.check_theorem_2_3(1, 1, ctx),
    "thm2.4i": lambda ctx: cg.check_theorem_2_4("i", 1, ctx),
    "thm2.4ii": lambda ctx: cg.check_theorem_2_4("ii", 1, ctx),
    "cor2.2": lambda ctx: cg.check_corollary_2_2(FamilyTag.CUBE, 1, ctx),
    "eq1.3": lambda ctx: cg.check_identity_1_3(1, ctx),
}


@pytest.mark.parametrize("theorem", list(cg.STATEMENTS))
def test_every_statement_guards_its_e_and_smallest_prime(tmp_path, theorem):
    row = cg.STATEMENTS[theorem]
    out = tmp_path / "r.jsonl"
    if theorem == "remark2.3":
        argv = ["explore", theorem]
    else:
        argv = ["check", theorem, *(["--exhaustive-am"] if row.params else [])]
    main([*argv, "--primes", "3..13", "--jobs", "1", "--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records
    assert all(r["e"] == row.e and r["p"] >= row.min_p for r in records)
    assert sorted(ONE_POINT) == sorted(t for t, r in cg.STATEMENTS.items() if r.params)
    if row.params:
        with pytest.raises(BadExponent):
            ONE_POINT[theorem](make_context(7, 2 if row.e == 1 else 1))
    if row.min_p > 3:
        with pytest.raises(RangeError, match=f"^stated for p >= {row.min_p}$"):
            if row.params:
                ONE_POINT[theorem](make_context(3, row.e))
            else:
                row.check([3])


def _choices(command, dest):
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    [action] = [a for a in sub.choices[command]._actions if a.dest == dest]
    return list(action.choices)


def test_check_and_explore_choices_are_exactly_the_statement_rows():
    # No row is unreachable, and remark2.3 is explore's, never a check id.
    check, explore = _choices("check", "theorem"), _choices("explore", "conjecture")
    assert sorted(check + explore) == sorted(cg.STATEMENTS)
    assert explore == ["remark2.3"]


# ---------------------------------------------------------------------------
# Records are encoded per prime; the parent writes the chunks in prime order

@pytest.mark.parametrize("reports", [False, True])
def test_stdout_and_reports_do_not_depend_on_jobs(tmp_path, capsys, reports):
    # thm2.3 fails at p = 3 (a = 1, m = 1; README): the FAILED line is printed
    out, csvp = tmp_path / "r.jsonl", tmp_path / "r.csv"
    files = ["--out", str(out), "--csv", str(csvp)] if reports else []
    seen = []
    for jobs in ("1", "2"):
        code = main(["check", "thm2.3", "--exhaustive-am", "--primes", "3..13",
                     "--jobs", jobs, *files])
        assert code == 1
        seen.append((capsys.readouterr().out,
                     *(f.read_bytes() for f in (out, csvp) if reports)))
        for f in (out, csvp):
            f.unlink(missing_ok=True)
    assert seen[0] == seen[1]
    assert "  FAILED: p=3 params={'a': '1', 'm': '1'}" in seen[0][0]


def test_summary_shows_the_first_failed_records_in_report_order(capsys):
    # cor2.2 fails at several m and families per prime (README), so the five
    # printed records span primes and must follow the global report order
    failed = [r for p in primes_in_range(5, 31) for r in direct_reports("cor2.2", p, None)
              if r["status"] == "FAILED"]
    failed.sort(key=lambda d: (d["p"], tuple(sorted(d["params"].items()))))
    assert len({r["p"] for r in failed[:5]}) > 1
    for jobs in ("1", "2"):
        assert main(["check", "cor2.2", "--exhaustive-am", "--primes", "5..31",
                     "--jobs", jobs]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(f"FAILED {len(failed)}")
        assert lines[1:] == [
            f"  FAILED: p={r['p']} params={r['params']} residues={r['residues']}"
            for r in failed[:5]
        ]


@pytest.mark.parametrize("theorem", [t for t, spec in cg.STATEMENTS.items() if spec.params])
def test_records_of_one_prime_are_in_string_order_of_their_parameters(tmp_path, theorem):
    # The grid writes its points as it sums them, with no sort: each axis in
    # string order, the spec axis (a, or family for cor2.2) outermost.
    out = tmp_path / "r.jsonl"
    main(["check", theorem, "--exhaustive-am", "--primes", "11..13", "--jobs", "2",
          "--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    keys = [(r["p"], *sorted(r["params"].items())) for r in records]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) and {k[0] for k in keys} == {11, 13}
    strings = ["1", "10", "2", "3", "4", "5", "6", "7", "8", "9"]
    if theorem == "thm2.3":
        at_11 = [a for p, (_, a), (_, m) in keys if p == 11 and m == "1"]
        assert at_11 == ["0", *strings]
    if theorem == "cor2.2":
        at_11 = [(f, m) for p, (_, f), (_, m) in keys if p == 11]
        labels = sorted(f.label for f in FamilyTag)
        assert labels[0] == "cube" and labels[-1] == "two_three"
        assert at_11 == [(f, m) for f in labels for m in strings]


# Rational parameters per statement; over 3..31 each has a prime at which one
# of them does not apply, which gives a vacuous record with no residues.
ENCODED_EXPLICIT = {
    "thm2.1": {"a": Fraction(-7, 4), "x": Fraction(1, 5)},
    "thm2.2": {"a": Fraction(2, 3), "x": Fraction(-1, 4)},
    "thm2.3": {"a": Fraction(-7, 4), "m": Fraction(9, 7)},
    "thm2.4i": {"u": Fraction(2, 7)},
    "thm2.4ii": {"u": Fraction(3)},
    "cor2.2": {"m": Fraction(3, 2)},
    "eq1.3": {"m": Fraction(-3, 11)},
}


@pytest.mark.parametrize("theorem", list(cg.STATEMENTS))
def test_encoder_writes_the_bytes_of_json_dumps_and_csv_writer(theorem):
    """The records of the grid over 3..31 and of explicit parameters, as
    the grid's points are encoded per prime and again as records in one
    chunk; or of a fixed-argument statement over 5..200 (for cor2.3 this
    includes p = 5, which divides its scale 3375), encoded in one chunk."""
    spec = cg.STATEMENTS[theorem]
    if spec.params:
        assert set(ENCODED_EXPLICIT) == {t for t, row in cg.STATEMENTS.items() if row.params}
        primes = primes_in_range(3, 31)
        formats = ("jsonl", "csv")
        chunks = (run_checks(theorem, primes, exhaustive=True, jobs=1, formats=formats)
                  + run_checks(theorem, primes, params=ENCODED_EXPLICIT[theorem], jobs=1,
                               formats=formats))
        records = _records(chunks)
        jsonl, csv_rows = reference.encode_report(records)
        assert "".join(c.jsonl for c in chunks).splitlines(True) == jsonl.splitlines(True)
        assert "".join(c.csv for c in chunks).splitlines(True) == csv_rows.splitlines(True)
    else:
        records = spec.check(primes_in_range(5, 200))
    shapes = {(bool(r["params"]), bool(r["residues"])) for r in records}
    assert (True, True) in shapes
    assert ((True, False) in shapes) == (theorem not in ("eq1.2", "remark2.3"))
    chunk = cli.encode(records, ("jsonl", "csv"))
    jsonl, csv_rows = reference.encode_report(records)
    # lists of lines, which pytest reports by their first difference
    assert chunk.jsonl.splitlines(True) == jsonl.splitlines(True)
    assert chunk.csv.splitlines(True) == csv_rows.splitlines(True)


@pytest.mark.parametrize("field", ["1,2", 'say "1"', "1\n2", "1\r2"])
def test_a_csv_field_csv_writer_would_quote_raises(field):
    record = cg.check_theorem_2_3(1, 2, make_context(5, 2))
    record["params"]["a"] = field
    assert cli.encode([dict(record)], ("jsonl",)).jsonl == reference.encode_report([record])[0]
    with pytest.raises(ValueError, match="CSV field"):
        cli.encode([record], ("csv",))


def test_a_percent_sign_in_a_name_is_written_as_is():
    record = {"theorem": "thm%s", "p": 5, "e": 2, "params": {"a%d": "1"},
              "hypothesis_holds": False, "conclusion_holds": True,
              "residues": {"r%%": 3}, "status": "vacuous"}
    chunk = cli.encode([record], ("jsonl", "csv"))
    assert (chunk.jsonl, chunk.csv) == reference.encode_report([record])

def test_template_cache_holds_one_entry_per_record_shape(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    out, csvp = tmp_path / "r.jsonl", tmp_path / "r.csv"
    records = []
    for argv in (["explore", "remark2.3", "--primes", "3..5000"],
                 ["check", "eq1.2", "--primes", "5..5000", "--csv", str(csvp)],
                 ["check", "cor2.3", "--primes", "5..100", "--csv", str(csvp)]):
        main([*argv, "--out", str(out)])
        records += [json.loads(line) for line in out.read_text().splitlines()]
    assert len({r["p"] for r in records}) > 600
    shapes = {(r["theorem"], tuple(r["params"]), tuple(r["residues"])) for r in records}
    # remark2.3, eq1.2, and cor2.3 with and without residues (p = 5)
    assert len(shapes) == len(cli._TEMPLATES) == 4
    assert set(cli._TEMPLATES) == shapes

@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_run_that_exits_2_writes_no_report_file(tmp_path, jobs):
    out, csvp = tmp_path / "f.jsonl", tmp_path / "f.csv"
    assert main(["check", "thm2.4i", "--primes", "7..13", "--u", "1/4", "--jobs", jobs,
                 "--out", str(out), "--csv", str(csvp)]) == 2
    assert not out.exists() and not csvp.exists()


# Each command meets one prime that divides a parameter's denominator, or at
# which a parameter is in an excluded class (p | m; u = 5 = 1/4 mod 19; u = 3 =
# -1/3 mod 5).  The ranges avoid the honest ramified failures (README).
UNUSABLE = [
    (["thm2.2", "--primes", "3..30", "--a", "1/3", "--x", "1"], 3),
    (["thm2.1", "--primes", "3..30", "--a", "1", "--x", "1/7"], 7),
    (["cor2.2", "--primes", "3..7", "--m", "1/5"], 5),
    (["thm2.3", "--primes", "5..30", "--a", "1", "--m", "7"], 7),
    (["eq1.3", "--primes", "3..30", "--m", "7"], 7),
    (["thm2.4i", "--primes", "3..30", "--u", "5"], 19),
    (["thm2.4ii", "--primes", "3..30", "--u", "3"], 5),
]


@pytest.mark.parametrize("argv, bad_p", UNUSABLE)
def test_unusable_prime_gives_one_vacuous_record(tmp_path, argv, bad_p):
    out = tmp_path / "r.jsonl"
    assert main(["check", *argv, "--jobs", "1", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    at_bad = [r for r in records if r["p"] == bad_p]
    given = dict(zip(argv[3::2], argv[4::2]))
    assert at_bad == [{
        "theorem": argv[0], "p": bad_p, "e": 1 if argv[0] == "thm2.1" else 2,
        "params": {k.lstrip("-"): v for k, v in given.items()},
        "hypothesis_holds": False, "conclusion_holds": True,
        "residues": {}, "status": "vacuous",
    }]
    lo, hi = parse_prime_range(argv[2])
    usable = [p for p in primes_in_range(lo, hi) if p != bad_p]
    params = {k.lstrip("-"): parse_rational(v) for k, v in given.items()}
    rest = _records(run_checks(argv[0], usable, params=params, jobs=1, formats=("jsonl",)))
    assert [r for r in records if r["p"] != bad_p] == rest


@pytest.mark.parametrize("theorem",
                         [t for t, spec in cg.STATEMENTS.items() if len(spec.params) == 1])
def test_grid_leaves_out_exactly_the_residues_that_give_the_no_checker_record(theorem):
    # One rule: the residues missing from a grid are those at which an explicit
    # run writes the vacuous record of a parameter that does not apply.
    [name] = cg.STATEMENTS[theorem].params
    for p in (5, 7, 11, 13):
        [chunk] = run_checks(theorem, [p], exhaustive=True, jobs=1, formats=("jsonl",))
        in_grid = {r["params"][name] for r in _records([chunk])}
        assert in_grid == {r["params"][name] for r in direct_reports(theorem, p, None)}
        no_checker = set()
        for r in range(p):
            records = _records(run_checks(theorem, [p], params={name: Fraction(r)}, jobs=1,
                                          formats=("jsonl",)))
            if any(rec["residues"] == {} for rec in records):
                assert records == [{
                    "theorem": theorem, "p": p, "e": 2, "params": {name: str(r)},
                    "hypothesis_holds": False, "conclusion_holds": True,
                    "residues": {}, "status": "vacuous",
                }]
                no_checker.add(str(r))
        assert {str(r) for r in range(p)} - in_grid == no_checker, p


def test_prime_range_is_capped_before_the_sieve(monkeypatch):
    assert parse_prime_range(f"5..{PRIME_RANGE_MAX}") == (5, PRIME_RANGE_MAX)
    with pytest.raises(Exception):
        parse_prime_range(f"5..{PRIME_RANGE_MAX + 1}")

    def no_sieve(lo, hi):
        raise AssertionError("sieve called")

    monkeypatch.setattr(cli, "primes_in_range", no_sieve)
    with pytest.raises(SystemExit) as exc:
        main(["check", "eq1.2", "--primes", "5..10000000000"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--n-max", "--k-max", "--p-max"])
def test_oracle_sizes_must_be_non_negative(flag):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "lemma2.2", f"{flag}=-3"])
    assert exc.value.code == 2


def _no_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "primes_in_range", no_work)
    monkeypatch.setattr(cli, "make_context", no_work)
    for name in ("lemma_2_1_exact_check", "lemma_2_2_check", "identity_1_7_check",
                 "exact_reduce_sums"):
        monkeypatch.setattr(oracle, name, no_work)


def test_oracle_p_max_is_bounded_before_any_work(monkeypatch, capsys):
    _no_work(monkeypatch)
    too_big = str(oracle.REDUCE_P_BOUND + 1)
    assert main(["oracle", "reduce-equivalence", "--p-max", too_big]) == 2
    assert str(oracle.REDUCE_P_BOUND) in capsys.readouterr().err


@pytest.mark.parametrize("p_max", ["0", "1", "2"])
def test_oracle_p_max_below_the_first_prime_is_rejected_before_any_work(
    monkeypatch, capsys, p_max
):
    _no_work(monkeypatch)
    assert main(["oracle", "reduce-equivalence", "--p-max", p_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--p-max must be at least 3" in captured.err


def test_oracle_mismatch_names_the_point(monkeypatch, capsys):
    real = cg.plain_sum

    def off_by_one(a, x, ctx):
        return (real(a, x, ctx) + 1) % ctx.modulus

    monkeypatch.setattr(cg, "plain_sum", off_by_one)
    assert main(["oracle", "reduce-equivalence", "--p-max", "5"]) == 1
    assert capsys.readouterr().out == (
        "oracle reduce-equivalence: MISMATCH -- plain differs at p=3 e=1 a=0 x=0\n"
    )


@pytest.mark.parametrize("target, flag, cap", [
    ("lemma2.1", "--n-max", oracle.LEMMA_2_1_BOUND),
    ("lemma2.2", "--n-max", oracle.LEMMA_2_2_BOUND),
    ("eq1.7", "--k-max", oracle.IDENTITY_1_7_BOUND),
])
def test_oracle_sizes_are_capped_before_any_work(monkeypatch, capsys, target, flag, cap):
    _no_work(monkeypatch)
    for size in (cap + 1, 100000):
        assert main(["oracle", target, flag, str(size)]) == 2
        err = capsys.readouterr().err
        assert flag in err and str(cap) in err


@pytest.mark.parametrize("target, unread", [
    ("lemma2.1", ["--k-max", "5", "--p-max", "7"]),
    ("lemma2.2", ["--p-max", "7"]),
    ("eq1.7", ["--n-max", "3"]),
    ("reduce-equivalence", ["--n-max", "3", "--k-max", "2"]),
])
def test_oracle_rejects_size_options_its_target_does_not_read(
    monkeypatch, capsys, target, unread
):
    _no_work(monkeypatch)
    assert main(["oracle", target, *unread]) == 2
    assert f"{target} takes no {' '.join(unread[::2])}" in capsys.readouterr().err


def test_oracle_sizes_up_to_the_cap_run(capsys):
    assert main(["oracle", "lemma2.1", "--n-max", str(oracle.LEMMA_2_1_BOUND)]) == 0
    assert main(["oracle", "lemma2.2", "--n-max", "12"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"oracle lemma2.1: ok -- squared-value expansion exact for all n <= "
        f"{oracle.LEMMA_2_1_BOUND}",
        "oracle lemma2.2: ok -- identity and certificate exact for all n <= 12",
    ]


@pytest.mark.parametrize("argv, named", [
    (["eq1.2", "--m", "3"], "--m"),
    (["cor2.3", "--x", "1/2"], "--x"),
    (["thm2.4i", "--u", "5", "--a", "2"], "--a"),
    (["thm2.1", "--a", "1", "--x", "2", "--m", "3", "--u", "1"], "--m --u"),
])
def test_check_rejects_parameters_the_theorem_does_not_take(monkeypatch, capsys, argv, named):
    _no_work(monkeypatch)
    assert main(["check", argv[0], "--primes", "5..7", *argv[1:]]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("theorem",
                         [t for t, spec in cg.STATEMENTS.items() if any(spec.params.values())])
def test_check_rejects_an_excluded_value_before_any_work(monkeypatch, capsys, theorem):
    # An excluded value applies at no prime: every record would be vacuous.
    _no_work(monkeypatch)
    for name, values in cg.STATEMENTS[theorem].params.items():
        others = [f"--{n}=1" for n in cg.STATEMENTS[theorem].params if n != name]
        for value in values:
            n, d = value.numerator, value.denominator
            for text in (str(value), f"{3 * n}/{3 * d}", f"-{-value}" if n <= 0 else f"+{value}"):
                assert main(["check", theorem, "--primes", "5..13", f"--{name}={text}",
                             *others]) == 2
                assert f"{theorem} excludes --{name} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "theorem", [t for t, spec in cg.STATEMENTS.items() if not spec.params and t != "remark2.3"])
def test_exhaustive_am_without_parameters_exits_2_before_any_work(monkeypatch, capsys, theorem):
    _no_work(monkeypatch)
    assert main(["check", theorem, "--primes", "5..13", "--exhaustive-am"]) == 2
    assert f"error: {theorem} takes no --exhaustive-am" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--a", "--x", "--m", "--u"])
def test_zero_denominator_exits_2_before_any_work(monkeypatch, capsys, tmp_path, option):
    _no_work(monkeypatch)
    out = tmp_path / "r.jsonl"
    for bad in ("1/0", "0/0", "-3/00"):
        with pytest.raises(ArgumentTypeError):
            parse_rational(bad)
        with pytest.raises(SystemExit) as exc:
            main(["check", "thm2.2", "--primes", "3..5", f"{option}={bad}", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "zero denominator" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check", "eq1.2"],
    ["check", "thm2.3", "--exhaustive-am"],
    ["explore", "remark2.3"],
])
def test_jobs_below_1_exit_2_before_any_work(monkeypatch, capsys, argv):
    _no_work(monkeypatch)
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--primes", "5..13", f"--jobs={jobs}"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
