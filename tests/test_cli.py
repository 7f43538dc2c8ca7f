"""CLI surface: parsing, exit codes, report files, determinism."""

import csv
import json
import os
from fractions import Fraction

import pytest

from supercong.cli import (
    _resolve_jobs,
    main,
    parse_prime_range,
    parse_rational,
    primes_in_range,
    run_checks,
    run_exploration,
    sweep_family,
    write_csv,
    write_jsonl,
)
from supercong.congruences import FamilyTag

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
    # excluded residue class for an explicit u is a config error
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
    reports = run_checks("eq1.3", primes_in_range(5, 20), params={"m": Fraction(64)}, jobs=1)
    assert all(r["status"] == "verified" for r in reports)
    assert [r["p"] for r in reports] == [5, 7, 11, 13, 17, 19]
    # p <= 3 is skipped for statements requiring p > 3
    reports = run_checks("eq1.2", [3, 5], jobs=1)
    assert {r["p"] for r in reports} == {5}


def test_run_exploration_and_sweep_family():
    reports = run_exploration(primes_in_range(5, 40), jobs=1)
    assert [r["p"] for r in reports] == [5, 11, 17, 23, 29]
    pairs = sweep_family(FamilyTag.TWO_THREE, Fraction(1, 1458), [5, 11, 17], e=2, jobs=1)
    assert pairs == [(5, 0), (11, 0), (17, 0)]


def test_sweep_family_skips_primes_dividing_the_denominator():
    # 1458 = 2 * 3^6: x = 1/1458 has no residue at p = 3, and the sweep goes on
    pairs = sweep_family(FamilyTag.TWO_THREE, Fraction(1, 1458), [3, 5, 7, 11], jobs=1)
    assert pairs[0] == (3, None)
    assert [p for p, _ in pairs] == [3, 5, 7, 11]
    assert pairs[1] == (5, 0) and pairs[3] == (11, 0)


def test_resolve_jobs_is_bounded():
    cores = os.cpu_count() or 1
    assert _resolve_jobs(10**6, 10**6) == cores
    assert _resolve_jobs(10**6, 3) == min(cores, 3)
    assert _resolve_jobs(None, 10**6) == cores
    assert _resolve_jobs(None, 0) == 1
    assert _resolve_jobs(0, 50) == 1
    assert _resolve_jobs(-4, 50) == 1


def test_jsonl_and_csv_writers_round_trip(tmp_path):
    reports = run_checks("cor2.3", [5, 11], jobs=1)
    jpath = tmp_path / "x.jsonl"
    cpath = tmp_path / "x.csv"
    write_jsonl(reports, str(jpath))
    write_csv(reports, str(cpath))
    back = [json.loads(line) for line in jpath.read_text().splitlines()]
    assert back == reports
    with cpath.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["theorem"] == "cor2.3"
    assert rows[0]["family"] == "two_three"
