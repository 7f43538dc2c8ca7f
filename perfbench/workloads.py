"""The benchmark's workloads: which CLI commands each one runs, how its inputs
follow from the seed, and how many truncated-sum terms those inputs ask for.

Terms are counted from the inputs alone, never from the program: p terms per
kernel or exact sum at prime p, and n + 1 per Legendre sum of degree n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# Denominators of the parameter grids that `oracle reduce-equivalence` sweeps
# (GRID_X and GRID_A of supercong.oracle). A grid point is skipped at p when
# p divides its denominator.
GRID_X_DENOMINATORS = (1, 1, 1, 2, 3, 5, 4, 8, 1, 6)
GRID_A_DENOMINATORS = (1, 1, 2, 3, 4, 6, 3, 5, 4, 1)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``key`` names the command inside its workload and the report files it
    writes; ``pooled`` commands take ``--jobs`` and run in a process pool.
    """

    key: str
    args: Tuple[str, ...]
    reports: Tuple[str, ...]
    pooled: bool
    primes: int
    terms: int

    def argv(self, jobs: int | None) -> List[str]:
        """CLI arguments; ``jobs=None`` keeps the CLI's default of all cores."""
        if jobs is None or not self.pooled:
            return list(self.args)
        return list(self.args) + ["--jobs", str(jobs)]


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    commands: Tuple[Command, ...]
    setup: Command

    @property
    def terms(self) -> int:
        return sum(c.terms for c in self.commands)


def odd_primes(lo: int, hi: int) -> List[int]:
    """Odd primes in [lo, hi]; the benchmark's own sieve."""
    if hi < 3:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [n for n in range(max(lo, 3), hi + 1) if flags[n]]


def _check(theorem: str, lo: int, hi: int, primes: List[int], terms: int,
           grid: bool) -> Command:
    args = ["check", theorem, "--primes", f"{lo}..{hi}"]
    reports: Tuple[str, ...] = (f"{theorem}.jsonl",)
    if grid:
        args.insert(2, "--exhaustive-am")
        reports = (f"{theorem}.jsonl", f"{theorem}.csv")
        args += ["--out", reports[0], "--csv", reports[1]]
    else:
        args += ["--out", reports[0]]
    return Command(theorem, tuple(args), reports, True, len(primes), terms)


def prime_sweep(hi: int) -> Tuple[Command, ...]:
    """eq1.2 (three family sums per prime, e = 2) and remark2.3 (the
    two_three sum at 1/1458, e = 3) over 3..hi."""
    eq_primes = [p for p in odd_primes(3, hi) if p >= 5]
    rk_primes = [p for p in odd_primes(3, hi) if p % 6 == 5]
    eq = _check("eq1.2", 3, hi, eq_primes, sum(3 * p for p in eq_primes), False)
    rk = Command(
        "remark2.3",
        ("explore", "remark2.3", "--primes", f"3..{hi}", "--out", "remark2.3.jsonl"),
        ("remark2.3.jsonl",),
        True,
        len(rk_primes),
        sum(rk_primes),
    )
    return eq, rk


def param_grid(hi: int) -> Tuple[Command, ...]:
    """thm2.1 and thm2.3 over their full integer grids, 3..hi, with JSONL
    and CSV reports. A thm2.1 check at (a, x) runs one core sum and two
    Legendre sums of degrees a and p-1-a: 2p + 1 terms."""
    primes = odd_primes(3, hi)
    t21 = sum(p * p * (2 * p + 1) for p in primes)
    t23 = sum(p * (p - 1) * p for p in primes)
    return (
        _check("thm2.1", 3, hi, primes, t21, True),
        _check("thm2.3", 3, hi, primes, t23, True),
    )


def reduce_equivalence_terms(p_max: int) -> int:
    """Each usable (x, family) pair runs one exact and one modular family
    sum; each usable (a, x) pair one exact and one modular core and plain
    sum; all at e = 1, 2, 3."""
    total = 0
    for p in odd_primes(3, p_max):
        xs = sum(1 for d in GRID_X_DENOMINATORS if d % p)
        ax = xs * sum(1 for d in GRID_A_DENOMINATORS if d % p)
        total += 3 * p * (xs * 4 * 2 + ax * 2 * 2)
    return total


def exact_oracle(p_max: int, n_max: int) -> Tuple[Command, ...]:
    """The exact-rational oracles: modular sums against big-rational sums,
    then the convolution identity and its recurrence certificate (no
    truncated sums, so no terms)."""
    return (
        Command(
            "reduce-equivalence",
            ("oracle", "reduce-equivalence", "--p-max", str(p_max)),
            (),
            False,
            len(odd_primes(3, p_max)),
            reduce_equivalence_terms(p_max),
        ),
        Command(
            "lemma2.2",
            ("oracle", "lemma2.2", "--n-max", str(n_max)),
            (),
            False,
            0,
            0,
        ),
    )


def _setup(workload: str) -> Command:
    """The workload's first command at its smallest input."""
    if workload == "prime_sweep":
        return prime_sweep(5)[0]
    if workload == "param_grid":
        return param_grid(3)[0]
    return exact_oracle(3, 0)[0]


# Upper ends of the input ranges, one per seed residue. prime_sweep moves its
# upper end in steps of 4, which changes the prime set but its work by at
# most 2%. param_grid and exact_oracle move it inside a prime gap (67..70,
# 31..36): one more prime there would add 30 to 40% work, so the seed
# changes the arguments and the oracle sample but not the work.
FULL: Dict[str, Tuple[str, ...]] = {
    "prime_sweep": tuple(str(5000 + 4 * i) for i in range(8)),
    "param_grid": ("67", "68", "69", "70"),
    "exact_oracle": ("31", "32", "33", "34", "35", "36"),
}
# A few seconds per workload, for the benchmark's own tests.
SMOKE: Dict[str, Tuple[str, ...]] = {
    "prime_sweep": ("300", "304"),
    "param_grid": ("13", "14"),
    "exact_oracle": ("11", "12"),
}
LEMMA_N_MAX = {"full": 30, "smoke": 8}
SIZES = {"full": FULL, "smoke": SMOKE}
NAMES = tuple(FULL)


def build(name: str, variant: str, size: str = "full") -> Workload:
    if name not in FULL:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    hi = int(variant)
    if name == "prime_sweep":
        commands = prime_sweep(hi)
    elif name == "param_grid":
        commands = param_grid(hi)
    else:
        commands = exact_oracle(hi, LEMMA_N_MAX[size])
    return Workload(name, variant, commands, _setup(name))


def for_seed(name: str, seed: int, size: str = "full") -> Workload:
    """The workload whose inputs the seed selects."""
    variants = SIZES[size][name]
    return build(name, variants[seed % len(variants)], size)
