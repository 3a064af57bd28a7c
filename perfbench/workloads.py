"""The three workloads: their seeded inputs, their jobs and the output checks.

A job is one request a user makes of sccore.  Each job yields an exit code
and an output text.  The output is normalised (report `elapsed_ms` set to 0,
the run's cache path replaced by `<CACHE>`) and hashed.  The hash must equal
the reference digest recorded in `reference.json`.  Jobs whose output depends
on the seed are checked by the benchmark's own oracles instead; see `check`.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("scan-battery", "enumerate", "cli-session")

ROUNDTRIPS = 4000          # seeded t_core / t_quotient / assemble round trips
GROWTH_RANGE = (19, 118)   # enumerate: in-process growth audit, workers=1
SIMULTANEOUS = ((3, 4), (4, 5), (5, 6), (6, 7), (7, 8))
ELAPSED = re.compile(r'"elapsed_ms": -?\d+')


@dataclass
class Job:
    name: str
    argv: list[str] | None = None             # sccore command line
    call: Callable | None = None              # enumerate: fn(sccore, ctx) -> (code, text)
    check: Callable | None = None             # seeded: fn(outputs) -> error or None
    normalise: Callable | None = None         # extra normalisation of the output text


@dataclass
class Inputs:
    """Everything a workload takes from the seed."""

    roundtrips: list[tuple[tuple[int, ...], int]] = field(default_factory=list)
    self_conjugate: list[tuple[int, ...]] = field(default_factory=list)
    queries: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs()
    if workload == "enumerate":
        for _ in range(ROUNDTRIPS):
            inputs.roundtrips.append((random_partition(rng, rng.randint(0, 30)), rng.randint(2, 9)))
        inputs.self_conjugate = [p for n in range(31) for p in self_conjugate_partitions(n)]
    elif workload == "cli-session":
        # ranges keep the cache file names of the seeded queries distinct from
        # each other and from the fixed jobs, so `cache purge` counts the same
        inputs.queries = {
            "sc_t6": rng.randint(100, 1499),
            "sc_t6_all": rng.randint(10, 30),
            "sc": rng.randint(200, 1200),
            "p": rng.randint(1000, 3000),
        }
    return inputs


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts = []
    while n:
        part = rng.randint(1, n)
        parts.append(part)
        n -= part
    return tuple(sorted(parts, reverse=True))


def self_conjugate_partitions(n: int) -> list[tuple[int, ...]]:
    """From distinct odd diagonal hooks h_1 > h_2 > ... summing to n."""
    out = []

    def hooks(rest: int, below: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for h in range(min(rest, below - 2), 0, -1):
            if h % 2:
                hooks(rest - h, h, acc + (h,))

    hooks(n, n + 2, ())
    result = []
    for hs in out:
        d = len(hs)
        arms = [(h - 1) // 2 for h in hs]
        parts = [i + 1 + arms[i] for i in range(d)]
        parts += [sum(1 for i in range(d) if parts[i] >= j) for j in range(d + 1, (parts[0] if d else 0) + 1)]
        result.append(tuple(parts))
    return result


# ---------------------------------------------------------------------------
# oracles (independent of sccore)
# ---------------------------------------------------------------------------

def partition_numbers(n: int) -> list[int]:
    """p(0..n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, acc = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            acc += sign * p[m - g1]
            g2 = g1 + k
            if g2 <= m:
                acc += sign * p[m - g2]
            k += 1
        p[m] = acc
    return p


def distinct_odd_counts(n: int) -> list[int]:
    """sc(0..n): partitions into distinct odd parts."""
    c = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for m in range(n, part - 1, -1):
            c[m] += c[m - part]
    return c


def bead_core(p: tuple[int, ...], t: int) -> tuple[int, ...]:
    """t-core by sliding beads one step up their runner until none can move."""
    m = len(p)
    beads = {p[k] + (m - k) - 1 for k in range(m)}
    moved = True
    while moved:
        moved = False
        for b in sorted(beads):
            if b >= t and b - t not in beads:
                beads.remove(b)
                beads.add(b - t)
                moved = True
    ordered = sorted(beads, reverse=True)
    return tuple(x for x in (b - (m - 1 - k) for k, b in enumerate(ordered)) if x > 0)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def jobs_for(workload: str, inputs: Inputs) -> list[Job]:
    if workload == "scan-battery":
        return scan_battery_jobs()
    if workload == "enumerate":
        return enumerate_jobs(inputs)
    if workload == "cli-session":
        return cli_session_jobs(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def scan_battery_jobs() -> list[Job]:
    """The desk-scale battery of scripts/run_all_scans.py, driven through cli.main."""
    big, mid = "10000", "1000"
    jobs = [Job(f"characterization-t{t}", ["scan", "characterization", "--t", str(t), "--nmax", big])
            for t in range(2, 12)]
    jobs.append(Job("positivity-t6", ["scan", "positivity", "--t", "6", "--nmax", big]))
    jobs += [Job(f"pair-{t}", ["scan", "monotonicity", "--pair", str(t), "--nmax", big])
             for t in (4, 6, 7, 9)]
    jobs.append(Job("identity-preset", ["scan", "identity", "--preset", "--nmax", mid]))
    jobs.append(Job("inequality-preset", ["scan", "inequality", "--preset", "--nmax", mid]))
    jobs += [Job(f"monotonicity-{fam}-theorem",
                 ["scan", "monotonicity", "--family", fam, "--nmax", mid, "--window", "theorem"])
             for fam in ("sc-even", "sc-odd")]
    jobs.append(Job("monotonicity-nsc-odd", ["scan", "monotonicity", "--family", "nsc-odd", "--nmax", "500"]))
    jobs += [Job(f"unimodality-{fam}",
                 ["scan", "unimodality", "--family", fam, "--nmax", "400", "--ncap", "400"])
             for fam in ("pi", "sigma_even", "sigma_odd")]
    jobs.append(Job("distribution-3-200", ["scan", "distribution", "--range", "3..200"]))
    return jobs


def enumerate_jobs(inputs: Inputs) -> list[Job]:
    lo, hi = GROWTH_RANGE
    jobs = [Job(f"growth-{lo}-{hi}", call=lambda sc, ctx: report(sc.growth.verify_growth(lo, hi, workers=1)))]
    jobs += [Job(f"simultaneous-{s}-{t}", call=lambda sc, ctx, s=s, t=t: report(sc.analytics.simultaneous_scan(s, t)))
             for s, t in SIMULTANEOUS]
    jobs.append(Job("cross-validate-12-48", call=lambda sc, ctx: report(sc.formulas.cross_validate(12, 48))))
    jobs.append(Job("roundtrips", call=lambda sc, ctx: roundtrips(sc, ctx, inputs.roundtrips),
                    check=lambda outputs: outputs["roundtrips"][1] or None))
    jobs.append(Job("sc-reduce-to-core", call=lambda sc, ctx: reduce_chains(sc, inputs.self_conjugate)))
    return jobs


def report(rep) -> tuple[int, str]:
    return (0 if rep.verdict == "holds" else 3), rep.to_json()


def roundtrips(sc, ctx: dict, cases) -> tuple[int, str]:
    """Core, quotient and reassembly of each seeded partition; each round trip timed.

    The output text lists the cases that disagree with the bead-sliding oracle,
    so it is empty when every round trip is right.
    """
    from time import perf_counter_ns

    t_core, t_quotient, assemble = sc.abacus.t_core, sc.abacus.t_quotient, sc.abacus.assemble
    latencies = ctx.setdefault("roundtrip_ns", [])
    results = []
    for p, t in cases:
        start = perf_counter_ns()
        core = t_core(p, t)
        quotient = t_quotient(p, t)
        back = assemble(core, quotient, t)
        latencies.append(perf_counter_ns() - start)
        results.append((p, t, core, quotient, back))
    bad = []
    for p, t, core, quotient, back in results:
        weight = sum(sum(q) for q in quotient)
        if back != p or core != bead_core(p, t) or sum(core) + t * weight != sum(p):
            bad.append(f"{p} t={t}: core={core} quotient={quotient} back={back}")
    return 0, "\n".join(bad)


def reduce_chains(sc, partitions) -> tuple[int, str]:
    lines = [f"{p} {t} {sc.abacus.sc_reduce_to_core(p, t)}" for p in partitions for t in range(2, 10)]
    return 0, "\n".join(lines) + "\n"


def cli_session_jobs(inputs: Inputs) -> list[Job]:
    q = inputs.queries

    def from_range(job: str, n: int) -> Callable:
        def check(outputs):
            rng = dict(line.split()[1:] for line in outputs["count-sc_t6-range"][1].splitlines())
            want = f"6 {n} {rng[str(n)]}\n"
            return None if outputs[job] == (0, want) else f"expected {want!r}, got {outputs[job]!r}"
        return check

    def oracle(job: str, n: int, values: Callable) -> Callable:
        """Runs after the pass, so the oracle costs neither set-up nor job time."""
        def check(outputs):
            want = f"{n} {values(n)[n]}\n"
            return None if outputs[job] == (0, want) else f"expected {want!r}, got {outputs[job]!r}"
        return check

    seeded = {f"sc_t_t6_n{q['sc_t6']}.bin", f"sc_t_t6_n{q['sc_t6_all']}.bin",
              f"sc_n{q['sc']}.bin", f"p_n{q['p']}.bin"}

    def verify_lines(text: str) -> str:
        """Fold the seeded files' lines into one shape, then sort."""
        out = []
        for line in text.splitlines():
            name = line.split(":", 1)[0].rsplit("/", 1)[-1]
            if name in seeded and re.search(r": ok \(sampled \d+\)$", line):
                line = "<CACHE>/<seeded>: ok"
            out.append(line)
        return "\n".join(sorted(out)) + "\n"

    jobs = [
        ("cache-build", "cache build --family sc_t --t 2..12 --nmax 5000", None),
        ("count-sc_t6-range", "count sc_t --t 6 --n 0..1500", None),
        ("count-sc_t6-single", f"count sc_t --t 6 --n {q['sc_t6']}",
         from_range("count-sc_t6-single", q["sc_t6"])),
        ("count-sc-single", f"count sc --n {q['sc']}",
         oracle("count-sc-single", q["sc"], distinct_odd_counts)),
        ("count-p-single", f"count p --n {q['p']}",
         oracle("count-p-single", q["p"], partition_numbers)),
        ("count-c_t5-400", "count c_t --t 5 --n 400", None),
        ("count-sc_t6-method-all", f"count sc_t --t 6 --n {q['sc_t6_all']} --method all",
         from_range("count-sc_t6-method-all", q["sc_t6_all"])),
        ("count-sc_t5-range-csv", "count sc_t --t 5 --n 0..300 --format csv", None),
        ("count-phat3-range-json", "count phat --t 3 --n 0..200 --format json", None),
        ("table-sc-60-62", "table sc --nmax 60 --tmax 62 --format csv", None),
        ("table-sc-300-150", "table sc --nmax 300 --tmax 150", None),
        ("table-sc-diff-even-md", "table sc-diff-even --nmax 60 --format md", None),
        ("scan-positivity-t6", "scan positivity --t 6 --nmax 10000", None),
        ("scan-growth-19-110", "scan growth --range 19..110 --workers 2", None),
        ("scan-simultaneous-6-7", "scan simultaneous --s 6 --t 7", None),
        ("cache-verify", "cache verify", None),
        ("cache-purge", "cache purge", None),
    ]
    return [Job(name, argv.split(), check=check, normalise=verify_lines if name == "cache-verify" else None)
            for name, argv, check in jobs]


# ---------------------------------------------------------------------------
# normalisation and digests
# ---------------------------------------------------------------------------

def normalise(job: Job, text: str, cache_dir: str) -> str:
    """Report `elapsed_ms` set to 0 (as the c16 acceptance test does); the run's cache path replaced."""
    text = ELAPSED.sub('"elapsed_ms": 0', text.replace(cache_dir, "<CACHE>"))
    if job.normalise:
        text = job.normalise(text)
    return text


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
