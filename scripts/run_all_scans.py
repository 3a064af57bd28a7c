#!/usr/bin/env python3
"""Run the full desk-scale verification battery and write JSON reports.

Every claim the engine can check mechanically gets a report under
./reports/: positivity characterizations, pairwise count comparisons,
monotonicity windows (conjectured and proved), unimodality windows,
telescoping distributions, printed identities, rational-threshold
inequalities, the growth audit, simultaneous-core certificates, and the
multi-method cross-validation grid.  Exit code 3 from a scan means
"violations found and reported", which is expected for the windows with
boundary defects; the summary table at the end shows every verdict.

Usage:
  python scripts/run_all_scans.py [--outdir reports] [--deep]

--deep raises the n ranges to the levels used by the acceptance gate
(10000 for zero sets and pair scans), audits growth on [19, 200] instead of
[19, 150], checks that the theta product equals every series route for
every sc_t row with t = 2..101 at N = 10000, and that every row pinned in
tests/data/row_digests.json keeps its digest as a prefix of the N = 10000
row; the default finishes in seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from sccore import series
from sccore.cli import main as sccore


def theta_check(n: int, ts: range) -> tuple[str, str, int, int]:
    """A summary row: the t in ts whose theta product differs at n from a
    series route of t's parity (the eta power over sc, and psi for even t)."""
    differ = [t for t in ts if any(series._build("sc_t", t, n, "theta") != list(series._build("sc_t", t, n, route))
                                   for route in (("sc",) if t % 2 else ("psi", "sc")))]
    if differ:
        print(f"theta product and a series route differ at N = {n} for t in {differ}")
    return f"theta_vs_series_{n}", "fails" if differ else "holds", len(differ), 3 if differ else 0


def digest_check(n: int) -> tuple[str, str, int, int]:
    """A summary row: the pinned rows whose prefix of the row built at n
    differs from its recorded digest."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    import test_row_digests as pins

    pinned = json.loads(pins.DATA.read_text())["rows"]
    series.clear_series_caches()
    pins.digests(n)
    differ = [f"{name} at N = {m}" for m in pins.NS for name, digest in pins.digests(m).items()
              if digest != pinned[str(m)][name]]
    if differ:
        print(f"row digests differ: {differ}")
    return f"row_digests_prefix_{n}", "fails" if differ else "holds", len(differ), 3 if differ else 0


def run() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--deep", action="store_true")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(exist_ok=True)
    big = "10000" if args.deep else "2000"
    mid = "1000" if args.deep else "400"
    jobs: list[tuple[str, list[str]]] = []
    for t in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
        jobs.append((f"characterization_t{t}", ["scan", "characterization", "--t", str(t), "--nmax", big]))
    for pair in (4, 6, 7, 9):
        jobs.append((f"pair_sc{pair + 2}_vs_sc{pair}",
                     ["scan", "monotonicity", "--pair", str(pair), "--nmax", big]))
    for fam in ("sc-even", "sc-odd"):
        for window in ("conjecture", "theorem"):
            jobs.append((f"monotonicity_{fam}_{window}",
                         ["scan", "monotonicity", "--family", fam, "--nmax", mid,
                          "--window", window]))
    jobs.append(("monotonicity_nsc_odd", ["scan", "monotonicity", "--family", "nsc-odd", "--nmax", "500"]))
    jobs.append(("monotonicity_c_family", ["scan", "monotonicity", "--family", "c", "--nmax", "200"]))
    for fam in ("pi", "sigma_even", "sigma_odd"):
        jobs.append((f"unimodality_{fam}",
                     ["scan", "unimodality", "--family", fam, "--nmax", "400", "--ncap", "400"]))
    jobs.append(("identities", ["scan", "identity", "--preset", "--nmax", big]))
    jobs.append(("inequalities", ["scan", "inequality", "--preset", "--nmax", big]))
    jobs.append(("distribution", ["scan", "distribution", "--range", "3..400"]))
    jobs.append(("growth", ["scan", "growth", "--range", "19..200" if args.deep else "19..150"]))
    for s, t in ((2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)):
        jobs.append((f"simultaneous_{s}_{t}", ["scan", "simultaneous", "--s", str(s), "--t", str(t)]))
    jobs.append(("cross_validate", ["scan", "cross-validate", "--tmax", "20", "--nmax", "100"]))

    summary = []
    for name, argv in jobs:
        dest = outdir / f"{name}.json"
        code = sccore([*argv, "--json", str(dest)])
        rep = json.loads(dest.read_text())
        summary.append((name, rep["verdict"], len(rep["witnesses"]), code))
    if args.deep:
        summary.append(theta_check(10_000, range(2, 102)))
        summary.append(digest_check(10_000))
    width = max(len(n) for n, *_ in summary)
    print(f"\n{'scan'.ljust(width)}  verdict  witnesses  exit")
    for name, verdict, wit, code in summary:
        print(f"{name.ljust(width)}  {verdict:7}  {wit:9d}  {code}")


if __name__ == "__main__":
    run()
