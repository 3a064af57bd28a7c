#!/usr/bin/env python3
"""Time the two routes of each sc_t row and print where the theta product stops winning.

For every N and t the script times the theta product (`_build` with route
"theta") and the series route (`_build` with the route `_route` takes when
the theta rule does not hold), best of --repeats runs.  The series route
runs from its stored base rows: the sc row at N and the p row at N // 4 are
built once and kept, and for even t the c_(t/2) row at N // 4 is cleared
before each run, since only that sc_t row needs it.  Each line gives the two
times and their ratio; the summary gives, per N and parity of t, the cutoff t_c
that minimises the summed time of the sweep when the product builds the rows
with t <= t_c and the series the rest, and t^3 / N at t_c and at the next t
of that parity: the crossover lies between the two.  `series._route` cites
the committed output, scripts/calibrate_theta.txt.

Usage (from the repository root):
  PYTHONPATH=src python scripts/calibrate_theta.py [--repeats 3] [--n 1000 5000 10000 20000]
"""

from __future__ import annotations

import argparse
import os
import platform
import time

from sccore import series as se


def best_ms(build, repeats: int, before=lambda: None) -> float:
    best = float("inf")
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - start)
    return 1000 * best


def calibrate(n: int, parity: int, repeats: int) -> int:
    """Print one line per t of the parity and return the cutoff t_c that
    minimises the summed time of the sweep with the product for t <= t_c
    and the series above (t_c = 0: the series throughout)."""
    se.clear_series_caches()
    se.sc_coeffs(n)
    t_max = round((24 * n) ** (1 / 3)) if parity else round((4 * n) ** (1 / 3))
    times = []
    for t in range(3 if parity else 2, t_max + 1, 2):
        route = "psi" if not parity and se._even_by_psi(t, n) else "sc"
        theta = best_ms(lambda: se._build("sc_t", t, n, "theta"), repeats)
        series = best_ms(lambda: se._build("sc_t", t, n, route), repeats,
                         lambda: se._store.pop(("c_t", t // 2), None) if not parity else None)
        print(f"{n:6d} {t:4d} {theta:9.1f} {series:9.1f} {theta / series:6.2f}", flush=True)
        times.append((t, theta, series))
    total = {0: sum(series for _, _, series in times)}
    for t, theta, series in times:
        total[t] = total[max(total)] - series + theta
    return min(total, key=total.get)


def run() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--n", type=int, nargs="+", default=[1000, 5000, 10_000, 20_000])
    args = ap.parse_args()
    print(f"# Python {platform.python_version()} on {platform.system()} {platform.machine()}, "
          f"{os.cpu_count()} CPUs; best of {args.repeats}")
    print("     N    t  theta_ms series_ms  ratio")
    summary = [(n, parity, calibrate(n, parity, args.repeats)) for n in args.n for parity in (1, 0)]
    print("\n     N  parity  best cutoff t_c  t_c^3/N  (t_c + 2)^3/N")
    for n, parity, cut in summary:
        print(f"{n:6d}  {'odd ' if parity else 'even'}  {cut:15d}  {cut ** 3 / n:7.2f}  {(cut + 2) ** 3 / n:13.2f}")


if __name__ == "__main__":
    run()
