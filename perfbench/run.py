"""sccore benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Usage (from the repository root):
  python3 perfbench/run.py --workload scan-battery --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all                 # every workload, one table each
  python3 perfbench/run.py --workload enumerate --trace 1 # per-layer numbers
  python3 perfbench/run.py ... --out results.jsonl        # append this run's record
  python3 perfbench/run.py --compare old.jsonl new.jsonl  # median ratios against the bounds
  python3 perfbench/run.py --record-reference             # rewrite reference.json

A run is a closed loop with one client: passes of the workload, one after
another, each in a fresh process with its own empty SCCORE_CACHE_DIR, while
the next pass should end within --seconds (at least one pass).  A traced run
alternates untraced and traced passes.  Every job's output is checked against
reference.json or the benchmark's oracles; the last line of stdout is the
result as JSON.
See NOTES.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
SETUP_PROBES = 9          # extra set-up-only starts per run, for the setup_s median
PASS_TIMEOUT_S = 170
REFERENCE_SEED = 0

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
LAYERS = ("series", "analytics", "formulas", "partitions", "abacus", "growth", "cache", "cli")
LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "series.calls": "count", "series.distinct_rows": "count", "series.max_n": "n",
    "analytics.calls": "count", "formulas.calls": "count",
    "partitions.is_t_core_calls": "count", "partitions.sequences_yielded": "count",
    "abacus.roundtrip_us.p50": "us", "abacus.roundtrip_us.tail": "us",
    "abacus.cores_enumerated": "count", "growth.ns_audited": "count",
    "cache.loads": "count", "cache.hits": "count", "cache.misses": "count",
    "cache.recomputed": "count", "cache.bytes_read": "bytes", "cache.bytes_written": "bytes",
    "cli.startup_s": "s", "cli.processes": "count",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    n, ordered = len(values), sorted(values)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (f"p{p:g}", ordered[min(n - 1, int(n * p / 100))])
    return best


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(workload: str, seed: int, work: Path, trace: bool, setup_only: bool = False) -> dict:
    """Start passrun.py, wait for it and its children; return its record plus rusage."""
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed),
           "--work", str(work), "--result", str(result), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    with open(work / "stderr.txt", "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen([*cmd, "--spawn", repr(spawn)], cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=err, stderr=err, start_new_session=True)
        timer = threading.Timer(PASS_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result.exists():
        tail_lines = (work / "stderr.txt").read_text().strip().splitlines()[-3:]
        return {"failed": f"pass exited {proc.returncode}: {' | '.join(tail_lines)}"}
    record = json.loads(result.read_text())
    record["cpu_s"] = usage.ru_utime + usage.ru_stime - record["setup_cpu_s"]
    record["peak_rss_mb"] = usage.ru_maxrss / 1024
    return record


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check_jobs(record: dict, reference: dict) -> list[str]:
    """Names (with reasons) of the jobs in a pass whose output is wrong."""
    bad = []
    for job in record["jobs"]:
        if job["error"]:
            bad.append(f"{job['name']}: {job['error'].strip().splitlines()[-1]}")
        elif not job["seeded"] and reference.get(job["name"]) != {"code": job["code"], "digest": job["digest"]}:
            want = reference.get(job["name"], {}).get("code", "no reference")
            bad.append(f"{job['name']}: exit {job['code']} (reference {want}) or output differs")
    return bad


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    reference = json.loads(REFERENCE.read_text()).get(workload, {})
    n_jobs = len(workloads.jobs_for(workload, workloads.make_inputs(workload, seed)))
    setups = []
    for k in range(SETUP_PROBES):
        probe = run_pass(workload, seed, workdir / f"setup-{k}", False, setup_only=True)
        if "setup_s" in probe:
            setups.append(probe["setup_s"])
    plain, traced, errors = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    k = 0
    while True:
        traced_pass = trace and k % 2 == 1
        began = time.monotonic()
        record = run_pass(workload, seed, workdir / f"pass-{k}", traced_pass)
        k += 1
        attempted += n_jobs
        if "failed" in record:
            failed += n_jobs
            errors.append(record["failed"])
        else:
            bad = check_jobs(record, reference)
            failed += len(bad)
            errors.extend(bad)
            (traced if traced_pass else plain).append(record)
            if not traced_pass:
                setups.append(record["setup_s"])
        # start another pass only if it should end within --seconds
        now = time.monotonic()
        done = now - start + (now - began) > seconds
        if done and (not trace or k >= 2):
            break
    return {"plain": plain, "traced": traced, "setups": setups, "attempted": attempted,
            "failed": failed, "errors": errors}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(res: dict) -> dict[str, list[float]]:
    plain = res["plain"]
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": res["setups"],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


def per_layer(res: dict) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {name: [] for name in LAYER_UNITS}
    for record in res["traced"]:
        trace = record["trace"]
        fns, counters = trace["functions"], trace["counters"]
        for layer in LAYERS:
            mine = [v for key, v in fns.items() if key.split(".", 1)[0] == layer]
            samples[f"{layer}.self_s"].append(sum(v[2] for v in mine))
            if f"{layer}.calls" in samples:
                samples[f"{layer}.calls"].append(sum(v[0] for v in mine))
        samples["partitions.is_t_core_calls"].append(fns.get("partitions.is_t_core", [0])[0])
        samples["partitions.sequences_yielded"].append(fns.get("partitions.descending_odd_sequences", [0] * 4)[3])
        samples["abacus.cores_enumerated"].append(fns.get("abacus.t_cores_up_to", [0] * 4)[3])
        for name in ("series.distinct_rows", "series.max_n", "growth.ns_audited", "cache.loads",
                     "cache.hits", "cache.misses", "cache.recomputed", "cache.bytes_read",
                     "cache.bytes_written", "cli.startup_s", "cli.processes"):
            samples[name].append(counters.get(name, 0))
    roundtrips = [ns / 1e3 for r in res["plain"] for ns in r.get("roundtrip_ns", [])]
    samples["abacus.roundtrip_us.p50"] = [median(roundtrips)]
    spread = tail(roundtrips)
    samples["abacus.roundtrip_us.tail"] = [spread[1] if spread else 0.0]
    walls = [r["wall_s"] for r in res["plain"]]
    samples["trace.overhead_ratio"] = [median([r["wall_s"] for r in res["traced"]]) / median(walls)] if walls else []
    return samples


def summarise(workload: str, res: dict, trace: bool, env: dict) -> dict:
    """Print the table for one workload; return its record (the --out line)."""
    samples = per_layer(res) if trace else end_to_end(res)
    units = LAYER_UNITS if trace else UNITS
    metrics = {name: median(vals) for name, vals in samples.items()}
    error_rate = res["failed"] / res["attempted"]
    print(f"== {workload}  seed={env['seed']}  passes={len(res['plain'])} untraced"
          f" + {len(res['traced'])} traced  python={env['python']}  nproc={env['nproc']}  git={env['git']}")
    print(f"{'metric':32} {'median':>14} {'unit':6} {'tail':>22} {'n':>4}")
    for name, vals in samples.items():
        spread = tail(vals)
        shown = f"{spread[0]}={spread[1]:.6g}" if spread else "-"
        print(f"{name:32} {metrics[name]:14.6g} {units[name]:6} {shown:>22} {len(vals):4d}")
    print(f"{'error_rate':32} {error_rate:14.6g} {'ratio':6} {'-':>22} {res['attempted']:4d}")
    for err in res["errors"]:
        print(f"   FAILED {err}")
    jobs: dict[str, list[float]] = {}
    for record in res["plain"]:
        for job in record["jobs"]:
            jobs.setdefault(job["name"], []).append(job["ms"])
    return {"workload": workload, "trace": int(trace), "env": env, "attempted": res["attempted"],
            "failed": res["failed"], "error_rate": error_rate,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            "samples": samples,
            "job_ms": {name: median(ms) for name, ms in jobs.items()}}


def environment(seed: int, seconds: float) -> dict:
    git = "unknown"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git": git, "seed": seed, "seconds": seconds}


# ---------------------------------------------------------------------------
# compare and reference modes
# ---------------------------------------------------------------------------

def compare(old_path: str, new_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def load(path):
        groups: dict[tuple, dict[str, list[float]]] = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                group = groups.setdefault((rec["workload"], rec["trace"]), {})
                for name, m in rec["metrics"].items():
                    group.setdefault(name, []).append(m["value"])
        return groups

    old, new = load(old_path), load(new_path)
    worse = 0
    print(f"{'workload':14} {'metric':30} {'old':>12} {'new':>12} {'new/old':>8}  verdict")
    for key in sorted(set(old) & set(new)):
        for name in old[key]:
            if name not in new[key]:
                continue
            a, b = median(old[key][name]), median(new[key][name])
            ratio = b / a if a else float("nan")
            verdict = "info"
            if name in bounds and a:
                m = bounds[name]
                change = ratio - 1 if m["better"] == "lower" else 1 - ratio
                verdict = f"WORSE (> {m['bound']:g})" if change > m["bound"] else "within bound"
                worse += change > m["bound"]
            print(f"{key[0]:14} {name:30} {a:12.6g} {b:12.6g} {ratio:8.4f}  {verdict}")
    return 1 if worse else 0


def record_reference(workdir: Path) -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        record = run_pass(workload, REFERENCE_SEED, workdir / workload, False)
        if "failed" in record:
            print(record["failed"], file=sys.stderr)
            return 1
        errors = [j for j in record["jobs"] if j["error"]]
        if errors:
            print(f"{workload}: jobs crashed or failed their oracle: {errors}", file=sys.stderr)
            return 1
        reference[workload] = {j["name"]: {"code": j["code"], "digest": j["digest"]}
                               for j in record["jobs"] if not j["seeded"]}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run's record (one JSON line per workload)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "sccore" / "__init__.py").exists():
        print(f"sccore sources not found under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        if args.record_reference:
            return record_reference(workdir)
        env = environment(args.seed, seconds)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for k, workload in enumerate(names):
            res = run_workload(workload, args.seed, seconds, bool(args.trace), workdir / str(k))
            if not res["plain"]:
                print(f"{workload}: no pass completed: {res['errors'][:3]}", file=sys.stderr)
                return 1
            records.append(summarise(workload, res, bool(args.trace), env))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    if args.out:
        with open(args.out, "a") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
