"""One pass of one workload in a fresh process (started by run.py).

Usage:
  python3 perfbench/passrun.py --workload W --seed S --work DIR --spawn T
                               --result FILE [--trace 0|1] [--setup-only]

Set-up is everything before the first job: this process starting, `import
sccore`, the seeded inputs and the pass's empty cache directory.  `--spawn`
is the parent's CLOCK_MONOTONIC reading just before it started this process,
so set-up time includes the interpreter start.  The pass then runs every job
of the workload once, in order, one at a time, and writes its timings, exit
codes, output digests and (traced) span aggregates to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_TIMEOUT_S = 150


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import sccore.cli  # noqa: F401  (imports every layer)
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    jobs = workloads.jobs_for(args.workload, inputs)
    work = Path(args.work)
    cache_dir = work / "cache"
    cache_dir.mkdir()
    os.environ["SCCORE_CACHE_DIR"] = str(cache_dir)
    runner = Runner(args.workload, work, bool(args.trace))
    setup_s = time.monotonic() - args.spawn
    setup_cpu = cpu_seconds()
    result = {"setup_s": setup_s, "setup_cpu_s": setup_cpu}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace and args.workload != "cli-session":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outputs, records = {}, []
    first = last = None
    for job in jobs:
        start = time.monotonic()
        code, text, error = runner.run(job)
        end = time.monotonic()
        first = start if first is None else first
        last = end
        outputs[job.name] = (code, workloads.normalise(job, text, str(cache_dir)))
        records.append({"name": job.name, "code": code, "ms": (end - start) * 1e3,
                        "seeded": job.check is not None, "error": error})
    for job, rec in zip(jobs, records):
        code, text = outputs[job.name]
        rec["digest"] = workloads.digest(code, text)
        if rec["error"] is None and job.check is not None:
            rec["error"] = job.check(outputs)
    result.update({
        "wall_s": last - first,
        "jobs": records,
        "roundtrip_ns": runner.ctx.get("roundtrip_ns", []),
    })
    if tracer:
        result["trace"] = tracer.snapshot()
    elif args.trace:
        result["trace"] = runner.child_trace()
    Path(args.result).write_text(json.dumps(result))
    return 0


class Runner:
    """Runs a job in this process (cli.main or a module call) or as `python -m sccore`."""

    def __init__(self, workload: str, work: Path, trace: bool):
        import sccore

        self.sccore = sccore
        self.workload = workload
        self.work = work
        self.trace = trace
        self.ctx: dict = {}
        self.spans: list[Path] = []
        (work / "reports").mkdir()

    def run(self, job) -> tuple[int, str, str | None]:
        """(exit code, output text, error or None)."""
        if job.call is not None:
            try:
                code, text = job.call(self.sccore, self.ctx)
            except Exception:  # a crash is a failed job, not a failed pass
                return -1, "", traceback.format_exc()
            return code, text, None
        if self.workload == "cli-session":
            return self._process(job)
        return self._in_process(job)

    def _in_process(self, job) -> tuple[int, str, str | None]:
        report = self.work / "reports" / f"{job.name}.json"
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.sccore.cli.main([*job.argv, "--json", str(report)])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code, error = -1, traceback.format_exc()
        text = out.getvalue() + "--- report ---\n" + (report.read_text() if report.exists() else "")
        return code, text, error

    def _process(self, job) -> tuple[int, str, str | None]:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if self.trace:
            spans = self.work / f"spans-{len(self.spans)}.json"
            self.spans.append(spans)
            cmd = [sys.executable, str(HERE / "cli_boot.py"), str(spans), *job.argv]
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        else:
            cmd = [sys.executable, "-m", "sccore", *job.argv]
        try:
            proc = subprocess.run(cmd, env=env, cwd=self.work, capture_output=True,
                                  text=True, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return -1, "", f"timed out after {JOB_TIMEOUT_S} s"
        error = None
        if "Traceback (most recent call last)" in proc.stderr:
            error = proc.stderr.strip().splitlines()[-1]
        return proc.returncode, proc.stdout, error

    def child_trace(self) -> dict:
        from tracer import merge

        snaps = [json.loads(p.read_text()) for p in self.spans if p.exists()]
        merged = merge(snaps)
        starts = sorted(s["counters"].get("cli.startup_s", 0.0) for s in snaps)
        merged["counters"]["cli.processes"] = len(snaps)
        merged["counters"]["cli.startup_s"] = starts[len(starts) // 2] if starts else 0.0
        return merged


if __name__ == "__main__":
    sys.exit(main())
