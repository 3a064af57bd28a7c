"""The package names that perfbench/ reaches for, pinned in tier-1.

The benchmark wraps functions by name (perfbench/tracer.py) and calls the
enumerate jobs and parses the CLI jobs itself (perfbench/workloads.py).  A
name removed or a signature changed there would only show in a traced
benchmark run; these tests load both files by path and check each name.
The tracer's cache counters read arguments and results as well, so they are
pinned against a traced run in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sccore.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _traced_names() -> list[tuple[str, str]]:
    named = [(layer, name) for layer, names in tracer.LAYERS.items() for name in names or ()]
    return named + [(layer, name) for layer, names in tracer.EXTRA.items() for name in names]


@pytest.mark.parametrize("layer, name", _traced_names())
def test_traced_name_is_a_function_of_its_module(layer, name):
    value = getattr(importlib.import_module(f"sccore.{layer}"), name, None)
    assert inspect.isfunction(value), f"sccore.{layer}.{name}"


def test_every_layer_is_a_module():
    for layer in tracer.LAYERS:
        importlib.import_module(f"sccore.{layer}")


# the calls of the enumerate jobs, each as (module, function, args, kwargs)
ENUMERATE_CALLS = [
    ("growth", "verify_growth", (19, 118), {"workers": 1}),
    ("formulas", "cross_validate", (12, 48), {}),
    ("analytics", "simultaneous_scan", (3, 4), {}),
    ("abacus", "t_core", ((2, 1), 2), {}),
    ("abacus", "t_quotient", ((2, 1), 2), {}),
    ("abacus", "assemble", ((1,), ((1,), ()), 2), {}),
    ("abacus", "sc_reduce_to_core", ((2, 1), 2), {}),
]


@pytest.mark.parametrize("module, name, args, kwargs", ENUMERATE_CALLS, ids=[c[1] for c in ENUMERATE_CALLS])
def test_enumerate_calls_bind(module, name, args, kwargs):
    fn = getattr(importlib.import_module(f"sccore.{module}"), name)
    inspect.signature(fn).bind(*args, **kwargs)


def test_enumerate_jobs_are_the_pinned_calls():
    # a new enumerate job needs its call pinned above
    names = [job.name for job in workloads.jobs_for("enumerate", workloads.make_inputs("enumerate", 0))]
    lo, hi = workloads.GROWTH_RANGE
    assert names == [f"growth-{lo}-{hi}", *(f"simultaneous-{s}-{t}" for s, t in workloads.SIMULTANEOUS),
                     "cross-validate-12-48", "roundtrips", "sc-reduce-to-core"]
    assert (lo, hi) == ENUMERATE_CALLS[0][2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_argv_parses(workload):
    parser = build_parser()
    for seed in range(3):
        for job in workloads.jobs_for(workload, workloads.make_inputs(workload, seed)):
            if job.argv is not None:
                parser.parse_args(job.argv)


# Runs cli.main under an installed Tracer (argv: tracer path, cache dir): a count
# on the empty cache, the same count again, the count on its file with one byte
# flipped, and `cache verify`; prints the counters as JSON.
TRACED_SESSION = """
import contextlib, importlib.util, io, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
trace = tracer.Tracer()
trace.install()
from sccore import cli
cache_dir = Path(sys.argv[2])
count = ["count", "sc_t", "--t", "6", "--n", "0..100", "--cache-dir", str(cache_dir)]
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
run(count)
run(count)
path = cache_dir / "sc_t_t6_n100.bin"
blob = bytearray(path.read_bytes())
blob[len(blob) // 2] ^= 0xFF
path.write_bytes(bytes(blob))
run(count)
run(["cache", "verify", "--cache-dir", str(cache_dir)])
print(json.dumps(trace.snapshot()["counters"]))
"""


def test_traced_cache_counters(tmp_path):
    # the tracer cannot be taken out once installed, hence the fresh interpreter
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", TRACED_SESSION, str(PERFBENCH / "tracer.py"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(proc.stdout)
    # magic, header line, 101 one-byte coefficients, sha256
    head = json.dumps({"family": "sc_t", "n": 100, "t": 6, "version": 1, "width": 1}, sort_keys=True)
    size = len(b"SCCOREC1") + len(head) + 1 + 101 + 32
    assert (tmp_path / "sc_t_t6_n100.bin").stat().st_size == size
    # reads: the hit, the corrupt file and verify; writes: the miss and the recompute
    assert {key: counters.get(key) for key in ("cache.loads", "cache.bytes_read", "cache.bytes_written",
                                               "cache.hits", "cache.misses", "cache.recomputed")} == {
        "cache.loads": 3, "cache.bytes_read": 3 * size, "cache.bytes_written": 2 * size,
        "cache.hits": 1, "cache.misses": 1, "cache.recomputed": 1}
