"""The golden replay corpus: CLI commands with their recorded exit code and output.

Usage (from the repository root):
  PYTHONPATH=src python tests/record_golden.py   # rewrite tests/data/golden/corpus.json

The corpus is a list of groups.  Each group is a sequence of `sccore`
command lines run in-process through `cli.main`, in order, against one fresh
cache directory (given as SCCORE_CACHE_DIR) and one scratch directory for
output files.  Each run records the exit code, stdout, stderr and the files
written through `--out`/`--json`.  Texts are normalised before they are
stored or compared: report `elapsed_ms` and the milliseconds of the scan
summary line are set to 0, the cache directory becomes `<CACHE>` and the
scratch directory `<TMP>`.  A text longer than `INLINE` characters is kept
as its sha256 digest and length.  `tests/test_golden.py` replays the corpus
and asserts every run reproduces its record.

The scan-battery and cli-session groups take their command lines from
perfbench/workloads.py (cli-session with the seed-0 queries), so the corpus
follows the benchmark's jobs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "golden" / "corpus.json"
INLINE = 2000

ELAPSED = re.compile(r'"elapsed_ms": -?\d+')
SUMMARY_MS = re.compile(r"(^# [^\n]*witnesses, )-?\d+ ms\)", re.M)
OUTPUT_FLAGS = ("--out", "--json")


def _workload_argvs() -> dict[str, list[list[str]]]:
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    return {
        name: [job.argv for job in workloads.jobs_for(name, workloads.make_inputs(name, 0))]
        for name in ("scan-battery", "cli-session")
    }


def _groups() -> dict[str, list[list[str]]]:
    """Group name -> command lines; `<TMP>` stands for the group's scratch directory."""
    groups = _workload_argvs()
    groups["readme"] = [line.split() for line in (
        "count sc_t --t 6 --n 13",
        "count sc --n 0..27 --format csv",
        "count sc_t --t 4 --n 10 --method all",
        "table sc --nmax 60 --tmax 62 --format csv --out <TMP>/table.csv",
        "table sc-diff-even --nmax 60 --format md",
        "scan positivity --t 6 --nmax 10000",
        "scan monotonicity --family sc-odd --nmax 1000 --window theorem --json <TMP>/rep.json",
        "scan growth --range 19..150",
        "scan simultaneous --s 7 --t 8",
        "cache build --family sc_t --t 2..30 --nmax 10000",
        "cache verify",
        "cache purge",
    )]
    groups["bad-inputs"] = [line.split() for line in (
        "count phat --t 0 --n 5",
        "count c_t --t 0 --n 5",
        "scan positivity --t 6 --nmax -5",
        "table sc --nmax -5",
        "scan positivity",
        "scan identity --t 5",
        "scan inequality --t 9 --a 4 --b 0 --alpha x",
        "scan unimodality --family bogus",
        "scan monotonicity --family bogus",
        "scan simultaneous --s 1 --t 2",
        "scan monotonicity --pair 0 --family c --nmax 10",
        "scan identity --t 5 --a 2 --b -3 --a2 1 --b2 0 --nmax 10",
        "scan inequality --t 9 --a 1 --b -5 --alpha 1 --nmax 20",
        "scan unimodality --family pi --nmax 100 --ncap 50",
        *(f"count sc_t --t {t} --n 0..8 --method {m}" for m in ("recursive", "closed") for t in (-2, 0, 1)),
        "count sc_t --t 0 --n 5 --method oracle",
        "count c_t --t 0 --n 5 --method oracle",
        "count sc_t --t 1 --n 5 --method oracle",
        *(f"scan cross-validate --tmax {t} --nmax 5" for t in ("0", "1", "-3")),
        "count sc_t --t 4 --n 104 --method closed",
        "count sc_t --t 5 --n 65 --method closed",
        "count sc --n 5 --out <TMP>/missing/out.txt",
        "scan positivity --t 6 --nmax 20 --json <TMP>/missing/out.txt",
        "table sc --nmax 4 --out <TMP>/missing/out.txt",
        "scan inequality --preset bogus --nmax 20",
        "scan identity --preset bogus --nmax 20",
        "scan identity --preset all --nmax 20",
        *(f"cache build --family {f} --nmax 10" for f in ("sc_t", "c", "c_t", "phat", "nsc_t")),
        "count sc --t 3 --n 5",
        "count p --t 3 --n 5",
        "cache build --family sc --t 3 --nmax 10",
        "cache build --family p --t 2..4 --nmax 10",
        "scan positivity --t 6 --nmax 20 --preset bogus --family nope",
        "scan positivity --t 6 --nmax 20 --family nope",
        "scan growth --range 19..20 --preset",
        "scan identity --preset --family sc --nmax 20",
        "scan growth --range 19..20 --workers 2",
        *(f"scan monotonicity --pair {pair} --nmax 10{fam}"
          for fam in ("", " --family sc", " --family c", " --family nsc") for pair in ("0", "-2")),
        # options only `count` (--oracle-cap) or `count` and `cache` (--cache-dir) take
        "table sc --nmax 4 --cache-dir <TMP>/D",
        "scan positivity --t 6 --nmax 20 --oracle-cap 5",
        "cache purge --oracle-cap 5",
        # one oracle cap, one wording, for every family
        *(f"count {fam} --n 260 --method oracle" for fam in ("sc", "p", "c_t --t 5", "sc_t --t 5")),
        # --cache-dir naming a regular file, which the first command writes
        "count sc --n 5 --out <TMP>/plain",
        "cache verify --cache-dir <TMP>/plain",
        "cache purge --cache-dir <TMP>/plain",
        "count nsc_t --t 1 --n 3",
    )]
    groups["unread-options"] = [line.split() for line in (
        "scan growth --range 19..20 --t 5 --pair 3 --s 2",
        "scan monotonicity --pair 3 --window theorem --nmax 50",
        "scan positivity --t 6 --nmax 20 --alpha 3/2 --range 1..3",
        "scan unimodality --family pi --nmax 30 --tmax 4",
        "scan identity --preset --t 5 --a 2 --nmax 20",
        "scan inequality --preset --t 5 --nmax 20",
        "scan growth --range 19..20 --nmax 50",
        "scan distribution --range 3..5 --nmax 50",
    )]
    groups["scan-modes"] = [line.split() for line in (
        "scan identity --t 5 --a 2 --b 1 --a2 1 --b2 0 --nmax 200",
        "scan inequality --family c --t 7 --a 2 --b 2 --alpha 2 --non-strict --nmax 200",
        "scan inequality --t 9 --a 4 --b 1 --alpha 19/10 --nlo 1 --nmax 200",
        *(f"scan inequality --preset {preset} --nmax 200" for preset in ("conjectured", "proved", "all")),
        "scan growth --nmax 40",
        "scan distribution --nmax 20",
        "scan cross-validate --tmax 6 --nmax 30",
        "scan monotonicity --family c --nmax 60",
        # c and nsc-odd have one window each, so a theorem window is refused
        "scan monotonicity --family c --window theorem --nmax 60",
        "scan monotonicity --family nsc-odd --window theorem --nmax 60",
    )]
    groups["method-all"] = [["count", "sc_t", "--t", str(t), "--n", "0..60", "--method", "all"]
                            for t in range(2, 26)]
    # the agree line names only the methods that gave a value: past the oracle
    # cap, the closed form's budget or the large-t range a method gives none
    groups["method-all"] += [line.split() for line in (
        "count sc --n 12 --method all --oracle-cap 10",
        "count sc_t --t 4 --n 104 --method all",
        "count sc_t --t 2 --n 60 --method all",
    )]
    groups["table-formats"] = [["table", kind, "--nmax", "30", "--format", fmt]
                               for kind in ("sc", "sc-diff-even", "sc-diff-odd")
                               for fmt in ("csv", "tsv", "json", "md")]
    return groups


def fold(text: str) -> str:
    """The text itself when short, else its digest and length."""
    if len(text) <= INLINE:
        return text
    return f"sha256:{hashlib.sha256(text.encode()).hexdigest()} ({len(text)} chars)"


def run(argv: list[str], cache_dir: Path, tmp: Path) -> dict:
    """One command through cli.main; its normalised, folded record."""
    from sccore.cli import main

    argv = [a.replace("<TMP>", str(tmp)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get("SCCORE_CACHE_DIR")
    os.environ["SCCORE_CACHE_DIR"] = str(cache_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if old is None:
            del os.environ["SCCORE_CACHE_DIR"]
        else:
            os.environ["SCCORE_CACHE_DIR"] = old

    def norm(text: str) -> str:
        text = text.replace(str(cache_dir), "<CACHE>").replace(str(tmp), "<TMP>")
        return fold(SUMMARY_MS.sub(r"\g<1>0 ms)", ELAPSED.sub('"elapsed_ms": 0', text)))

    files = {}
    for flag, value in zip(argv, argv[1:]):
        if flag in OUTPUT_FLAGS and Path(value).is_file():
            files[norm(value)] = norm(Path(value).read_text())
    return {"code": code, "stdout": norm(out.getvalue()), "stderr": norm(err.getvalue()), "files": files}


def replay(commands: list[list[str]]) -> list[dict]:
    """Records of the commands, run in order against one fresh cache and scratch directory."""
    with tempfile.TemporaryDirectory() as root:
        cache_dir, tmp = Path(root) / "cache", Path(root) / "tmp"
        cache_dir.mkdir()
        tmp.mkdir()
        return [run(argv, cache_dir, tmp) for argv in commands]


def record() -> list[dict]:
    return [{"group": name, "runs": [{"argv": argv, **rec} for argv, rec in zip(commands, replay(commands))]}
            for name, commands in _groups().items()]


if __name__ == "__main__":
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {CORPUS}")
