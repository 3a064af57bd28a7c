"""Command-line front end: exact counts, appendix-table regeneration,
conjecture scans, and the on-disk coefficient cache.

Exit codes: 0 success / scan holds; 1 usage error; 2 internal method
disagreement; 3 scan found violations (data, not a crash).

`count --method all` runs the series and every method `formulas.METHODS`
gives the family, and its `# methods agree:` line names the methods that
gave a value at some n of the request.  Each scan mode is one
`_SCAN_OPTIONS` entry: the module that runs it, the options it reads and a
runner; `cmd_scan` picks the mode once, checks the options against it and
times the runner's report.

Each command imports the layers it runs inside its handler, so a `count`
served from the cache, a `table` or a `cache purge` loads no scan,
formula or enumeration code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import OutOfRange, ResourceLimit, SCCoreError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_VIOLATIONS = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message):  # noqa: A003
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_range(text: str) -> range:
    """"13" -> range(13, 14); "0..27" -> range(0, 28); else a usage error."""
    lo, dots, hi = text.partition("..")
    try:
        r = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n or a..b, got {text!r}") from None
    if r.start < 0 or not r:
        raise argparse.ArgumentTypeError(f"need 0 <= a <= b, got {text!r}")
    return r


def _parse_count(text: str) -> int:
    """A non-negative integer, else a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _parse_fraction(text: str) -> Fraction:
    """An exact rational such as 2 or 19/10, else a usage error."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational such as 19/10, got {text!r}") from None


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

_COUNT_FAMILIES = ("sc", "c", "sc_t", "c_t", "phat", "p", "nsc_t")
# the families (after "c" -> "c_t") that take --t; the others refuse it
_T_FAMILIES = ("sc_t", "c_t", "phat", "nsc_t")


def _family(args) -> str | None:
    """The family that args name, "c" read as c_t; None, after one line on
    stderr, when --t does not fit it."""
    family = {"c": "c_t"}.get(args.family, args.family)
    if (family in _T_FAMILIES) == (args.t is not None):
        return family
    print("this family requires --t" if args.t is None else f"family {family} takes no --t", file=sys.stderr)
    return None


def cmd_count(args) -> int:
    family = _family(args)
    if family is None:
        return EXIT_USAGE
    ns = args.n
    n_cap = ns[-1]
    methods = ("series",)
    if args.method != "series":
        from . import formulas
        from .config import Limits

        has = ("series", *formulas.METHODS[family])
        if args.method not in ("all", *has):
            raise SCCoreError(f"family {args.family} has no method {args.method}; it has {', '.join(has)}")
        methods = has if args.method == "all" else (args.method,)
        tables = formulas.RecursionTables(n_cap, Limits(oracle_cap=args.oracle_cap))
    series = None
    if "series" in methods:
        from . import cache

        cache_dir = cache.chosen_dir(args.cache_dir)
        try:
            series, source = cache.load_or_compute(cache_dir, family, args.t, n_cap)
        except OSError as exc:
            series, source = cache.compute_family(family, args.t, n_cap), "computed"
            print(f"warning: cache directory {cache_dir} cannot be used ({exc.strerror}); computed without it",
                  file=sys.stderr)
        if source == "recomputed":
            print(f"warning: corrupt cache file for {family} t={args.t} n={n_cap} recomputed", file=sys.stderr)
    rows, ran = [], set()
    for n in ns:
        values: dict[str, int] = {}
        for method in methods:
            try:
                values[method] = (
                    series[n] if method == "series"
                    else formulas.method_value(method, family, args.t, n, tables)
                )
            except (OutOfRange, ResourceLimit):
                if args.method != "all":
                    raise
        ran.update(values)
        if len(set(values.values())) > 1:
            print(f"method disagreement at n={n}: {values}", file=sys.stderr)
            return EXIT_DISAGREE
        rows.append(("" if args.t is None else args.t, n, next(iter(values.values()))))
    if not _write_out(_format_rows(rows, args.format), args.out):
        return EXIT_USAGE
    if args.method == "all":
        print(f"# methods agree: {', '.join(m for m in methods if m in ran)}", file=sys.stderr)
    return EXIT_OK


def _write_out(text: str, path: str | None) -> bool:
    """Write text to path, else to stdout; for an unwritable path print one line and return False."""
    if not path:
        sys.stdout.write(text)
        return True
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _format_rows(rows, fmt: str) -> str:
    lines = []
    if fmt in ("csv", "tsv"):
        sep = "," if fmt == "csv" else "\t"
        lines.append(sep.join(("t", "n", "value")))
        lines.extend(sep.join(str(x) for x in row) for row in rows)
    elif fmt == "json":
        import json

        lines.append(json.dumps([[*row] for row in rows]))
    else:
        lines.extend(f"{row[1]} {row[2]}" if row[0] == "" else f"{row[0]} {row[1]} {row[2]}" for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_cells(kind: str, n_max: int, t_max: int) -> list[tuple[str, int, int]]:
    """(row_label, n, value) for the printed cells, read off the sc_t series.

    Printed convention: row t starts at n = t - 2, difference row a-b at n = b - 2.
    """
    from .series import sc_t_coeffs

    cells: list[tuple[str, int, int]] = []
    if kind == "sc":
        for t in range(2, t_max + 1):
            row = sc_t_coeffs(t, n_max)
            cells.extend((str(t), n, row[n]) for n in range(max(0, t - 2), n_max + 1))
    else:
        for b in range(2 if kind == "sc-diff-even" else 3, t_max - 1, 2):
            high, low = sc_t_coeffs(b + 2, n_max), sc_t_coeffs(b, n_max)
            cells.extend((f"{b + 2}-{b}", n, high[n] - low[n]) for n in range(max(0, b - 2), n_max + 1))
    return cells


def cmd_table(args) -> int:
    t_max = args.tmax if args.tmax is not None else args.nmax + 2
    cells = _table_cells(args.kind, args.nmax, t_max)
    if args.format in ("csv", "tsv"):
        text = _format_rows(cells, args.format)
    elif args.format == "json":
        import json

        table = {"kind": args.kind, "nmax": args.nmax, "tmax": t_max, "cells": [[*cell] for cell in cells]}
        text = json.dumps(table, sort_keys=True) + "\n"
    else:
        by_row: dict[str, dict[int, int]] = {}
        for label, n, v in cells:
            by_row.setdefault(label, {})[n] = v
        header = ["t\\n"] + [str(n) for n in range(args.nmax + 1)]
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for label, row in by_row.items():
            lines.append("| " + " | ".join([label] + [str(row.get(n, "")) for n in range(args.nmax + 1)]) + " |")
        text = "\n".join(lines) + "\n"
    return EXIT_OK if _write_out(text, args.out) else EXIT_USAGE


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

_REQUIRED = "required"


def _identity_preset(analytics, args) -> ScanReport:
    specs = analytics.PRINTED_IDENTITIES
    return _merge_reports("identity-printed", [analytics.identity_check(s, args.nmax) for s in specs])


def _inequality_preset(analytics, args) -> ScanReport:
    conjectured, proved = analytics.CONJECTURED_INEQUALITIES, analytics.PROVED_C7_INEQUALITIES
    specs = {"conjectured": conjectured, "proved": proved}.get(args.preset, conjectured + proved)
    return _merge_reports("inequality-preset", [analytics.inequality_check(s, args.nmax) for s in specs])


# Each scan mode, declared once as (module, options, runner).  The runner gets
# the module, imported when the scan runs, and the parsed arguments, and looks
# the scan function up in the module at that time.  options maps each option
# the mode reads, besides --json, to None (any value), _REQUIRED, or the
# values it takes, the first of them its default
# (True is the bare --preset flag).  A scan with modes has one entry per mode:
# "NAME --OPT" is NAME run with OPT given, so under --preset identity and
# inequality read no spec option, and under --range growth and distribution
# read no --nmax.  A scan refuses an option it does not read; an option left at
# its default counts as not given.
_SCAN_OPTIONS = {
    "positivity": ("analytics", {"t": _REQUIRED, "nmax": None},
                   lambda m, a: m.positivity_scan(a.t, a.nmax)),
    "characterization": ("analytics", {"t": _REQUIRED, "nmax": None},
                         lambda m, a: m.characterization_check(a.t, a.nmax)),
    "monotonicity": ("analytics", {"family": ("sc-even", "sc-odd", "c", "nsc-odd"), "window": None,
                                   "nmax": None},
                     lambda m, a: m.monotonicity_scan(a.family, a.nmax, a.window)),
    "monotonicity --pair": ("analytics", {"pair": None, "family": ("sc", "c", "nsc"), "nmax": None},
                            lambda m, a: m.compare_pair(a.pair, a.nmax, a.family)),
    "unimodality": ("analytics", {"family": ("pi", "sigma_even", "sigma_odd"), "nlo": None, "nmax": None,
                                  "ncap": None},
                    lambda m, a: m.unimodality_scan(a.family, a.nlo, a.nmax, a.ncap)),
    "identity": ("analytics", {"t": _REQUIRED, "a": _REQUIRED, "b": _REQUIRED, "a2": _REQUIRED, "b2": _REQUIRED,
                               "nmax": None},
                 lambda m, a: m.identity_check((a.t, a.a, a.b, a.a2, a.b2), a.nmax)),
    "identity --preset": ("analytics", {"preset": (True,), "nmax": None}, _identity_preset),
    "inequality": ("analytics", {"family": ("sc", "c"), "t": _REQUIRED, "a": _REQUIRED, "b": _REQUIRED,
                                 "alpha": _REQUIRED, "nlo": None, "non_strict": None, "nmax": None},
                   lambda m, a: m.inequality_check(m.InequalitySpec(
                       a.family, a.t, a.a, a.b, a.alpha, a.nlo, strict=not a.non_strict), a.nmax)),
    "inequality --preset": ("analytics", {"preset": (True, "all", "conjectured", "proved"), "nmax": None},
                            _inequality_preset),
    "growth": ("growth", {"nmax": None, "workers": None}, lambda m, a: m.verify_growth(19, a.nmax)),
    "growth --range": ("growth", {"range": None, "workers": None},
                       lambda m, a: m.verify_growth(a.range.start, a.range.stop - 1)),
    "distribution": ("analytics", {"nmax": None}, lambda m, a: m.distribution_scan(a.nmax, a.nmax)),
    "distribution --range": ("analytics", {"range": None},
                             lambda m, a: m.distribution_scan(a.range.start, a.range.stop - 1)),
    "simultaneous": ("analytics", {"s": _REQUIRED, "t": _REQUIRED}, lambda m, a: m.simultaneous_scan(a.s, a.t)),
    "cross-validate": ("formulas", {"tmax": None, "nmax": None},
                       lambda m, a: m.cross_validate(12 if a.tmax is None else a.tmax, a.nmax)),
}
_SCANS = tuple(name for name in _SCAN_OPTIONS if " " not in name)
# every option a scan may read, in the order they are checked, with its default
_SCAN_DEFAULTS = {
    "preset": None, "family": None, "t": None, "s": None, "pair": None, "window": "conjecture",
    "nmax": 400, "nlo": 0, "ncap": None, "tmax": None, "range": None, "a": None, "b": None,
    "a2": None, "b2": None, "alpha": None, "non_strict": False, "workers": None,
}


def _scan_mode(args) -> str:
    """The _SCAN_OPTIONS key these arguments run: "NAME --OPT" when NAME has
    that mode and OPT is given, else NAME."""
    for key in _SCAN_OPTIONS:
        name, _, opt = key.partition(" --")
        if name == args.name and opt and getattr(args, opt) is not None:
            return key
    return args.name


def _scan_usage_error(args, reads: dict) -> str | None:
    """Why these arguments cannot run the scan mode that reads these options, or None."""
    name = args.name
    for opt, default in _SCAN_DEFAULTS.items():
        if opt not in reads and getattr(args, opt) != default:
            return f"scan {name} takes no --{opt.replace('_', '-')}"
    if args.preset not in (None, *reads.get("preset", ())):
        values = ", ".join(p for p in reads["preset"] if p is not True)
        hint = f"choose from {values}" if values else "it takes no value"
        return f"unknown preset {args.preset!r} for scan {name}; {hint}"
    missing = [f"--{opt}" for opt, spec in reads.items() if spec is _REQUIRED and getattr(args, opt) is None]
    if missing:
        return f"scan {name} requires {', '.join(missing)}"
    if name == "cross-validate" and args.tmax is not None and args.tmax < 2:
        return f"scan cross-validate needs --tmax >= 2, got {args.tmax}"
    if args.pair is not None and args.pair < 1:
        return f"scan {name} needs --pair >= 1, got {args.pair}"
    if args.family not in (None, *reads.get("family", ())):
        return f"unknown family {args.family!r} for scan {name}; choose from {', '.join(reads['family'])}"
    return None


def _merge_reports(name: str, parts: list[ScanReport]) -> ScanReport:
    """One report over the parts: their witnesses, and each part's verdict keyed by its index and params."""
    from .reports import ScanReport

    verdicts = {f"{i}:{r.params}": r.verdict for i, r in enumerate(parts)}
    witnesses = [w for r in parts for w in r.witnesses]
    return ScanReport(name, {"parts": len(parts)}, witnesses, {"verdicts": verdicts})


def cmd_scan(args) -> int:
    if args.name not in _SCANS:
        print(f"unknown scan {args.name!r}; choose from {', '.join(_SCANS)}", file=sys.stderr)
        return EXIT_USAGE
    module, reads, runner = _SCAN_OPTIONS[_scan_mode(args)]
    problem = _scan_usage_error(args, reads)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    if "family" in reads and args.family is None:
        args.family = reads["family"][0]
    import importlib

    from .reports import HOLDS, timed

    try:
        report = timed(runner)(importlib.import_module(f"{__package__}.{module}"), args)
    except SCCoreError as exc:
        print(f"scan error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not _write_out(report.to_json(), args.json):
        return EXIT_USAGE
    summary = f"# {report.scan}: {report.verdict} ({len(report.witnesses)} witnesses, {report.elapsed_ms} ms)"
    print(summary, file=sys.stderr)
    return EXIT_OK if report.verdict == HOLDS else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def cmd_cache(args) -> int:
    from . import cache

    cache_dir = cache.chosen_dir(args.cache_dir) or Path.home() / ".cache" / "sccore"
    if args.action != "build" and cache_dir.exists() and not cache_dir.is_dir():
        print(f"cannot {args.action} {cache_dir}: not a directory", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "purge":
        removed = cache.purge(cache_dir)
        print(f"removed {removed} cache files")
        return EXIT_OK
    if args.action == "build":
        family = _family(args)
        if family is None:
            return EXIT_USAGE
        ts = list(args.t) if args.t else [None]
        for t in ts:
            coeffs = cache.compute_family(family, t, args.nmax)
            try:
                path = cache.write_cache(cache_dir, family, t, args.nmax, coeffs)
            except OSError as exc:
                print(f"cannot write cache to {cache_dir}: {exc.strerror}", file=sys.stderr)
                return EXIT_USAGE
            print(f"wrote {path}")
        return EXIT_OK
    files = sorted(Path(cache_dir).glob("*.bin"))
    if not files:
        print("no cache files")
        return EXIT_OK
    ok = True
    for f in files:
        try:
            sampled, bad = cache.verify_file(f)
        except SCCoreError as exc:
            print(f"{f}: corrupt ({exc}); will recompute on next use")
            continue
        status = f"MISMATCH {bad[:5]}" if bad else "ok"
        ok = ok and not bad
        print(f"{f}: {status} (sampled {sampled})")
    return EXIT_OK if ok else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="sccore", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="exact values of a counting family")
    c.add_argument("family", choices=_COUNT_FAMILIES)
    c.add_argument("--t", type=int)
    c.add_argument("--n", required=True, type=_parse_range, help="single n or range a..b")
    c.add_argument("--method", default="series",
                   choices=("series", "recursive", "closed", "large", "oracle", "all"))
    c.add_argument("--format", default="text", choices=("text", "csv", "tsv", "json"))
    c.add_argument("--out")
    c.add_argument("--oracle-cap", type=int, default=200)
    c.add_argument("--cache-dir", help="coefficient cache directory (env SCCORE_CACHE_DIR)")
    c.set_defaults(func=cmd_count)

    t = sub.add_parser("table", help="regenerate the appendix tables")
    t.add_argument("kind", choices=("sc", "sc-diff-even", "sc-diff-odd"))
    t.add_argument("--nmax", type=_parse_count, required=True)
    t.add_argument("--tmax", type=int)
    t.add_argument("--format", default="csv", choices=("csv", "tsv", "json", "md"))
    t.add_argument("--out")
    t.set_defaults(func=cmd_table)

    s = sub.add_parser("scan", help="run a verification scan, emit a JSON report")
    s.add_argument("name")
    s.add_argument("--t", type=int)
    s.add_argument("--s", type=int)
    s.add_argument("--family")
    s.add_argument("--pair", type=int, help="monotonicity: compare sc_{pair+2} vs sc_pair")
    s.add_argument("--window", default=_SCAN_DEFAULTS["window"], choices=("conjecture", "theorem"))
    s.add_argument("--nmax", type=_parse_count, default=_SCAN_DEFAULTS["nmax"])
    s.add_argument("--nlo", type=int, default=_SCAN_DEFAULTS["nlo"])
    s.add_argument("--ncap", type=int)
    s.add_argument("--tmax", type=int)
    s.add_argument("--range", type=_parse_range, help="a..b")
    s.add_argument("--a", type=int)
    s.add_argument("--b", type=int)
    s.add_argument("--a2", type=int)
    s.add_argument("--b2", type=int)
    s.add_argument("--alpha", type=_parse_fraction, help="exact rational threshold, e.g. 19/10")
    s.add_argument("--non-strict", action="store_true")
    s.add_argument("--preset", nargs="?", const=True)
    s.add_argument("--json", help="write the JSON report to this path")
    s.add_argument("--workers", type=int, help="growth: accepted and ignored, the audit runs in-process")
    s.set_defaults(func=cmd_scan)

    k = sub.add_parser("cache", help="build / verify / purge the coefficient cache")
    k.add_argument("action", choices=("build", "verify", "purge"))
    k.add_argument("--family", default="sc_t", choices=_COUNT_FAMILIES)
    k.add_argument("--t", type=_parse_range, help="single t or range a..b")
    k.add_argument("--nmax", type=_parse_count, default=10000)
    k.add_argument("--cache-dir", help="coefficient cache directory (env SCCORE_CACHE_DIR, else ~/.cache/sccore)")
    k.set_defaults(func=cmd_cache)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SCCoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
