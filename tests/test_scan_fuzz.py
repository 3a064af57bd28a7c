"""Scan command lines drawn from the scan mode table end in a documented exit
code, never in a traceback, and a usage error is one line on stderr.

Each example picks a mode of `cli._SCAN_OPTIONS`, a subset of the options it
reads and at most one option it does not read, with small values: sizes up to
40 and core sizes up to 9, with 0 and negatives allowed.  The option that names
the mode and --nmax are always given where the mode reads them, so no scan
runs at its default size of 400.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings, strategies as st

from sccore import cli

SIZE = st.integers(-3, 40)
CORE = st.integers(-2, 9)
VALUES = {
    "t": CORE, "s": CORE, "pair": CORE, "tmax": CORE, "workers": CORE,
    "a": CORE, "b": CORE, "a2": CORE, "b2": CORE,
    "nmax": SIZE, "nlo": SIZE, "ncap": SIZE,
    "range": st.builds("{}..{}".format, SIZE, SIZE),
    "alpha": st.sampled_from(["2", "19/10", "0", "-3/2", "1/0", "x"]),
    "window": st.sampled_from(["conjecture", "theorem"]),
    "family": st.sampled_from(sorted({f for _, reads, _ in cli._SCAN_OPTIONS.values()
                                      for f in reads.get("family", ())}) + ["bogus"]),
}


def _option(opt: str):
    """The argv words of one option, drawn."""
    flag = "--" + opt.replace("_", "-")
    if opt == "non_strict":
        return st.just([flag])
    if opt == "preset":
        return st.sampled_from([[flag], *([flag, p] for p in ("all", "conjectured", "proved", "bogus"))])
    return VALUES[opt].map(lambda v: [flag, str(v)])


def _some(options: list[str], max_size: int | None = None):
    """A drawn list of distinct options, at most max_size of them."""
    return st.lists(st.sampled_from(options), unique=True, max_size=max_size) if options else st.just([])


@st.composite
def scan_argv(draw) -> list[str]:
    key = draw(st.sampled_from(sorted(cli._SCAN_OPTIONS)))
    name, _, mode = key.partition(" --")
    reads = cli._SCAN_OPTIONS[key][1]
    always = [opt for opt in (mode, "nmax") if opt in reads]
    chosen = always + draw(_some([o for o in sorted(reads) if o not in always]))
    chosen += draw(_some([o for o in cli._SCAN_DEFAULTS if o not in reads], max_size=1))
    argv = ["scan", name]
    for opt in chosen:
        argv += draw(_option(opt))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scan_argv())
def test_scan_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
