"""Row-digest pin: the sha256 of every pinned series row, built fresh and as a prefix.

The pinned rows are p, sc, phat_t for t in PHAT_TS, and c_t, sc_t and nsc_t
for t = 2..101, each at every N in NS.  A row's digest is the sha256 of its
coefficients written in decimal and joined by commas.  The data file names
the commit whose code the digests were recorded from.  A digest changes only
with a change that names each changed row and says why; it is never
re-recorded to make a failing check pass.

Usage (from the repository root):
  PYTHONPATH=src python tests/test_row_digests.py COMMIT   # rewrite tests/data/row_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from sccore import series as se

DATA = Path(__file__).resolve().parent / "data" / "row_digests.json"
NS = (0, 1, 7, 300, 3000)
TS = range(2, 102)
PHAT_TS = (1, 2, 3)


def row_digest(row: tuple[int, ...]) -> str:
    return hashlib.sha256(",".join(map(str, row)).encode()).hexdigest()


def digests(n: int) -> dict[str, str]:
    """Row name -> digest of every pinned row at n, served by the store as it stands."""
    rows = {"p": se.p_coeffs(n), "sc": se.sc_coeffs(n)}
    rows.update((f"phat {t}", se.phat_coeffs(t, n)) for t in PHAT_TS)
    for name, build in (("c_t", se.c_t_coeffs), ("sc_t", se.sc_t_coeffs), ("nsc_t", se.nsc_t_coeffs)):
        rows.update((f"{name} {t}", build(t, n)) for t in TS)
    return {name: row_digest(row) for name, row in rows.items()}


def fresh_digests(n: int) -> dict[str, str]:
    se.clear_series_caches()
    return digests(n)


def test_rows_built_fresh_and_as_prefixes_keep_their_digests():
    pinned = json.loads(DATA.read_text())["rows"]
    # every N below the largest: fresh, then as a prefix of the largest N's rows
    for n in NS[:-1]:
        assert fresh_digests(n) == pinned[str(n)], n
    assert fresh_digests(NS[-1]) == pinned[str(NS[-1])], NS[-1]
    for n in NS[:-1]:
        assert digests(n) == pinned[str(n)], ("prefix", n)
    se.clear_series_caches()


def record(commit: str) -> None:
    rows = {str(n): fresh_digests(n) for n in NS}
    DATA.write_text(json.dumps({"recorded_from": commit, "rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    record(sys.argv[1])
