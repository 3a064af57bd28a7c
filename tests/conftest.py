from __future__ import annotations

import csv
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def table1_reference() -> dict[tuple[int, int], int]:
    """Published sc_t(n) reference values, 2 <= t <= 50, t-2 <= n <= 60."""
    out = {}
    with open(DATA / "sc_t_table_reference.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            out[(int(row["t"]), int(row["n"]))] = int(row["value"])
    return out


def _diff_fixture(name: str) -> dict[tuple[str, int], int]:
    out = {}
    with open(DATA / name, newline="") as fh:
        for row in csv.DictReader(fh):
            out[(row["row_label"], int(row["n"]))] = int(row["value"])
    return out


@pytest.fixture(scope="session")
def growth_19_150():
    """The growth audit on [19, 150], run once for c10 and the data pin."""
    from sccore.growth import verify_growth

    return verify_growth(19, 150, workers=2)


@pytest.fixture(scope="session")
def table2_even_printed() -> dict[tuple[str, int], int]:
    return _diff_fixture("sc_diff_even_printed.csv")


@pytest.fixture(scope="session")
def table2_odd_printed() -> dict[tuple[str, int], int]:
    return _diff_fixture("sc_diff_odd_printed.csv")


def acceptance_line(num: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {state}: {detail}")
