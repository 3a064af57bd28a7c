from __future__ import annotations

from sccore.cli import main
from sccore.series import sc_t_coeffs


def _regenerate(kind: str, tmp_path, nmax=60, tmax=62) -> dict[tuple[str, int], int]:
    out = tmp_path / f"{kind}.csv"
    assert main(["table", kind, "--nmax", str(nmax), "--tmax", str(tmax),
                 "--format", "csv", "--out", str(out)]) == 0
    cells = {}
    for row in out.read_text().strip().splitlines()[1:]:
        label, n, v = row.split(",")
        cells[(label, int(n))] = int(v)
    return cells


class TestDifferenceTables:
    def test_odd_block_matches_print(self, table2_odd_printed, tmp_path):
        """The printed odd-difference rows carry the labels they claim."""
        ours = _regenerate("sc-diff-odd", tmp_path)
        for (label, n), v in table2_odd_printed.items():
            assert ours[(label, n)] == v, (label, n)

    def test_even_block_matches_print_under_shifted_labels(
        self, table2_even_printed, tmp_path
    ):
        """The printed even-difference rows are mislabeled by one step:
        the row labeled (2k)-(2k-2) holds the values of sc_{2k+2} - sc_{2k}.
        The regenerated table (straight from the counts) is authoritative;
        this maps the printed labels onto it and demands full agreement."""
        ours = _regenerate("sc-diff-even", tmp_path)
        for (label, n), v in table2_even_printed.items():
            a, b = (int(x) for x in label.split("-"))
            assert ours[(f"{a + 2}-{b + 2}", n)] == v, (label, n)

    def test_even_block_fails_as_printed(self, table2_even_printed, tmp_path):
        """Control: taking the printed even labels literally disagrees in
        hundreds of cells, so the shifted reading is not vacuous."""
        ours = _regenerate("sc-diff-even", tmp_path)
        bad = sum(
            1 for (label, n), v in table2_even_printed.items() if ours[(label, n)] != v
        )
        assert bad > 300

    def test_diff_values_are_differences(self, tmp_path):
        ours = _regenerate("sc-diff-even", tmp_path, nmax=30, tmax=16)
        for (label, n), v in ours.items():
            a, b = (int(x) for x in label.split("-"))
            assert v == sc_t_coeffs(a, 30)[n] - sc_t_coeffs(b, 30)[n]


class TestPrintedConvention:
    def test_rows_start_at_t_minus_2(self, tmp_path):
        """Row t of the sc table starts at n = t - 2, difference row a-b at n = b - 2."""
        cells = _regenerate("sc", tmp_path, nmax=20, tmax=24)
        assert set(cells) == {(str(t), n) for t in range(2, 25) for n in range(max(0, t - 2), 21)}
        diff = _regenerate("sc-diff-odd", tmp_path, nmax=20, tmax=24)
        assert set(diff) == {(f"{b + 2}-{b}", n) for b in range(3, 23, 2) for n in range(b - 2, 21)}
