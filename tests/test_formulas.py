from __future__ import annotations

import pytest

from sccore import formulas as fm
from sccore.config import Limits
from sccore.errors import MissingTable, OutOfRange, ResourceLimit
from sccore.series import sc_coeffs, sc_t_coeffs


@pytest.fixture(scope="module")
def tables():
    return fm.RecursionTables(600)


class TestRecursions:
    def test_even_examples(self, tables):
        assert fm.sc_even_recursive(2, 10, tables) == 2
        assert fm.sc_even_recursive(2, 12, tables) == 1
        # below 4t the sum is empty, so the value is sc(n)
        sc = sc_coeffs(20)
        for t, n in ((3, 11), (5, 19), (4, 7)):
            assert fm.sc_even_recursive(t, n, tables) == sc[n]

    def test_odd_examples(self, tables):
        assert fm.sc_odd_recursive(1, 8, tables) == 1
        assert fm.sc_odd_recursive(4, 8, tables) == 2
        assert fm.sc_odd_recursive(2, 4, tables) == sc_coeffs(4)[4]

    def test_missing_table(self, tables):
        with pytest.raises(MissingTable):
            fm.sc_even_recursive(2, 601, tables)

    def test_recursion_matches_series(self, tables):
        for t_full in range(2, 31):
            row = sc_t_coeffs(t_full, 500)
            for n in range(501):
                assert fm.sc_t_value(t_full, n, tables) == row[n], (t_full, n)


class TestClosedForms:
    def test_even_examples(self, tables):
        assert fm.sc_even_closed(2, 12, tables) == 1
        assert fm.sc_even_closed(3, 20, tables) == 1
        sc = sc_coeffs(20)
        assert fm.sc_even_closed(6, 20, tables) == sc[20]

    def test_odd_examples(self, tables):
        assert fm.sc_odd_closed(1, 8, tables) == 1
        assert fm.sc_odd_closed(5, 20, tables) == 5
        sc = sc_coeffs(10)
        assert fm.sc_odd_closed(2, 4, tables) == sc[4]

    def test_budget(self, tables):
        with pytest.raises(ResourceLimit):
            fm.sc_even_closed(1, 100, tables, Limits(composition_budget=12))
        # raising the budget makes it feasible again
        assert fm.sc_even_closed(1, 56, tables, Limits(composition_budget=14)) == \
            fm.sc_even_recursive(1, 56, tables)

    def test_closed_equals_recursion_in_budget(self, tables):
        limits = Limits()
        for t_full in range(2, 13):
            half = t_full // 2 if t_full % 2 == 0 else (t_full - 1) // 2
            for n in range(90):
                cap = n // (4 * half) if t_full % 2 == 0 else n // t_full
                if cap > limits.composition_budget:
                    continue
                closed = (
                    fm.sc_even_closed(half, n, tables, limits)
                    if t_full % 2 == 0
                    else fm.sc_odd_closed(half, n, tables, limits)
                )
                assert closed == fm.sc_t_value(t_full, n, tables), (t_full, n)


class TestLargeT:
    def test_examples(self, tables):
        assert fm.sc_large(6, 20, tables).value == 1
        assert fm.sc_large(11, 20, tables).value == 5
        assert fm.sc_large(9, 20, tables).value == 5

    def test_tags(self, tables):
        assert fm.sc_large(22, 20, tables).formulas == ("even-all-sc",)
        assert "even-first-term" in fm.sc_large(6, 20, tables).formulas
        assert fm.sc_large(9, 20, tables).formulas == ("odd-two-term",)
        assert fm.sc_large(11, 20, tables).formulas == ("odd-first-hook",)
        assert fm.sc_large(23, 20, tables).formulas == ("odd-beyond-n",)
        assert "even-floor" in fm.sc_large(10, 20, tables).formulas

    def test_out_of_range(self, tables):
        with pytest.raises(OutOfRange):
            fm.sc_large(4, 100, tables)
        with pytest.raises(OutOfRange):
            fm.sc_large(5, 100, tables)
        with pytest.raises(OutOfRange):
            fm.sc_large(1, 5, tables)

    def test_agreement_on_validity_regions(self, tables):
        for n in range(201):
            for t_full in range(2, n + 3):
                try:
                    large = fm.sc_large(t_full, n, tables)
                except OutOfRange:
                    continue
                assert large.value == fm.sc_t_value(t_full, n, tables), (t_full, n)

    def test_floor_corollary_cases(self, tables):
        sc = sc_coeffs(600).coeffs
        for n in range(4, 400):
            q = n // 4
            expected = sc[n] - (q if n % 4 != 2 else 0)
            assert fm.sc_t_value(2 * q, n, tables) == expected
            if n >= 12:
                assert fm.sc_t_value(2 * q - 2, n, tables) == sc[n] - (q - 1)

    def test_remark_case_formulas(self, tables):
        # even family: core size 2 floor(n/4) - 12, n >= 52
        sc = sc_coeffs(600).coeffs
        for n in range(52, 400):
            q = n // 4
            coeff = {0: 11, 1: 12, 2: 12, 3: 14}[n % 4]
            assert fm.sc_t_value(2 * q - 12, n, tables) == sc[n] - coeff * (q - 6), n
        # odd family: core size 2 floor(n/4) - 11, n >= 76
        for n in range(76, 400):
            q = n // 4
            coeff = {0: 8, 1: 9, 2: 11, 3: 12}[n % 4]
            t_full = 2 * q - 11
            assert (
                fm.sc_t_value(t_full, n, tables)
                == sc[n] - sc[n - t_full] - coeff * (q - 7)
            ), n


class TestCrossValidate:
    def test_full_agreement(self):
        rep = fm.cross_validate(12, 60)
        assert rep.verdict == "holds"
        assert rep.witnesses == []

    def test_trivial_range(self):
        rep = fm.cross_validate(2, 3)
        assert rep.verdict == "holds"
