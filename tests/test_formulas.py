from __future__ import annotations

import functools
from collections import Counter

import pytest

from sccore import abacus as ab
from sccore import formulas as fm
from sccore import partitions as pt
from sccore.cli import main
from sccore.config import Limits
from sccore.errors import MissingTable, OutOfRange, ResourceLimit
from sccore.series import phat_coeffs, sc_coeffs, sc_t_coeffs


@pytest.fixture(scope="module")
def tables():
    return fm.RecursionTables(600)


@functools.cache
def _sequences(odd: bool, cap: int) -> tuple:
    return tuple(fm._weighted_pair_sequences(cap) if odd else fm._compositions(cap))


def _weights_term_by_term(t_full: int, cap: int, phat, sc) -> list[int]:
    """Reference for closed_weights: every sequence listed and multiplied out."""
    c = [0] * (cap + 1)
    if t_full % 2 == 0:
        for seq in _sequences(False, cap):
            term = (-1) ** len(seq)
            for i in seq:
                term *= phat[i]
            c[sum(seq)] += term
    else:
        for seq in _sequences(True, cap):
            term, weight = (-1) ** len(seq), 0
            for i, j in seq:
                term *= phat[i] * sc[j]
                weight += 2 * i + j
            c[weight] += term
    return c


@functools.cache
def _literal_weights(t_full: int, cap: int) -> list[int]:
    """The closed form for core size t_full, every sequence of weight <= cap
    multiplied out once (`_weights_term_by_term`)."""
    return _weights_term_by_term(t_full, cap, phat_coeffs(t_full // 2, 199), sc_coeffs(199))


def _closed_term_by_term(t_full: int, n: int) -> int:
    """Reference: the closed form from its literal expansion, each weight w
    taken against sc(n - w step)."""
    step = fm._step(t_full)
    c, sc = _literal_weights(t_full, n // step), sc_coeffs(199)
    return sum(c[w] * sc[n - w * step] for w in range(n // step + 1))


class TestRecursions:
    def test_even_examples(self, tables):
        assert fm.sc_t_value(4, 10, tables) == 2
        assert fm.sc_t_value(4, 12, tables) == 1
        # below 2 t_full the sum is empty, so the value is sc(n)
        sc = sc_coeffs(20)
        for t_full, n in ((6, 11), (10, 19), (8, 7)):
            assert fm.sc_t_value(t_full, n, tables) == sc[n]

    def test_odd_examples(self, tables):
        assert fm.sc_t_value(3, 8, tables) == 1
        assert fm.sc_t_value(9, 8, tables) == 2
        assert fm.sc_t_value(5, 4, tables) == sc_coeffs(4)[4]

    def test_missing_table(self, tables):
        with pytest.raises(MissingTable):
            fm.sc_t_value(4, 601, tables)

    def test_negative_n_is_zero(self, tables):
        # a row index below 0 must not wrap round to the end of the row
        for t_full in (4, 5, 6):
            assert fm.sc_t_value(t_full, -1, tables) == fm.sc_t_closed(t_full, -1, tables) == 0

    def test_recursion_matches_series(self, tables):
        for t_full in range(2, 31):
            row = sc_t_coeffs(t_full, 500)
            for n in range(501):
                assert fm.sc_t_value(t_full, n, tables) == row[n], (t_full, n)


class TestClosedForms:
    def test_even_examples(self, tables):
        assert fm.sc_t_closed(4, 12, tables) == 1
        assert fm.sc_t_closed(6, 20, tables) == 1
        sc = sc_coeffs(20)
        assert fm.sc_t_closed(12, 20, tables) == sc[20]

    def test_odd_examples(self, tables):
        assert fm.sc_t_closed(3, 8, tables) == 1
        assert fm.sc_t_closed(11, 20, tables) == 5
        sc = sc_coeffs(10)
        assert fm.sc_t_closed(5, 4, tables) == sc[4]

    def test_budget(self, tables):
        assert tables.limits.composition_budget == 12
        with pytest.raises(ResourceLimit):
            fm.sc_t_closed(2, 100, tables)
        # tables built with a larger budget make it feasible again
        assert fm.sc_t_closed(2, 56, fm.RecursionTables(56, Limits(composition_budget=14))) == \
            fm.sc_t_value(2, 56, tables)

    def test_closed_equals_recursion_in_budget(self, tables):
        for t_full in range(2, 13):
            for n in range(90):
                if n // fm._step(t_full) > tables.limits.composition_budget:
                    continue
                closed = fm.sc_t_closed(t_full, n, tables)
                assert closed == fm.sc_t_value(t_full, n, tables), (t_full, n)


class TestClosedFormsByWeight:
    """The closed forms are expanded once per core size and summed by weight."""

    def test_equal_to_term_by_term_in_budget(self):
        tables = fm.RecursionTables(199)
        for t_full in range(2, 16):
            for n in range(200):
                if n // fm._step(t_full) <= tables.limits.composition_budget:
                    assert fm.sc_t_closed(t_full, n, tables) == \
                        _closed_term_by_term(t_full, n), (t_full, n)

    def test_tables_with_a_larger_budget_reach_further(self):
        tables = fm.RecursionTables(199, Limits(composition_budget=14))
        for t_full in range(2, 16):
            for n in range(200):
                if n // fm._step(t_full) <= tables.limits.composition_budget:
                    assert fm.sc_t_closed(t_full, n, tables) == \
                        fm.sc_t_value(t_full, n, tables), (t_full, n)
        # term by term where only the larger budget admits the cell: every even
        # cell, and the first odd cell at each new cap (an odd cap-14 cell has
        # 264 080 terms, so the whole odd band would take about half a minute)
        cells = [(t_full, n) for t_full in range(2, 16, 2) for n in range(200)
                 if 12 < n // fm._step(t_full) <= 14]
        cells += [(15, 195), (13, 182)]
        for t_full, n in cells:
            assert fm.sc_t_closed(t_full, n, tables) == \
                _closed_term_by_term(t_full, n), (t_full, n)

    def test_out_of_table_and_small_core_sizes(self):
        tables = fm.RecursionTables(40)
        with pytest.raises(MissingTable):
            fm.sc_t_closed(4, 41, tables)
        with pytest.raises(MissingTable):
            fm.sc_t_closed(7, 41, tables)
        for t_full in (0, -2, 1, -1):
            with pytest.raises(OutOfRange):
                fm.sc_t_closed(t_full, 10, tables)
        for t_full in (1, 0, -2, -3):
            with pytest.raises(OutOfRange):
                fm.sc_t_value(t_full, 10, tables)

    def test_weights_equal_the_literal_expansion(self):
        # n_max = 960 gives cap 12 for every core size up to 40 (step 80)
        tables = fm.RecursionTables(960)
        for t_full in range(2, 41):
            phat = phat_coeffs(t_full // 2, 960 // fm._step(t_full))
            assert tables.closed_weights(t_full) == \
                _weights_term_by_term(t_full, 12, phat, tables._sc), t_full

    def test_walk_pops_each_sequence_once(self):
        # with kernel -1, every factor is +1 and c[w] counts the pops at weight
        # w, which must be the number of weight sequences of total weight w
        by_weight = Counter(sum(seq) for seq in _sequences(False, 8))
        assert fm._expand_closed([-1] * 9, 8) == [by_weight[w] for w in range(9)]

    def test_cross_validate_expands_once_per_core_size(self, monkeypatch):
        # each kernel is built once and stored, so its identity names its core size
        core_size, expanded = {}, Counter()
        kernel, expand = fm.RecursionTables.kernel, fm._expand_closed

        def named(tables, t_full):
            k = kernel(tables, t_full)
            core_size[id(k)] = t_full
            return k

        def counted(k, cap):
            expanded[core_size[id(k)]] += 1
            return expand(k, cap)

        monkeypatch.setattr(fm.RecursionTables, "kernel", named)
        monkeypatch.setattr(fm, "_expand_closed", counted)
        assert fm.cross_validate(12, 48).verdict == "holds"
        assert expanded == Counter(range(2, 13))

    def test_cross_validate_walks_each_oracle_n_once(self, monkeypatch):
        # the request's tables keep each n's self-conjugate partitions, so the
        # oracle of every core size reads one walk of n
        walked, enumerate_self_conjugate = Counter(), fm.enumerate_self_conjugate

        def counted(n, limits):
            walked[n] += 1
            return enumerate_self_conjugate(n, limits)

        monkeypatch.setattr(fm, "enumerate_self_conjugate", counted)
        assert fm.cross_validate(12, 48).verdict == "holds"
        assert walked == Counter(range(31))

    def test_cross_validate_checks_no_partition_it_built(self, monkeypatch):
        # the sc_t oracle tests the partitions its tables enumerated, so the
        # public boundary's check_partition is never reached
        checked = []

        def counted(parts):
            checked.append(parts)
            return parts

        for module in (pt, ab):
            monkeypatch.setattr(module, "check_partition", counted)
        assert fm.cross_validate(12, 48).verdict == "holds"
        assert checked == []


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
        sc = sc_coeffs(600)
        for n in range(4, 400):
            q = n // 4
            expected = sc[n] - (q if n % 4 != 2 else 0)
            assert fm.sc_t_value(2 * q, n, tables) == expected
            if n >= 12:
                assert fm.sc_t_value(2 * q - 2, n, tables) == sc[n] - (q - 1)

    def test_remark_case_formulas(self, tables):
        # even family: core size 2 floor(n/4) - 12, n >= 52
        sc = sc_coeffs(600)
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

    def test_a_skewed_series_cell_is_tagged_and_skips_the_other_methods(self, monkeypatch):
        # the series is checked against the recursion first; where they
        # differ, no other method is asked at that cell
        series_row, value, asked = fm.sc_t_coeffs, fm.method_value, Counter()

        def skewed(t, n):
            row = series_row(t, n)
            return row[:20] + (row[20] + 1,) + row[21:] if t == 5 else row

        def counted(method, family, t, n, tables):
            asked[t, n, method] += 1
            return value(method, family, t, n, tables)

        monkeypatch.setattr(fm, "sc_t_coeffs", skewed)
        monkeypatch.setattr(fm, "method_value", counted)
        rep = fm.cross_validate(12, 48)
        true = series_row(5, 20)[20]
        assert rep.verdict == "fails"
        assert [tuple(w) for w in rep.witnesses] == [(5, 20, true + 1, true, "series-vs-recursion")]
        assert [m for t, n, m in asked if (t, n) == (5, 20)] == ["recursive"]
        assert {m for t, n, m in asked if (t, n) == (5, 21)} == {"recursive", "closed", "large", "oracle"}
        assert all(k == 1 for k in asked.values())

    @pytest.mark.parametrize("method", ["closed", "large", "oracle"])
    def test_a_broken_method_is_tagged_on_every_cell_it_reaches(self, method, monkeypatch):
        # the method gives one more than the true count wherever it gives a
        # value, so every cell it reaches, and no other, is a witness
        tables = fm.RecursionTables(48)

        def reaches(t_full, n):
            if method == "closed":
                return n // fm._step(t_full) <= 12
            if method == "oracle":
                return n <= 30
            try:
                fm.sc_large(t_full, n, tables)
            except OutOfRange:
                return False
            return True

        expected = {(t_full, n) for t_full in range(2, 13) for n in range(49) if reaches(t_full, n)}
        if method == "closed":
            closed = fm.sc_t_closed
            monkeypatch.setattr(fm, "sc_t_closed", lambda *args: closed(*args) + 1)
        elif method == "large":
            large = fm.sc_large
            monkeypatch.setattr(fm, "sc_large", lambda *args: fm.LargeValue(large(*args).value + 1, ()))
        else:
            value = fm.method_value
            monkeypatch.setattr(fm, "method_value", lambda m, *args: value(m, *args) + (m == "oracle"))
        witnesses = fm.cross_validate(12, 48).witnesses
        assert len(witnesses) == len(expected)
        assert {(t_full, n) for t_full, n, *_ in witnesses} == expected
        assert {(got - reference, tag) for _, _, got, reference, tag in witnesses} == {(1, f"{method}-vs-recursion")}


class TestOracles:
    def test_count_walks_the_t_core_lattice_once(self, monkeypatch, tmp_path, capsys):
        # the c_t oracle reads every n off one walk of the 8-cores to 30
        walked, walk = Counter(), fm.t_cores_up_to

        def counted(limit, t):
            walked[limit, t] += 1
            return walk(limit, t)

        monkeypatch.setattr(fm, "t_cores_up_to", counted)
        argv = ["count", "c_t", "--t", "8", "--n", "0..30", "--method", "all", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert walked == Counter({(30, 8): 1})

    def test_negative_n_counts_zero(self):
        tables = fm.RecursionTables(10)
        for t in (1, 3, 8):
            assert fm.method_value("oracle", "c_t", t, -1, tables) == 0
            assert list(ab.enumerate_t_cores(-1, t)) == []

    @pytest.mark.parametrize("family, t", [("c_t", 3), ("sc_t", 3), ("sc", None), ("p", None)])
    def test_n_beyond_the_tables_is_missing(self, family, t):
        # a walk that stopped at n_max would read 0 there
        tables = fm.RecursionTables(10)
        fm.method_value("oracle", family, t, 10, tables)
        with pytest.raises(MissingTable, match=r"^tables cover n <= 10$"):
            fm.method_value("oracle", family, t, 11, tables)
