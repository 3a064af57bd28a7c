from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from sccore import analytics as an
from sccore import cli, reports
from sccore.errors import NoKnownCharacterization, NotCoprime, OutOfDomain, UndefinedAtN
from sccore.reports import FAILS, HOLDS, ScanReport, _witness_key
from sccore.series import c_t_coeffs, nsc_t_coeffs, p_coeffs, sc_coeffs, sc_t_coeffs

# anomalies named in the published remark on the odd window
REMARK_EQUALITIES = {(21, 47), (19, 45), (19, 42), (17, 39), (15, 37),
                     (11, 34), (13, 39), (11, 41)}
REMARK_REVERSALS = {(11, 29), (13, 31)}
# equalities in the same region that the remark does not list: six sit on
# the T = n-18 edge, where sc(18) = sc(16) forces equality as in the odd
# windows for n >= 49; only (13, 30) and (15, 34) are unrelated
EXTRA_EQUALITIES = {(13, 30), (15, 34), (19, 37), (21, 39), (23, 41),
                    (25, 43), (27, 45), (29, 47)}

# Each window of t as the comments of `analytics._WINDOWS` state it, keyed as
# that table keys it: the inequality on (T, n) that admits a cell, in integers,
# with each floor cross-multiplied (for even T, T <= 2 floor(n/4) - 4 is
# 2T + 8 <= n).  Written for numpy arrays of T and n, and so with & for "and".
STATED_WINDOWS = {
    ("sc-even", "conjecture"): lambda T, n: (T % 2 == 0) & (6 <= T) & (2 * T + 8 <= n),
    ("sc-even", "theorem"): lambda T, n: (T % 2 == 0) & (n < 4 * T) & (2 * T + 8 <= n),
    ("sc-odd", "conjecture"): lambda T, n: (T % 2 == 1) & (9 <= T) & (T + 17 <= n) & (n >= 56),
    ("sc-odd", "theorem"): lambda T, n: (T % 2 == 1) & (n < 3 * T) & (T + 17 <= n) & (n >= 48),
    ("c", "conjecture"): lambda t, n: (4 <= t) & (t + 1 <= n),
    ("nsc-odd", "conjecture"): lambda T, n: (T % 2 == 1) & (5 <= T + 2) & (T + 2 <= n),
    ("pi", "unimodal"): lambda t, n: (4 <= t) & (t + 7 <= n) & (n >= 63),
    ("pi", "support"): lambda t, n: (1 <= t) & (t <= n),
    ("sigma_even", "unimodal"): lambda T, n: (T % 2 == 0) & (8 <= T) & (2 * T + 16 <= n) & (n >= 139),
    ("sigma_even", "support"): lambda T, n: (T % 2 == 0) & (T <= n),
    ("sigma_odd", "unimodal"): lambda T, n: (T % 2 == 1) & (9 <= T) & (2 * T <= n) & (n >= 213),
    ("sigma_odd", "support"): lambda T, n: (T % 2 == 1) & (T <= n + 1),
}
# the first n at which each window holds a cell
FIRST_OPEN = {
    ("sc-even", "conjecture"): 20, ("sc-even", "theorem"): 20,
    ("sc-odd", "conjecture"): 56, ("sc-odd", "theorem"): 48,
    ("c", "conjecture"): 5, ("nsc-odd", "conjecture"): 5,
    ("pi", "unimodal"): 63, ("pi", "support"): 1,
    ("sigma_even", "unimodal"): 139, ("sigma_even", "support"): 0,
    ("sigma_odd", "unimodal"): 213, ("sigma_odd", "support"): 0,
}


def _stated(family: str, window: str, n_max: int) -> np.ndarray:
    """mask[T, n] for T <= n_max + 2 and n <= n_max: does the window's stated
    inequality admit the cell?  Brute force: every cell is tested."""
    T, n = np.ogrid[:n_max + 3, :n_max + 1]
    return STATED_WINDOWS[family, window](T, n)


class TestZeroSets:
    def test_sc6_zero_set(self):
        assert an.zero_set(6, 500) == {2, 12, 13, 73}

    def test_characterizations_hold(self):
        for t in (2, 3, 4, 6, 7, 8, 9, 10, 11, 12):
            rep = an.characterization_check(t, 800)
            assert rep.verdict == "holds", (t, rep.witnesses[:5])

    def test_t5_shifted_reading_wins(self):
        rep = an.characterization_check(5, 800)
        assert rep.verdict == "holds"
        assert rep.data["matching_readings"] == ["shifted"]
        # the criterion as printed fails immediately: sc_5(3) = 1 although
        # 3 carries a prime 3 (mod 4) to an odd power
        assert 3 in rep.data["symmetric_difference_printed"]

    def test_t4_example(self):
        assert 9 in an.zero_set(4, 20)  # 8*9+5 = 77 = 7*11

    def test_t9_members(self):
        zs = an.zero_set(9, 100)
        assert {2, 18, 82} <= zs

    def test_positivity_scan(self):
        rep = an.positivity_scan(6, 200)
        assert rep.verdict == "holds"
        assert rep.data["zero_set"] == [2, 12, 13, 73]

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_t5_tie_is_a_witness(self, n_max):
        # no zero below 2, so both readings match and neither wins
        rep = an.characterization_check(5, n_max)
        assert rep.verdict == "fails"
        assert rep.witnesses == [(5, -1, "readings-tie", ["printed", "shifted"])]

    def test_no_characterization_below_two(self):
        with pytest.raises(NoKnownCharacterization):
            an.characterization_sets(1, 100)


def _theta_exponent_zeros(n_max: int) -> set[int]:
    """The t = 3 zeros as the n off the exponents d(3d - 2) and d(3d + 2)."""
    hits = set()
    d = 0
    while 3 * d * d - 2 * d <= n_max:
        hits.add(3 * d * d - 2 * d)
        if 3 * d * d + 2 * d <= n_max:
            hits.add(3 * d * d + 2 * d)
        d += 1
    return {n for n in range(n_max + 1) if n not in hits}


def _four_power_zeros(n_max: int) -> set[int]:
    """The t = 7 zeros as (8m + 1) 4^k - 2, walked over k and then m."""
    hits = set()
    power = 1
    while power - 2 <= n_max:
        m = 0
        while (8 * m + 1) * power - 2 <= n_max:
            if (8 * m + 1) * power - 2 >= 0:
                hits.add((8 * m + 1) * power - 2)
            m += 1
        power *= 4
    return hits


def _without_factors_of_four(m: int) -> int:
    while m % 4 == 0:
        m //= 4
    return m


class TestStatedCharacterizations:
    """The t = 3 and t = 7 zero sets against each statement read n by n, and
    against the loops that listed them before, at every n_max <= 50 and at 3000."""

    N_MAXES = [*range(51), 3000]

    def test_t3_is_3n_plus_1_not_a_square(self):
        for n_max in self.N_MAXES:
            stated = {n for n in range(n_max + 1) if isqrt(3 * n + 1) ** 2 != 3 * n + 1}
            assert an.characterization_sets(3, n_max) == {"predicate": stated}, n_max
            assert stated == _theta_exponent_zeros(n_max), n_max

    def test_t7_is_n_plus_2_a_power_of_4_times_1_mod_8(self):
        for n_max in self.N_MAXES:
            stated = {n for n in range(n_max + 1) if _without_factors_of_four(n + 2) % 8 == 1}
            assert an.characterization_sets(7, n_max) == {"predicate": stated}, n_max
            assert stated == _four_power_zeros(n_max), n_max


def _has_odd_power_prime_3_mod_4(m: int) -> bool:
    """Trial-division test: some prime p = 3 (mod 4) divides m to an odd power."""
    if m <= 0:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if d % 4 == 3 and e % 2 == 1:
                return True
        d += 1 if d == 2 else 2
    return m % 4 == 3  # leftover prime to the first power


class TestOddPowerSieve:
    """The two-squares sieve behind the t = 4 and t = 5 closed forms against
    trial division."""

    def test_flags_equal_trial_division(self):
        m_max = 80_005  # 8 n + 5 at n = 10^4
        flags = an._odd_power_prime_3_mod_4(m_max)
        assert len(flags) == m_max + 1
        assert [bool(f) for f in flags] == [_has_odd_power_prime_3_mod_4(m) for m in range(m_max + 1)]

    @pytest.mark.parametrize("m_max", [0, 1, 2, 3, 4, 8, 9])
    def test_small_bounds(self, m_max):
        flags = an._odd_power_prime_3_mod_4(m_max)
        assert [bool(f) for f in flags] == [_has_odd_power_prime_3_mod_4(m) for m in range(m_max + 1)]

    def test_closed_forms_equal_trial_division_sets(self):
        n_max = 3000
        ns = range(n_max + 1)
        assert an.characterization_sets(4, n_max) == {
            "predicate": {n for n in ns if _has_odd_power_prime_3_mod_4(8 * n + 5)}}
        assert an.characterization_sets(5, n_max) == {
            "printed": {n for n in ns if _has_odd_power_prime_3_mod_4(n)},
            "shifted": {n for n in ns if _has_odd_power_prime_3_mod_4(n + 1)},
        }


class TestScanReport:
    @pytest.mark.parametrize("witnesses, verdict", [([], HOLDS), ([(2, 0, 1, 0)], FAILS)])
    def test_verdict_is_read_off_the_witnesses(self, witnesses, verdict):
        rep = ScanReport(scan="x", params={}, witnesses=witnesses)
        assert rep.verdict == verdict
        assert rep.to_json_obj()["verdict"] == verdict

    def test_timed_sorts_the_witnesses_and_sets_elapsed_ms(self, monkeypatch):
        clock = iter((10.0, 10.25))
        monkeypatch.setattr(reports, "monotonic", lambda: next(clock))
        scan = reports.timed(lambda: ScanReport(scan="x", params={}, witnesses=[(3, "b"), (1, 2), (3, 0)]))
        rep = scan()
        assert rep.witnesses == [(1, 2), (3, 0), (3, "b")]
        assert rep.elapsed_ms == 250


class TestPairComparisons:
    def test_sc9_vs_sc7(self):
        rep = an.compare_pair(7, 500)
        assert rep.data["less"] == [9, 18, 21, 82, 114, 146, 178, 210, 338, 402, 466]

    def test_sc11_vs_sc9(self):
        rep = an.compare_pair(9, 500)
        assert rep.data["equal"] == [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 14, 15, 16,
                                     20, 22, 27, 31, 32, 35, 55]
        assert rep.data["less"] == [11, 23]

    def test_sc6_vs_sc4(self):
        rep = an.compare_pair(4, 500)
        assert [n for n in rep.data["less"] if n > 15] == [112, 180, 265]
        assert [n for n in rep.data["equal"] if n > 15] == [27, 28, 33, 40, 73,
                                                            75, 118, 190, 248]

    def test_sc8_vs_sc6_no_failures_from_20(self):
        rep = an.compare_pair(6, 500)
        assert [n for n in rep.data["less"] if n >= 20] == []
        assert [n for n in rep.data["equal"] if n >= 20] == []

    def test_c7_c8_pair(self):
        # c_8 >= c_7 everywhere except the single boundary cell n = 8
        rep = an.compare_pair(7, 200, family="c")
        assert rep.data["less"] == [8]

    def test_residue_statistics_recorded_not_asserted(self):
        rep = an.compare_pair(7, 10000)
        stats = rep.data["residue_82_mod_128"]
        # most but not all of the strict-less set sits in the class, and the
        # class has members outside the set: neither necessary nor sufficient
        assert stats == {"less_in_class": 49, "less_total": 59,
                         "class_members_not_less": 29, "class_size": 78}
        assert rep.verdict == "holds"

    def test_unknown_family_is_out_of_domain(self):
        # the same error as the monotonicity and unimodality scans
        with pytest.raises(OutOfDomain, match=r"^unknown family 'sc_t'$"):
            an.compare_pair(7, 50, family="sc_t")


class TestMonotonicity:
    def test_even_conjecture_counterexample(self):
        # the conjectured window contains one equality below 300, at the
        # quarter boundary 2t = n/4: sc_12(40) = sc_10(40) = 16, readable off
        # the published tables themselves
        rep = an.monotonicity_scan("sc-even", 300)
        assert rep.verdict == "fails"
        assert rep.witnesses == [(10, 40, 16, 16)]

    def test_even_theorem_window_holds(self):
        rep = an.monotonicity_scan("sc-even", 300, window="theorem")
        assert rep.verdict == "holds"

    def test_odd_windows_fail_only_at_the_shift_edge(self):
        # sc(18) = sc(16) makes sc_{n-16}(n) = sc_{n-18}(n) for every odd n,
        # and T = n-18 sits inside both stated windows
        for window in ("conjecture", "theorem"):
            rep = an.monotonicity_scan("sc-odd", 250, window=window)
            assert rep.verdict == "fails"
            assert all(t == n - 18 and lhs == rhs for (t, n, lhs, rhs) in rep.witnesses)
        lo = min(n for (_, n, _, _) in rep.witnesses)
        assert lo == 49  # first odd n >= 48 with n-18 in the theorem window

    def test_small_n_anomalies_cover_remark(self):
        rep = an.monotonicity_scan("sc-odd", 60)
        eqs = {(t, n) for t, n in rep.data["small_n_equalities"]}
        lts = {(t, n) for t, n in rep.data["small_n_reversals"]}
        assert REMARK_EQUALITIES <= eqs
        assert lts == REMARK_REVERSALS
        assert eqs == REMARK_EQUALITIES | EXTRA_EQUALITIES

    def test_nsc_odd_holds(self):
        rep = an.monotonicity_scan("nsc-odd", 120)
        assert rep.verdict == "holds"

    def test_c_family_window_fails_only_at_its_boundary(self):
        # the quoted window reaches t = n-1, where c_n(n) = p(n) - n always
        # sits exactly one below c_{n-1}(n) = p(n) - (n-1); off the boundary
        # the inequality holds
        rep = an.monotonicity_scan("c", 60)
        assert rep.verdict == "fails"
        assert all(t == n - 1 and lhs == rhs - 1 for (t, n, lhs, rhs) in rep.witnesses)
        assert sorted(n for (_, n, _, _) in rep.witnesses) == list(range(5, 61))


def _monotonicity_per_cell(family: str, n_max: int, window: str) -> tuple[list, dict]:
    """The witnesses and data of `monotonicity_scan` for the sc and nsc
    families, one row lookup per (t, n) cell of the stated window: the scan as
    it read its rows before the column reads and the window table."""
    witnesses: list[tuple] = []
    data: dict = {}
    rows: dict[int, tuple[int, ...]] = {}
    family_row = nsc_t_coeffs if family == "nsc-odd" else an._sc_family

    def row(t: int) -> tuple[int, ...]:
        if t not in rows:
            rows[t] = family_row(t, n_max)
        return rows[t]

    stated = _stated(family, window, n_max)
    for n in range(n_max + 1):
        for t in np.flatnonzero(stated[:, n]).tolist():
            if row(t + 2)[n] <= row(t)[n]:
                witnesses.append((t, n, row(t + 2)[n], row(t)[n]))
    if family == "sc-odd":
        eq, lt = [], []
        for n in range(min(n_max, 47) + 1):
            for t in range(11, n - 17 + 1, 2):
                if row(t + 2)[n] == row(t)[n]:
                    eq.append((t, n))
                elif row(t + 2)[n] < row(t)[n]:
                    lt.append((t, n))
        data["small_n_equalities"] = eq
        data["small_n_reversals"] = lt
    return sorted(witnesses, key=_witness_key), data


class TestMonotonicityColumns:
    """`monotonicity_scan` reads each n's window as one column of the rows;
    its reports equal the per-cell loop's."""

    @pytest.mark.parametrize("family", ["sc-even", "sc-odd"])
    @pytest.mark.parametrize("window", ["conjecture", "theorem"])
    def test_sc_families_equal_the_per_cell_loop(self, family, window):
        rep = an.monotonicity_scan(family, 600, window)
        assert (rep.witnesses, rep.data) == _monotonicity_per_cell(family, 600, window)
        assert rep.verdict == (HOLDS if not rep.witnesses else FAILS)

    def test_nsc_odd_equals_the_per_cell_loop(self):
        rep = an.monotonicity_scan("nsc-odd", 200)
        assert (rep.witnesses, rep.data) == _monotonicity_per_cell("nsc-odd", 200, "conjecture")

    @pytest.mark.parametrize("family", ["sc-even", "sc-odd", "nsc-odd"])
    def test_small_n_max(self, family):
        for n_max in range(0, 60):
            for window in [w for f, w in STATED_WINDOWS if f == family]:
                rep = an.monotonicity_scan(family, n_max, window)
                assert (rep.witnesses, rep.data) == _monotonicity_per_cell(family, n_max, window), n_max

    def test_rows_are_fetched_once_each(self, monkeypatch):
        fetched = []
        sc_family, step = an._FAMILIES["sc"]
        monkeypatch.setitem(an._FAMILIES, "sc", (lambda t, n: fetched.append(t) or sc_family(t, n), step))
        an.monotonicity_scan("sc-odd", 300, "theorem")
        # the anomaly rows from 11 and the theorem windows up to t + 2 = n - 15, once each
        assert sorted(fetched) == list(range(11, 300 - 15 + 1, 2))


class TestWindows:
    """Every window of `analytics._WINDOWS` is the one its statement gives."""

    def test_every_window_is_its_stated_inequality(self):
        assert list(an._WINDOWS) == list(STATED_WINDOWS)
        for key in STATED_WINDOWS:
            stated = _stated(*key, 2000)
            table = np.zeros_like(stated)
            _, windows = an._windows(*key, range(2001))
            for n, ts in windows.items():
                table[np.arange(ts.start, ts.stop, ts.step), n] = True
            assert np.array_equal(table, stated), key
            assert int(stated.any(axis=0).argmax()) == FIRST_OPEN[key], key

    def test_scan_families_are_the_window_families(self):
        # cli lists each scan's families, default first, without loading analytics
        assert cli._SCAN_OPTIONS["monotonicity"][1]["family"] == \
            tuple(f for f, w in an._WINDOWS if w == "conjecture")
        assert cli._SCAN_OPTIONS["unimodality"][1]["family"] == \
            tuple(f for f, w in an._WINDOWS if w == "unimodal")
        assert {f for f, _ in an._WINDOWS} == {*cli._SCAN_OPTIONS["monotonicity"][1]["family"],
                                               *cli._SCAN_OPTIONS["unimodality"][1]["family"]}

    @pytest.mark.parametrize("family, window", [
        ("sc-even", "foo"), ("c", "theorem"), ("nsc-odd", "theorem"),
        ("pi", "unimodal"), ("bogus", "conjecture"),
    ])
    def test_monotonicity_refuses_a_window_the_family_lacks(self, family, window):
        with pytest.raises(OutOfDomain):
            an.monotonicity_scan(family, 300, window)

    @pytest.mark.parametrize("family", ["c", "sc-even", "bogus"])
    def test_unimodality_refuses_a_family_without_a_unimodal_window(self, family):
        with pytest.raises(OutOfDomain, match=f"family {family} has no unimodal window"):
            an.unimodality_scan(family, 63, 100)


class TestDistributions:
    def test_telescoping(self):
        for n in (3, 20, 60):
            assert an.telescoping_check(n, 60) == (True, True, True)

    def test_undefined_at_two(self):
        with pytest.raises(UndefinedAtN):
            an.distribution_table(2)

    def test_pi_vanishes_beyond_n(self):
        rows = an.distribution_table(20, 40)
        pi = rows["pi"]
        assert all(pi[t] == 0 for t in pi if t > 20)
        assert sum(pi.values()) == 1

    def test_sigma_rows_are_exact(self):
        rows = an.distribution_table(20, 40)
        assert sum(rows["sigma_even"].values()) == Fraction(1)
        assert sum(rows["sigma_odd"].values()) == Fraction(1)
        # spot value: sigma_0(20) = (sc_2(20) - sc_0(20))/sc(20) = 0
        assert rows["sigma_even"][0] == Fraction(0, 1)

    def test_integer_sums_equal_the_fraction_sums(self):
        cap = 200

        def sc_at(t: int, n: int) -> int:  # sc_0 and sc_1 count only the empty partition
            return sc_t_coeffs(t, cap)[n] if t >= 2 else int(n == 0)

        for n in range(cap + 1):
            p, sc = p_coeffs(cap)[n], sc_coeffs(cap)[n]
            if sc == 0:
                with pytest.raises(UndefinedAtN):
                    an.telescoping_check(n, cap)
                continue
            pi = sum((Fraction(c_t_coeffs(t + 1, cap)[n] - c_t_coeffs(t, cap)[n], p)
                      for t in range(1, n + 1)), Fraction(0))
            even = sum((Fraction(sc_at(t + 2, n) - sc_at(t, n), sc) for t in range(0, n + 1, 2)), Fraction(0))
            odd = sum((Fraction(sc_at(t + 2, n) - sc_at(t, n), sc) for t in range(1, n + 2, 2)), Fraction(0))
            assert an.telescoping_check(n, cap) == (pi == 1, even == 1, odd == 1), n

    def test_range_scan_equals_the_per_n_checks(self):
        rep = an.distribution_scan(3, 150)
        witnesses = [(0, n, family, "sum != 1")
                     for n in range(3, 151)
                     for family, ok in zip(("pi", "sigma_even", "sigma_odd"), an.telescoping_check(n, 150))
                     if not ok]
        assert rep.witnesses == witnesses == []
        assert (rep.verdict, rep.params, rep.data) == (HOLDS, {"n_lo": 3, "n_hi": 150}, {})

    def test_range_scan_names_failing_families(self, monkeypatch):
        # every n >= 1 sums to 1, so the numerators both checks read are
        # skewed: pi at n = 4 and sigma_odd at n = 5
        numerators = an._numerators

        def skewed(n_lo, n_hi, n_cap):
            for family, n, den, ts, nums in numerators(n_lo, n_hi, n_cap):
                if (family, n) in (("pi", 4), ("sigma_odd", 5)):
                    nums = [nums[0] + 1, *nums[1:]]
                yield family, n, den, ts, nums

        monkeypatch.setattr(an, "_numerators", skewed)
        rep = an.distribution_scan(3, 6)
        per_n = [(0, n, family, "sum != 1")
                 for n in range(3, 7)
                 for family, ok in zip(("pi", "sigma_even", "sigma_odd"), an.telescoping_check(n, 6))
                 if not ok]
        assert rep.witnesses == sorted(per_n, key=_witness_key) == [(0, 4, "pi", "sum != 1"),
                                                                    (0, 5, "sigma_odd", "sum != 1")]

    @pytest.mark.parametrize("n_hi", [0, 1])
    def test_range_scan_refuses_n_0(self, n_hi):
        # at n = 0 pi has no term against p(0) = 1, and sc_2(0) - sc_0(0) = 0,
        # sc_3(0) - sc_1(0) = 0: each family sums to 0, so none is a distribution
        assert an.telescoping_check(0, n_hi) == (False, False, False)
        with pytest.raises(UndefinedAtN, match=r"^at n = 0 every telescoping sum is 0; the distribution is undefined$"):
            an.distribution_scan(0, n_hi)

    def test_single_n_scan_carries_the_table(self):
        rep = an.distribution_scan(20, 20)
        table = an.distribution_table(20)
        assert rep.data == {family: {str(t): v for t, v in row.items()} for family, row in table.items()}

    @pytest.mark.parametrize("n_lo, n_hi", [(2, 5), (0, 60), (2, 2)])
    def test_range_scan_stops_at_the_first_undefined_n(self, n_lo, n_hi):
        with pytest.raises(UndefinedAtN, match=r"^sc\(2\) = 0; sigma families undefined$"):
            an.distribution_scan(n_lo, n_hi)

    @pytest.mark.parametrize("n_lo, n_hi", [(5, 4), (-1, 3)])
    def test_range_scan_refuses_a_bad_range(self, n_lo, n_hi):
        with pytest.raises(ValueError, match="need 0 <= n_lo <= n_hi"):
            an.distribution_scan(n_lo, n_hi)

    def test_cap_below_n_is_refused(self):
        with pytest.raises(ValueError, match="n_cap must be >= n"):
            an.telescoping_check(20, 10)
        with pytest.raises(ValueError, match="n_cap must be >= n"):
            an.distribution_table(20, 10)


class TestUnimodality:
    def test_pi_window(self):
        rep = an.unimodality_scan("pi", 63, 120, 120)
        assert rep.verdict == "holds"
        assert rep.data["windows_checked"] == 58

    def test_sigma_windows_vacuous_below_threshold(self):
        rep = an.unimodality_scan("sigma_even", 3, 100, 100)
        assert rep.data["windows_checked"] == 0
        assert rep.verdict == "holds"

    def test_sigma_even_window_contains_systematic_rises(self):
        # the stated window reaches index 2 floor(n/4) - 8, where the
        # sequence ticks up by 4 for every n = 0 mod 4; and at n = 139 there
        # is a genuine mid-sequence wiggle (1560 -> 1570 at index 32).  Both
        # confirmed against the large-core closed formulas.
        rep = an.unimodality_scan("sigma_even", 139, 160, 160)
        assert rep.verdict == "fails"
        assert (32, 139, 1560, 1570) in rep.witnesses
        for (t, n, prev, cur) in rep.witnesses:
            if n != 139:
                assert n % 4 == 0 and t == 2 * (n // 4) - 8 and cur == prev + 4

    def test_sigma_odd_edge_rises_then_clean(self):
        rep = an.unimodality_scan("sigma_odd", 213, 260, 260)
        bad_n = sorted({n for (_, n, _, _) in rep.witnesses})
        assert bad_n == [213, 215, 218, 221, 223, 226, 229, 231, 234, 237, 239, 245, 247]
        rep = an.unimodality_scan("sigma_odd", 248, 300, 300)
        assert rep.verdict == "holds"

    def test_unimodal_checker(self):
        assert an._is_unimodal([1, 2, 2, 3, 1, 0])[0]
        assert an._is_unimodal([])[0]
        assert not an._is_unimodal([2, 1, 2])[0]


class TestIdentities:
    def test_printed_identities_hold(self):
        for spec in an.PRINTED_IDENTITIES:
            rep = an.identity_check(spec, 400)
            assert rep.verdict == "holds", spec

    def test_instances(self):
        sc5 = sc_t_coeffs(5, 20)
        assert sc5[7] == sc5[3] == 1
        sc3 = sc_t_coeffs(3, 25)
        assert sc3[21] == sc3[5] == 1
        sc9 = sc_t_coeffs(9, 20)
        assert sc9[18] == sc9[2] == 0

    def test_violation_detection(self):
        rep = an.identity_check((5, 2, 0, 1, 0), 50)  # sc_5(2n) != sc_5(n) somewhere
        assert rep.verdict == "fails"
        assert rep.witnesses


class TestInequalities:
    def test_proved_c7(self):
        for spec in an.PROVED_C7_INEQUALITIES:
            rep = an.inequality_check(spec, 400)
            assert rep.verdict == "holds"

    def test_conjectured_sc9_violations_are_pinned(self):
        # parts 1 and 3 hold on [n_lo, 400]; parts 2 and 4 fail right at
        # their stated lower bound n = 1 (sc_9(5) = sc_9(1) = 1 and
        # sc_9(8) = 2 vs 2.6), and part 4 hits equality at n = 20
        # (sc_9(84) = 13 = 2.6 * 5)
        expected = {(4, 0): [], (4, 1): [1], (4, 3): [], (4, 4): [1, 20]}
        for spec in an.CONJECTURED_INEQUALITIES:
            rep = an.inequality_check(spec, 400)
            assert [n for (_, n, _, _) in rep.witnesses] == expected[(spec.a, spec.b)], spec

    def test_cross_multiplied_instance(self):
        # the comparison the check performs at n = 1 for the 4n+1 family;
        # exact arithmetic shows the printed bound fails there
        sc9 = sc_t_coeffs(9, 10)
        assert sc9[5] == sc9[1] == 1
        assert not 10 * sc9[5] > 19 * sc9[1]

    def test_lower_bounds_are_sharp(self):
        # starting the n=4k scan below the stated threshold must fail
        spec = an.InequalitySpec("sc", 9, 4, 0, Fraction(3), 1)
        rep = an.inequality_check(spec, 100)
        assert rep.verdict == "fails"

    def test_unknown_family_is_out_of_domain(self):
        spec = an.InequalitySpec("sc_t", 9, 4, 0, Fraction(3), 1)
        with pytest.raises(OutOfDomain, match=r"^unknown family 'sc_t'$"):
            an.inequality_check(spec, 100)


class TestSimultaneous:
    def test_examples(self):
        rec = an.simultaneous_counts(2, 3)
        assert (rec.count, rec.sc_count, rec.max_size) == (2, 2, 1)
        assert (rec.enumerated, rec.enumerated_sc, rec.enumerated_max) == (2, 2, 1)
        rec = an.simultaneous_counts(3, 4)
        assert (rec.count, rec.sc_count) == (5, 3)
        assert rec.enumerated == 5 and rec.enumerated_sc == 3

    def test_closed_forms_beyond_the_acceptance_range(self):
        for s, t in ((9, 10), (11, 12)):
            rec = an.simultaneous_counts(s, t)
            assert (rec.enumerated, rec.enumerated_sc, rec.enumerated_max) == (
                rec.count, rec.sc_count, rec.max_size), rec
        assert (rec.count, rec.sc_count, rec.max_size) == (58786, 462, 715)

    def test_counts_only_what_passes_both_hook_tests(self, monkeypatch):
        # a partition the enumerator yields by mistake is not counted:
        # (2,) has a 2-hook, (1, 1, 1) a 3-hook
        real = an.simultaneous_cores
        monkeypatch.setattr(an, "simultaneous_cores", lambda s, t: [*real(s, t), (2,), (1, 1, 1)])
        rec = an.simultaneous_counts(2, 3)
        assert (rec.enumerated, rec.enumerated_sc, rec.enumerated_max) == (2, 2, 1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            an.simultaneous_counts(4, 6)

    def test_scan(self):
        rep = an.simultaneous_scan(4, 5)
        assert rep.verdict == "holds"
        assert rep.data["count"] == 14
