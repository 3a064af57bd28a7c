from __future__ import annotations

from fractions import Fraction

import pytest

from sccore import analytics as an
from sccore.errors import NoKnownCharacterization, NotCoprime, UndefinedAtN
from sccore.reports import FAILS, HOLDS, ScanReport
from sccore.series import c_t_coeffs, p_coeffs, sc_coeffs, sc_t_coeffs

# anomalies named in the published remark on the odd window
REMARK_EQUALITIES = {(21, 47), (19, 45), (19, 42), (17, 39), (15, 37),
                     (11, 34), (13, 39), (11, 41)}
REMARK_REVERSALS = {(11, 29), (13, 31)}
# equalities in the same region that the remark does not list: six sit on
# the T = n-18 edge, where sc(18) = sc(16) forces equality as in the odd
# windows for n >= 49; only (13, 30) and (15, 34) are unrelated
EXTRA_EQUALITIES = {(13, 30), (15, 34), (19, 37), (21, 39), (23, 41),
                    (25, 43), (27, 45), (29, 47)}


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


class TestScanReport:
    @pytest.mark.parametrize("verdict, witnesses", [(HOLDS, [(2, 0, 1, 0)]), (FAILS, [])])
    def test_verdict_must_match_witnesses(self, verdict, witnesses):
        with pytest.raises(ValueError):
            ScanReport(scan="x", params={}, verdict=verdict, witnesses=witnesses).finish()


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


class TestDistributions:
    def test_telescoping(self):
        for n in (3, 20, 60):
            assert an.telescoping_check(n, 60) == (True, True, True)

    def test_undefined_at_two(self):
        with pytest.raises(UndefinedAtN):
            an.distribution_table(2)

    def test_pi_vanishes_beyond_n(self):
        rows = an.distribution_table(20, 40)
        pi = rows["pi"].values
        assert all(pi[t] == 0 for t in pi if t > 20)
        assert rows["pi"].total() == 1

    def test_sigma_rows_are_exact(self):
        rows = an.distribution_table(20, 40)
        assert rows["sigma_even"].total() == Fraction(1)
        assert rows["sigma_odd"].total() == Fraction(1)
        # spot value: sigma_0(20) = (sc_2(20) - sc_0(20))/sc(20) = 0
        assert rows["sigma_even"].values[0] == Fraction(0, 1)

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
