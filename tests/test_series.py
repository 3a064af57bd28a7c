from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from series_reference import binomial_factor, c_t_reference, multiply, odd_parts, sc_t_reference

from sccore import partitions as pt
from sccore import series as se
from sccore.errors import UnsupportedT


def _multiply_eta(c: list[int], a: int, n: int) -> list[int]:
    """c * E(q^a) truncated at n, by pentagonal shift-adds."""
    return se._shift_add(c, se.pentagonal_terms(a, n))


def _eta_power(c: list[int], a: int, k: int, n: int) -> list[int]:
    """c * E(q^a)^k truncated at n by list passes alone, positive powers
    included: the reference the packed rows are compared against."""
    if k < 0:
        return se._eta_factors(c, [(a, k)], n)
    for step in se._power_steps(a, k, n):
        c = se._shift_add(c, step)
    return c


A000700_PREFIX = [
    1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3,
    3, 4, 5, 5, 5, 6, 7, 8, 8, 9, 11, 12, 12, 14,
]


class TestBuildingBlocks:
    def test_multiply_trivial(self):
        a = (1, 1, 0, 0)
        b = (1, -1, 0, 0)
        assert multiply(a, b) == (1, 0, -1, 0)

    def test_multiply_requires_same_order(self):
        with pytest.raises(ValueError):
            multiply((1,), (1, 0))

    def test_binomial_factor_examples(self):
        assert binomial_factor(-1, 1, 0, -1, 5) == (1, 1, 2, 3, 5, 7)
        assert binomial_factor(1, 2, -1, 1, 5) == (1, 1, 0, 1, 1, 1)

    def test_eta_inverse_is_inverse(self):
        for a in (1, 2, 3, 5):
            forward = _multiply_eta([1] + [0] * 40, a, 40)
            back = se._divide_eta(forward, a, 40)
            assert back == [1] + [0] * 40

    def test_eta_matches_binomial_route(self):
        # E(q^a)^k = prod (1 - q^(a m))^k, through both routes of the pass choice
        for a in (1, 2, 4, 10):
            for k in range(-5, 6):
                via_eta = se.eta_product(60, [(a, k)])
                via_factors = binomial_factor(-1, a, 0, k, 60)
                assert tuple(via_eta) == via_factors, (a, k)


class TestNamedFamilies:
    def test_p_small(self):
        assert se.p_coeffs(5) == (1, 1, 2, 3, 5, 7)
        assert se.p_coeffs(10)[2] == 2

    def test_sc_prefix(self):
        assert list(se.sc_coeffs(27)) == A000700_PREFIX
        assert se.sc_coeffs(0)[0] == 1

    def test_sc_matches_binomial_route(self):
        assert se.sc_coeffs(60) == binomial_factor(1, 2, -1, 1, 60)

    def test_sc_counts_match_oracle(self):
        sc = se.sc_coeffs(60)
        for n in range(61):
            assert sc[n] == len(pt.enumerate_self_conjugate(n))

    def test_c2_is_triangular_indicator(self):
        row = se.c_t_coeffs(2, 40)
        triangular = {k * (k + 1) // 2 for k in range(10)}
        for n in range(41):
            assert row[n] == (1 if n in triangular else 0)

    def test_c1_counts_only_empty(self):
        assert se.c_t_coeffs(1, 6) == (1, 0, 0, 0, 0, 0, 0)

    def test_phat_values(self):
        for t in (1, 2, 3, 7):
            row = se.phat_coeffs(t, 4)
            assert row[0] == 1
            assert row[1] == t
        assert se.phat_coeffs(2, 4)[2] == 5

    def test_phat_is_convolution_power(self):
        p = se.p_coeffs(25)
        acc = (1,) + (0,) * 25
        for t in range(1, 5):
            acc = multiply(acc, p)
            assert acc == se.phat_coeffs(t, 25)

    def test_sc_t_spot_values(self):
        assert se.sc_t_coeffs(6, 13)[13] == 0
        assert se.sc_t_coeffs(4, 10)[10] == 2
        assert se.sc_t_coeffs(9, 18)[18] == 0

    def test_sc_t_rejects_small_t(self):
        with pytest.raises(UnsupportedT):
            se.sc_t_coeffs(1, 10)

    def test_nsc(self):
        for t in (3, 4, 7):
            row = se.nsc_t_coeffs(t, 30)
            c = se.c_t_coeffs(t, 30)
            s = se.sc_t_coeffs(t, 30)
            for n in range(31):
                assert row[n] == c[n] - s[n] >= 0


def _sc_t_cores(n: int, t: int) -> list:
    """The self-conjugate t-cores of n, filtered from every self-conjugate partition."""
    return [p for p in pt.enumerate_self_conjugate(n) if pt.is_t_core(p, t)]


class TestAgainstOracles:
    def test_sc_t_matches_enumeration(self):
        for t in range(2, 13):
            row = se.sc_t_coeffs(t, 30)
            for n in range(31):
                assert row[n] == len(_sc_t_cores(n, t)), (t, n)

    def test_c_t_matches_brute_force_filter(self):
        for t in range(2, 9):
            row = se.c_t_coeffs(t, 18)
            for n in range(19):
                brute = sum(1 for p in pt.partitions_of(n) if pt.is_t_core(p, t))
                assert row[n] == brute

    @given(st.integers(2, 20), st.integers(0, 25))
    @settings(max_examples=60)
    def test_sc_t_vs_oracle_random(self, t, n):
        assert se.sc_t_coeffs(t, n)[n] == len(_sc_t_cores(n, t))


class TestStructuralIdentities:
    def test_sc_t_equals_sc_beyond_n(self):
        sc = se.sc_coeffs(40)
        for t in range(2, 46):
            row = se.sc_t_coeffs(t, 40)
            for n in range(41):
                if t > n:
                    assert row[n] == sc[n]
                if t % 2 == 0 and 2 * t > n:
                    assert row[n] == sc[n]

    def test_even_parity_factor_structure(self):
        # prod(1+q^(2m-1)) times the 2t-power factor, checked via binomial route
        for t in (2, 4, 6):
            direct = se.sc_t_coeffs(t, 25)
            odd_parts = binomial_factor(1, 2, -1, 1, 25)
            power = binomial_factor(-1, 2 * t, 0, t // 2, 25)
            assert multiply(odd_parts, power) == direct

    def test_odd_parity_factor_structure(self):
        for t in (3, 5, 7, 9):
            direct = se.sc_t_coeffs(t, 25)
            odd_parts = binomial_factor(1, 2, -1, 1, 25)
            power = binomial_factor(-1, 2 * t, 0, (t - 1) // 2, 25)
            divisor = binomial_factor(1, 2 * t, -t, -1, 25)
            combined = multiply(multiply(odd_parts, power), divisor)
            assert combined == direct


class TestGrowthBounds:
    def test_ratio_bounds_cross_multiplied(self):
        sc = se.sc_coeffs(1200)
        for n in range(19, 1201):
            assert sc[n - 2] * (n + 2) < sc[n] * n
        for n in range(8, 1201):
            assert sc[n - 4] * (n + 4) < sc[n] * n

    def test_monotone_steps(self):
        sc = se.sc_coeffs(2000)
        for n in range(17, 1999):
            assert sc[n + 2] > sc[n]
        # the published bound n >= 24 for the step exceeding 1 is off by one:
        # sc(26) - sc(24) = 12 - 11 = 1, readable off the printed prefix
        for n in range(25, 1999):
            assert sc[n + 2] - sc[n] > 1
        assert sc[26] - sc[24] == 1
        assert sc[18] == sc[16]


class TestRowKernel:
    """The fused pass, the a > N shortcut and the prefix-served base rows
    against the factor-by-factor product of series_reference."""

    NS = (0, 1, 7, 150, 300)

    def test_rows_match_factor_by_factor_product(self):
        for n in self.NS:
            for t in range(2, 81):
                assert se.sc_t_coeffs(t, n) == sc_t_reference(t, n), ("sc_t", t, n)
                assert se.c_t_coeffs(t, n) == c_t_reference(t, n), ("c_t", t, n)

    def test_grid_takes_both_routes_of_the_pass_choice(self):
        # the even sc_t power E(q^2t)^(t/2) and the c_t power E(q^t)^t
        fused = {se._fused_shifts(a, k, n) is not None
                 for n in self.NS for t in range(2, 81)
                 for a, k in ((2 * t, t // 2), (t, t)) if a <= n}
        assert fused == {True, False}

    PSI_NS = (0, 1, 3, 4, 7, 150, 300, 1001)

    def test_psi_rows_match_factor_by_factor_product(self):
        for n in self.PSI_NS:
            assert se.sc_coeffs(n) == odd_parts(n), ("sc", n)
            for t in range(2, 81, 2):
                assert se.sc_t_coeffs(t, n) == sc_t_reference(t, n), ("sc_t", t, n)

    def test_even_rows_match_the_eta_power_over_sc(self):
        n = 2000
        sc = list(se.sc_coeffs(n))
        for t in range(2, 25, 2):
            assert list(se.sc_t_coeffs(t, n)) == _eta_power(sc, 2 * t, t // 2, n), t

    def test_triangular_sum_identity(self):
        # sc_2m(n) = sum of c_m(k) over the k >= 0 with n - 4k triangular
        n_max = 3000
        triangular = [k * (k + 1) // 2 for k in range(77)]  # every one <= 3000
        for m in range(1, 16):
            c = se.c_t_coeffs(m, n_max // 4)
            row = se.sc_t_coeffs(2 * m, n_max)
            for n in range(n_max + 1):
                assert row[n] == sum(c[(n - tri) // 4] for tri in triangular
                                     if tri <= n and (n - tri) % 4 == 0), (m, n)

    def test_grid_takes_both_even_routes(self):
        # psi and the eta power over sc, besides the theta product
        routes = {se._route(t, n) for n in self.PSI_NS for t in range(2, 81, 2) if 2 * t <= n}
        assert routes == {"theta", "psi", "sc"}

    def test_rows_beyond_the_factor_are_the_base_row(self):
        for t in range(2, 40):
            assert se.c_t_coeffs(t, t - 1) == se.p_coeffs(t - 1)
            assert se.sc_t_coeffs(t, t - 1) == se.sc_coeffs(t - 1)
            if t % 2 == 0:
                assert se.sc_t_coeffs(t, 2 * t - 1) == se.sc_coeffs(2 * t - 1)

    @pytest.mark.parametrize("order", [(10, 60, 200), (200, 60, 10), (60, 200, 10, 120, 0)])
    def test_rows_in_any_order_are_prefixes(self, order):
        se.clear_series_caches()
        rows = {n: [se.p_coeffs(n), se.sc_coeffs(n), se.phat_coeffs(3, n), se.c_t_coeffs(3, n),
                    se.c_t_coeffs(8, n), *(se.sc_t_coeffs(t, n) for t in (2, 3, 7, 10, 31))]
                for n in order}
        longest = rows[max(order)]
        for n, row in rows.items():
            for got, full in zip(row, longest):
                assert got == full[: n + 1]

    def test_nsc_is_p_minus_sc_below_t(self):
        p, sc = se.p_coeffs(60), se.sc_coeffs(60)
        for t in range(2, 70):
            row = se.nsc_t_coeffs(t, 60)
            for n in range(min(t, 61)):
                assert row[n] == p[n] - sc[n], (t, n)

    def test_clear_leaves_no_row(self):
        se.sc_t_coeffs(6, 90)
        se.c_t_coeffs(5, 90)
        se.phat_coeffs(2, 90)
        assert {("p", 0), ("c_t", 3)} <= set(se._store)  # the rows at 90 // 4 under sc and sc_6
        se.clear_series_caches()
        assert se._store == {}

    @pytest.mark.parametrize("build, t", [(se.p_coeffs, None), (se.sc_coeffs, None),
                                          (se.phat_coeffs, 3), (se.c_t_coeffs, 5),
                                          (se.sc_t_coeffs, 7)])
    def test_same_request_returns_the_same_series(self, build, t):
        args = () if t is None else (t,)
        se.clear_series_caches()
        full = build(*args, 120)
        assert build(*args, 120) is full
        # the store keeps only the row at its built length; a shorter request is a fresh, equal prefix
        assert build(*args, 40) == full[:41]

    def test_the_store_keeps_one_row_per_key(self):
        se.clear_series_caches()
        full = se.sc_t_coeffs(7, 120)
        assert se.sc_t_coeffs(7, 40) == full[:41]
        se.sc_t_coeffs(6, 90)
        assert se._store[("sc_t", 7)] is full
        for key, row in se._store.items():
            assert type(row) is tuple and all(type(c) is int for c in row), key

    @pytest.mark.parametrize("t", [1, 0, -3])
    def test_nsc_t_below_2_names_itself(self, t):
        with pytest.raises(UnsupportedT, match=f"^nsc_t series defined for t >= 2, got {t}$"):
            se.nsc_t_coeffs(t, 3)

    @pytest.mark.parametrize("build", [se.c_t_coeffs, se.phat_coeffs])
    def test_t_below_one_is_unsupported(self, build):
        with pytest.raises(UnsupportedT):
            build(0, 10)

    @pytest.mark.parametrize("call, message", [
        (lambda: se.sc_t_coeffs(2, 2.5), "n must be an int, not float"),
        (lambda: se.sc_coeffs(None), "n must be an int, not NoneType"),
        (lambda: se.p_coeffs("5"), "n must be an int, not str"),
        (lambda: se.p_coeffs(True), "n must be an int, not bool"),
        (lambda: se.c_t_coeffs(3.0, 5), "t must be an int, not float"),
        (lambda: se.phat_coeffs(False, 5), "t must be an int, not bool"),
        (lambda: se.nsc_t_coeffs(3, 5.0), "n must be an int, not float"),
        (lambda: se.eta_product("5", [(1, 1)]), "n must be an int, not str"),
    ])
    def test_sizes_that_are_not_ints_fail_at_entry(self, call, message):
        se.clear_series_caches()
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message
        assert se._store == {}

    @pytest.mark.parametrize("call", [
        lambda: se.p_coeffs(-1),
        lambda: se.sc_coeffs(-1),
        lambda: se.phat_coeffs(2, -1),
        lambda: se.c_t_coeffs(3, -1),
        lambda: se.sc_t_coeffs(2, -1),
        lambda: se.sc_t_coeffs(7, -5),
        lambda: se.nsc_t_coeffs(4, -1),
        lambda: se.eta_product(-1, [(1, 1)]),
    ], ids=["p", "sc", "phat", "c_t", "sc_t-even", "sc_t-odd", "nsc_t", "eta_product"])
    def test_a_negative_n_is_refused(self, call):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            call()


def _row_factors(family: str, t: int) -> list[tuple[int, int]]:
    """The eta powers of the c_t row over the p row, and of the sc_t row over
    the sc row with no psi step: for odd t the three factors, with a division
    at t = 3."""
    if family == "c_t":
        return [(t, t)]
    return [(2 * t, (t - 1) // 2 - 2), (t, 1), (4 * t, 1)] if t % 2 else [(2 * t, t // 2)]


def _base_row(family: str, n: int) -> list[int]:
    return list((se.p_coeffs if family == "c_t" else se.sc_coeffs)(n))


def _positive_steps(factors: list[tuple[int, int]], n: int) -> list[list[tuple[int, int]]]:
    return [step for a, k in factors if k > 0 and a <= n for step in se._power_steps(a, k, n)]


def _list_row(family: str, t: int, n: int) -> list[int]:
    """The row by list passes alone, positive powers first."""
    c = _base_row(family, n)
    for a, k in sorted(_row_factors(family, t), key=lambda f: f[1] < 0):
        c = _eta_power(c, a, k, n)
    return c


def _packed_row(family: str, t: int, n: int) -> list[int]:
    """The row with every positive power on the packed integer, whatever it costs."""
    c = _base_row(family, n)
    factors = _row_factors(family, t)
    steps = _positive_steps(factors, n)
    if steps:
        c = se._packed_steps(c, steps, n, se._slot_width(c, steps))
    for a, k in factors:
        if k < 0:
            c = _eta_power(c, a, k, n)
    return c


class TestOddRows:
    """Odd sc_t rows as psi(-q^t) E(q^2t)^((t-3)/2) over the sc row against
    the three-factor product E(q^2t)^((t-5)/2) E(q^t) E(q^4t) by list passes."""

    NS = TestRowKernel.NS

    def test_psi_minus_is_the_eta_quotient(self):
        n = 200
        for a in range(1, 8):
            expected = multiply(multiply(binomial_factor(-1, a, 0, 1, n), binomial_factor(-1, 4 * a, 0, 1, n)),
                                binomial_factor(-1, 2 * a, 0, -1, n))
            assert tuple(se._shift_add(se._unit(n), se._psi_minus(a, n))) == expected, a

    @pytest.mark.parametrize("n", [2000, 10_000])
    def test_odd_rows_match_the_three_factor_product(self, n):
        for t in (*range(3, 12, 2), 91, 151, 301):
            assert list(se.sc_t_coeffs(t, n)) == _list_row("sc_t", t, n), (t, n)

    def test_no_sc_t_row_divides(self, monkeypatch):
        se.clear_series_caches()
        se.p_coeffs(3000)
        divisions = []
        divide = se._divide_eta
        monkeypatch.setattr(se, "_divide_eta", lambda *args: divisions.append(args[1:]) or divide(*args))
        for t in range(2, 42):
            se.sc_t_coeffs(t, 3000)
        assert divisions == []
        se.phat_coeffs(2, 50)  # the one family besides p that still divides
        assert divisions == [(1, 50), (1, 50)]


class TestThetaRows:
    """sc_t as the product of floor(t/2) theta series over the series 1,
    against every series route over the stored base rows."""

    @pytest.mark.parametrize("n", [7, 300, 1000, 3000])
    def test_theta_product_equals_the_series_route(self, n):
        for t in range(2, 102):
            theta = se._build("sc_t", t, n, "theta")
            for route in ("sc",) if t % 2 else ("psi", "sc"):
                assert theta == list(se._build("sc_t", t, n, route)), (t, n, route)

    def test_grid_takes_both_sides_of_the_theta_rule(self):
        # so TestRowKernel's check against series_reference covers the product
        routes = {(t % 2, se._route(t, n) == "theta") for n in TestRowKernel.NS for t in range(2, 81)}
        assert routes == {(0, True), (0, False), (1, True), (1, False)}

    @pytest.mark.parametrize("n", [300, 1000])
    def test_partial_products_stay_below_the_sign_bit(self, n):
        # the slot width's bound on the series 1 and 0/1 steps holds every
        # coefficient of every partial product below 2**(w - 1)
        for t in range(2, 102):
            steps = se._theta_steps(t, n)
            assert len(steps) == t // 2
            bound = 1 << (se._slot_width(se._unit(n), steps) - 1)
            c = se._unit(n)
            for step in steps:
                assert len({g for g, _ in step}) == len(step), (t, n)
                c = se._shift_add(c, step)
                assert 0 <= min(c) and max(c) < bound, (t, n)
            assert se._build("sc_t", t, n, "theta") == c, (t, n)

    def test_no_small_sc_t_row_divides(self, monkeypatch):
        # below the theta rule's n the t = 3 row takes the other routes
        se.p_coeffs(40)
        divisions = []
        divide = se._divide_eta
        monkeypatch.setattr(se, "_divide_eta", lambda *args: divisions.append(args[1:]) or divide(*args))
        for n in range(41):
            for t in range(2, 42):
                se._build("sc_t", t, n)
        assert divisions == []

    def test_slot_width_is_the_term_count_bound(self):
        # 2 * 3 * 4 = 24 takes 5 bits and the spare top bit a sixth: one byte;
        # 128 takes 8 bits and the top bit a ninth: two bytes
        steps = [[(1, 1)], [(1, 1), (2, 1)], [(1, 1), (2, 1), (3, 1)]]
        assert se._slot_width([1], steps) == 8
        assert se._slot_width([1], [[(g, 1) for g in range(1, 128)]]) == 16


class TestPackedKernel:
    """The packed integer (Kronecker substitution) against the list passes,
    series_reference, and the slot bound."""

    NS = TestRowKernel.NS

    def test_packed_rows_match_the_list_passes_and_the_reference(self):
        for n in self.NS:
            for t in range(2, 81):
                for family, reference in (("sc_t", sc_t_reference), ("c_t", c_t_reference)):
                    packed = _packed_row(family, t, n)
                    assert packed == _list_row(family, t, n), (family, t, n)
                    assert tuple(packed) == reference(t, n), (family, t, n)

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_packed_rows_match_the_list_passes_at_large_n(self, n):
        for t in (*range(2, 12), 16, 24, 31, 40, 57, 80):
            for family in ("sc_t", "c_t"):
                assert _packed_row(family, t, n) == _list_row(family, t, n), (family, t, n)

    def test_grid_takes_both_kernel_routes(self):
        packs = {se._packs(_positive_steps(_row_factors(family, t), n), n)
                 for n in (*self.NS, 2000, 5000) for t in range(2, 81) for family in ("sc_t", "c_t")}
        assert packs == {True, False}

    def test_signed_coefficients_through_eta_product(self):
        n, factors = 600, [(1, 2), (2, 3), (3, 1), (5, 2), (2, -1)]
        steps = _positive_steps(factors, n)
        assert se._packs(steps, n)
        expected = (1,) + (0,) * n
        for a, k in factors:
            expected = multiply(binomial_factor(-1, a, 0, k, n), expected)
        got = se.eta_product(n, factors)
        assert tuple(got) == expected
        assert min(got) < 0 < max(got)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficients_in_the_top_quarter_of_the_slot(self, sign):
        # [1, 0] times 1 + u q is [1, u].  With |u| = 2**k + 1 the slot bound
        # 1 + |u| and its sign bit take k + 2 bits, so for k = 8j - 2 the slot
        # is w = k + 2 bits and 2**(w - 2) < |u| < 2**(w - 1): the top quarter
        # of its range, where a negative u decodes right only with the full
        # bias 2**(w - 1)
        for k in (6, 14, 22, 30):
            u = sign * (2 ** k + 1)
            c, steps = [1, 0], [[(1, u)]]
            w = se._slot_width(c, steps)
            assert w == k + 2 and 1 << (w - 2) < abs(u) < 1 << (w - 1)
            assert se._packed_steps(c, steps, 1, w) == se._shift_add(c, steps[0]) == [1, u]

    def test_working_integer_stays_one_row_long(self):
        # E(q^9)^9 at n = 2000 is nine pentagonal passes.  Reducing after each
        # pass mod 2**((n + 1) w) keeps the working integer within two rows;
        # left unreduced it grows by a row with every pass and the peak passes
        # 40 row sizes, though every coefficient still comes out exact.  The
        # packed pieces and the output list take about 9 row sizes themselves.
        n, t = 2000, 9
        c = list(se.p_coeffs(n))
        steps = se._power_steps(t, t, n)
        assert len(steps) == t
        w = se._slot_width(c, steps)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            se._packed_steps(c, steps, n, w)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 12 * (n + 1) * w // 8

    def test_fused_power_at_the_slot_bound(self):
        # E(q^2)^100 is one fused pass 1 + sum u q^g.  Against a base row
        # with c[n - g] = B sign(u) and c[n] = B, the last coefficient is B
        # times the pass's l1 norm, the bound the slot width is taken from.
        # bitlen(B norm) is a multiple of 8, so the 1-bit margin is what adds
        # the slot's last byte: without it the coefficient would fill the
        # slot, sign bit included.
        n = 120
        steps = se._power_steps(2, 100, n)
        assert len(steps) == 1 and se._fused_shifts(2, 100, n) is not None
        norm = 1 + sum(abs(u) for _, u in steps[0])
        big = ((1 << (norm.bit_length() // 8 + 2) * 8) - 1) // norm
        c = [0] * (n + 1)
        c[n] = big
        for g, u in steps[0]:
            c[n - g] = big if u > 0 else -big
        w = se._slot_width(c, steps)
        expected = se._shift_add(c, steps[0])
        assert expected[n] == big * norm and expected[n].bit_length() == w - 8
        assert se._packed_steps(c, steps, n, w) == expected
