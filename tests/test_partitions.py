from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from sccore import abacus as ab
from sccore import partitions as pt
from sccore.config import Limits
from sccore.errors import InvalidHooks, NotSelfConjugate, OutOfDiagram, ResourceLimit
from sccore.series import sc_coeffs


def partitions_strategy(max_n=30):
    return st.integers(0, max_n).flatmap(
        lambda n: st.sampled_from(pt.partitions_of(n))
    )


@st.composite
def sc_hooks(draw):
    """Strictly decreasing positive odd integers, built from gap choices."""
    gaps = draw(st.lists(st.integers(1, 20), max_size=12))
    hooks, cur = [], -1
    for g in gaps:
        cur += 2 * g
        hooks.append(cur)
    return tuple(reversed(hooks))


class TestConjugate:
    def test_examples(self):
        assert pt.conjugate((4, 3, 1, 1)) == (4, 2, 2, 1)
        assert pt.conjugate(()) == ()
        assert pt.conjugate((3, 2, 1)) == (3, 2, 1)

    def test_involution_exhaustive_small(self):
        for n in range(13):
            for p in pt.partitions_of(n):
                assert pt.conjugate(pt.conjugate(p)) == p

    @given(partitions_strategy())
    def test_involution(self, p):
        assert pt.conjugate(pt.conjugate(p)) == p

    @pytest.mark.parametrize("bad", [(1, 2), (3, 0), (2, -1)])
    def test_refuses_a_non_partition(self, bad):
        # (1, 2) once transposed to (2,) and (3, 0) to (1, 1, 1), so
        # is_self_conjugate((1, 2)) was a quiet False; the reduction checks
        # its input before the unchecked bead test
        for kernel in (pt.conjugate, pt.is_self_conjugate, pt.diagonal_hooks,
                       lambda p: ab.sc_reduction_step(p, 2), lambda p: ab.sc_reduce_to_core(p, 2)):
            with pytest.raises(ValueError, match="^parts must be"):
                kernel(bad)


class TestSelfConjugate:
    def test_examples(self):
        assert pt.is_self_conjugate((3, 3, 2))
        assert not pt.is_self_conjugate((2,))
        assert pt.is_self_conjugate(())

    def test_diagonal_hooks_examples(self):
        assert pt.diagonal_hooks((3, 2, 1)) == (5, 1)
        assert pt.diagonal_hooks((4, 2, 1, 1)) == (7, 1)
        assert pt.diagonal_hooks((1,)) == (1,)
        assert pt.diagonal_hooks(()) == ()

    def test_diagonal_hooks_rejects_non_sc(self):
        with pytest.raises(NotSelfConjugate):
            pt.diagonal_hooks((2,))

    def test_from_diagonal_hooks_examples(self):
        assert pt.from_diagonal_hooks((5, 1)) == (3, 2, 1)
        assert pt.from_diagonal_hooks((29, 15)) == (
            15, 9, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1,
        )
        assert pt.from_diagonal_hooks((1,)) == (1,)

    INVALID_HOOKS = {
        (4, 2): "hooks must be positive odd integers, got (4, 2)",
        (-1,): "hooks must be positive odd integers, got (-1,)",
        (3, 3): "hooks must be strictly decreasing, got (3, 3)",
        (1, 3): "hooks must be strictly decreasing, got (1, 3)",
    }

    def test_invalid_hooks_rejected(self):
        # check_hooks and from_diagonal_hooks refuse with the same one line
        for bad, message in self.INVALID_HOOKS.items():
            for check in (pt.check_hooks, pt.from_diagonal_hooks):
                with pytest.raises(InvalidHooks) as info:
                    check(bad)
                assert str(info.value) == message

    def test_check_hooks_returns_its_tuple(self):
        hooks = (9, 5, 1)
        assert pt.check_hooks(hooks) is hooks
        assert pt.check_hooks(()) == ()

    def test_round_trip_exhaustive(self):
        for n in range(51):
            for p in pt.enumerate_self_conjugate(n):
                dh = pt.diagonal_hooks(p)
                assert pt.check_hooks(dh) == dh
                assert sum(dh) == n
                assert pt.from_diagonal_hooks(dh) == p

    @given(sc_hooks())
    @settings(max_examples=300)
    def test_round_trip_random_hooks(self, hooks):
        p = pt.from_diagonal_hooks(hooks)
        assert pt.is_self_conjugate(p)
        assert pt.diagonal_hooks(p) == hooks


class TestHooks:
    def test_examples(self):
        assert pt.hook_length((4, 2, 1, 1), 1, 2) == 4
        assert pt.hook_length((1,), 1, 1) == 1
        assert pt.hook_length((3, 3, 2), 1, 1) == 5

    def test_out_of_diagram(self):
        with pytest.raises(OutOfDiagram):
            pt.hook_length((2, 1), 1, 3)
        with pytest.raises(OutOfDiagram):
            pt.hook_length((2, 1), 3, 1)

    def test_grid_matches_pointwise(self):
        for n in range(11):
            for p in pt.partitions_of(n):
                grid = pt.hook_grid(p)
                for i in range(1, len(p) + 1):
                    for j in range(1, p[i - 1] + 1):
                        assert grid[i - 1][j - 1] == pt.hook_length(p, i, j)

    @pytest.mark.parametrize("bad", [(1, 2), (3, 0), (2, -1)])
    def test_grid_refuses_a_non_partition(self, bad):
        # checked at entry by check_partition, not an IndexError from inside
        for kernel in (pt.hook_grid, pt.hook_multiset, pt.character_degree):
            with pytest.raises(ValueError, match="^parts must be"):
                kernel(bad)

    def test_diagonal_rule_and_off_diagonal_bound(self):
        # on the d x d corner h_ij = (d_i + d_j)/2; beyond it h_ij < d_i / 2
        for n in range(61):
            for p in pt.enumerate_self_conjugate(n):
                hooks = pt.diagonal_hooks(p)
                d = len(hooks)
                grid = pt.hook_grid(p)
                for i in range(1, d + 1):
                    for j in range(1, p[i - 1] + 1):
                        if j <= d and j >= i:
                            assert grid[i - 1][j - 1] == (hooks[i - 1] + hooks[j - 1]) // 2
                        elif j > d:
                            assert 2 * grid[i - 1][j - 1] < hooks[i - 1]

    def test_no_hook_exceeds_half_n_except_first(self):
        for n in range(101):
            for p in pt.enumerate_self_conjugate(n):
                grid = pt.hook_grid(p)
                for i, row in enumerate(grid, start=1):
                    for j, h in enumerate(row, start=1):
                        if (i, j) != (1, 1):
                            assert 2 * h <= n


class TestTCore:
    def test_examples(self):
        assert pt.is_t_core((2, 1), 5)
        assert not pt.is_t_core((3, 3, 2), 4)
        assert pt.is_t_core((), 3)

    def test_matches_hook_multiset(self):
        for n in range(13):
            for p in pt.partitions_of(n):
                hooks = set(pt.hook_multiset(p))
                for t in range(1, 15):
                    assert pt.is_t_core(p, t) == (t not in hooks)

    @pytest.mark.parametrize("bad, t", [((0,), 1), ((1, 2), 2), ((3, 0), 2), ((2, -1), 3)])
    def test_refuses_a_non_partition(self, bad, t):
        # (0,) once passed as a 1-core and (1, 2) as no 2-core
        with pytest.raises(ValueError, match="^parts must be"):
            pt.is_t_core(bad, t)
        # the t check comes first
        with pytest.raises(ValueError, match="^t must be positive$"):
            pt.is_t_core(bad, 0)


class TestEnumeration:
    def test_examples(self):
        assert pt.enumerate_self_conjugate(8) == [(3, 3, 2), (4, 2, 1, 1)]
        assert pt.enumerate_self_conjugate(2) == []
        assert [p for p in pt.enumerate_self_conjugate(13) if pt.is_t_core(p, 6)] == []

    def test_counts_match_series(self):
        sc = sc_coeffs(80)
        for n in range(81):
            assert len(pt.enumerate_self_conjugate(n)) == sc[n]

    def test_spot_large_count(self):
        assert len(pt.enumerate_self_conjugate(100)) == sc_coeffs(100)[100]

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            pt.enumerate_self_conjugate(10, Limits(oracle_cap=5))

    def test_all_outputs_are_sc_t_cores(self):
        for n in range(31):
            for t in (2, 5, 8):
                for p in [q for q in pt.enumerate_self_conjugate(n) if pt.is_t_core(q, t)]:
                    assert pt.is_self_conjugate(p)
                    assert pt.is_t_core(p, t)


def _reference_sequences(n, max_first=None):
    """The plain recursive walk: first part from the largest allowed down,
    pruned by the k^2 bound on distinct odd parts below 2k + 1."""
    if max_first is None:
        max_first = n
    if n == 0:
        yield ()
        return
    first = min(max_first, n)
    if first % 2 == 0:
        first -= 1
    while first >= 1 and n - first <= ((first - 1) // 2) ** 2:
        if first == n:
            yield (first,)
        else:
            for rest in _reference_sequences(n - first, first - 2):
                yield (first,) + rest
        first -= 2


class TestDescendingOddSequences:
    """The iterative walk with its tail table yields what the recursion
    yields, in the same order, on both sides of the table bound."""

    @staticmethod
    def check(n):
        # the walk yields hook sets; the public walk is their tuple view
        want = list(_reference_sequences(n))
        assert list(pt._hook_sets(n)) == [pt._set_of(seq) for seq in want], n
        assert list(pt.descending_odd_sequences(n)) == want, n

    def test_matches_recursion_small(self):
        for n in range(81):
            self.check(n)

    @pytest.mark.parametrize("n", [100, 118, 130])
    def test_matches_recursion_across_the_table_bound(self, n):
        self.check(n)

    def test_sets_order_as_their_sequences(self):
        # every hook set of size <= 40, sorted as descending tuples, ascends as ints
        seqs = sorted(seq for n in range(41) for seq in _reference_sequences(n))
        sets = [pt._set_of(seq) for seq in seqs]
        assert all(a < b for a, b in zip(sets, sets[1:]))
        assert [pt._hooks_of(s) for s in sets] == seqs

    def test_empty_and_negative(self):
        assert list(pt.descending_odd_sequences(0)) == [()]
        assert list(pt.descending_odd_sequences(-4)) == []
        assert list(pt._hook_sets(0)) == [0]
        assert list(pt._hook_sets(-4)) == []


def _syt_count(p):
    """Independent oracle for the character degree: count standard Young
    tableaux by peeling corners down Young's lattice."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(q):
        if sum(q) <= 1:
            return 1
        total = 0
        for i in range(len(q)):
            if q[i] > (q[i + 1] if i + 1 < len(q) else 0):
                child = list(q)
                child[i] -= 1
                if child[-1] == 0:
                    child.pop()
                total += count(tuple(child))
        return total

    return count(p)


class TestCharacterDegree:
    def test_examples(self):
        assert pt.character_degree((2, 1)) == 2
        assert pt.character_degree((2, 2)) == 2
        for n in (1, 4, 9):
            assert pt.character_degree((n,)) == 1

    def test_against_tableau_count(self):
        for n in range(11):
            for p in pt.partitions_of(n):
                assert pt.character_degree(p) == _syt_count(p)

    def test_invariant_under_conjugation(self):
        for n in range(15):
            for p in pt.partitions_of(n):
                assert pt.character_degree(p) == pt.character_degree(pt.conjugate(p))
