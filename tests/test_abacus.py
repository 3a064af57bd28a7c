from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st

import abacus_reference as ref
from sccore import abacus as ab
from sccore import cli
from sccore import partitions as pt
from sccore.errors import AlreadyCore, LengthTooSmall, NotACore, NotSelfConjugate
from sccore.series import c_t_coeffs

FIG_PARTITION = pt.from_diagonal_hooks((29, 15))


def small_partitions(max_n=24):
    return st.integers(0, max_n).flatmap(
        lambda n: st.sampled_from(pt.partitions_of(n))
    )


class TestBetaSet:
    def test_examples(self):
        assert ab.beta_set((2, 1), 3) == (4, 2, 0)
        assert ab.beta_set((), 4) == (3, 2, 1, 0)
        assert ab.partition_of((4, 2, 0)) == (2, 1)

    def test_length_too_small(self):
        with pytest.raises(LengthTooSmall):
            ab.beta_set((3, 2, 1), 2)

    @pytest.mark.parametrize("p", [(1, 2), (2, 0), (0,), (2, -1), (3, 2, 2, 3)])
    def test_a_non_partition_is_refused(self, p):
        # (1, 2) would give (3, 3, 0) and (2, 0) would give (4, 1, 0)
        with pytest.raises(ValueError):
            ab.beta_set(p, 3 if len(p) < 3 else len(p))

    @pytest.mark.parametrize("beads", [[3, 3, 1], [5, 3, 3], [4, 4], [2, 1, 1, 0], [0, 3, 0]])
    def test_repeated_beads_are_refused(self, beads):
        # repeats sit next to each other once the beads are sorted
        with pytest.raises(ValueError):
            ab.partition_of(beads)

    @given(small_partitions(), st.integers(0, 6))
    def test_round_trip_any_length(self, p, extra):
        m = len(p) + extra
        assert ab.partition_of(ab.beta_set(p, m)) == p

    def test_beads_are_first_column_hooks(self):
        for n in range(12):
            for p in pt.partitions_of(n):
                if not p:
                    continue
                beads = ab.beta_set(p, len(p))
                hooks = [pt.hook_length(p, i, 1) for i in range(1, len(p) + 1)]
                assert list(beads) == hooks


class TestRemoveHook:
    def test_examples(self):
        assert ab.remove_hook((4, 2, 1, 1), 1, 1) == (1,)
        assert ab.remove_hook((3, 2, 1), 3, 1) == (3, 2)
        assert ab.remove_hook((3, 3, 2), 1, 2) == (2, 1, 1)

    def test_size_drops_by_hook_length(self):
        for n in range(2, 14):
            for p in pt.partitions_of(n):
                grid = pt.hook_grid(p)
                for i in range(1, len(p) + 1):
                    for j in range(1, p[i - 1] + 1):
                        out = ab.remove_hook(p, i, j)
                        assert sum(out) == n - grid[i - 1][j - 1]


class TestHookCells:
    def test_bead_cells_match_hook_grid(self):
        for n in range(21):
            for p in pt.partitions_of(n):
                grid = pt.hook_grid(p)
                for t in range(1, 12):
                    want = [(i, j) for i, row in enumerate(grid, start=1)
                            for j, h in enumerate(row, start=1) if h == t]
                    assert ref.t_hook_cells(p, t) == want


class TestCoreQuotient:
    def test_figure_anchors(self):
        assert ab.t_core(FIG_PARTITION, 5) == (5, 1, 1, 1, 1)
        assert ab.t_quotient(FIG_PARTITION, 5) == ((1, 1), (), (2, 1), (), (2,))
        assert ab.quotient_is_self_symmetric(ab.t_quotient(FIG_PARTITION, 5))
        assert (
            ab.assemble((5, 1, 1, 1, 1), ((1, 1), (), (2, 1), (), (2,)), 5)
            == FIG_PARTITION
        )

    def test_examples(self):
        assert ab.t_core((3, 3, 2), 4) == ()
        q4 = ab.t_quotient((3, 3, 2), 4)
        assert sum(sum(c) for c in q4) == 2
        assert ab.t_core((3, 2, 1), 7) == (3, 2, 1)
        two = ab.assemble((), ((1,), ()), 2)
        assert sum(two) == 2 and not pt.is_t_core(two, 2)

    def test_core_is_core_and_order_independent(self):
        rng = random.Random(7)
        trials = 0
        for n in range(0, 41, 4):
            for p in rng.sample(pt.partitions_of(n), min(6, len(pt.partitions_of(n)))):
                for t in range(2, 9):
                    core = ab.t_core(p, t)
                    assert pt.is_t_core(core, t)
                    # random single-hook removal walk ends at the same core
                    for _ in range(2):
                        cur = p
                        while True:
                            cells = ref.t_hook_cells(cur, t)
                            if not cells:
                                break
                            i, j = rng.choice(cells)
                            cur = ab.remove_hook(cur, i, j)
                        trials += 1
                        assert cur == core
        assert trials >= 200

    def test_assemble_round_trip(self):
        for n in range(26):
            for p in pt.partitions_of(n):
                for t in (2, 3, 5, 7):
                    core, quo = ab.t_core(p, t), ab.t_quotient(p, t)
                    assert ab.assemble(core, quo, t) == p

    def test_size_identity_and_divisible_hooks(self):
        for n in range(21):
            for p in pt.partitions_of(n):
                for t in range(2, 9):
                    core, quo = ab.t_core(p, t), ab.t_quotient(p, t)
                    qsize = sum(sum(c) for c in quo)
                    assert n == sum(core) + t * qsize
                    divisible = sum(1 for h in pt.hook_multiset(p) if h % t == 0)
                    assert divisible == qsize

    def test_t1_core_is_empty(self):
        for p in pt.partitions_of(6):
            assert ab.t_core(p, 1) == ()
            assert ab.assemble((), ab.t_quotient(p, 1), 1) == p

    def test_assemble_rejects_non_core(self):
        with pytest.raises(NotACore):
            ab.assemble((3, 3, 2), ((), (), (), ()), 4)

    def test_assemble_rejects_malformed_input(self):
        # each of these once came back as a partition: (3, 2, 2, 1) for the first
        # component and () for the second
        for q in (((1, 3), ()), ((0,), ()), ((-1,), ()), ((), (2, 0))):
            with pytest.raises(ValueError):
                ab.assemble((), q, 2)
        for core in ((1, 2), (1, 0)):
            with pytest.raises(ValueError):
                ab.assemble(core, ((), ()), 2)
        with pytest.raises(ValueError):
            ab.assemble((), ((), ()), 3)


class TestQuotientSymmetry:
    def test_examples(self):
        assert ab.quotient_is_self_symmetric(((1, 1), (), (2, 1), (), (2,)))
        assert ab.quotient_is_self_symmetric(((),))
        assert not ab.quotient_is_self_symmetric(((1,), ()))

    def test_sc_iff_core_sc_and_quotient_symmetric(self):
        rng = random.Random(11)
        for n in range(41):
            sc_set = set(pt.enumerate_self_conjugate(n))
            pool = list(pt.partitions_of(n))
            sample = sc_set | set(rng.sample(pool, min(12, len(pool))))
            for p in sample:
                for t in range(2, 9):
                    lhs = p in sc_set
                    core, quo = ab.t_core(p, t), ab.t_quotient(p, t)
                    rhs = pt.is_self_conjugate(core) and ab.quotient_is_self_symmetric(quo)
                    assert lhs == rhs, (p, t, core, quo)


class TestSCReduction:
    def test_examples(self):
        out, desc = ab.sc_reduction_step((3, 3, 2), 4)
        assert out == () and desc["case"] == "pair"
        assert desc["cells"] == [(1, 2), (2, 1)]
        out, desc = ab.sc_reduction_step((2, 1), 3)
        assert out == () and desc["case"] == "diagonal"

    def test_errors(self):
        with pytest.raises(AlreadyCore):
            ab.sc_reduction_step((3, 2, 1), 4)  # (3,2,1) has no 4-hook
        with pytest.raises(NotSelfConjugate):
            ab.sc_reduction_step((3, 1), 2)

    def test_chain_refuses_non_self_conjugate_input(self):
        # (2,) is a 3-core and (3, 1) a 5-core; once each came back as a
        # one-element chain, and (3, 1) at t = 2 always raised
        for p, t in (((2,), 3), ((3, 1), 5), ((3, 1), 2), ((2, 2, 1), 4)):
            with pytest.raises(NotSelfConjugate):
                ab.sc_reduce_to_core(p, t)

    def test_the_bead_test_is_self_conjugacy(self):
        # is_self_conjugate reads self-conjugacy off the beads, and the
        # reduction takes its input's beads from the same test
        for n in range(21):
            for p in pt.partitions_of(n):
                mirrored = p == pt.conjugate(p)
                assert pt.is_self_conjugate(p) == mirrored, p
                try:
                    ab._sc_beads(p, 2)
                except NotSelfConjugate:
                    assert not mirrored, p
                else:
                    assert mirrored, p
        # a non-partition is refused as such before the bead test
        for bad in ((1, 2), (2, 0), (0,), (2, -1), (3, 2, 2, 3)):
            with pytest.raises(ValueError):
                ab.sc_reduce_to_core(bad, 2)

    def test_chain_reaches_core_through_sc_partitions(self):
        for n in range(2, 36):
            for p in pt.enumerate_self_conjugate(n):
                for t in range(2, 8):
                    chain = ab.sc_reduce_to_core(p, t)
                    assert chain[-1] == ab.t_core(p, t)
                    for q in chain:
                        assert pt.is_self_conjugate(q)
                    if t % 2 == 0:
                        steps = [sum(a) - sum(b) for a, b in zip(chain, chain[1:])]
                        assert all(s == 2 * t for s in steps)


class TestAgainstReference:
    """The runner-form kernels against the partition-level ones in
    tests/abacus_reference.py: every self-conjugate partition with n <= 30 and
    every partition with n <= 20, at t = 1..9."""

    @staticmethod
    def _step(module, p, t):
        try:
            return module.sc_reduction_step(p, t)
        except AlreadyCore:
            return None

    def test_chains_and_steps(self):
        for n in range(31):
            for p in pt.enumerate_self_conjugate(n):
                for t in range(1, 10):
                    assert ab.sc_reduce_to_core(p, t) == ref.sc_reduce_to_core(p, t), (p, t)
                    assert self._step(ab, p, t) == self._step(ref, p, t), (p, t)

    def test_cores_quotients_and_reassembly(self):
        sc_set = [p for n in range(31) for p in pt.enumerate_self_conjugate(n)]
        every = [p for n in range(21) for p in pt.partitions_of(n)]
        for p in sc_set + every:
            for t in range(1, 10):
                core, quotient = ab.t_core(p, t), ab.t_quotient(p, t)
                assert core == ref.t_core(p, t), (p, t)
                assert quotient == ref.t_quotient(p, t), (p, t)
                assert ab.assemble(core, quotient, t) == ref.assemble(core, quotient, t) == p, (p, t)

    def test_hook_cells_and_removal(self):
        for n in range(16):
            for p in pt.partitions_of(n):
                for t in range(1, 10):
                    for i, j in ref.t_hook_cells(p, t):
                        assert ab.remove_hook(p, i, j) == ref.remove_hook(p, i, j), (p, i, j)


class TestTCoreEnumeration:
    def test_counts_match_series(self):
        for t, n_max in [(t, 30) for t in range(2, 13)] + [(t, 20) for t in (13, 16, 20, 25, 40)]:
            row = c_t_coeffs(t, n_max)
            by_size: dict[int, list] = {n: [] for n in range(n_max + 1)}
            for size_, p in ab.t_cores_up_to(n_max, t):
                assert sum(p) == size_ and pt.is_t_core(p, t)
                by_size[size_].append(p)
            for n in range(n_max + 1):
                assert len(by_size[n]) == row[n], (t, n)
                assert len(set(by_size[n])) == len(by_size[n])

    def test_exact_size_wrapper(self):
        assert sorted(ab.enumerate_t_cores(6, 3)) == sorted(
            p for p in pt.partitions_of(6) if pt.is_t_core(p, 3)
        )

    def test_t1(self):
        assert list(ab.enumerate_t_cores(0, 1)) == [()]
        assert list(ab.enumerate_t_cores(3, 1)) == []


class TestLatticeWalk:
    """The stack walk of `t_cores_up_to` against the recursive walk it
    replaced (tests/abacus_reference.py), and its exact bound."""

    @pytest.mark.parametrize("t", range(1, 11))
    def test_yields_the_reference_sequence(self, t):
        for limit in (0, 1, 30, 100) if t <= 8 else (0, 1, 30):
            assert list(ab.t_cores_up_to(limit, t)) == list(ref.t_cores_up_to(limit, t)), limit

    def test_least_twice_size_is_the_exhaustive_minimum(self):
        # Brute force over the deviations in the box |d| <= box that sum to
        # k.  The least of them lies strictly inside the box, so every
        # exchange (d_i + 1, d_j - 1) from it stays in the box and lowers
        # nothing, and for a separable convex cost that makes it the least
        # over all of Z^m.
        for t in range(1, 7):
            for r in range(t):
                m = t - r
                for k in range(-4, 5):
                    box = -(-abs(k) // m) + 1
                    least, widest = min(
                        (sum(t * d * d + 2 * (r + i) * d for i, d in enumerate(ds)), max(map(abs, ds)))
                        for ds in product(range(-box, box + 1), repeat=m) if sum(ds) == k)
                    assert widest < box, (t, r, k)
                    assert ab._least_twice_size(t, r, k) == least, (t, r, k)

    def test_work_follows_the_cores_listed(self, monkeypatch):
        # Every node on the stack extends to a yielded core, so the nodes at
        # each depth 0..t-1 are at most the cores: at most (t - 1) cores
        # internal nodes and (t - 1) cores kept children.  A node with c kept
        # children asks the bound c + 1 times (the scan up ends on one refusal
        # and the scan down on another, and the start fits), so the calls are
        # at most 2 (t - 1) cores.
        calls = [0]
        least = ab._least_twice_size

        def counted(t, r, k):
            calls[0] += 1
            return least(t, r, k)

        monkeypatch.setattr(ab, "_least_twice_size", counted)
        limit, t = 12, 40
        cores = sum(1 for _ in ab.t_cores_up_to(limit, t))
        assert cores == sum(len(pt.partitions_of(n)) for n in range(limit + 1))  # every size < t
        assert 0 < calls[0] <= 2 * (t - 1) * cores

    def test_count_method_all_agrees_at_t_40(self, capsys):
        assert cli.main(["count", "c_t", "--t", "40", "--n", "0..12", "--method", "all"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == [f"40 {n} {len(pt.partitions_of(n))}" for n in range(13)]
        assert err == "# methods agree: series, oracle\n"

    def test_a_negative_limit_lists_nothing(self):
        for t in range(1, 5):
            assert list(ab.t_cores_up_to(-1, t)) == []


@pytest.mark.parametrize("t", [0, -1])
@pytest.mark.parametrize("call", [
    lambda t: ab.t_core((3, 1), t),
    lambda t: ab.t_quotient((3, 1), t),
    lambda t: ab.sc_reduction_step((2, 1), t),
    lambda t: ab.sc_reduce_to_core((2, 1), t),
    lambda t: list(ab.enumerate_t_cores(4, t)),
    lambda t: pt.is_t_core((3, 1), t),
], ids=["t_core", "t_quotient", "sc_reduction_step", "sc_reduce_to_core", "enumerate_t_cores", "is_t_core"])
def test_t_below_one_is_refused(call, t):
    with pytest.raises(ValueError, match="^t must be positive$"):
        call(t)


def coprime_pairs(t_max):
    return [(s, t) for s in range(2, t_max) for t in range(s + 1, t_max + 1) if gcd(s, t) == 1]


class TestSimultaneousCores:
    def test_matches_the_s_core_filter(self):
        # the reference: every s-core up to the largest (s, t)-core size, kept
        # when it is also a t-core
        for s, t in coprime_pairs(7):
            max_size = (s * s - 1) * (t * t - 1) // 24
            reference = {p for _, p in ab.t_cores_up_to(max_size, s) if pt.is_t_core(p, t)}
            found = list(ab.simultaneous_cores(s, t))
            assert len(found) == len(set(found)), (s, t)
            assert set(found) == reference, (s, t)

    def test_no_hook_of_length_s_or_t(self):
        for s, t in coprime_pairs(7):
            if (s * s - 1) * (t * t - 1) // 24 > 40:
                continue
            for p in ab.simultaneous_cores(s, t):
                hooks = {h for row in pt.hook_grid(p) for h in row}
                assert s not in hooks and t not in hooks, (s, t, p)

    def test_symmetric_in_s_and_t(self):
        for s, t in coprime_pairs(8):
            assert set(ab.simultaneous_cores(s, t)) == set(ab.simultaneous_cores(t, s)), (s, t)

    def test_one_core_is_empty(self):
        assert list(ab.simultaneous_cores(1, 5)) == [()]

    def test_rejects_non_coprime_or_non_positive(self):
        for s, t in ((4, 6), (3, 3), (0, 5), (-1, 2)):
            with pytest.raises(ValueError):
                list(ab.simultaneous_cores(s, t))
