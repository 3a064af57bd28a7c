from __future__ import annotations

from collections import Counter

import pytest

from sccore import growth as gr
from sccore import partitions as pt
from sccore.errors import InvalidHooks, MapGUndefined, NotInB, NotSelfConjugate, OutOfDomain
from sccore.reports import _witness_key
from sccore.series import sc_coeffs


def _reference_map_g(delta, n):
    """Reference for the kernel: g built term by term, with the whole averaged
    sequence checked and the gap search started at index 0."""
    if n < 27:
        raise OutOfDomain(f"map g is defined for n >= 27, got {n}")
    if sum(delta) != n - 2:
        raise ValueError(f"hooks sum to {sum(delta)}, expected n-2={n - 2}")
    d = len(delta)
    if d == 1:
        if n % 4 == 1:
            return ((n + 1) // 2, (n - 3) // 2, 1), "single-hook"
        return ((n - 1) // 2, (n - 5) // 2, 3), "single-hook"
    s = (delta[0] + delta[1]) // 2
    if s % 2 == 1:
        prime = [s + 2, s - 2, *delta[2:]]
    else:
        prime = [s + 1, s - 1, *delta[2:]]
    for k in range(d - 1):
        if not (prime[k] > prime[k + 1] > 0 and prime[k] % 2 == 1):
            raise AssertionError(f"averaged hooks invalid: {prime} from {delta}")
    for i in range(d - 1):
        if prime[i] >= prime[i + 1] + 4:
            prime[i + 1] += 2
            return tuple(prime), "insert"
    if d == 2:
        return ((n - 4) // 2, (n - 8) // 2, 5, 1), "two-hook-fallback"
    if prime[-1] == 1:
        raise MapGUndefined(f"square input {delta} has no image (n={n})")
    prime[0] += 2
    prime[1] += 2
    prime[-1] -= 2
    return tuple(prime), "run-fallback"


def _g_pairs(sets, n):
    """(image, branch) of the g kernel on each set, in order."""
    images, rare = gr._g_of_sets(sets, n)
    return [(image, rare.get(k, "insert")) for k, image in enumerate(images)]


def _reference_images_outside_b(n_lo, n_hi):
    """The audit's g-image-not-in-B witnesses, made input by input with the
    B test written on the hook tuple."""
    out = []
    for n in range(max(n_lo, 27), n_hi + 1):
        for delta in pt.descending_odd_sequences(n - 2):
            [image], _ = gr._g_of_sets([pt._set_of(delta)], n)
            if image is None:
                continue
            hooks = pt._hooks_of(image)
            if not (len(hooks) >= 2 and sum(hooks) == n and hooks[0] - hooks[1] == 2
                    and hooks[0] != 2 * len(hooks) - 1):
                out.append(("g-image-not-in-B", n, delta, hooks))
    return out


def _outcome(fn, delta, n):
    """(image, branch), or the type and message of the exception raised."""
    try:
        return fn(delta, n)
    except Exception as exc:  # the exception's type and message are what is compared
        return type(exc), str(exc)


class TestClassify:
    def test_examples(self):
        assert gr.classify(pt.from_diagonal_hooks((21,)), 21) == "A"
        assert gr.classify(pt.from_diagonal_hooks((11, 9)), 20) == "B"
        # for square n the all-equal partition is excluded from B
        assert gr.classify((3, 3, 3), 9) == "C"

    def test_rejects_wrong_input(self):
        with pytest.raises(NotSelfConjugate):
            gr.classify((2,), 2)
        with pytest.raises(NotSelfConjugate):
            gr.classify((3, 3, 2), 9)

    def test_classify_hooks_refuses_non_hooks_and_a_wrong_sum(self):
        with pytest.raises(InvalidHooks, match="strictly decreasing"):
            gr.classify_hooks((3, 3), 6)
        with pytest.raises(ValueError, match="hooks sum to 5, expected n=99"):
            gr.classify_hooks((5,), 99)
        assert gr.classify_hooks((5,), 5) == "A"

    def test_classes_partition_sc(self):
        from math import isqrt

        sc = sc_coeffs(150)
        for n in range(151):
            counts = {"A": 0, "B": 0, "C": 0}
            for s in pt._hook_sets(n):
                counts[gr._class_of_set(s)] += 1
            assert sum(counts.values()) == sc[n]
            # C holds exactly the square partition, when n is a square;
            # at n = 1 the square is the single-hook partition, class A
            assert counts["C"] == (1 if n != 1 and isqrt(n) ** 2 == n else 0)


class TestSquareTest:
    """The class rule, run by the set kernel's O(1) tests, equals the rule
    written term by term: a single hook or a first gap >= 4 is A, and
    otherwise the empty sequence and the squares (2d-1, ..., 3, 1), compared
    hook by hook, are C."""

    @staticmethod
    def by_terms(delta):
        d = len(delta)
        return d > 0 and all(delta[i] == 2 * (d - i) - 1 for i in range(d))

    def by_rule(self, delta):
        if len(delta) == 1 or (delta and delta[0] - delta[1] >= 4):
            return "A"
        return "C" if not delta or self.by_terms(delta) else "B"

    def test_every_sequence_up_to_100(self):
        for n in range(101):
            for delta in pt.descending_odd_sequences(n):
                assert gr.classify_hooks(delta, n) == self.by_rule(delta), delta

    def test_b_test_matches_the_rule(self):
        # the B test adds the hook sum to the class rule
        for n in range(61):
            for delta in pt.descending_odd_sequences(n):
                for m in (n - 2, n, n + 2):
                    want = self.by_rule(delta) == "B" and sum(delta) == m
                    assert gr._in_b_set(pt._set_of(delta), m) == want, (delta, m)

    def test_squares(self):
        for d in range(13):
            square = tuple(range(2 * d - 1, 0, -2))
            assert pt._set_of(square) == (1 << d) - 1
            assert gr._class_of_set((1 << d) - 1) == self.by_rule(square) == ("A" if d == 1 else "C")


class TestMapF:
    def test_examples(self):
        assert gr.map_f((3, 2, 1)) == (4, 2, 1, 1)
        assert gr.map_f(()) == (1,)
        for k in (5, 9, 13):
            assert gr.map_f(pt.from_diagonal_hooks((k,))) == pt.from_diagonal_hooks((k + 2,))

    def test_matches_direct_box_addition(self):
        for n in range(1, 41):
            for p in pt.enumerate_self_conjugate(n):
                image = gr.map_f(p)
                direct = (p[0] + 1,) + p[1:] + (1,)
                assert image == direct
                assert sum(image) == n + 2

    @pytest.mark.parametrize("delta", [(1, 3), (3, 3), (4,), (5, -1)])
    def test_f_rejects_sequences_that_are_not_diagonal_hooks(self, delta):
        # (1, 3) once grew to (3, 3)
        with pytest.raises(InvalidHooks):
            gr.map_f_hooks(delta)

    @pytest.mark.parametrize("bad", [(1, 2), (3, 0), (1, 3)])
    def test_partition_maps_refuse_a_non_partition(self, bad):
        n = sum(bad)
        maps = (gr.map_f, gr.map_h, lambda p: gr.classify(p, n), lambda p: gr.map_g(p, n + 2))
        for partition_map in maps:
            with pytest.raises(ValueError, match="^parts must be"):
                partition_map(bad)

    def test_bijection_onto_a(self):
        sc = sc_coeffs(100)
        for n in range(21, 101):
            images = {gr.map_f_hooks(d) for d in pt.descending_odd_sequences(n - 2)}
            assert len(images) == sc[n - 2]
            a_class = {
                d for d in pt.descending_odd_sequences(n)
                if gr.classify_hooks(d, n) == "A"
            }
            assert images == a_class


class TestMapGH:
    def test_single_hook_cases(self):
        assert gr.map_g_hooks((27,), 29)[0] == (15, 13, 1)
        assert gr.map_g_hooks((29,), 31)[0] == (15, 13, 3)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            gr.map_g(pt.from_diagonal_hooks((21,)), 23)

    def test_square_input_is_undefined(self):
        with pytest.raises(MapGUndefined):
            gr.map_g((5, 5, 5, 5, 5), 27)

    def test_h_examples(self):
        out = gr.map_h(pt.from_diagonal_hooks((11, 9)))
        assert pt.is_self_conjugate(out) and sum(out) == 18
        assert gr.map_h_hooks((5, 3), 8) == (5, 1)

    def test_h_rejects_non_b(self):
        with pytest.raises(NotInB):
            gr.map_h((3, 2, 1))  # hooks (5, 1): gap 4, class A
        with pytest.raises(NotInB):
            gr.map_h_hooks((3, 1), 4)  # the 2x2 square

    @pytest.mark.parametrize("delta", [(9, 7, 3, 3), (9, 7, 4, 2), (9, 7, 7, -1), (9, 7, 6, 0)])
    def test_h_rejects_sequences_that_are_not_diagonal_hooks(self, delta):
        # each sums to 22 with a leading gap of 2, so only the hook check refuses it
        with pytest.raises(InvalidHooks):
            gr.map_h_hooks(delta, 22)

    @pytest.mark.parametrize("delta, n", [
        ((31, -1), 32), ((19, 7, 4, 2), 34), ((15, 15), 32), ((21, 9, 0), 32), ((9, 13, 3), 27),
    ])
    def test_g_rejects_sequences_that_are_not_diagonal_hooks(self, delta, n):
        # each sums to n - 2, so only the hook check refuses it
        with pytest.raises(InvalidHooks):
            gr.map_g_hooks(delta, n)

    def test_g_kernel_matches_the_reference(self):
        # the kernel runs over each whole row, as the audit runs it; its
        # "undefined" is the reference's MapGUndefined
        for n in range(27, 131):
            deltas = list(pt.descending_odd_sequences(n - 2))
            for delta, (image, branch) in zip(deltas, _g_pairs(map(pt._set_of, deltas), n), strict=True):
                want = _outcome(_reference_map_g, delta, n)
                if image is None:
                    assert (want[0], branch) == (MapGUndefined, "undefined"), (n, delta)
                else:
                    assert (pt._hooks_of(image), branch) == want, (n, delta)
                assert _outcome(gr.map_g_hooks, delta, n) == want, (n, delta)

    def test_g_kernel_errors_match_the_reference(self):
        # wrong sums (ValueError) and n below 27 (OutOfDomain), which the
        # public map checks before it runs the kernel
        for m in range(16, 41):
            for delta in pt.descending_odd_sequences(m):
                for n in (m + 1, m + 2, m + 4):
                    assert _outcome(gr.map_g_hooks, delta, n) == _outcome(_reference_map_g, delta, n)

    def test_h_matches_corner_removal(self):
        # remove the last box of the last row, then of the last column
        def corner(p):
            q = list(p)
            q[-1] -= 1
            if q[-1] == 0:
                q.pop()
            return tuple(q)

        for n in range(8, 61):
            for delta in pt.descending_odd_sequences(n):
                if not gr._in_b_set(pt._set_of(delta), n):
                    continue
                b = pt.from_diagonal_hooks(delta)
                direct = pt.conjugate(corner(pt.conjugate(corner(b))))
                assert pt.from_diagonal_hooks(gr.map_h_hooks(delta, n)) == direct

    def test_g_h_identity(self):
        for n in range(27, 101):
            for delta in pt.descending_odd_sequences(n):
                if gr._in_b_set(pt._set_of(delta), n):
                    back = gr.map_h_hooks(delta, n)
                    image, _ = gr.map_g_hooks(back, n)
                    assert image == delta, (n, delta)

    def test_no_single_hook_inputs_for_even_n(self):
        for n in range(28, 80, 2):
            assert all(len(d) > 1 for d in pt.descending_odd_sequences(n - 2))

    def test_insertion_step_matches_box_moves(self):
        # growing the (i+1)-st hook by 2 is the same as appending one box to
        # the end of row i+1 and one to the end of column i+1 of the diagram,
        # whenever the 4-gap admits it (the insertion case of the surjection)
        for n in range(6, 50):
            for delta in pt.descending_odd_sequences(n):
                for k in range(len(delta) - 1):
                    if delta[k] < delta[k + 1] + 4:
                        continue
                    grown = delta[: k + 1] + (delta[k + 1] + 2,) + delta[k + 2:]
                    rows = list(pt.from_diagonal_hooks(delta))
                    rows[k + 1] += 1
                    cols = list(pt.conjugate(pt.check_partition(tuple(rows))))
                    cols[k + 1] += 1
                    boxed = pt.conjugate(pt.check_partition(tuple(cols)))
                    assert boxed == pt.from_diagonal_hooks(grown), (delta, k)


class TestVerifyGrowth:
    def test_small_range_findings(self):
        rep = gr.verify_growth(19, 60)
        # the only failing sub-check is the published fiber bound, at n = 2 mod 4
        assert {w[0] for w in rep.witnesses} == {"fiber-bound"}
        assert [w[1] for w in rep.witnesses] == [38, 42, 46, 50, 54, 58]
        # g is undefined exactly on squares-plus-two
        assert rep.data["g_undefined_at"] == [27, 38, 51]
        # the two-hook fallback fires exactly for n = 2 mod 4
        assert rep.data["two_hook_fallback_at"] == list(range(30, 61, 4))

    def test_growth_inequality_and_b_nonempty_hold(self):
        rep = gr.verify_growth(19, 60)
        kinds = {w[0] for w in rep.witnesses}
        for clean in ("growth-inequality", "B-empty", "A-size", "class-total",
                      "g-h-not-identity", "g-not-onto-B", "g-image-not-in-B"):
            assert clean not in kinds

    def test_data_to_150(self, growth_19_150):
        # the whole data block that c10 reads, and that the golden corpus pins
        # only by digest
        data = growth_19_150.data
        assert data == {
            "beta_star_argmax_mismatches": sorted([*range(29, 151, 4), *range(44, 151, 4)]),
            "g_undefined_at": [27, 38, 51, 66, 83, 102, 123, 146],
            "two_hook_fallback_at": list(range(30, 151, 4)),
        }
        assert len(data["beta_star_argmax_mismatches"]) == 58

    def test_images_outside_b_are_named_input_by_input(self, monkeypatch):
        # no image leaves B with the real kernel, so one branch is broken: the
        # two-hook fallback loses its unit hook, and all its inputs at one n
        # share that image; the audit tests each image once, then must name
        # every input that reached it
        kernel = gr._g_of_sets

        def skewed(sets, n):
            images, rare = kernel(sets, n)
            return [image & (image - 1) if rare.get(k) == "two-hook-fallback" else image
                    for k, image in enumerate(images)], rare

        monkeypatch.setattr(gr, "_g_of_sets", skewed)
        rep = gr.verify_growth(19, 60)
        want = _reference_images_outside_b(19, 60)
        assert len(want) == 84
        assert [w for w in rep.witnesses if w[0] == "g-image-not-in-B"] == sorted(want, key=_witness_key)

    def test_the_counts_equal_a_per_set_recount(self):
        # the audit tallies each side in one kernel pass; a recount set by
        # set, with the B test on every set and g from the reference, must
        # give the same classes, B set, images, fibers and rare branches
        for n in range(27, 151):
            here, below = list(pt._hook_sets(n)), list(pt._hook_sets(n - 2))
            images, fibers, branches = [], Counter(), Counter()
            for delta in map(pt._hooks_of, below):
                outcome = _outcome(_reference_map_g, delta, n)
                if outcome[0] is MapGUndefined:
                    images.append(None)
                    branches["undefined"] += 1
                    continue
                image, branch = pt._set_of(outcome[0]), outcome[1]
                images.append(image)
                fibers[image] += 1
                if branch != "insert":
                    branches[branch] += 1
            sizes = Counter(map(gr._class_of_set, here))
            b_set = {s for s in here if gr._in_b_set(s, n)}
            assert gr._growth_counts(n, here, below) == (sizes, b_set, images, fibers, branches), n
            assert fibers.keys() == b_set, n

    def test_an_image_in_b_that_the_walk_missed_is_not_named_outside_b(self):
        # the B test runs only on the images outside the walk's B set; one
        # in B(n) that an incomplete walk of n left out shows as the class
        # total and the onto check failing, not as images outside B
        n = 40
        here, below, sc = list(pt._hook_sets(n)), list(pt._hook_sets(n - 2)), sc_coeffs(n)
        beta = pt._set_of(gr.beta_star_hooks(n))
        data = {key: [] for key in ("beta_star_argmax_mismatches", "g_undefined_at", "two_hook_fallback_at")}
        walk = [s for s in here if s != beta]
        violations = gr._growth_check_one(n, sc[n - 2], sc[n], walk, below, data)
        b_size = sum(map(gr._in_b_set, walk, [n] * len(walk)))
        assert violations == [("class-total", n, sc[n] - 1, sc[n]), ("g-not-onto-B", n, b_size + 1, b_size, [])]

    def test_requires_n_at_least_19(self):
        with pytest.raises(OutOfDomain):
            gr.verify_growth(10, 20)

    def test_refuses_an_empty_range(self):
        with pytest.raises(OutOfDomain, match="n_lo <= n_hi"):
            gr.verify_growth(19, 10)

    def test_beta_star_table(self):
        assert gr.beta_star_hooks(40) == (21, 19)
        assert gr.beta_star_hooks(29) == (15, 13, 1)
        assert gr.beta_star_hooks(30) == (13, 11, 5, 1)
        assert gr.beta_star_hooks(31) == (15, 13, 3)
        for n in range(28, 60):
            hooks = gr.beta_star_hooks(n)
            assert sum(hooks) == n
            assert gr._in_b_set(pt._set_of(hooks), n)


class TestFiberBoundOnTheSeries:
    """The proof's fiber bound is reachable by some g: a g with g(h(beta)) = beta
    is forced only on h(B), so the smallest possible largest fiber over the
    sc(n-2) inputs is ceil(sc(n-2)/|B|).  That is below n/2 wherever c10 is
    checked, so c10's failure lies in map_g_hooks, not in the inequality."""

    @staticmethod
    def b_size(sc, n):
        from math import isqrt

        return sc[n] - sc[n - 2] - (1 if isqrt(n) ** 2 == n else 0)

    def test_smallest_largest_fiber_is_below_n_over_2(self):
        sc = sc_coeffs(2000)
        for n in range(27, 2001):
            b = self.b_size(sc, n)
            assert 2 * -(-sc[n - 2] // b) < n, n

    def test_b_size_matches_the_class_split(self):
        sc = sc_coeffs(60)
        for n in (27, 36, 49, 60):
            audited = sum(1 for d in pt.descending_odd_sequences(n) if gr.classify_hooks(d, n) == "B")
            assert audited == self.b_size(sc, n), n


def _g_walk(n: int):
    """(input, image, branch) of g at n, input and image as hook sets, for
    every self-conjugate partition of n - 2."""
    below = list(pt._hook_sets(n - 2))
    for s, (image, branch) in zip(below, _g_pairs(below, n)):
        yield s, image, branch


def _odd_pairs(total: int, floor: int) -> set[tuple[int, int]]:
    """The odd a > b > floor with a + b = total, for an even total."""
    return {(total - b, b) for b in range(floor + 2, total, 2) if total - b > b}


class TestC10FiberAnatomy:
    """Why c10's fiber bound fails, pinned from the shapes of the inputs of g.

    At n = 2 (mod 4) a two-hook input (a, b) of n - 2 averages to the even
    (n - 2) / 2 and has no tail hook to grow, so it takes the two-hook
    fallback to beta*.  An input (a, b, 3, 1) with a + b = n - 6 averages to
    the even (n - 6) / 2, and its 3 grows to 5; one (a, b, 5, 1) with
    a + b = n - 8 averages to the odd (n - 8) / 2, and its lower averaged hook
    grows back: both give beta* = ((n - 4) / 2, (n - 8) / 2, 5, 1).
    """

    def test_the_fiber_of_beta_star(self):
        for n in range(38, 151, 4):
            two_hook = _odd_pairs(n - 2, -1)
            insert = {*((a, b, 3, 1) for a, b in _odd_pairs(n - 6, 3)),
                      *((a, b, 5, 1) for a, b in _odd_pairs(n - 8, 5))}
            assert (len(two_hook), len(insert)) == ((n - 2) // 4, (n - 18) // 2), n
            beta = pt._set_of(gr.beta_star_hooks(n))
            fiber = {pt._hooks_of(s): branch for s, image, branch in _g_walk(n) if image == beta}
            assert fiber == {**dict.fromkeys(two_hook, "two-hook-fallback"), **dict.fromkeys(insert, "insert")}, n
            # (3n - 38) / 4 >= n / 2 from n = 38 on: the fiber-bound witness c10 reports
            assert 4 * len(fiber) == 3 * n - 38 and 2 * len(fiber) >= n

    def test_the_two_hook_fallback_fires_only_at_n_2_mod_4(self):
        fired = []
        for n in range(27, 151):
            fallback = {pt._hooks_of(s) for s, _, branch in _g_walk(n) if branch == "two-hook-fallback"}
            assert fallback == (_odd_pairs(n - 2, -1) if n % 4 == 2 else set()), n
            if fallback:
                fired.append(n)
        assert fired == list(range(30, 151, 4))

    def test_no_two_hook_input_is_a_retraction_at_n_2_mod_4(self):
        # two odd hooks two apart sum to 0 (mod 4), so B holds no two-hook
        # set, and h keeps the number of hooks
        for n in range(30, 151, 4):
            b_sets = [s for s in pt._hook_sets(n) if gr._in_b_set(s, n)]
            assert b_sets and all(s.bit_count() >= 3 for s in b_sets), n
            retractions = [gr._h_of_set(s) for s in b_sets]
            assert [r.bit_count() for r in retractions] == [s.bit_count() for s in b_sets], n
            assert not any(r.bit_count() == 2 for r in retractions), n
