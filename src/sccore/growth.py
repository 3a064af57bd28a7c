"""Executable audit of the sc(n-2)/sc(n) growth bound: the class split of
SC(n) into A/B/C, the bijection f onto A, the surjection g onto B with its
retraction h, fiber bounds, and the resulting cross-multiplied inequality
n*sc(n) > (n+2)*sc(n-2).

The public maps take diagonal-hook sequences (strictly decreasing positive
odds), check them, and run one kernel each on the hook set: one int with bit
a set for each hook 2a + 1.  Sets order by value as their sequences order
lexicographically, so the audit sorts and breaks ties on ints.

The audit walks every self-conjugate partition of n and n - 2 as hook sets
and audits one n with one kernel pass per side (`_growth_counts`): the class
rule over the sets of n gives the class sizes and the B set, and one g
kernel call over the sets of n - 2 gives every image, whose fibers one
Counter counts.  The B test then runs only on the images outside the B set.
That cannot change a witness: an image in the B set is in B(n) by
construction, and the class-total check ties the walk of n to sc(n).
Partition-level wrappers are provided for the public surface and are tested
against direct box moves.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .errors import MapGUndefined, NotInB, NotSelfConjugate, OutOfDomain
from .partitions import (
    Partition,
    _hook_sets,
    _hooks_of,
    _set_of,
    check_hooks,
    diagonal_hooks,
    from_diagonal_hooks,
    is_self_conjugate,
    size,
)
from .reports import ScanReport, timed
from .series import sc_coeffs

HookSeq = tuple[int, ...]

CLASS_A = "A"
CLASS_B = "B"
CLASS_C = "C"


def _class_of_set(s: int) -> str:
    """The class rule on a hook set (see `classify_hooks`).

    The first gap is 2 exactly when the two highest bits are adjacent, and
    the square (2k-1, ..., 3, 1) is the set of bits 0..k-1.
    """
    top = s.bit_length()
    if top < 2:
        return CLASS_A if s else CLASS_C
    if s >> (top - 2) != 3:
        return CLASS_A
    return CLASS_C if s & (s + 1) == 0 else CLASS_B


def classify_hooks(delta: HookSeq, n: int) -> str:
    """Class of the self-conjugate partition of n with these diagonal hooks.

    A: first gap >= 4, or the single-hook partition (n odd).
    B: first gap exactly 2, excluding the square when n is a perfect square.
    C: everything else (exactly the square partitions).

    Raises InvalidHooks unless delta is diagonal hooks, and ValueError
    unless it sums to n.
    """
    delta = check_hooks(tuple(delta))
    if sum(delta) != n:
        raise ValueError(f"hooks sum to {sum(delta)}, expected n={n}")
    return _class_of_set(_set_of(delta))


def classify(p: Partition, n: int) -> str:
    """Class of a self-conjugate partition of n (see `classify_hooks`)."""
    if not is_self_conjugate(p) or size(p) != n:
        raise NotSelfConjugate(f"{p!r} is not a self-conjugate partition of {n}")
    return _class_of_set(_set_of(diagonal_hooks(p)))


def map_f_hooks(delta: HookSeq) -> HookSeq:
    """Add one box to the first row and first column: first hook grows by 2.
    Raises InvalidHooks unless delta is diagonal hooks."""
    delta = check_hooks(tuple(delta))
    if not delta:
        return (1,)
    return (delta[0] + 2,) + delta[1:]


def map_f(p: Partition) -> Partition:
    return from_diagonal_hooks(map_f_hooks(diagonal_hooks(p)))


def _g_of_sets(sets: Iterable[int], n: int) -> tuple[list[int | None], dict[int, str]]:
    """g on each hook set of a self-conjugate partition of n - 2, in one pass:
    the image of every input, in order (None for the square input), and
    {input index: branch} for each input that did not take "insert" (the
    square input's branch is "undefined").

    Trusted: each set must be diagonal hooks summing to n - 2, with n >= 27;
    `map_g_hooks` checks that.  The branches are those of `map_g_hooks`.
    Write s for the average of the first two hooks delta_1 > delta_2.  The
    averaged pair is s + 2, s - 2 when s is odd and s + 1, s - 1 when s is
    even, and its lower hook always lies above the third hook delta_3, so no
    check is made: s - 2 > delta_3 when s is odd, because delta_1 - delta_2
    is then a multiple of 4, so s >= delta_2 + 2; and s - 1 > delta_3 when s
    is even, because s >= delta_2 + 1.  An averaged hook that broke this would
    share a bit with the tail, so the image would have the wrong hook sum and
    fail the B test that `verify_growth` makes on every image outside the B
    set of n.
    """
    single = _set_of(((n + 1) // 2, (n - 3) // 2, 1) if n % 4 == 1 else ((n - 1) // 2, (n - 5) // 2, 3))
    two_hook = _set_of(((n - 4) // 2, (n - 8) // 2, 5, 1))
    images: list[int | None] = []
    rare: dict[int, str] = {}
    append = images.append
    for bits in sets:
        first = bits.bit_length()
        rest = bits ^ 1 << (first - 1)
        if not rest:
            rare[len(images)] = "single-hook"
            append(single)
            continue
        second = rest.bit_length()
        rest ^= 1 << (second - 1)
        # the first two hooks 2a + 1 and 2b + 1 average to a + b + 1
        avg = first + second - 1
        pair = avg >> 1
        if avg & 1:
            # s + 2, s - 2, and the insert at index 0 grows s - 2 to s
            append(rest | 3 << pair)
            continue
        # s + 1, s - 1: the first tail bit whose next bit up is free moves up
        image = rest | 3 << (pair - 1)
        free = rest & ~(image >> 1)
        if free:
            append(image + (1 << (free.bit_length() - 1)))
        elif not rest:
            rare[len(images)] = "two-hook-fallback"
            append(two_hook)
        elif rest & 1:
            rare[len(images)] = "undefined"
            append(None)
        else:
            # the averaged pair grows by 2 and the last hook shrinks by 2
            rare[len(images)] = "run-fallback"
            append((rest - ((rest & -rest) >> 1)) | 3 << pair)
    return images, rare


def map_g_hooks(delta: HookSeq, n: int) -> tuple[HookSeq, str]:
    """Image of a self-conjugate partition of n-2 in the B class of n.

    Returns (hooks, branch) where branch names the case taken:
      single-hook        one hook: (n+1)/2, (n-3)/2, 1 or (n-1)/2, (n-5)/2, 3,
                         by n mod 4;
      insert             the first two hooks are replaced by their average s
                         split as s+1, s-1 (s even) or s+2, s-2 (s odd), and the
                         first hook below a gap >= 4 grows by 2;
      two-hook-fallback  two hooks with no such gap: (n-4)/2, (n-8)/2, 5, 1;
      run-fallback       otherwise the first two averaged hooks grow by 2 and
                         the last hook shrinks by 2.
    Raises InvalidHooks unless delta is strictly decreasing positive odds,
    OutOfDomain for n < 27, ValueError unless delta sums to n - 2, and
    MapGUndefined on the one input the published construction cannot handle:
    the square partition of n-2, whose final fallback would shrink a unit
    hook.  (No element of B has that square as its retraction, so the
    surjectivity audit is unaffected; occurrences are counted, not hidden.)
    """
    delta = check_hooks(tuple(delta))
    if n < 27:
        raise OutOfDomain(f"map g is defined for n >= 27, got {n}")
    if sum(delta) != n - 2:
        raise ValueError(f"hooks sum to {sum(delta)}, expected n-2={n - 2}")
    [image], rare = _g_of_sets([_set_of(delta)], n)
    if image is None:
        raise MapGUndefined(f"square input {delta} has no image (n={n})")
    return _hooks_of(image), rare.get(0, "insert")


def map_g(p: Partition, n: int) -> Partition:
    if not is_self_conjugate(p) or size(p) != n - 2:
        raise NotSelfConjugate(f"{p!r} is not a self-conjugate partition of n-2")
    hooks, _ = map_g_hooks(diagonal_hooks(p), n)
    return from_diagonal_hooks(hooks)


def _in_b_set(s: int, n: int) -> bool:
    """Is this hook set in the B class of n?  Any int is a valid hook set."""
    return _class_of_set(s) == CLASS_B and sum(_hooks_of(s)) == n


def _h_of_set(s: int) -> int:
    """h on a hook set in B: the initial run of gap-2 hooks is the top run of
    adjacent bits, and its lowest bit z + 1 moves down to z (free, as B holds
    no square)."""
    z = (((1 << s.bit_length()) - 1) ^ s).bit_length() - 1
    return s - (1 << z)


def map_h_hooks(delta: HookSeq, n: int) -> HookSeq:
    """Remove the last box of the last row and of the last column.

    In hook space: shrink hook k by 2, where k is the length of the initial
    run of gap-2 hooks (the corner boxes removed are the two ends of that
    hook).  Raises InvalidHooks unless delta is strictly decreasing positive
    odds, and NotInB unless it is in the B class of n.
    """
    delta = check_hooks(tuple(delta))
    s = _set_of(delta)
    if not _in_b_set(s, n):
        raise NotInB(f"{delta!r} is not in the B class for n={n}")
    return _hooks_of(_h_of_set(s))


def map_h(b: Partition) -> Partition:
    n = size(b)
    if not is_self_conjugate(b):
        raise NotInB(f"{b!r} is not self-conjugate")
    return from_diagonal_hooks(map_h_hooks(diagonal_hooks(b), n))


def beta_star_hooks(n: int) -> HookSeq:
    """The element of B that the proof names, by n mod 4, as the one whose
    fiber under g is largest.  It is not the largest fiber at every n: the
    audit lists the n where it is not as `beta_star_argmax_mismatches`."""
    return {
        0: ((n + 2) // 2, (n - 2) // 2),
        1: ((n + 1) // 2, (n - 3) // 2, 1),
        2: ((n - 4) // 2, (n - 8) // 2, 5, 1),
        3: ((n - 1) // 2, (n - 5) // 2, 3),
    }[n % 4]


def _growth_counts(n: int, here: list[int], below: list[int] | None
                   ) -> tuple[Counter, set[int], list[int | None], Counter, Counter]:
    """The tallies of one n, from one kernel pass per side.

    Over the hook sets of n (here): the size of each class and the B set.
    From n = 27 on, over the hook sets of n - 2 (below): the image of g on
    each input, the fiber of each image (the square input's None is left
    out), and how many inputs took each branch other than "insert".
    """
    classes = list(map(_class_of_set, here))
    b_set = {s for s, cls in zip(here, classes) if cls == CLASS_B}
    images, rare = _g_of_sets(below, n) if n >= 27 else ([], {})
    fibers = Counter(images)
    del fibers[None]
    return Counter(classes), b_set, images, fibers, Counter(rare.values())


def _growth_check_one(n: int, sc_nm2: int, sc_n: int, here: list[int], below: list[int] | None,
                      data: dict[str, list[int]]) -> list[tuple]:
    """Exhaustive audit at a single n over the hook sets of n (here) and, from
    n = 27 on, of n - 2 (below); returns the violations, and appends n to
    each list of the report's data that names it."""
    violations: list[tuple] = []
    sizes, b_set, images, fibers, branches = _growth_counts(n, here, below)
    count_a, count_b, count_c = sizes[CLASS_A], sizes[CLASS_B], sizes[CLASS_C]
    if count_a + count_b + count_c != sc_n:
        violations.append(("class-total", n, count_a + count_b + count_c, sc_n))
    if count_a != sc_nm2:
        violations.append(("A-size", n, count_a, sc_nm2))
    if n >= 19 and count_b == 0:
        violations.append(("B-empty", n, 0, 1))
    if sc_nm2 * (n + 2) >= sc_n * n:
        violations.append(("growth-inequality", n, sc_nm2 * (n + 2), sc_n * n))

    if n >= 27:
        # an image in b_set is in B(n) by construction, so the B test, hook
        # sum included, runs only on the others; the inputs are walked again
        # only to name each one whose image fails it
        outside = {image for image in fibers.keys() - b_set if not _in_b_set(image, n)}
        if outside:
            for delta, image in zip(below, images):
                if image in outside:
                    violations.append(("g-image-not-in-B", n, _hooks_of(delta), _hooks_of(image)))
            for image in outside:
                del fibers[image]
        if fibers.keys() != b_set:
            missing = [_hooks_of(s) for s in sorted(b_set - fibers.keys())[:3]]
            violations.append(("g-not-onto-B", n, len(fibers), len(b_set), missing))
        in_b = sorted(b_set)
        for beta, image in zip(in_b, _g_of_sets(map(_h_of_set, in_b), n)[0]):
            if image != beta:
                back = image if image is None else _hooks_of(image)
                violations.append(("g-h-not-identity", n, _hooks_of(beta), back))
        max_fiber = max(fibers.values(), default=0)
        argmax = min((b for b, c in fibers.items() if c == max_fiber), default=None)
        if 2 * max_fiber >= n:
            violations.append(("fiber-bound", n, max_fiber, n))
        if argmax != _set_of(beta_star_hooks(n)):
            data["beta_star_argmax_mismatches"].append(n)
        if branches["undefined"]:
            data["g_undefined_at"].append(n)
        if branches["two-hook-fallback"]:
            data["two_hook_fallback_at"].append(n)
    return violations


@timed
def verify_growth(n_lo: int, n_hi: int, workers: int = 1) -> ScanReport:
    """Run the growth audit for every n in [n_lo, n_hi], in-process; `workers` is ignored.

    Each n is audited with one kernel pass per side: the class rule over the
    hook sets of n, and one g kernel call over those of n - 2.  The B test
    runs only on the images outside the B set of n, which cannot change a
    witness: a set in it is in B(n) by construction, and the class-total
    check ties the walk of n to sc(n).  OutOfDomain when n_lo < 19 or the
    range is empty.
    """
    if n_lo < 19:
        raise OutOfDomain("growth audit starts at n = 19")
    if n_hi < n_lo:
        raise OutOfDomain(f"growth audit needs n_lo <= n_hi, got {n_lo}..{n_hi}")
    sc = sc_coeffs(n_hi)
    # each n's hook sets are walked once and kept as the n - 2 side of step n + 2
    walked: dict[int, list[int]] = {}
    witnesses: list[tuple] = []
    data: dict[str, list[int]] = {key: [] for key in
                                  ("beta_star_argmax_mismatches", "g_undefined_at", "two_hook_fallback_at")}
    for n in range(n_lo, n_hi + 1):
        walked[n] = list(_hook_sets(n))
        below = walked.pop(n - 2, None)
        if below is None and n >= 27:
            below = list(_hook_sets(n - 2))
        witnesses.extend(_growth_check_one(n, sc[n - 2], sc[n], walked[n], below, data))
    return ScanReport(scan="growth", params={"n_lo": n_lo, "n_hi": n_hi}, witnesses=witnesses, data=data)
