"""Executable audit of the sc(n-2)/sc(n) growth bound: the class split of
SC(n) into A/B/C, the bijection f onto A, the surjection g onto B with its
retraction h, fiber bounds, and the resulting cross-multiplied inequality
n*sc(n) > (n+2)*sc(n-2).

All maps run on diagonal-hook sequences (strictly decreasing positive odds),
which makes exhaustive per-n verification cheap; partition-level wrappers are
provided for the public surface and are tested against direct box moves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MapGUndefined, NotInB, NotSelfConjugate, OutOfDomain
from .partitions import (
    DiagonalHooks,
    Partition,
    descending_odd_sequences,
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


@dataclass(frozen=True)
class ClassifiedSC:
    partition: Partition
    cls: str


def _is_square_hooks(delta: HookSeq) -> bool:
    """The square partition (k, ..., k) has hooks (2k-1, 2k-3, ..., 1).

    Precondition: delta is strictly decreasing positive odds, as every caller
    passes (an enumerated sequence, or an image of `map_g_hooks`).  Then the
    first of d hooks is at least 2d - 1, with equality only for the square.
    """
    return len(delta) > 0 and delta[0] == 2 * len(delta) - 1


def classify_hooks(delta: HookSeq, n: int) -> str:
    """Class of the self-conjugate partition of n with these diagonal hooks.

    A: first gap >= 4, or the single-hook partition (n odd).
    B: first gap exactly 2, excluding the square when n is a perfect square.
    C: everything else (exactly the square partitions).
    """
    if len(delta) == 1 or (delta and delta[0] - delta[1] >= 4):
        return CLASS_A
    return CLASS_C if not delta or _is_square_hooks(delta) else CLASS_B


def classify(p: Partition, n: int) -> ClassifiedSC:
    if size(p) != n or not is_self_conjugate(p):
        raise NotSelfConjugate(f"{p!r} is not a self-conjugate partition of {n}")
    return ClassifiedSC(p, classify_hooks(diagonal_hooks(p).hooks, n))


def map_f_hooks(delta: HookSeq) -> HookSeq:
    """Add one box to the first row and first column: first hook grows by 2."""
    if not delta:
        return (1,)
    return (delta[0] + 2,) + delta[1:]


def map_f(p: Partition) -> Partition:
    if not is_self_conjugate(p):
        raise NotSelfConjugate(f"{p!r} is not self-conjugate")
    return from_diagonal_hooks(map_f_hooks(diagonal_hooks(p).hooks if p else ()))


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
    return _map_g_hooks(DiagonalHooks(tuple(delta)).hooks, n)


def _map_g_hooks(delta: HookSeq, n: int) -> tuple[HookSeq, str]:
    """`map_g_hooks` on a delta already known to be diagonal hooks."""
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
    first, second = (s + 2, s - 2) if s % 2 == 1 else (s + 1, s - 1)
    # the tail delta[2:] is valid, so only the two averaged hooks need checking
    if not (first > second > (delta[2] if d > 2 else 0) and first % 2 == second % 2 == 1):
        raise AssertionError(f"averaged hooks invalid: {[first, second, *delta[2:]]} from {delta}")
    if s % 2 == 1:
        # first - second = 4: the insert is at index 0
        return (first, second + 2, *delta[2:]), "insert"
    # first - second = 2, so the search for a gap >= 4 starts at index 1
    above = second
    for k in range(2, d):
        if above >= delta[k] + 4:
            return (first, second, *delta[2:k], delta[k] + 2, *delta[k + 1:]), "insert"
        above = delta[k]
    if d == 2:
        return ((n - 4) // 2, (n - 8) // 2, 5, 1), "two-hook-fallback"
    if delta[-1] == 1:
        raise MapGUndefined(f"square input {delta} has no image (n={n})")
    return (first + 2, second + 2, *delta[2:-1], delta[-1] - 2), "run-fallback"


def map_g(p: Partition, n: int) -> Partition:
    if not is_self_conjugate(p) or size(p) != n - 2:
        raise NotSelfConjugate(f"{p!r} is not a self-conjugate partition of n-2")
    hooks, _ = _map_g_hooks(diagonal_hooks(p).hooks, n)
    return from_diagonal_hooks(hooks)


def _in_b_hooks(delta: HookSeq, n: int) -> bool:
    return (
        len(delta) >= 2
        and sum(delta) == n
        and delta[0] - delta[1] == 2
        and not _is_square_hooks(delta)
    )


def map_h_hooks(delta: HookSeq, n: int) -> HookSeq:
    """Remove the last box of the last row and of the last column.

    In hook space: shrink hook k by 2, where k is the length of the initial
    run of gap-2 hooks (the corner boxes removed are the two ends of that
    hook).  Raises InvalidHooks unless delta is strictly decreasing positive
    odds, and NotInB unless it is in the B class of n.
    """
    return _map_h_hooks(DiagonalHooks(tuple(delta)).hooks, n)


def _map_h_hooks(delta: HookSeq, n: int) -> HookSeq:
    """`map_h_hooks` on a delta already known to be diagonal hooks."""
    if not _in_b_hooks(delta, n):
        raise NotInB(f"{delta!r} is not in the B class for n={n}")
    k = 1
    while k < len(delta) and delta[k] == delta[0] - 2 * k:
        k += 1
    out = list(delta)
    out[k - 1] -= 2
    assert out[k - 1] >= 1
    return tuple(out)


def map_h(b: Partition) -> Partition:
    n = size(b)
    if not is_self_conjugate(b):
        raise NotInB(f"{b!r} is not self-conjugate")
    return from_diagonal_hooks(_map_h_hooks(diagonal_hooks(b).hooks, n))


def beta_star_hooks(n: int) -> HookSeq:
    """The fiber-maximizing element of B named by the proof, by n mod 4."""
    return {
        0: ((n + 2) // 2, (n - 2) // 2),
        1: ((n + 1) // 2, (n - 3) // 2, 1),
        2: ((n - 4) // 2, (n - 8) // 2, 5, 1),
        3: ((n - 1) // 2, (n - 5) // 2, 3),
    }[n % 4]


def _growth_check_one(
    n: int, sc_nm2: int, sc_n: int, here: list[HookSeq], below: list[HookSeq] | None
) -> dict:
    """Exhaustive audit at a single n over the hook sequences of n (here) and,
    from n = 27 on, of n - 2 (below); returns violation list plus statistics."""
    violations: list[tuple] = []
    count_a = count_b = count_c = 0
    b_set: set[HookSeq] = set()
    for delta in here:
        cls = classify_hooks(delta, n)
        if cls == CLASS_A:
            count_a += 1
        elif cls == CLASS_B:
            count_b += 1
            b_set.add(delta)
        else:
            count_c += 1
    if count_a + count_b + count_c != sc_n:
        violations.append(("class-total", n, count_a + count_b + count_c, sc_n))
    if count_a != sc_nm2:
        violations.append(("A-size", n, count_a, sc_nm2))
    if n >= 19 and count_b == 0:
        violations.append(("B-empty", n, 0, 1))
    if sc_nm2 * (n + 2) >= sc_n * n:
        violations.append(("growth-inequality", n, sc_nm2 * (n + 2), sc_n * n))

    stats: dict = {"n": n, "A": count_a, "B": count_b, "C": count_c}
    if n >= 27:
        fibers: dict[HookSeq, int] = {}
        undefined = 0
        branches: dict[str, int] = {}
        for delta in below:
            try:
                image, branch = _map_g_hooks(delta, n)
            except MapGUndefined:
                undefined += 1
                continue
            branches[branch] = branches.get(branch, 0) + 1
            if not _in_b_hooks(image, n):
                violations.append(("g-image-not-in-B", n, delta, image))
                continue
            fibers[image] = fibers.get(image, 0) + 1
        if fibers.keys() != b_set:
            missing = sorted(b_set - fibers.keys())[:3]
            violations.append(("g-not-onto-B", n, len(fibers), len(b_set), missing))
        for beta in sorted(b_set):
            back = _map_h_hooks(beta, n)
            image, _ = _map_g_hooks(back, n)
            if image != beta:
                violations.append(("g-h-not-identity", n, beta, image))
        max_fiber = max(fibers.values(), default=0)
        argmax = min((b for b, c in fibers.items() if c == max_fiber), default=None)
        if 2 * max_fiber >= n:
            violations.append(("fiber-bound", n, max_fiber, n))
        stats.update(
            {
                "max_fiber": max_fiber,
                "argmax": argmax,
                "beta_star": beta_star_hooks(n),
                "beta_star_is_argmax": argmax == beta_star_hooks(n),
                "beta_star_fiber": fibers.get(beta_star_hooks(n), 0),
                "g_undefined_inputs": undefined,
                "branches": branches,
            }
        )
    return {"violations": violations, "stats": stats}


@timed
def verify_growth(n_lo: int, n_hi: int, workers: int = 1) -> ScanReport:
    """Run the growth audit for every n in [n_lo, n_hi], in-process; `workers` is ignored.

    OutOfDomain when n_lo < 19 or the range is empty.
    """
    if n_lo < 19:
        raise OutOfDomain("growth audit starts at n = 19")
    if n_hi < n_lo:
        raise OutOfDomain(f"growth audit needs n_lo <= n_hi, got {n_lo}..{n_hi}")
    sc = sc_coeffs(n_hi).coeffs
    # each n's sequences are walked once and kept as the n - 2 side of step n + 2
    walked: dict[int, list[HookSeq]] = {}
    results = []
    for n in range(n_lo, n_hi + 1):
        walked[n] = list(descending_odd_sequences(n))
        below = walked.pop(n - 2, None)
        if below is None and n >= 27:
            below = list(descending_odd_sequences(n - 2))
        results.append(_growth_check_one(n, sc[n - 2], sc[n], walked[n], below))
    witnesses: list[tuple] = []
    mismatched_argmax: list[int] = []
    undefined_ns: list[int] = []
    two_hook_ns: list[int] = []
    for res in results:
        witnesses.extend(res["violations"])
        st = res["stats"]
        if st.get("g_undefined_inputs"):
            undefined_ns.append(st["n"])
        if st.get("branches", {}).get("two-hook-fallback"):
            two_hook_ns.append(st["n"])
        if "beta_star_is_argmax" in st and not st["beta_star_is_argmax"]:
            mismatched_argmax.append(st["n"])
    return ScanReport(
        scan="growth",
        params={"n_lo": n_lo, "n_hi": n_hi},
        witnesses=witnesses,
        data={
            "beta_star_argmax_mismatches": mismatched_argmax,
            "g_undefined_at": undefined_ns,
            "two_hook_fallback_at": two_hook_ns,
        },
    )
