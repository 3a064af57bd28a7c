"""Beta-set (abacus) machinery: hook removal, t-core, t-quotient, reconstruction.

A beta-set of length m is the strictly decreasing sequence of first-column hook
lengths of the partition padded to m rows.  Removing a t-hook is the abacus
move "slide one bead down its runner": replace a bead b by b - t when b - t is
free.  The t-quotient convention used everywhere here: take the beta-set whose
length is the unique multiple of t in [#parts, #parts + t); runner k holds the
beads congruent to k mod t; component k is the partition read off runner k.
This choice reproduces the worked 5-core/5-quotient of the partition with
diagonal hooks (29, 15) in runner order, and is frozen by tests.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Sequence

from .errors import AlreadyCore, LengthTooSmall, NotACore, NotSelfConjugate
from .partitions import (
    Partition,
    conjugate,
    hook_length,
    is_self_conjugate,
    is_t_core,
    size,
)

BetaSet = tuple[int, ...]
Quotient = tuple[Partition, ...]


def beta_set(p: Partition, m: int) -> BetaSet:
    """First-column hook lengths of p, padded to length m."""
    if m < len(p):
        raise LengthTooSmall(f"m={m} < {len(p)} parts")
    beads = [p[k] + (m - k) - 1 for k in range(len(p))]
    beads.extend(range(m - len(p) - 1, -1, -1))
    return tuple(beads)


def partition_of(b: Sequence[int]) -> Partition:
    """Inverse of beta_set for any strictly decreasing non-negative sequence."""
    beads = sorted(b, reverse=True)
    m = len(beads)
    parts = []
    for k, bead in enumerate(beads):
        if bead < 0 or (k + 1 < m and beads[k + 1] == bead):
            raise ValueError(f"not a beta-set: {b!r}")
        part = bead - (m - 1 - k)
        if part > 0:
            parts.append(part)
        elif part < 0:
            raise ValueError(f"not a beta-set: {b!r}")
    return tuple(parts)


def remove_hook(p: Partition, i: int, j: int) -> Partition:
    """Remove the hook of cell (i, j): delete its boxes and migrate the rest."""
    h = hook_length(p, i, j)
    beads = list(beta_set(p, len(p)))
    moved = beads[i - 1] - h
    assert moved >= 0 and moved not in beads
    beads[i - 1] = moved
    return partition_of(beads)


def _quotient_length(p: Partition, t: int) -> int:
    m = len(p)
    return m if m % t == 0 else m + (t - m % t)


def _runners(p: Partition, t: int) -> list[list[int]]:
    """Runner r lists the levels b // t of the beads b = r (mod t), top first."""
    if t < 1:
        raise ValueError("t must be positive")
    runners: list[list[int]] = [[] for _ in range(t)]
    for b in beta_set(p, _quotient_length(p, t) or t):
        runners[b % t].append(b // t)
    return runners


def t_core(p: Partition, t: int) -> Partition:
    """Slide every bead to the bottom of its runner and read off the partition."""
    return partition_of([r + t * j for r, levels in enumerate(_runners(p, t)) for j in range(len(levels))])


def t_quotient(p: Partition, t: int) -> Quotient:
    """The t runner partitions recording which hooks are divisible by t."""
    return tuple(partition_of(r) for r in _runners(p, t))


def assemble(core: Partition, q: Quotient, t: int) -> Partition:
    """Inverse of (t_core, t_quotient) under the frozen runner convention."""
    if len(q) != t:
        raise ValueError(f"quotient must have exactly {t} components")
    runners = _runners(core, t)
    # a t-core has every runner flush: its top level is its bead count - 1
    if any(levels and levels[0] != len(levels) - 1 for levels in runners):
        raise NotACore(f"{core!r} still has a {t}-hook")
    counts = [len(levels) for levels in runners]
    # pad every runner equally so each has room for its component's parts
    pad = max(0, max((len(comp) for comp in q), default=0) + 1 - min(counts))
    beads = []
    for r in range(t):
        beads.extend(r + t * j for j in beta_set(q[r], counts[r] + pad))
    return partition_of(beads)


def quotient_is_self_symmetric(q: Quotient) -> bool:
    """Component k must be the conjugate of component t-1-k for every k."""
    t = len(q)
    return all(q[k] == conjugate(q[t - 1 - k]) for k in range(t))


def t_hook_cells(p: Partition, t: int) -> list[tuple[int, int]]:
    """Cells of p with hook length t, row-major: row i has one exactly when its
    bead b_i has b_i - t empty, and its leg counts the beads in between."""
    if t < 1:
        raise ValueError("t must be positive")
    beads = beta_set(p, len(p))
    occupied = set(beads)
    cells = []
    for i, b in enumerate(beads, start=1):
        if b >= t and b - t not in occupied:
            leg = sum(1 for c in beads[i:] if c > b - t)
            cells.append((i, p[i - 1] - (t - 1 - leg)))
    return cells


def sc_reduction_step(p: Partition, t: int) -> tuple[Partition, dict]:
    """One minimal self-conjugacy-preserving removal of t-hooks.

    Even t: removes a conjugate pair of off-diagonal t-hooks (2t boxes).
    Odd t: prefers a diagonal t-hook (t boxes) when one exists, otherwise the
    pair.  The off-diagonal search prefers the smallest (row, column) cell so
    the output is deterministic.
    """
    if not is_self_conjugate(p):
        raise NotSelfConjugate(f"{p!r} is not self-conjugate")
    cells = t_hook_cells(p, t)
    if not cells:
        raise AlreadyCore(f"{p!r} has no {t}-hook")
    if t % 2 == 1:
        diagonal = [(i, j) for (i, j) in cells if i == j]
        if diagonal:
            i, _ = diagonal[0]
            result = remove_hook(p, i, i)
            assert is_self_conjugate(result) and size(result) == size(p) - t
            return result, {"case": "diagonal", "cells": [(i, i)]}
    n = size(p)
    for i, j in cells:
        if i >= j:
            continue
        first = remove_hook(p, i, j)
        # the mirror hook survives as some t-hook of the intermediate whose
        # removal restores self-conjugacy; try them in deterministic order
        for i2, j2 in t_hook_cells(first, t):
            second = remove_hook(first, i2, j2)
            if size(second) == n - 2 * t and is_self_conjugate(second):
                return second, {"case": "pair", "cells": [(i, j), (j, i)]}
    raise AssertionError(f"no self-conjugate reduction found for {p!r}, t={t}")


def sc_reduce_to_core(p: Partition, t: int) -> list[Partition]:
    """Iterate sc_reduction_step down to the t-core; returns all intermediates."""
    chain = [p]
    while not is_t_core(chain[-1], t):
        nxt, _ = sc_reduction_step(chain[-1], t)
        chain.append(nxt)
    return chain


def t_cores_up_to(limit: int, t: int) -> Iterator[tuple[int, Partition]]:
    """(size, partition) for every t-core of size <= limit, one DFS pass.

    A t-core corresponds to a flush bead configuration; writing c_r = K + d_r
    for the runner counts (relative to the empty partition), sum d_r = 0 and
    the size is (t/2)*sum(d_r^2) + sum(r*d_r), independent of K.  Depth-first
    search over deviation vectors with a quadratic pruning bound; size is
    tracked doubled so it stays integral mid-search.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if t == 1:
        yield 0, ()
        return

    from math import isqrt

    def dfs(r: int, sum_d: int, twice_size: int, ds: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
        if r == t:
            if sum_d == 0 and twice_size <= 2 * limit:
                yield twice_size // 2, ds
            return
        remaining = t - r
        # each later runner contributes at least -r^2/t > -t (doubled)
        budget = 2 * limit + remaining * t - twice_size
        if budget < 0:
            return
        # viable d at this level: t*d^2 - 2(t-1)|d| <= budget
        lim = ((t - 1) + isqrt((t - 1) * (t - 1) + t * budget)) // t
        if abs(sum_d) > remaining * lim:
            return
        if r == t - 1:
            d = -sum_d  # the last runner is forced by sum d_r = 0
            yield from dfs(t, 0, twice_size + t * d * d + 2 * r * d, ds + (d,))
            return
        for d in range(-lim, lim + 1):
            yield from dfs(r + 1, sum_d + d, twice_size + t * d * d + 2 * r * d, ds + (d,))

    for size_, ds in dfs(0, 0, 0, ()):
        K = max(1, 1 - min(ds))
        beads = [r + t * j for r in range(t) for j in range(K + ds[r])]
        yield size_, partition_of(beads)


def simultaneous_cores(s: int, t: int) -> Iterator[Partition]:
    """Every partition that is both an s-core and a t-core, for coprime s, t.

    Anderson's characterization.  The beta-set of length #parts of such a
    core, its first-column hooks, holds h - s for every hook h >= s (the bead
    test), likewise h - t, and never 0; so a hook stepped down by s and t never
    reaches 0, and no hook lies in the semigroup <s, t>.  The hooks are a set
    of gaps of <s, t> closed under -s and -t, and each such set, whose least
    element is >= 1, is the beta-set of one (s, t)-core.  The depth-first
    search adds gaps in increasing order, a gap g only when g - s and g - t
    are each < 0 or already chosen, so it reaches every such down-set exactly
    once, with no bound on the size.
    """
    if s < 1 or t < 1 or gcd(s, t) != 1:
        raise ValueError(f"s and t must be coprime positive integers, got s={s}, t={t}")
    # every integer >= (s - 1)(t - 1) lies in <s, t>
    in_semigroup = [False] * max(1, (s - 1) * (t - 1))
    in_semigroup[0] = True
    for g in range(1, len(in_semigroup)):
        in_semigroup[g] = (g >= s and in_semigroup[g - s]) or (g >= t and in_semigroup[g - t])
    gaps = [g for g, inside in enumerate(in_semigroup) if not inside]
    # (next gap index, chosen gaps as a bit mask, chosen gaps in increasing order)
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
    while stack:
        start, mask, beads = stack.pop()
        yield partition_of(beads)
        for k in range(start, len(gaps)):
            g = gaps[k]
            if (g < s or mask >> (g - s) & 1) and (g < t or mask >> (g - t) & 1):
                stack.append((k + 1, mask | 1 << g, beads + (g,)))


def enumerate_t_cores(n: int, t: int) -> Iterator[Partition]:
    """All t-core partitions of n."""
    for size_, p in t_cores_up_to(n, t):
        if size_ == n:
            yield p
