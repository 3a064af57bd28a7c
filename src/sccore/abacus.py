"""Beta-set (abacus) machinery: hook removal, t-core, t-quotient, reconstruction.

A beta-set of length m is the strictly decreasing sequence of first-column hook
lengths of the partition padded to m rows.  Removing a t-hook is the abacus
move "slide one bead down its runner": replace a bead b by b - t when b - t is
free.  `sccore.partitions` owns the beta-set of length #parts and the hook
tests read off it: whether a partition is a t-core (`is_t_core`) and whether
it is self-conjugate (`is_self_conjugate`).  This module pads those beads
(`beta_set`), walks them (the reduction below) and places them on runners.

One runner form.  `t_core`, `t_quotient` and `assemble` read the beta-set
whose length is the unique multiple of t in [#parts, #parts + t) (t beads
for the empty partition), placed straight into t runners (`_split`): runner r
holds the beads b = r (mod t) at levels b // t, top first.  Component r of
the t-quotient is the partition read off runner r's levels.  The runner
counts alone give the t-core, every bead slid to the bottom of its runner
(`_flush_core`); `assemble` takes a core's counts once `is_t_core` has
accepted it.  The lattice of t-cores (`t_cores_up_to`) walks the same
counts, pruned by the exact least size that the runners still open can add
(`_least_twice_size`), so its work is proportional to the cores it lists,
at most t nodes each.  The t-cores met are few next to the partitions that
share them, so the core of a count vector and the counts of a core are each
kept in a bounded LRU cache (`_core`, `_core_counts`).  This convention
reproduces the worked 5-core/5-quotient of the partition with diagonal hooks
(29, 15) in runner order, and is frozen by tests.

Validation.  Every partition check is `check_partition` (`ValueError`):
`beta_set` runs it and checks its length, `assemble` runs it on its core and
every quotient component and checks that the core is a t-core (`NotACore`),
and the self-conjugate reduction on its input (`_sc_beads`).  `partition_of`
checks that its beads are distinct and non-negative.  The other functions
trust their partition arguments; the kernels read their sorted beads back
with the trusted `_parts`, which checks nothing.

The self-conjugate reduction walks the beta-set of its input, of length m =
#parts, so m stays >= the first part of every partition on the chain.  Such a
set B is self-conjugate exactly when b -> 2m - 1 - b maps B onto its
complement in [0, 2m); `partitions` makes that test once, on the input's
beads, and hands the beads over (`_sc_beads`).  So the mirror of the
move b -> b - t is the move 2m + t - 1 - b -> 2m - 1 - b.  A t-hook on the
diagonal is its own mirror: it is the bead m + (t - 1) / 2.  Every other
t-hook of a self-conjugate partition has a mirror, and the upper one of the
two (row i < column j) has the larger bead; the only self-conjugate result
of removing it and one more t-hook is the mirror's removal.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import sub
from typing import Iterator, Sequence

from .errors import AlreadyCore, LengthTooSmall, NotACore, NotSelfConjugate
from .partitions import (
    Partition,
    _beads,
    _self_conjugate_beads,
    check_partition,
    conjugate,
    hook_length,
    is_t_core,
)

BetaSet = tuple[int, ...]
Quotient = tuple[Partition, ...]


def beta_set(p: Partition, m: int) -> BetaSet:
    """First-column hook lengths of p, padded to length m."""
    check_partition(p)
    pad = m - len(p)
    if pad < 0:
        raise LengthTooSmall(f"m={m} < {len(p)} parts")
    return tuple([b + pad for b in _beads(p)] + list(range(pad - 1, -1, -1)))


def _parts(beads: Sequence[int]) -> Partition:
    """The partition of strictly decreasing non-negative beads; not checked."""
    return tuple([part for part in map(sub, beads, range(len(beads) - 1, -1, -1)) if part])


def partition_of(b: Sequence[int]) -> Partition:
    """Inverse of beta_set for any strictly decreasing non-negative sequence."""
    beads = sorted(b, reverse=True)
    if (beads and beads[-1] < 0) or any(x == y for x, y in zip(beads, beads[1:])):
        raise ValueError(f"not a beta-set: {b!r}")
    return _parts(beads)


def _slide(beads: Sequence[int], rows: Sequence[int], h: int) -> list[int]:
    """The beads with the bead at each index in rows moved h down, sorted again."""
    moved = list(beads)
    for k in rows:
        moved[k] -= h
    moved.sort(reverse=True)
    return moved


def remove_hook(p: Partition, i: int, j: int) -> Partition:
    """Remove the hook of cell (i, j): delete its boxes and migrate the rest."""
    return _parts(_slide(beta_set(p, len(p)), (i - 1,), hook_length(p, i, j)))


def _split(p: Partition, t: int) -> list[list[int]]:
    """Runner r lists the levels b // t of the beads b = r (mod t), top first."""
    if t < 1:
        raise ValueError("t must be positive")
    m = len(p)
    pad = -m % t if m else t
    top = m + pad - 1
    runners: list[list[int]] = [[] for _ in range(t)]
    for k, part in enumerate(p):
        level, r = divmod(part + top - k, t)
        runners[r].append(level)
    # the padding beads pad - 1, ..., 0 each sit at level 0 of their own runner
    for r in range(pad):
        runners[r].append(0)
    return runners


def _flush_core(counts: Sequence[int], t: int) -> Partition:
    """The t-core with counts[r] beads on runner r, all slid to the bottom.

    Only the differences of the counts matter: removing a full bottom level
    removes the beads 0..t-1 and leaves the partition as it was.
    """
    low = min(counts)
    beads = sorted([r + t * j for r, c in enumerate(counts) for j in range(c - low)], reverse=True)
    return _parts(beads)


# most partitions share their core with many others, so a few hundred recent
# cores serve most calls; each entry costs a few hundred bytes
_core = lru_cache(maxsize=256)(_flush_core)


def t_core(p: Partition, t: int) -> Partition:
    """Slide every bead to the bottom of its runner and read off the partition."""
    return _core(tuple(map(len, _split(p, t))), t)


def t_quotient(p: Partition, t: int) -> Quotient:
    """The t runner partitions recording which hooks are divisible by t."""
    # a flush runner, top level = bead count - 1, holds the empty partition
    return tuple([_parts(levels) if levels and levels[0] >= len(levels) else ()
                  for levels in _split(p, t)])


@lru_cache(maxsize=256)
def _core_counts(core: Partition, t: int) -> tuple[int, ...]:
    """The runner counts of a t-core; NotACore unless `is_t_core` accepts it."""
    if not is_t_core(core, t):
        raise NotACore(f"{core!r} still has a {t}-hook")
    return tuple(map(len, _split(core, t)))


def assemble(core: Partition, q: Quotient, t: int) -> Partition:
    """Inverse of (t_core, t_quotient) under the frozen runner convention."""
    if len(q) != t:
        raise ValueError(f"quotient must have exactly {t} components")
    for comp in q:
        check_partition(comp)
    counts = _core_counts(tuple(core), t)
    # lengthen every runner equally so each has room for its component's parts,
    # and drop the full bottom levels, which leave the partition as it is
    pad = max(map(sub, map(len, q), counts))
    beads = []
    for r, comp in enumerate(q):
        length = counts[r] + pad
        if comp:
            beads.extend([r + t * (part + length - 1 - k) for k, part in enumerate(comp)])
        beads.extend(range(r, r + t * (length - len(comp)), t))
    beads.sort(reverse=True)
    return _parts(beads)


def quotient_is_self_symmetric(q: Quotient) -> bool:
    """Component k must be the conjugate of component t-1-k for every k."""
    t = len(q)
    return all(q[k] == conjugate(q[t - 1 - k]) for k in range(t))


def _sc_step(beads: list[int], t: int) -> tuple[list[int], dict] | None:
    """One minimal self-conjugacy-preserving removal of t-hooks on the beads of
    a self-conjugate partition (length m >= its first part), or None at the t-core.

    Odd t takes the diagonal t-hook when there is one; otherwise the topmost
    t-hook, which lies above the diagonal, goes with its mirror.
    """
    # the t-hook rows of `is_t_core`: beads b >= t with b - t empty
    occupied = set(beads)
    rows = [k for k, b in enumerate(beads) if b >= t and b - t not in occupied]
    if not rows:
        return None
    m = len(beads)
    if t % 2 == 1:
        diagonal = m + (t - 1) // 2
        for k in rows:
            if beads[k] == diagonal:
                return _slide(beads, (k,), t), {"case": "diagonal", "cells": [(k + 1, k + 1)]}
    i = rows[0]
    j = beads.index(2 * m + t - 1 - beads[i])
    return _slide(beads, (i, j), t), {"case": "pair", "cells": [(i + 1, j + 1), (j + 1, i + 1)]}


def _sc_beads(p: Partition, t: int) -> list[int]:
    """The beads that the reduction walks, after checking t, that p is a
    partition and that it is self-conjugate (`_self_conjugate_beads`)."""
    if t < 1:
        raise ValueError("t must be positive")
    beads = _self_conjugate_beads(check_partition(p))
    if beads is None:
        raise NotSelfConjugate(f"{p!r} is not self-conjugate")
    return beads


def sc_reduction_step(p: Partition, t: int) -> tuple[Partition, dict]:
    """One minimal self-conjugacy-preserving removal of t-hooks.

    Even t: removes a conjugate pair of off-diagonal t-hooks (2t boxes).
    Odd t: prefers a diagonal t-hook (t boxes) when one exists, otherwise the
    pair.  The pair is the first cell (i, j), i < j, in row-major order and
    its mirror (j, i), so the output is deterministic.
    """
    step = _sc_step(_sc_beads(p, t), t)
    if step is None:
        raise AlreadyCore(f"{p!r} has no {t}-hook")
    beads, descriptor = step
    return _parts(beads), descriptor


def sc_reduce_to_core(p: Partition, t: int) -> list[Partition]:
    """Iterate sc_reduction_step down to the t-core; returns all intermediates.

    Self-conjugacy is checked once, on p: every step keeps it.
    """
    beads = _sc_beads(p, t)
    chain = [p]
    while (step := _sc_step(beads, t)) is not None:
        beads = step[0]
        chain.append(_parts(beads))
    return chain


def _least_twice_size(t: int, r: int, k: int) -> int:
    """The least doubled size sum (t d^2 + 2 r' d) over the runners r' = r..t-1
    of deviations d that sum to k, for 0 <= r < t (see `t_cores_up_to`)."""
    m = t - r
    q, p = divmod(abs(k), m)
    low = r if k > 0 else t - p  # the p runners that take a move on level q
    linear = q * m * (r + t - 1) + p * (2 * low + p - 1)
    return t * (m * q * q + p * (2 * q + 1)) + (linear if k > 0 else -linear)


def t_cores_up_to(limit: int, t: int) -> Iterator[tuple[int, Partition]]:
    """(size, partition) for every t-core of size <= limit, in increasing
    lexicographic order of its runner deviations d_0, ..., d_(t-1).

    A t-core is a flush bead configuration.  Writing c_r = K + d_r for its
    runner counts (relative to the empty partition), sum d_r = 0 and twice
    the size is sum (t d_r^2 + 2 r d_r), whatever K (Garvan, Kim and Stanton,
    *Cranks and t-cores*); `_flush_core` reads the core off d alone.  The walk
    fixes d_0, d_1, ... in turn on one explicit stack; the last is forced.

    The one prune is exact: a node is kept when its doubled size plus the
    least that the open runners r' >= r can add, their deviations summing to
    k = -(sum of d so far), is at most 2 * limit (`_least_twice_size`).
    Moving runner r' one step up from d costs t (2d + 1) + 2r', one step down
    t (2|d| + 1) - 2r'.  So the moves of each sign come in levels |d| = 0, 1,
    ... of t - r moves, every move of a level cheaper than every move of the
    next, and one move of each sign together cost at least 2t - 2(t - 1) > 0.
    A least completion therefore never mixes signs, and as each runner's cost
    is convex it is the |k| cheapest moves of k's sign, whole levels first:
    the greedy completion.  Every kept node extends to a yielded core, so the
    walk keeps at most t nodes per core.  The kept d_r of a node form an
    interval (the least completion is convex in k) that holds the greedy
    completion's d_r = ceil(k / (t - r)); the walk scans out from it both ways.
    """
    if t < 1:
        raise ValueError("t must be positive")
    bound = 2 * limit
    # (runner r to fix next, sum of d so far, doubled size so far, d so far)
    stack = [(0, 0, 0, ())] if limit >= 0 else []
    while stack:
        r, s, twice, ds = stack.pop()
        if r == t - 1:  # the last deviation is forced by sum d_r = 0
            yield (twice + t * s * s - 2 * r * s) // 2, _flush_core(ds + (-s,), t)
            continue

        def fits(d: int) -> bool:
            return twice + t * d * d + 2 * r * d + _least_twice_size(t, r + 1, -s - d) <= bound

        lo = hi = -(s // (t - r))
        while fits(hi + 1):
            hi += 1
        while fits(lo - 1):
            lo -= 1
        for d in range(hi, lo - 1, -1):
            stack.append((r + 1, s + d, twice + t * d * d + 2 * r * d, ds + (d,)))


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
        yield _parts(beads[::-1])
        for k in range(start, len(gaps)):
            g = gaps[k]
            if (g < s or mask >> (g - s) & 1) and (g < t or mask >> (g - t) & 1):
                stack.append((k + 1, mask | 1 << g, beads + (g,)))


def enumerate_t_cores(n: int, t: int) -> Iterator[Partition]:
    """All t-core partitions of n."""
    for size_, p in t_cores_up_to(n, t):
        if size_ == n:
            yield p
