"""Partitions, conjugation, hooks, and the diagonal-hook form of self-conjugate partitions.

A partition is a plain tuple of weakly decreasing positive integers; the empty
tuple is the partition of 0.  Row/column indices in the public functions are
1-based, matching the usual matrix labelling of Young-diagram cells.

This module owns the beta-set of length m = #parts (`_beads`: bead
p_k + m - k for row k, top first) and the hook questions read off it.  A
t-hook is a bead b >= t with b - t empty, so p is a t-core when no bead is
one (`_is_t_core`).  p is self-conjugate when b -> 2m - 1 - b maps its beads
onto their complement in [0, 2m) (`_self_conjugate_beads`), and then the beads
b >= m are its diagonal, with hook 2(b - m) + 1 (`diagonal_hooks`).  These two
check nothing, for partitions the package built; the public entries run
`check_partition` first.  `sccore.abacus` pads the beads and walks them.

A self-conjugate partition is its diagonal hooks, a strictly decreasing
sequence of odd parts.  Internally the walk over these sequences yields each
as a hook set: one int with bit a set for each hook 2a + 1.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from math import factorial
from operator import add, ge
from typing import Iterator

from .config import DEFAULT_LIMITS, Limits
from .errors import InvalidHooks, NotSelfConjugate, OutOfDiagram, ResourceLimit

Partition = tuple[int, ...]


def check_partition(parts: Partition) -> Partition:
    """Validate weakly decreasing positive parts; returns the tuple unchanged.
    A refusal names the rule that the first offending part breaks."""
    if parts and (parts[-1] < 1 or not all(map(ge, parts, parts[1:]))):
        for k in range(len(parts)):
            if parts[k] < 1:
                raise ValueError(f"parts must be positive, got {parts!r}")
            if k + 1 < len(parts) and parts[k] < parts[k + 1]:
                raise ValueError(f"parts must be weakly decreasing, got {parts!r}")
    return parts


def size(p: Partition) -> int:
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram (part k counts column k's boxes); ValueError unless p is a partition."""
    if not check_partition(p):
        return ()
    out = []
    for j in range(1, p[0] + 1):
        out.append(sum(1 for part in p if part >= j))
    return tuple(out)


def _beads(p: Partition) -> list[int]:
    """The beta-set of length m = #parts, bead p_k + m - k for row k, top
    first; p is not checked."""
    return list(map(add, p, range(len(p) - 1, -1, -1)))


def _self_conjugate_beads(p: Partition) -> list[int] | None:
    """The beads of p when p is self-conjugate, else None; p is not checked.
    Every bead lies below 2m and no mirror 2m - 1 - b is a bead."""
    beads = _beads(p)
    top = 2 * len(p) - 1
    if beads and (beads[0] > top or not set(beads).isdisjoint([top - b for b in beads])):
        return None
    return beads


def is_self_conjugate(p: Partition) -> bool:
    """Equal to its conjugate, read off the beads; ValueError unless p is a partition."""
    return _self_conjugate_beads(check_partition(p)) is not None


def check_hooks(hooks: tuple[int, ...]) -> tuple[int, ...]:
    """Validate diagonal hooks, strictly decreasing positive odd integers (the
    h_11 > h_22 > ... of a self-conjugate partition); returns the tuple unchanged."""
    for k, h in enumerate(hooks):
        if h < 1 or h % 2 == 0:
            raise InvalidHooks(f"hooks must be positive odd integers, got {hooks!r}")
        if k + 1 < len(hooks) and hooks[k + 1] >= h:
            raise InvalidHooks(f"hooks must be strictly decreasing, got {hooks!r}")
    return hooks


def diagonal_hooks(p: Partition) -> tuple[int, ...]:
    """Diagonal hook lengths of a self-conjugate partition (its canonical form)."""
    beads = _self_conjugate_beads(check_partition(p))
    if beads is None:
        raise NotSelfConjugate(f"{p!r} is not self-conjugate")
    m = len(p)
    # row i is on the diagonal when p_i >= i, i.e. its bead b >= m, and its arm
    # and leg agree, so h_ii = 2(p_i - i) + 1 = 2(b - m) + 1
    return tuple(2 * (b - m) + 1 for b in beads if b >= m)


def from_diagonal_hooks(hooks: tuple[int, ...]) -> Partition:
    """The unique self-conjugate partition with the given diagonal hooks;
    InvalidHooks unless they pass `check_hooks`."""
    hooks = check_hooks(tuple(hooks))
    d = len(hooks)
    if d == 0:
        return ()
    parts = [i + (hooks[i - 1] - 1) // 2 for i in range(1, d + 1)]
    # rows below the diagonal mirror the columns above it
    for j in range(d + 1, parts[0] + 1):
        parts.append(sum(1 for i in range(d) if parts[i] >= j))
    return tuple(parts)


def hook_length(p: Partition, i: int, j: int) -> int:
    """Hook length of cell (i, j): arm + leg + 1."""
    if i < 1 or i > len(p) or j < 1 or j > p[i - 1]:
        raise OutOfDiagram(f"({i}, {j}) is not a cell of {p!r}")
    arm = p[i - 1] - j
    leg = sum(1 for part in p[i:] if part >= j)
    return arm + leg + 1


def hook_grid(p: Partition) -> tuple[tuple[int, ...], ...]:
    """All hook lengths, row by row; ValueError unless p is a partition."""
    conj = conjugate(p)
    return tuple(
        tuple((p[i] - 1 - j) + (conj[j] - 1 - i) + 1 for j in range(p[i]))
        for i in range(len(p))
    )


def is_t_core(p: Partition, t: int) -> bool:
    """True iff no cell of p has hook length exactly t, i.e. no bead b >= t of
    `_beads(p)` has b - t empty; ValueError for t < 1, then unless p is a partition."""
    if t < 1:
        raise ValueError("t must be positive")
    return _is_t_core(check_partition(p), t)


def _is_t_core(p: Partition, t: int) -> bool:
    """`is_t_core` unchecked, for partitions the package built."""
    beads = set(_beads(p))
    return all(b < t or b - t in beads for b in beads)


def hook_multiset(p: Partition) -> list[int]:
    return [h for row in hook_grid(p) for h in row]


def character_degree(p: Partition) -> int:
    """n! divided by the product of all hook lengths (always an exact division)."""
    prod = 1
    for h in hook_multiset(p):
        prod *= h
    deg, rem = divmod(factorial(size(p)), prod)
    if rem:
        raise ArithmeticError(f"hook product does not divide n! for {p!r}")
    return deg


# remainders up to this size are read off `_tail_table` instead of walked
_TAIL_BOUND = 50


def _set_of(hooks: tuple[int, ...]) -> int:
    """The hook set of strictly decreasing odd hooks: bit a for each hook 2a + 1."""
    s = 0
    for h in hooks:
        s |= 1 << (h >> 1)
    return s


def _hooks_of(s: int) -> tuple[int, ...]:
    """The descending hook tuple of a hook set; inverse of `_set_of`."""
    out = []
    while s:
        a = s.bit_length() - 1
        out.append(2 * a + 1)
        s ^= 1 << a
    return tuple(out)


@cache
def _tail_table() -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """For each m <= _TAIL_BOUND, the hook set of every sequence of distinct odd
    parts summing to m, in the order `_hook_sets(m)` yields them, and each
    set negated, ascending, for `bisect`."""
    tails: list[tuple[int, ...]] = [(0,)]
    for m in range(1, _TAIL_BOUND + 1):
        row: list[int] = []
        for f in range(m if m % 2 else m - 1, 0, -2):
            bit = 1 << (f >> 1)
            row.extend(bit | t for t in tails[m - f] if t < bit)
        tails.append(tuple(row))
    return tuple(tails), tuple(tuple(-t for t in row) for row in tails)


def _hook_sets(n: int) -> Iterator[int]:
    """The walk behind `descending_odd_sequences`, yielding each sequence as its
    hook set: one int with bit a set for each part 2a + 1.

    Sets compare by value as their descending sequences compare
    lexicographically (the highest differing bit is the first differing part),
    so the sets come in descending order.  The walk is an explicit depth-first
    stack over first parts, pruned by the bound that distinct odd parts below
    first = 2k + 1 sum to at most k^2.  Once the remainder is at most
    `_TAIL_BOUND`, the tails are read off `_tail_table`, starting at the first
    one below the bit of the largest part allowed.
    """
    if n < 0:
        return
    tails, keys = _tail_table()
    # (head, remainder, largest part allowed)
    stack = [(0, n, n)]
    while stack:
        head, rest, cap = stack.pop()
        if rest <= _TAIL_BOUND:
            # tails whose parts are all <= cap are the sets below 1 << ((cap + 1) >> 1)
            k = bisect_left(keys[rest], 1 - (1 << ((cap + 1) >> 1)))
            yield from map(head.__or__, tails[rest][k:])
            continue
        top = min(cap, rest)
        if top % 2 == 0:
            top -= 1
        low = top
        while low >= 1 and rest - low <= ((low - 1) // 2) ** 2:
            low -= 2
        # pushed smallest first, so the largest first part is walked first
        stack.extend((head | 1 << (f >> 1), rest - f, f - 2) for f in range(low + 2, top + 1, 2))


def descending_odd_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Strictly decreasing sequences of distinct odd positive integers summing
    to n.

    Sequences come in descending lexicographic order: this is the tuple view of
    the walk `_hook_sets`.
    """
    yield from map(_hooks_of, _hook_sets(n))


def enumerate_self_conjugate(n: int, limits: Limits = DEFAULT_LIMITS) -> list[Partition]:
    """All self-conjugate partitions of n, via the distinct-odd-parts bijection."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > limits.oracle_cap:
        raise ResourceLimit(f"n={n} exceeds oracle cap {limits.oracle_cap}")
    found = [from_diagonal_hooks(seq) for seq in descending_odd_sequences(n)]
    return sorted(found)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n (plain enumeration; used as a brute-force oracle)."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(remaining: int, largest: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(largest, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))
