"""Partition-level reference for the abacus kernels in sccore.abacus.

These are the kernels as they stood before the runner form: every step goes
through a validated beta-set and back, `t_core`, `t_quotient` and `assemble`
each split the beads into runners again, and the self-conjugate reduction
searches the second removal of a pair by recomputing conjugates.  They share
no code with sccore.abacus, so a test can compare the two on every input.
Self-conjugacy is p == conjugate(p) and a t-core has no hook of length t in
its hook grid, so neither rests on the bead tests of sccore.partitions.
The t-core lattice walk is the nested recursive generator that
sccore.abacus.t_cores_up_to was before its exact bound.
"""

from __future__ import annotations

from math import isqrt

from sccore.errors import AlreadyCore, NotACore, NotSelfConjugate
from sccore.partitions import conjugate, hook_grid, hook_length, size


def is_self_conjugate(p):
    return p == conjugate(p)


def is_t_core(p, t):
    return all(t not in row for row in hook_grid(p))


def beta_set(p, m):
    beads = [p[k] + (m - k) - 1 for k in range(len(p))]
    beads.extend(range(m - len(p) - 1, -1, -1))
    return tuple(beads)


def partition_of(b):
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


def remove_hook(p, i, j):
    h = hook_length(p, i, j)
    beads = list(beta_set(p, len(p)))
    beads[i - 1] -= h
    return partition_of(beads)


def _runners(p, t):
    m = len(p)
    m = m if m % t == 0 else m + (t - m % t)
    runners = [[] for _ in range(t)]
    for b in beta_set(p, m or t):
        runners[b % t].append(b // t)
    return runners


def t_core(p, t):
    return partition_of([r + t * j for r, levels in enumerate(_runners(p, t)) for j in range(len(levels))])


def t_quotient(p, t):
    return tuple(partition_of(r) for r in _runners(p, t))


def assemble(core, q, t):
    runners = _runners(core, t)
    if any(levels and levels[0] != len(levels) - 1 for levels in runners):
        raise NotACore(f"{core!r} still has a {t}-hook")
    counts = [len(levels) for levels in runners]
    pad = max(0, max((len(comp) for comp in q), default=0) + 1 - min(counts))
    beads = []
    for r in range(t):
        beads.extend(r + t * j for j in beta_set(q[r], counts[r] + pad))
    return partition_of(beads)


def t_hook_cells(p, t):
    beads = beta_set(p, len(p))
    occupied = set(beads)
    cells = []
    for i, b in enumerate(beads, start=1):
        if b >= t and b - t not in occupied:
            leg = sum(1 for c in beads[i:] if c > b - t)
            cells.append((i, p[i - 1] - (t - 1 - leg)))
    return cells


def sc_reduction_step(p, t):
    """Diagonal t-hook first for odd t, else the first off-diagonal cell (i < j)
    in row-major order, whose mirror is found by trying every t-hook of the
    intermediate until the result is self-conjugate."""
    if not is_self_conjugate(p):
        raise NotSelfConjugate(f"{p!r} is not self-conjugate")
    cells = t_hook_cells(p, t)
    if not cells:
        raise AlreadyCore(f"{p!r} has no {t}-hook")
    if t % 2 == 1:
        diagonal = [(i, j) for (i, j) in cells if i == j]
        if diagonal:
            i, _ = diagonal[0]
            return remove_hook(p, i, i), {"case": "diagonal", "cells": [(i, i)]}
    n = size(p)
    for i, j in cells:
        if i >= j:
            continue
        first = remove_hook(p, i, j)
        for i2, j2 in t_hook_cells(first, t):
            second = remove_hook(first, i2, j2)
            if size(second) == n - 2 * t and is_self_conjugate(second):
                return second, {"case": "pair", "cells": [(i, j), (j, i)]}
    raise AssertionError(f"no self-conjugate reduction found for {p!r}, t={t}")


def sc_reduce_to_core(p, t):
    chain = [p]
    while not is_t_core(chain[-1], t):
        chain.append(sc_reduction_step(chain[-1], t)[0])
    return chain


def t_cores_up_to(limit, t):
    """(size, core) for every t-core of size <= limit, by runner deviations d_r
    (sum 0, doubled size sum t d_r^2 + 2 r d_r) in increasing lexicographic
    order.  Each runner is charged a budget that lets every later runner
    give back t, and |sum d| is bounded by the runners left times the widest
    deviation the budget admits.  The core, with d_r - min(d) beads at the
    bottom of runner r, is read back through partition_of."""
    if t < 1:
        raise ValueError("t must be positive")
    if t == 1:
        yield 0, ()
        return

    def dfs(r, sum_d, twice_size, ds):
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
        low = min(ds)
        yield size_, partition_of([r + t * j for r, d in enumerate(ds) for j in range(d - low)])
