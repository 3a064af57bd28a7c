"""Partition-level reference for the abacus kernels in sccore.abacus.

These are the kernels as they stood before the runner form: every step goes
through a validated beta-set and back, `t_core`, `t_quotient` and `assemble`
each split the beads into runners again, and the self-conjugate reduction
searches the second removal of a pair by recomputing conjugates.  They share
no code with sccore.abacus, so a test can compare the two on every input.
Self-conjugacy is p == conjugate(p) and a t-core has no hook of length t in
its hook grid, so neither rests on the bead tests of sccore.partitions.
"""

from __future__ import annotations

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
