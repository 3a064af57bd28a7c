"""Counting formulas for self-conjugate t-cores: the recursions, the
signed-composition closed forms, and the large-t shortcuts, all expressed in
terms of sc(m) for m <= n.  The series rows are the production path; these
formulas and the brute-force oracles validate them.  `METHODS` declares the
methods of each count family once, and `method_value` gives a method's value
or raises `OutOfRange` / `ResourceLimit` where it does not reach; both
`count --method` and `cross_validate` read them.  `RecursionTables` memoizes
a request's tables, each oracle walk included (`self_conjugate`, `t_core_sizes`).

Recursion (one DP row per core size T, `RecursionTables.row`):

    sc_T(n) = sc(n) - sum_{1 <= w <= n/step} K[w] sc_T(n - w step)

    T = 2t:    step = 4t,    K[w] = phat_t(w)
    T = 2t+1:  step = 2t+1,  K[w] = sum_{i,j >= 0, 2i+j = w} phat_t(i) sc(j)

Closed forms are literal signed sums over (pairs of) integer sequences and are
budget-gated because their term count grows exponentially.  A term is
(-1)^len sc(n - w step) times a product that does not depend on n, where w is
the sequence's total weight (2i + j for a pair (i, j)).  Summed over the pairs
of each weight, it is (-1)^len prod K[w_k] over the weight sequences, so the
kernel, built once per core size (`RecursionTables.kernel`), serves the
recursion and the closed form alike.  Each closed form is expanded once per
core size by one depth-first walk on an explicit stack: each weight sequence
is visited once, its term is its parent's times -K[w], and the terms are
summed by weight into c[w] (`RecursionTables.closed_weights`).  A value is
then sum_w c[w] sc(n - w step).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, Sequence

from .abacus import t_cores_up_to
from .config import DEFAULT_LIMITS, Limits
from .errors import MissingTable, OutOfRange, ResourceLimit
from .partitions import Partition, _is_t_core, enumerate_self_conjugate, partitions_of
from .reports import ScanReport, timed
from .series import phat_coeffs, sc_coeffs, sc_t_coeffs

# count family -> its methods besides the series; sc_t's first is cross_validate's reference
METHODS = {"sc": ("oracle",), "c_t": ("oracle",), "p": ("oracle",), "phat": (), "nsc_t": (),
           "sc_t": ("recursive", "closed", "large", "oracle")}


class RecursionTables:
    """Shared lookup state of one request: its bounds, the sc row, and, built
    on first use and memoized per instance by `functools.cache`, each core
    size's kernel, row and closed-form weights, each n's self-conjugate
    partitions and each t's t-core sizes."""

    def __init__(self, n_max: int, limits: Limits = DEFAULT_LIMITS):
        self.n_max = n_max
        self.limits = limits
        for name in ("self_conjugate", "t_core_sizes", "kernel", "row", "closed_weights"):
            setattr(self, name, cache(getattr(self, name)))

    @cached_property
    def _sc(self) -> Sequence[int]:
        """The sc row to n_max, built on first use: the oracles never read it."""
        return sc_coeffs(self.n_max)

    def sc(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.n_max:
            raise MissingTable(f"sc table covers n <= {self.n_max}, asked {n}")
        return self._sc[n]

    def self_conjugate(self, n: int) -> list[Partition]:
        """The self-conjugate partitions of n."""
        return enumerate_self_conjugate(n, self.limits)

    def t_core_sizes(self, t: int) -> Counter[int]:
        """The t-cores counted by size to min(n_max, oracle_cap), from one lattice walk."""
        return Counter(n for n, _ in t_cores_up_to(min(self.n_max, self.limits.oracle_cap), t))

    def kernel(self, t_full: int) -> Sequence[int]:
        """K[0..n_max // step] for core size t_full, t = t_full // 2: phat_t(w)
        for even t_full, sum_{2i+j=w} phat_t(i) sc(j) for odd."""
        phat, sc = phat_coeffs(t_full // 2, self.n_max // _step(t_full)), self._sc
        return phat if t_full % 2 == 0 else [
            sum(phat[i] * sc[w - 2 * i] for i in range(w // 2 + 1)) for w in range(len(phat))
        ]

    def row(self, t_full: int) -> list[int]:
        """sc_{t_full}(0..n_max) by the recursion with its kernel."""
        _check_core_size(t_full)
        step, kernel, sc = _step(t_full), self.kernel(t_full), self._sc
        row: list[int] = []
        for n in range(self.n_max + 1):
            acc = sc[n]
            for w in range(1, n // step + 1):
                acc -= kernel[w] * row[n - step * w]
            row.append(acc)
        return row

    def closed_weights(self, t_full: int) -> list[int]:
        """c[0..cap] for core size t_full, cap = min(composition_budget, n_max // step).

        c[w] sums (-1)^len prod K[w_k] over the weight sequences of total
        weight w, from one stack walk that visits each sequence once
        (`_expand_closed`).
        """
        _check_core_size(t_full)
        cap = min(self.limits.composition_budget, self.n_max // _step(t_full))
        return _expand_closed(self.kernel(t_full), cap)


def _expand_closed(kernel: Sequence[int], cap: int) -> list[int]:
    """c[0..cap]: (-1)^len prod kernel[w_k] over the sequences of positive
    weights w_k, summed by their total weight.

    One depth-first walk on an explicit stack of (weight, term) visits every
    sequence of total weight <= cap once; each pop is one sequence.  A child
    appends one weight w to its parent's sequence, and its term is the
    parent's times -kernel[w].
    """
    factors = [(w, -kernel[w]) for w in range(1, cap + 1)]
    c = [0] * (cap + 1)
    stack = [(0, 1)]
    while stack:
        weight, term = stack.pop()
        c[weight] += term
        stack.extend([(weight + w, term * f) for w, f in factors[: cap - weight]])
    return c


def _step(t_full: int) -> int:
    """The recursion's and closed form's weight unit: 4t for core size 2t, 2t+1 for 2t+1."""
    return 2 * t_full if t_full % 2 == 0 else t_full


def _check_core_size(t_full: int) -> None:
    if t_full < 2:
        raise OutOfRange(f"sc_t formulas defined for t >= 2, got {t_full}")


def _compositions(total_max: int) -> Iterator[tuple[int, ...]]:
    """Every sequence of positive integers with sum <= total_max (incl. empty).

    With `_weighted_pair_sequences`, the closed forms' sequences listed one by
    one, pairs not summed by weight: the reference that `_expand_closed` is
    tested against.  Both are named by perfbench's per-layer tracer.
    """
    yield ()
    for first in range(1, total_max + 1):
        for rest in _compositions(total_max - first):
            yield (first,) + rest


def _weighted_pair_sequences(total_max: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sequences of pairs (i, j), i + j >= 1, with sum of (2i + j) <= total_max."""
    yield ()
    for w in range(1, total_max + 1):
        for i in range(w // 2 + 1):
            j = w - 2 * i
            for rest in _weighted_pair_sequences(total_max - w):
                yield ((i, j),) + rest


def sc_t_value(t_full: int, n: int, tables: RecursionTables) -> int:
    """sc_t(n) by the recursion row for core size t_full; 0 for n < 0, as sc(n) is."""
    _check_core_size(t_full)
    if n < 0:
        return 0
    if n > tables.n_max:
        raise MissingTable(f"tables cover n <= {tables.n_max}")
    return tables.row(t_full)[n]


def sc_t_closed(t_full: int, n: int, tables: RecursionTables) -> int:
    """sc_t(n) as the literal closed form: sum_{w <= n // step} c[w] sc(n - w step),
    within the composition budget of the tables' limits."""
    _check_core_size(t_full)
    step, budget = _step(t_full), tables.limits.composition_budget
    cap = n // step
    if cap > budget:
        unit = "4t" if t_full % 2 == 0 else "(2t+1)"
        raise ResourceLimit(f"floor(n/{unit})={cap} exceeds budget {budget}")
    if n > tables.n_max:
        raise MissingTable(f"sc table covers n <= {tables.n_max}, asked {n}")
    c = tables.closed_weights(t_full)
    return sum(tables.sc(n - step * w) * c[w] for w in range(cap + 1))


@dataclass(frozen=True)
class LargeValue:
    """Result of a large-t shortcut: the count plus every formula that fired."""

    value: int
    formulas: tuple[str, ...]


def sc_large(t_full: int, n: int, tables: RecursionTables) -> LargeValue:
    """Dispatch the applicable large-t closed formulas for core size t_full.

    Tags (all applicable formulas are evaluated and must agree):
      even-all-sc          2t > n/2:          sc(n)
      even-first-term      n/4 < 2t <= n/2:   sc(n) - t sc(n-4t)
      even-floor           2t = 2 floor(n/4), n >= 4 (case split on n mod 4)
      even-floor-minus-one 2t = 2 floor(n/4) - 2, n >= 12
      odd-beyond-n         2t+1 > n:          sc(n)
      odd-first-hook       n/2 < 2t+1 <= n:   sc(n) - sc(n-2t-1)
      odd-two-term         n/3 < 2t+1 <= n/2: sc(n) - sc(n-2t-1) - (t-1) sc(n-4t-2)
    """
    _check_core_size(t_full)
    sc = tables.sc
    candidates: list[tuple[str, int]] = []
    if t_full % 2 == 0:
        t = t_full // 2
        if 2 * t_full > n:
            candidates.append(("even-all-sc", sc(n)))
        elif 4 * t_full > n:
            candidates.append(("even-first-term", sc(n) - t * sc(n - 4 * t)))
        q = n // 4
        if n >= 4 and t_full == 2 * q:
            candidates.append(("even-floor", sc(n) - (q if n % 4 != 2 else 0)))
        if n >= 12 and t_full == 2 * q - 2:
            candidates.append(("even-floor-minus-one", sc(n) - (q - 1)))
    else:
        t = (t_full - 1) // 2
        if t_full > n:
            candidates.append(("odd-beyond-n", sc(n)))
        elif 2 * t_full > n:
            candidates.append(("odd-first-hook", sc(n) - sc(n - t_full)))
        elif 3 * t_full > n:
            candidates.append(
                ("odd-two-term", sc(n) - sc(n - t_full) - (t - 1) * sc(n - 2 * t_full))
            )
    if not candidates:
        raise OutOfRange(f"no large-t formula applies at t={t_full}, n={n}")
    values = {v for _, v in candidates}
    if len(values) != 1:
        raise AssertionError(f"large-t formulas disagree at t={t_full}, n={n}: {candidates}")
    return LargeValue(values.pop(), tuple(tag for tag, _ in candidates))


def method_value(method: str, family: str, t: int | None, n: int, tables: RecursionTables) -> int:
    """The count of family at (t, n) by one of METHODS[family]; OutOfRange or
    ResourceLimit where the method does not reach within the tables' limits,
    MissingTable past tables.n_max.  tables serve the sc_t formulas and keep
    each oracle walk."""
    if method == "recursive":
        return sc_t_value(t, n, tables)
    if method == "closed":
        return sc_t_closed(t, n, tables)
    if method == "large":
        return sc_large(t, n, tables).value
    if n > tables.limits.oracle_cap:
        raise ResourceLimit(f"n={n} exceeds oracle cap {tables.limits.oracle_cap}")
    if n > tables.n_max:
        raise MissingTable(f"tables cover n <= {tables.n_max}")
    if family in ("sc_t", "c_t") and t < 1:
        raise OutOfRange(f"t-cores are defined for t >= 1, got {t}")
    if family == "sc":
        return len(tables.self_conjugate(n))
    if family == "sc_t":
        return sum(1 for p in tables.self_conjugate(n) if _is_t_core(p, t))
    if family == "c_t":
        return tables.t_core_sizes(t)[n]
    return len(partitions_of(n))


@timed
def cross_validate(t_max: int, n_max: int) -> ScanReport:
    """Every computation path must agree on every cell of the (t, n) grid.

    Compares, per cell, the series coefficient with the recursion value, then
    the recursion with each other sc_t method wherever it reaches: the closed
    form within the composition budget, the large-t formulas where one
    applies, the oracle for n <= min(n_max, 30).  Disagreements are
    witnesses, tagged by the pair of paths that differ.
    """
    oracle_n_max = min(n_max, 30)
    tables = RecursionTables(n_max, Limits(oracle_cap=oracle_n_max))
    reference_method, *checked = METHODS["sc_t"]
    witnesses: list[tuple] = []
    for t in range(2, t_max + 1):
        series_row = sc_t_coeffs(t, n_max)
        for n in range(n_max + 1):
            reference = method_value(reference_method, "sc_t", t, n, tables)
            if series_row[n] != reference:
                witnesses.append((t, n, series_row[n], reference, "series-vs-recursion"))
                continue
            for method in checked:
                try:
                    value = method_value(method, "sc_t", t, n, tables)
                except (OutOfRange, ResourceLimit):
                    continue
                if value != reference:
                    witnesses.append((t, n, value, reference, f"{method}-vs-recursion"))
    params = {"t_max": t_max, "n_max": n_max, "oracle_n_max": oracle_n_max}
    return ScanReport(scan="cross-validate", params=params, witnesses=witnesses)
