"""Counting formulas for self-conjugate t-cores: the two recursions, the
signed-composition closed forms, and the large-t shortcuts, all expressed in
terms of sc(m) for m <= n.  The series rows are the production path; these
formulas validate them (`cross_validate`, `count --method`).

Recursions (one DP row per core size):

    sc_2t(n)   = sc(n) - sum_{1 <= i <= n/4t} sc_2t(n - 4it) phat_t(i)
    sc_2t+1(n) = sc(n) - sum_{i,j >= 0, 1 <= 2i+j <= n/(2t+1)}
                           sc_2t+1(n - (2i+j)(2t+1)) phat_t(i) sc(j)

Closed forms are literal signed sums over (pairs of) integer sequences and are
budget-gated because their term count grows exponentially.  A term is
(-1)^len sc(n - w step) times a product that does not depend on n, where w is
the sequence's total weight and step is 4t for sc_2t, 2t+1 for sc_2t+1.  So
each closed form is expanded once per core size: every sequence is still
enumerated and multiplied out, and the products are summed by weight into
c[w] (`RecursionTables.closed_weights`).  A value is then sum_w c[w] sc(n - w step).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic
from typing import Iterator

from .config import DEFAULT_LIMITS, Limits
from .errors import MissingTable, OutOfRange, ResourceLimit
from .partitions import enumerate_self_conjugate, is_t_core
from .reports import FAILS, HOLDS, ScanReport
from .series import phat_coeffs, sc_coeffs, sc_t_coeffs


class RecursionTables:
    """Shared lookup state: sc values, phat rows, and memoized DP rows."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        self._sc = sc_coeffs(n_max).coeffs
        self._phat: dict[int, tuple[int, ...]] = {}
        self._even_rows: dict[int, list[int]] = {}
        self._odd_rows: dict[int, list[int]] = {}
        self._closed: dict[int, list[int]] = {}

    def sc(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.n_max:
            raise MissingTable(f"sc table covers n <= {self.n_max}, asked {n}")
        return self._sc[n]

    def phat(self, t: int, i: int) -> int:
        if i < 0:
            return 0
        row = self._phat.get(t)
        if row is None or i >= len(row):
            hi = max(i, self.n_max // (4 * t) if t else i, 1)
            row = phat_coeffs(t, hi).coeffs
            self._phat[t] = row
        if i >= len(row):
            raise MissingTable(f"phat_{t} row too short for i={i}")
        return row[i]

    # -- DP rows ----------------------------------------------------------

    def even_row(self, t: int) -> list[int]:
        """sc_{2t}(0..n_max)."""
        row = self._even_rows.get(t)
        if row is None:
            row = []
            step = 4 * t
            for n in range(self.n_max + 1):
                acc = self._sc[n]
                for i in range(1, n // step + 1):
                    acc -= row[n - step * i] * self.phat(t, i)
                row.append(acc)
            self._even_rows[t] = row
        return row

    def odd_row(self, t: int) -> list[int]:
        """sc_{2t+1}(0..n_max)."""
        row = self._odd_rows.get(t)
        if row is None:
            size = 2 * t + 1
            wmax = self.n_max // size
            kernel = [0] * (wmax + 1)
            for w in range(1, wmax + 1):
                acc = 0
                for i in range(w // 2 + 1):
                    j = w - 2 * i
                    acc += self.phat(t, i) * self._sc[j] if j <= self.n_max else 0
                kernel[w] = acc
            row = []
            for n in range(self.n_max + 1):
                acc = self._sc[n]
                for w in range(1, n // size + 1):
                    acc -= row[n - size * w] * kernel[w]
                row.append(acc)
            self._odd_rows[t] = row
        return row

    def closed_weights(self, t_full: int, budget: int) -> list[int]:
        """c[0..cap] for core size t_full, cap = min(budget, n_max // step).

        c[w] sums (-1)^len times the sc-free product over the closed form's
        sequences of total weight w.  Expanded again only for a larger cap.
        """
        cap = min(budget, self.n_max // _closed_step(t_full))
        c = self._closed.get(t_full)
        if c is not None and len(c) > cap:
            return c
        t = t_full // 2
        c = [0] * (cap + 1)
        if t_full % 2 == 0:
            phat = [self.phat(t, i) for i in range(cap + 1)]
            for seq in _compositions(cap):
                term = (-1) ** len(seq)
                for i in seq:
                    term *= phat[i]
                c[sum(seq)] += term
        else:
            phat = [self.phat(t, i) for i in range(cap // 2 + 1)]
            sc = self._sc
            for seq in _weighted_pair_sequences(cap):
                term, weight = (-1) ** len(seq), 0
                for i, j in seq:
                    term *= phat[i] * sc[j]
                    weight += 2 * i + j
                c[weight] += term
        self._closed[t_full] = c
        return c


def _closed_step(t_full: int) -> int:
    """The closed form's weight unit: 4t for core size 2t, 2t+1 for 2t+1."""
    return 2 * t_full if t_full % 2 == 0 else t_full


def _check_core_size(t_full: int) -> None:
    if t_full < 2:
        raise OutOfRange(f"sc_t formulas defined for t >= 2, got {t_full}")


def sc_even_recursive(t: int, n: int, tables: RecursionTables) -> int:
    """sc_{2t}(n) by the even recursion."""
    _check_core_size(2 * t)
    if n > tables.n_max:
        raise MissingTable(f"tables cover n <= {tables.n_max}")
    return tables.even_row(t)[n]


def sc_odd_recursive(t: int, n: int, tables: RecursionTables) -> int:
    """sc_{2t+1}(n) by the odd recursion."""
    _check_core_size(2 * t + 1)
    if n > tables.n_max:
        raise MissingTable(f"tables cover n <= {tables.n_max}")
    return tables.odd_row(t)[n]


def _compositions(total_max: int) -> Iterator[tuple[int, ...]]:
    """Every sequence of positive integers with sum <= total_max (incl. empty)."""
    yield ()
    for first in range(1, total_max + 1):
        for rest in _compositions(total_max - first):
            yield (first,) + rest


def sc_even_closed(t: int, n: int, tables: RecursionTables, limits: Limits = DEFAULT_LIMITS) -> int:
    """sc_{2t}(n) as the literal signed sum over positive-integer sequences."""
    _check_core_size(2 * t)
    cap = n // (4 * t)
    if cap > limits.composition_budget:
        raise ResourceLimit(f"floor(n/4t)={cap} exceeds budget {limits.composition_budget}")
    return _closed_sum(2 * t, n, cap, tables, limits)


def _closed_sum(t_full: int, n: int, cap: int, tables: RecursionTables, limits: Limits) -> int:
    """sum_{w <= cap} c[w] sc(n - w step); the w = 0 term raises MissingTable beyond n_max."""
    c = tables.closed_weights(t_full, limits.composition_budget)
    step = _closed_step(t_full)
    return sum(tables.sc(n - step * w) * c[w] for w in range(cap + 1))


def _weighted_pair_sequences(total_max: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sequences of pairs (i, j), i + j >= 1, with sum of (2i + j) <= total_max."""
    yield ()
    for w in range(1, total_max + 1):
        for i in range(w // 2 + 1):
            j = w - 2 * i
            for rest in _weighted_pair_sequences(total_max - w):
                yield ((i, j),) + rest


def sc_odd_closed(t: int, n: int, tables: RecursionTables, limits: Limits = DEFAULT_LIMITS) -> int:
    """sc_{2t+1}(n) as the literal signed sum over pairs of sequences."""
    _check_core_size(2 * t + 1)
    size = 2 * t + 1
    cap = n // size
    if cap > limits.composition_budget:
        raise ResourceLimit(f"floor(n/(2t+1))={cap} exceeds budget {limits.composition_budget}")
    return _closed_sum(size, n, cap, tables, limits)


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


def sc_t_value(t_full: int, n: int, tables: RecursionTables) -> int:
    """sc_t(n) via the parity-appropriate recursion row."""
    if t_full % 2 == 0:
        return sc_even_recursive(t_full // 2, n, tables)
    return sc_odd_recursive((t_full - 1) // 2, n, tables)


def sc_t_closed(t_full: int, n: int, tables: RecursionTables, limits: Limits = DEFAULT_LIMITS) -> int:
    """sc_t(n) via the parity-appropriate closed form."""
    if t_full % 2 == 0:
        return sc_even_closed(t_full // 2, n, tables, limits)
    return sc_odd_closed((t_full - 1) // 2, n, tables, limits)


def cross_validate(
    t_max: int,
    n_max: int,
    limits: Limits = DEFAULT_LIMITS,
    oracle_n_max: int | None = None,
) -> ScanReport:
    """Every computation path must agree on every cell of the (t, n) grid.

    Compares, per cell: series coefficient, recursion value, the literal
    closed form (where the composition budget permits), the large-t formulas
    (where one applies), and the brute-force enumeration oracle (n up to
    oracle_n_max, default min(n_max, 30)).  Disagreements are witnesses,
    tagged by the pair of paths that differ.
    """
    start = monotonic()
    if oracle_n_max is None:
        oracle_n_max = min(n_max, 30)
    oracle_n_max = min(oracle_n_max, limits.oracle_cap)
    tables = RecursionTables(n_max)
    witnesses: list[tuple] = []
    sc_counts: dict[int, list] = {n: enumerate_self_conjugate(n, limits) for n in range(oracle_n_max + 1)}
    for t in range(2, t_max + 1):
        series_row = sc_t_coeffs(t, n_max).coeffs
        for n in range(n_max + 1):
            reference = sc_t_value(t, n, tables)
            if series_row[n] != reference:
                witnesses.append((t, n, series_row[n], reference, "series-vs-recursion"))
                continue
            if n // _closed_step(t) <= limits.composition_budget:
                closed = sc_t_closed(t, n, tables, limits)
                if closed != reference:
                    witnesses.append((t, n, closed, reference, "closed-vs-recursion"))
            try:
                large = sc_large(t, n, tables)
                if large.value != reference:
                    witnesses.append((t, n, large.value, reference, "large-vs-recursion"))
            except OutOfRange:
                pass
            if n <= oracle_n_max:
                oracle = sum(1 for p in sc_counts[n] if is_t_core(p, t))
                if oracle != reference:
                    witnesses.append((t, n, oracle, reference, "oracle-vs-recursion"))
    report = ScanReport(
        scan="cross-validate",
        params={"t_max": t_max, "n_max": n_max, "oracle_n_max": oracle_n_max},
        verdict=HOLDS if not witnesses else FAILS,
        witnesses=witnesses,
        elapsed_ms=int((monotonic() - start) * 1000),
    )
    return report.finish()
