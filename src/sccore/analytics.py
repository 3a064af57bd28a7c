"""Conjecture and identity laboratory: positivity characterizations,
monotonicity and unimodality scans, exact-rational distribution tables and
their telescoping scan, identity/inequality checks, and simultaneous-core
certification.

Every verdict is reached in exact integer or rational arithmetic; rational
thresholds are compared by cross-multiplication, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, isqrt

from .abacus import simultaneous_cores
from .errors import (
    MissingTable, NoKnownCharacterization, NotCoprime, OutOfDomain, UndefinedAtN, UnsupportedT,
)
from .partitions import is_self_conjugate, is_t_core, size
from .reports import ScanReport, timed
from .series import c_t_coeffs, nsc_t_coeffs, p_coeffs, sc_coeffs, sc_t_coeffs

# conventions that make the telescoping sums exact: the degenerate families
# count only the empty partition
def _sc_family(t: int, n_cap: int) -> tuple[int, ...]:
    if t <= 1:
        return (1,) + (0,) * n_cap
    return sc_t_coeffs(t, n_cap).coeffs


def _c_family(t: int, n_cap: int) -> tuple[int, ...]:
    return c_t_coeffs(t, n_cap).coeffs


def _nsc_family(t: int, n_cap: int) -> tuple[int, ...]:
    return nsc_t_coeffs(t, n_cap).coeffs


def _index_cap(n_lo: int, n_hi: int, *maps: tuple[int, int]) -> int:
    """Largest index a*n + b that a scan of n_lo <= n <= n_hi reads, over the
    (a, b) in maps; OutOfDomain if one of those indices is negative."""
    ns = (min(n_lo, n_hi), n_hi)
    for a, b in maps:
        if min(a * n + b for n in ns) < 0:
            raise OutOfDomain(f"index {a}n{b:+d} is negative for some {n_lo} <= n <= {n_hi}")
    return max(a * n + b for a, b in maps for n in ns)


# ---------------------------------------------------------------------------
# zero sets and closed-form characterizations
# ---------------------------------------------------------------------------

def zero_set(t: int, n_max: int) -> set[int]:
    """{n <= n_max : sc_t(n) = 0} from the generating function."""
    row = sc_t_coeffs(t, n_max).coeffs
    return {n for n, v in enumerate(row) if v == 0}


def _odd_power_prime_3_mod_4(m_max: int) -> bytearray:
    """flags[m] for 0 <= m <= m_max: 1 when some prime p = 3 (mod 4) divides m
    to an odd power.

    By Fermat's two-squares theorem those m > 0 are exactly the m that are
    not a^2 + b^2, and 0 = 0^2 + 0^2 is unflagged as well, so one sieve over
    the pairs a <= b clears every sum of two squares.
    """
    flags = bytearray(b"\x01") * (m_max + 1)
    squares = [b * b for b in range(isqrt(m_max) + 1)]
    for a, a2 in enumerate(squares):
        for b2 in squares[a: isqrt(m_max - a2) + 1]:
            flags[a2 + b2] = 0
    return flags


def _is_power_of_four(m: int) -> bool:
    return m > 0 and m & (m - 1) == 0 and m.bit_length() % 2 == 1


def characterization_sets(t: int, n_max: int) -> dict[str, set[int]]:
    """Closed-form predicted zero sets, keyed by reading name.

    Most t have a single reading ("predicate"); t = 5 returns both the
    criterion as printed on n and the same criterion shifted to n + 1, which
    is the pair the check must disambiguate.
    """
    ns = range(n_max + 1)
    if t == 2:
        triangular = {k * (k + 1) // 2 for k in range(isqrt(2 * n_max) + 2)}
        return {"predicate": {n for n in ns if n not in triangular}}
    if t == 3:
        hits = set()
        d = 0
        while 3 * d * d - 2 * d <= n_max:
            hits.add(3 * d * d - 2 * d)
            if 3 * d * d + 2 * d <= n_max:
                hits.add(3 * d * d + 2 * d)
            d += 1
        return {"predicate": {n for n in ns if n not in hits}}
    if t == 4:
        flags = _odd_power_prime_3_mod_4(8 * n_max + 5)
        return {"predicate": {n for n, bad in enumerate(flags[5::8]) if bad}}
    if t == 5:
        flags = _odd_power_prime_3_mod_4(n_max + 1)
        return {
            "printed": {n for n, bad in enumerate(flags[:-1]) if bad},
            "shifted": {n for n, bad in enumerate(flags[1:]) if bad},
        }
    if t == 6:
        return {"predicate": {n for n in (2, 12, 13, 73) if n <= n_max}}
    if t == 7:
        hits = set()
        power = 1  # n is a zero iff n + 2 = (8m + 1) * 4^k
        while power - 2 <= n_max:
            m = 0
            while (8 * m + 1) * power - 2 <= n_max:
                if (8 * m + 1) * power - 2 >= 0:
                    hits.add((8 * m + 1) * power - 2)
                m += 1
            power *= 4
        return {"predicate": hits}
    if t == 9:
        return {"predicate": {n for n in ns if _is_power_of_four(3 * n + 10)}}
    if t >= 8:
        return {"predicate": {n for n in (2,) if n <= n_max}}
    raise NoKnownCharacterization(f"no zero-set characterization for t = {t}")


@timed
def characterization_check(t: int, n_max: int) -> ScanReport:
    """Compare the generating-function zero set against the closed form(s)."""
    actual = zero_set(t, n_max)
    candidates = characterization_sets(t, n_max)
    matches = {name for name, predicted in candidates.items() if predicted == actual}
    witnesses: list[tuple] = []
    data: dict = {"zero_set_size": len(actual), "matching_readings": sorted(matches)}
    if len(actual) <= 200:
        data["zero_set"] = sorted(actual)
    if t == 5:
        for name, predicted in candidates.items():
            diff = sorted(actual ^ predicted)
            data[f"symmetric_difference_{name}"] = diff[:50]
        if not matches:
            witnesses.append((t, -1, "no-reading-matches", sorted(actual)[:20]))
        elif len(matches) > 1:
            witnesses.append((t, -1, "readings-tie", sorted(matches)))
    else:
        predicted = candidates["predicate"]
        for n in sorted(actual - predicted):
            witnesses.append((t, n, 0, "unpredicted-zero"))
        for n in sorted(predicted - actual):
            witnesses.append((t, n, "predicted-zero", "nonzero"))
    return ScanReport(scan="characterization", params={"t": t, "n_max": n_max}, witnesses=witnesses, data=data)


@timed
def positivity_scan(t: int, n_max: int) -> ScanReport:
    """Zero set of sc_t on [0, n_max], reported as data (never a failure)."""
    zs = sorted(zero_set(t, n_max))
    return ScanReport(scan="positivity", params={"t": t, "n_max": n_max},
                      data={"zero_set": zs if len(zs) <= 1000 else zs[:1000], "count": len(zs)})


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

@timed
def compare_pair(t: int, n_max: int, family: str = "sc") -> ScanReport:
    """Pointwise comparison of family_{t+2} (sc, nsc) or family_{t+1} (c) vs family_t.

    data lists where the larger-index count fails to strictly exceed:
    the equality set and the strictly-less set over [0, n_max].
    """
    pairs = {"sc": (_sc_family, 2), "c": (_c_family, 1), "nsc": (_nsc_family, 2)}
    if family not in pairs:
        raise ValueError(f"unknown family {family!r}")
    rows, step = pairs[family]
    pair = (t, t + step)
    low, high = rows(t, n_max), rows(t + step, n_max)
    equal = [n for n in range(n_max + 1) if high[n] == low[n]]
    less = [n for n in range(n_max + 1) if high[n] < low[n]]
    # residue bookkeeping for the strict-less set: the class 82 mod 128 is
    # conspicuous in the sc_9 < sc_7 data but neither necessary nor
    # sufficient; recorded as statistics, asserted nowhere
    less_set = set(less)
    in_class = range(82, n_max + 1, 128)
    residue = {
        "less_in_class": sum(1 for n in less if n % 128 == 82),
        "less_total": len(less),
        "class_members_not_less": sum(1 for n in in_class if n not in less_set),
        "class_size": len(in_class),
    }
    return ScanReport(scan="pair-comparison", params={"family": family, "pair": pair, "n_max": n_max},
                      data={"equal": equal, "less": less, "residue_82_mod_128": residue})


def _even_window(n: int, window: str) -> range:
    """Valid 2t values for sc_{2t+2} > sc_{2t} at this n."""
    if window == "conjecture":
        if n < 20:
            return range(0)
        return range(6, 2 * (n // 4) - 4 + 1, 2)
    # theorem: n/4 < 2t <= 2 floor(n/4) - 4
    lo = n // 4 + 1
    if lo % 2 == 1:
        lo += 1
    return range(lo, 2 * (n // 4) - 4 + 1, 2)


def _odd_window(n: int, window: str) -> range:
    """Valid 2t+1 values for sc_{2t+3} > sc_{2t+1} at this n."""
    if window == "conjecture":
        if n < 56:
            return range(0)
        lo, hi = 9, n - 17
    else:
        if n < 48:
            return range(0)
        lo, hi = n // 3 + 1, n - 17
    if lo % 2 == 0:
        lo += 1
    return range(lo, hi + 1, 2)


def _rows_read(fetch, windows: list[range]) -> list:
    """fetch(t) at the index t of a list, for every t from the first window
    start to one step past the last window end, in that step; None elsewhere.

    The windows of a scan grow with n and overlap, so their union is that
    whole progression and every row is fetched once.
    """
    used = [ts for ts in windows if ts]
    if not used:
        return []
    step = used[0].step
    last = max(ts[-1] for ts in used) + step
    rows = [None] * (last + 1)
    for t in range(min(ts.start for ts in used), last + 1, step):
        rows[t] = fetch(t)
    return rows


def _columns(rows: list, windows: list[range]):
    """(n, ts, col) for each n with a nonempty window ts = windows[n]: col[i]
    is rows[ts[i]][n], and col[-1] the row one step past the window, read
    with one slice of the rows."""
    for n, ts in enumerate(windows):
        if ts:
            yield n, ts, [row[n] for row in rows[ts.start: ts.stop + ts.step: ts.step]]


@timed
def monotonicity_scan(family: str, n_max: int, window: str = "conjecture") -> ScanReport:
    """Scan the stated (t, n) window of a monotonicity statement.

    families: sc-even (sc_{2t+2} > sc_{2t}), sc-odd (sc_{2t+3} > sc_{2t+1}),
    c (all-cores family: c_{t+1} >= c_t for 4 <= t <= n-1), nsc-odd
    (nsc_{2t+3} > nsc_{2t+1} for 5 <= 2t+3 <= n).  window selects the
    conjectured range or the proved-theorem range for the sc families.
    For sc-odd the report also carries the small-n anomaly sets (T odd,
    11 <= T <= n-17, n <= 47), split into equalities and strict reversals.
    Each row is fetched once, and each n reads its window as one column.
    """
    ns = range(n_max + 1)
    small: list[range] = []
    if family in ("sc-even", "sc-odd"):
        wins = _even_window if family == "sc-even" else _odd_window
        windows = [wins(n, window) for n in ns]
        if family == "sc-odd":
            small = [range(11, n - 17 + 1, 2) for n in range(min(n_max, 47) + 1)]
        rows = _rows_read(lambda t: _sc_family(t, n_max), windows + small)
    elif family == "c":
        windows = [range(4, min(n - 1, n_max - 1) + 1) for n in ns]
        rows = _rows_read(lambda t: _c_family(t, n_max), windows)
    elif family == "nsc-odd":
        windows = [range(3, n - 2 + 1, 2) for n in ns]  # 5 <= t+2 <= n
        rows = _rows_read(lambda t: _nsc_family(t, n_max), windows)
    else:
        raise ValueError(f"unknown family {family!r}")
    witnesses: list[tuple] = []
    for n, ts, col in _columns(rows, windows):
        if family == "c":  # c_{t+1} >= c_t: only a strict drop fails
            witnesses.extend((t, n, hi, lo) for t, lo, hi in zip(ts, col, col[1:]) if hi < lo)
        else:
            witnesses.extend((t, n, hi, lo) for t, lo, hi in zip(ts, col, col[1:]) if hi <= lo)
    data: dict = {}
    if family == "sc-odd":
        eq, lt = [], []
        for n, ts, col in _columns(rows, small):
            for t, lo, hi in zip(ts, col, col[1:]):
                if hi == lo:
                    eq.append((t, n))
                elif hi < lo:
                    lt.append((t, n))
        data["small_n_equalities"] = eq
        data["small_n_reversals"] = lt
    return ScanReport(scan="monotonicity", params={"family": family, "n_max": n_max, "window": window},
                      witnesses=witnesses, data=data)


# ---------------------------------------------------------------------------
# distributions, telescoping, unimodality
# ---------------------------------------------------------------------------

@dataclass
class DistributionRow:
    """Exact rational distribution values for one n and one family."""

    n: int
    family: str  # "pi" | "sigma_even" | "sigma_odd"
    values: dict[int, Fraction] = field(default_factory=dict)

    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))


def _numerators(c_col: list[int], sc_col: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The numerators of pi_t at n for t = 1..n, of sigma_t for the even
    t <= n and of sigma_t for the odd t <= n + 1, from the columns
    c_col[i] = c_(i+1)(n) for i = 0..n and sc_col[t] = sc_t(n) for
    t = 0..n + 3 - n % 2, the last t the sigma families read."""
    return (
        [b - a for a, b in zip(c_col, c_col[1:])],
        [b - a for a, b in zip(sc_col[::2], sc_col[2::2])],
        [b - a for a, b in zip(sc_col[1::2], sc_col[3::2])],
    )


def _sc_col_length(n: int) -> int:
    """How many sc_t the sigma families read at n: t = 0..n + 3 - n % 2."""
    return n + 4 - n % 2


def _distribution_numerators(n: int, n_cap: int | None) -> dict[str, tuple[int, dict[int, int]]]:
    """Each family of `distribution_table` at n as (denominator, {t: numerator}),
    read off the rows once for it and for `telescoping_check`."""
    cap = n_cap if n_cap is not None else n
    if cap < n:
        raise ValueError("n_cap must be >= n")
    pn = p_coeffs(cap)[n]
    scn = sc_coeffs(cap)[n]
    if scn == 0:
        raise UndefinedAtN(f"sc({n}) = 0; sigma families undefined")
    pi, even, odd = _numerators([_c_family(t, cap)[n] for t in range(1, n + 2)],
                                [_sc_family(t, cap)[n] for t in range(_sc_col_length(n))])
    return {
        "pi": (pn, dict(zip(range(1, n + 1), pi))),
        "sigma_even": (scn, dict(zip(range(0, n + 1, 2), even))),
        "sigma_odd": (scn, dict(zip(range(1, n + 2, 2), odd))),
    }


def distribution_table(n: int, n_cap: int | None = None) -> dict[str, DistributionRow]:
    """pi_t(n) and both sigma parity families as exact rationals.

    pi_t = (c_{t+1} - c_t)/p(n) for t >= 1; sigma_t = (sc_{t+2} - sc_t)/sc(n)
    for t >= 0, split by parity of t.  n_cap (>= n) controls the series
    truncation so repeated calls share cached rows.
    """
    return {
        family: DistributionRow(n, family, {t: Fraction(num, den) for t, num in nums.items()})
        for family, (den, nums) in _distribution_numerators(n, n_cap).items()
    }


def telescoping_check(n: int, n_cap: int | None = None) -> tuple[bool, bool, bool]:
    """Do the three distribution families each sum to exactly 1 at this n?

    The denominators are positive, so each family sums to 1 exactly when its
    numerators sum to its denominator: sum (c_{t+1}(n) - c_t(n)) = p(n), and
    sum (sc_{t+2}(n) - sc_t(n)) = sc(n) for each parity.
    """
    families = _distribution_numerators(n, n_cap).values()
    pi, even, odd = (sum(nums.values()) == den for den, nums in families)
    return pi, even, odd


@timed
def distribution_scan(n_lo: int, n_hi: int) -> ScanReport:
    """`telescoping_check` for every n_lo <= n <= n_hi on rows to n_hi: a
    witness (0, n, family, "sum != 1") for each family that does not sum to
    1.  For a single n the report carries its `distribution_table` as data.

    Every c_t and sc_t row is fetched once, and each n sums its columns.
    UndefinedAtN names the first n with sc(n) = 0, and otherwise refuses
    n_lo = 0, where every telescoping sum is 0.
    """
    if not 0 <= n_lo <= n_hi:
        raise ValueError(f"need 0 <= n_lo <= n_hi, got {n_lo}..{n_hi}")
    ns = range(n_lo, n_hi + 1)
    p, sc = p_coeffs(n_hi).coeffs, sc_coeffs(n_hi).coeffs
    for n in ns:
        if sc[n] == 0:
            raise UndefinedAtN(f"sc({n}) = 0; sigma families undefined")
    if n_lo == 0:
        raise UndefinedAtN("at n = 0 every telescoping sum is 0; the distribution is undefined")
    c_rows = [_c_family(t, n_hi) for t in range(1, n_hi + 2)]
    sc_rows = [_sc_family(t, n_hi) for t in range(_sc_col_length(n_hi))]  # the longest column
    witnesses = []
    for n in ns:
        families = _numerators([row[n] for row in c_rows[:n + 1]],
                               [row[n] for row in sc_rows[:_sc_col_length(n)]])
        for family, den, nums in zip(("pi", "sigma_even", "sigma_odd"), (p[n], sc[n], sc[n]), families):
            if sum(nums) != den:
                witnesses.append((0, n, family, "sum != 1"))
    data = {}
    if n_lo == n_hi:
        data = {family: {str(t): v for t, v in row.values.items()}
                for family, row in distribution_table(n_lo).items()}
    return ScanReport(scan="distribution", params={"n_lo": n_lo, "n_hi": n_hi}, witnesses=witnesses, data=data)


def _is_unimodal(xs: list) -> tuple[bool, int]:
    """Weakly rises to one peak then weakly falls; returns (ok, bad_index)."""
    falling = False
    for i in range(1, len(xs)):
        if xs[i] > xs[i - 1]:
            if falling:
                return False, i
        elif xs[i] < xs[i - 1]:
            falling = True
    return True, -1


@timed
def unimodality_scan(family: str, n_lo: int, n_hi: int, n_cap: int | None = None) -> ScanReport:
    """Single-peak check over the conjectured window for each n in range.

    Windows: pi with 4 <= t <= n-7 for n >= 63; sigma_even with
    8 <= 2t <= 2 floor(n/4) - 8 for n >= 139; sigma_odd with
    9 <= 2t+1 <= floor(n/2) for n >= 213.  Comparisons are on integer
    numerators (shared denominators), so no rationals are materialized.
    """
    cap = n_cap if n_cap is not None else n_hi
    if cap < n_hi:
        raise MissingTable(f"rows to n_cap = {cap} do not reach n_hi = {n_hi}")
    # family: (first n, first t, t step, its rows, last t of the window at n)
    windows = {
        "pi": (63, 4, 1, _c_family, lambda n: n - 7),
        "sigma_even": (139, 8, 2, _sc_family, lambda n: 2 * (n // 4) - 8),
        "sigma_odd": (213, 9, 2, _sc_family, lambda n: n // 2),
    }
    if family not in windows:
        raise ValueError(f"unknown family {family!r}")
    n_first, t_first, step, rows_of, t_last = windows[family]
    ns = range(max(n_lo, n_first), n_hi + 1)
    # windows grow with n: the one at n_hi, one step further, names every row read
    rows = {t: rows_of(t, cap) for t in range(t_first, t_last(n_hi) + step + 1, step)} if ns else {}
    witnesses: list[tuple] = []
    for n in ns:
        ts = range(t_first, t_last(n) + 1, step)
        seq = [rows[t + step][n] - rows[t][n] for t in ts]
        ok, bad = _is_unimodal(seq)
        if not ok:
            witnesses.append((ts[bad], n, seq[bad - 1], seq[bad]))
    return ScanReport(scan="unimodality", params={"family": family, "n_lo": n_lo, "n_hi": n_hi},
                      witnesses=witnesses, data={"windows_checked": len(ns)})


# ---------------------------------------------------------------------------
# identities and inequalities
# ---------------------------------------------------------------------------

PRINTED_IDENTITIES: tuple[tuple[int, int, int, int, int], ...] = (
    (5, 2, 1, 1, 0),   # sc_5(2n+1) = sc_5(n)
    (5, 5, 4, 1, 0),   # sc_5(5n+4) = sc_5(n)
    (7, 4, 6, 1, 0),   # sc_7(4n+6) = sc_7(n)
    (3, 4, 1, 1, 0),   # sc_3(4n+1) = sc_3(n)
    (9, 8, 10, 2, 0),  # sc_9(8n+10) = sc_9(2n)
)


@timed
def identity_check(spec: tuple[int, int, int, int, int], n_max: int) -> ScanReport:
    """Verify sc_t(a n + b) = sc_t(a' n + b') for all 0 <= n <= n_max."""
    t, a, b, a2, b2 = spec
    cap = _index_cap(0, n_max, (a, b), (a2, b2))
    row = sc_t_coeffs(t, cap).coeffs
    witnesses = [
        (t, n, row[a * n + b], row[a2 * n + b2])
        for n in range(n_max + 1)
        if row[a * n + b] != row[a2 * n + b2]
    ]
    return ScanReport(scan="identity", params={"t": t, "lhs": [a, b], "rhs": [a2, b2], "n_max": n_max},
                      witnesses=witnesses)


@dataclass(frozen=True)
class InequalitySpec:
    family: str          # "sc" | "c"
    t: int
    a: int
    b: int
    alpha: Fraction      # exact threshold
    n_lo: int
    strict: bool = True  # family_t(an+b) > alpha*family_t(n), or >= when False


CONJECTURED_INEQUALITIES: tuple[InequalitySpec, ...] = (
    InequalitySpec("sc", 9, 4, 0, Fraction(3), 49),
    InequalitySpec("sc", 9, 4, 1, Fraction(19, 10), 1),
    InequalitySpec("sc", 9, 4, 3, Fraction(19, 10), 17),
    InequalitySpec("sc", 9, 4, 4, Fraction(13, 5), 1),
)

PROVED_C7_INEQUALITIES: tuple[InequalitySpec, ...] = (
    InequalitySpec("c", 7, 2, 2, Fraction(2), 0, strict=False),
    InequalitySpec("c", 7, 4, 6, Fraction(10), 0, strict=False),
)


@timed
def inequality_check(spec: InequalitySpec, n_max: int) -> ScanReport:
    """Verify family_t(a n + b) {>|>=} alpha * family_t(n) on [n_lo, n_max].

    Cross-multiplied: den*lhs > num*rhs, so the verdict never touches floats.
    """
    cap = _index_cap(spec.n_lo, n_max, (spec.a, spec.b), (1, 0))
    row = _sc_family(spec.t, cap) if spec.family == "sc" else _c_family(spec.t, cap)
    num, den = spec.alpha.numerator, spec.alpha.denominator
    witnesses = []
    for n in range(spec.n_lo, n_max + 1):
        lhs = den * row[spec.a * n + spec.b]
        rhs = num * row[n]
        if (lhs <= rhs) if spec.strict else (lhs < rhs):
            witnesses.append((spec.t, n, row[spec.a * n + spec.b], row[n]))
    return ScanReport(
        scan="inequality",
        params={
            "family": spec.family,
            "t": spec.t,
            "transform": [spec.a, spec.b],
            "alpha": spec.alpha,
            "n_lo": spec.n_lo,
            "n_max": n_max,
            "strict": spec.strict,
        },
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# simultaneous cores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimultaneousCores:
    """Closed-form counts plus the exhaustive certificate."""

    s: int
    t: int
    count: int          # binom(s+t, t)/(s+t)
    sc_count: int       # binom(floor(s/2)+floor(t/2), floor(t/2))
    max_size: int       # (s^2-1)(t^2-1)/24
    enumerated: int
    enumerated_sc: int
    enumerated_max: int


def simultaneous_counts(s: int, t: int) -> SimultaneousCores:
    """Certify the simultaneous-core counting formulas by direct enumeration.

    `abacus.simultaneous_cores` lists the down-sets of the gaps of <s, t>,
    which holds every (s, t)-core: a core's first-column hooks never reach 0
    when stepped down by s or t, so every hook is a gap.  The search has no
    size cap, so `enumerated_max` checks the (s^2-1)(t^2-1)/24 formula rather
    than assuming it.  Every partition it yields must pass the bead s-core
    and t-core tests, which the tests check against the hook grid, so the
    certificate does not assume the characterization it rests on.
    """
    if s < 2 or t < 2:
        raise UnsupportedT(f"simultaneous cores need s, t >= 2, got s={s}, t={t}")
    if gcd(s, t) != 1:
        raise NotCoprime(f"gcd({s}, {t}) != 1")
    count = comb(s + t, t) // (s + t)
    sc_count = comb(s // 2 + t // 2, t // 2)
    max_size = (s * s - 1) * (t * t - 1) // 24
    found = [p for p in simultaneous_cores(s, t) if is_t_core(p, s) and is_t_core(p, t)]
    enumerated_sc = sum(1 for p in found if is_self_conjugate(p))
    enumerated_max = max((size(p) for p in found), default=0)
    return SimultaneousCores(
        s, t, count, sc_count, max_size, len(found), enumerated_sc, enumerated_max
    )


@timed
def simultaneous_scan(s: int, t: int) -> ScanReport:
    """Check the three `simultaneous_counts` formulas against their enumeration."""
    rec = simultaneous_counts(s, t)
    witnesses = []
    if rec.enumerated != rec.count:
        witnesses.append((s, t, rec.enumerated, rec.count))
    if rec.enumerated_sc != rec.sc_count:
        witnesses.append((s, t, rec.enumerated_sc, rec.sc_count))
    if rec.enumerated_max != rec.max_size:
        witnesses.append((s, t, rec.enumerated_max, rec.max_size))
    return ScanReport(scan="simultaneous", params={"s": s, "t": t}, witnesses=witnesses,
                      data={"count": rec.count, "sc_count": rec.sc_count, "max_size": rec.max_size})
