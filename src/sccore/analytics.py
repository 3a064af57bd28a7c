"""Conjecture and identity laboratory: positivity characterizations,
monotonicity and unimodality scans, exact-rational distribution tables and
their telescoping scan, identity/inequality checks, and simultaneous-core
certification.

Every verdict is reached in exact integer or rational arithmetic; rational
thresholds are compared by cross-multiplication, never floats.

Every window of t that a scan reads is declared once, in `_WINDOWS`, and
read through `_windows`; a window that a family does not have is OutOfDomain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt

from .abacus import simultaneous_cores
from .errors import (
    MissingTable, NoKnownCharacterization, NotCoprime, OutOfDomain, UndefinedAtN, UnsupportedT,
)
from .partitions import _is_t_core, _self_conjugate_beads, size
from .reports import ScanReport, timed
from .series import c_t_coeffs, nsc_t_coeffs, p_coeffs, sc_coeffs, sc_t_coeffs

# conventions that make the telescoping sums exact: the degenerate families
# count only the empty partition
def _sc_family(t: int, n_cap: int) -> tuple[int, ...]:
    if t <= 1:
        return (1,) + (0,) * n_cap
    return sc_t_coeffs(t, n_cap)


def _c_family(t: int, n_cap: int) -> tuple[int, ...]:
    return c_t_coeffs(t, n_cap)


def _nsc_family(t: int, n_cap: int) -> tuple[int, ...]:
    return nsc_t_coeffs(t, n_cap)


# family -> (its row at t to n_cap, the step t -> t + step of its differences);
# the row functions look the series functions up when they are called
_FAMILIES = {"sc": (_sc_family, 2), "c": (_c_family, 1), "nsc": (_nsc_family, 2)}

# Every window of t that a scan reads, each stated in its comment: (family,
# window) -> (the _FAMILIES rows it reads, the first n it opens at, its range
# of T at each n from there).  The monotonicity scans compare row T with row
# T + step there, and the distributions take the same differences.
_WINDOWS = {
    (family, window): (rows, n_first, ts)
    for family, rows, windows in (
        # sc_{T+2}(n) > sc_T(n), T even: conjectured for 6 <= T <= 2 floor(n/4) - 4,
        # proved for n/4 < T <= 2 floor(n/4) - 4 (the least even T > n/4 is 2 floor(n/8) + 2)
        ("sc-even", "sc", {"conjecture": (0, lambda n: range(6, 2 * (n // 4) - 4 + 1, 2)),
                           "theorem": (0, lambda n: range(n // 8 * 2 + 2, 2 * (n // 4) - 4 + 1, 2))}),
        # sc_{T+2}(n) > sc_T(n), T odd: conjectured for 9 <= T <= n - 17, n >= 56,
        # proved for n/3 < T <= n - 17, n >= 48 (the least odd T > n/3 is 2 floor((n-3)/6) + 3)
        ("sc-odd", "sc", {"conjecture": (56, lambda n: range(9, n - 17 + 1, 2)),
                          "theorem": (48, lambda n: range((n - 3) // 6 * 2 + 3, n - 17 + 1, 2))}),
        # c_{t+1}(n) >= c_t(n) for 4 <= t <= n - 1
        ("c", "c", {"conjecture": (0, lambda n: range(4, n - 1 + 1))}),
        # nsc_{T+2}(n) > nsc_T(n), T odd, for 5 <= T + 2 <= n
        ("nsc-odd", "nsc", {"conjecture": (0, lambda n: range(3, n - 2 + 1, 2))}),
        # pi_t(n) = (c_{t+1}(n) - c_t(n)) / p(n): unimodal for 4 <= t <= n - 7, n >= 63
        ("pi", "c", {"unimodal": (63, lambda n: range(4, n - 7 + 1)),
                     "support": (0, lambda n: range(1, n + 1))}),
        # sigma_T(n) = (sc_{T+2}(n) - sc_T(n)) / sc(n), T even: unimodal for
        # 8 <= T <= 2 floor(n/4) - 8, n >= 139
        ("sigma_even", "sc", {"unimodal": (139, lambda n: range(8, 2 * (n // 4) - 8 + 1, 2)),
                              "support": (0, lambda n: range(0, n + 1, 2))}),
        # the same, T odd: unimodal for 9 <= T <= floor(n/2), n >= 213
        ("sigma_odd", "sc", {"unimodal": (213, lambda n: range(9, n // 2 + 1, 2)),
                             "support": (0, lambda n: range(1, n + 2, 2))}),
    )
    for window, (n_first, ts) in windows.items()
}


def _columns(family: str, n_cap: int, windows: dict[int, range]):
    """(n, ts, col) for each n and its window ts = windows[n] of t, in order:
    col[i] is the family's row at ts[i] read at n, and col[-1] the row one
    step past the window; an empty window has an empty column.

    Each window steps as the family does, and the windows of a scan grow
    with n and overlap, so their union is one progression of t: every row of
    it, and the one past it, is fetched once, to n_cap.
    """
    rows_of, step = _FAMILIES[family]
    used = [ts for ts in windows.values() if ts]
    first = min((ts.start for ts in used), default=0)
    last = max((ts[-1] + step for ts in used), default=-1)
    rows = [rows_of(t, n_cap) for t in range(first, last + 1, step)]
    for n, ts in windows.items():
        i = (ts.start - first) // step
        yield n, ts, [row[n] for row in rows[i: i + len(ts) + 1]] if ts else []


def _windows(family: str, window: str, ns: range) -> tuple[str, dict[int, range]]:
    """The rows that this window of the family reads, and its window of t at
    each n of ns from its first n on; OutOfDomain if the family has no such
    window."""
    if (family, window) not in _WINDOWS:
        raise OutOfDomain(f"family {family} has no {window} window")
    rows, n_first, ts = _WINDOWS[family, window]
    return rows, {n: ts(n) for n in ns if n >= n_first}


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
    return {n for n, v in enumerate(sc_t_coeffs(t, n_max)) if v == 0}


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
    if t == 3:  # n is a zero iff 3n + 1 is not a square; k^2 is 1 mod 3 iff 3 does not divide k
        hits = {(k * k - 1) // 3 for k in range(1, isqrt(3 * n_max + 1) + 1) if k % 3}
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
    if t == 7:  # n is a zero iff n + 2 = 4^k (8m + 1); k = m = 0 gives n = -1
        hits = {4**k * (8 * m + 1) - 2 for k in range((n_max + 2).bit_length())
                for m in range(((n_max + 2) // 4**k + 7) // 8)}
        return {"predicate": hits - {-1}}
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
    if family not in _FAMILIES:
        raise OutOfDomain(f"unknown family {family!r}")
    rows, step = _FAMILIES[family]
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


@timed
def monotonicity_scan(family: str, n_max: int, window: str = "conjecture") -> ScanReport:
    """Scan the stated (t, n) window of a monotonicity statement, as _WINDOWS
    states it: family sc-even, sc-odd, c or nsc-odd, and window "conjecture"
    or, for sc-even and sc-odd, "theorem"; any other is OutOfDomain.
    For sc-odd the report also carries the small-n anomaly sets (T odd,
    11 <= T <= n-17, n <= 47), split into equalities and strict reversals.
    Each row is fetched once, and each n reads its window as one column.
    """
    if (family, "conjecture") not in _WINDOWS:
        raise OutOfDomain(f"{family!r} is not a monotonicity family")
    rows, windows = _windows(family, window, range(n_max + 1))
    # no sc-odd window opens before n = 48, so the anomaly windows take n <= 47
    small = min(n_max, 47) if family == "sc-odd" else -1
    windows.update((n, range(11, n - 17 + 1, 2)) for n in range(small + 1))
    witnesses: list[tuple] = []
    eq: list[tuple[int, int]] = []
    lt: list[tuple[int, int]] = []
    for n, ts, col in _columns(rows, n_max, windows):
        if n <= small:
            eq.extend((t, n) for t, lo, hi in zip(ts, col, col[1:]) if hi == lo)
            lt.extend((t, n) for t, lo, hi in zip(ts, col, col[1:]) if hi < lo)
        elif family == "c":  # c_{t+1} >= c_t: only a strict drop fails
            witnesses.extend((t, n, hi, lo) for t, lo, hi in zip(ts, col, col[1:]) if hi < lo)
        else:
            witnesses.extend((t, n, hi, lo) for t, lo, hi in zip(ts, col, col[1:]) if hi <= lo)
    data = {"small_n_equalities": eq, "small_n_reversals": lt} if family == "sc-odd" else {}
    return ScanReport(scan="monotonicity", params={"family": family, "n_max": n_max, "window": window},
                      witnesses=witnesses, data=data)


# ---------------------------------------------------------------------------
# distributions, telescoping, unimodality
# ---------------------------------------------------------------------------

def _numerators(n_lo: int, n_hi: int):
    """(family, n, den, ts, nums) for each family of `distribution_table` and
    each n_lo <= n <= n_hi, on rows to n_hi: ts is the
    family's support window, nums[i] the numerator at t = ts[i] and den the
    denominator, the limit of the rows as t grows, c_t(n) = p(n) and
    sc_t(n) = sc(n) for t > n.

    The rows are fetched once per family, when the first value is read; an n
    with sc(n) = 0 is refused here, before any.
    """
    ns = range(n_lo, n_hi + 1)
    dens = {"c": p_coeffs(n_hi), "sc": sc_coeffs(n_hi)}
    for n in ns:
        if dens["sc"][n] == 0:
            raise UndefinedAtN(f"sc({n}) = 0; sigma families undefined")
    supports = [(family, *_windows(family, window, ns)) for family, window in _WINDOWS if window == "support"]
    return ((family, n, dens[rows][n], ts, [hi - lo for lo, hi in zip(col, col[1:])])
            for family, rows, windows in supports
            for n, ts, col in _columns(rows, n_hi, windows))


def distribution_table(n: int) -> dict[str, dict[int, Fraction]]:
    """pi_t(n) and both sigma parity families as exact rationals, {family: {t: value}}.

    pi_t = (c_{t+1} - c_t)/p(n) for t >= 1; sigma_t = (sc_{t+2} - sc_t)/sc(n)
    for t >= 0, split by parity of t.
    """
    return {family: {t: Fraction(num, den) for t, num in zip(ts, nums)}
            for family, _, den, ts, nums in _numerators(n, n)}


def telescoping_check(n: int) -> tuple[bool, bool, bool]:
    """Do the three distribution families each sum to exactly 1 at this n?

    The denominators are positive, so each family sums to 1 exactly when its
    numerators sum to its denominator: sum (c_{t+1}(n) - c_t(n)) = p(n), and
    sum (sc_{t+2}(n) - sc_t(n)) = sc(n) for each parity.
    """
    pi, even, odd = (sum(nums) == den for _, _, den, _, nums in _numerators(n, n))
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
    numerators = _numerators(n_lo, n_hi)
    if n_lo == 0:
        raise UndefinedAtN("at n = 0 every telescoping sum is 0; the distribution is undefined")
    witnesses = [(0, n, family, "sum != 1") for family, n, den, _, nums in numerators if sum(nums) != den]
    data = {}
    if n_lo == n_hi:
        data = {family: {str(t): v for t, v in row.items()} for family, row in distribution_table(n_lo).items()}
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
    """Single-peak check over the conjectured window for each n in range: the
    family's unimodal window of _WINDOWS, pi, sigma_even or sigma_odd; any
    other family is OutOfDomain.  Comparisons are on integer numerators
    (shared denominators), so no rationals are materialized.
    """
    cap = n_cap if n_cap is not None else n_hi
    if cap < n_hi:
        raise MissingTable(f"rows to n_cap = {cap} do not reach n_hi = {n_hi}")
    rows, windows = _windows(family, "unimodal", range(n_lo, n_hi + 1))
    witnesses: list[tuple] = []
    for n, ts, col in _columns(rows, cap, windows):
        seq = [hi - lo for lo, hi in zip(col, col[1:])]
        ok, bad = _is_unimodal(seq)
        if not ok:
            witnesses.append((ts[bad], n, seq[bad - 1], seq[bad]))
    return ScanReport(scan="unimodality", params={"family": family, "n_lo": n_lo, "n_hi": n_hi},
                      witnesses=witnesses, data={"windows_checked": len(windows)})


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
    row = sc_t_coeffs(t, cap)
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
    if spec.family not in _FAMILIES:
        raise OutOfDomain(f"unknown family {spec.family!r}")
    cap = _index_cap(spec.n_lo, n_max, (spec.a, spec.b), (1, 0))
    row = _FAMILIES[spec.family][0](spec.t, cap)
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
    found = [p for p in simultaneous_cores(s, t) if _is_t_core(p, s) and _is_t_core(p, t)]
    enumerated_sc = sum(1 for p in found if _self_conjugate_beads(p) is not None)
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
