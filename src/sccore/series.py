"""Truncated integer power series and the counting generating functions.

Everything is exact integer arithmetic on dense coefficient lists c[0..N].
Every family is the series 1 or a row times eta powers E(q^a)^k, where
E(q) = prod (1 - q^m) = 1 + (signed pentagonal terms), or psi(q) times such
a row in q^4 (below).  One power is
applied to a row in one of two ways, which give the same integers:

- k pentagonal passes: a multiplication is a handful of shifted slice
  additions, a division a short linear recurrence;
- one fused pass: the short series E(x)^k is built up to x^(N // a), and
  each of its nonzero terms u*x^i adds u times the row shifted by a*i.

The fused pass is taken when E(x)^k has fewer nonzero terms past the
constant than the k passes have pentagonal terms in all.  That holds for the
large t the scans sweep; the choice depends on (a, k, N) only.  When a > N
the factor is 1 on the truncation and the row comes back unchanged.

The base rows are p and sc.  Gauss's psi(q) = sum_{k >= 0} q^(k(k+1)/2)
= E(q^2)^2 / E(q) turns every row that carries the factor
prod (1 + q^(2m-1)) = psi(q) / E(q^4) into psi(q) times a row in q^4:

    sc(q)      = psi(q) p(q^4)
    sc_2m(q)   = psi(q) c_m(q^4),  so  sc_2m(n) = sum of c_m(k) over the
                 k >= 0 with n - 4k triangular

and psi times a row r[0..N // 4] is one slice addition per triangular number
T <= N, r added into the stride-4 slice of the row from T.  Families:

    p(n)       = [q^n] 1/E(q)                        unrestricted partitions
    phat_t(n)  = [q^n] 1/E(q)^t                      t-tuples of partitions
    sc(n)      = [q^n] prod (1 + q^(2m-1))           self-conjugate partitions
    c_t(n)     = [q^n] p(q) E(q^t)^t                 t-cores
    sc_t(n)    = [q^n] sc(q) times an eta product in q^t, by parity of t

The sc row is always psi(q) p(q^4), on the stored p row at N // 4.  An even
sc_t row is psi(q) c_(t/2)(q^4), on the stored c_(t/2) row at N // 4, when
that route costs fewer element operations than the eta power over the sc row
at N; the costs are counted from (t, N) alone (`_eta_cost`, `_psi_cost`).
That holds for the small t at large N, and the eta power wins for the large t
at small N, where E(q^2t)^(t/2) has only a few terms.  Odd t takes the eta
product over the sc row.

Every family row is served from one store keyed by (family, t).  A row is
built once, at the largest N asked for so far, and smaller N are served its
prefix; the series last served for a key is kept, so the same request twice
returns the same object.  The rows that others are built on (p and c_m at
N // 4, sc at N) are stored rows too.  `clear_series_caches()` empties the
store.
"""

from __future__ import annotations

from .errors import UnsupportedT


class TruncatedSeries:
    """Integer coefficients c[0..order]; arithmetic never sees beyond order.

    Immutable; equal, hashed and printed by its coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"TruncatedSeries(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return TruncatedSeries, (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)


def pentagonal_terms(a: int, n: int) -> list[tuple[int, int]]:
    """(exponent, sign) pairs of E(q^a) - 1 up to q^n, sorted by exponent."""
    terms = []
    k = 1
    while a * (k * (3 * k - 1) // 2) <= n:
        s = -1 if k % 2 else 1
        g1 = a * (k * (3 * k - 1) // 2)
        g2 = a * (k * (3 * k + 1) // 2)
        terms.append((g1, s))
        if g2 <= n:
            terms.append((g2, s))
        k += 1
    terms.sort()
    return terms


def _unit(n: int) -> list[int]:
    """The series 1 truncated at n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [1] + [0] * n


def _multiply_eta(c: list[int], a: int, n: int) -> list[int]:
    """Return c * E(q^a) truncated at n."""
    out = list(c)
    for g, s in pentagonal_terms(a, n):
        src = c[: n + 1 - g]
        if s > 0:
            out[g:] = [x + y for x, y in zip(out[g:], src)]
        else:
            out[g:] = [x - y for x, y in zip(out[g:], src)]
    return out


def _divide_eta(c: list[int], a: int, n: int) -> list[int]:
    """Return c / E(q^a) truncated at n (linear recurrence, exact)."""
    terms = pentagonal_terms(a, n)
    r = list(c)
    for m in range(a, n + 1):
        acc = c[m]
        for g, s in terms:
            if g > m:
                break
            if s > 0:
                acc -= r[m - g]
            else:
                acc += r[m - g]
        r[m] = acc
    return r


def _shift_add(c: list[int], shifts: list[tuple[int, int]]) -> list[int]:
    """Return c * (1 + sum of u q^g over (g, u) in shifts), truncated at len(c)."""
    out = list(c)
    for g, u in shifts:
        out[g:] = [x + u * y for x, y in zip(out[g:], c)]
    return out


def _short_power(k: int, m: int) -> list[int]:
    """E(x)^k up to x^m by J. C. P. Miller's power recurrence.

    With E = sum e_j x^j, i b_i = sum_{j=1..i} ((k+1) j - i) e_j b_(i-j).
    The division by i is exact, and the cost does not grow with k.
    """
    terms = pentagonal_terms(1, m)
    b = _unit(m)
    for i in range(1, m + 1):
        acc = 0
        for j, s in terms:
            if j > i:
                break
            acc += s * ((k + 1) * j - i) * b[i - j]
        b[i] = acc // i
    return b


def _fused_shifts(a: int, k: int, n: int) -> list[tuple[int, int]] | None:
    """The (shift, coefficient) terms of E(q^a)^k - 1 up to q^n when one fused
    pass over them is shorter than the k pentagonal passes, else None.

    For a = 1 the short series is as long as the row, and for |k| = 1 it has
    at least as many terms as the single pass (E(x) has exactly the
    pentagonal terms, 1/E(x) every term), so only a >= 2, |k| >= 2 is tried.
    """
    if a == 1 or abs(k) < 2:
        return None
    short = _short_power(k, n // a)
    shifts = [(a * i, u) for i, u in enumerate(short) if u and i]
    return shifts if len(shifts) < abs(k) * len(pentagonal_terms(a, n)) else None


def _eta_power(c: list[int], a: int, k: int, n: int) -> list[int]:
    """Return c * E(q^a)^k truncated at n; c itself when the factor is 1 there."""
    if k == 0 or a > n:
        return c
    shifts = _fused_shifts(a, k, n)
    if shifts is not None:
        return _shift_add(c, shifts)
    step = _multiply_eta if k > 0 else _divide_eta
    for _ in range(abs(k)):
        c = step(c, a, n)
    return c


def _eta_factors(c: list[int], factors: list[tuple[int, int]], n: int) -> list[int]:
    """c * prod E(q^a)^k truncated at n.

    Positive exponents are applied before negative ones so intermediate
    coefficients stay as small as the final answer allows.
    """
    for a, k in sorted(factors, key=lambda f: f[1] < 0):
        c = _eta_power(c, a, k, n)
    return c


def eta_product(n: int, factors: list[tuple[int, int]]) -> list[int]:
    """Coefficients of prod E(q^a)^e truncated at n."""
    return _eta_factors(_unit(n), factors, n)


def _eta_cost(a: int, k: int, n: int) -> int:
    """Element operations of c * E(q^a)^k truncated at n, from (a, k, n) alone:
    the k pentagonal passes, or one fused pass counted as if every term of
    E(x)^k were nonzero, whichever is fewer (see `_fused_shifts`)."""
    if k == 0 or a > n:
        return 0
    passes = abs(k) * sum(n + 1 - g for g, _ in pentagonal_terms(a, n))
    if a == 1 or abs(k) < 2:
        return passes
    m = n // a
    return min(passes, m * (n + 1) - a * m * (m + 1) // 2)


def _triangular(n: int) -> list[int]:
    """The triangular numbers k(k+1)/2 <= n: the exponents of psi(q)."""
    out, k = [], 0
    while k * (k + 1) // 2 <= n:
        out.append(k * (k + 1) // 2)
        k += 1
    return out


def _psi_times(r: list[int] | tuple[int, ...], n: int) -> list[int]:
    """Return psi(q) * r(q^4) truncated at n, from r[0..n // 4].

    Each triangular number T adds r into the stride-4 slice of the row from T.
    """
    out = [0] * (n + 1)
    for tri in _triangular(n):
        out[tri::4] = [x + y for x, y in zip(out[tri::4], r)]
    return out


def _psi_cost(n: int) -> int:
    """Element operations of `_psi_times` at n."""
    return sum((n - tri) // 4 + 1 for tri in _triangular(n))


def _even_by_psi(t: int, n: int) -> bool:
    """Whether the even sc_t row to n is psi(q) c_(t/2)(q^4): true when that
    takes fewer element operations than E(q^2t)^(t/2) over the sc row."""
    m = t // 2
    return _eta_cost(m, m, n // 4) + _psi_cost(n) < _eta_cost(2 * t, m, n)


def _build(family: str, t: int, n: int) -> list[int]:
    """The (family, t) row to n: c_t on the stored p row, sc and sc_t by the
    routes of the module docstring."""
    if family == "p":
        return _divide_eta(_unit(n), 1, n)
    if family == "phat":
        return eta_product(n, [(1, -t)])
    if family == "c_t":
        return _eta_power(_served("p", 0, n).coeffs, t, t, n)
    if family == "sc":
        return _psi_times(_served("p", 0, n // 4).coeffs, n)
    if t % 2:
        return _eta_factors(_served("sc", 0, n).coeffs, [(2 * t, (t - 1) // 2 - 2), (t, 1), (4 * t, 1)], n)
    if _even_by_psi(t, n):
        return _psi_times(_served("c_t", t // 2, n // 4).coeffs, n)
    return _eta_power(_served("sc", 0, n).coeffs, 2 * t, t // 2, n)


# (family, t) -> (the row at the largest n built so far, the series last served)
_store: dict[tuple[str, int], tuple[TruncatedSeries, TruncatedSeries]] = {}


def _served(family: str, t: int, n: int) -> TruncatedSeries:
    """Coefficients 0..n of the (family, t) row, from the store.

    A row is built once, at the largest n asked for so far, and a smaller n
    is served its prefix.  The series last served is kept, so asking for the
    same n again returns the same object without slicing.
    """
    key = (family, t)
    full, last = _store.get(key, (None, None))
    if last is not None and len(last.coeffs) == n + 1:
        return last
    if n < 0:
        raise ValueError("n must be non-negative")
    if full is None or n > full.order:
        full = last = TruncatedSeries(tuple(_build(family, t, n)))
    else:
        last = full if n == full.order else TruncatedSeries(full.coeffs[: n + 1])
    _store[key] = (full, last)
    return last


def p_coeffs(n: int) -> TruncatedSeries:
    """Unrestricted partition numbers p(0..n)."""
    return _served("p", 0, n)


def phat_coeffs(t: int, n: int) -> TruncatedSeries:
    """Number of t-tuples of partitions with total size 0..n."""
    if t < 1:
        raise UnsupportedT(f"phat_t series defined for t >= 1, got {t}")
    return _served("phat", t, n)


def sc_coeffs(n: int) -> TruncatedSeries:
    """Self-conjugate partition counts sc(0..n)."""
    return _served("sc", 0, n)


def c_t_coeffs(t: int, n: int) -> TruncatedSeries:
    """t-core partition counts c_t(0..n): p(q) E(q^t)^t, so c_t(n) = p(n) for n < t."""
    if t < 1:
        raise UnsupportedT(f"c_t series defined for t >= 1, got {t}")
    return _served("c_t", t, n)


def sc_t_coeffs(t: int, n: int) -> TruncatedSeries:
    """Self-conjugate t-core counts sc_t(0..n), t >= 2.

    Even t:  sc(q) E(q^2t)^(t/2)  = psi(q) c_(t/2)(q^4)
    Odd t:   sc(q) E(q^2t)^((t-1)/2) / prod(1 + q^(t(2m-1)))
             = sc(q) E(q^2t)^((t-1)/2 - 2) E(q^t) E(q^4t)
    An even row is psi times the stored c_(t/2) row at n // 4 when that
    costs fewer element operations than the eta power over the sc row at n,
    counted from (t, n) alone; else, and for odd t, each eta power is one
    fused pass or k pentagonal passes over the sc row (see the module
    docstring).  A factor in q^a with a > n is 1, so sc_t(n) = sc(n) for
    n < 2t when t is even and for n < t when t is odd, and those rows are the
    stored sc prefix.  Like every family, the row is built once per t at the
    largest n asked for and served to smaller n as a prefix.
    """
    if t < 2:
        raise UnsupportedT(f"sc_t series defined for t >= 2, got {t}")
    return _served("sc_t", t, n)


def nsc_t_coeffs(t: int, n: int) -> TruncatedSeries:
    """Non-self-conjugate t-core counts: c_t(n) - sc_t(n)."""
    ct = c_t_coeffs(t, n)
    st = sc_t_coeffs(t, n)
    return TruncatedSeries(tuple(a - b for a, b in zip(ct.coeffs, st.coeffs)))


def clear_series_caches() -> None:
    """Empty the row store (used by cold-start timing checks)."""
    _store.clear()
