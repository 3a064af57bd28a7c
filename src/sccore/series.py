"""Truncated integer power series and the counting generating functions.

Everything is exact integer arithmetic on dense coefficient lists c[0..N].
Every family is the series 1 or a base row times eta powers E(q^a)^k, where
E(q) = prod (1 - q^m) = 1 + (signed pentagonal terms), and times a list of
sparse steps, or psi(q) times such a row in q^4.  Every step and power is
applied to a row by shift-add passes, each a multiplication by
1 + sum u q^g, in one of three ways, which give the same integers:

- k pentagonal passes: a multiplication is a handful of shifted slice
  additions, a division a short linear recurrence;
- one fused pass: the short series E(x)^k is built up to x^(N // a), and
  each of its nonzero terms u*x^i adds u times the row shifted by a*i;
- packed (Kronecker substitution): the row is one integer, w bits per
  coefficient, so a term u q^g is one big-integer shift and add, and all the
  steps and positive powers of a row run on that integer between one
  packing and one unpacking (`_packed_steps`).

The fused pass is taken when E(x)^k has fewer nonzero terms past the
constant than the k passes have pentagonal terms in all.  That holds for the
large t the scans sweep; the choice depends on (a, k, N) only.  When a > N
the factor is 1 on the truncation and the row comes back unchanged.

The packed integer is exact: the map q -> 2^w takes series truncated at N
to integers mod 2^((N+1) w), and w >= bitlen(max |c| times the product of
the passes' l1 norms) + 1 holds every final coefficient below 2^(w-1) in
magnitude, so the slots decode with a bias of 2^(w-1) each (`_slot_width`).
Packing and unpacking cost about PACK_ROWS = 8 list passes, so the steps
are packed when their list passes cost at least that many row lengths of
element operations (`_packs`).  The small-t rows at large N qualify; the
large-t rows, whose few terms are short list passes, do not.  The rule does
not see the slot width, and a packed term moves the whole integer: the c_t
rows at N = 10^4 with t >= 14, whose fused passes need slots of about 400
bits, pack and take 1.5 to 2.5 times as long as by list passes.  Negative
powers, left only in the p and phat rows, always use list passes.

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

The sc row is always psi(q) p(q^4), on the stored p row at N // 4.  Each
sc_t row takes one of three routes, which `_route` reads off (t, N) and
`_build` runs; `_build` also takes a route to force:

    theta  t^3 <= 7 N for odd t, t^3 <= 2 N for even t: the product of
           floor(t/2) theta series below, on the series 1
    psi    even t past theta with 32 t^3 <= N^2 (`_even_by_psi`):
           psi(q) c_(t/2)(q^4), on the stored c_(t/2) row at N // 4
    sc     every other row: the stored sc row at N times
           psi(-q^t)^(t mod 2) E(q^2t)^(floor(t/2) - t mod 2)

The bounds come from timing the routes against each other; the current
theta crossovers are in `scripts/calibrate_theta.txt`.  The eta power over
sc wins for the large t, where it has only a few terms.  For odd
t it follows Gauss's psi(-q) = E(q) E(q^4) / E(q^2) = sum_{k >= 0}
(-1)^(k(k+1)/2) q^(k(k+1)/2), and psi(-q^t) - 1 is one sparse step of +-1
terms, taken with the positive powers, so sc_3 = sc(q) psi(-q^3) needs no
division.

Those routes carry coefficients of the size of sc(n), about 10^55 at
N = 10^4, and cancel them down to small counts.  The theta route builds
the row from no base row.  In the coordinates of Garvan, Kim and Stanton
(Cranks and t-cores, Invent. Math. 101, 1990) a self-conjugate t-core is a
vector d in Z^floor(t/2) of runner offsets, of size
sum_r (t d_r^2 - (t-1-2r) d_r), so

    sc_t(q) = prod_{r < floor(t/2)} sum_{d in Z} q^(t d^2 - (t-1-2r) d),

a product of theta series with coefficients 0 and 1 (two d with the same
exponent would make t - 1 - 2r a multiple of t).  `_theta_steps` lists each
factor as one step, and the steps run on the series 1 through the same
kernel and slot width as every eta product; on the series 1 and 0/1 steps
the width's bound is the product of the factors' term counts.  The
product's packed terms grow with t, hence its bound on t.  No sc_t row
divides.

Every family row is a tuple of its coefficients, kept once in a store
keyed by (family, t).  A row is built once, at the largest N asked for so
far: a request at that N gets the stored tuple, and a smaller N a fresh
prefix of it.  The rows that others are built on (p and c_m at N // 4, sc
at N) are stored rows too.  `clear_series_caches()` empties the store.
"""
from __future__ import annotations

from collections.abc import Sequence

from .errors import UnsupportedT


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
        if u == 1:
            out[g:] = [x + y for x, y in zip(out[g:], c)]
        elif u == -1:
            out[g:] = [x - y for x, y in zip(out[g:], c)]
        else:
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
    """The (shift, coefficient) terms of E(q^a)^k - 1 up to q^n, k > 0, when
    one fused pass over them is shorter than the k pentagonal passes, else None.

    For a = 1 the short series is as long as the row, and for k = 1 it has
    exactly the pentagonal terms, so only a >= 2, k >= 2 is tried.
    """
    if a == 1 or k < 2:
        return None
    short = _short_power(k, n // a)
    shifts = [(a * i, u) for i, u in enumerate(short) if u and i]
    return shifts if len(shifts) < k * len(pentagonal_terms(a, n)) else None


def _power_steps(a: int, k: int, n: int) -> list[list[tuple[int, int]]]:
    """E(q^a)^k truncated at n, k > 0, as the factors 1 + sum u q^g of its
    shift-add passes: the one fused pass, or k pentagonal passes."""
    shifts = _fused_shifts(a, k, n)
    return [shifts] if shifts is not None else [pentagonal_terms(a, n)] * k


# Packing a row and unpacking it cost about PACK_ROWS list passes over it.
PACK_ROWS = 8


def _slot_width(c: list[int], steps: list[list[tuple[int, int]]]) -> int:
    """Bits per slot, a multiple of 8, that hold every coefficient of c times
    the steps with its sign: the largest |c[i]| times the product of the
    steps' l1 norms is below 2**(w - 1).  On the series 1 and 0/1 steps that
    bound is the product of the steps' term counts plus one each, and it
    bounds every partial product too."""
    bound = max(max(c), -min(c))
    for step in steps:
        bound *= 1 + sum(abs(u) for _, u in step)
    return -(-(bound.bit_length() + 1) // 8) * 8


def _packs(steps: list[list[tuple[int, int]]], n: int) -> bool:
    """Whether the steps run on one packed integer: when their list passes
    cost at least PACK_ROWS row lengths of element operations."""
    return sum(n + 1 - g for step in steps for g, _ in step) >= PACK_ROWS * (n + 1)


def _packed_steps(c: list[int], steps: list[list[tuple[int, int]]], n: int, w: int) -> list[int]:
    """c times every step, truncated at n, on one integer (Kronecker substitution).

    Slot i, w bits wide, holds the coefficient of q^i, so multiplying by q^g
    is a shift by g * w, and the mask reduces mod 2**((n + 1) * w), which is
    the ring of series truncated at n with q = 2**w.  The terms of a step are
    summed unreduced and one mask per step cuts the sum back to n + 1 slots,
    so the working integer never passes two rows.  A slot of `_slot_width`
    holds every final coefficient below 2**(w - 1) in magnitude, so adding
    2**(w - 1) to each slot (the bias) makes them all non-negative and the
    slots decode one by one.
    """
    size, half = w // 8, 1 << (w - 1)
    mask = (1 << (n + 1) * w) - 1
    bias = int.from_bytes(half.to_bytes(size, "little") * (n + 1), "little")
    x = int.from_bytes(b"".join([(v + half).to_bytes(size, "little") for v in c]), "little") - bias
    for step in steps:
        out = x
        for g, u in step:
            if u == 1:
                out += x << g * w
            elif u == -1:
                out -= x << g * w
            else:
                out += (u * x) << g * w
        x = out & mask
    raw = ((x + bias) & mask).to_bytes((n + 1) * size, "little")
    decode = int.from_bytes
    return [decode(raw[i:i + size], "little") - half for i in range(0, len(raw), size)]


def _eta_factors(c: list[int], factors: list[tuple[int, int]], n: int,
                 steps: Sequence[list[tuple[int, int]]] = ()) -> list[int]:
    """c * prod E(q^a)^k truncated at n, times the factor 1 + sum u q^g of
    each of the given steps.

    The steps and the positive powers go first, so intermediate coefficients
    stay as small as the final answer allows: all of them on one packed
    integer when `_packs`, else by list passes.  Then the negative powers,
    one division by E(q^a) each.
    """
    steps = [*steps, *(step for a, k in factors if k > 0 and a <= n for step in _power_steps(a, k, n))]
    if _packs(steps, n):
        c = _packed_steps(c, steps, n, _slot_width(c, steps))
    else:
        for step in steps:
            c = _shift_add(c, step)
    for a, k in factors:
        if k < 0 and a <= n:
            for _ in range(-k):
                c = _divide_eta(c, a, n)
    return c


def eta_product(n: int, factors: list[tuple[int, int]]) -> tuple[int, ...]:
    """Coefficients of prod E(q^a)^e truncated at n."""
    _check_ints(n=n)
    return tuple(_eta_factors(_unit(n), factors, n))


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


def _even_by_psi(t: int, n: int) -> bool:
    """Whether an even sc_t row past the theta bound takes the psi route.

    Timing it against the eta power over sc, each from its stored base rows,
    for every even t put the crossover at about t = 0.31 n^(2/3) for n from
    400 to 2 * 10^4.
    """
    return 32 * t ** 3 <= n * n


def _psi_minus(a: int, n: int) -> list[tuple[int, int]]:
    """psi(-q^a) - 1 = E(q^a) E(q^4a) / E(q^2a) - 1 up to q^n as one step:
    (-1)^T at each a T, T = k(k+1)/2 triangular, k >= 1."""
    return [(a * tri, -1 if tri % 2 else 1) for tri in _triangular(n // a)[1:]]


def _theta_steps(t: int, n: int) -> list[list[tuple[int, int]]]:
    """The floor(t/2) theta factors sum_d q^(t d^2 - b d), b = t - 1 - 2 r,
    each as one step 1 + sum q^g up to q^n.

    The terms d and -d are q^(d (t d - b)) and q^(d (t d + b)), both positive
    for d >= 1 since 0 < b < t.  No two d give the same exponent, since that
    would take t (d + d') = b, so every coefficient is 0 or 1.
    """
    steps = []
    for b in range(t - 1, 0, -2):
        step, d = [], 1
        while d * (t * d - b) <= n:
            step.append((d * (t * d - b), 1))
            if d * (t * d + b) <= n:
                step.append((d * (t * d + b), 1))
            d += 1
        steps.append(step)
    return steps


def _route(t: int, n: int) -> str:
    """The route of the sc_t row to n, by the rules of the module docstring:
    "theta", "psi" or "sc".

    The theta bounds were fitted on an older kernel; the crossovers that
    `scripts/calibrate_theta.py` measures now are in its committed output,
    scripts/calibrate_theta.txt.
    """
    if t ** 3 <= (7 if t % 2 else 2) * n:
        return "theta"
    return "psi" if t % 2 == 0 and _even_by_psi(t, n) else "sc"


def _build(family: str, t: int, n: int, route: str | None = None) -> list[int]:
    """The (family, t) row to n: p as phat_1, c_t on the stored p row, sc on
    the stored p row at n // 4, and sc_t by the given route, else by
    `_route` (see the module docstring)."""
    if family in ("p", "phat"):
        return _eta_factors(_unit(n), [(1, -max(t, 1))], n)
    if family == "c_t":
        return _eta_factors(_served("p", 0, n), [(t, t)], n)
    if family == "sc":
        return _psi_times(_served("p", 0, n // 4), n)
    route = route or _route(t, n)
    if route == "theta":
        return _eta_factors(_unit(n), [], n, _theta_steps(t, n))
    if route == "psi":
        return _psi_times(_served("c_t", t // 2, n // 4), n)
    odd = t % 2
    return _eta_factors(_served("sc", 0, n), [(2 * t, t // 2 - odd)], n, [_psi_minus(t, n)] * odd)


# (family, t) -> the row at the largest n built so far
_store: dict[tuple[str, int], tuple[int, ...]] = {}


def _served(family: str, t: int, n: int) -> tuple[int, ...]:
    """Coefficients 0..n of the (family, t) row, from the store.

    A row is built once, at the largest n asked for so far; that n is served
    the stored row and a smaller n a prefix of it.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    row = _store.get((family, t), ())
    if n >= len(row):
        row = _store[family, t] = tuple(_build(family, t, n))
    return row if len(row) == n + 1 else row[: n + 1]


def _check_ints(**values) -> None:
    """Refuse, in one line, a size or core size that is not an int; a bool
    is refused too, though Python counts it an int."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")


def p_coeffs(n: int) -> tuple[int, ...]:
    """Unrestricted partition numbers p(0..n)."""
    _check_ints(n=n)
    return _served("p", 0, n)


def phat_coeffs(t: int, n: int) -> tuple[int, ...]:
    """Number of t-tuples of partitions with total size 0..n."""
    _check_ints(t=t, n=n)
    if t < 1:
        raise UnsupportedT(f"phat_t series defined for t >= 1, got {t}")
    return _served("phat", t, n)


def sc_coeffs(n: int) -> tuple[int, ...]:
    """Self-conjugate partition counts sc(0..n)."""
    _check_ints(n=n)
    return _served("sc", 0, n)


def c_t_coeffs(t: int, n: int) -> tuple[int, ...]:
    """t-core partition counts c_t(0..n): p(q) E(q^t)^t, so c_t(n) = p(n) for n < t."""
    _check_ints(t=t, n=n)
    if t < 1:
        raise UnsupportedT(f"c_t series defined for t >= 1, got {t}")
    return _served("c_t", t, n)


def sc_t_coeffs(t: int, n: int) -> tuple[int, ...]:
    """Self-conjugate t-core counts sc_t(0..n), t >= 2.

    Even t:  sc(q) E(q^2t)^(t/2)  = psi(q) c_(t/2)(q^4)
    Odd t:   sc(q) E(q^2t)^((t-1)/2) / prod(1 + q^(t(2m-1)))
             = sc(q) psi(-q^t) E(q^2t)^((t-3)/2)
    Both t:  prod_{r < floor(t/2)} sum_{d in Z} q^(t d^2 - (t-1-2r) d)
    The module docstring gives the route each (t, n) takes; no route
    divides.  A factor in q^a with a > n is 1, so sc_t(n) = sc(n) for
    n < 2t when t is even and for n < t when t is odd.  Like every family,
    the row is built once per t at the largest n asked for and served to
    smaller n as a prefix.  A t or n that is not an int, a bool included,
    raises TypeError.
    """
    _check_ints(t=t, n=n)
    if t < 2:
        raise UnsupportedT(f"sc_t series defined for t >= 2, got {t}")
    return _served("sc_t", t, n)


def nsc_t_coeffs(t: int, n: int) -> tuple[int, ...]:
    """Non-self-conjugate t-core counts: c_t(n) - sc_t(n), t >= 2."""
    _check_ints(t=t, n=n)
    if t < 2:
        raise UnsupportedT(f"nsc_t series defined for t >= 2, got {t}")
    return tuple(a - b for a, b in zip(c_t_coeffs(t, n), sc_t_coeffs(t, n)))


def clear_series_caches() -> None:
    """Empty the row store (used by cold-start timing checks)."""
    _store.clear()
