"""Factor-by-factor reference series, independent of the eta kernel in sccore.series.

Every product here is expanded one binomial factor at a time and multiplied
by plain convolution, so it shares no code with the pentagonal passes, the
fused pass or the base rows it checks.
"""

from __future__ import annotations

from functools import lru_cache

Row = tuple[int, ...]


def multiply(a: Row, b: Row) -> Row:
    """Exact convolution truncated at the common length; put the sparser factor first."""
    if len(a) != len(b):
        raise ValueError("orders differ")
    n = len(a) - 1
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(n + 1 - i):
                out[i + j] += ai * b[j]
    return tuple(out)


@lru_cache(maxsize=None)
def binomial_factor(sign: int, step: int, offset: int, exponent: int, n: int) -> Row:
    """prod_{m >= 1} (1 + sign * q^(step*m + offset))^exponent truncated at n."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if step < 1 or step + offset < 1:
        raise ValueError("factor exponents must be positive")
    c = [0] * (n + 1)
    c[0] = 1
    k = step + offset
    while k <= n:
        if exponent >= 0:
            for _ in range(exponent):
                for m in range(n, k - 1, -1):
                    c[m] += sign * c[m - k]
        else:
            for _ in range(-exponent):
                for m in range(k, n + 1):
                    c[m] -= sign * c[m - k]
        k += step
    return tuple(c)


def odd_parts(n: int) -> Row:
    """prod (1 + q^(2m-1)): self-conjugate partitions."""
    return binomial_factor(1, 2, -1, 1, n)


def sc_t_reference(t: int, n: int) -> Row:
    """Even t: prod(1+q^(2m-1)) E(q^2t)^(t/2); odd t: the same with E(q^2t)^((t-1)/2)
    divided by prod(1 + q^(t(2m-1)))."""
    power = binomial_factor(-1, 2 * t, 0, t // 2, n)
    if t % 2:
        power = multiply(power, binomial_factor(1, 2 * t, -t, -1, n))
    return multiply(power, odd_parts(n))


def c_t_reference(t: int, n: int) -> Row:
    """E(q^t)^t / E(q)."""
    return multiply(binomial_factor(-1, t, 0, t, n), binomial_factor(-1, 1, 0, -1, n))
