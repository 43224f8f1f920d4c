"""Exact integer and p-adic utility layer.

Primality and factoring, valuations, Hilbert symbols, p-adic square classes,
and the byte view of a bitset.  All arithmetic uses Python's
arbitrary-precision integers; nothing here ever wraps around or touches
floating point (the lone ``math.inf`` is the valuation of zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError

#: Valuation of 0; compares larger than every finite valuation.
INFINITY = math.inf

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact well beyond 64-bit inputs)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"{p!r} is not prime")


def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Factor ``|n|`` by trial division; returns ((p, exponent), ...) ascending.

    Sized for desk-scale inputs (coefficients, gonalities); determinants are
    never factored, only valuated at known primes.
    """
    if n == 0:
        raise InputError("cannot factor 0")
    n = abs(n)
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 2 if d % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def odd_prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in prime_factors(n) if p != 2)


def ord_and_unit(x: int, p: int) -> tuple[int | float, int]:
    """Split ``x = p^v * u`` with ``p`` not dividing ``u``; (INFINITY, 0) for x=0."""
    _require_prime(p)
    if x == 0:
        return (INFINITY, 0)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return (v, x)


def ordp(x: int, p: int) -> int | float:
    """p-adic valuation of ``x`` (INFINITY for 0)."""
    return ord_and_unit(x, p)[0]


def modinv(a: int, m: int) -> int:
    return pow(a, -1, m)


@dataclass(frozen=True)
class PAdicContext:
    """A prime together with the working precision (arithmetic modulo p^precision)."""

    p: int
    precision: int

    def __post_init__(self):
        _require_prime(self.p)
        if not isinstance(self.precision, int) or self.precision < 1:
            raise InputError(f"precision must be a positive integer, got {self.precision!r}")


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol of a unit ``a`` modulo an odd prime ``p`` (+1 or -1)."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        raise InputError(f"{a} is not a unit modulo {p}")
    return 1 if r == 1 else -1


@lru_cache(maxsize=None)
def least_nonresidue(p: int) -> int:
    """Smallest positive quadratic nonresidue modulo an odd prime."""
    for r in range(2, p):
        if legendre_symbol(r, p) == -1:
            return r
    raise InputError(f"{p} has no nonresidue (not an odd prime?)")  # pragma: no cover


def _eps2(u: int) -> int:
    return 0 if u % 4 == 1 else 1


def _omega2(u: int) -> int:
    return 0 if u % 8 in (1, 7) else 1


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """+1 iff z^2 = a x^2 + b y^2 has a nontrivial p-adic solution, else -1.

    Classical closed form: for odd p with a = p^alpha u, b = p^beta v it is
    (-1)^(alpha beta (p-1)/2) (u|p)^beta (v|p)^alpha; the dyadic case uses the
    (u-1)/2 and (u^2-1)/8 characters.
    """
    _require_prime(p)
    if a == 0 or b == 0:
        raise InputError("hilbert_symbol requires nonzero arguments")
    alpha, u = ord_and_unit(a, p)
    beta, v = ord_and_unit(b, p)
    if p == 2:
        exp = _eps2(u) * _eps2(v) + alpha * _omega2(v) + beta * _omega2(u)
        return -1 if exp % 2 else 1
    sign = 1
    if (alpha % 2) and (beta % 2) and ((p - 1) // 2) % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre_symbol(u, p)
    if alpha % 2:
        sign *= legendre_symbol(v, p)
    return sign


def is_padic_square(x: int, p: int) -> bool:
    """True iff nonzero ``x`` is a square in the p-adic integers."""
    _require_prime(p)
    if x == 0:
        raise InputError("0 has no square class")
    v, u = ord_and_unit(x, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre_symbol(u, p) == 1


def unit_square_class_reps(p: int) -> tuple[int, ...]:
    """Representatives of the unit square classes of the p-adic integers."""
    _require_prime(p)
    if p == 2:
        return (1, 3, 5, 7)
    return (1, least_nonresidue(p))


def bit_bytes(bits: int, n: int) -> bytes:
    """Byte i is bit i of ``bits``, for 0 <= i < n (0 <= bits < 2**n)."""
    text = bin(bits)[:1:-1].ljust(n, "0")  # least significant bit first
    return text.encode().translate(bytes.maketrans(b"01", b"\x00\x01"))
