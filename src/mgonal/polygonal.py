"""Generalized m-gonal numbers and forms, target decomposition, and the global
representation decision by pruned exhaustive search."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError


def coefficient_gcd(coeffs) -> int:
    """gcd of a coefficient tuple (reported to callers of rejected forms, and
    the divisor that prunes the search in ``represents``)."""
    return math.gcd(*coeffs) if len(coeffs) > 1 else coeffs[0]


@dataclass(frozen=True)
class MgonalForm:
    """A weighted sum of generalized m-gonal numbers with positive weights.

    Forms must be primitive (coefficient gcd 1); non-primitive tuples are
    rejected rather than normalized, because dividing by the gcd changes
    which integers are representable.
    """

    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 3:
            raise InputError(f"gonality m must be an integer >= 3, got {self.m!r}")
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise InputError("coefficient tuple must be nonempty")
        for a in coeffs:
            if not isinstance(a, int) or a < 1:
                raise InputError(f"coefficients must be positive integers, got {a!r}")
        g = coefficient_gcd(coeffs)
        if g != 1:
            raise InputError(
                f"form is not primitive: gcd of coefficients is {g} (divide manually "
                "if a rescaled form is really intended)"
            )

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @property
    def coeff_sum(self) -> int:
        return sum(self.coeffs)

    def describe(self) -> str:
        return f"<{','.join(map(str, self.coeffs))}>_{self.m}"


def polygonal_number(m: int, x: int) -> int:
    """The x-th generalized m-gonal number (m-2)(x^2-x)/2 + x; nonnegative for all x."""
    if not isinstance(m, int) or m < 3:
        raise InputError(f"gonality m must be an integer >= 3, got {m!r}")
    return (m - 2) * (x * x - x) // 2 + x


def invert_polygonal(m: int, value: int) -> int | None:
    """Some integer x with the x-th m-gonal number equal to ``value``, or None.

    Ties resolve to the smallest |x|, positive preferred, so results are
    reproducible.  Uses the exact discriminant (m-4)^2 + 8 value (m-2).
    """
    if not isinstance(m, int) or m < 3:
        raise InputError(f"gonality m must be an integer >= 3, got {m!r}")
    if value < 0:
        return None
    disc = (m - 4) ** 2 + 8 * value * (m - 2)
    if disc < 0:
        return None
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    roots = []
    for num in ((m - 4) + s, (m - 4) - s):
        den = 2 * (m - 2)
        if num % den == 0:
            roots.append(num // den)
    if not roots:
        return None
    return min(roots, key=lambda x: (abs(x), x < 0))


def evaluate(form: MgonalForm, x) -> int:
    """Value of the form at the integer tuple ``x``."""
    x = tuple(x)
    if len(x) != form.rank:
        raise InputError(
            f"argument has length {len(x)}, form has rank {form.rank}"
        )
    m = form.m
    return sum(a * polygonal_number(m, xi) for a, xi in zip(form.coeffs, x))


@dataclass(frozen=True)
class TargetDecomposition:
    """N written as A(m-2) + B with 0 <= B <= m-3 (unique given m)."""

    N: int
    A: int
    B: int


def decompose_target(m: int, N: int) -> TargetDecomposition:
    if not isinstance(m, int) or m < 3:
        raise InputError(f"gonality m must be an integer >= 3, got {m!r}")
    if N < 0:
        raise InputError(f"target must be nonnegative, got {N}")
    A, B = divmod(N, m - 2)
    return TargetDecomposition(N=N, A=A, B=B)


@dataclass(frozen=True)
class Witness:
    """An integer vector witnessing that a form represents some target."""

    x: tuple[int, ...]


@lru_cache(maxsize=512)
def _term_table(m: int, a: int, cap: int):
    """The distinct values a*P_m(x) <= cap, ascending, and the map from each
    to its smallest |x|, positive on ties (the x ``invert_polygonal`` gives),
    in the same order.

    Built in closed form, with no sort: P_m(-k) - P_m(k) = (m-4)k and
    P_m(k+1) - P_m(-k) = 2k+1, so for m >= 5 the values of x = 0, 1, -1, 2,
    -2, ... strictly ascend.  At m = 4, P_m(-k) = P_m(k), and at m = 3,
    P_m(-k-1) = P_m(k): there x = 0, 1, 2, ... give every value once.
    """
    # top^2 > 2cap/(a(m-2)), and the last x below (top, or -top for m >= 5)
    # has a*P_m(x) >= a(m-2)top^2/2 > cap: every value <= cap comes before it
    top = math.isqrt(2 * cap // (a * (m - 2))) + 1
    if m > 4:
        xs = [x for k in range(top + 1) for x in (k, -k)][1:]
    else:
        xs = list(range(top + 1))
    values = [a * ((m - 2) * (x * x - x) // 2 + x) for x in xs]
    n = bisect_right(values, cap)
    return values[:n], dict(zip(values[:n], xs))


def represents(form: MgonalForm, N: int) -> Witness | None:
    """A verified witness for form = N over the integers, or None.

    At rank >= 3 a target that fails the local criterion
    (``localrep.locally_represents``) gets an exact early None: an integer
    solution is a p-adic solution at every prime, so no search can find one.
    Rank-1 and rank-2 forms, which the local criterion does not cover, are
    left to the search.

    The search is exhaustive over the finite region a_i P_m(x_i) <= N;
    coefficients are processed left to right and candidate values
    largest-first (positive x preferred on ties), so the witness returned is
    reproducible.  A value v at coordinate i is skipped unless
    g = gcd(a_{i+1}, ..., a_n) divides the remainder rem - v: every sum of
    the later terms is a multiple of g, so a skipped subtree holds no
    solution, and the surviving values keep their order, so the first witness
    found and every None are the same as without the test.  The last
    coordinate is looked up in a map from each value of the last term to its
    smallest |x| (positive on ties), so the search ends one level early; there
    g = a_n, and the test runs before the lookup.  At rank >= 3 the cost
    follows the target's status, not its size alone: a locally obstructed
    target costs an orbit lookup per prime, a represented one ends at its
    first witness, and only an exceptional one (locally represented, not
    represented) exhausts the region.
    """
    if N < 0:
        raise InputError(f"target must be nonnegative, got {N}")
    if form.rank >= 3:
        from .localrep import locally_represents  # localrep imports this module
        if not locally_represents(form, N):
            return None
    # one table per power-of-two cap serves every target below it
    cap = 1 << N.bit_length()
    tables = [_term_table(form.m, a, cap) for a in form.coeffs]
    get = tables.pop()[1].get  # the last coordinate, by its value
    if not tables:
        x = get(N)
        return None if x is None else Witness((x,))
    final = len(tables) - 1
    # every sum of the terms after position i is a multiple of gcds[i]
    gcds = [coefficient_gcd(form.coeffs[i + 1:]) for i in range(final + 1)]

    def walk(i: int, rem: int):
        values, x_of = tables[i]
        # the values <= rem, largest first (values[0] = 0 <= rem); a value
        # that two x share is tried once, since its subtree is the same
        below = values[bisect_right(values, rem) - 1::-1]
        g = gcds[i]
        if g > 1:
            r = rem % g
            below = [v for v in below if v % g == r]
        if i == final:
            for v in below:
                y = get(rem - v)
                if y is not None:
                    return x_of[v], y
            return None
        for v in below:
            tail = walk(i + 1, rem - v)
            if tail is not None:
                return (x_of[v],) + tail
        return None

    sol = walk(0, N)
    return Witness(sol) if sol is not None else None
