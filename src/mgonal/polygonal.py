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


def _descent(m: int, a: int, t: int):
    """The pairs (v, x) of ``_term_table(m, a, cap)`` with v <= t, for any
    cap >= t, largest v first, with no table.

    The largest k >= 0 with P_m(k) <= q = t // a is the floor of the positive
    root of (m-2)x^2 - (m-4)x - 2q, and one ``isqrt`` gives it exactly, since
    floor((c + r) / e) = floor((c + floor(r)) / e) for integers c and e > 0.
    Below it the values descend as in ``_term_table`` read backwards: for
    m >= 5, P_m(-x) then P_m(x) for x = k, ..., 1 (P_m(-k) may pass q, every
    later P_m(-x) < P_m(k) does not); for m = 3 and 4, P_m(x) alone.
    """
    d = m - 2
    q = t // a
    k = (m - 4 + math.isqrt((m - 4) ** 2 + 8 * d * q)) // (2 * d)
    for x in range(k, 0, -1):
        if m > 4:
            v = d * (x * x + x) // 2 - x  # P_m(-x)
            if v <= q:
                yield a * v, -x
        yield a * (d * (x * x - x) // 2 + x), x
    yield 0, 0


def _cap(rem: int) -> int:
    """The least power of 16 above ``rem``: one table up to it serves every
    remainder in [cap/16, cap)."""
    return 1 << (rem.bit_length() + 3) // 4 * 4


@lru_cache(maxsize=512)
def _residue_groups(m: int, a: int, cap: int, g: int):
    """``_term_table(m, a, cap)`` with its values split by residue mod g,
    each list ascending.  A dict keyed by residue, not a list of g buckets:
    g can be far larger than the number of values."""
    values, x_of = _term_table(m, a, cap)
    if g == 1:
        return {0: values}, x_of
    groups: dict[int, list[int]] = {}
    for v in values:
        groups.setdefault(v % g, []).append(v)
    return groups, x_of


@lru_cache(maxsize=512)
def _suffix_gcds(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Entry i is gcd(coeffs[i+1:]), for i < len(coeffs) - 1: every sum of
    the terms after position i is a multiple of it."""
    return tuple(coefficient_gcd(coeffs[i:]) for i in range(1, len(coeffs)))


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

    The work follows the remainders, not N.  The first coordinate's values
    come in closed form (``_descent``), with no table.  Every later
    coordinate reads the values <= its remainder in the remainder's residue
    class mod g, in place, from a table sized by that remainder (``_cap``,
    ``_residue_groups``), fetched once per query.  A large represented N
    usually has a witness near the top of the first coordinate, so the
    remainders below it, and the tables they read, stay small.
    """
    if N < 0:
        raise InputError(f"target must be nonnegative, got {N}")
    if form.rank >= 3:
        from .localrep import _locally_represented  # localrep imports this module
        if not _locally_represented(form, N):
            return None
    m, coeffs = form.m, form.coeffs
    if len(coeffs) == 1:
        x = _term_table(m, coeffs[0], _cap(N))[1].get(N)
        return None if x is None else Witness((x,))
    gcds = _suffix_gcds(coeffs)
    # one level per searched coordinate after the first, with the tables it
    # has fetched by cap, so that a query fetches each table once; the last
    # level's tables hold the last term's value -> x map too.  At rank 2 the
    # first coordinate is the last searched one.
    n = len(coeffs) - 1
    levels = [(m, coeffs[i], gcds[i], coeffs[n] if i == n - 1 else None, {})
              for i in range(1, n)]
    get = None if levels else _term_table(m, coeffs[n], _cap(N))[1].get
    g, r = gcds[0], N % gcds[0]
    for v, x in _descent(m, coeffs[0], N):
        if v % g != r:
            continue
        if get is not None:
            y = get(N - v)
            if y is not None:
                return Witness((x, y))
        else:
            tail = _walk(levels, 0, N - v)
            if tail is not None:
                return Witness((x,) + tail)
    return None


def _walk(levels, j: int, rem: int):
    """The coordinates of a solution for rem from the one of ``levels[j]``
    on, or None.  A level is (m, a, g, the last coefficient at the last
    searched coordinate else None, its tables by cap)."""
    m, a, g, last, tables = levels[j]
    cap = 1 << (rem.bit_length() + 3) // 4 * 4  # _cap(rem), inlined
    table = tables.get(cap)
    if table is None:
        groups, x_of = _residue_groups(m, a, cap, g)
        get = None if last is None else _term_table(m, last, cap)[1].get
        table = tables[cap] = groups, x_of, get
    groups, x_of, get = table
    # the values <= rem that leave a multiple of g, largest first, read in
    # place; a value that two x share is tried once, since its subtree is
    # the same
    values = groups.get(rem % g, ())
    indices = range(bisect_right(values, rem) - 1, -1, -1)
    if get is not None:
        for i in indices:
            v = values[i]
            y = get(rem - v)
            if y is not None:
                return x_of[v], y
        return None
    for i in indices:
        v = values[i]
        tail = _walk(levels, j + 1, rem - v)
        if tail is not None:
            return (x_of[v],) + tail
    return None
