"""Independent oracles used by the test-suite.

These deliberately avoid the production decision paths: determinants by
cofactor expansion, local solvability by iterative-deepening congruence
enumeration with lift verification, isotropy by exhaustive residue search
over value tables, global representability by set-based reachability, the
auxiliary pair congruence by packed state enumeration, checked against a
set-based one.  The exhaustive congruence scan is capped by the
MGONAL_ORACLE_CAP environment variable.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import product

import numpy as np

from mgonal import (
    ContractError,
    InputError,
    ResourceError,
    is_prime,
    ordp,
    polygonal_number,
)

#: Default ceiling on the number of residue tuples an exhaustive congruence
#: scan may enumerate.  Override with the MGONAL_ORACLE_CAP environment
#: variable.
DEFAULT_ORACLE_CAP = 30_000_000
ORACLE_CAP_ENV = "MGONAL_ORACLE_CAP"


def oracle_cap() -> int:
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InputError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError(f"{ORACLE_CAP_ENV} must be positive, got {cap}")
    return cap


def _poly_residual(coeffs, linear, constant, target, x) -> int:
    acc = constant - target
    for c, l, xi in zip(coeffs, linear, x):
        acc += c * xi * xi + l * xi
    return acc


def brute_force_congruence(coeffs, linear, constant: int, target: int,
                           modulus: int) -> list[tuple[int, ...]]:
    """All tuples x mod ``modulus`` with sum(c_i x_i^2 + l_i x_i) + constant = target.

    Exhaustive and deterministic (lexicographic order).  Refuses instances
    whose total tuple count exceeds the oracle cap.
    """
    coeffs = tuple(coeffs)
    linear = tuple(linear)
    if len(coeffs) != len(linear):
        raise InputError("coeffs and linear must have equal length")
    if modulus < 1:
        raise InputError(f"modulus must be positive, got {modulus}")
    n = len(coeffs)
    total = modulus ** n
    cap = oracle_cap()
    if total > cap:
        raise ResourceError(
            f"{total} residue tuples exceed the oracle cap {cap}"
        )
    sols = []
    for x in product(range(modulus), repeat=n):
        if _poly_residual(coeffs, linear, constant, target, x) % modulus == 0:
            sols.append(x)
    return sols


def _derivative_orders(coeffs, linear, partial, p):
    return [ordp(2 * c * xi + l, p) for c, l, xi in zip(coeffs, linear, partial)]


def hensel_liftable(coeffs, linear, target: int, partial, p: int, t: int) -> bool:
    """True iff ``partial`` (a solution mod p^(2t+1)) lifts to an exact p-adic root.

    The criterion: some coordinate i has ord_p(2 c_i x_i + l_i) <= t.  The
    premise that ``partial`` solves the congruence mod p^(2t+1) is checked.
    """
    coeffs = tuple(coeffs)
    linear = tuple(linear)
    partial = tuple(partial)
    if not isinstance(p, int) or not is_prime(p):
        raise InputError(f"{p!r} is not prime")
    if not isinstance(t, int) or t < 0:
        raise InputError(f"t must be a nonnegative integer, got {t!r}")
    if len(coeffs) != len(linear) or len(coeffs) != len(partial):
        raise InputError("coeffs, linear and partial must have equal length")
    mod = p ** (2 * t + 1)
    if _poly_residual(coeffs, linear, 0, target, partial) % mod != 0:
        raise ContractError(
            f"partial solution does not satisfy the congruence mod {p}^{2 * t + 1}"
        )
    return any(o <= t for o in _derivative_orders(coeffs, linear, partial, p))


def hensel_refine(coeffs, linear, target: int, partial, p: int, t: int,
                  extra: int) -> tuple[int, ...]:
    """Refine a liftable solution mod p^(2t+1) to a verified one mod p^(2t+1+extra).

    Newton iteration in the coordinate of least derivative valuation; the
    result is checked against the congruence before being returned.
    """
    coeffs = tuple(coeffs)
    linear = tuple(linear)
    if not isinstance(extra, int) or extra < 0:
        raise InputError(f"extra must be a nonnegative integer, got {extra!r}")
    if not hensel_liftable(coeffs, linear, target, partial, p, t):
        raise ContractError("partial solution is not liftable at this depth")
    orders = _derivative_orders(coeffs, linear, partial, p)
    i = min(range(len(orders)), key=lambda j: orders[j])
    ti = orders[i]
    prec = 2 * t + 1 + extra
    big = p ** prec
    pt = p ** ti
    x = [xi % big for xi in partial]
    for _ in range(prec + 2):
        g = _poly_residual(coeffs, linear, 0, target, x)
        if g % big == 0:
            break
        d = 2 * coeffs[i] * x[i] + linear[i]
        # ord(d) stays exactly ti: corrections have strictly larger valuation
        step = (g // pt) * pow((d // pt) % big, -1, big)
        x[i] = (x[i] - step) % big
    else:  # pragma: no cover - convergence is quadratic
        raise ContractError("Newton refinement did not converge")
    if _poly_residual(coeffs, linear, 0, target, x) % big != 0:  # pragma: no cover
        raise ContractError("refined solution failed verification")
    return tuple(x)


def reachable_values(form, bound) -> set[int]:
    """Every N <= bound with form = N over Z, by set-based reachability over
    each coefficient's term values (no production search or table)."""
    reachable = {0}
    for a in form.coeffs:
        vals = {0}
        x = 1
        while True:
            hit = False
            for s in (x, -x):
                v = a * polygonal_number(form.m, s)
                if v <= bound:
                    vals.add(v)
                    hit = True
            if not hit:
                break
            x += 1
        reachable = {r + v for r in reachable for v in vals if r + v <= bound}
    return reachable


def first_witnesses(form, bound) -> list:
    """For each N <= bound, the witness of the documented search order for
    form = N, or None when no integer vector reaches N (no production search
    or table).

    The order: coordinates left to right; at each, the values a_i P_m(x_i)
    largest first, positive x before negative on equal values, then smaller
    |x|; the last coordinate takes the smallest |x| with the remaining value,
    positive on ties.  A depth-first search in that order returns the first
    vector whose every prefix can be completed, so taking at each coordinate
    the first choice whose remainder the later terms reach (set-based
    reachability) gives the same vector.
    """
    m, coeffs = form.m, form.coeffs
    terms = []
    for a in coeffs:
        # P_m(x) >= |x| - 1, so |x| <= bound + 1 covers every value <= bound
        pairs = [(a * polygonal_number(m, x), x) for x in range(-bound - 1, bound + 2)]
        terms.append([(v, x) for v, x in pairs if v <= bound])
    # reach[i]: the sums <= bound of the terms i, i+1, ..., rank-1
    reach = [{0}]
    for t in reversed(terms):
        reach.insert(0, {s + v for s in reach[0] for v, _ in t if s + v <= bound})
    ordered = [sorted(t, key=lambda vx: (-vx[0], vx[1] < 0, abs(vx[1])))
               for t in terms[:-1]]
    last = {}
    for v, x in sorted(terms[-1], key=lambda vx: (abs(vx[1]), vx[1] < 0)):
        last.setdefault(v, x)
    out = []
    for N in range(bound + 1):
        if N not in reach[0]:
            out.append(None)
            continue
        rem, x = N, []
        for i, choices in enumerate(ordered):
            v, xi = next((v, xi) for v, xi in choices
                         if v <= rem and rem - v in reach[i + 1])
            x.append(xi)
            rem -= v
        x.append(last[rem])
        out.append(tuple(x))
    return out


@lru_cache(maxsize=None)
def _tail_sum_states(tail, mod, p):
    """All (s, q, unit) with s = sum a_i x_i and q = sum a_i x_i^2 mod ``mod``
    over tail vectors x mod ``mod``; unit says whether some x_i is prime to p
    (always True when p is None)."""
    states = {(0, 0, p is None)}
    for t in tail:
        moves = {(t * y % mod, t * y * y % mod, p is not None and y % p != 0)
                 for y in range(mod)}
        states = {((s + ds) % mod, (q + dq) % mod, unit or du)
                  for s, q, unit in states for ds, dq, du in moves}
    return frozenset(states)


@lru_cache(maxsize=None)
def _pair_stages(tail, mod, p):
    """The states of ``_tail_sum_states`` packed as a pair of mod^2-bit ints
    (no unit coordinate yet, some unit coordinate): bit s*mod + q is set
    when (s, q) is reached.  A coordinate value y moves a state by
    (a y, a y^2): every row turns by dq = a y^2 (its bits with q < mod - dq
    go up, the rest wrap round), then the rows turn by ds = a y, a rotation
    of the whole int by ds*mod bits.  Values y prime to p carry either flag
    to the second int; with p None every vector counts as having a unit
    coordinate."""
    size = mod * mod
    full = (1 << size) - 1
    rows = full // ((1 << mod) - 1)  # bit 0 of every row

    def move(x, ds, dq):
        low = rows * ((1 << (mod - dq)) - 1)
        x = (x & low) << dq | (x & ~low) >> (mod - dq)
        return (x << ds * mod | x >> (size - ds * mod)) & full

    none, some = (1, 0) if p is not None else (0, 1)
    for a in tail:
        nxt_none = nxt_some = 0
        for ds, dq, unit in {(a * y % mod, a * y * y % mod, p is not None and y % p != 0)
                             for y in range(mod)}:
            if unit:
                nxt_some |= move(none | some, ds, dq)
            else:
                nxt_none |= move(none, ds, dq)
                nxt_some |= move(some, ds, dq)
        none, some = nxt_none, nxt_some
    return none, some


def pair_congruence_oracle(c, R, scale, a1, tail, mod, *, p=None) -> bool:
    """Whether (c - scale*s)^2 + scale^2 a_1 q = R (mod ``mod``) for some tail
    vector x, with s and q its linear and quadratic sums, by scanning every
    reachable (s, q) of the packed ``_pair_stages``.  With ``p`` given, only
    vectors with a coordinate prime to p count."""
    some = _pair_stages(tuple(tail), mod, p)[1]
    row = (1 << mod) - 1
    for s in range(mod):
        bits = some >> s * mod & row
        t = (c - scale * s) ** 2 - R
        if bits and any(bits >> q & 1 and (t + scale * scale * a1 * q) % mod == 0
                        for q in range(mod)):
            return True
    return False


def pair_congruence_reference(c, R, scale, a1, tail, mod, *, p=None) -> bool:
    """``pair_congruence_oracle`` by enumerating every reachable (s, q) as a
    set of tuples: the reference that the packed form is checked against."""
    return any(
        unit and ((c - scale * s) ** 2 + scale * scale * a1 * q - R) % mod == 0
        for s, q, unit in _tail_sum_states(tuple(tail), mod, p)
    )


def cofactor_determinant(matrix) -> int:
    """Exact determinant by recursive cofactor expansion."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in [list(r) for r in matrix[1:]]]
        term = matrix[0][j] * cofactor_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


UNDECIDED = object()


def deepening_congruence_oracle(coeffs, linear, target, p, *,
                                max_tuples=300_000):
    """True/False by staged brute congruence + lift check; UNDECIDED on budget.

    Decides sum(c_i x_i^2 + l_i x_i) = target over Z_p: at depth alpha, an
    empty solution set proves unsolvability; a solution passing the lift
    criterion (verified by refinement) proves solvability.
    """
    n = len(coeffs)
    alpha = 1
    while True:
        if p ** (alpha * n) > max_tuples:
            return UNDECIDED
        sols = brute_force_congruence(coeffs, linear, 0, target, p ** alpha)
        if not sols:
            return False
        t = (alpha - 1) // 2
        mod = p ** (2 * t + 1)
        seen = set()
        for sol in sols:
            reduced = tuple(x % mod for x in sol)
            if reduced in seen:
                continue
            seen.add(reduced)
            if hensel_liftable(coeffs, linear, target, reduced, p, t):
                check = hensel_refine(coeffs, linear, target, reduced, p, t, 6)
                assert sum(
                    c * x * x + l * x for c, l, x in zip(coeffs, linear, check)
                ) % p ** (2 * t + 7) == target % p ** (2 * t + 7)
                return True
        alpha += 1


def diagonal_oracle(coeffs, c, p, *, max_tuples=300_000):
    """Oracle for sum a_i x_i^2 = c over Z_p."""
    return deepening_congruence_oracle(
        coeffs, (0,) * len(coeffs), c, p, max_tuples=max_tuples
    )


@lru_cache(maxsize=64)
def _square_sumset(coeffs: tuple[int, ...], mod: int) -> np.ndarray:
    """Entry r is True iff sum a_i x_i^2 = r (mod ``mod``) has a solution: the
    sumset of the residue sets {a_i x^2 mod ``mod``}, one cyclic convolution
    of 0/1 vectors per coefficient (counts stay below ``mod``, far inside
    float64's exact range, so thresholding at 1/2 is exact)."""
    squares = np.arange(mod, dtype=np.int64) ** 2 % mod
    size = 1 << (2 * mod).bit_length()
    reach = np.zeros(mod)
    reach[0] = 1
    for a in coeffs:
        term = np.zeros(mod)
        term[squares * (a % mod) % mod] = 1
        conv = np.fft.irfft(np.fft.rfft(reach, size) * np.fft.rfft(term, size), size)
        reach = (conv[:mod] + conv[mod:2 * mod] > 0.5).astype(float)
    return reach > 0


def diagonal_residue_oracle(coeffs, c, p) -> bool:
    """Oracle for sum a_i x_i^2 = c over Z_p, c != 0: solvability mod
    p^(v+1+2e), with v = ord_p c and e = ord_p 2.

    That congruence decides it.  A unit square is all of 1 + p^(1+2e) Z_p, so
    a term a x^2 with b = ord_p a and k = ord_p x takes every value in
    a x^2 + p^(b+2k+1+2e) Z_p.  A solution mod p^L, L = v+1+2e, thus lies in a
    coset t + p^w Z_p of exact values, where w is 1 + 2e plus the least
    level b + 2k of its nonzero terms.  If w <= L that coset holds c.  If
    w > L every nonzero term has level above v, so the sum is 0 mod p^(v+1)
    while c is not.  Conversely an exact solution reduces mod p^L.
    """
    if c == 0:
        raise InputError("the residue oracle needs a nonzero target")
    mod = p ** (int(ordp(c, p)) + 1 + 2 * (p == 2))
    return bool(_square_sumset(tuple(coeffs), mod)[c % mod])


def local_rep_oracle(form, N, p, *, max_tuples=300_000):
    """Oracle for sum a_i P_m(x_i) = N over Z_p.

    Uses the doubled (integer-coefficient) polynomial 2 F(x) = 2N, which is
    equivalent over Z_p for every p.
    """
    m = form.m
    coeffs = tuple(a * (m - 2) for a in form.coeffs)
    linear = tuple(a * (4 - m) for a in form.coeffs)
    return deepening_congruence_oracle(
        coeffs, linear, 2 * N, p, max_tuples=max_tuples
    )


def _square_class_rep(a: int, p: int) -> int:
    """Small representative of a modulo squares of Q_p (computed locally).

    Scaling a coefficient by a nonzero square w^2 is the exact change of
    variables x -> x/w, which preserves nontrivial zeros, so isotropy only
    depends on these classes.
    """
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if p == 2:
        u = a % 8
    else:
        u = 1 if pow(a % p, (p - 1) // 2, p) == 1 else _least_nonresidue(p)
    return u * (p if v % 2 else 1)


@lru_cache(maxsize=None)
def _least_nonresidue(p: int) -> int:
    return next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)


def _isotropy_stages(coeffs: tuple[int, ...], p: int, mod: int) -> list:
    """The residues sum a_j x_j^2 mod ``mod`` over the first i coefficients,
    for i = 0..rank, as pairs of ``mod``-bit ints (no unit coordinate yet,
    some unit coordinate): bit r is set when r is reached.  Each distinct
    square value v rotates a pair by v, with two shifts and an OR."""
    full = (1 << mod) - 1
    stages = [(1, 0)]
    for a in coeffs:
        none, some = stages[-1]
        nxt_none = nxt_some = 0
        both = none | some
        for v in {a * x * x % mod for x in range(mod) if x % p}:
            nxt_some |= (both << v | both >> (mod - v)) & full
        for v in {a * x * x % mod for x in range(0, mod, p)}:
            nxt_none |= (none << v | none >> (mod - v)) & full
            nxt_some |= (some << v | some >> (mod - v)) & full
        stages.append((nxt_none, nxt_some))
    return stages


def _isotropy_reach_reference(coeffs: tuple[int, ...], p: int,
                              mod: int) -> np.ndarray:
    """The last of ``_isotropy_stages`` as a (mod x 2) boolean array, by one
    ``np.roll`` per distinct square value: the reference the packed stages
    are checked against."""
    residues = np.arange(mod, dtype=np.int64)
    unit = residues % p != 0
    reach = np.zeros((mod, 2), dtype=bool)
    reach[0, 0] = True
    for a in coeffs:
        table = (a * residues * residues) % mod
        nxt = np.zeros_like(reach)
        for v in np.unique(table[unit]):
            nxt[:, 1] |= np.roll(reach[:, 0] | reach[:, 1], v)
        for v in np.unique(table[~unit]):
            nxt[:, 0] |= np.roll(reach[:, 0], v)
            nxt[:, 1] |= np.roll(reach[:, 1], v)
        reach = nxt
    return reach


@lru_cache(maxsize=None)
def _isotropy_scan(coeffs: tuple[int, ...], p: int, depth: int) -> bool:
    """Exhaustive primitive-zero search mod p^depth with certification.

    Requires depth >= 2 (ord_p(2) + max ord_p(a_i)) + 1 for the reduced
    coefficients so that any primitive congruence zero lifts.
    """
    mod = p ** depth
    n = len(coeffs)
    stages = _isotropy_stages(coeffs, p, mod)
    if not stages[-1][1] & 1:
        return False
    # reconstruct one primitive witness and verify it lifts
    witness = _isotropy_witness(coeffs, stages, p, mod)
    e = 1 if p == 2 else 0
    t = min(
        int(e + _ord(a, p) + _ord(x, p, depth))
        for a, x in zip(coeffs, witness) if x % p
    )
    refined = hensel_refine(
        coeffs, (0,) * n, 0,
        tuple(x % p ** (2 * t + 1) for x in witness), p, t, 6,
    )
    assert sum(a * x * x for a, x in zip(coeffs, refined)) % p ** (2 * t + 7) == 0
    return True


def _ord(x, p, cap=64):
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _isotropy_witness(coeffs, stages, p, mod):
    """Backtrack a primitive zero mod ``mod`` through ``_isotropy_stages``,
    last coordinate first, taking the least x at each."""
    target, flag = 0, 1
    witness = []
    for i in range(len(coeffs) - 1, -1, -1):
        for x in range(mod):
            prev = (target - coeffs[i] * x * x) % mod
            # a unit coordinate here covers the flag; otherwise it must
            # already be satisfied by the prefix
            options = (0, 1) if flag == 1 and x % p else (flag,)
            pf = next((f for f in options if stages[i][f] >> prev & 1), None)
            if pf is not None:
                break
        assert pf is not None
        witness.append(x)
        target, flag = prev, pf
    return tuple(reversed(witness))


def isotropy_oracle(coeffs, p, *, base_depth=5) -> bool:
    """Nontrivial p-adic zero of sum a_i x_i^2 by exhaustive residue scan.

    Coefficients are reduced to square-class representatives first (an exact
    change of variables), keeping the certification depth at ``base_depth``.
    """
    reduced = tuple(sorted(_square_class_rep(a, p) for a in coeffs))
    return _isotropy_scan(reduced, p, base_depth)


def hilbert_oracle(a, b, p) -> int:
    """Hilbert symbol by brute solvability of z^2 = a x^2 + b y^2 (depth 6)."""
    reduced = tuple(sorted(
        _square_class_rep(v, p) for v in (1, -a, -b)
    ))
    return 1 if _isotropy_scan(reduced, p, 6) else -1
