"""Independent oracles used by the test-suite.

These deliberately avoid the production decision paths: determinants by
cofactor expansion, local solvability by iterative-deepening congruence
enumeration with lift verification, isotropy by exhaustive residue search
over value tables, global representability by set-based reachability.  The exhaustive
congruence scan is capped by the MGONAL_ORACLE_CAP environment variable.
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


@lru_cache(maxsize=None)
def _isotropy_scan(coeffs: tuple[int, ...], p: int, depth: int) -> bool:
    """Exhaustive primitive-zero search mod p^depth with certification.

    Requires depth >= 2 (ord_p(2) + max ord_p(a_i)) + 1 for the reduced
    coefficients so that any primitive congruence zero lifts.
    """
    mod = p ** depth
    n = len(coeffs)
    residues = np.arange(mod, dtype=np.int64)
    unit = residues % p != 0
    tables = [(a * residues * residues) % mod for a in coeffs]

    # accumulate reachable sums with a "some unit coordinate" flag
    reach = np.zeros((mod, 2), dtype=bool)
    reach[0, 0] = True
    for a, table in zip(coeffs, tables):
        nxt = np.zeros_like(reach)
        for v in np.unique(table[unit]):
            nxt[:, 1] |= np.roll(reach[:, 0] | reach[:, 1], v)
        for v in np.unique(table[~unit]):
            nxt[:, 0] |= np.roll(reach[:, 0], v)
            nxt[:, 1] |= np.roll(reach[:, 1], v)
        reach = nxt
    if not reach[0, 1]:
        return False
    # reconstruct one primitive witness and verify it lifts
    witness = _isotropy_witness(coeffs, tables, p, mod)
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


def _isotropy_witness(coeffs, tables, p, mod):
    """Backtrack a primitive zero mod ``mod`` from the value tables."""
    n = len(coeffs)
    partial_reach = [None] * (n + 1)
    reach = np.zeros((mod, 2), dtype=bool)
    reach[0, 0] = True
    partial_reach[0] = reach
    residues = np.arange(mod, dtype=np.int64)
    unit = residues % p != 0
    for i, table in enumerate(tables):
        reach = partial_reach[i]
        nxt = np.zeros_like(reach)
        for v in np.unique(table[unit]):
            nxt[:, 1] |= np.roll(reach[:, 0] | reach[:, 1], v)
        for v in np.unique(table[~unit]):
            nxt[:, 0] |= np.roll(reach[:, 0], v)
            nxt[:, 1] |= np.roll(reach[:, 1], v)
        partial_reach[i + 1] = nxt
    target, flag = 0, 1
    witness = []
    for i in range(n - 1, -1, -1):
        table = tables[i]
        found = False
        for x in range(mod):
            prev = (target - int(table[x])) % mod
            # a unit coordinate here covers the flag; otherwise it must
            # already be satisfied by the prefix
            options = [0, 1] if (flag == 1 and x % p) else [flag]
            for pf in options:
                if partial_reach[i][prev, pf]:
                    witness.append(x)
                    target, flag = prev, pf
                    found = True
                    break
            if found:
                break
        assert found
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
