"""Independent oracles used by the test-suite.

These deliberately avoid the production decision paths: determinants by
cofactor expansion, local solvability by iterative-deepening congruence
enumeration with lift verification, isotropy by exhaustive residue search
over value tables, global representability by set-based reachability.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from mgonal import (
    brute_force_congruence,
    hensel_liftable,
    hensel_refine,
    polygonal_number,
)


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
