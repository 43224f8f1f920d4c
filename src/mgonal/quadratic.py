"""The quadratic side: reduced quadratic form of an m-gonal form, exact
determinants, Jordan decomposition over the p-adic integers, local
representation by diagonal forms, isotropy, and the auxiliary quadratic
equation classifier that feeds the stability machinery."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import count, islice, product
from operator import add, mul, or_
from typing import TYPE_CHECKING

from .arith import (
    INFINITY,
    PAdicContext,
    _require_prime,
    hilbert_symbol,
    is_padic_square,
    legendre_symbol,
    modinv,
    ordp,
    unit_square_class_reps,
)
from .errors import AnomalyWarning, ContractError, InputError

if TYPE_CHECKING:  # polygonal imports localrep, which imports this module
    from .polygonal import MgonalForm

GramMatrix = tuple[tuple[int, ...], ...]

#: Dyadic 2x2 unimodular blocks (Gram matrices).
HYPERBOLIC_PLANE: GramMatrix = ((0, 1), (1, 0))
HEXAGONAL_PLANE: GramMatrix = ((2, 1), (1, 2))


# ---------------------------------------------------------------------------
# Gram matrices and exact determinants
# ---------------------------------------------------------------------------

def validate_gram(entries) -> GramMatrix:
    g = tuple(tuple(row) for row in entries)
    n = len(g)
    if n == 0 or any(len(row) != n for row in g):
        raise InputError("Gram matrix must be square and nonempty")
    for i in range(n):
        for j in range(n):
            if not isinstance(g[i][j], int):
                raise InputError("Gram entries must be integers")
            if g[i][j] != g[j][i]:
                raise InputError("Gram matrix must be symmetric")
    return g


def bareiss_determinant(matrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise InputError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


@dataclass(frozen=True)
class ReducedQuadratic:
    """Rank n-1 quadratic form attached to a rank-n m-gonal form.

    Diagonal entries a_1 a_i + a_i^2, off-diagonal a_i a_j (2 <= i < j <= n).
    The shift vector has all entries 1/(a_1 + ... + a_n); only the denominator
    is stored.  The determinant is positive (sublattice of a positive definite
    diagonal lattice).
    """

    gram: GramMatrix
    shift_denominator: int
    det: int


def reduced_quadratic(form: MgonalForm) -> ReducedQuadratic:
    """The reduced form of ``form``; it depends on the coefficients only."""
    return _reduced_quadratic(form.coeffs)


@lru_cache(maxsize=1024)
def _reduced_quadratic(a: tuple[int, ...]) -> ReducedQuadratic:
    """``reduced_quadratic`` of the coefficients a, cached: every eq2
    stability depth reads its determinant, and every congruence splitting
    its Gram matrix."""
    n = len(a)
    if n < 2:
        raise InputError("reduced quadratic form needs rank >= 2")
    gram = tuple(
        tuple(
            a[0] * a[i] + a[i] * a[i] if i == j else a[i] * a[j]
            for j in range(1, n)
        )
        for i in range(1, n)
    )
    det = bareiss_determinant(gram)
    if det <= 0:  # pragma: no cover - positive definiteness is a theorem
        raise ContractError(f"reduced quadratic determinant {det} is not positive")
    expected = a[0] ** (n - 2)
    for ai in a[1:]:
        expected *= ai
    expected *= sum(a)
    if det != expected:  # pragma: no cover - soft sanity property
        warnings.warn(
            f"determinant {det} differs from the product closed form {expected}",
            AnomalyWarning,
        )
    return ReducedQuadratic(gram=gram, shift_denominator=sum(a), det=det)


# ---------------------------------------------------------------------------
# Local representation by diagonal forms
# ---------------------------------------------------------------------------

# Values of Q(x) = sum a_i x_i^2 over Z_p (e = ord_p 2, b_i = ord_p a_i,
# beta = max b_i).  Scaling x by a unit multiplies Q by a unit square, so the
# nonzero values form orbits (v, j): the p^v u with u in unit square class j.
# A term with ord x_i = k sweeps a_i x_i^2 + p^(b_i+2k+1+2e) Z_p, so a choice
# of term levels sweeps a coset t + p^w Z_p, w = 1 + 2e + its least level:
# all of p^w Z_p if p^w | t, else level v = ord t in the classes of the units
# = t/p^v mod p^min(w-v, 1+2e).  Orbits > 2e levels apart sum to the lower.
#
# Fold: for ord c = v >= v0 = beta + 2 + 2e, c is a value iff c/p^2 is.  Let
# c = Q(x) with a unit x_i (else use x/p).  x's coset holds c and has
# w <= 1 + 2e + beta, so it is p^w Z_p, which holds c/p^2 unless x's least
# term level is beta and v = v0.  Then x's terms at level beta (unit parts
# s_i) give every class at level beta, so (doubling x at p = 2) at v0 - 2.
# Odd p: sum s_i = 0 mod p needs two terms, an isotropic, so universal, form
# mod p.  p = 2: the s_i are even in number; s_i and s_i + 4 (another term
# doubled) are values, and so is s_i + 2 (and + 4) mod 8: from an s_k of that
# class mod 4, from three terms if four s_i agree mod 4, or else from one of
# the terms at level beta + 1, which are then odd in number.


def _square_class(u: int, p: int) -> int:
    """Index in ``unit_square_class_reps(p)`` of the square class of the unit u."""
    return u % 8 // 2 if p == 2 else (1 - legendre_symbol(u, p)) // 2


@lru_cache(maxsize=4096)
def _unit_reachable(coeffs: tuple[int, ...], p: int) -> tuple[int, frozenset]:
    """(v0, orbits): the orbits (v, j) of nonzero values of sum a_i x_i^2 over
    Z_p below the fold level v0 (see the comment above), with j indexing
    ``unit_square_class_reps(p)``.  Built one coefficient at a time from orbit
    sums, each a few Legendre symbols at an odd prime: the cost hardly grows with p."""
    e = int(p == 2)
    reps = unit_square_class_reps(p)
    v0 = max(_ord(a, p) for a in coeffs) + 2 + 2 * e

    def meet(t: int, w: int) -> set[tuple[int, int]]:
        """The orbits below v0 that t + p^w Z_p meets."""
        if t % p ** w == 0:
            return {(v, j) for v in range(w, v0) for j in range(len(reps))}
        v = _ord(t, p)
        u = t // p ** v
        if p == 2 and w - v < 3:
            return {(v, j) for j, r in enumerate(reps) if (r - u) % (1 << w - v) == 0}
        return {(v, _square_class(u, p))}

    def orbit_sum(o1, o2) -> set[tuple[int, int]]:
        """Orbits below v0 met by sums of o1 and o2 (<= 2e levels apart); at odd p, also o1, o2."""
        (lo, j1), (hi, j2) = sorted((o1, o2))
        r1, r2 = reps[j1], reps[j2]
        if p == 2:  # odd squares are 1 mod 8
            return meet(2 ** lo * r1 + 2 ** hi * r2, hi + 3)
        # odd p, so hi == lo.  With o1 and o2 the sums give both classes: over F_p,
        # r1 X^2 + r2 Y^2 = u has p - (-r1 r2|p) > 0 points, none with XY = 0 if u
        # is in neither class.  At u = 0 one has XY != 0 iff -r1 r2 is a square.
        both = {(lo, 0), (lo, 1)}
        return both | meet(0, lo + 1) if legendre_symbol(-r1 * r2, p) == 1 else both

    orbits: set[tuple[int, int]] = set()
    for a in coeffs:
        b = _ord(a, p)
        term = {(v, _square_class(a // p ** b, p)) for v in range(b, v0 + 2 * e, 2)}
        part = orbits | {(v + 2, j) for v, j in orbits if v + 2 >= v0}  # levels >= v0 too
        sums = set().union(*(orbit_sum(o1, o2) for o1 in part for o2 in term
                             if abs(o1[0] - o2[0]) <= 2 * e))
        orbits = {(v, j) for v, j in orbits | term | sums if v < v0}
    return v0, frozenset(orbits)


@lru_cache(maxsize=65536)
def _diagonal_solvable(coeffs: tuple[int, ...], c: int, p: int) -> bool:
    """True iff sum a_i x_i^2 = c is solvable over Z_p (p prime, a_i nonzero)."""
    if c == 0:
        return True
    v0, orbits = _unit_reachable(coeffs, p)
    v = _ord(c, p)  # _unit_reachable has checked that p is prime
    u = c // p ** v
    while v >= v0:
        v -= 2
    return (v, _square_class(u, p)) in orbits


def _diagonal_solvable_run(coeffs: tuple[int, ...], p: int, alpha: int, beta: int,
                           n: int) -> bytearray:
    """Byte i is 1 iff ``_diagonal_solvable(coeffs, alpha*i + beta, p)``, for
    0 <= i < n, alpha a p-adic unit and beta >= 0.  Where c = alpha*i + beta
    is a unit the verdict has period p (8 at p = 2) in i.  On the class
    i = t (mod p) of the others, c/p is affine in the index with the same
    alpha: that slice recurses one level up, folding levels v0 and up by 2."""
    v0, orbits = _unit_reachable(coeffs, p)
    period = 8 if p == 2 else p

    def run(level: int, beta: int, n: int) -> bytearray:
        """Byte i is 1 iff p^level * (alpha*i + beta) is a value."""
        if level == v0:
            level -= 2
        pattern = bytes(c % p != 0 and (level, _square_class(c, p)) in orbits
                        for c in ((alpha * i + beta) % period for i in range(min(period, n))))
        out = bytearray((pattern * -(-n // period))[:n])
        t = -beta * pow(alpha, -1, p) % p
        if beta == 0:  # c = 0 at i = 0 is a value; the class of 0 goes on at p
            out[0] = 1
            t = p
        if t < n:
            out[t::p] = run(level + 1, (alpha * t + beta) // p, len(range(t, n, p)))
        return out

    return run(0, beta, n)


# ---------------------------------------------------------------------------
# Isotropy
# ---------------------------------------------------------------------------

def _hasse_invariant(coeffs, p: int) -> int:
    eps = 1
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            eps *= hilbert_symbol(coeffs[i], coeffs[j], p)
    return eps


def is_isotropic(coeffs, p: int) -> bool:
    """True iff sum a_i x_i^2 = 0 has a nontrivial p-adic solution.

    Rank >= 5 is always isotropic; ranks 2-4 are decided by the square class
    of the determinant and the Hasse invariant.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) == 0:
        raise InputError("coefficient tuple must be nonempty")
    if any(not isinstance(a, int) or a == 0 for a in coeffs):
        raise InputError("coefficients must be nonzero integers")
    n = len(coeffs)
    if n >= 5:
        return True
    if n == 1:
        return False
    if n == 2:
        return is_padic_square(-coeffs[0] * coeffs[1], p)
    d = 1
    for a in coeffs:
        d *= a
    eps = _hasse_invariant(coeffs, p)
    if n == 3:
        return eps == hilbert_symbol(-1, -d, p)
    # n == 4: anisotropic exactly when d is a square and eps differs from (-1,-1)
    if not is_padic_square(d, p):
        return True
    return eps == hilbert_symbol(-1, -1, p)


# ---------------------------------------------------------------------------
# Jordan decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JordanDecomposition:
    """transform^T A transform = block diagonal (mod p^precision).

    The transform has unit determinant; blocks are (scale, unimodular block)
    pairs with nondecreasing scales.  Blocks are 1x1 for odd p; at p=2 a block
    may also be one of the two even unimodular planes.
    """

    p: int
    precision: int
    transform: GramMatrix
    blocks: tuple[tuple[int, GramMatrix], ...]

    def block_diagonal(self) -> GramMatrix:
        size = sum(len(b) for _, b in self.blocks)
        mod = self.p ** self.precision
        out = [[0] * size for _ in range(size)]
        pos = 0
        for scale, block in self.blocks:
            k = len(block)
            for i in range(k):
                for j in range(k):
                    out[pos + i][pos + j] = self.p ** scale * block[i][j] % mod
            pos += k
        return tuple(tuple(row) for row in out)


def _transpose(m):
    return tuple(tuple(m[j][i] for j in range(len(m))) for i in range(len(m[0])))


def _matmul(a, b, mod):
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) % mod for col in cols] for row in a]


def _ord(x: int, p: int) -> int:
    """ord_p of a nonzero x, for a p already known to be prime;
    ``arith.ordp`` would test its primality again."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _res_ord(x: int, p: int, cap: int) -> int | float:
    """Valuation of a residue, capped: divisible by p^cap counts as infinite."""
    return INFINITY if x % p ** cap == 0 else _ord(x, p)


def _sqrt_2adic(z: int, prec: int) -> int:
    """Square root of z = 1 (mod 8) modulo 2^prec, lifted bit by bit."""
    if z % 8 != 1:
        raise ContractError(f"{z} is not a dyadic unit square")
    s = 1
    for j in range(3, prec):
        if (s * s - z) % (1 << (j + 1)):
            s += 1 << (j - 1)
    return s % (1 << prec)


def _newton_monic_shift(w2: int, prec: int) -> int:
    """Root of t^2 + t - w2 = 0 over Z_2 (w2 even; derivative is a unit)."""
    mod = 1 << prec
    t = 0
    for _ in range(prec + 2):
        g = (t * t + t - w2) % mod
        if g == 0:
            return t
        t = (t - g * modinv(2 * t + 1, mod)) % mod
    raise ContractError("dyadic quadratic iteration failed to converge")  # pragma: no cover


def _split_even_binary(g, prec: int):
    """Transform a dyadic even unimodular binary Gram [[a,u],[u,b]] (u a unit,
    a, b even) onto the hyperbolic or hexagonal plane.

    Returns (T, block) with T^t g T = block modulo 2^(prec-6).
    """
    mod = 1 << prec
    a, u, b = g[0][0] % mod, g[0][1] % mod, g[1][1] % mod
    delta = (u * u - a * b) % mod

    def q(w):
        return (a * w[0] * w[0] + 2 * u * w[0] * w[1] + b * w[1] * w[1]) % mod

    def pairing_vector(w):
        """v with B(w, v) = 1; exists because the even lattice is unimodular."""
        bw = ((a * w[0] + u * w[1]) % mod, (u * w[0] + b * w[1]) % mod)
        if bw[0] % 2:
            inv = modinv(bw[0], mod)
            return (inv, 0)
        if bw[1] % 2:
            inv = modinv(bw[1], mod)
            return (0, inv)
        raise ContractError("pairing ideal is not unimodular")  # pragma: no cover

    if delta % 8 == 1:
        # isotropic: hyperbolic plane
        if a == 0:
            w = (1, 0)
        elif b == 0:
            w = (0, 1)
        else:
            s = _sqrt_2adic(delta, prec)
            cand1, cand2 = (-u + s) % mod, (-u - s) % mod
            x = cand1 if _res_ord(cand1, 2, prec) <= _res_ord(cand2, 2, prec) else cand2
            shift = int(min(_res_ord(x, 2, prec), _res_ord(a, 2, prec)))
            w = ((x >> shift) % mod, (a >> shift) % mod)
        v = pairing_vector(w)
        t = q(v) // 2  # q values on the even lattice have even representatives
        v = ((v[0] - t * w[0]) % mod, (v[1] - t * w[1]) % mod)
        block = HYPERBOLIC_PLANE
    else:
        # anisotropic: hexagonal plane.  First a vector of value exactly 2.
        w = None
        for x0, y0 in product(range(8), repeat=2):
            if x0 % 2 == 0 and y0 % 2 == 0:
                continue
            if (q((x0, y0)) // 2) % 8 == 1:
                w = (x0, y0)
                break
        if w is None:  # pragma: no cover - all odd classes are represented
            raise ContractError("no unit-square value found in hexagonal split")
        lam = _sqrt_2adic(modinv(q(w) // 2, mod), prec)
        w = (w[0] * lam % mod, w[1] * lam % mod)
        v = pairing_vector(w)
        gamma = q(v) // 2
        # correct v along the orthogonal complement of w: z = 2v - w,
        # Q(v + t z) = 2 requires t^2 + t = (1 - gamma) / (4 gamma - 1)
        w2 = (1 - gamma) * modinv(4 * gamma - 1, mod) % mod
        if w2 % 2:  # pragma: no cover - gamma is odd in the anisotropic case
            raise ContractError("hexagonal correction is not even")
        t = _newton_monic_shift(w2, prec)
        z = ((2 * v[0] - w[0]) % mod, (2 * v[1] - w[1]) % mod)
        v = ((v[0] + t * z[0]) % mod, (v[1] + t * z[1]) % mod)
        block = HEXAGONAL_PLANE

    T = ((w[0], v[0]), (w[1], v[1]))
    check_mod = 1 << max(prec - 6, 1)
    lhs = _matmul(_matmul(_transpose(T), [list(r) for r in g], mod), T, mod)
    for i in range(2):
        for j in range(2):
            if (lhs[i][j] - block[i][j]) % check_mod:  # pragma: no cover
                raise ContractError("binary dyadic split failed verification")
    return T, block


def jordan_decompose(A, ctx: PAdicContext) -> JordanDecomposition:
    """Jordan decomposition of a nonsingular symmetric integer matrix over Z_p.

    Greedy pivoting on the entry of minimal valuation; at p=2 an off-diagonal
    minimum with no matching diagonal splits off a 2x2 even unimodular plane.
    Requires precision >= 2 ord_p(det A) + 6; congruences in the result hold
    modulo p^precision.

    B, the active vectors' Gram matrix mod p^cur, follows their moves: a
    pivot on i takes lam_j B_ik from B_jk; the odd-p fold v_i += v_j adds
    row j to row i and B_ij + B_jj more to B_ii (the pivot on i that follows
    reads no column); the dyadic plane's v_k += alpha_k v_i + beta_k v_j
    adds alpha_l B_ki + beta_l B_kj to B_kl.  The terms left out vanish mod
    p^cur, so no pivot changes.
    """
    A = validate_gram(A)
    p, E = ctx.p, ctx.precision
    det = bareiss_determinant(A)
    if det == 0:
        raise InputError("matrix is singular over the p-adics")
    dv = int(ordp(det, p))
    if E < 2 * dv + 6:
        raise ContractError(f"precision {E} below 2 ord_p(det) + 6 = {2 * dv + 6}")
    size = len(A)
    cur = E + 2 * dv + 16
    vectors = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    active = list(range(size))
    emitted: list[list[int]] = []
    blocks: list[tuple[int, GramMatrix]] = []
    B = [[x % p ** cur for x in row] for row in A]

    while active:
        mod = p ** cur
        k = len(active)
        ords = [[_ord(x, p) if x else INFINITY for x in row] for row in B]
        scale = min(map(min, ords))
        if scale == INFINITY:  # pragma: no cover - det bound prevents this
            raise ContractError("working precision exhausted during decomposition")
        ps, red = p ** scale, p ** (cur - scale)

        diag_idx = next((i for i in range(k) if ords[i][i] == scale), None)

        if diag_idx is None and p != 2:
            # fold an off-diagonal minimum onto the diagonal: v_i += v_j, and
            # B_ii + 2 B_ij + B_jj has valuation scale, so i is the pivot
            bi, bj = next(
                (i, j) for i in range(k) for j in range(k)
                if i != j and ords[i][j] == scale
            )
            vi, vj = active[bi], active[bj]
            vectors[vi] = [(x + y) % mod for x, y in zip(vectors[vi], vectors[vj])]
            B[bi] = row = [(x + y) % mod for x, y in zip(B[bi], B[bj])]
            row[bi] = (row[bi] + row[bj]) % mod
            diag_idx = bi

        if diag_idx is not None:
            i = diag_idx
            pivot = B[i][i]
            inv_unit = modinv((pivot // ps) % red, red)
            lams = [(b // ps) * inv_unit % red for b in B[i]]
            for jj in range(k):
                if jj == i:
                    continue
                vectors[active[jj]] = [
                    (x - lams[jj] * y) % mod
                    for x, y in zip(vectors[active[jj]], vectors[active[i]])
                ]
            blocks.append((scale, (((pivot // ps) % p ** E,),)))
            emitted.append(vectors[active[i]])
            active.pop(i)
            B = [[(b - lam * c) % red for jj, (b, c) in enumerate(zip(row, B[i])) if jj != i]
                 for ii, (row, lam) in enumerate(zip(B, lams)) if ii != i]
            cur -= scale
            continue

        # p = 2 with a strictly off-diagonal minimum: extract a 2x2 plane
        bi, bj = next(
            (i, j) for i in range(k) for j in range(k)
            if i < j and ords[i][j] == scale
        )
        a0 = (B[bi][bi] // ps) % red
        u0 = (B[bi][bj] // ps) % red
        b0 = (B[bj][bj] // ps) % red
        det2inv = modinv((a0 * b0 - u0 * u0) % red, red)
        rest = []
        vi_, vj_ = vectors[active[bi]], vectors[active[bj]]
        for kk in range(k):
            if kk in (bi, bj):
                continue
            r0 = (B[bi][kk] // ps) % red
            r1 = (B[bj][kk] // ps) % red
            alpha = (-(b0 * r0 - u0 * r1) * det2inv) % red
            beta = (-(a0 * r1 - u0 * r0) * det2inv) % red
            vectors[active[kk]] = [
                (x + alpha * y + beta * z) % mod
                for x, y, z in zip(vectors[active[kk]], vi_, vj_)
            ]
            rest.append((kk, alpha, beta))
        T2, block = _split_even_binary(((a0, u0), (u0, b0)), cur - scale)
        new_i = [(T2[0][0] * x + T2[1][0] * y) % mod for x, y in zip(vi_, vj_)]
        new_j = [(T2[0][1] * x + T2[1][1] * y) % mod for x, y in zip(vi_, vj_)]
        blocks.append((scale, block))
        emitted.append(new_i)
        emitted.append(new_j)
        del active[bj], active[bi]
        cur -= scale + 6
        B = [[(B[x][y] + alpha * B[x][bi] + beta * B[x][bj]) % p ** cur
              for y, alpha, beta in rest] for x, _, _ in rest]

    if cur < E:  # pragma: no cover - margin is sized to prevent this
        raise ContractError("insufficient precision margin in Jordan decomposition")

    modE = p ** E
    transform = tuple(
        tuple(emitted[c][r] % modE for c in range(size)) for r in range(size)
    )
    result = JordanDecomposition(
        p=p, precision=E, transform=transform, blocks=tuple(blocks)
    )
    lhs = _matmul(_matmul(_transpose(transform), A, modE), transform, modE)
    rhs = result.block_diagonal()
    for r in range(size):
        for c in range(size):
            if (lhs[r][c] - rhs[r][c]) % modE:  # pragma: no cover
                raise ContractError("reconstruction congruence failed")
    for t in range(len(blocks) - 1):
        if blocks[t][0] > blocks[t + 1][0]:  # pragma: no cover
            raise ContractError("block scales are not nondecreasing")
    if bareiss_determinant(transform) % p == 0:  # pragma: no cover
        raise ContractError("transform determinant is not a p-adic unit")
    return result


# ---------------------------------------------------------------------------
# The auxiliary equation (c - scale * sum a_i x_i)^2 + scale^2 sum a_1 a_i x_i^2 = R
# ---------------------------------------------------------------------------

EQ2_PRIMITIVE = "primitively-solvable"
EQ2_UNSOLVABLE = "unsolvable"
EQ2_UNKNOWN = "unsolvable-within-strata"


#: Precision that ``solvable_eq2_at`` works at on top of the stability depth.
EQ2_MARGIN = 4

#: Cap on the nodes of one level of the eq2 walk and on the prefixes that
#: ``_eq2_roots`` scans.
EQ2_NODE_BUDGET = 250_000

#: Bound on the square of the disproof modulus p^D (see _congruence_depth).
EQ2_CONGRUENCE_CEILING = 250_000


@dataclass(frozen=True)
class Eq2Verdict:
    """Outcome of the primitive solvability search at one scale.

    status is ``EQ2_PRIMITIVE`` with a primitive witness mod p^precision,
    ``EQ2_UNSOLVABLE`` (no primitive solution at this scale) or
    ``EQ2_UNKNOWN`` (the walk was cut or reached the precision, and no
    disproof held).  budget_exhausted says that some level of the walk was
    over ``EQ2_NODE_BUDGET``; it is False on an unsolvable verdict.
    """

    status: str
    witness: tuple[int, ...] | None
    precision: int
    budget_exhausted: bool


def is_bad_prime(form: MgonalForm, p: int) -> bool:
    """Odd p dividing m-4 where the leading coefficient has maximal valuation
    and the tail diagonal form is anisotropic over Z_p (possible only at
    rank <= 5: a tail of rank >= 5 is isotropic)."""
    if p == 2 or (form.m - 4) % p:
        return False
    tail = form.coeffs[1:]
    if len(tail) >= 5:
        return False
    if ordp(form.coeffs[0], p) < max(ordp(ai, p) for ai in tail):
        return False
    return not is_isotropic(tail, p)


def eq2_stability_depth(form: MgonalForm, p: int) -> int:
    """Stability exponent e at p: solvability verdicts of the auxiliary
    equation are invariant under k -> k + p^e.  With d the reduced
    determinant, e = 3 + ord_2(a_1) + 2 ord_2(d) at p = 2,
    1 + ord_p(a_1) + 2 ord_p(d) at a bad prime, and 1 + 2 ord_p(d) otherwise."""
    d = reduced_quadratic(form).det
    a1 = form.coeffs[0]
    if p == 2:
        return int(3 + ordp(a1, 2) + 2 * ordp(d, 2))
    lead = ordp(a1, p) if is_bad_prime(form, p) else 0
    return int(1 + lead + 2 * ordp(d, p))


def eq2_constants(form: MgonalForm, A: int, B: int, k: int) -> tuple[int, int]:
    """(c, R) of the reduced equation (c - scale*s)^2 + scale^2 a_1 q = R:
    c = B + k(m-2) and R = a_1 (2A + B + k(m-4))."""
    m = form.m
    return B + k * (m - 2), form.coeffs[0] * (2 * A + B + k * (m - 4))


def _eq2_terms(c: int, R: int, scale: int, a1: int, tail, y) -> tuple[int, int]:
    """(value, lin) of the reduced equation at y, from s = sum a_i y_i and
    q = sum a_i y_i^2 taken once: lin = c - scale*s and value =
    lin^2 + scale^2 a_1 q - R.  The derivative in y_i is
    2 scale a_i (scale a_1 y_i - lin)."""
    s = q = 0
    for t, yi in zip(tail, y):
        ty = t * yi
        s += ty
        q += ty * yi
    lin = c - scale * s
    return lin * lin + scale * scale * a1 * q - R, lin


def _refine_eq2(c, R, scale, a1, tail, y, i, p, prec):
    """Newton-refine coordinate i of a certified solution to depth p^prec."""
    mod = p ** prec
    y = [yi % mod for yi in y]
    lead = 2 * scale * tail[i]
    for _ in range(prec + 4):
        g, lin = _eq2_terms(c, R, scale, a1, tail, y)
        if g % mod == 0:
            return tuple(y)
        d = lead * (scale * a1 * y[i] - lin)
        po = p ** _ord(d, p)
        step = (g // po) * modinv((d // po) % mod, mod) % mod
        y[i] = (y[i] - step) % mod
    raise ContractError("auxiliary equation refinement did not converge")  # pragma: no cover


def _eq2_roots(c, R, scale, a1, tail, p):
    """The y mod p where the reduced equation's value is 0 mod p, in
    lexicographic order, at an odd prime p.

    Once the first n-1 coordinates are fixed (lin0 = c - scale*s0 and q0
    from their sums), the value is a quadratic in the last one z:
    a z^2 + b z + k with a = scale^2 t_n (t_n + a_1), b = -2 lin0 scale t_n
    and k = lin0^2 + scale^2 a_1 q0 - R.  Its roots are yielded in ascending z,
    with a table of square roots mod p; when a = b = 0 every z is a root if
    k is and none is otherwise.  At most ``EQ2_NODE_BUDGET`` prefixes are
    scanned; when that cuts the scan short, None follows the roots.
    """
    n = len(tail)
    scale %= p
    if scale == 0 or not any(t % p for t in tail):  # the value is c^2 - R mod p
        if (c * c - R) % p == 0:
            yield from product(range(p), repeat=n)
        return
    *head, tn = tail
    a = scale * scale * tn * (tn + a1) % p
    if a:
        inv2a = pow(2 * a, -1, p)
        sqrt = [-1] * p
        for r in range(p // 2 + 1):
            sqrt[r * r % p] = r
    for prefix in islice(product(range(p), repeat=n - 1), EQ2_NODE_BUDGET):
        s0 = q0 = 0
        for t, yi in zip(head, prefix):
            ty = t * yi
            s0 += ty
            q0 += ty * yi
        lin0 = c - scale * s0
        b = -2 * lin0 * scale * tn % p
        k = (lin0 * lin0 + scale * scale * a1 * q0 - R) % p
        if a:
            r = sqrt[(b * b - 4 * a * k) % p]
            if r < 0:
                continue
            z1, z2 = sorted(((-b - r) * inv2a % p, (-b + r) * inv2a % p))
            roots = (z1,) if r == 0 else (z1, z2)
        elif b:
            roots = (-k * pow(b, -1, p) % p,)
        elif k:
            continue
        else:
            roots = range(p)
        for z in roots:
            yield (*prefix, z)
    if p ** (n - 1) > EQ2_NODE_BUDGET:
        yield None


def _certify(y, val, lin, lead, scale_a1, p):
    """(y, i) when the node y certifies, else None.

    With t the smallest valuation of a nonzero derivative (i its first
    coordinate), y certifies when p^(2t+1) divides the value; an exact zero
    with every derivative 0 certifies as (y, None).  A nonzero value of
    valuation v is first tested against p^((v+1)//2): unless some
    derivative is nonzero modulo it, t is too large, and the node is
    rejected before any derivative valuation is taken.  As t >= t_min + w
    (see ``_eq2_walk``), the walk calls this only on a value that is 0 or
    divisible by p^(2(t_min + w) + 1); no other value can certify."""
    derivs = [lt * (scale_a1 * yi - lin) for lt, yi in zip(lead, y)]
    if val:
        cut = p ** ((_ord(val, p) + 1) // 2)
        if not any(d % cut for d in derivs):
            return None
    best = None
    for i, d in enumerate(derivs):
        if d:
            o = _ord(d, p)
            if best is None or o < best:
                best, lift = o, i
    return (y, None if best is None else lift)


def _eq2_walk(c, R, scale, a1, tail, p, depth):
    """Certified congruence walk for primitive solutions y, with its
    disproofs.  Returns (outcome, budget_exhausted_flag): the first
    certified node as (witness_y, lift_coordinate_or_None);
    ``EQ2_UNSOLVABLE`` when the walk proves that no primitive solution
    exists or the disproof held; else ``EQ2_UNKNOWN``.

    Level 1 holds the nonzero y mod p with value = 0 mod p: the roots from
    ``_eq2_roots`` at an odd p, the 2^n residues filtered at p = 2.  Level
    l+1 holds the p^n children y + p^l d (d mod p) of each level-l node
    whose value is 0 mod p^(l+1).  Each level is cut after
    ``EQ2_NODE_BUDGET`` nodes; a level l >= 2 sets the flag when its full
    size is over the budget, level 1 when its scan really was cut.  A node
    certifies as ``_certify`` says.  Survivors have gradient = 0 mod p (a
    unit gradient would have certified), so a node's children all satisfy
    the next congruence level or none do, and the residues of a primitive
    solution survive every level until one certifies: a walk with no cut
    that runs out of survivors, at any level up to ``depth``, proves that
    there is none, and ends the walk with no further check.

    The disproof is ``_congruence_solvable`` mod p^D, D from
    ``_congruence_depth``, tried once, after level 1, unless it cannot
    refute: a survivor of level 1 solves the congruence mod p^2, so it runs
    there only when D > 2, and after a cut level with no survivors when
    D > 0.  A refutation mod p^d with d <= D is one mod p^D too, so no
    other modulus is tried.

    Children are generated lazily in lexicographic order, so the first
    certified node is returned without building the rest of its level.
    Each node's sums s and q are taken once, and its value and every
    derivative come from them.  Every derivative
    lead_i (scale a_1 y_i - lin) has valuation at least t_min + w, with
    t_min = min ord(2 scale a_i) and w = min(ord(scale a_1), ord(lin)), so
    ``_certify`` is asked only where the value is 0 or p^(2(t_min + w) + 1)
    divides it: no other node can certify.
    """
    n = len(tail)
    lead = [2 * scale * t for t in tail]
    scale_a1 = scale * a1
    w_a, t_min = _ord(scale_a1, p), min(_ord(lt, p) for lt in lead)
    bounds = [p ** (2 * (t_min + w) + 1) for w in range(w_a + 1)]
    budget_hit = False
    nodes = product(range(2), repeat=n) if p == 2 else \
        _eq2_roots(c, R, scale, a1, tail, p)
    plevel = p
    for level in count(1):
        survivors = []
        next_mod = plevel * p
        for seen, y in enumerate(nodes):
            if seen == EQ2_NODE_BUDGET or y is None:  # a cut level
                budget_hit = True
                break
            val, lin = _eq2_terms(c, R, scale, a1, tail, y)
            if level == 1 and (val % p or not any(y)):  # p = 2 yields every y
                continue
            if (not val or val % bounds[min(w_a, _ord(lin, p)) if lin else w_a] == 0) \
                    and (found := _certify(y, val, lin, lead, scale_a1, p)) is not None:
                return found, budget_hit
            if val % next_mod == 0:
                survivors.append(y)
        if not (survivors or budget_hit):
            return EQ2_UNSOLVABLE, budget_hit
        if level == 1 and (D := _congruence_depth(p)) > (2 if survivors else 0) and \
                not _congruence_solvable(c, R, scale, a1, tail, p, D):
            return EQ2_UNSOLVABLE, budget_hit
        size = len(survivors) * p ** n if level < depth else 0
        if not size:
            return EQ2_UNKNOWN, budget_hit
        budget_hit = budget_hit or size > EQ2_NODE_BUDGET
        steps = range(0, next_mod, plevel)
        nodes = (tuple(map(add, y, step)) for y in survivors
                 for step in product(steps, repeat=n))
        plevel = next_mod


def _congruence_depth(p: int) -> int:
    """The largest d with p^(2d) <= EQ2_CONGRUENCE_CEILING: 8, 5, 3 and 3 at
    p = 2, 3, 5 and 7, 2 up to p = 19, 1 up to 499 and 0 above."""
    return next(d for d in count() if p ** (2 * d + 2) > EQ2_CONGRUENCE_CEILING)


@lru_cache(maxsize=1024)
def _congruence_split(a1: int, tail: tuple[int, ...], p: int, depth: int) -> tuple:
    """(k, L, l) per block of the Jordan splitting T^T M T = sum p^k L, mod
    p^E with E >= depth, of M = t t^T + a_1 diag(t), the Gram matrix of
    ``reduced_quadratic``; l is the block's part of T^T t.  With y = T w,
    which runs over Z_p^n as w does, y^T M y = sum p^k w^T L w mod p^E and
    t^T y = l^T w."""
    rq = _reduced_quadratic((a1, *tail))
    dec = jordan_decompose(rq.gram, PAdicContext(p, max(depth, 2 * _ord(rq.det, p) + 6)))
    ell = iter([sum(map(mul, column, tail)) for column in zip(*dec.transform)])
    return tuple((k, L, tuple(islice(ell, len(L)))) for k, L in dec.blocks)


@lru_cache(maxsize=4096)
def _completed_values(blocks: tuple, p: int, depth: int, s: int) -> int:
    """Bit v is set when v is, mod p^depth, a sum of values p^(2s+k) w^T L w
    over the (k, L) in ``blocks``.  Over Z_p, w^T L w takes the values
    lambda x^2 on a 1x1 block (lambda), every even value on the hyperbolic
    plane, and twice the norms of Z_2[zeta_3] (0 and the even valuations) on
    the hexagonal plane."""
    mod = p ** depth
    full = (1 << mod) - 1
    values = 1
    for k, L in blocks:
        span = p ** max(depth - 2 * s - k, 0)  # p^(2s+k) r mod p^depth reads r mod span
        if len(L) == 1:
            base = (L[0][0] * x * x for x in range(span))
        elif L == HYPERBOLIC_PLANE:
            base = range(0, span, 2)
        else:
            base = (2 * n for n in range(span) if n == 0 or _ord(n, 2) % 2 == 0)
        values = reduce(or_, ((values << v | values >> mod - v) & full
                              for v in {r % span * (mod // span) for r in base}))
    return values


def _congruence_solvable(c, R, scale, a1, tail, p, depth) -> bool:
    """Exact solvability of (c - scale*s)^2 + scale^2 a_1 q = R mod p^depth,
    with s and q the linear and quadratic sums of some tail vector x: every
    p-adic solution reduces to one, so False proves the equation unsolvable.

    On ``_congruence_split`` the value is c^2 - R plus, per block,
    u^2 p^k w^T L w - 2cu l^T w, with u = scale = p^s * unit.  Where p^(s+k)
    divides c l the square completes: the block takes the values of
    u^2 p^k w^T L w, less c^2 l^T L^-1 l / p^k.  Else Hensel's lemma gives
    every multiple of p^b, b = ord(2cu l), or at p = 2 of p^(b+1) for a 1x1
    block with b = 2s + k (w(aw + b') with a, b' odd is even).  So the
    completing blocks' ``_completed_values`` must hold R - c^2 + their
    shifts modulo p^b, b the least such: a bit of the lanes p^b apart.
    """
    mod = p ** depth
    s = _ord(scale, p)
    cut, shift, completing = depth, 0, []
    for k, L, ell in _congruence_split(a1, tail, p, depth):
        x = [c * li for li in ell]
        if all(xi % p ** (s + k) == 0 for xi in x):
            completing.append((k, L))
            y = [xi // p ** k for xi in x]  # x^T L^-1 x / p^k = y^T L^-1 x
            if len(L) == 1:
                shift += y[0] * x[0] * pow(L[0][0], -1, mod)
            else:  # L^-1 is the adjugate over the determinant
                (e, f), (_, g) = L
                shift += (y[0] * (g * x[0] - f * x[1]) + y[1] * (e * x[1] - f * x[0])) \
                    * pow(e * g - f * f, -1, mod)
        else:
            b = (p == 2) + s + min(_ord(xi, p) for xi in x if xi)
            cut = min(cut, b + (p == 2 and len(L) == 1 and b == 2 * s + k))
    lane = p ** cut
    lanes = ((1 << mod) - 1) // ((1 << lane) - 1)  # bits 0, lane, 2*lane, ...
    values = _completed_values(tuple(completing), p, depth, s)
    return bool(values >> (R - c * c + shift) % lane & lanes)


def solvable_eq2_at(form: MgonalForm, A: int, B: int, k: int, p: int,
                    *, scale: int = 1) -> Eq2Verdict:
    """Decide whether the reduced representation equation

        (B + k(m-2) - scale * sum_{i>=2} a_i x_i)^2
            + scale^2 * sum_{i>=2} a_1 a_i x_i^2 = (2A + B + k(m-4)) a_1

    has a p-adic solution with (x_2,...,x_n) primitive, by one
    ``_eq2_walk`` to depth ``eq2_stability_depth(form, p) + EQ2_MARGIN``:
    the form fixes the depth, and the verdict reports it as its precision.
    A certified node is such a solution and gives ``EQ2_PRIMITIVE``.
    ``EQ2_UNSOLVABLE`` means no primitive solution at this scale: the walk
    ran out of survivors or one of its disproofs held.  A solution
    p^sigma y with y primitive is a primitive solution at scale
    scale * p^sigma, so a caller asks about it at that scale.
    """
    if form.rank < 2:
        raise InputError("the reduced equation needs rank >= 2")
    if scale < 1:
        raise InputError("scale must be a positive integer")
    _require_prime(p)
    a1 = form.coeffs[0]
    tail = form.coeffs[1:]
    c, R = eq2_constants(form, A, B, k)
    depth = eq2_stability_depth(form, p) + EQ2_MARGIN
    found, budget_hit = _eq2_walk(c, R, scale, a1, tail, p, depth)
    if found == EQ2_UNSOLVABLE:
        return Eq2Verdict(status=EQ2_UNSOLVABLE, witness=None,
                          precision=depth, budget_exhausted=False)
    if found == EQ2_UNKNOWN:
        return Eq2Verdict(status=EQ2_UNKNOWN, witness=None,
                          precision=depth, budget_exhausted=budget_hit)
    y, i = found
    witness = _refine_eq2(c, R, scale, a1, tail, y, i, p, depth) \
        if i is not None else tuple(yi % p ** depth for yi in y)
    return Eq2Verdict(status=EQ2_PRIMITIVE, witness=witness,
                      precision=depth, budget_exhausted=budget_hit)


def eq2_residual(form: MgonalForm, A: int, B: int, k: int, x_tail,
                 *, scale: int = 1) -> int:
    """Exact residual of the reduced equation at an integer tail vector."""
    tail = form.coeffs[1:]
    if len(x_tail) != len(tail):
        raise InputError("tail vector length mismatch")
    c, R = eq2_constants(form, A, B, k)
    return _eq2_terms(c, R, scale, form.coeffs[0], tail, tuple(x_tail))[0]
