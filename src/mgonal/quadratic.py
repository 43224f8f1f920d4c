"""The quadratic side: reduced quadratic form of an m-gonal form, exact
determinants, Jordan decomposition over the p-adic integers, local
representation by diagonal forms, isotropy, and the auxiliary quadratic
equation classifier that feeds the stability machinery."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .arith import (
    INFINITY,
    PAdicContext,
    bit_bytes,
    hilbert_symbol,
    is_padic_square,
    modinv,
    ordp,
)
from .errors import AnomalyWarning, ContractError, InputError, ResourceError
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


def gram_to_json(g: GramMatrix) -> list[list[int]]:
    return [list(row) for row in g]


def gram_from_json(data) -> GramMatrix:
    return validate_gram(data)


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
    a = form.coeffs
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

def diagonal_decision_depth(coeffs, c: int, p: int) -> int:
    """Congruence depth at which solvability of sum a_i x_i^2 = c stabilizes."""
    v = 0 if c == 0 else ordp(c, p)
    e = 1 if p == 2 else 0
    beta = max(ordp(a, p) for a in coeffs)
    return int(v + 2 * e + 2 * beta + 3)


def diagonal_context(coeffs, c: int, p: int) -> PAdicContext:
    """Context with exactly the precision the diagonal decision requires."""
    return PAdicContext(p, diagonal_decision_depth(coeffs, c, p))


#: Largest modulus p^D of a certified residue table.  The build takes time
#: quadratic in p^D: 0.75 s at 2^17, 10.5 s at 2^19, 159 s at 2^21 (2-core
#: machine), so a larger table is refused rather than built.
RESIDUE_TABLE_CEILING = 1 << 19


def _unit_modulus(coeffs, p: int) -> tuple[int, int]:
    """(D, p^D) of ``_unit_reachable(coeffs, p)``, without building it."""
    e = 1 if p == 2 else 0
    beta = max(int(ordp(a, p)) for a in coeffs)
    depth = 2 * (e + beta) + 1
    return depth, p ** depth


@lru_cache(maxsize=4096)
def _unit_reachable(coeffs: tuple[int, ...], p: int):
    """Bitset of residues mod p^D expressible as sum a_i x_i^2 with a unit x_i.

    D = 2(ord_p(2) + max_i ord_p(a_i)) + 1: at that depth any congruence
    solution with a unit coordinate certifies an exact p-adic solution via a
    single-variable Newton lift, and conversely every exact solution with a
    unit coordinate reduces into the set.  Building it takes time quadratic
    in p^D, so moduli above ``RESIDUE_TABLE_CEILING`` raise ``ResourceError``.
    """
    depth, mod = _unit_modulus(coeffs, p)
    if mod > RESIDUE_TABLE_CEILING:
        raise ResourceError(
            f"certified residue table mod {p}^{depth} exceeds the ceiling of "
            f"{RESIDUE_TABLE_CEILING} entries"
        )
    mask = (1 << mod) - 1

    def shifted(bits: int, vals) -> int:
        out = 0
        for v in vals:
            out |= (bits << v) | (bits >> (mod - v))
        return out & mask

    no_unit = 1  # empty sum
    some_unit = 0
    for a in coeffs:
        unit_vals = sorted({a * u * u % mod for u in range(1, mod) if u % p})
        other_vals = sorted({a * x * x % mod for x in range(0, mod, p)})
        all_vals = sorted(set(unit_vals) | set(other_vals))
        some_unit = shifted(some_unit, all_vals) | shifted(no_unit, unit_vals)
        no_unit = shifted(no_unit, other_vals)
    return some_unit, depth, mod


@lru_cache(maxsize=65536)
def _diagonal_solvable(coeffs: tuple[int, ...], c: int, p: int) -> bool:
    if c == 0:
        return True
    reachable, _, mod = _unit_reachable(coeffs, p)
    v = int(ordp(c, p))
    while True:
        if (reachable >> (c % mod)) & 1:
            return True
        if v < 2:
            return False
        c //= p * p
        v -= 2


def _diagonal_solvable_run(coeffs: tuple[int, ...], p: int, alpha: int, beta: int,
                           n: int) -> bytearray:
    """Byte i is 1 iff ``_diagonal_solvable(coeffs, alpha*i + beta, p)``, for
    0 <= i < n, alpha a p-adic unit and beta >= 0.  The residue lookup tiles
    with period p^D; the descent to c/p^2 happens only on the class i = t0
    (mod p^2), where c/p^2 is again affine in the index with the same alpha,
    so it recurses on that slice, p^2 times shorter."""
    reachable, _, mod = _unit_reachable(coeffs, p)
    table = bit_bytes(reachable, mod)
    period = bytes(table[(alpha * i + beta) % mod] for i in range(min(mod, n)))
    out = bytearray(period * -(-n // len(period)))
    del out[n:]
    q = p * p
    t0 = -beta * pow(alpha, -1, q) % q
    if beta == 0:  # c = 0 at i = 0 is solvable; the descent class starts at q
        out[0] = 1
        t0 = q
    if t0 < n:
        sub = _diagonal_solvable_run(coeffs, p, alpha, (alpha * t0 + beta) // q,
                                     len(range(t0, n, q)))
        out[t0::q] = (int.from_bytes(out[t0::q], "big")
                      | int.from_bytes(sub, "big")).to_bytes(len(sub), "big")
    return out


def represents_locally_diagonal(coeffs, c: int, ctx: PAdicContext) -> bool:
    """True iff sum a_i x_i^2 = c is solvable over the p-adic integers.

    Decided by valuation descent: at each stage a certified residue search
    settles whether a solution with a unit coordinate exists; otherwise the
    target is divided by p^2 (all-divisible solutions scale down).  The
    context must carry at least the stabilization depth for the instance.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        raise InputError("coefficient tuple must be nonempty")
    if any(not isinstance(a, int) or a == 0 for a in coeffs):
        raise InputError("coefficients must be nonzero integers")
    need = diagonal_decision_depth(coeffs, c, ctx.p)
    if ctx.precision < need:
        raise ContractError(
            f"precision {ctx.precision} below the decision depth {need} for this instance"
        )
    return _diagonal_solvable(coeffs, c, ctx.p)


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
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            out[i][j] = sum(a[i][t] * b[t][j] for t in range(k)) % mod
    return out


def _gram_of(A, vectors, mod):
    cols = len(vectors)
    out = [[0] * cols for _ in range(cols)]
    n = len(A)
    for i in range(cols):
        Avi = [sum(A[r][t] * vectors[i][t] for t in range(n)) for r in range(n)]
        for j in range(cols):
            out[i][j] = sum(Avi[t] * vectors[j][t] for t in range(n)) % mod
    return out


def _res_ord(x: int, p: int, cap: int) -> int | float:
    """Valuation of a residue, capped: divisible by p^cap counts as infinite."""
    if x % p ** cap == 0:
        return INFINITY
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


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

    while active:
        mod = p ** cur
        B = _gram_of(A, [vectors[i] for i in active], mod)
        k = len(active)
        scale = min(_res_ord(B[i][j], p, cur) for i in range(k) for j in range(k))
        if scale == INFINITY:  # pragma: no cover - det bound prevents this
            raise ContractError("working precision exhausted during decomposition")
        scale = int(scale)
        ps = p ** scale

        diag_idx = next(
            (i for i in range(k) if _res_ord(B[i][i], p, cur) == scale), None
        )

        if diag_idx is None and p != 2:
            # fold an off-diagonal minimum onto the diagonal: v_i += v_j
            bi, bj = next(
                (i, j) for i in range(k) for j in range(k)
                if i != j and _res_ord(B[i][j], p, cur) == scale
            )
            vi, vj = active[bi], active[bj]
            vectors[vi] = [(x + y) % mod for x, y in zip(vectors[vi], vectors[vj])]
            continue

        if diag_idx is not None:
            i = diag_idx
            pivot = B[i][i]
            red = p ** (cur - scale)
            inv_unit = modinv((pivot // ps) % red, red)
            for jj in range(k):
                if jj == i:
                    continue
                lam = (B[i][jj] // ps) * inv_unit % red
                vectors[active[jj]] = [
                    (x - lam * y) % mod
                    for x, y in zip(vectors[active[jj]], vectors[active[i]])
                ]
            blocks.append((scale, (((pivot // ps) % p ** E,),)))
            emitted.append(vectors[active[i]])
            active.pop(i)
            cur -= scale
            continue

        # p = 2 with a strictly off-diagonal minimum: extract a 2x2 plane
        bi, bj = next(
            (i, j) for i in range(k) for j in range(k)
            if i < j and _res_ord(B[i][j], p, cur) == scale
        )
        red = p ** (cur - scale)
        a0 = (B[bi][bi] // ps) % red
        u0 = (B[bi][bj] // ps) % red
        b0 = (B[bj][bj] // ps) % red
        det2inv = modinv((a0 * b0 - u0 * u0) % red, red)
        for kk in range(k):
            if kk in (bi, bj):
                continue
            r0 = (B[bi][kk] // ps) % red
            r1 = (B[bj][kk] // ps) % red
            alpha = (-(b0 * r0 - u0 * r1) * det2inv) % red
            beta = (-(a0 * r1 - u0 * r0) * det2inv) % red
            vi_, vj_ = vectors[active[bi]], vectors[active[bj]]
            vectors[active[kk]] = [
                (x + alpha * y + beta * z) % mod
                for x, y, z in zip(vectors[active[kk]], vi_, vj_)
            ]
        T2, block = _split_even_binary(((a0, u0), (u0, b0)), cur - scale)
        vi_, vj_ = vectors[active[bi]], vectors[active[bj]]
        new_i = [(T2[0][0] * x + T2[1][0] * y) % mod for x, y in zip(vi_, vj_)]
        new_j = [(T2[0][1] * x + T2[1][1] * y) % mod for x, y in zip(vi_, vj_)]
        blocks.append((scale, block))
        emitted.append(new_i)
        emitted.append(new_j)
        for idx in sorted((bi, bj), reverse=True):
            active.pop(idx)
        cur -= scale + 6

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
EQ2_SOLVABLE = "solvable"
EQ2_UNSOLVABLE = "unsolvable"
EQ2_UNKNOWN = "unsolvable-within-strata"


#: Precision that ``eq2_context`` adds on top of the stability depth.
EQ2_MARGIN = 4

#: Cap on the live nodes of one congruence level of the stratum search.
EQ2_NODE_BUDGET = 250_000


@dataclass(frozen=True)
class Eq2Verdict:
    """Outcome of the stratified solvability search.

    min_order is the smallest min-coordinate valuation found (0 for a
    primitive witness; None when only the zero solution is known).
    "unsolvable-within-strata" means the capped search certified nothing but
    full unsolvability was not proven either.
    """

    status: str
    min_order: int | None
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


def eq2_context(form: MgonalForm, p: int) -> PAdicContext:
    return PAdicContext(p, eq2_stability_depth(form, p) + EQ2_MARGIN)


def eq2_constants(form: MgonalForm, A: int, B: int, k: int) -> tuple[int, int]:
    """(c, R) of the reduced equation (c - scale*s)^2 + scale^2 a_1 q = R:
    c = B + k(m-2) and R = a_1 (2A + B + k(m-4))."""
    m = form.m
    return B + k * (m - 2), form.coeffs[0] * (2 * A + B + k * (m - 4))


def _eq2_value(c: int, R: int, scale: int, a1: int, tail, y) -> int:
    s = sum(t * yi for t, yi in zip(tail, y))
    q = sum(t * yi * yi for t, yi in zip(tail, y))
    return (c - scale * s) ** 2 + scale * scale * a1 * q - R


def _eq2_derivatives(c: int, scale: int, a1: int, tail, y):
    s = sum(t * yi for t, yi in zip(tail, y))
    lin = c - scale * s
    return [2 * scale * t * (scale * a1 * yi - lin) for t, yi in zip(tail, y)]


def _refine_eq2(c, R, scale, a1, tail, y, i, p, prec):
    """Newton-refine coordinate i of a certified solution to depth p^prec."""
    mod = p ** prec
    y = [yi % mod for yi in y]
    for _ in range(prec + 4):
        g = _eq2_value(c, R, scale, a1, tail, y)
        if g % mod == 0:
            return tuple(y)
        d = _eq2_derivatives(c, scale, a1, tail, y)[i]
        o = int(ordp(d, p))
        po = p ** o
        step = (g // po) * modinv((d // po) % mod, mod) % mod
        y[i] = (y[i] - step) % mod
    raise ContractError("auxiliary equation refinement did not converge")  # pragma: no cover


def _stratum_search(c, R, scale, a1, tail, p, sigma, depth):
    """Certified congruence search for solutions x = p^sigma y, y primitive.

    Returns ((witness_y, lift_coordinate_or_None), budget_exhausted_flag);
    the witness slot is None when nothing certified within the depth.
    """
    n = len(tail)
    if p ** n > 2_000_000:
        raise ResourceError(
            f"stratum root enumeration of {p}^{n} residues exceeds the search budget"
        )
    eff = scale * p ** sigma

    def value(y):
        return _eq2_value(c, R, eff, a1, tail, y)

    def derivs(y):
        return _eq2_derivatives(c, eff, a1, tail, y)

    budget_hit = False
    nodes = [y for y in product(range(p), repeat=n)
             if any(y) and value(y) % p == 0]
    for level in range(1, depth + 1):
        for y in nodes:
            val = value(y)
            ds = derivs(y)
            finite = [(int(ordp(d, p)), i) for i, d in enumerate(ds) if d != 0]
            if finite:
                t, i = min(finite)
                if val == 0 or ordp(val, p) >= 2 * t + 1:
                    return (tuple(y), i), budget_hit
            elif val == 0:
                # exact critical zero: already an exact solution
                return (tuple(y), None), budget_hit
        if level == depth:
            break
        # survivors have gradient = 0 mod p (a unit gradient would have
        # certified above), so a node's children all satisfy the next
        # congruence level or none do
        plevel = p ** level
        nxt = []
        for y in nodes:
            if value(y) % (plevel * p) == 0:
                for delta in product(range(p), repeat=n):
                    nxt.append(tuple(yi + plevel * d for yi, d in zip(y, delta)))
                if len(nxt) > EQ2_NODE_BUDGET:
                    budget_hit = True
                    nxt = nxt[:EQ2_NODE_BUDGET]
                    break
        nodes = nxt
        if not nodes:
            break
    return None, budget_hit


def _pair_congruence_solvable(c, R, scale, a1, tail, p, depth) -> bool:
    """Exhaustive solvability of the auxiliary congruence mod p^depth, tracked
    through the two sufficient statistics (linear sum, quadratic sum)."""
    mod = p ** depth
    states = {(0, 0)}
    for t in tail:
        moves = {(t * y % mod, t * y * y % mod) for y in range(mod)}
        states = {((s + ds) % mod, (q + dq) % mod)
                  for s, q in states for ds, dq in moves}
    return any(
        ((c - scale * s) ** 2 + scale * scale * a1 * q - R) % mod == 0
        for s, q in states
    )


def solvable_eq2_at(form: MgonalForm, A: int, B: int, k: int, ctx: PAdicContext,
                    *, scale: int = 1) -> Eq2Verdict:
    """Classify p-adic solvability of the reduced representation equation

        (B + k(m-2) - scale * sum_{i>=2} a_i x_i)^2
            + scale^2 * sum_{i>=2} a_1 a_i x_i^2 = (2A + B + k(m-4)) a_1,

    reporting primitivity of (x_2,...,x_n) and the smallest min-coordinate
    valuation found.  Strata sigma = 0, 1, ..., ceil(ord_p(a_1)/2)+1 are
    scanned by certified congruence search; past the cap an instance is
    reported unsolvable-within-strata unless a bounded exhaustive congruence
    check disproves solvability outright.
    """
    if form.rank < 2:
        raise InputError("the reduced equation needs rank >= 2")
    if scale < 1:
        raise InputError("scale must be a positive integer")
    p = ctx.p
    need = eq2_stability_depth(form, p)
    if ctx.precision < need:
        raise ContractError(
            f"precision {ctx.precision} below the stability depth {need}"
        )
    a1 = form.coeffs[0]
    tail = form.coeffs[1:]
    c, R = eq2_constants(form, A, B, k)
    cap = (int(ordp(a1, p)) + 1) // 2 + 1
    depth = ctx.precision
    budget_hit = False
    for sigma in range(cap + 1):
        found, hit = _stratum_search(c, R, scale, a1, tail, p, sigma, depth)
        budget_hit = budget_hit or hit
        if found is not None:
            y, i = found
            eff = scale * p ** sigma
            refined = _refine_eq2(c, R, eff, a1, tail, y, i, p, depth) \
                if i is not None else tuple(yi % p ** depth for yi in y)
            modw = p ** depth
            witness = tuple(p ** sigma * yi % modw for yi in refined)
            status = EQ2_PRIMITIVE if sigma == 0 else EQ2_SOLVABLE
            return Eq2Verdict(
                status=status, min_order=sigma, witness=witness,
                precision=depth, budget_exhausted=budget_hit,
            )
    if c * c == R:
        return Eq2Verdict(
            status=EQ2_SOLVABLE, min_order=None,
            witness=(0,) * (form.rank - 1), precision=depth,
            budget_exhausted=budget_hit,
        )
    l2 = 1
    while p ** (3 * (l2 + 1)) <= 700_000 and l2 + 1 <= depth:
        l2 += 1
    solvable = _pair_congruence_solvable(c, R, scale, a1, tail, p, l2)
    return Eq2Verdict(
        status=EQ2_UNKNOWN if solvable else EQ2_UNSOLVABLE, min_order=None,
        witness=None, precision=depth, budget_exhausted=budget_hit,
    )


def eq2_residual(form: MgonalForm, A: int, B: int, k: int, x_tail,
                 *, scale: int = 1) -> int:
    """Exact residual of the reduced equation at an integer tail vector."""
    tail = form.coeffs[1:]
    if len(x_tail) != len(tail):
        raise InputError("tail vector length mismatch")
    c, R = eq2_constants(form, A, B, k)
    return _eq2_value(c, R, scale, form.coeffs[0], tail, tuple(x_tail))
