import random

import pytest

from mgonal import (
    ContractError,
    HEXAGONAL_PLANE,
    HYPERBOLIC_PLANE,
    InputError,
    PAdicContext,
    bareiss_determinant,
    jordan_decompose,
    ordp,
)
from mgonal.arith import least_nonresidue, legendre_symbol


def _reconstruction_holds(A, dec):
    """T^t A T = block diagonal mod p^E, written out directly."""
    mod = dec.p ** dec.precision
    size = len(A)
    T = dec.transform
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            acc = 0
            for r in range(size):
                for c in range(size):
                    acc += T[r][i] * A[r][c] * T[c][j]
            out[i][j] = acc % mod
    rhs = dec.block_diagonal()
    return all(
        (out[i][j] - rhs[i][j]) % mod == 0
        for i in range(size) for j in range(size)
    )


def _odd_unit_class(u, p):
    return legendre_symbol(u, p)


def test_hyperbolic_plane_at_three():
    """The even binary plane diagonalizes over Z_3 with unit classes of
    2 and -2 at scale 0."""
    dec = jordan_decompose(((0, 1), (1, 0)), PAdicContext(3, 12))
    assert [s for s, _ in dec.blocks] == [0, 0]
    units = [b[0][0] for _, b in dec.blocks]
    assert _odd_unit_class(units[0], 3) == _odd_unit_class(2, 3)
    assert _odd_unit_class(units[1], 3) == _odd_unit_class(-2, 3)
    assert _reconstruction_holds(((0, 1), (1, 0)), dec)


def test_already_diagonal():
    dec = jordan_decompose(((1, 0), (0, 9)), PAdicContext(3, 12))
    assert dec.blocks == ((0, ((1,),)), (2, ((1,),)))


def test_hyperbolic_plane_at_two():
    dec = jordan_decompose(((0, 1), (1, 0)), PAdicContext(2, 12))
    assert dec.blocks == ((0, HYPERBOLIC_PLANE),)
    assert _reconstruction_holds(((0, 1), (1, 0)), dec)


def test_hexagonal_plane_at_two():
    dec = jordan_decompose(((2, 1), (1, 2)), PAdicContext(2, 12))
    assert dec.blocks == ((0, HEXAGONAL_PLANE),)


def test_singular_rejected():
    with pytest.raises(InputError):
        jordan_decompose(((1, 1), (1, 1)), PAdicContext(3, 12))
    with pytest.raises(InputError, match="symmetric"):  # so is an asymmetric Gram
        jordan_decompose(((1, 2), (3, 1)), PAdicContext(3, 12))


def test_precision_precondition():
    with pytest.raises(ContractError):
        jordan_decompose(((81, 0), (0, 81)), PAdicContext(3, 12))


def _random_symmetric(rng, size, p, max_ord=3):
    while True:
        A = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                A[i][j] = A[j][i] = rng.randint(-100, 100)
        det = bareiss_determinant(A)
        if det != 0 and ordp(det, p) <= max_ord:
            return tuple(tuple(row) for row in A)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_random_reconstruction(p):
    rng = random.Random(31 + p)
    for _ in range(25):
        size = rng.randint(2, 6)
        A = _random_symmetric(rng, size, p)
        dec = jordan_decompose(A, PAdicContext(p, 12))
        assert _reconstruction_holds(A, dec)
        scales = [s for s, _ in dec.blocks]
        assert scales == sorted(scales)
        assert bareiss_determinant(dec.transform) % p != 0
        if p != 2:
            assert all(len(b) == 1 for _, b in dec.blocks)
        else:
            assert all(
                len(b) == 1 or b in (HYPERBOLIC_PLANE, HEXAGONAL_PLANE)
                for _, b in dec.blocks
            )
        # valuation of the determinant is preserved by the reconstruction
        recon_det_ord = sum(
            s * len(b) + int(ordp(bareiss_determinant(b), p))
            for s, b in dec.blocks
        )
        assert recon_det_ord == int(ordp(bareiss_determinant(A), p))


def _random_unimodular(rng, size):
    U = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(size):
            U[i][k] += c * U[j][k]
    return U


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scale_multiset_invariant_under_preconditioning(p):
    rng = random.Random(41 + p)
    for _ in range(10):
        size = rng.randint(2, 5)
        A = _random_symmetric(rng, size, p)
        U = _random_unimodular(rng, size)
        UA = [
            [
                sum(U[r][i] * A[r][c] * U[c][j] for r in range(size)
                    for c in range(size))
                for j in range(size)
            ]
            for i in range(size)
        ]
        UA = tuple(tuple(row) for row in UA)
        d1 = jordan_decompose(A, PAdicContext(p, 14))
        d2 = jordan_decompose(UA, PAdicContext(p, 14))
        scales1 = sorted(s for s, b in d1.blocks for _ in b)
        scales2 = sorted(s for s, b in d2.blocks for _ in b)
        assert scales1 == scales2
