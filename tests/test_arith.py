import random

import pytest

from mgonal import (
    INFINITY,
    ContractError,
    InputError,
    PAdicContext,
    ResourceError,
    hilbert_symbol,
    ord_and_unit,
)
from mgonal.arith import is_prime, prime_factors

from oracles import (
    brute_force_congruence,
    hensel_liftable,
    hensel_refine,
    hilbert_oracle,
)


def test_ord_and_unit_examples():
    assert ord_and_unit(48, 2) == (4, 3)
    assert ord_and_unit(5, 7) == (0, 5)
    assert ord_and_unit(0, 3) == (INFINITY, 0)


def test_ord_and_unit_reconstructs():
    rng = random.Random(101)
    for _ in range(300):
        x = rng.randint(-10**9, 10**9)
        if x == 0:
            continue
        p = rng.choice([2, 3, 5, 7, 11])
        v, u = ord_and_unit(x, p)
        assert x == p ** v * u and u % p != 0


def test_ord_requires_prime():
    with pytest.raises(InputError):
        ord_and_unit(10, 4)
    with pytest.raises(InputError):
        ord_and_unit(10, 1)


def test_prime_factors():
    assert prime_factors(360) == ((2, 3), (3, 2), (5, 1))
    assert prime_factors(-7) == ((7, 1),)
    assert prime_factors(1) == ()
    with pytest.raises(InputError):
        prime_factors(0)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_context_validation():
    PAdicContext(3, 5)
    with pytest.raises(InputError):
        PAdicContext(6, 5)
    with pytest.raises(InputError):
        PAdicContext(3, 0)


class TestBruteForceCongruence:
    def test_three_squares_omit_seven_mod_eight(self):
        assert brute_force_congruence((1, 1, 1), (0, 0, 0), 0, 7, 8) == []

    def test_single_square_mod_three(self):
        sols = brute_force_congruence((1,), (0,), 0, 4, 3)
        assert sols == [(1,), (2,)]

    def test_two_squares_mod_nine(self):
        assert brute_force_congruence((1, 1), (0, 0), 0, 3, 9) == []

    def test_lexicographic_and_exhaustive(self):
        sols = brute_force_congruence((1, 1), (0, 0), 0, 1, 4)
        assert sols == sorted(sols)
        for x in sols:
            assert (x[0] ** 2 + x[1] ** 2 - 1) % 4 == 0
        # count against a direct double loop
        count = sum(
            1 for a in range(4) for b in range(4) if (a * a + b * b - 1) % 4 == 0
        )
        assert len(sols) == count

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("MGONAL_ORACLE_CAP", "100")
        with pytest.raises(ResourceError):
            brute_force_congruence((1, 1), (0, 0), 0, 0, 11)
        monkeypatch.setenv("MGONAL_ORACLE_CAP", "121")
        brute_force_congruence((1, 1), (0, 0), 0, 0, 11)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            brute_force_congruence((1, 1), (0,), 0, 0, 4)


class TestHensel:
    def test_unit_derivative_liftable(self):
        assert hensel_liftable((1, 1, 1, 1, 1), (0,) * 5, 5, (1, 2, 0, 0, 0), 3, 0)

    def test_high_valuation_not_liftable(self):
        assert not hensel_liftable((9,), (0,), 0, (3,), 3, 1)

    def test_simple_unit_case(self):
        assert hensel_liftable((1, 1), (0, 0), 2, (1, 1), 7, 0)

    def test_premise_checked(self):
        with pytest.raises(ContractError):
            hensel_liftable((1,), (0,), 2, (1,), 7, 0)

    def test_refinement_verifies_to_depth_twenty(self):
        rng = random.Random(202)
        done = 0
        while done < 40:
            p = rng.choice([2, 3, 5, 7])
            n = rng.randint(1, 4)
            coeffs = tuple(rng.randint(1, 30) for _ in range(n))
            linear = tuple(rng.randint(-5, 5) for _ in range(n))
            x = tuple(rng.randint(-20, 20) for _ in range(n))
            target = sum(c * xi * xi + l * xi for c, l, xi in zip(coeffs, linear, x))
            t = 0
            mod = p ** (2 * t + 1)
            partial = tuple(xi % mod for xi in x)
            if not hensel_liftable(coeffs, linear, target, partial, p, t):
                continue
            prec = 20
            refined = hensel_refine(coeffs, linear, target, partial, p, t,
                                    prec - (2 * t + 1))
            val = sum(
                c * xi * xi + l * xi for c, l, xi in zip(coeffs, linear, refined)
            )
            assert (val - target) % p ** prec == 0
            done += 1


class TestHilbertSymbol:
    def test_one_is_always_represented(self):
        rng = random.Random(303)
        for _ in range(100):
            b = rng.randint(-500, 500) or 1
            p = rng.choice([2, 3, 5, 7, 11])
            assert hilbert_symbol(1, b, p) == 1

    def test_minus_one_minus_one_dyadic(self):
        # exhaustive check: z^2 + x^2 + y^2 = 0 (mod 16) forces all even
        for z in range(16):
            for x in range(16):
                for y in range(16):
                    if (z * z + x * x + y * y) % 16 == 0:
                        assert z % 2 == 0 and x % 2 == 0 and y % 2 == 0
        assert hilbert_symbol(-1, -1, 2) == -1

    def test_two_three_at_three(self):
        assert hilbert_symbol(2, 3, 3) == -1
        assert hilbert_oracle(2, 3, 3) == -1

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            hilbert_symbol(0, 3, 5)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(404)
        for _ in range(250):
            p = rng.choice([2, 3, 5, 7, 11])
            a = rng.randint(1, 1000) * rng.choice([1, -1])
            b = rng.randint(1, 1000) * rng.choice([1, -1])
            c = rng.randint(1, 1000) * rng.choice([1, -1])
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert hilbert_symbol(a, b * c, p) == (
                hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)
            )

    def test_brute_force_agreement_sample(self):
        rng = random.Random(505)
        for _ in range(150):
            a = rng.randint(1, 30) * rng.choice([1, -1])
            b = rng.randint(1, 30) * rng.choice([1, -1])
            p = rng.choice([2, 3, 5])
            assert hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p)
