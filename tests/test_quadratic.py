import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from mgonal import (
    ContractError,
    InputError,
    MgonalForm,
    ResourceError,
    bareiss_determinant,
    eq2_context,
    eq2_residual,
    is_isotropic,
    ordp,
    reduced_quadratic,
)
import mgonal.quadratic as quadratic
from mgonal.arith import PAdicContext, least_nonresidue, legendre_symbol
from mgonal.quadratic import (
    EQ2_PRIMITIVE,
    EQ2_SOLVABLE,
    EQ2_UNKNOWN,
    EQ2_UNSOLVABLE,
    _congruence_depth,
    _diagonal_solvable,
    _pair_congruence_solvable,
    _pair_states,
    _unit_reachable,
    eq2_constants,
    solvable_eq2_at,
)

from oracles import (
    UNDECIDED,
    _tail_sum_states,
    cofactor_determinant,
    diagonal_oracle,
    diagonal_residue_oracle,
    isotropy_oracle,
    pair_congruence_oracle,
)

GOLDEN = Path(__file__).parent / "golden"


class TestReducedQuadratic:
    def test_unit_coefficients(self):
        rq = reduced_quadratic(MgonalForm(5, (1, 1, 1, 1, 1)))
        assert all(rq.gram[i][i] == 2 for i in range(4))
        assert all(rq.gram[i][j] == 1 for i in range(4) for j in range(4) if i != j)
        assert rq.det == 5 == cofactor_determinant(rq.gram)
        assert rq.shift_denominator == 5

    def test_leading_two(self):
        rq = reduced_quadratic(MgonalForm(5, (2, 1, 1, 1, 1)))
        assert all(rq.gram[i][i] == 3 for i in range(4))
        assert rq.det == 48 == cofactor_determinant(rq.gram)

    def test_mixed(self):
        rq = reduced_quadratic(MgonalForm(5, (1, 2, 1, 1, 1)))
        assert rq.gram == ((6, 2, 2, 2), (2, 2, 1, 1), (2, 1, 2, 1), (2, 1, 1, 2))
        assert rq.det == 12 == cofactor_determinant(rq.gram)

    def test_rank_one_rejected(self):
        with pytest.raises(InputError):
            reduced_quadratic(MgonalForm(5, (1,)))

    def test_positive_definite_minors(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.choice([5, 6, 7])
            coeffs = [rng.randint(1, 50) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            rq = reduced_quadratic(MgonalForm(5, tuple(coeffs)))
            for k in range(1, n):
                minor = [row[:k] for row in rq.gram[:k]]
                assert bareiss_determinant(minor) > 0

    def test_determinant_product_form(self):
        # soft closed form, checked here as a finding
        rng = random.Random(22)
        for _ in range(100):
            n = rng.randint(2, 7)
            coeffs = [rng.randint(1, 30) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(6, tuple(coeffs))
            rq = reduced_quadratic(form)
            expected = coeffs[0] ** (n - 2) * sum(coeffs)
            for a in coeffs[1:]:
                expected *= a
            assert rq.det == expected


class TestDiagonalLocal:
    def test_three_squares_miss_seven(self):
        assert not _diagonal_solvable((1, 1, 1), 7, 2)

    def test_four_squares_cover_seven(self):
        assert _diagonal_solvable((1, 1, 1, 1), 7, 2)

    def test_two_squares_miss_three_at_three(self):
        assert not _diagonal_solvable((1, 1), 3, 3)

    def test_zero_always_represented(self):
        assert _diagonal_solvable((3, 5), 0, 5)

    def test_oracle_agreement(self):
        rng = random.Random(23)
        done = 0
        while done < 80:
            p = rng.choice([2, 3, 5, 7])
            n = rng.randint(1, 4)
            coeffs = tuple(rng.randint(1, 45) for _ in range(n))
            c = rng.randint(-500, 500)
            verdict = diagonal_oracle(coeffs, c, p)
            if verdict is UNDECIDED:
                continue
            assert _diagonal_solvable(coeffs, c, p) == verdict, (coeffs, c, p)
            done += 1

    def test_residue_oracle_matches_the_deepening_oracle(self):
        rng = random.Random(29)
        done = 0
        while done < 200:
            p = rng.choice([2, 3, 5, 7])
            coeffs = tuple(rng.randint(1, 45) for _ in range(rng.randint(1, 3)))
            c = rng.randint(1, 500) * rng.choice([1, 1, p, p * p])
            verdict = diagonal_oracle(coeffs, c, p)
            if verdict is UNDECIDED:
                continue
            assert diagonal_residue_oracle(coeffs, c, p) == verdict, (coeffs, c, p)
            done += 1

    #: Largest oracle modulus p^(v+1+2e) the level sweep builds a sumset for.
    ORACLE_MODULUS = 600_000

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_orbits_match_the_residue_oracle_at_every_level(self, p):
        """Every unit class at every level v <= v0 + 4, v0 the fold level, on
        forms with coefficients divisible by p, p^2 and p^3, wherever the
        oracle's modulus stays small: every such level at p = 2 and 3, and
        levels up to 7 at p = 5, 5 at p = 7 and 4 at p = 11 and 13, which
        reach the fold at every prime."""
        e = 1 if p == 2 else 0
        folded = 0
        for coeffs in ((1, p, p * p, p ** 3), (1, 1, p ** 3), (3, p, 2 * p * p),
                       (p, p * p, 5), (1, 2 * p * p), (p ** 3, 7, 7 * p)):
            v0 = _unit_reachable(coeffs, p)[0]
            for v in range(v0 + 5):
                if p ** (v + 1 + 2 * e) > self.ORACLE_MODULUS:
                    break
                folded += v >= v0
                for u in range(1, p ** (1 + 2 * e)):
                    if u % p:
                        c = p ** v * u
                        assert _diagonal_solvable(coeffs, c, p) == \
                            diagonal_residue_oracle(coeffs, c, p), (coeffs, c, p)
        assert folded

    @pytest.mark.parametrize("p", [83, 257, 1009])
    def test_orbits_match_the_residue_oracle_at_large_primes(self, p):
        for coeffs in ((1, p), (1, 1, p), (2, 3 * p, 5)):
            for v in (0, 1):
                for u in range(1, p):
                    c = p ** v * u
                    assert _diagonal_solvable(coeffs, c, p) == \
                        diagonal_residue_oracle(coeffs, c, p), (coeffs, c, p)


    def test_orbits_at_a_very_large_prime(self, monkeypatch):
        """At P = 10^9 + 7 no residue sumset fits, but with n a nonresidue,
        P^v u (u a unit) is a value of <1, P> iff u is a square, of <1, P^2>
        iff v is 0 and u a square or v is even and positive (then x = P x'
        leaves the universal x'^2 + y^2), of <1, n P> iff u n^v is a square, and,
        as x^2 + y^2 is anisotropic mod P = 3 (mod 4), of <1, 1, P> iff v is
        even or u a square.  A build takes a few Legendre symbols per orbit
        sum, not one per residue of P."""
        P = 1_000_000_007
        assert P % 4 == 3
        n = least_nonresidue(P)
        calls = 0

        def counted(a, p):
            nonlocal calls
            calls += 1
            assert calls <= 40, "the build loops over the residues of P"
            return legendre_symbol(a, p)

        monkeypatch.setattr(quadratic, "legendre_symbol", counted)
        for coeffs in ((1, P), (1, P * P), (1, n * P), (1, 1, P)):
            calls = 0
            _unit_reachable.__wrapped__(coeffs, P)
        monkeypatch.undo()
        for v in range(6):
            for u in (1, 2, 3, 5, n, n + 1, P - 1, P - n):
                c = P ** v * u
                square = legendre_symbol(u, P) == 1
                assert _diagonal_solvable((1, P), c, P) == square
                assert _diagonal_solvable((1, P * P), c, P) == (v % 2 == 0 and (v > 0 or square))
                assert _diagonal_solvable((1, n * P), c, P) == \
                    (legendre_symbol(u * n ** v, P) == 1)
                assert _diagonal_solvable((1, 1, P), c, P) == (v % 2 == 0 or square)


class TestIsotropy:
    def test_quaternary_anisotropic_at_three(self):
        # mod-9 descent: x^2 + y^2 = 0 (mod 3) forces 3 | x, y
        for x in range(3):
            for y in range(3):
                if (x * x + y * y) % 3 == 0:
                    assert x == 0 and y == 0
        assert not is_isotropic((1, 1, 6, 6), 3)

    def test_rank_five_always(self):
        for p in (2, 3, 5, 7, 11):
            assert is_isotropic((1, 1, 1, 1, 1), p)

    def test_opposite_squares(self):
        assert is_isotropic((1, -1), 5)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(InputError):
            is_isotropic((1, 0, 1), 3)

    def test_full_small_grid_against_scan(self):
        """All rank 2..4 tuples with entries in +-1..10, p in {2,3,5}."""
        entries = [e for e in range(-10, 11) if e != 0]
        for p in (2, 3, 5):
            seen = {}
            for rank in (2, 3, 4):
                for coeffs in product(entries, repeat=rank):
                    key = tuple(sorted(coeffs))
                    if key in seen:
                        expected = seen[key]
                    else:
                        expected = isotropy_oracle(key, p)
                        seen[key] = expected
                    assert is_isotropic(coeffs, p) == expected, (coeffs, p)


class TestEq2:
    def test_unit_rich_is_primitively_solvable(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        v = solvable_eq2_at(form, 1, 0, 0, eq2_context(form, 7))
        assert v.status == EQ2_PRIMITIVE and v.min_order == 0

    def test_zero_parameters(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        v = solvable_eq2_at(form, 0, 0, 0, eq2_context(form, 3))
        assert v.status in (EQ2_PRIMITIVE, EQ2_SOLVABLE)

    def test_witness_verifies(self):
        rng = random.Random(24)
        for _ in range(25):
            coeffs = [rng.randint(1, 9) for _ in range(5)]
            coeffs[rng.randrange(5)] = 1
            form = MgonalForm(rng.randint(3, 10), tuple(coeffs))
            p = rng.choice([3, 5, 7])
            A, B, k = rng.randint(0, 20), rng.randint(0, 3), rng.randint(0, 6)
            ctx = eq2_context(form, p)
            v = solvable_eq2_at(form, A, B, k, ctx)
            if v.witness is not None:
                res = eq2_residual(form, A, B, k, v.witness)
                assert res % p ** v.precision == 0
                if v.min_order is not None:
                    assert min(ordp(x, p) for x in v.witness) == v.min_order

    def test_imprimitive_stratum(self):
        # only imprimitive solutions exist here: the congruence mod 3^4 is
        # solvable but has no solution with a unit coordinate (checked below)
        form = MgonalForm(8, (9, 2, 2, 3, 3))
        A, B, k, p = 1, 0, 4, 3
        mod = p ** 4
        c = B + k * (form.m - 2)
        R = form.coeffs[0] * (2 * A + B + k * (form.m - 4))
        a1, tail = form.coeffs[0], form.coeffs[1:]
        assert pair_congruence_oracle(c, R, 1, a1, tail, mod)
        assert not pair_congruence_oracle(c, R, 1, a1, tail, mod, p=p)
        v = solvable_eq2_at(form, A, B, k, eq2_context(form, p))
        assert v.status == EQ2_SOLVABLE
        assert v.min_order == 1
        assert v.min_order <= (int(ordp(form.coeffs[0], p)) + 1) // 2 + 1

    def test_unsolvable_detected(self):
        form = MgonalForm(7, (9, 1, 3, 6, 6))
        ctx = eq2_context(form, 3)
        v = solvable_eq2_at(form, 0, 0, 1, ctx)
        assert v.status == EQ2_UNSOLVABLE
        # independent: the congruence mod 3^4 has no solutions at all
        mod = 3 ** 4
        c = 0 + 1 * (form.m - 2)
        R = form.coeffs[0] * (0 + 0 + 1 * (form.m - 4))
        assert not pair_congruence_oracle(
            c, R, 1, form.coeffs[0], form.coeffs[1:], mod
        )

    def test_pair_congruence_matches_the_oracle(self):
        """Seeded cases over ranks 3-6, p in {2, 3, 5, 7, 11} and scale in
        {1, p}: the cached disproof equals the set enumeration mod p^l2, an
        unsolvable verdict has no solution there, and witnesses verify."""
        rng = random.Random(2718)
        pool = (1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 18, 27)
        forms = []
        for rank in (3, 4, 5, 6):
            for _ in range(3):
                coeffs = [rng.choice(pool) for _ in range(rank)]
                coeffs[rng.randrange(rank)] = 1
                forms.append(MgonalForm(rng.randint(3, 20), tuple(coeffs)))
        statuses = set()
        for form in forms:
            a1, tail = form.coeffs[0], form.coeffs[1:]
            for _ in range(20):
                p = rng.choice((2, 3, 5, 7, 11))
                scale = rng.choice((1, p))
                A, B, k = rng.randint(0, 60), rng.randint(0, form.m - 3), \
                    rng.randint(0, 30)
                ctx = eq2_context(form, p)
                l2 = _congruence_depth(p, ctx.precision)
                c, R = eq2_constants(form, A, B, k)
                expected = pair_congruence_oracle(c, R, scale, a1, tail, p ** l2)
                case = (form.describe(), A, B, k, p, scale)
                assert _pair_congruence_solvable(
                    c, R, scale, a1, tail, p, l2) == expected, case
                v = solvable_eq2_at(form, A, B, k, ctx, scale=scale)
                statuses.add(v.status)
                if v.status == EQ2_UNSOLVABLE:
                    assert not expected, case
                if v.witness is not None:
                    res = eq2_residual(form, A, B, k, v.witness, scale=scale)
                    assert res % p ** v.precision == 0, case
        assert {EQ2_PRIMITIVE, EQ2_UNSOLVABLE} <= statuses

    def test_pair_states_match_the_oracle(self):
        """Entry s of the packed state bitset is exactly the set of g*q mod M
        over the (s, q) that the set-of-tuples enumeration reaches, for tails
        of length 1-6 (coefficients often divisible by p) and g = 0, g a
        nonzero non-unit and g a unit."""
        rng = random.Random(3141)
        for p, mod in ((2, 64), (3, 81), (5, 25), (7, 49), (11, 11), (13, 13)):
            for length in range(1, 7):
                for _ in range(2):
                    tail = tuple(rng.choice((1, 2, 3, 5, 7)) * p ** rng.choice((0, 0, 1, 2))
                                 for _ in range(length))
                    states = _tail_sum_states(tail, mod, None)
                    gs = [0, rng.randrange(1, mod, p)]  # zero and a unit
                    if mod > p:
                        gs.append(p * rng.randrange(1, mod // p))
                    for g in gs:
                        expected = [0] * mod
                        for s, q, _ in states:
                            expected[s] |= 1 << (g * q % mod)
                        assert _pair_states(tail, mod, g) == tuple(expected), \
                            (tail, mod, g)

    def test_deep_witnesses_are_pinned(self):
        """Calls whose first certified stratum node lies at level 2 or deeper:
        the 39 such calls of the benchmark's admissible search (31 at p = 2,
        4 at p = 5, 3 at p = 3, 1 at p = 7) and four seeded level-3 calls at
        p = 2.
        Status, min order, witness, precision and the budget flag must match
        the record."""
        cases = json.loads((GOLDEN / "eq2_deep_witnesses.json").read_text())
        assert len(cases) == 43
        for case in cases:
            form = MgonalForm(case["m"], tuple(case["coeffs"]))
            v = solvable_eq2_at(form, case["A"], case["B"], case["k"],
                                eq2_context(form, case["p"]), scale=case["scale"])
            got = (v.status, v.min_order,
                   None if v.witness is None else list(v.witness), v.precision,
                   v.budget_exhausted)
            assert got == (case["status"], case["min_order"], case["witness"],
                           case["precision"], case["budget_exhausted"]), case

    def test_disproof_precedes_the_root_ceiling(self):
        # 13^6 level-1 roots exceed EQ2_ROOT_CEILING.  At (A, B, k) = (1, 0, 0)
        # c^2 = R fails mod 13, so the congruence settles the call; at
        # (0, 1, 0) c^2 = R, so the stratum search still runs and refuses
        form = MgonalForm(5, (1, 13, 13, 13, 13, 13, 13))
        ctx = eq2_context(form, 13)
        v = solvable_eq2_at(form, 1, 0, 0, ctx)
        assert v.status == EQ2_UNSOLVABLE and not v.budget_exhausted
        with pytest.raises(ResourceError):
            solvable_eq2_at(form, 0, 1, 0, ctx)

    def test_large_primes_reach_the_root_ceiling_first(self):
        # 10007^3 is past the congruence ceiling: no state bitset is built,
        # and the stratum search refuses 10007^4 roots at once
        form = MgonalForm(10009, (1, 1, 1, 1, 10007))
        assert _congruence_depth(10007, 1) is None
        ctx = eq2_context(form, 10007)
        before = _pair_states.cache_info()
        with pytest.raises(ResourceError):
            solvable_eq2_at(form, 0, 1, 0, ctx)
        after = _pair_states.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_large_prime_disproof_is_mod_p(self):
        # past the congruence ceiling the disproof runs after the strata, mod
        # p: with every tail coefficient divisible by 97 the equation mod 97
        # is c^2 = R, so it is unsolvable exactly when that fails mod 97
        form = MgonalForm(7, (1, 97, 194))
        ctx = eq2_context(form, 97)
        for A, B, k in ((1, 0, 0), (0, 1, 0), (5, 3, 2), (10, 2, 7)):
            c, R = eq2_constants(form, A, B, k)
            v = solvable_eq2_at(form, A, B, k, ctx)
            expected = pair_congruence_oracle(c, R, 1, 1, (97, 194), 97)
            assert (v.status == EQ2_UNSOLVABLE) == (not expected), (A, B, k)
            if expected and v.witness is None:
                assert v.status == EQ2_UNKNOWN

    def test_precision_contract(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        with pytest.raises(ContractError):
            solvable_eq2_at(form, 1, 0, 0, PAdicContext(2, 2))

    def test_bad_prime_min_order_bound(self):
        """At the bad prime of <9,1,1,6,6>_7 every solvable instance admits a
        solution of min-order at most ord_3(9)/2 = 1; instances whose
        solutions are all imprimitive must report min_order 1."""
        form = MgonalForm(7, (9, 1, 1, 6, 6))
        ctx = eq2_context(form, 3)
        rng = random.Random(26)
        solvable_seen = 0
        for _ in range(40):
            A, B, k = rng.randint(0, 40), rng.randint(0, 4), rng.randint(0, 12)
            v = solvable_eq2_at(form, A, B, k, ctx)
            if v.min_order is not None:
                solvable_seen += 1
                assert v.min_order <= 1
        assert solvable_seen > 0

    def test_completion_identity_consistency(self):
        # the reduced-equation residual equals the completed-square value
        rng = random.Random(25)
        for _ in range(80):
            n = rng.randint(5, 6)
            coeffs = [rng.randint(1, 9) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(rng.randint(4, 9), tuple(coeffs))
            A, B, k = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
            x = tuple(rng.randint(-6, 6) for _ in range(n - 1))
            a = form.coeffs
            c = B + k * (form.m - 2)
            rq = reduced_quadratic(form)
            r = Fraction(1, rq.shift_denominator)
            y = [Fraction(xi) - c * r for xi in x]
            quad = sum(
                rq.gram[i][j] * y[i] * y[j]
                for i in range(n - 1) for j in range(n - 1)
            )
            completed = quad + c * c * (1 - sum(a[i] * r for i in range(1, n)))
            rhs = a[0] * (2 * A + B + k * (form.m - 4))
            assert eq2_residual(form, A, B, k, x) == completed - rhs
