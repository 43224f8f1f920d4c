import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from mgonal import (
    ContractError,
    InputError,
    MgonalForm,
    bareiss_determinant,
    eq2_residual,
    is_isotropic,
    reduced_quadratic,
)
import mgonal.quadratic as quadratic
from mgonal.arith import PAdicContext, least_nonresidue, legendre_symbol
from mgonal.quadratic import (
    EQ2_MARGIN,
    EQ2_PRIMITIVE,
    EQ2_UNKNOWN,
    EQ2_UNSOLVABLE,
    HEXAGONAL_PLANE,
    HYPERBOLIC_PLANE,
    _congruence_depth,
    _congruence_solvable,
    _congruence_split,
    _diagonal_solvable,
    _unit_reachable,
    eq2_constants,
    eq2_stability_depth,
    solvable_eq2_at,
)

from oracles import (
    UNDECIDED,
    _isotropy_reach_reference,
    _isotropy_stages,
    _isotropy_witness,
    _pair_stages,
    _square_class_rep,
    _tail_sum_states,
    cofactor_determinant,
    diagonal_oracle,
    diagonal_residue_oracle,
    isotropy_oracle,
    pair_congruence_oracle,
    pair_congruence_reference,
    pair_congruence_values,
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

    def test_packed_oracle_stages_match_the_numpy_scan(self):
        """The isotropy oracle's packed reach against its numpy reference, on
        every reduced tuple of rank <= 4 mod p^depth for depth <= 3; where a
        primitive zero is reached, the backtracked witness is one."""
        for p in (2, 3, 5):
            reps = sorted({_square_class_rep(a, p) for a in range(1, 4 * p * p)})
            for depth in (1, 2, 3):
                mod = p ** depth
                for rank in range(1, 5):
                    for coeffs in combinations_with_replacement(reps, rank):
                        stages = _isotropy_stages(coeffs, p, mod)
                        reach = _isotropy_reach_reference(coeffs, p, mod)
                        for flag in (0, 1):
                            packed = np.packbits(reach[:, flag], bitorder="little")
                            assert stages[-1][flag] == int.from_bytes(
                                packed.tobytes(), "little"), (coeffs, p, depth)
                        if stages[-1][1] & 1:
                            w = _isotropy_witness(coeffs, stages, p, mod)
                            assert any(x % p for x in w), (coeffs, p, depth)
                            assert sum(a * x * x for a, x in zip(coeffs, w)) % mod == 0


class TestEq2:
    def test_unit_rich_is_primitively_solvable(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        v = solvable_eq2_at(form, 1, 0, 0, 7)
        assert v.status == EQ2_PRIMITIVE

    def test_zero_parameters(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        v = solvable_eq2_at(form, 0, 0, 0, 3)
        assert v.status == EQ2_PRIMITIVE

    def test_witness_verifies(self):
        rng = random.Random(24)
        for _ in range(25):
            coeffs = [rng.randint(1, 9) for _ in range(5)]
            coeffs[rng.randrange(5)] = 1
            form = MgonalForm(rng.randint(3, 10), tuple(coeffs))
            p = rng.choice([3, 5, 7])
            A, B, k = rng.randint(0, 20), rng.randint(0, 3), rng.randint(0, 6)
            v = solvable_eq2_at(form, A, B, k, p)
            if v.witness is not None:
                res = eq2_residual(form, A, B, k, v.witness)
                assert res % p ** v.precision == 0
                assert any(x % p for x in v.witness)

    def test_imprimitive_solutions_are_primitive_at_scale_p(self):
        """A solution x = p y with y primitive is a primitive solution y of
        the equation at scale p: each case has no primitive solution at
        scale 1 and one at scale p."""
        for m, coeffs, (A, B, k), p in ((8, (9, 2, 2, 3, 3), (1, 0, 4), 3),
                                        (7, (18, 2, 1), (34, 0, 12), 2)):
            form = MgonalForm(m, coeffs)
            v = solvable_eq2_at(form, A, B, k, p)
            assert (v.status, v.witness) == (EQ2_UNSOLVABLE, None), form
            v = solvable_eq2_at(form, A, B, k, p, scale=p)
            assert v.status == EQ2_PRIMITIVE, form
            assert any(x % p for x in v.witness)
            assert eq2_residual(form, A, B, k, v.witness, scale=p) % p ** v.precision == 0
        # independent: at <9,2,2,3,3>_8 the congruence mod 3^4 is solvable
        # but has no solution with a unit coordinate
        form = MgonalForm(8, (9, 2, 2, 3, 3))
        c, R = eq2_constants(form, 1, 0, 4)
        a1, tail = form.coeffs[0], form.coeffs[1:]
        assert pair_congruence_oracle(c, R, 1, a1, tail, 3 ** 4)
        assert not pair_congruence_oracle(c, R, 1, a1, tail, 3 ** 4, p=3)

    def test_unsolvable_detected(self):
        form = MgonalForm(7, (9, 1, 3, 6, 6))
        v = solvable_eq2_at(form, 0, 0, 1, 3)
        assert v.status == EQ2_UNSOLVABLE
        # independent: the congruence mod 3^4 has no solutions at all
        mod = 3 ** 4
        c = 0 + 1 * (form.m - 2)
        R = form.coeffs[0] * (0 + 0 + 1 * (form.m - 4))
        assert not pair_congruence_oracle(
            c, R, 1, form.coeffs[0], form.coeffs[1:], mod
        )

    def test_pair_congruence_matches_the_oracle(self):
        """Seeded cases over ranks 3-6, p in {2, 3, 5, 7, 11}, scale in
        {1, p, p^2} and a_1 sometimes multiplied by p: the disproof equals
        the oracle mod p^d, d drawn from 1 to D - 1 (the oracle is slow mod
        p^D, which test_pair_states_match_the_oracle covers), no solution
        there makes the verdict unsolvable, and witnesses verify.  (The converse fails: an
        empty stratum walk or a deeper congruence also disproves.)  The multiplier
        g = scale^2 a_1 mod p^d of q is met as a unit, as p^j u with j >= 1
        and as 0."""
        rng = random.Random(2718)
        pool = (1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 18, 27)
        forms = []
        for rank in (3, 4, 5, 6):
            for _ in range(3):
                coeffs = [rng.choice(pool) for _ in range(rank)]
                coeffs[rng.randrange(rank)] = 1
                forms.append(MgonalForm(rng.randint(3, 20), tuple(coeffs)))
        statuses = set()
        multipliers = set()
        for base in forms:
            for _ in range(20):
                p = rng.choice((2, 3, 5, 7, 11))
                scale = rng.choice((1, p, p * p))
                form = base
                if rng.random() < 0.5 and gcd(*base.coeffs[1:]) % p:  # stays primitive
                    form = MgonalForm(base.m, (base.coeffs[0] * p,) + base.coeffs[1:])
                a1, tail = form.coeffs[0], form.coeffs[1:]
                A, B, k = rng.randint(0, 60), rng.randint(0, form.m - 3), \
                    rng.randint(0, 30)
                d = rng.randint(1, _congruence_depth(p) - 1)
                g = scale * scale * a1 % p ** d
                multipliers.add("zero" if g == 0 else "unit" if g % p else "p^j u")
                c, R = eq2_constants(form, A, B, k)
                expected = pair_congruence_oracle(c, R, scale, a1, tail, p ** d)
                case = (form.describe(), A, B, k, p, scale, d)
                assert _congruence_solvable(c, R, scale, a1, tail, p, d) == expected, case
                v = solvable_eq2_at(form, A, B, k, p, scale=scale)
                statuses.add(v.status)
                if not expected:
                    assert v.status == EQ2_UNSOLVABLE, case
                if v.witness is not None:
                    res = eq2_residual(form, A, B, k, v.witness, scale=scale)
                    assert res % p ** v.precision == 0, case
        assert {EQ2_PRIMITIVE, EQ2_UNSOLVABLE} <= statuses
        assert multipliers == {"zero", "unit", "p^j u"}

    def test_pair_states_match_the_oracle(self):
        """The Jordan-splitting kernel answers the pair congruence mod p^D as
        the oracle does, at every R mod p^D, for p in {2, 3, 5, 7, 11, 13},
        on tails of length 1-4 whose entries, like a_1 and c, are often
        divisible by p, at scales p^s * unit with s in {0, 1, 2}.  The cases
        meet both dyadic planes, and blocks where the square completes and
        where it does not, at each of the three s."""
        rng = random.Random(3141)
        answers, planes, kinds = set(), set(), set()
        for p, tails in ((2, 8), (3, 5), (5, 5), (7, 2), (11, 3), (13, 3)):
            depth = _congruence_depth(p)
            mod = p ** depth
            for _ in range(tails):
                tail = tuple(rng.choice((1, 2, 3, 5, 7)) * p ** rng.choice((0, 0, 1, 2))
                             for _ in range(rng.randint(1, 4)))
                for _ in range(4):
                    a1 = rng.choice((1, 3, 5, 7)) * p ** rng.choice((0, 0, 1, 2))
                    c = rng.randrange(mod) * p ** rng.choice((0, 0, 1, 2))
                    s = rng.choice((0, 1, 2))
                    scale = p ** s * rng.choice((1, 1, 3 if p == 2 else 2))
                    values = pair_congruence_values(c, scale, a1, tail, mod)
                    got = {R for R in range(mod)
                           if _congruence_solvable(c, R, scale, a1, tail, p, depth)}
                    assert got == values, (c, scale, a1, tail, p)
                    answers.add(len(values) < mod)
                    for k, L, ell in _congruence_split(a1, tail, p, depth):
                        planes.add(L)
                        kinds.add((all(c * x % p ** (s + k) == 0 for x in ell), s))
        assert answers == {True, False}
        assert {HYPERBOLIC_PLANE, HEXAGONAL_PLANE} <= planes
        assert kinds == {(completes, s) for completes in (True, False) for s in (0, 1, 2)}

    def test_packed_pair_oracle_matches_the_set_enumeration(self):
        """The packed pair oracle reaches exactly the (s, q) states of the
        set enumeration, under each unit flag, on every tail of rank <= 3
        with entries <= 6, mod 2^4 and mod 3^3, with and without p; and at
        seeded (c, R, scale, a_1) the two answer the congruence alike."""
        rng = random.Random(1618)
        answers = set()
        for p, mod in ((2, 16), (3, 27)):
            for rank in (1, 2, 3):
                for tail in combinations_with_replacement(range(1, 7), rank):
                    for unit_p in (None, p):
                        states = _tail_sum_states(tail, mod, unit_p)
                        packed = _pair_stages(tail, mod, unit_p)
                        for flag in (0, 1):
                            assert packed[flag] == sum(
                                1 << s * mod + q for s, q, unit in states
                                if unit == flag), (tail, mod, unit_p, flag)
                        for _ in range(4):
                            c, R, a1 = rng.randrange(mod), rng.randrange(mod), \
                                rng.randint(1, 12)
                            scale = rng.choice((1, p, p * p))
                            got = pair_congruence_oracle(c, R, scale, a1, tail, mod, p=unit_p)
                            assert got == pair_congruence_reference(
                                c, R, scale, a1, tail, mod, p=unit_p), \
                                (c, R, scale, a1, tail, mod, unit_p)
                            answers.add(got)
        assert answers == {True, False}

    def test_deep_witnesses_are_pinned(self):
        """Calls whose first certified stratum node lies at level 2 or deeper:
        the 39 such calls of the benchmark's admissible search (31 at p = 2,
        4 at p = 5, 3 at p = 3, 1 at p = 7) and four seeded level-3 calls at
        p = 2.
        Status, witness, precision and the budget flag must match the
        record."""
        cases = json.loads((GOLDEN / "eq2_deep_witnesses.json").read_text())
        assert len(cases) == 43
        for case in cases:
            form = MgonalForm(case["m"], tuple(case["coeffs"]))
            v = solvable_eq2_at(form, case["A"], case["B"], case["k"],
                                case["p"], scale=case["scale"])
            got = (v.status, None if v.witness is None else list(v.witness),
                   v.precision, v.budget_exhausted)
            assert got == (case["status"], case["witness"], case["precision"],
                           case["budget_exhausted"]), case

    def test_disproof_schedule_is_pinned(self, monkeypatch):
        """The record holds each call's status and the (p, d, result) of the
        pair-congruence disproofs that a two-tier schedule once ran for it,
        mod p^d for several d.  It covers 300 seeded calls (ranks 3-6,
        p <= 13, scale 1, p or p^2), <8,1,9,11,4>_11 at (0, 2, 10), scale 4,
        p = 2, refuted only mod 2^8, and the first 50 calls of
        test_cut_walks_prove_nothing's sample at its node budget of 3, whose
        levels are cut.  Each status holds; ``_congruence_solvable`` gives
        each of the 34 recorded results at its d; and a walk now tries at
        most one modulus, p^D, and tries it wherever a disproof once ran."""
        cases = json.loads((GOLDEN / "eq2_disproof_schedule.json").read_text())
        assert len(cases) == 351
        real = quadratic._congruence_solvable
        log = []

        def logged(c, R, scale, a1, tail, p, depth):
            log.append(depth)
            return real(c, R, scale, a1, tail, p, depth)

        monkeypatch.setattr(quadratic, "_congruence_solvable", logged)
        budget = quadratic.EQ2_NODE_BUDGET
        recorded = 0
        for case in cases:
            monkeypatch.setattr(quadratic, "EQ2_NODE_BUDGET",
                                case.get("node_budget", budget))
            log.clear()
            form = MgonalForm(case["m"], tuple(case["coeffs"]))
            v = solvable_eq2_at(form, case["A"], case["B"], case["k"], case["p"],
                                scale=case["scale"])
            assert v.status == case["status"], case
            assert log in ([], [_congruence_depth(case["p"])]), case
            assert log or not case["calls"], case
            c, R = eq2_constants(form, case["A"], case["B"], case["k"])
            for p, d, result in case["calls"]:
                assert real(c, R, case["scale"], form.coeffs[0], form.coeffs[1:],
                            p, d) == result, (case, d)
                recorded += 1
        assert recorded == 34

    def test_tail_divisible_by_p_needs_no_root_scan(self):
        # every tail coefficient is divisible by 13, so the value is c^2 - R
        # mod 13 at every y.  At (A, B, k) = (1, 0, 0) that is a unit, so the
        # call is unsolvable; at (0, 1, 0) c^2 = R, and the first residues of
        # the 13^6 certify at once
        form = MgonalForm(5, (1, 13, 13, 13, 13, 13, 13))
        v = solvable_eq2_at(form, 1, 0, 0, 13)
        assert v.status == EQ2_UNSOLVABLE and not v.budget_exhausted
        v = solvable_eq2_at(form, 0, 1, 0, 13)
        assert v.status == EQ2_PRIMITIVE and not v.budget_exhausted
        assert eq2_residual(form, 0, 1, 0, v.witness) % 13 ** v.precision == 0

    def test_large_prime_certifies_without_a_state_table(self):
        # 10007^2 is past the congruence ceiling, so no splitting is read;
        # the root scan, cut at the budget, certifies its first nonzero root
        form = MgonalForm(10009, (1, 1, 1, 1, 10007))
        assert _congruence_depth(10007) == 0
        before = _congruence_split.cache_info()
        v = solvable_eq2_at(form, 0, 1, 0, 10007)
        assert v.status == EQ2_PRIMITIVE and not v.budget_exhausted
        assert eq2_residual(form, 0, 1, 0, v.witness) % 10007 ** v.precision == 0
        after = _congruence_split.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_no_pair_table_where_it_cannot_refute(self):
        """No splitting is read after a level-1 walk with no survivors and
        no cut, which is already a proof, nor by a call that certifies at
        level 1.  At p = 5 and 7, D = 3 is past the p^2 that a survivor of
        level 1 solves, so the deep witnesses there read one."""
        cases = json.loads((GOLDEN / "eq2_deep_witnesses.json").read_text())
        calls = [(MgonalForm(5, (1, 13, 13, 13, 13, 13, 13)), (1, 0, 0), 13, 1, False),
                 (MgonalForm(5, (1, 13, 13, 13, 13, 13, 13)), (0, 1, 0), 13, 1, False)]
        calls += [(MgonalForm(case["m"], tuple(case["coeffs"])),
                   (case["A"], case["B"], case["k"]), case["p"], case["scale"], True)
                  for case in cases if case["p"] >= 5]
        assert len(calls) == 7
        for form, (A, B, k), p, scale, split in calls:
            before = _congruence_split.cache_info()
            solvable_eq2_at(form, A, B, k, p, scale=scale)
            after = _congruence_split.cache_info()
            assert (after.hits + after.misses > before.hits + before.misses) == split, form

    def test_newly_decided_verdicts(self):
        """Calls that the node budget or the depth once left undecided,
        each unsolvable with an independent certificate: no solution of the
        pair congruence, found by the oracle (primitive vectors only where
        c^2 - R is a unit, so that only stratum 0 can hold a solution), or
        by the kernel that test_pair_states_match_the_oracle checks."""
        cases = (  # m, coeffs, (A, B, k), p, scale, oracle modulus, primitive
            (13, (11, 11, 1), (32, 7, 15), 11, 1, 121, False),
            (9, (13, 1, 18), (11, 6, 16), 13, 1, 169, True),
            (5, (135, 13, 10, 5, 1), (30, 0, 15), 5, 25, 125, False),
        )
        for m, coeffs, (A, B, k), p, scale, mod, primitive in cases:
            form = MgonalForm(m, coeffs)
            c, R = eq2_constants(form, A, B, k)
            if primitive:
                assert (c * c - R) % p
            assert not pair_congruence_oracle(c, R, scale, coeffs[0], coeffs[1:], mod,
                                              p=p if primitive else None)
            v = solvable_eq2_at(form, A, B, k, p, scale=scale)
            assert v.status == EQ2_UNSOLVABLE and not v.budget_exhausted, form
        form = MgonalForm(11, (8, 1, 9, 11, 4))
        c, R = eq2_constants(form, 0, 2, 10)
        assert not _congruence_solvable(c, R, 4, 8, (1, 9, 11, 4), 2, 8)
        v = solvable_eq2_at(form, 0, 2, 10, 2, scale=4)
        assert v.status == EQ2_UNSOLVABLE and not v.budget_exhausted

    def test_stratum_zero_walks_decide(self):
        """Calls once undecided only because a later stratum x = p^sigma y
        was walked: their one walk runs out of survivors, so each has no
        primitive solution, and the oracle finds none among the primitive
        vectors mod 2^4, 3^6 and 5^4."""
        cases = (  # m, coeffs, (A, B, k), p, oracle exponent
            (5, (4, 1, 10), (8, 0, 0), 2, 4),
            (5, (27, 27, 1, 1), (49, 0, 10), 3, 6),
            (8, (50, 2, 10, 1), (12, 3, 7), 5, 4),
        )
        for m, coeffs, (A, B, k), p, e in cases:
            form = MgonalForm(m, coeffs)
            c, R = eq2_constants(form, A, B, k)
            a1, tail = coeffs[0], coeffs[1:]
            assert not pair_congruence_oracle(c, R, 1, a1, tail, p ** e, p=p)
            v = solvable_eq2_at(form, A, B, k, p)
            assert (v.status, v.witness, v.budget_exhausted) == \
                (EQ2_UNSOLVABLE, None, False), form

    def test_cut_walks_prove_nothing(self, monkeypatch):
        """With the node budget lowered to 3, root scans and levels are cut
        almost at once.  A cut walk must not pass for an empty one: no call
        that is solvable under the normal budget may come out unsolvable, and
        witnesses still verify."""
        rng = random.Random(4242)
        cases = []
        for _ in range(150):
            rank = rng.randint(3, 5)
            coeffs = [rng.randint(1, 12) for _ in range(rank)]
            coeffs[rng.randrange(rank)] = 1
            form = MgonalForm(rng.randint(3, 12), tuple(coeffs))
            p = rng.choice((3, 5, 7, 11, 13))
            cases.append((form, rng.randint(0, 40), rng.randint(0, form.m - 3),
                          rng.randint(0, 20), p, rng.choice((1, p))))
        full = [solvable_eq2_at(f, A, B, k, p, scale=s)
                for f, A, B, k, p, s in cases]
        monkeypatch.setattr(quadratic, "EQ2_NODE_BUDGET", 3)
        cut_open = 0
        for (f, A, B, k, p, s), v in zip(cases, full):
            w = solvable_eq2_at(f, A, B, k, p, scale=s)
            if v.witness is not None:
                assert w.status != EQ2_UNSOLVABLE, (f.describe(), A, B, k, p, s)
            if w.witness is not None:
                assert eq2_residual(f, A, B, k, w.witness, scale=s) % p ** w.precision == 0
            cut_open += w.status == EQ2_UNKNOWN and w.budget_exhausted
        assert cut_open

    def test_large_prime_disproof_is_mod_p(self):
        # past the congruence ceiling the disproof is the congruence mod p:
        # with every tail coefficient divisible by 97 the equation mod 97
        # is c^2 = R, so it is unsolvable exactly when that fails mod 97
        form = MgonalForm(7, (1, 97, 194))
        for A, B, k in ((1, 0, 0), (0, 1, 0), (5, 3, 2), (10, 2, 7)):
            c, R = eq2_constants(form, A, B, k)
            v = solvable_eq2_at(form, A, B, k, 97)
            expected = pair_congruence_oracle(c, R, 1, 1, (97, 194), 97)
            assert (v.status == EQ2_UNSOLVABLE) == (not expected), (A, B, k)
            if expected and v.witness is None:
                assert v.status == EQ2_UNKNOWN

    def test_roots_match_the_enumeration(self):
        """``_eq2_roots`` yields exactly the y mod p where the value is 0 mod
        p, in lexicographic order.  Seeded cases at p in {3, 5, 7, 11, 13}
        are forced into each degenerate branch of the last coordinate's
        quadratic a z^2 + b z + k: t_n = 0 and t_n = -a_1 mod p (a = 0, so
        linear where b != 0 and constant where b = 0, with every z or no z a
        root), and eff = 0 or every t_i = 0 mod p (the value is c^2 - R at
        every y)."""
        def value(c, R, eff, a1, tail, y):
            s = sum(t * yi for t, yi in zip(tail, y))
            q = sum(t * yi * yi for t, yi in zip(tail, y))
            return (c - eff * s) ** 2 + eff * eff * a1 * q - R

        rng = random.Random(1913)
        shapes = set()
        for p in (3, 5, 7, 11, 13):
            for kind in ("random", "t_n = 0", "t_n = -a_1", "eff = 0", "tail = 0") * 4:
                n = rng.randint(1, 4 if p < 11 else 3)
                a1 = rng.randint(1, 30)
                tail = [rng.randint(1, 30) for _ in range(n)]
                eff = rng.randint(1, 30)
                c, R = rng.randint(0, 200), rng.randint(-50, 400)
                if kind == "t_n = 0":
                    tail[-1] = p * rng.randint(1, 4)
                elif kind == "t_n = -a_1":
                    tail[-1] = -a1 % p + p * rng.randint(1, 4)
                elif kind == "eff = 0":
                    eff = p * rng.randint(1, 3)
                elif kind == "tail = 0":
                    tail = [p * rng.randint(1, 4) for _ in range(n)]
                if kind in ("eff = 0", "tail = 0"):
                    if rng.random() < 0.5:
                        R = c * c + p * rng.randint(-9, 9)
                    shapes.add(f"{kind}, c^2 = R: {(c * c - R) % p == 0}")
                got = list(quadratic._eq2_roots(c, R, eff, a1, tuple(tail), p))
                expected = [y for y in product(range(p), repeat=n)
                            if value(c, R, eff, a1, tail, y) % p == 0]
                assert got == expected, (p, kind, c, R, eff, a1, tail)
                if kind in ("eff = 0", "tail = 0"):
                    continue
                a = eff * eff * tail[-1] * (tail[-1] + a1) % p
                for prefix in product(range(p), repeat=n - 1):
                    lin0 = c - eff * sum(t * yi for t, yi in zip(tail, prefix))
                    q0 = sum(t * yi * yi for t, yi in zip(tail, prefix))
                    b = 2 * lin0 * eff * tail[-1] % p
                    k = (lin0 * lin0 + eff * eff * a1 * q0 - R) % p
                    shapes.add("quadratic" if a else "linear" if b else
                               "no z" if k else "every z")
        assert shapes == {"quadratic", "linear", "no z", "every z",
                          "eff = 0, c^2 = R: True", "eff = 0, c^2 = R: False",
                          "tail = 0, c^2 = R: True", "tail = 0, c^2 = R: False"}

    def test_large_prime_rank_three_calls(self):
        # past the congruence ceiling: <1,1,1009>_5 at (3, 1, 2) has no root
        # mod 1009, so its stratum walk is empty at once, and seeded calls at
        # p in {89, 97} are unsolvable exactly when the congruence mod p has no
        # solution
        form = MgonalForm(5, (1, 1, 1009))
        v = solvable_eq2_at(form, 3, 1, 2, 1009)
        assert v.status == EQ2_UNSOLVABLE and not v.budget_exhausted
        rng = random.Random(8997)
        statuses = set()
        for _ in range(40):
            p = rng.choice((89, 97))
            coeffs = [rng.randint(1, 12) for _ in range(3)]
            coeffs[rng.randrange(3)] = 1
            if rng.random() < 0.3:
                coeffs[2] *= p
            form = MgonalForm(rng.randint(3, 12), tuple(coeffs))
            A, B, k = rng.randint(0, 60), rng.randint(0, form.m - 3), rng.randint(0, 30)
            scale = rng.choice((1, p))
            c, R = eq2_constants(form, A, B, k)
            v = solvable_eq2_at(form, A, B, k, p, scale=scale)
            statuses.add(v.status)
            expected = pair_congruence_oracle(c, R, scale, coeffs[0], coeffs[1:], p)
            case = (form.describe(), A, B, k, p, scale)
            assert (v.status == EQ2_UNSOLVABLE) == (not expected), case
            if v.witness is not None:
                res = eq2_residual(form, A, B, k, v.witness, scale=scale)
                assert res % p ** v.precision == 0, case
        assert {EQ2_PRIMITIVE, EQ2_UNSOLVABLE} <= statuses

    def test_depth_is_the_forms(self):
        """The classifier works out its own depth: a verdict's precision is
        the stability depth at p plus ``EQ2_MARGIN``, and a p that is not
        prime is refused."""
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        for p in (4, 9):
            with pytest.raises(InputError):
                solvable_eq2_at(form, 1, 0, 0, p)
        for form, p in ((form, 2), (form, 5), (MgonalForm(7, (9, 1, 1, 6, 6)), 3)):
            v = solvable_eq2_at(form, 1, 0, 0, p)
            assert v.precision == eq2_stability_depth(form, p) + EQ2_MARGIN

    def test_bad_prime_min_order_bound(self):
        """At the bad prime of <9,1,1,6,6>_7 every solvable instance admits a
        solution of min-order at most ord_3(9)/2 = 1: a solution p^sigma y,
        y primitive, is a primitive one at scale 3^sigma, so an instance
        primitively solvable at scale 9 is so at scale 1 or 3."""
        form = MgonalForm(7, (9, 1, 1, 6, 6))
        rng = random.Random(26)
        solvable_seen = 0
        for _ in range(40):
            A, B, k = rng.randint(0, 40), rng.randint(0, 4), rng.randint(0, 12)
            primitive = [solvable_eq2_at(form, A, B, k, 3, scale=3 ** s).status
                         == EQ2_PRIMITIVE for s in range(3)]
            solvable_seen += primitive[0] or primitive[1]
            assert primitive[0] or primitive[1] or not primitive[2], (A, B, k)
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
