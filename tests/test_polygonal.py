import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from mgonal import (
    InputError,
    MgonalForm,
    coefficient_gcd,
    decompose_target,
    evaluate,
    invert_polygonal,
    locally_represents,
    polygonal_number,
    represents,
)
from mgonal import polygonal
from mgonal.polygonal import _term_table
from mgonal.quadratic import eq2_residual

from oracles import first_witnesses, reachable_values


def test_polygonal_examples():
    assert polygonal_number(5, 3) == 12
    assert polygonal_number(4, -7) == 49
    assert polygonal_number(3, -2) == 1


def test_polygonal_validates_m():
    with pytest.raises(InputError):
        polygonal_number(2, 1)


def test_basic_identities():
    for m in range(3, 101):
        assert polygonal_number(m, 0) == 0
        assert polygonal_number(m, 1) == 1


def test_nonnegative_grid():
    for m in range(3, 41):
        for x in range(-200, 201):
            assert polygonal_number(m, x) >= 0


def test_invert_examples():
    assert invert_polygonal(6, 28) == 4
    # exhaustive scan oracle for the next two
    assert {x for x in range(-10, 11) if polygonal_number(5, x) == 7} == {-2}
    assert invert_polygonal(5, 7) == -2
    assert all(polygonal_number(5, x) != 3 for x in range(-10, 11))
    assert invert_polygonal(5, 3) is None


def test_invert_round_trip():
    rng = random.Random(11)
    for _ in range(400):
        m = rng.randint(3, 30)
        x = rng.randint(-150, 150)
        value = polygonal_number(m, x)
        y = invert_polygonal(m, value)
        assert y is not None and polygonal_number(m, y) == value


def test_term_tables_against_enumeration():
    # every cap, not only powers of two: the census builds at its bound
    for m in range(3, 13):
        for a in range(1, 6):
            # P_m(x) >= |x| - 1, so |x| <= 301 covers every value <= 300
            every = sorted({a * polygonal_number(m, x) for x in range(-301, 302)})
            for cap in range(1, 300):
                values, x_of = _term_table(m, a, cap)
                assert values == [v for v in every if v <= cap], (m, a, cap)
                assert list(x_of) == values
                assert all(x == invert_polygonal(m, v // a) for v, x in x_of.items())


def test_form_validation():
    with pytest.raises(InputError):
        MgonalForm(5, (2, 4, 6, 8, 10))
    assert coefficient_gcd((2, 4, 6, 8, 10)) == 2
    with pytest.raises(InputError):
        MgonalForm(5, ())
    with pytest.raises(InputError):
        MgonalForm(5, (1, 0, 1, 1, 1))
    with pytest.raises(InputError):
        MgonalForm(2, (1, 1, 1, 1, 1))


def test_evaluate_examples():
    assert evaluate(MgonalForm(5, (1, 1, 1, 1, 1)), (1, 1, 1, 0, 0)) == 3
    assert evaluate(MgonalForm(5, (1, 2, 3, 4, 5)), (1, 0, 0, 0, 0)) == 1
    assert evaluate(MgonalForm(6, (2, 1, 1, 1, 1)), (0, -1, 0, 0, 0)) == 3
    with pytest.raises(InputError):
        evaluate(MgonalForm(5, (1, 1, 1, 1, 1)), (1, 2))


def test_decompose_examples():
    d = decompose_target(7, 23)
    assert (d.A, d.B) == (4, 3)
    assert decompose_target(5, 3) == decompose_target(5, 3)
    assert (decompose_target(5, 3).A, decompose_target(5, 3).B) == (1, 0)
    assert (decompose_target(5, 2).A, decompose_target(5, 2).B) == (0, 2)


def test_decompose_unique_and_m3():
    rng = random.Random(12)
    for _ in range(200):
        m = rng.randint(3, 20)
        N = rng.randint(0, 10**6)
        d = decompose_target(m, N)
        assert d.N == d.A * (m - 2) + d.B
        assert 0 <= d.B <= m - 3
    assert decompose_target(3, 17).B == 0


class TestRepresents:
    def test_five_squares_witness(self):
        w = represents(MgonalForm(4, (1, 1, 1, 1, 1)), 5)
        assert w.x == (2, 1, 0, 0, 0)

    def test_pentagonal_sum(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        # exhaustive oracle: generalized pentagonal values up to 33
        values = sorted({polygonal_number(5, x) for x in range(-10, 11)
                         if polygonal_number(5, x) <= 33})
        reachable = {0}
        for _ in range(5):
            reachable = {r + v for r in reachable for v in values if r + v <= 33}
        assert 33 in reachable
        w = represents(form, 33)
        assert w is not None and evaluate(form, w.x) == 33

    def test_zero(self):
        w = represents(MgonalForm(5, (1, 1, 1, 1, 1)), 0)
        assert w.x == (0, 0, 0, 0, 0)

    def test_witness_always_evaluates(self):
        rng = random.Random(13)
        for _ in range(120):
            m = rng.randint(3, 10)
            n = rng.randint(1, 5)
            coeffs = [rng.randint(1, 6) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(m, tuple(coeffs))
            N = rng.randint(0, 300)
            w = represents(form, N)
            if w is not None:
                assert evaluate(form, w.x) == N

    def test_witnesses_follow_the_documented_order(self):
        # every N <= 400, against a reference that shares no table or search
        # with ``represents``: the witness itself must not drift
        rng = random.Random(21)
        unreached = 0
        for rank in range(1, 6):
            for m in (3, 4, 5, 8, 16):
                for _ in range(2):
                    coeffs = [rng.randint(1, 6) for _ in range(rank)]
                    coeffs[rng.randrange(rank)] = 1
                    form = MgonalForm(m, tuple(coeffs))
                    expected = first_witnesses(form, 400)
                    assert expected[0] == (0,) * rank
                    unreached += expected.count(None)
                    for N, x in enumerate(expected):
                        w = represents(form, N)
                        assert (None if w is None else w.x) == x, (form, N)
        assert unreached > 0

    def test_witnesses_on_nested_coefficients(self, monkeypatch):
        # forms whose later coefficients share a factor, so the search skips
        # every value that leaves a remainder the later terms cannot reach.
        # Witnesses come from the reference order; an exhausted search must
        # visit exactly the prefixes whose remainder the gcd of the later
        # coefficients divides.  Each node of the search bisects its table
        # once, so counting bisections counts nodes, once the tables (which
        # bisect when built) are cached
        nodes = 0

        def counting_bisect(values, x):
            nonlocal nodes
            nodes += 1
            return bisect_right(values, x)

        monkeypatch.setattr(polygonal, "bisect_right", counting_bisect)
        forms = ((16, (1, 3, 9, 27, 27)), (14, (1, 5, 25, 25, 25)),
                 (11, (1, 3, 9, 9, 27)), (5, (1, 2, 4, 4)), (5, (4, 4, 2, 1)),
                 (5, (1, 6)))
        exhausted = interior = 0
        for m, coeffs in forms:
            form = MgonalForm(m, coeffs)
            later = [math.gcd(*coeffs[i + 1:]) for i in range(len(coeffs) - 1)]
            values = [sorted({a * polygonal_number(m, x) for x in range(-30, 31)})
                      for a in coeffs[:-1]]
            for N, x in enumerate(first_witnesses(form, 400)):
                w = represents(form, N)
                assert (None if w is None else w.x) == x, (form, N)
                if x is not None or (len(coeffs) >= 3
                                     and not locally_represents(form, N)):
                    continue
                nodes = 0
                represents(form, N)
                rems, expected = [N], 1
                for vals, g in zip(values[:-1], later):
                    rems = [r - v for r in rems for v in vals
                            if v <= r and (r - v) % g == 0]
                    expected += len(rems)
                assert nodes == expected, (form, N)
                exhausted += 1
                interior += len(coeffs) >= 3 and max(later[:-1]) > 1
        assert exhausted > 0 and interior > 0

    def test_not_represented(self):
        # <2,3>_4: 2x^2 + 3y^2 never equals 1
        assert represents(MgonalForm(4, (2, 3)), 1) is None
        # below rank 3 the local criterion does not apply: search, not raise
        assert represents(MgonalForm(4, (2, 3)), 5).x == (1, 1)
        assert represents(MgonalForm(4, (1,)), 2) is None
        assert represents(MgonalForm(4, (1,)), 49).x == (7,)

    def test_locally_obstructed_target_returns_none(self):
        # an exhaustive search over either region takes over a minute, so the
        # local criterion at p = 3 has to settle it; in the second form it
        # also builds the orbits of the prime 257
        N = 320000
        assert N % 27 == 23
        for coeffs in ((1, 3, 9, 27, 27), (1, 3, 9, 27, 27 * 257)):
            form = MgonalForm(16, coeffs)
            # independent certificate: no value of the form is 23 mod 27
            # (P_m(x) mod 27 has period 27 in x, since 2 is invertible mod 27)
            sums = {0}
            for a in form.coeffs:
                terms = {a * polygonal_number(16, x) % 27 for x in range(27)}
                sums = {(s + t) % 27 for s in sums for t in terms}
            assert 23 not in sums
            assert represents(form, N) is None
        assert not locally_represents(MgonalForm(16, (1, 3, 9, 27, 27)), N)

    def test_targets_at_large_primes_are_searched(self):
        # the local criterion passes at 257, 251, 10^9 + 7 and at 2 with
        # 2048 = 2^11, and the search finds the witness
        assert represents(MgonalForm(3, (1, 1, 257)), 2).x == (1, 1, 0)
        assert represents(MgonalForm(3, (1, 1, 1_000_000_007)), 2).x == (1, 1, 0)
        assert represents(MgonalForm(3, (1, 1, 251)), 2).x == (1, 1, 0)
        assert represents(MgonalForm(4, (1, 1, 2048)), 2).x == (1, 1, 0)

    #: (m, coeffs, N, witness): seeded represented targets up to 10^6 and the
    #: witness of the documented visiting order, so that order cannot drift.
    PINNED_WITNESSES = (
        (16, (1, 3, 9, 27, 27), 214149, (-174, 5, -2, -1, 1)),
        (14, (1, 5, 25, 25, 25), 96, (1, 2, 1, 0, 0)),
        (12, (2, 3, 5, 7, 11), 71910, (85, -4, -1, 1, 0)),
        (11, (1, 3, 9, 9, 27), 15249, (-57, 5, -1, -1, 0)),
        (4, (1, 1, 1, 1, 1), 14163, (119, 1, 1, 0, 0)),
        (5, (1, 2, 3, 4, 5), 25780, (131, -5, 2, 1, 1)),
        (8, (1, 1, 4), 74589, (157, 18, -1)),
        (3, (1, 2, 3), 217398, (658, 16, 14)),
        (10, (1, 1, 1, 2, 4), 62270, (125, 6, 1, -1, 1)),
        (7, (3, 9, 1, 6, 6), 3598, (22, 2, -1, 0, 0)),
        (16, (1, 3, 9, 27, 27), 415, (-7, 1, 0, 1, 0)),
        (14, (1, 5, 25, 25, 25), 774, (-8, 0, 2, 0, 0)),
        (12, (2, 3, 5, 7, 11), 2910, (17, -1, -1, 2, 0)),
        (11, (1, 3, 9, 9, 27), 9021, (-42, -6, 2, -1, -1)),
        (4, (1, 1, 1, 1, 1), 1365, (36, 8, 2, 1, 0)),
        (5, (1, 2, 3, 4, 5), 1983, (-36, -2, 1, 1, 0)),
        (8, (1, 1, 4), 414289, (-371, 14, -2)),
        (3, (1, 2, 3), 5487, (102, 0, 12)),
        (10, (1, 1, 1, 2, 4), 55652, (118, 9, -1, 1, 1)),
        (7, (3, 9, 1, 6, 6), 3096, (-20, 0, 0, 1, 0)),
    )

    def test_pinned_witnesses(self):
        for m, coeffs, N, x in self.PINNED_WITNESSES:
            form = MgonalForm(m, coeffs)
            assert evaluate(form, x) == N
            assert represents(form, N).x == x, (m, coeffs, N)

    def test_soundness_bridge(self):
        rng = random.Random(14)
        for _ in range(40):
            m = rng.randint(3, 9)
            coeffs = tuple(rng.randint(1, 5) for _ in range(4)) + (1,)
            form = MgonalForm(m, coeffs)
            N = rng.randint(0, 120)
            reached = N in reachable_values(form, N)
            assert (represents(form, N) is not None) == reached
            if reached:
                assert locally_represents(form, N).represented


class TestReductionIdentity:
    """The representation system and the reduced equation determine each other:
    f_eq2(x_2..x_n) = a_1 r_quad + r_lin (r_lin - 2 a_1 x_1)."""

    def _random_instance(self, rng):
        n = rng.choice([5, 6])
        m = rng.randint(3, 12)
        coeffs = [rng.randint(1, 12) for _ in range(n)]
        coeffs[rng.randrange(n)] = 1
        form = MgonalForm(m, tuple(coeffs))
        A = rng.randint(-20, 20)
        B = rng.randint(-20, 20)
        k = rng.randint(-20, 20)
        x = tuple(rng.randint(-8, 8) for _ in range(n))
        return form, A, B, k, x

    def test_completion_of_square(self):
        rng = random.Random(15)
        for _ in range(120):
            form, A, B, k, x = self._random_instance(rng)
            a = form.coeffs
            n = form.rank
            c = B + k * (form.m - 2)
            s = sum(a[i] * x[i] for i in range(1, n))
            lhs = Fraction((c - s) ** 2 + sum(
                a[0] * a[i] * x[i] * x[i] for i in range(1, n)
            ))
            r = Fraction(1, sum(a))
            y = [Fraction(x[i]) - c * r for i in range(1, n)]
            quad = sum(
                (a[0] * a[i + 1] + a[i + 1] ** 2) * y[i] * y[i]
                for i in range(n - 1)
            ) + 2 * sum(
                a[i + 1] * a[j + 1] * y[i] * y[j]
                for i in range(n - 1) for j in range(i + 1, n - 1)
            )
            rhs = quad + c * c * (1 - sum(a[i] * r for i in range(1, n)))
            assert lhs == rhs

    def test_solution_bijection(self):
        rng = random.Random(16)
        for _ in range(200):
            form, A, B, k, x = self._random_instance(rng)
            s2 = sum(a * xi * xi for a, xi in zip(form.coeffs, x))
            s1 = sum(a * xi for a, xi in zip(form.coeffs, x))
            # forward: build (A, B) making x solve the system, then the
            # reduced equation must vanish on the tail
            B_val = s1 - k * (form.m - 2)
            num = s2 - B_val - k * (form.m - 4)
            assert num % 2 == 0
            A_val = num // 2
            assert eq2_residual(form, A_val, B_val, k, x[1:]) == 0
            # reverse: whenever the reduced equation vanishes and the first
            # coordinate is integral, the system holds
            a1 = form.coeffs[0]
            c = B_val + k * (form.m - 2)
            tail_s = sum(form.coeffs[i] * x[i] for i in range(1, form.rank))
            assert (c - tail_s) % a1 == 0
            x1 = (c - tail_s) // a1
            assert x1 == x[0]
            full = (x1,) + x[1:]
            ss2 = sum(a * xi * xi for a, xi in zip(form.coeffs, full))
            ss1 = sum(a * xi for a, xi in zip(form.coeffs, full))
            assert ss2 == 2 * A_val + B_val + k * (form.m - 4)
            assert ss1 == B_val + k * (form.m - 2)

    def test_reverse_direction_random_tails(self):
        # a vanishing reduced equation with integral first coordinate gives a
        # solution of the system
        rng = random.Random(17)
        built = 0
        while built < 60:
            n = rng.choice([5, 6])
            m = rng.randint(3, 12)
            coeffs = [rng.randint(1, 12) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(m, tuple(coeffs))
            k = rng.randint(-20, 20)
            tail = tuple(rng.randint(-8, 8) for _ in range(n - 1))
            x1 = rng.randint(-8, 8)
            a = form.coeffs
            s1 = a[0] * x1 + sum(ai * xi for ai, xi in zip(a[1:], tail))
            B = s1 - k * (m - 2)
            s2 = a[0] * x1 * x1 + sum(
                ai * xi * xi for ai, xi in zip(a[1:], tail)
            )
            num = s2 - B - k * (m - 4)
            if num % 2:
                continue
            A = num // 2
            assert eq2_residual(form, A, B, k, tail) == 0
            built += 1
