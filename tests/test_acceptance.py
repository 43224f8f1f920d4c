"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the lines).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mgonal import (
    MgonalForm,
    PAdicContext,
    bad_primes,
    bareiss_determinant,
    eq2_residual,
    evaluate,
    exceptional_set,
    hilbert_symbol,
    jordan_decompose,
    k_constant,
    k_stability_exponent,
    locally_represents,
    locally_represents_at,
    ordp,
    polygonal_number,
    represents,
    scaling_experiment,
    unit_deficient_primes,
)
from mgonal.localrep import relevant_primes
from mgonal.polygonal import decompose_target
from mgonal.quadratic import (
    EQ2_MARGIN,
    EQ2_PRIMITIVE,
    _diagonal_solvable,
    eq2_stability_depth,
    solvable_eq2_at,
)
from mgonal.theorem import DYADIC, ODD_BAD, ODD_GOOD, admissible_k

from oracles import (
    UNDECIDED,
    diagonal_oracle,
    hilbert_oracle,
    local_rep_oracle,
)
from test_census import simple_double_scan


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.1f}s)"
    )
    print(f"ACCEPTANCE {number:2d} PASS  {description} ({elapsed:.1f}s)")


def test_criterion_01_polygonal_identities():
    with criterion(1, "polygonal identities, m in [3,40], |x| <= 200", 1.0):
        for m in range(3, 41):
            assert polygonal_number(m, 0) == 0
            assert polygonal_number(m, 1) == 1
            for x in range(-200, 201):
                v = polygonal_number(m, x)
                assert v >= 0
                if m == 4:
                    assert v == x * x


def test_criterion_02_reduction_identity():
    with criterion(2, "reduction identity on 500 random instances", 5.0):
        rng = random.Random(90210)
        for _ in range(500):
            n = rng.choice([5, 6])
            m = rng.randint(3, 12)
            coeffs = [rng.randint(1, 12) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(m, tuple(coeffs))
            a = form.coeffs
            A = rng.randint(-20, 20)
            B = rng.randint(-20, 20)
            k = rng.randint(-20, 20)
            x = tuple(rng.randint(-8, 8) for _ in range(n))
            # completion of the square, exact over the rationals
            c = B + k * (m - 2)
            s = sum(a[i] * x[i] for i in range(1, n))
            lhs = Fraction(
                (c - s) ** 2 + sum(a[0] * a[i] * x[i] * x[i] for i in range(1, n))
            )
            r = Fraction(1, sum(a))
            y = [Fraction(x[i]) - c * r for i in range(1, n)]
            quad = sum(
                (a[0] * a[i + 1] + a[i + 1] ** 2) * y[i] * y[i]
                for i in range(n - 1)
            ) + 2 * sum(
                a[i + 1] * a[j + 1] * y[i] * y[j]
                for i in range(n - 1) for j in range(i + 1, n - 1)
            )
            assert lhs == quad + c * c * (1 - sum(a[i] * r for i in range(1, n)))
            # solution bijection through the system of equations
            s2 = sum(ai * xi * xi for ai, xi in zip(a, x))
            s1 = sum(ai * xi for ai, xi in zip(a, x))
            B_val = s1 - k * (m - 2)
            assert (s2 - B_val - k * (m - 4)) % 2 == 0
            A_val = (s2 - B_val - k * (m - 4)) // 2
            assert eq2_residual(form, A_val, B_val, k, x[1:]) == 0
            x1 = (B_val + k * (m - 2) - sum(
                a[i] * x[i] for i in range(1, n)
            )) // a[0]
            assert x1 * a[0] + sum(a[i] * x[i] for i in range(1, n)) == s1


def test_criterion_03_local_oracle_equivalence():
    with criterion(3, "local decisions match brute congruence + lift on 300 instances", 120.0):
        rng = random.Random(30303)
        done_diag = done_form = 0
        while done_diag < 150:
            p = rng.choice([2, 3, 5, 7])
            n = rng.randint(1, 4)
            coeffs = tuple(rng.randint(1, 45) for _ in range(n))
            c = rng.randint(-500, 500)
            expected = diagonal_oracle(coeffs, c, p, max_tuples=120_000)
            if expected is UNDECIDED:
                continue
            assert _diagonal_solvable(coeffs, c, p) == expected
            done_diag += 1
        while done_form < 150:
            p = rng.choice([2, 3, 5, 7])
            n = rng.randint(1, 5)
            coeffs = [rng.randint(1, 45) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(rng.randint(3, 12), tuple(coeffs))
            N = rng.randint(0, 500)
            expected = local_rep_oracle(form, N, p, max_tuples=120_000)
            if expected is UNDECIDED:
                continue
            assert locally_represents_at(form, N, p).represented == expected
            done_form += 1


def test_criterion_04_hilbert_symbol():
    with criterion(4, "Hilbert symbol laws + brute agreement, |a|,|b| <= 30", 60.0):
        rng = random.Random(40404)
        values = [v for v in range(-30, 31) if v]
        for p in (2, 3, 5):
            for a in values:
                for b in values:
                    assert hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7, 11])
            a = rng.randint(1, 1000) * rng.choice([1, -1])
            b = rng.randint(1, 1000) * rng.choice([1, -1])
            c = rng.randint(1, 1000) * rng.choice([1, -1])
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert hilbert_symbol(a, b * c, p) == (
                hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)
            )


def test_criterion_05_jordan_decomposition():
    with criterion(5, "Jordan decomposition on 200 random matrices mod p^12", 60.0):
        rng = random.Random(50505)
        done = 0
        while done < 200:
            p = rng.choice([2, 3, 5])
            size = rng.randint(1, 6)
            A = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    A[i][j] = A[j][i] = rng.randint(-100, 100)
            A = tuple(tuple(row) for row in A)
            det = bareiss_determinant(A)
            if det == 0 or ordp(det, p) > 3:
                continue
            dec = jordan_decompose(A, PAdicContext(p, 12))
            mod = p ** 12
            T = dec.transform
            rhs = dec.block_diagonal()
            for i in range(size):
                for j in range(size):
                    acc = sum(
                        T[r][i] * A[r][c] * T[c][j]
                        for r in range(size) for c in range(size)
                    )
                    assert (acc - rhs[i][j]) % mod == 0
            assert bareiss_determinant(T) % p != 0
            scales = [s for s, _ in dec.blocks]
            assert scales == sorted(scales)
            if p != 2:
                assert all(len(b) == 1 for _, b in dec.blocks)
            done += 1


def test_criterion_06_unit_rich_primitive_solvability():
    with criterion(6, "unit-rich forms: the reduced equation is primitively solvable", 120.0):
        rng = random.Random(60606)
        for _ in range(100):
            p = rng.choice([3, 5, 7])
            n = rng.choice([5, 6])
            units = [u for u in range(1, 12) if u % p]
            coeffs = [rng.choice(units) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(rng.randint(3, 12), tuple(coeffs))
            A = rng.randint(-20, 20)
            B = rng.randint(-20, 20)
            k = rng.randint(-20, 20)
            v = solvable_eq2_at(form, A, B, k, p)
            assert v.status == EQ2_PRIMITIVE, (form.describe(), p, A, B, k)


def _sample_primitive_base(rng):
    while True:
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([5, 6])
        coeffs = [rng.randint(1, 10) for _ in range(n)]
        coeffs[rng.randrange(n)] = 1
        form = MgonalForm(rng.randint(3, 12), tuple(coeffs))
        A = rng.randint(0, 20)
        B = rng.randint(0, form.m - 3) if form.m > 3 else 0
        k = rng.randint(0, 10)
        if eq2_stability_depth(form, p) + EQ2_MARGIN > 24:
            continue
        v = solvable_eq2_at(form, A, B, k, p)
        if v.status == EQ2_PRIMITIVE:
            return form, p, A, B, k


def test_criterion_07_stability_exponents():
    with criterion(7, "verdicts stable under k shifts by the regime modulus", 300.0):
        rng = random.Random(70707)
        for _ in range(30):
            form, p, A, B, k = _sample_primitive_base(rng)
            se = k_stability_exponent(form, p)
            modulus = p ** se.e
            a1 = form.coeffs[0]
            for _ in range(10):
                kp = k + modulus * rng.randint(1, 40)
                if se.regime == ODD_GOOD:
                    bound = 0
                elif se.regime == ODD_BAD:
                    bound = int(ordp(a1, p)) // 2
                else:
                    assert se.regime == DYADIC
                    bound = int(ordp(a1, 2)) // 2 + 1
                # a solution p^sigma y, y primitive, is a primitive solution
                # at scale p^sigma: some min-order within the bound must occur
                assert any(
                    solvable_eq2_at(form, A, B, kp, p, scale=p ** sigma).status
                    == EQ2_PRIMITIVE for sigma in range(bound + 1)
                ), (form.describe(), p, A, B, kp)


def test_criterion_08_admissible_pairs():
    with criterion(8, "admissible (k, P) search: nonempty, bounded, re-verified", 600.0):
        assert k_constant(MgonalForm(5, (1, 1, 1, 1, 1))).value == 7
        assert k_constant(MgonalForm(5, (2, 1, 1, 1, 1))).value == 4095
        assert k_constant(MgonalForm(6, (3, 1, 1, 1, 1, 1))).value == 511
        rng = random.Random(80808)
        done = 0
        while done < 30:
            coeffs = [rng.randint(1, 12) for _ in range(5)]
            coeffs[rng.randrange(5)] = 1
            if sum(1 for a in coeffs if a % 2 == 0) > 1:
                continue  # keep the dyadic residue period desk-sized
            form = MgonalForm(rng.randint(3, 12), tuple(coeffs))
            N = rng.randint(0, 300)
            if not locally_represents(form, N).represented:
                continue
            result = admissible_k(form, N, pair_cap=3)
            assert result.pairs, (form.describe(), N, result.diagnostics)
            kc = k_constant(form)
            dec = decompose_target(form.m, N)
            for pair in result.pairs:
                assert 0 <= pair.k <= kc.value
                for ev in pair.evidence:
                    check = solvable_eq2_at(
                        form, dec.A, dec.B, ev.k_residue,
                        ev.p, scale=ev.p ** ev.s,
                    )
                    assert check.status == EQ2_PRIMITIVE
            done += 1


def test_criterion_09_census_determinism_and_soundness():
    with criterion(9, "census at 10^4: parallel = serial brute double-scan, witnesses verify", 300.0):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        bound = 10_000
        parallel = exceptional_set(form, bound, jobs=4)
        serial = exceptional_set(form, bound, jobs=1)
        assert parallel.to_json_bytes(stable=True) == serial.to_json_bytes(stable=True)
        # independent serial double-scan, serialized identically
        exc, nloc, nrep = simple_double_scan(form, bound)
        import json as _json
        oracle_payload = {
            "form": {"m": 5, "coeffs": [1, 1, 1, 1, 1]},
            "bound": bound,
            "exceptional": exc,
            "counts": {"locally_represented": nloc, "represented": nrep},
            "max_exceptional": exc[-1] if exc else None,
        }
        oracle_bytes = _json.dumps(
            oracle_payload, sort_keys=True, separators=(",", ":")
        ).encode()
        assert parallel.to_json_bytes(stable=True) == oracle_bytes
        assert parallel.exceptional == ()
        for n in range(bound + 1):
            assert parallel.locally_represented(n)
            w = parallel.witness(n)
            assert w is not None and evaluate(form, w) == n


def test_criterion_10_scaling_experiment():
    with criterion(10, "cubic scaling scan for (1,1,1,2,4), m in [5,12]", 1800.0):
        result = scaling_experiment((1, 1, 1, 2, 4), 5, 12, 20, jobs=2)
        assert len(result.rows) == 8
        table = result.to_csv()
        print("\nscaling table (archived in test output):\n" + table)
        for row in result.rows:
            assert row.bound >= 20 * (row.m - 2) ** 3
            assert row.max_exceptional is None or row.max_exceptional <= row.bound
        nonzero = [
            r for r in result.rows
            if r.max_exceptional is not None and r.max_exceptional >= 1
        ]
        if len(nonzero) >= 3:
            assert result.fitted_slope is not None
            assert result.fitted_slope <= 3.5, result.fitted_slope
        # otherwise the exceptional sets vanish and the bound holds vacuously


def test_criterion_11_bad_prime_machinery():
    with criterion(11, "bad primes: {3} for <9,1,1,6,6>_7, none at rank >= 6", 10.0):
        assert bad_primes(MgonalForm(7, (9, 1, 1, 6, 6))) == (3,)
        rng = random.Random(111111)
        for _ in range(40):
            n = rng.randint(6, 8)
            coeffs = [rng.randint(1, 30) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(rng.randint(3, 16), tuple(coeffs))
            assert bad_primes(form) == ()
