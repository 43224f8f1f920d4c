import json
import math
import random

import pytest

from mgonal import (
    AnomalyWarning,
    InputError,
    MgonalForm,
    admissible_k,
    bad_primes,
    k_constant,
    k_stability_exponent,
    locally_represents,
    ordp,
    reduced_quadratic,
    unit_deficient_primes,
)
import mgonal.theorem
from mgonal.quadratic import (
    EQ2_MARGIN,
    EQ2_PRIMITIVE,
    EQ2_UNKNOWN,
    EQ2_UNSOLVABLE,
    Eq2Verdict,
    eq2_constants,
    eq2_residual,
    eq2_stability_depth,
    solvable_eq2_at,
)
from mgonal.theorem import DYADIC, ODD_BAD, ODD_GOOD


class TestUnitDeficientPrimes:
    def test_examples(self):
        assert unit_deficient_primes(MgonalForm(7, (6, 10, 15, 1, 1))) == (3, 5)
        assert unit_deficient_primes(MgonalForm(5, (1, 1, 1, 1, 1))) == ()
        assert unit_deficient_primes(MgonalForm(6, (3, 1, 1, 1, 1, 1))) == ()

    def test_rank_guard(self):
        with pytest.raises(InputError):
            unit_deficient_primes(MgonalForm(5, (1, 2, 3)))

    def test_members_divide_a_coefficient(self):
        rng = random.Random(61)
        for _ in range(200):
            n = rng.randint(5, 8)
            coeffs = [rng.randint(1, 60) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(6, tuple(coeffs))
            for p in unit_deficient_primes(form):
                assert any(a % p == 0 for a in coeffs)
                # direct recount
                assert sum(1 for a in coeffs if a % p) <= 4


class TestBadPrimes:
    def test_unit_form_has_none(self):
        assert bad_primes(MgonalForm(5, (1, 1, 1, 1, 1))) == ()

    def test_nine_with_anisotropic_tail(self):
        assert bad_primes(MgonalForm(7, (9, 1, 1, 6, 6))) == (3,)

    def test_nine_with_isotropic_tail(self):
        assert bad_primes(MgonalForm(7, (9, 1, 1, 1, 1))) == ()

    def test_rank_six_always_empty(self):
        rng = random.Random(62)
        for _ in range(60):
            n = rng.randint(6, 8)
            coeffs = [rng.randint(1, 30) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            m = rng.randint(3, 16)
            assert bad_primes(MgonalForm(m, tuple(coeffs))) == ()

    def test_contained_in_unit_deficient(self):
        rng = random.Random(63)
        for _ in range(150):
            coeffs = [rng.randint(1, 30) for _ in range(5)]
            coeffs[rng.randrange(5)] = 1
            m = rng.randint(3, 16)
            form = MgonalForm(m, tuple(coeffs))
            bad = set(bad_primes(form))
            assert bad <= set(unit_deficient_primes(form)), form.describe()


class TestStabilityExponent:
    def test_odd_good(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        se = k_stability_exponent(form, 7)
        assert (se.e, se.regime) == (1, ODD_GOOD)

    def test_dyadic(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        se = k_stability_exponent(form, 2)
        assert (se.e, se.regime) == (3, DYADIC)

    def test_odd_bad(self):
        form = MgonalForm(7, (9, 1, 1, 6, 6))
        d = reduced_quadratic(form).det
        se = k_stability_exponent(form, 3)
        assert se.regime == ODD_BAD
        assert se.e == 1 + 2 + 2 * int(ordp(d, 3))


class TestKConstant:
    def test_spot_values(self):
        assert k_constant(MgonalForm(5, (1, 1, 1, 1, 1))).value == 7
        assert k_constant(MgonalForm(5, (2, 1, 1, 1, 1))).value == 4095
        assert k_constant(MgonalForm(6, (3, 1, 1, 1, 1, 1))).value == 511

    def test_factor_identity(self):
        rng = random.Random(64)
        for _ in range(60):
            n = rng.randint(5, 7)
            coeffs = [rng.randint(1, 20) for _ in range(n)]
            coeffs[rng.randrange(n)] = 1
            form = MgonalForm(rng.randint(3, 12), tuple(coeffs))
            kc = k_constant(form)
            product = 1
            for p, e in kc.factors:
                product *= 4 * p ** e
            assert kc.value == product - 1
            assert {p for p, _ in kc.factors} == (
                set(unit_deficient_primes(form)) | {2}
            )

    def test_json_uses_decimal_strings_for_big_values(self):
        form = MgonalForm(5, (32, 27, 25, 7, 1))
        kc = k_constant(form)
        payload = json.loads(json.dumps(kc.to_json()))
        assert int(payload["value"]) == kc.value


def test_eq2_rhs_examples():
    # R = a_1 (2A + B + k(m-4)), the right-hand side of the reduced equation
    assert eq2_constants(MgonalForm(5, (1, 1, 1, 1, 1)), 2, 1, 1)[1] == 6
    assert eq2_constants(MgonalForm(8, (3, 1, 1, 1, 1)), 0, 0, 0)[1] == 0
    assert eq2_constants(MgonalForm(7, (2, 1, 1, 1, 1)), 1, 2, 3)[1] == 26


class TestAdmissibleK:
    def test_unit_form_small_target(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        result = admissible_k(form, 10)
        assert result.pairs
        assert any(pair.k <= 7 and pair.P == 1 for pair in result.pairs)
        assert all(pair.k <= result.k_bound for pair in result.pairs)

    def test_scan_report_counts_visited_k(self, monkeypatch):
        form = MgonalForm(12, (10, 9, 9, 1, 1))
        result = admissible_k(form, 52, pair_cap=3)
        assert [(pair.k, pair.P) for pair in result.pairs] == [(0, 1), (0, 2), (1, 1)]
        assert result.scanned_k == 2
        assert result.truncated is False
        assert not any("truncated" in d for d in result.diagnostics)
        # a scan limit reached before pair_cap is filled is still a truncation
        monkeypatch.setattr(mgonal.theorem, "K_SCAN_LIMIT", 1)
        short = admissible_k(form, 52)
        assert len(short.pairs) < 16
        assert short.scanned_k == 1
        assert short.truncated is True
        assert any("k scan truncated at 1" in d for d in short.diagnostics)

    def test_undecided_residues_are_counted(self, monkeypatch):
        form = MgonalForm(12, (10, 9, 9, 1, 1))
        assert admissible_k(form, 52, pair_cap=3).diagnostics == ()
        # make the p = 2 verdict at k = 1 undecided, as a budget hit would
        real = mgonal.theorem.solvable_eq2_at

        def undecided_at_k1(form, A, B, k, p, *, scale=1):
            v = real(form, A, B, k, p, scale=scale)
            if p == 2 and k == 1 and scale == 1:
                return Eq2Verdict(status=EQ2_UNKNOWN, witness=None,
                                  precision=v.precision, budget_exhausted=True)
            return v

        monkeypatch.setattr(mgonal.theorem, "solvable_eq2_at", undecided_at_k1)
        result = admissible_k(form, 52, pair_cap=3)
        assert result.diagnostics == ("p=2: 1 undecided residue, 1 budget hit",)
        assert all(pair.k != 1 or pair.P != 1 for pair in result.pairs)

    def test_exhausted_residues_are_counted_once(self, monkeypatch):
        # P ranges over {1, 2}, so each k residue at p = 2 is tried at two
        # scales; the diagnostic counts the residues, not the (residue,
        # scale) verdicts
        form = MgonalForm(12, (10, 9, 9, 1, 1))
        assert mgonal.theorem._scale_options(form, (2, 3, 5)) == [1, 2]
        real = mgonal.theorem.solvable_eq2_at

        def unsolvable_at_2(form, A, B, k, p, *, scale=1):
            if p == 2:
                return Eq2Verdict(status=EQ2_UNSOLVABLE, witness=None,
                                  precision=eq2_stability_depth(form, p) + EQ2_MARGIN,
                                  budget_exhausted=False)
            return real(form, A, B, k, p, scale=scale)

        monkeypatch.setattr(mgonal.theorem, "solvable_eq2_at", unsolvable_at_2)
        monkeypatch.setattr(mgonal.theorem, "K_SCAN_LIMIT", 40)
        with pytest.warns(AnomalyWarning):
            result = admissible_k(form, 52)
        assert not result.pairs and result.scanned_k == 40
        e = k_stability_exponent(form, 2).e
        assert 2 ** e > 40
        assert f"p=2: no admissible residue among 40 tested (stability exponent {e})" \
            in result.diagnostics
        for p in (3, 5):
            assert f"p={p}: not reached (every scanned k failed at an earlier prime)" \
                in result.diagnostics

    def test_zero_target(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        result = admissible_k(form, 0)
        assert (0, 1) in {(pair.k, pair.P) for pair in result.pairs}

    def test_bad_prime_scale_bound(self):
        form = MgonalForm(7, (9, 1, 1, 6, 6))
        N = next(
            n for n in range(1, 200) if locally_represents(form, n).represented
        )
        result = admissible_k(form, N)
        for pair in result.pairs:
            assert int(ordp(pair.P, 3)) <= 1  # floor(ord_3(4*9)/2)

    def test_requires_locally_represented(self):
        form = MgonalForm(8, (1, 8, 16, 24, 32))
        bad_n = None
        for n in range(1, 64):
            if not locally_represents(form, n).represented:
                bad_n = n
                break
        if bad_n is not None:
            with pytest.raises(InputError):
                admissible_k(form, bad_n)

    def test_evidence_reverifies(self):
        rng = random.Random(65)
        checked = 0
        while checked < 6:
            coeffs = [rng.randint(1, 12) for _ in range(5)]
            coeffs[rng.randrange(5)] = 1
            form = MgonalForm(rng.randint(3, 12), tuple(coeffs))
            N = rng.randint(0, 300)
            if not locally_represents(form, N).represented:
                continue
            result = admissible_k(form, N, pair_cap=2)
            if not result.pairs:
                continue
            from mgonal.polygonal import decompose_target
            dec = decompose_target(form.m, N)
            for pair in result.pairs:
                for ev in pair.evidence:
                    v = solvable_eq2_at(
                        form, dec.A, dec.B, ev.k_residue,
                        ev.p, scale=ev.p ** ev.s,
                    )
                    assert v.status == EQ2_PRIMITIVE
            checked += 1

    def test_large_coefficient_primes(self):
        # 41^4 and 19^5 level-1 residues: the root scans certify at once
        from mgonal.polygonal import decompose_target
        for form, N in ((MgonalForm(5, (1, 1, 1, 1, 41)), 1000),
                        (MgonalForm(5, (1, 1, 1, 1, 19, 19)), 500)):
            result = admissible_k(form, N)
            assert result.pairs and result.diagnostics == ()
            dec = decompose_target(form.m, N)
            for pair in result.pairs:
                for ev in pair.evidence:
                    res = eq2_residual(form, dec.A, dec.B, ev.k_residue,
                                       ev.verdict.witness, scale=ev.p ** ev.s)
                    assert res % ev.p ** ev.verdict.precision == 0

    def test_k_translation_property(self):
        form = MgonalForm(5, (1, 1, 1, 1, 1))
        result = admissible_k(form, 12, pair_cap=16)
        exps = {p: k_stability_exponent(form, p).e
                for p in {2} | set(unit_deficient_primes(form))}
        period = math.lcm(*[p ** e for p, e in exps.items()])
        found = {(pair.k, pair.P) for pair in result.pairs}
        for k, P in list(found):
            if k + period <= result.k_bound and k + period < result.scanned_k:
                assert (k + period, P) in found, (k, P, period)
