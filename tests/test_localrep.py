import json
import random

import pytest

from mgonal import (
    InputError,
    MgonalForm,
    is_locally_universal,
    locally_represents,
    locally_represents_at,
    relevant_primes,
    represents,
)
from mgonal.arith import legendre_symbol
from mgonal.localrep import UNIMODULAR_SHORTCUT

from oracles import (
    UNDECIDED,
    diagonal_residue_oracle,
    local_rep_oracle,
    reachable_values,
)


def test_relevant_primes_examples():
    assert relevant_primes(MgonalForm(5, (1, 1, 1, 1, 1))) == (2,)
    assert relevant_primes(MgonalForm(7, (6, 10, 15, 1, 1))) == (2, 3)
    assert relevant_primes(MgonalForm(7, (9, 1, 1, 6, 6))) == (2, 3)


def test_relevant_primes_rank_guard():
    with pytest.raises(InputError):
        relevant_primes(MgonalForm(5, (1, 2)))


def test_rule_one_odd_divisor_of_m_minus_two():
    v = locally_represents_at(MgonalForm(5, (1, 1, 1, 1, 1)), 10**6 + 7, 3)
    assert v.represented and v.rule == 1


def test_rule_two_non_doubly_even():
    v = locally_represents_at(MgonalForm(5, (1, 1, 1, 1, 1)), 17, 2)
    assert v.represented and v.rule == 2


def test_rule_four_octagonal():
    # criterion value 3*1 + 5*1 = 8 = 4 + 4 over Z_2
    v = locally_represents_at(MgonalForm(8, (1, 1, 1, 1, 1)), 1, 2)
    assert v.represented and v.rule == 4
    assert v.criterion_value == 8


def test_rule_three_shortcut_label():
    v = locally_represents_at(MgonalForm(5, (1, 1, 1, 1, 1)), 9, 7)
    assert v.represented and v.rule == UNIMODULAR_SHORTCUT


def test_locally_represents_small_scan():
    form = MgonalForm(5, (1, 1, 1, 1, 1))
    for N in range(0, 2000, 37):
        assert locally_represents(form, N).represented


def test_locally_represents_trivial_global():
    assert locally_represents(MgonalForm(5, (1, 2, 3, 4, 5)), 1).represented


def test_verdict_list_covers_relevant_primes():
    form = MgonalForm(7, (6, 10, 15, 1, 1))
    agg = locally_represents(form, 4)
    assert tuple(v.p for v in agg.verdicts) == (2, 3)


def test_verdict_json():
    form = MgonalForm(5, (1, 1, 1, 1, 1))
    v = locally_represents_at(form, 10, 3)
    data = json.loads(json.dumps(v.to_json()))
    assert data["p"] == 3 and data["represented"] is True and data["rule"] == 1


def test_locally_universal_examples():
    assert is_locally_universal(MgonalForm(5, (1, 1, 1, 1, 1)))
    assert is_locally_universal(MgonalForm(4, (1, 1, 1, 1, 1)))
    # <1,1,1,1,25>_6 fails at 5? m-2 = 4, so p=5 uses the diagonal criterion
    assert is_locally_universal(MgonalForm(6, (1, 1, 1, 1, 25)))


def test_locally_universal_counterexample():
    # <1,8,16,24,32>_8: rule 4 at p=2; targets needing small odd parts fail
    form = MgonalForm(8, (1, 8, 16, 24, 32))
    agg = is_locally_universal(form)
    # independent: N=2 gives criterion value 3*2 + 81 = 87 = sum a_i x_i^2?
    # the form x^2 + 8(...) represents 87 iff x^2 = 87 - 8t; 87 is not a
    # square mod 8 shifted: quick oracle below settles the verdict
    verdict = local_rep_oracle(form, 2, 2)
    if verdict is not UNDECIDED:
        assert locally_represents_at(form, 2, 2).represented == verdict
        assert agg == all(
            locally_represents_at(form, N, 2).represented for N in range(64)
        )


def test_oracle_equivalence_random():
    rng = random.Random(51)
    done = 0
    while done < 60:
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(1, 5)
        coeffs = [rng.randint(1, 45) for _ in range(n)]
        coeffs[rng.randrange(n)] = 1
        m = rng.randint(3, 12)
        form = MgonalForm(m, tuple(coeffs))
        N = rng.randint(0, 500)
        expected = local_rep_oracle(form, N, p)
        if expected is UNDECIDED:
            continue
        got = locally_represents_at(form, N, p).represented
        assert got == expected, (form.describe(), N, p)
        done += 1


_SPOT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


def test_unimodular_shortcut_spot_check():
    """50 forms, 20 primes outside the relevant set, 50 targets each: the
    shortcut-free decision always says represented."""
    rng = random.Random(52)
    for _ in range(50):
        n = rng.randint(5, 7)
        coeffs = [rng.randint(1, 20) for _ in range(n)]
        coeffs[rng.randrange(n)] = 1
        m = rng.randint(3, 12)
        form = MgonalForm(m, tuple(coeffs))
        rel = set(relevant_primes(form))
        outside = [p for p in _SPOT_PRIMES if p not in rel][:20]
        for p in outside:
            for _ in range(50):
                N = rng.randint(0, 10**6)
                v = locally_represents_at(form, N, p, allow_shortcut=False)
                assert v.represented, (form.describe(), N, p)


def test_rule_three_shift_consistency():
    """Rule-3 verdicts are invariant under target shifts by p^L past the
    diagonal decision depth of the criterion value."""
    rng = random.Random(54)
    from mgonal.quadratic import diagonal_decision_depth

    done = 0
    while done < 40:
        n = rng.randint(3, 6)
        coeffs = [rng.randint(1, 20) for _ in range(n)]
        coeffs[rng.randrange(n)] = 1
        m = rng.randint(3, 12)
        form = MgonalForm(m, tuple(coeffs))
        p = rng.choice([3, 5, 7])
        if (m - 2) % p == 0:
            continue
        N = rng.randint(0, 400)
        S = form.coeff_sum
        c = 8 * (m - 2) * N + S * (m - 4) ** 2
        depth = diagonal_decision_depth(form.coeffs, c, p)
        base = locally_represents_at(form, N, p, allow_shortcut=False)
        for j in (1, 2, 5):
            shifted = N + j * p ** (depth + 1)
            v = locally_represents_at(form, shifted, p, allow_shortcut=False)
            assert v.represented == base.represented, (form.describe(), N, p, j)
        done += 1


def test_soundness_bridge_on_census_style_instances():
    rng = random.Random(53)
    for _ in range(50):
        coeffs = [rng.randint(1, 8) for _ in range(5)]
        coeffs[rng.randrange(5)] = 1
        form = MgonalForm(rng.randint(3, 10), tuple(coeffs))
        N = rng.randint(0, 200)
        reached = N in reachable_values(form, N)
        assert (represents(form, N) is not None) == reached
        if reached:
            assert locally_represents(form, N).represented


def _matches_the_residue_oracle(form, N):
    verdict = locally_represents(form, N)
    for v in verdict.verdicts:
        if v.criterion_value is not None:
            assert v.represented == diagonal_residue_oracle(
                form.coeffs, v.criterion_value, v.p), (form.describe(), N, v.p)
    return verdict


def test_large_primes_are_decided():
    # the local criterion at p = 257 once needed a residue table mod 257^3,
    # over that table's ceiling; the orbit criterion decides it, also at
    # targets whose criterion value 8N + 259 is divisible by 257
    form = MgonalForm(3, (1, 1, 257))
    assert _matches_the_residue_oracle(form, 2).verdicts[-1].p == 257
    for N in range(2000):
        if (8 * N + 259) % 257 == 0:
            _matches_the_residue_oracle(form, N)


def test_a_very_large_prime_is_decided():
    # a residue table at P = 10^9 + 7 was out of reach; <1, 1, P> represents
    # P u (u a unit) iff u is a square mod P, as x^2 + y^2 is anisotropic mod
    # P = 3 (mod 4), and every P^2 u
    P = 1_000_000_007
    form = MgonalForm(3, (1, 1, P))

    def at_p(N):
        return next(v for v in locally_represents(form, N).verdicts if v.p == P)

    assert at_p(2).represented
    # 8N + P + 2 = P u needs u = 7 (mod 8), since P = 7 (mod 8)
    for u in (7, 15, 23, 31, 39):
        verdict = at_p((P * (u - 1) - 2) // 8)
        assert verdict.criterion_value == P * u
        assert verdict.represented == (legendre_symbol(u, P) == 1), u
    assert at_p((P * P * 7 - P - 2) // 8).represented


def test_forms_once_over_the_table_ceiling_are_decided():
    # 83^3 and 2^21 were over the residue tables' ceiling: the criterion now
    # decides them, and the search still finds 2
    for form in (MgonalForm(3, (1, 1, 83)), MgonalForm(4, (1, 1, 512))):
        assert _matches_the_residue_oracle(form, 2).represented
        assert represents(form, 2).x == (1, 1, 0)
