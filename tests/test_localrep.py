import json
import math
import random

import pytest

from mgonal import (
    InputError,
    MgonalForm,
    locally_represents,
    locally_represents_at,
    relevant_primes,
    represents,
)
from mgonal.arith import legendre_symbol
import mgonal.localrep as localrep
from mgonal.localrep import UNIMODULAR_SHORTCUT, local_bits
from mgonal.quadratic import _diagonal_solvable

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


def test_local_paths_agree():
    # the aggregate's answer, its per-prime verdicts and the census flags
    # read one cached criterion per form: they must agree at every N, and
    # with the per-prime verdicts at primes outside the relevant set too
    rng = random.Random(56)
    rules = set()
    obstructed = 0
    bound = 3000
    for _ in range(16):
        rank = rng.randint(3, 5)
        coeffs = [rng.choice((1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 25))
                  for _ in range(rank)]
        coeffs[rng.randrange(rank)] = 1
        form = MgonalForm(rng.randint(3, 30), tuple(coeffs))
        flags = local_bits(form, bound).to_bytes(bound + 1, "big")
        # every prime of 2(m-2)a_1...a_n, and 3, 5, 7 for the shortcut
        primes = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
                  if p <= 7 or 2 * (form.m - 2) * math.prod(coeffs) % p == 0]
        for N in range(bound + 1):
            agg = locally_represents(form, N)
            assert agg.represented is all(v.represented for v in agg.verdicts), (form, N)
            assert flags[N] == agg.represented, (form, N)
            obstructed += not agg.represented
            if N % 10 == 0:
                at = [locally_represents_at(form, N, p) for p in primes]
                assert all(v.represented for v in at) is agg.represented, (form, N)
                rules.update(v.rule for v in at)
        with pytest.raises(InputError):
            locally_represents(form, -1)
        with pytest.raises(InputError):
            represents(form, -1)
    assert rules == {1, 2, 3, 4, UNIMODULAR_SHORTCUT}
    assert obstructed > 0


def test_verdicts_are_built_on_first_read(monkeypatch):
    built = []
    verdict = localrep._verdict

    def counted(*args):
        built.append(args[2])
        return verdict(*args)

    monkeypatch.setattr(localrep, "_verdict", counted)
    form = MgonalForm(7, (1, 1, 3, 9, 9))
    agg = locally_represents(form, 33)
    assert not agg.represented and not agg
    assert built == []
    verdicts = agg.verdicts
    assert built == [2, 3]
    assert agg.verdicts is verdicts and agg.to_json()["verdicts"][1]["p"] == 3
    assert built == [2, 3]


def test_aggregate_json_matches_the_per_prime_verdicts():
    # the aggregate as the per-prime verdicts at the relevant primes build
    # it: the rest of the primes of 2(m-2)a_1...a_n, and 3, 5 and 7, are
    # rule 1 or the unimodular shortcut, which represent every N
    rng = random.Random(57)
    rules = set()
    targets = set()
    for _ in range(40):
        rank = rng.randint(3, 6)
        coeffs = [rng.choice((1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 25))
                  for _ in range(rank)]
        coeffs[rng.randrange(rank)] = 1
        form = MgonalForm(rng.randint(3, 32), tuple(coeffs))
        relevant = relevant_primes(form)
        primes = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                  if p <= 7 or 2 * (form.m - 2) * math.prod(coeffs) % p == 0]
        for N in [0] + [rng.randint(1, 10**6) for _ in range(10)]:
            at = {p: locally_represents_at(form, N, p) for p in primes}
            for p, v in at.items():
                assert (p in relevant) is (v.rule not in (1, UNIMODULAR_SHORTCUT)), (form, p)
                assert v.represented or p in relevant
            expected = {
                "represented": all(at[p].represented for p in relevant),
                "verdicts": [at[p].to_json() for p in relevant],
            }
            agg = locally_represents(form, N)
            assert agg.to_json() == expected, (form, N)
            rules.update(v.rule for v in at.values())
            targets.add((N == 0, agg.represented))
    assert rules == {1, 2, 3, 4, UNIMODULAR_SHORTCUT}
    assert {(True, True), (False, True), (False, False)} <= targets


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


def _rule_three_value(form, N):
    """Rule 3's criterion value c = 8(m-2)N + S(m-4)^2, S the coefficient sum."""
    return 8 * (form.m - 2) * N + form.coeff_sum * (form.m - 4) ** 2


def _ord(x, p):
    """ord_p(x), taken as 0 at x = 0."""
    v = 0
    while x and x % p == 0:
        x //= p
        v += 1
    return v


def test_unimodular_shortcut_spot_check():
    """50 forms, 20 primes outside the relevant set, 50 targets each: the
    diagonal decision of rule 3, which the shortcut skips, always says
    represented."""
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
            if (m - 2) % p == 0:  # rule 1: no diagonal decision
                continue
            for _ in range(50):
                N = rng.randint(0, 10**6)
                c = _rule_three_value(form, N)
                assert _diagonal_solvable(form.coeffs, c, p), (form.describe(), N, p)


def test_rule_three_shift_consistency():
    """Rule-3 verdicts are invariant under target shifts by p^(L+1), with
    L = ord_p(c) + 2 max ord_p(a_i) + 3 for the criterion value c."""
    rng = random.Random(54)
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
        c = _rule_three_value(form, N)
        depth = _ord(c, p) + 2 * max(_ord(a, p) for a in form.coeffs) + 3
        base = _diagonal_solvable(form.coeffs, c, p)
        for j in (1, 2, 5):
            shifted = _rule_three_value(form, N + j * p ** (depth + 1))
            assert _diagonal_solvable(form.coeffs, shifted, p) == base, (
                form.describe(), N, p, j)
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
