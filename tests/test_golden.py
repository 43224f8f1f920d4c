"""Pinned outputs: CLI stdout bytes, stability depths and eq2 verdicts.

The CLI files and the stability depths under ``tests/golden/`` were recorded
from the library before the stability exponent and the bad-prime test were
merged into one rule each.  The eq2 verdict grid and the ``admissible_pc3_*``
files were recorded before the pair-congruence disproof was moved ahead of
the stratum search.  The two eq2 record files dropped their min_order key
when the classifier came to decide primitive solvability only.  These tests
fail if any byte, depth or verdict drifts from that record.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mgonal
from mgonal import (
    MgonalForm,
    admissible_k,
    bad_primes,
    k_stability_exponent,
)
from mgonal.quadratic import (
    EQ2_MARGIN,
    EQ2_UNSOLVABLE,
    eq2_stability_depth,
    solvable_eq2_at,
)

GOLDEN = Path(__file__).parent / "golden"

#: (file name, CLI arguments); each file holds that command's exact stdout.
CLI_CASES = (
    ("exceptional_m10_1-1-1-2-4.json",
     ["exceptional", "--m", "10", "--coeffs", "1,1,1,2,4", "--bound", "10000",
      "--format", "json", "--stable-output"]),
    ("exceptional_m12_2-3-5-7-11.json",
     ["exceptional", "--m", "12", "--coeffs", "2,3,5,7,11", "--bound", "10000",
      "--format", "json", "--stable-output"]),
    ("scaling_2-3-5-7-11_m5-8.json",
     ["scaling", "--coeffs", "2,3,5,7,11", "--m-min", "5", "--m-max", "8",
      "--format", "json", "--stable-output"]),
    ("kconst_m12_10-9-9-1-1.json",
     ["kconst", "--m", "12", "--coeffs", "10,9,9,1,1", "--format", "json"]),
    ("kconst_m10_5-1-1-12-7.json",
     ["kconst", "--m", "10", "--coeffs", "5,1,1,12,7", "--format", "json"]),
    ("admissible_m12_10-9-9-1-1_n52.json",
     ["admissible-k", "--m", "12", "--coeffs", "10,9,9,1,1", "--n", "52",
      "--format", "json"]),
    ("admissible_m10_5-1-1-12-7_n5.json",
     ["admissible-k", "--m", "10", "--coeffs", "5,1,1,12,7", "--n", "5",
      "--format", "json"]),
) + tuple(
    # locally obstructed at p = 3; the unimodular shortcut at p = 7; rule 4
    (f"local_{name}.{fmt.replace('text', 'txt')}",
     ["local", *args.split(), "--format", fmt])
    for name, args in (
        ("m7_1-1-3-9-9_n33", "--m 7 --coeffs 1,1,3,9,9 --n 33"),
        ("p7_m5_1-1-1-1-1_n9", "--m 5 --coeffs 1,1,1,1,1 --n 9 --prime 7"),
        ("m12_1-2-3-5-5_n100", "--m 12 --coeffs 1,2,3,5,5 --n 100"),
    )
    for fmt in ("json", "text")
)


def run_cli(argv) -> bytes:
    src = str(Path(mgonal.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "mgonal", *argv],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name,argv", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_stdout_bytes(name, argv):
    assert run_cli(argv) == (GOLDEN / name).read_bytes()


#: Primes at which the depths are pinned.
DEPTH_PRIMES = (2, 3, 5)


#: Rank-5 forms with a bad prime (3, 3, 3, 5, 3), found by random search.
BAD_PRIME_FORMS = (
    (7, (9, 1, 1, 6, 6)),
    (7, (15, 12, 4, 12, 1)),
    (16, (6, 12, 1, 3, 1)),
    (4, (15, 45, 10, 2, 1)),
    (4, (6, 10, 6, 1, 15)),
)


def depth_grid() -> list[MgonalForm]:
    """The bad-prime forms plus seeded forms of ranks 2-6 with m in
    {3, 4, 7, 16}, whose coefficients lean on powers of 2, 3 and 5."""
    rng = random.Random(20260)
    pool = (1, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 25, 27)
    forms = [MgonalForm(m, coeffs) for m, coeffs in BAD_PRIME_FORMS]
    for rank in range(2, 7):
        for m in (3, 4, 7, 16):
            for _ in range(4):
                coeffs = [rng.choice(pool) for _ in range(rank)]
                coeffs[rng.randrange(rank)] = 1
                forms.append(MgonalForm(m, tuple(coeffs)))
    return forms


def depth_record(form: MgonalForm) -> dict:
    out = {"precision": [eq2_stability_depth(form, p) + EQ2_MARGIN
                         for p in DEPTH_PRIMES]}
    if form.rank >= 5:
        out["k_stability"] = [
            [se.e, se.regime]
            for se in (k_stability_exponent(form, p) for p in DEPTH_PRIMES)
        ]
        out["bad_primes"] = list(bad_primes(form))
    return out


def test_stability_depths_are_pinned():
    pinned = json.loads((GOLDEN / "stability_depths.json").read_text())
    got = {f"{form.m}:{','.join(map(str, form.coeffs))}": depth_record(form)
           for form in depth_grid()}
    assert got == pinned
    # the grid reaches every regime
    regimes = {r for rec in pinned.values() for _, r in rec.get("k_stability", ())}
    assert regimes == {"dyadic", "odd-good", "odd-bad"}


def test_eq2_verdicts_are_pinned():
    """A seeded grid of 150 calls: ranks 3-6, p in {2, 3, 5, 7, 11}, scale 1
    or p.  Status, witness and precision must all match."""
    cases = json.loads((GOLDEN / "eq2_verdicts.json").read_text())
    assert len(cases) == 150
    for case in cases:
        form = MgonalForm(case["m"], tuple(case["coeffs"]))
        v = solvable_eq2_at(form, case["A"], case["B"], case["k"],
                            case["p"], scale=case["scale"])
        got = (v.status, None if v.witness is None else list(v.witness),
               v.precision)
        assert got == (case["status"], case["witness"], case["precision"]), case


#: (m, coeffs, N) whose admissible search once exhausted the stratum node
#: budget at one eq2 call.
BUDGET_HIT_INSTANCES = (
    (11, (8, 1, 9, 11, 4), 2),
    (3, (12, 12, 1, 3, 7), 66),
)


@pytest.mark.parametrize("m,coeffs,N", BUDGET_HIT_INSTANCES)
def test_budget_hit_instances_are_pinned(m, coeffs, N):
    result = admissible_k(MgonalForm(m, coeffs), N, pair_cap=3)
    name = f"admissible_pc3_m{m}_{'-'.join(map(str, coeffs))}_n{N}.json"
    got = json.dumps(result.to_json(), sort_keys=True, separators=(",", ":"))
    assert (got + "\n").encode() == (GOLDEN / name).read_bytes()


def test_disproof_settles_the_budget_hit_call():
    # the call that exhausted the node budget has no solution mod 2^6
    form = MgonalForm(11, (8, 1, 9, 11, 4))
    v = solvable_eq2_at(form, 0, 2, 0, 2, scale=2)
    assert v.status == EQ2_UNSOLVABLE
    assert v.budget_exhausted is False
