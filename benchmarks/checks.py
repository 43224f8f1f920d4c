"""Checks of each workload's outputs against independent computations.

Nothing here calls the decision code it checks.  Reachability is rebuilt as a
numpy boolean table from the polygonal formula; local verdicts come from the
test suite's congruence oracle (``tests/oracles.py``); witnesses and
auxiliary-equation residues are evaluated by the formulas written out below;
determinants use cofactor expansion.  Each check raises ``CheckFailure``.

The checks run after the timed calls, so they count in no metric.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from oracles import UNDECIDED, cofactor_determinant, local_rep_oracle
from workloads import evaluate, polygonal, residues

from mgonal.polygonal import MgonalForm

#: Residue tuples the oracle may enumerate per depth; past it a prime is
#: undecided and skipped, which keeps one oracle call under about 0.2 s.
ORACLE_TUPLES = 60_000


class CheckFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def term_values(m: int, a: int, bound: int) -> list[int]:
    """Distinct values a * P_m(x) <= bound over all integers x."""
    values = {0}
    k = 1
    while True:
        fresh = [v for v in (a * polygonal(m, k), a * polygonal(m, -k)) if v <= bound]
        if not fresh:
            return sorted(values)
        values.update(fresh)
        k += 1


def reach_table(m: int, coeffs, bound: int) -> np.ndarray:
    """reach[N] is True iff N = sum a_i P_m(x_i) for some integers x_i."""
    reach = np.zeros(bound + 1, dtype=bool)
    reach[0] = True
    for a in coeffs:
        nxt = np.zeros_like(reach)
        for v in term_values(m, a, bound):
            nxt[v:] |= reach[:bound + 1 - v]
        reach = nxt
    return reach


def _odd_prime_factors(n: int) -> set[int]:
    out = set()
    while n % 2 == 0:
        n //= 2
    p = 3
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 2
    if n > 1:
        out.add(n)
    return out


def _ord(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def oracle_local(form: MgonalForm, n: int):
    """True or False when the oracle settles every prime that can obstruct,
    else None.  Odd primes dividing m-2 or no coefficient cannot obstruct."""
    primes = {2} | {p for a in form.coeffs for p in _odd_prime_factors(a)
                    if (form.m - 2) % p}
    decided = True
    for p in sorted(primes):
        verdict = local_rep_oracle(form, n, p, max_tuples=ORACLE_TUPLES)
        if verdict is UNDECIDED:
            decided = False
        elif not verdict:
            return False
    return True if decided else None


def _sample(rng, items, k):
    items = list(items)
    return rng.sample(items, min(k, len(items)))


def _pick(rng, indices: np.ndarray, k: int) -> list[int]:
    if len(indices) == 0:
        return []
    return [int(indices[rng.randrange(len(indices))]) for _ in range(k)]


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def check_report(report, payload: bytes, csv: str, rng) -> None:
    """One census report: represented side, local side, witnesses, bytes."""
    form, bound = report.form, report.bound
    name = f"{form.describe()} to {bound}"
    reach = reach_table(form.m, form.coeffs, bound)
    unreached = np.flatnonzero(~reach)
    require(report.represented_count == bound + 1 - len(unreached),
            f"{name}: represented_count {report.represented_count}, "
            f"table gives {bound + 1 - len(unreached)}")
    exceptional = list(report.exceptional)
    require(exceptional == sorted(set(exceptional)),
            f"{name}: exceptional list not strictly ascending")
    exc = set(exceptional)
    unreached_set = set(unreached.tolist())
    require(exc <= unreached_set,
            f"{name}: reachable N listed exceptional: {sorted(exc - unreached_set)[:5]}")
    # an unreached N is exceptional exactly when it is locally represented
    for n in unreached.tolist():
        require((n in exc) == report.locally_represented(n),
                f"{name}: N={n} unreached, locally represented "
                f"{report.locally_represented(n)}, listed {n in exc}")
    require(len(exc) == report.locally_represented_count - report.represented_count,
            f"{name}: {len(exc)} exceptional but counts differ by "
            f"{report.locally_represented_count - report.represented_count}")
    require(report.max_exceptional == (exceptional[-1] if exceptional else None),
            f"{name}: max_exceptional {report.max_exceptional}")

    data = json.loads(payload)
    require(data["exceptional"] == exceptional
            and data["bound"] == bound
            and data["counts"] == {"locally_represented": report.locally_represented_count,
                                   "represented": report.represented_count}
            and "timings" not in data,
            f"{name}: stable JSON disagrees with the report")
    rows = csv.splitlines()
    require(rows[0] == "N,A,B,evidence" and len(rows) == len(exceptional) + 1,
            f"{name}: CSV has {len(rows) - 1} rows for {len(exceptional)} N")
    for row, n in zip(rows[1:], exceptional):
        require(row.split(",")[:3] == [str(n), *map(str, divmod(n, form.m - 2))],
                f"{name}: CSV row {row!r} for N={n}")

    # local side: a seeded sample of each kind of N against the oracle
    other_unreached = [n for n in unreached.tolist() if n not in exc]
    sample = (_sample(rng, exceptional, 1) + _sample(rng, other_unreached, 1)
              + _pick(rng, np.flatnonzero(reach), 2))
    for n in sample:
        verdict = oracle_local(form, n)
        if verdict is not None:
            require(verdict == report.locally_represented(n),
                    f"{name}: N={n} locally represented {report.locally_represented(n)}, "
                    f"oracle says {verdict}")

    for n in _pick(rng, np.flatnonzero(reach), 3):
        w = report.witness(n)
        require(w is not None and len(w) == form.rank
                and evaluate(form.m, form.coeffs, w) == n,
                f"{name}: witness {w} does not evaluate to {n}")


def check_census(workload, ops, outputs, rng) -> None:
    for form, out in zip(ops, outputs):
        if out is None:
            continue
        report, payload, csv = out
        require(report.form == form and report.bound == workload.bound,
                f"report for {report.form.describe()} to {report.bound}")
        check_report(report, payload, csv, rng)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

ORACLE_ROWS = 3


def check_scaling(workload, ops, outputs, rng) -> None:
    for (coeffs, m_min, m_max, multiplier), out in zip(ops, outputs):
        if out is None:
            continue
        result, payload, csv = out
        rows = result.rows
        require([r.m for r in rows] == list(range(m_min, m_max + 1)),
                f"scaling rows cover m={[r.m for r in rows]}")
        oracle_rows = set(_sample(rng, range(len(rows)), ORACLE_ROWS))
        for i, row in enumerate(rows):
            want = Fraction(multiplier) * (row.m - 2) ** 3
            require(row.bound == -(-want.numerator // want.denominator),
                    f"m={row.m}: bound {row.bound} is not ceil({want})")
            form = MgonalForm(row.m, coeffs)
            reach = reach_table(row.m, coeffs, row.bound)
            mx = row.max_exceptional
            if mx is not None:
                require(0 < mx <= row.bound and not reach[mx],
                        f"m={row.m}: max_exceptional {mx} is reachable or out of range")
            if i not in oracle_rows:
                continue
            above = [n for n in np.flatnonzero(~reach).tolist() if mx is None or n > mx]
            for n in _sample(rng, above, 1):
                require(oracle_local(form, n) is not True,
                        f"m={row.m}: N={n} > max_exceptional is unreached "
                        "but locally represented")
            for n in ([mx] if mx is not None else []):
                require(oracle_local(form, n) is not False,
                        f"m={row.m}: max_exceptional {n} is not locally represented")
            for n in _pick(rng, np.flatnonzero(reach), 1):
                require(oracle_local(form, n) is not False,
                        f"m={row.m}: reachable N={n} is locally obstructed")

        points = [(math.log(r.m - 2), math.log(1 + r.max_exceptional))
                  for r in rows if r.max_exceptional is not None and r.max_exceptional >= 1]
        if len(points) >= 3:
            x, y = np.array(points).T
            slope = float(np.polyfit(x, y, 1)[0])
            require(result.fitted_slope is not None
                    and abs(result.fitted_slope - slope) <= 1e-9 * max(1.0, abs(slope)),
                    f"fitted slope {result.fitted_slope}, refit gives {slope}")
        else:
            require(result.fitted_slope is None,
                    f"slope {result.fitted_slope} fitted from {len(points)} rows")

        data = json.loads(payload)
        require(data["rows"] == [{"m": r.m, "bound": r.bound,
                                  "max_exceptional": r.max_exceptional} for r in rows]
                and data["fitted_slope"] == result.fitted_slope,
                "scaling JSON disagrees with the rows")
        require(csv.splitlines()[1:] == [f"{r.m},{r.bound},{r.max_exceptional or 0},"
                                         for r in rows],
                "scaling CSV disagrees with the rows")


# ---------------------------------------------------------------------------
# represent
# ---------------------------------------------------------------------------

def check_represent(workload, ops, outputs, rng) -> None:
    unfound = {}
    for (form, n, kind), out in zip(ops, outputs):
        if out is None:
            continue
        local, x = out
        name = f"{form.describe()} N={n} ({kind})"
        if x is not None:
            require(len(x) == form.rank and evaluate(form.m, form.coeffs, x) == n,
                    f"{name}: witness {x} does not evaluate to N")
            require(local, f"{name}: represented but reported locally obstructed")
        else:
            require(kind != "represented", f"{name}: no witness for a value of the form")
            unfound.setdefault(form, []).append(n)
        if kind == "obstructed":
            modulus = workload.OBSTRUCTION_MODULUS[(form.m, form.coeffs)]
            require(n % modulus not in residues(form.m, form.coeffs, modulus),
                    f"{name}: target is not obstructed mod {modulus}")
            require(not local, f"{name}: no solution mod {modulus}, "
                    "but reported locally represented")
    for form, targets in unfound.items():
        reach = reach_table(form.m, form.coeffs, max(targets))
        for n in targets:
            require(not reach[n], f"{form.describe()} N={n}: no witness returned, "
                    "but N is reachable")


# ---------------------------------------------------------------------------
# admissible
# ---------------------------------------------------------------------------

EQ2_PRIMITIVE = "primitively-solvable"


def reduced_gram(coeffs):
    a = coeffs
    n = len(a)
    return [[a[0] * a[i] + a[i] * a[i] if i == j else a[i] * a[j]
             for j in range(1, n)] for i in range(1, n)]


def k_bound(coeffs, det: int):
    """(K, primes): primes = {2} and odd p with at most four unit coefficients;
    K = prod 4 p^(1 + ord_p(a_1) + 2 ord_p(det)) - 1."""
    odd = {p for a in coeffs for p in _odd_prime_factors(a)}
    primes = sorted({2} | {p for p in odd if sum(1 for a in coeffs if a % p) <= 4})
    value = 1
    for p in primes:
        value *= 4 * p ** (1 + _ord(coeffs[0], p) + 2 * _ord(det, p))
    return value - 1, primes


def eq2_residual(m, coeffs, n, k, scale, x) -> int:
    """(c - s sum a_i x_i)^2 + s^2 sum a_1 a_i x_i^2 - R over i >= 2, with
    c = B + k(m-2), R = a_1 (2A + B + k(m-4)), N = A(m-2) + B."""
    A, B = divmod(n, m - 2)
    a1, tail = coeffs[0], coeffs[1:]
    c = B + k * (m - 2)
    R = a1 * (2 * A + B + k * (m - 4))
    lin = sum(t * xi for t, xi in zip(tail, x))
    quad = sum(a1 * t * xi * xi for t, xi in zip(tail, x))
    return (c - scale * lin) ** 2 + scale * scale * quad - R


def check_jordan(gram, dec, name: str) -> None:
    p, E = dec.p, dec.precision
    mod = p ** E
    size = len(gram)
    D = [[0] * size for _ in range(size)]
    pos = 0
    scales = []
    for scale, block in dec.blocks:
        require(p == 2 or len(block) == 1, f"{name}: {len(block)}x{len(block)} block at odd p")
        for i, row in enumerate(block):
            for j, v in enumerate(row):
                D[pos + i][pos + j] = p ** scale * v
        pos += len(block)
        scales.append(scale)
    require(pos == size, f"{name}: blocks cover {pos} of {size} rows")
    require(scales == sorted(scales), f"{name}: scales {scales} do not ascend")
    T = [list(r) for r in dec.transform]
    for i in range(size):
        for j in range(size):
            acc = sum(T[r][i] * gram[r][c] * T[c][j]
                      for r in range(size) for c in range(size))
            require((acc - D[i][j]) % mod == 0,
                    f"{name}: T^t A T differs from the blocks at ({i},{j}) mod {p}^{E}")
    require(cofactor_determinant(T) % p != 0, f"{name}: transform not invertible mod {p}")


def check_admissible(workload, ops, outputs, rng) -> None:
    for (form, n), out in zip(ops, outputs):
        if out is None:
            continue
        kc, search, rq, jordan = out
        m, coeffs = form.m, form.coeffs
        name = f"{form.describe()} N={n}"
        gram = reduced_gram(coeffs)
        det = cofactor_determinant(gram)
        require([list(r) for r in rq.gram] == gram and rq.det == det,
                f"{name}: reduced form or determinant {rq.det} (cofactor {det})")
        K, primes = k_bound(coeffs, det)
        require(kc.value == K and [p for p, _ in kc.factors] == primes,
                f"{name}: K = {kc.value} over {kc.factors}, recomputed {K} over {primes}")
        require(search.pairs, f"{name}: no admissible pair")
        for pair in search.pairs:
            require(0 <= pair.k <= K, f"{name}: k={pair.k} outside [0, {K}]")
            require({ev.p for ev in pair.evidence} >= set(primes),
                    f"{name}: k={pair.k} lacks evidence at some of {primes}")
            P = 1
            for ev in pair.evidence:
                P *= ev.p ** ev.s
                v = ev.verdict
                where = f"{name}: k={pair.k} P={pair.P} p={ev.p}"
                require(v.status == EQ2_PRIMITIVE, f"{where}: status {v.status}")
                require(v.witness is not None and len(v.witness) == form.rank - 1,
                        f"{where}: witness {v.witness}")
                res = eq2_residual(m, coeffs, n, ev.k_residue, ev.p ** ev.s, v.witness)
                require(res % ev.p ** v.precision == 0,
                        f"{where}: witness {v.witness} leaves residual {res} "
                        f"mod {ev.p}^{v.precision}")
                require(any(x % ev.p for x in v.witness),
                        f"{where}: witness {v.witness} is not primitive")
                require((pair.k - ev.k_residue) % ev.p == 0 and 0 <= ev.k_residue <= pair.k,
                        f"{where}: residue {ev.k_residue} is not a residue of k")
            require(P == pair.P, f"{name}: P={pair.P}, evidence gives {P}")
        require(len(jordan) == len(primes), f"{name}: {len(jordan)} Jordan decompositions")
        for p, dec in zip(primes, jordan):
            require(dec.p == p and dec.precision >= 2 * _ord(det, p) + 6,
                    f"{name}: Jordan at p={dec.p} to precision {dec.precision}")
            check_jordan(gram, dec, f"{name} Jordan p={p}")


CHECKS = {
    "census": check_census,
    "scaling": check_scaling,
    "represent": check_represent,
    "admissible": check_admissible,
}
