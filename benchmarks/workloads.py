"""The four benchmark workloads: their seeded inputs and their timed calls.

Each workload lists its operations with ``ops()`` and runs one with
``run(op, span)``.  ``run`` calls the library through module attributes
(``mgonal.census.exceptional_set`` and so on), never through names bound at
import time, so that the traced run can swap those attributes for timing
wrappers.  ``view`` gives the bytes of an output that must repeat exactly from
one round to the next.

Input generation uses only this file's own arithmetic: it must not touch the
library's caches, which every round starts cold, as every ``mgonal`` process
does.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext

import mgonal.census
import mgonal.localrep
import mgonal.polygonal
import mgonal.quadratic
import mgonal.theorem
from mgonal.arith import PAdicContext
from mgonal.polygonal import MgonalForm


class OperationFailed(Exception):
    """An operation returned without raising, but with no usable result."""


def no_span(name):
    return nullcontext()


def polygonal(m: int, x: int) -> int:
    """The x-th generalized m-gonal number, (m-2)(x^2-x)/2 + x."""
    return (m - 2) * (x * x - x) // 2 + x


def evaluate(m: int, coeffs, x) -> int:
    return sum(a * polygonal(m, xi) for a, xi in zip(coeffs, x))


def residues(m: int, coeffs, modulus: int) -> set[int]:
    """Residues mod ``modulus`` taken by sum a_i P_m(x_i).

    P_m(x) mod M has period 2M in x, so x in [0, 2M) covers every class.  An N
    outside this set has no solution mod M, hence none over Z_p for the
    primes p dividing M: a certificate of a local obstruction.
    """
    reach = {0}
    for a in coeffs:
        values = {a * polygonal(m, x) % modulus for x in range(2 * modulus)}
        reach = {(r + v) % modulus for r in reach for v in values}
    return reach


def _stratified_log(rng: random.Random, count: int, lo: float, hi: float):
    """``count`` points, one drawn uniformly in each equal slice of [log lo, log hi].

    One point per slice keeps every quantile of the sample close to the same
    place for every seed, so run-to-run spread comes from the program, not
    from the draw.
    """
    ratio = hi / lo
    return [lo * ratio ** ((i + rng.random()) / count) for i in range(count)]


# ---------------------------------------------------------------------------
# census: a few long censuses
# ---------------------------------------------------------------------------

class Census:
    """``exceptional_set(jobs=1)`` and the stable JSON and CSV, per form."""

    name = "census"
    FORMS = (
        (10, (1, 1, 1, 2, 4)),
        (8, (1, 2, 3, 5, 7)),
        (12, (2, 3, 5, 7, 11)),
        (16, (1, 3, 9, 27, 27)),
    )
    BOUND = 100_000
    SMALL_BOUND = 3_000

    def __init__(self, seed: int, small: bool = False, jobs: int = 1):
        # The timed inputs are fixed; the seed picks what the checks sample.
        self.bound = self.SMALL_BOUND if small else self.BOUND
        self.forms = [MgonalForm(m, c) for m, c in self.FORMS]

    def ops(self):
        return self.forms

    def run(self, form, span=no_span):
        report = mgonal.census.exceptional_set(form, self.bound, jobs=1)
        with span("census.serialize"):
            payload = report.to_json_bytes(stable=True)
            csv = report.to_csv()
        return report, payload, csv

    def view(self, form, out) -> bytes:
        return out[1] + out[2].encode()


# ---------------------------------------------------------------------------
# scaling: the paper's headline experiment, many small censuses
# ---------------------------------------------------------------------------

class Scaling:
    """``scaling_experiment`` over m in [5, 16] at bounds 20 (m-2)^3."""

    name = "scaling"
    COEFFS = (2, 3, 5, 7, 11)
    M_MIN = 5
    M_MAX = 16
    SMALL_M_MAX = 8
    MULTIPLIER = 20

    def __init__(self, seed: int, small: bool = False, jobs: int = 1):
        self.m_max = self.SMALL_M_MAX if small else self.M_MAX
        self.jobs = jobs

    def ops(self):
        return [(self.COEFFS, self.M_MIN, self.m_max, self.MULTIPLIER)]

    def run(self, op, span=no_span):
        coeffs, m_min, m_max, multiplier = op
        result = mgonal.census.scaling_experiment(
            coeffs, m_min, m_max, multiplier, jobs=self.jobs
        )
        with span("census.serialize"):
            payload = json.dumps(
                result.to_json(stable=True), sort_keys=True, separators=(",", ":")
            )
            csv = result.to_csv(stable=True)
        return result, payload, csv

    def view(self, op, out) -> bytes:
        return out[1].encode() + out[2].encode()

    @staticmethod
    def latencies(times, outputs):
        """One latency per row: the library's own time for that m's census."""
        return [row.seconds for out in outputs if out is not None
                for row in out[0].rows]


# ---------------------------------------------------------------------------
# represent: single-target queries, local criterion then the DFS
# ---------------------------------------------------------------------------

class Represent:
    """A shuffled stream of ``locally_represents`` then ``represents`` queries.

    Three kinds of target:
    - ``represented``: values of the form at seeded vectors, up to 10^6, so a
      witness exists by construction;
    - ``exceptional``: each form's exceptional integers (censused to 10^5);
    - ``obstructed``: targets in [10^4, 1.6*10^4] with no solution mod p^3 at
      an obstructing prime, so the DFS must exhaust its whole tree.
    """

    name = "represent"
    FORMS = (
        (16, (1, 3, 9, 27, 27)),
        (14, (1, 5, 25, 25, 25)),
        (12, (2, 3, 5, 7, 11)),
        (11, (1, 3, 9, 9, 27)),
    )
    EXCEPTIONAL = {
        (16, (1, 3, 9, 27, 27)): (7, 18, 21, 34, 126, 153, 261, 369),
        (14, (1, 5, 25, 25, 25)): (
            4, 9, 20, 21, 24, 29, 45, 46, 49, 54, 79, 100, 111, 136, 161,
            176, 194, 201, 219, 224, 226, 244, 249, 269, 274, 299, 324, 436,
            501,
        ),
        (12, (2, 3, 5, 7, 11)): (1, 4, 6, 22, 46, 53),
        (11, (1, 3, 9, 9, 27)): (2, 5, 6, 7, 15, 16, 65, 74),
    }
    #: Modulus whose residues certify a local obstruction (p^3 at the prime).
    OBSTRUCTION_MODULUS = {
        (16, (1, 3, 9, 27, 27)): 27,
        (14, (1, 5, 25, 25, 25)): 125,
    }
    REPRESENTED_PER_FORM = 44
    REPRESENTED_RANGE = (1e3, 1e6)
    OBSTRUCTED_PER_FORM = 20
    OBSTRUCTED_RANGE = (1e4, 1.6e4)
    SMALL = {"represented": 3, "obstructed": 2, "obstructed_range": (500, 1000)}

    def __init__(self, seed: int, small: bool = False, jobs: int = 1):
        rng = random.Random(seed)
        n_rep = self.SMALL["represented"] if small else self.REPRESENTED_PER_FORM
        n_obs = self.SMALL["obstructed"] if small else self.OBSTRUCTED_PER_FORM
        obs_lo, obs_hi = (self.SMALL["obstructed_range"] if small
                          else self.OBSTRUCTED_RANGE)
        self.targets = []
        for m, coeffs in self.FORMS:
            form = MgonalForm(m, coeffs)
            for size in _stratified_log(rng, n_rep, *self.REPRESENTED_RANGE):
                x = [self._term_argument(rng, m, a, size / len(coeffs))
                     for a in coeffs]
                self.targets.append((form, evaluate(m, coeffs, x), "represented"))
            for n in self.EXCEPTIONAL[(m, coeffs)]:
                self.targets.append((form, n, "exceptional"))
            modulus = self.OBSTRUCTION_MODULUS.get((m, coeffs))
            if modulus is None:
                continue
            hit = residues(m, coeffs, modulus)
            for start in _stratified_log(rng, n_obs, obs_lo, obs_hi):
                n = int(start)
                while n % modulus in hit:
                    n += 1
                self.targets.append((form, n, "obstructed"))
        rng.shuffle(self.targets)

    @staticmethod
    def _term_argument(rng, m, a, cap):
        """A random x, either sign, with a * P_m(|x|) <= cap."""
        top = 0
        while a * polygonal(m, top + 1) <= cap:
            top += 1
        return rng.choice((1, -1)) * rng.randint(0, top)

    def ops(self):
        return self.targets

    def run(self, target, span=no_span):
        form, n, _ = target
        local = mgonal.localrep.locally_represents(form, n).represented
        witness = mgonal.polygonal.represents(form, n)
        return local, (witness.x if witness is not None else None)

    def view(self, target, out) -> bytes:
        return repr(out).encode()


# ---------------------------------------------------------------------------
# admissible: the (k, P) search, the K bound and Jordan decompositions
# ---------------------------------------------------------------------------

class Admissible:
    """Per (form, N): ``k_constant``, ``admissible_k(pair_cap=3)`` and the
    Jordan decomposition of the reduced Gram matrix at each prime of K.

    The instances are fixed, because the cost of a fresh random sample swings
    from 3 s to 92 s with the seed; the seed shuffles their order.
    """

    name = "admissible"
    #: The acceptance suite's criterion-8 sample: its generator at seed
    #: 80808 (30 locally represented pairs, at most one even coefficient).
    CRITERION_8 = (
        (12, (10, 9, 9, 1, 1), 52), (4, (8, 1, 1, 9, 3), 32),
        (8, (5, 1, 5, 5, 3), 31), (7, (11, 1, 6, 3, 3), 173),
        (6, (5, 11, 1, 1, 4), 54), (5, (7, 1, 11, 6, 9), 155),
        (10, (1, 3, 5, 10, 7), 119), (7, (11, 9, 9, 1, 4), 27),
        (3, (7, 12, 9, 1, 1), 93), (7, (5, 1, 7, 1, 5), 49),
        (8, (1, 11, 3, 11, 12), 221), (10, (1, 1, 3, 1, 8), 272),
        (3, (1, 1, 12, 7, 3), 286), (7, (9, 1, 11, 4, 1), 125),
        (3, (12, 9, 9, 1, 11), 254), (3, (1, 6, 11, 1, 3), 262),
        (8, (10, 3, 3, 11, 1), 244), (12, (1, 4, 11, 7, 7), 115),
        (3, (9, 5, 1, 2, 3), 142), (8, (11, 5, 1, 7, 1), 29),
        (10, (5, 1, 1, 12, 7), 5), (4, (7, 9, 8, 1, 1), 285),
        (7, (12, 11, 1, 9, 5), 255), (6, (1, 2, 9, 3, 1), 232),
        (7, (2, 1, 5, 1, 11), 202), (5, (12, 1, 9, 1, 1), 282),
        (6, (5, 9, 1, 9, 10), 138), (12, (1, 8, 3, 1, 5), 128),
        (5, (1, 5, 1, 7, 9), 53), (11, (5, 8, 1, 1, 9), 279),
    )
    #: One eq2 call exhausts the 250k-node stratum budget.  <12,12,1,3,7>_3
    #: at N=66 (one budget hit, 7 s) is left out: without it a round fits
    #: three times in a run, and the median over rounds is what keeps the
    #: per-operation quantiles steady.
    BUDGET_HITS = ((11, (8, 1, 9, 11, 4), 2),)
    SMALL_COUNT = 3

    def __init__(self, seed: int, small: bool = False, jobs: int = 1):
        chosen = (self.CRITERION_8[:self.SMALL_COUNT] if small
                  else self.CRITERION_8 + self.BUDGET_HITS)
        self.instances = [(MgonalForm(m, c), n) for m, c, n in chosen]
        random.Random(seed).shuffle(self.instances)

    def ops(self):
        return self.instances

    @staticmethod
    def jordan_precision(det: int, p: int) -> int:
        """12, or 2 ord_p(det) + 6 where that is larger (the decomposition's floor)."""
        v = 0
        while det % p == 0:
            det //= p
            v += 1
        return max(12, 2 * v + 6)

    def run(self, instance, span=no_span):
        form, n = instance
        kc = mgonal.theorem.k_constant(form)
        search = mgonal.theorem.admissible_k(form, n, pair_cap=3)
        if search.anomaly:
            raise OperationFailed(f"no admissible pair for {form.describe()} at N={n}")
        rq = mgonal.quadratic.reduced_quadratic(form)
        jordan = [
            mgonal.quadratic.jordan_decompose(
                rq.gram, PAdicContext(p, self.jordan_precision(rq.det, p))
            )
            for p, _ in kc.factors
        ]
        return kc, search, rq, jordan

    def view(self, instance, out) -> bytes:
        kc, search, rq, jordan = out
        return json.dumps(
            [kc.to_json(), search.to_json(), rq.det,
             [[j.p, j.precision, j.transform, j.blocks] for j in jordan]],
            sort_keys=True,
        ).encode()


WORKLOADS = {w.name: w for w in (Census, Scaling, Represent, Admissible)}


def latencies(workload, times, outputs):
    """Per-operation latencies in seconds (scaling reports one per row)."""
    pick = getattr(workload, "latencies", None)
    return pick(times, outputs) if pick is not None else list(times)

