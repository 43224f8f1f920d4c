"""Quantitative machinery behind the k-parameter search: unit-deficient
primes, bad primes, stability exponents, the bound K(a) on the auxiliary
parameter, and the admissible (k, P) enumeration."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .arith import odd_prime_divisors, ordp
from .errors import AnomalyWarning, InputError
# ``locally_represents`` is not called here, but benchmarks/tracing.py wraps
# this module's binding of it
from .localrep import _locally_represented, locally_represents  # noqa: F401
from .polygonal import MgonalForm, decompose_target
from .quadratic import (
    EQ2_PRIMITIVE,
    EQ2_UNKNOWN,
    Eq2Verdict,
    eq2_stability_depth,
    is_bad_prime,
    reduced_quadratic,
    solvable_eq2_at,
)
from .serialize import json_int

#: Cap on the k that ``admissible_k`` scans; a search that stops here before
#: it fills ``pair_cap`` is flagged as truncated.
K_SCAN_LIMIT = 4096

ODD_GOOD = "odd-good"
ODD_BAD = "odd-bad"
DYADIC = "dyadic"


def unit_deficient_primes(form: MgonalForm) -> tuple[int, ...]:
    """Odd primes at which at most four coefficients are units (counted with
    multiplicity).  Finite: such a prime divides at least one coefficient."""
    if form.rank < 5:
        raise InputError("unit counting needs rank >= 5")
    candidates = set()
    for a in form.coeffs:
        if a > 1:
            candidates.update(odd_prime_divisors(a))
    out = [
        p for p in sorted(candidates)
        if sum(1 for a in form.coeffs if a % p) <= 4
    ]
    return tuple(out)


def bad_primes(form: MgonalForm) -> tuple[int, ...]:
    """The primes p with ``quadratic.is_bad_prime(form, p)``: odd p | m-4
    with ord_p(a_1) maximal among all coefficients and the tail diagonal form
    anisotropic over Z_p.  Empty for rank >= 6 (the tail has rank >= 5 and is
    then isotropic at every prime).  A rank-4 tail is isotropic at every odd
    prime dividing none of its coefficients, so only their divisors are tried."""
    if form.rank < 5:
        raise InputError("bad primes need rank >= 5")
    candidates = set()
    for a in form.coeffs[1:]:
        if a > 1:
            candidates.update(odd_prime_divisors(a))
    return tuple(p for p in sorted(candidates) if is_bad_prime(form, p))


@dataclass(frozen=True)
class StabilityExponent:
    """Modulus exponent e: verdicts are stable under k -> k + p^e shifts."""

    p: int
    e: int
    regime: str


def k_stability_exponent(form: MgonalForm, p: int) -> StabilityExponent:
    """``quadratic.eq2_stability_depth`` at p, labelled with its regime."""
    if form.rank < 5:
        raise InputError("stability exponents need rank >= 5")
    regime = DYADIC if p == 2 else ODD_BAD if is_bad_prime(form, p) else ODD_GOOD
    return StabilityExponent(p=p, e=eq2_stability_depth(form, p), regime=regime)


@dataclass(frozen=True)
class KConstant:
    """K(a) = prod over relevant primes of 4 p^(1 + ord_p(a_1) + 2 ord_p(d)), minus 1."""

    value: int
    factors: tuple[tuple[int, int], ...]  # (p, exponent)

    def to_json(self) -> dict:
        return {
            "value": json_int(self.value),
            "factors": [
                {"p": p, "exponent": e} for p, e in self.factors
            ],
        }


def k_constant(form: MgonalForm) -> KConstant:
    if form.rank < 5:
        raise InputError("the k bound needs rank >= 5")
    d = reduced_quadratic(form).det
    a1 = form.coeffs[0]
    primes = tuple(sorted(set(unit_deficient_primes(form)) | {2}))
    factors = []
    value = 1
    for p in primes:
        e = int(1 + ordp(a1, p) + 2 * ordp(d, p))
        factors.append((p, e))
        value *= 4 * p ** e
    return KConstant(value=value - 1, factors=tuple(factors))


@dataclass(frozen=True)
class PrimeEvidence:
    """Verified per-prime solvability record for an admissible pair.

    ``k_residue`` is the representative modulo p^(stability exponent) the
    verdict was computed at; by stability it covers the full residue class.
    The verdict is always primitive, so ``to_json`` writes min_order 0.
    """

    p: int
    s: int
    k_residue: int
    verdict: Eq2Verdict

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "k_residue": json_int(self.k_residue),
            "status": self.verdict.status,
            "min_order": 0,
            "precision": self.verdict.precision,
            "witness": [json_int(w) for w in self.verdict.witness]
            if self.verdict.witness is not None else None,
        }


@dataclass(frozen=True)
class AdmissiblePair:
    """(k, P) with the scaled reduced equation primitively solvable at every
    relevant prime; P = prod p^(s(p)) over the relevant primes."""

    k: int
    P: int
    evidence: tuple[PrimeEvidence, ...]

    def to_json(self) -> dict:
        return {
            "k": json_int(self.k),
            "P": json_int(self.P),
            "evidence": [e.to_json() for e in self.evidence],
        }


@dataclass(frozen=True)
class AdmissibleSearch:
    """Result of the (k, P) enumeration: the pairs found plus diagnostics.

    An empty result for a locally represented target is an anomaly (the
    theory guarantees a pair with k <= K(a)), reported rather than raised.
    ``scanned_k`` counts the k values the scan visited; ``truncated`` means
    it stopped at ``K_SCAN_LIMIT`` before filling ``pair_cap``.
    """

    form: MgonalForm
    N: int
    k_bound: int
    pairs: tuple[AdmissiblePair, ...]
    scanned_k: int
    truncated: bool
    diagnostics: tuple[str, ...]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __bool__(self):
        return bool(self.pairs)

    @property
    def anomaly(self) -> bool:
        return not self.pairs

    def to_json(self) -> dict:
        return {
            "form": {"m": self.form.m, "coeffs": list(self.form.coeffs)},
            "N": self.N,
            "k_bound": json_int(self.k_bound),
            "pairs": [pair.to_json() for pair in self.pairs],
            "scanned_k": self.scanned_k,
            "truncated": self.truncated,
            "diagnostics": list(self.diagnostics),
        }


def _scale_options(form: MgonalForm, primes) -> list[int]:
    """All P = prod p^(s(p)) with 0 <= s(p) <= ord_p(4 a_1)/2, ascending."""
    a1 = form.coeffs[0]
    options = [1]
    for p in primes:
        cap = int(ordp(4 * a1, p)) // 2
        options = [P * p ** s for P in options for s in range(cap + 1)]
    return sorted(options)


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


def admissible_k(form: MgonalForm, N: int, *, pair_cap: int = 16) -> AdmissibleSearch:
    """All (k, P) pairs (ascending k, then P, up to ``pair_cap``) for which the
    scaled reduced equation is primitively solvable at every relevant prime.

    Per prime, admissibility depends only on k modulo p^(stability exponent),
    so verdicts are memoized per residue and the scan over k is capped at the
    product of the per-prime periods (a full set of Chinese-remainder
    representatives); ``K_SCAN_LIMIT`` bounds the scan further for
    pathologically large periods, in which case the result is flagged as
    truncated.

    ``solvable_eq2_at`` asks whether the equation at scale P has a primitive
    solution at p, at the depth that the form fixes there; a solution
    p^sigma y at scale P is a primitive one at scale P p^sigma, which the
    loop over P tries when it is among the scales.  Its walk and the deeper congruence disproofs share one node
    budget, and no prime is too large to try.  A residue whose verdict is
    still undecided (``EQ2_UNKNOWN``) counts as not admissible.  Whenever a
    prime has such residues, or verdicts whose walk hit its node budget, the
    diagnostics say how many of each.
    """
    if form.rank < 5:
        raise InputError("the admissible search needs rank >= 5")
    if N < 0:
        raise InputError(f"target must be nonnegative, got {N}")
    if not _locally_represented(form, N):
        raise InputError(f"{N} is not locally represented by {form.describe()}")
    dec = decompose_target(form.m, N)
    kc = k_constant(form)
    primes = tuple(p for p, _ in kc.factors)
    diagnostics = []
    bad = bad_primes(form)
    stray = [p for p in bad if p not in primes]
    if stray:
        diagnostics.append(
            f"bad primes {stray} fall outside the relevant prime set {primes}"
        )
        warnings.warn(diagnostics[-1], AnomalyWarning)
        primes = tuple(sorted(set(primes) | set(stray)))
    exponents = {p: eq2_stability_depth(form, p) for p in primes}
    period = 1
    for p in primes:
        period *= p ** exponents[p]
    full_stop = min(kc.value + 1, period)
    scan_stop = min(full_stop, K_SCAN_LIMIT)
    scales = _scale_options(form, primes)
    memo: dict[tuple[int, int, int], Eq2Verdict] = {}

    def prime_verdict(p: int, k: int, s: int) -> Eq2Verdict:
        key = (p, k % p ** exponents[p], s)
        if key not in memo:
            memo[key] = solvable_eq2_at(
                form, dec.A, dec.B, key[1], p, scale=p ** s
            )
        return memo[key]

    pairs: list[AdmissiblePair] = []
    scanned_k = 0
    for k in range(scan_stop):
        scanned_k += 1
        for P in scales:
            evidence = []
            for p in primes:
                s = int(ordp(P, p))
                verdict = prime_verdict(p, k, s)
                if verdict.status != EQ2_PRIMITIVE:
                    break
                evidence.append(
                    PrimeEvidence(
                        p=p, s=s, k_residue=k % p ** exponents[p], verdict=verdict
                    )
                )
            else:
                pairs.append(AdmissiblePair(k=k, P=P, evidence=tuple(evidence)))
                if len(pairs) >= pair_cap:
                    break
        if len(pairs) >= pair_cap:
            break
    truncated = scan_stop < full_stop and len(pairs) < pair_cap
    if truncated:
        diagnostics.append(
            f"k scan truncated at {K_SCAN_LIMIT} (full residue period is {period})"
        )
    for p in primes:
        tested = [v for key, v in memo.items() if key[0] == p]
        undecided = sum(1 for v in tested if v.status == EQ2_UNKNOWN)
        hits = sum(1 for v in tested if v.budget_exhausted)
        if undecided or hits:
            diagnostics.append(
                f"p={p}: {_count(undecided, 'undecided residue')}, "
                f"{_count(hits, 'budget hit')}"
            )
    if not pairs:
        for p in primes:
            residues = len({key[1] for key in memo if key[0] == p})
            diagnostics.append(
                f"p={p}: no admissible residue among {residues} tested "
                f"(stability exponent {exponents[p]})" if residues else
                f"p={p}: not reached (every scanned k failed at an earlier prime)"
            )
        warnings.warn(
            f"no admissible (k, P) found for {form.describe()} at N={N}",
            AnomalyWarning,
        )
    return AdmissibleSearch(
        form=form, N=N, k_bound=kc.value, pairs=tuple(pairs),
        scanned_k=scanned_k, truncated=truncated,
        diagnostics=tuple(diagnostics),
    )
