"""Local representability of integers by m-gonal forms.

Four mutually exclusive rules decide representability over Z_p:

  1. p odd, p | m-2: every target is represented (single-variable lift).
  2. p = 2, m != 0 (mod 4): every target is represented over Z_2.
  3. p odd, p does not divide m-2: N is represented iff
     8(m-2)N + (a_1+...+a_n)(m-4)^2 is represented by the diagonal form.
  4. p = 2, m = 0 (mod 4): N is represented iff
     (m-2)/2 N + (a_1+...+a_n)((m-4)/4)^2 is represented over Z_2.

At odd primes dividing neither m-2 nor any coefficient, the diagonal form is
unimodular of rank >= 3 and therefore universal, so only finitely many primes
ever need rule 3's diagonal decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import is_prime, odd_prime_divisors
from .errors import InputError
from .polygonal import MgonalForm
from .quadratic import _diagonal_solvable, _diagonal_solvable_run

UNIMODULAR_SHORTCUT = "unimodular-universal"

#: Smallest rank for which the unimodular-universality shortcut is valid.
_MIN_SHORTCUT_RANK = 3


@dataclass(frozen=True)
class LocalVerdict:
    """Per-prime verdict carrying the rule that decided it."""

    p: int
    represented: bool
    rule: int | str
    criterion_value: int | None = None

    def to_json(self) -> dict:
        out = {"p": self.p, "represented": self.represented, "rule": self.rule}
        if self.criterion_value is not None:
            out["criterion_value"] = self.criterion_value
        return out


@dataclass(frozen=True)
class LocalRepresentation:
    """Aggregate local verdict over all relevant primes."""

    represented: bool
    verdicts: tuple[LocalVerdict, ...]

    def __bool__(self) -> bool:
        return self.represented

    def to_json(self) -> dict:
        return {
            "represented": self.represented,
            "verdicts": [v.to_json() for v in self.verdicts],
        }


def _rule_for(m: int, p: int) -> int:
    if p == 2:
        return 2 if m % 4 else 4
    return 1 if (m - 2) % p == 0 else 3


def _criterion(form: MgonalForm, p: int):
    """(rule, alpha, beta): over Z_p the form represents N iff the diagonal
    form represents c = alpha*N + beta, with alpha a p-adic unit; alpha is None
    when the rule represents every N."""
    m = form.m
    rule = _rule_for(m, p)
    if rule in (1, 2):
        return rule, None, None
    if rule == 3:
        if form.rank >= _MIN_SHORTCUT_RANK and all(ai % p for ai in form.coeffs):
            return UNIMODULAR_SHORTCUT, None, None
        return rule, 8 * (m - 2), form.coeff_sum * (m - 4) ** 2
    # rule 4, m = 0 (mod 4) so (m-4)/4 is exact
    return rule, (m - 2) // 2, form.coeff_sum * ((m - 4) // 4) ** 2


def _verdict(coeffs, N: int, p: int, rule, alpha, beta) -> LocalVerdict:
    """The verdict at p from that prime's ``_criterion`` (rule, alpha, beta)."""
    if alpha is None:
        return LocalVerdict(p=p, represented=True, rule=rule)
    c = alpha * N + beta
    return LocalVerdict(p=p, represented=_diagonal_solvable(coeffs, c, p),
                        rule=rule, criterion_value=c)


def locally_represents_at(form: MgonalForm, N: int, p: int) -> LocalVerdict:
    """Decide representability of N by the form over Z_p."""
    if not is_prime(p):
        raise InputError(f"{p!r} is not prime")
    if N < 0:
        raise InputError(f"target must be nonnegative, got {N}")
    return _verdict(form.coeffs, N, p, *_criterion(form, p))


@lru_cache(maxsize=1024)
def relevant_primes(form: MgonalForm) -> tuple[int, ...]:
    """{2} union {odd p : p divides some coefficient and p does not divide m-2}.

    Outside this set the form is universal over Z_p: rule 1 covers odd
    divisors of m-2, and at the remaining odd primes the diagonal form is
    unimodular of rank >= 3, hence isotropic and universal.  Requires rank >= 3.
    """
    if form.rank < _MIN_SHORTCUT_RANK:
        raise InputError("relevant primes need rank >= 3")
    primes = {2}
    for a in form.coeffs:
        for p in odd_prime_divisors(a) if a > 1 else ():
            if (form.m - 2) % p:
                primes.add(p)
    return tuple(sorted(primes))


@lru_cache(maxsize=1024)
def _criteria(form: MgonalForm) -> tuple:
    """(p, rule, alpha, beta) per relevant prime, ascending in p, from
    ``_criterion``: the per-form part of every local verdict."""
    return tuple((p, *_criterion(form, p)) for p in relevant_primes(form))


def locally_represents(form: MgonalForm, N: int) -> LocalRepresentation:
    """Conjunction of the per-prime verdicts over the relevant primes."""
    criteria = _criteria(form)
    if N < 0:
        raise InputError(f"target must be nonnegative, got {N}")
    verdicts = tuple(_verdict(form.coeffs, N, *c) for c in criteria)
    return LocalRepresentation(represented=all(v.represented for v in verdicts),
                               verdicts=verdicts)


def _locally_represented(form: MgonalForm, N: int) -> bool:
    """``locally_represents(form, N).represented`` for N >= 0, with no verdict
    objects; it stops at the first prime that fails."""
    coeffs = form.coeffs
    for p, _, alpha, beta in _criteria(form):
        if alpha is not None and not _diagonal_solvable(coeffs, alpha * N + beta, p):
            return False
    return True


def local_bits(form: MgonalForm, bound: int) -> int:
    """``local_flags(form, bound)`` read as one big-endian integer: byte N of
    the flags is the byte bound - N of the integer, 1 iff N is locally
    represented.  One periodic residue pattern per prime, combined by AND,
    starting from the first prime's pattern."""
    n = bound + 1
    flags = None
    for p, _, alpha, beta in _criteria(form):
        if alpha is not None:
            run = int.from_bytes(
                _diagonal_solvable_run(form.coeffs, p, alpha, beta, n), "big")
            flags = run if flags is None else flags & run
    return int.from_bytes(b"\x01" * n, "big") if flags is None else flags


def local_flags(form: MgonalForm, bound: int) -> bytes:
    """Byte N is 1 iff ``locally_represents(form, N)``, for 0 <= N <= bound."""
    return local_bits(form, bound).to_bytes(bound + 1, "big")
