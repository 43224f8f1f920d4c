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

from .arith import is_prime, odd_prime_divisors, unit_square_class_reps
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


def _criterion(form: MgonalForm, p: int, allow_shortcut: bool = True):
    """(rule, alpha, beta): over Z_p the form represents N iff the diagonal
    form represents c = alpha*N + beta, with alpha a p-adic unit; alpha is None
    when the rule represents every N."""
    m = form.m
    rule = _rule_for(m, p)
    if rule in (1, 2):
        return rule, None, None
    if rule == 3:
        if (
            allow_shortcut
            and form.rank >= _MIN_SHORTCUT_RANK
            and all(ai % p for ai in form.coeffs)
        ):
            return UNIMODULAR_SHORTCUT, None, None
        return rule, 8 * (m - 2), form.coeff_sum * (m - 4) ** 2
    # rule 4, m = 0 (mod 4) so (m-4)/4 is exact
    return rule, (m - 2) // 2, form.coeff_sum * ((m - 4) // 4) ** 2


def locally_represents_at(form: MgonalForm, N: int, p: int,
                          *, allow_shortcut: bool = True) -> LocalVerdict:
    """Decide representability of N by the form over Z_p."""
    if not is_prime(p):
        raise InputError(f"{p!r} is not prime")
    return _verdict_at(form, N, p, allow_shortcut)


def _verdict_at(form: MgonalForm, N: int, p: int,
                allow_shortcut: bool = True) -> LocalVerdict:
    """``locally_represents_at`` for a p already known to be prime."""
    if N < 0:
        raise InputError(f"target must be nonnegative, got {N}")
    rule, alpha, beta = _criterion(form, p, allow_shortcut)
    if alpha is None:
        return LocalVerdict(p=p, represented=True, rule=rule)
    c = alpha * N + beta
    represented = _diagonal_solvable(form.coeffs, c, p)
    return LocalVerdict(p=p, represented=represented, rule=rule, criterion_value=c)


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


def locally_represents(form: MgonalForm, N: int) -> LocalRepresentation:
    """Conjunction of the per-prime verdicts over the relevant primes."""
    verdicts = []
    ok = True
    for p in relevant_primes(form):
        v = _verdict_at(form, N, p)
        verdicts.append(v)
        ok = ok and v.represented
    return LocalRepresentation(represented=ok, verdicts=tuple(verdicts))


def local_flags(form: MgonalForm, bound: int) -> bytes:
    """Byte N is 1 iff ``locally_represents(form, N)``, for 0 <= N <= bound:
    one periodic residue pattern per prime, combined by AND."""
    n = bound + 1
    flags = int.from_bytes(b"\x01" * n, "big")
    for p in relevant_primes(form):
        _, alpha, beta = _criterion(form, p)
        if alpha is not None:
            run = _diagonal_solvable_run(form.coeffs, p, alpha, beta, n)
            flags &= int.from_bytes(run, "big")
    return flags.to_bytes(n, "big")


def is_locally_universal(form: MgonalForm) -> bool:
    """True iff the form represents every nonnegative integer over every Z_p.

    Per relevant prime the target criterion value sweeps an affine image of
    Z_p with unit multiplier, so universality reduces to the diagonal form
    representing every square class p^delta u; classes with delta >= 2
    follow from delta - 2 by scaling, so delta in {0, 1} suffices.
    """
    if form.rank < _MIN_SHORTCUT_RANK:
        raise InputError("local universality check needs rank >= 3")
    for p in relevant_primes(form):
        rule = _rule_for(form.m, p)
        if rule in (1, 2):
            continue
        for delta in (0, 1):
            for u in unit_square_class_reps(p):
                if not _diagonal_solvable(form.coeffs, u * p ** delta, p):
                    return False
    return True
