"""Exceptional-set censuses: integers locally represented but not represented,
and the cubic-in-(m-2) scaling experiment."""

from __future__ import annotations

import io
import json
import math
import sys
import time
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .arith import bit_bytes
from .errors import InputError, ResourceError
from .localrep import _locally_represented, local_bits, locally_represents
from .polygonal import MgonalForm, _term_table, decompose_target, represents
from .serialize import json_int

#: Hard ceiling on scan bounds; above this the table alone is unreasonable.
MAX_BOUND = 50_000_000


# ---------------------------------------------------------------------------
# Global representability table (exact, bound-complete)
# ---------------------------------------------------------------------------

#: Old name of the shared term table; the benchmark's trace reads its cache.
_value_table = _term_table


def _term_bits(m: int, a: int, bound: int) -> int:
    """The bitset of the values a*P_m(x) <= bound: the bits set in one
    little-endian byte buffer and read as an integer once, where shifting 1
    by each value would OR every value into a full-width integer."""
    buf = bytearray((bound >> 3) + 1)
    for v in _term_table(m, a, bound)[0]:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _add_term(reach: int, m: int, a: int, bound: int) -> int:
    """The bitset of the sums s + a*P_m(x) <= bound over s in ``reach``."""
    out = 0
    # Largest shift first: every partial OR then has the final size, so the
    # allocator reuses freed blocks instead of mapping fresh pages for ever
    # larger ones (a third of the stages' time at bound 10^7, 2-core VM).
    for v in reversed(_term_table(m, a, bound)[0]):
        out |= reach << v
    return out & ((1 << (bound + 1)) - 1)


def _reach(form: MgonalForm, bound: int) -> int:
    """The bitset of the sums <= bound of the first rank-1 terms (bit N set =
    reachable), folded one term at a time.  The last term is left to
    ``exceptional_set``, which probes it at the N the others miss, or sweeps
    it when those N outnumber its values."""
    reach = _term_bits(form.m, form.coeffs[0], bound)
    for a in form.coeffs[1:-1]:
        reach = _add_term(reach, form.m, a, bound)
    return reach


def _ones(mask: bytes):
    """The indices of the 1 bytes of a 0/1 byte mask, ascending: one C scan
    plus one step per 1."""
    i = mask.find(1)
    while i >= 0:
        yield i
        i = mask.find(1, i + 1)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ExceptionalReport:
    """Census over [0, bound]: the exceptional integers (locally represented
    but not represented) and the counts.  Witnesses come from ``represents``,
    local flags from the form's cached local criterion, one N at a time."""

    form: MgonalForm
    bound: int
    exceptional: tuple[int, ...]
    locally_represented_count: int
    represented_count: int
    max_exceptional: int | None
    timings: dict

    def witness(self, N: int) -> tuple[int, ...] | None:
        """``represents(form, N).x`` for a represented N <= bound, else None;
        None with no search at an exceptional N, where it would find nothing."""
        if not 0 <= N <= self.bound:
            raise InputError(f"{N} outside the scanned range [0, {self.bound}]")
        exc = self.exceptional
        j = bisect_left(exc, N)
        if exc[j:j + 1] == (N,):
            return None
        w = represents(self.form, N)
        return None if w is None else w.x

    def locally_represented(self, N: int) -> bool:
        if not 0 <= N <= self.bound:
            raise InputError(f"{N} outside the scanned range [0, {self.bound}]")
        return _locally_represented(self.form, N)

    def to_json(self, *, stable: bool = False) -> dict:
        out = {
            "form": {"m": self.form.m, "coeffs": list(self.form.coeffs)},
            "bound": self.bound,
            "exceptional": [json_int(n) for n in self.exceptional],
            "counts": {
                "locally_represented": self.locally_represented_count,
                "represented": self.represented_count,
            },
            "max_exceptional": (
                json_int(self.max_exceptional)
                if self.max_exceptional is not None else None
            ),
        }
        if not stable:
            out["timings"] = self.timings
        return out

    def to_json_bytes(self, *, stable: bool = False) -> bytes:
        return json.dumps(
            self.to_json(stable=stable), sort_keys=True, separators=(",", ":")
        ).encode()

    def to_csv(self) -> str:
        """One row per exceptional N: N, A, B, evidence summary."""
        buf = io.StringIO()
        buf.write("N,A,B,evidence\n")
        for n in self.exceptional:
            dec = decompose_target(self.form.m, n)
            verdicts = locally_represents(self.form, n).verdicts
            rules = ";".join(f"p={v.p}:rule={v.rule}" for v in verdicts)
            buf.write(
                f"{n},{dec.A},{dec.B},"
                f"locally represented ({rules}) but no witness below bound\n"
            )
        return buf.getvalue()


def exceptional_set(form: MgonalForm, bound: int, *,
                    jobs: int = 1) -> ExceptionalReport:
    """Exact exceptional set on [0, bound].

    The represented side is a complete subset-sum reachability table over the
    (nonnegative) term values, so every verdict below the bound is exact; the
    local side is one periodic residue pattern per prime (``local_bits``).
    The table stops one term short, at the sums of the first rank-1 terms.
    The candidates are the locally represented N that it misses.  When they
    are no more than the distinct values of the last term, each is decided by
    probing that stage at N - v for every last-term value v <= N: at most
    (number of values)^2 byte lookups, below the cost of sweeping the last
    stage.  Otherwise the last stage is swept, and the candidates it misses
    are the exceptions.  Every represented N is locally represented, so the
    represented count is the locally represented count less the exceptions.
    ``jobs`` has no effect; it is kept only because
    ``benchmarks/workloads.py`` passes it.
    """
    if bound < 1:
        raise InputError(f"bound must be positive, got {bound}")
    if bound > MAX_BOUND:
        raise ResourceError(f"bound {bound} exceeds the census ceiling {MAX_BOUND}")
    if form.rank < 3:
        raise InputError("census needs rank >= 3 (local side undecidable below)")
    if form.rank < 5:
        warnings.warn(
            "rank below 5: almost-regularity is not guaranteed; "
            "exceptional sets may grow with the bound",
            stacklevel=2,
        )
    t0 = time.perf_counter()
    reach = _reach(form, bound)
    t1 = time.perf_counter()
    local = local_bits(form, bound)  # one bit per flag byte
    t2 = time.perf_counter()
    n = bound + 1
    locally_represented_count = local.bit_count()
    # Reach lies within local, so the candidates number the difference of
    # the counts, and local ^ reach (no negative int to copy) is local & ~reach.
    last = _term_table(form.m, form.coeffs[-1], bound)[0]  # ascending
    sweep_s = 0.0
    if locally_represented_count - reach.bit_count() > len(last):
        ts = time.perf_counter()
        reach = _add_term(reach, form.m, form.coeffs[-1], bound)
        sweep_s = time.perf_counter() - ts
        last = []  # every term is in reach: nothing left to probe
    view = bit_bytes(reach, n)
    candidates = local ^ int.from_bytes(view, "big")
    exceptional = tuple(
        N for N in _ones(candidates.to_bytes(n, "big"))
        if not any(view[N - v] for v in last[:bisect_right(last, N)])
    )
    t3 = time.perf_counter()
    reach_s, local_s, extract_s = (round(t1 - t0 + sweep_s, 6),
                                   round(t2 - t1, 6),
                                   round(t3 - t2 - sweep_s, 6))
    return ExceptionalReport(
        form=form,
        bound=bound,
        exceptional=exceptional,
        locally_represented_count=locally_represented_count,
        represented_count=locally_represented_count - len(exceptional),
        max_exceptional=exceptional[-1] if exceptional else None,
        timings={
            "reach_seconds": reach_s,
            "local_seconds": local_s,
            "extract_seconds": extract_s,
            "total_seconds": round(reach_s + local_s + extract_s, 6),
        },
    )


@dataclass(frozen=True)
class ScalingRow:
    m: int
    bound: int
    max_exceptional: int | None
    seconds: float


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[ScalingRow, ...]
    fitted_slope: float | None

    def to_csv(self, *, stable: bool = False) -> str:
        buf = io.StringIO()
        buf.write("m,bound,max_exceptional,seconds\n")
        for row in self.rows:
            mx = row.max_exceptional if row.max_exceptional is not None else 0
            secs = "" if stable else f"{row.seconds:.3f}"
            buf.write(f"{row.m},{row.bound},{mx},{secs}\n")
        return buf.getvalue()

    def to_json(self, *, stable: bool = False) -> dict:
        return {
            "rows": [
                {
                    "m": r.m,
                    "bound": r.bound,
                    "max_exceptional": r.max_exceptional,
                    **({} if stable else {"seconds": r.seconds}),
                }
                for r in self.rows
            ],
            "fitted_slope": self.fitted_slope,
        }


def scaling_experiment(coeffs, m_min: int, m_max: int,
                       multiplier=Fraction(20), *, jobs: int = 1,
                       progress: bool = False) -> ScalingResult:
    """Scan each gonality m in [m_min, m_max] up to multiplier*(m-2)^3 and
    record the largest exceptional integer; fit log(1 + max_exceptional)
    against log(m-2) by least squares over the rows with nonempty exceptional
    sets (at least three such rows are required to report a slope).
    ``jobs`` has no effect; it is kept only because
    ``benchmarks/workloads.py`` passes it."""
    if m_min > m_max:
        raise InputError(f"empty gonality range [{m_min}, {m_max}]")
    if m_min < 3:
        raise InputError("gonality must be at least 3")
    multiplier = Fraction(multiplier)
    if multiplier <= 0:
        raise InputError("multiplier must be positive")
    # the bound grows with m: refuse the range before its first census
    bound_max = int(math.ceil(multiplier * (m_max - 2) ** 3))
    if bound_max > MAX_BOUND:
        raise ResourceError(f"m={m_max} needs bound {bound_max}, "
                            f"above the census ceiling {MAX_BOUND}")
    rows = []
    for m in range(m_min, m_max + 1):
        form = MgonalForm(m=m, coeffs=tuple(coeffs))
        bound = int(math.ceil(multiplier * (m - 2) ** 3))
        t0 = time.perf_counter()
        report = exceptional_set(form, bound, jobs=jobs)
        rows.append(
            ScalingRow(
                m=m,
                bound=bound,
                max_exceptional=report.max_exceptional,
                seconds=round(time.perf_counter() - t0, 6),
            )
        )
        if progress:
            print(
                f"  m={m}: bound={bound} max_exceptional={report.max_exceptional}",
                file=sys.stderr,
            )
    points = [
        (math.log(r.m - 2), math.log(1 + r.max_exceptional))
        for r in rows
        if r.max_exceptional is not None and r.max_exceptional >= 1
    ]
    slope = None
    if len(points) >= 3:
        n = len(points)
        sx = sum(x for x, _ in points)
        sy = sum(y for _, y in points)
        sxx = sum(x * x for x, _ in points)
        sxy = sum(x * y for x, y in points)
        denom = n * sxx - sx * sx
        if denom > 0:
            slope = (n * sxy - sx * sy) / denom
    return ScalingResult(rows=tuple(rows), fitted_slope=slope)
