"""Command-line surface: every capability behind one `mgonal` entry point.

Exit status 0 on success, 1 on domain failure (e.g. a target not represented
under --expect-represented, or an empty admissible search), 2 on usage errors.
Progress chatter goes to stderr only; stdout carries the report.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from fractions import Fraction

from .arith import PAdicContext
from .census import exceptional_set, scaling_experiment
from .errors import InputError, MgonalError, ResourceError
from .localrep import locally_represents, locally_represents_at
from .polygonal import MgonalForm, evaluate, represents
from .quadratic import jordan_decompose, reduced_quadratic
from .serialize import json_int
from .theorem import admissible_k, k_constant

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        if "unrecognized arguments:" in message:
            for token in message.split(":", 1)[1].split():
                if token.startswith("--"):
                    close = difflib.get_close_matches(
                        token.split("=")[0], _KNOWN_FLAGS, 1
                    )
                    if close:
                        message += f" (did you mean {close[0]}?)"
                    break
        raise _UsageError(message, self.format_usage())


class _UsageError(Exception):
    def __init__(self, message, usage):
        super().__init__(message)
        self.usage = usage


def _coeff_list(text: str) -> tuple[int, ...]:
    try:
        coeffs = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed coefficient list {text!r}; expected comma-separated integers"
        )
    if not coeffs:
        raise argparse.ArgumentTypeError("coefficient list is empty")
    return coeffs


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mgonal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def form_flags(p):
        p.add_argument("--m", type=int, required=True, help="gonality (>= 3)")
        p.add_argument("--coeffs", type=_coeff_list, required=True,
                       help="comma-separated positive coefficients")

    def common_flags(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--stable-output", action="store_true",
                       help="omit timing fields so identical runs emit identical bytes")

    p = sub.add_parser("eval", help="evaluate the form at an integer vector")
    form_flags(p)
    p.add_argument("--x", type=_int_list, required=True)
    common_flags(p)

    p = sub.add_parser("represent", help="search for a representation witness")
    form_flags(p)
    p.add_argument("--n", type=int, required=True, help="target integer")
    p.add_argument("--expect-represented", action="store_true",
                   help="exit 1 when no witness exists")
    common_flags(p)

    p = sub.add_parser("local", help="local representability verdicts")
    form_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", type=int, default=None,
                   help="single prime; default scans all relevant primes")
    common_flags(p)

    p = sub.add_parser("exceptional", help="exceptional-set census up to a bound")
    form_flags(p)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="no effect")
    common_flags(p)

    p = sub.add_parser("kconst", help="bound on the auxiliary parameter k")
    form_flags(p)
    common_flags(p)

    p = sub.add_parser("admissible-k", help="admissible (k, P) pairs for a target")
    form_flags(p)
    p.add_argument("--n", type=int, required=True)
    common_flags(p)

    p = sub.add_parser("jordan", help="Jordan decomposition of the reduced quadratic form")
    form_flags(p)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--precision", type=int, default=12)
    common_flags(p)

    p = sub.add_parser("scaling", help="cubic scaling experiment over a gonality range")
    p.add_argument("--coeffs", type=_coeff_list, required=True)
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--multiplier", type=str, default="20",
                   help="bound multiplier (integer, fraction like 5/2, or decimal)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="no effect")
    common_flags(p)

    return parser


#: Every long option of every subcommand, for "did you mean" hints.
_KNOWN_FLAGS = sorted({
    opt for action in _build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
    for sub in action.choices.values() for a in sub._actions
    for opt in a.option_strings if opt.startswith("--")
})


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    elif fmt == "csv" and "csv" in payload:
        sys.stdout.write(payload["csv"])
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    form = MgonalForm(m=args.m, coeffs=args.coeffs)
    value = evaluate(form, args.x)
    _emit({"form": form.describe(), "x": list(args.x), "value": json_int(value)},
          args.format, [f"{form.describe()}({','.join(map(str, args.x))}) = {value}"])
    return 0


def _cmd_represent(args) -> int:
    form = MgonalForm(m=args.m, coeffs=args.coeffs)
    if args.n < 0:
        raise InputError("target must be nonnegative")
    witness = represents(form, args.n)
    found = witness is not None
    payload = {
        "form": {"m": form.m, "coeffs": list(form.coeffs)},
        "N": args.n,
        "represented": found,
        "witness": list(witness.x) if found else None,
    }
    lines = [
        f"{form.describe()} represents {args.n}: {str(found).lower()}"
        + (f" via x = {witness.x}" if found else "")
    ]
    _emit(payload, args.format, lines)
    if args.expect_represented and not found:
        return 1
    return 0


def _cmd_local(args) -> int:
    form = MgonalForm(m=args.m, coeffs=args.coeffs)
    if args.prime is not None:
        verdict = locally_represents_at(form, args.n, args.prime)
        payload = verdict.to_json()
        lines = [
            f"p={verdict.p}: represented={str(verdict.represented).lower()} "
            f"(rule {verdict.rule})"
        ]
    else:
        agg = locally_represents(form, args.n)
        payload = agg.to_json()
        lines = [
            f"locally represented: {str(agg.represented).lower()}"
        ] + [
            f"  p={v.p}: {str(v.represented).lower()} (rule {v.rule})"
            for v in agg.verdicts
        ]
    _emit(payload, args.format, lines)
    return 0


def _cmd_exceptional(args) -> int:
    form = MgonalForm(m=args.m, coeffs=args.coeffs)
    report = exceptional_set(form, args.bound, jobs=max(1, args.jobs))
    payload = report.to_json(stable=args.stable_output)
    payload["csv"] = report.to_csv()
    lines = [
        f"bound {report.bound}: {len(report.exceptional)} exceptional, "
        f"max {report.max_exceptional}",
        f"locally represented: {report.locally_represented_count}, "
        f"represented: {report.represented_count}",
    ]
    if report.exceptional:
        lines.append("exceptional: " + ",".join(map(str, report.exceptional)))
    _emit(payload, args.format, lines)
    return 0


def _cmd_kconst(args) -> int:
    form = MgonalForm(m=args.m, coeffs=args.coeffs)
    kc = k_constant(form)
    payload = kc.to_json()
    lines = [f"K = {kc.value}"] + [
        f"  p={p}: exponent {e} (factor 4*{p}^{e})" for p, e in kc.factors
    ]
    _emit(payload, args.format, lines)
    return 0


def _cmd_admissible(args) -> int:
    form = MgonalForm(m=args.m, coeffs=args.coeffs)
    result = admissible_k(form, args.n)
    payload = result.to_json()
    lines = [f"admissible pairs for N={args.n} (k bound {result.k_bound}):"]
    for pair in result.pairs:
        lines.append(f"  k={pair.k} P={pair.P}")
    if result.anomaly:
        lines.append("ANOMALY: no admissible pair found")
    lines.extend(f"  {d}" for d in result.diagnostics)
    _emit(payload, args.format, lines)
    return 1 if result.anomaly else 0


def _cmd_jordan(args) -> int:
    form = MgonalForm(m=args.m, coeffs=args.coeffs)
    rq = reduced_quadratic(form)
    ctx = PAdicContext(args.prime, args.precision)
    dec = jordan_decompose(rq.gram, ctx)
    payload = {
        "p": dec.p,
        "precision": dec.precision,
        "det": json_int(rq.det),
        "blocks": [
            {"scale": s, "block": [list(r) for r in b]} for s, b in dec.blocks
        ],
        "transform": [list(r) for r in dec.transform],
    }
    lines = [f"det = {rq.det}"]
    for s, b in dec.blocks:
        lines.append(f"  scale {dec.p}^{s}: block {[list(r) for r in b]}")
    _emit(payload, args.format, lines)
    return 0


def _cmd_scaling(args) -> int:
    try:
        multiplier = Fraction(args.multiplier)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"malformed multiplier {args.multiplier!r}")
    result = scaling_experiment(
        args.coeffs, args.m_min, args.m_max, multiplier,
        jobs=max(1, args.jobs), progress=True,
    )
    payload = result.to_json(stable=args.stable_output)
    payload["csv"] = result.to_csv(stable=args.stable_output)
    lines = [result.to_csv(stable=args.stable_output).rstrip()]
    lines.append(f"fitted slope: {result.fitted_slope}")
    _emit(payload, args.format, lines)
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "represent": _cmd_represent,
    "local": _cmd_local,
    "exceptional": _cmd_exceptional,
    "kconst": _cmd_kconst,
    "admissible-k": _cmd_admissible,
    "jordan": _cmd_jordan,
    "scaling": _cmd_scaling,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc.usage.rstrip(), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MgonalError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
