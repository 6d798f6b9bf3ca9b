"""Command-line front end.

Subcommands: burau (print a reduced Burau matrix), fq (evaluate the
candidate Markov function, with --method choosing the determinant
backend), markov (apply a move sequence and compare), alexander
(Alexander polynomial of a knot closure), counterexample (reproduce the
known Markov-invariance failures).  Exit codes: 0 success,
1 counterexample check failed, 2 argument or parse error, 3 backend error.
Only fq, markov and counterexample reach a determinant backend, so only
they load numpy; burau, alexander, --help and argument errors never do.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction

from . import braid as braidmod
from .braid import parse_braid
from .epifamilies import family_by_name
from .groupring import _check_grid, _check_series_len
from .torsion import (
    Conjugate,
    Stabilize,
    alexander_polynomial,
    fq_value,
    markov_reports,
    reduced_burau,
    render_poly,
)

COUNTEREXAMPLE_TARGETS = {
    # name -> (family tag, base value, stabilized value, tolerance);
    # m(1 + x + y) = 1.3813564445... in Boyd's closed form
    "abelianization": ("ab", 1.0, 1.3813564445184977, 1e-3),
    "identity": ("id", 1.0, 1.1547005383792515, 2e-2),
}


class UsageError(ValueError):
    """Bad user input (exit code 2, as opposed to backend failures)."""


def _parsed(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_t_values(text: str) -> list[Fraction]:
    vals = []
    for tok in text.replace(",", " ").split():
        try:
            vals.append(Fraction(tok))
        except ZeroDivisionError:
            raise ValueError(f"t value {tok!r} has a zero denominator") from None
    if not vals:
        raise ValueError("no t values given")
    if any(v <= 0 for v in vals):
        raise ValueError("t values must be positive")
    return vals


def _check_output(path: str | None) -> None:
    """Refuse an -o path no file can be written to, before any backend runs."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    writable = os.access(path if os.path.exists(path) else folder, os.W_OK)
    if os.path.isdir(path) or not os.path.isdir(folder) or not writable:
        raise ValueError(f"cannot write the output file {path!r}")


def _parse_moves(text: str, start: braidmod.BraidWord) -> list:
    """Moves like 'conj:1 -2, stab:+1, stab:-1'."""
    moves = []
    strands = start.strands
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.startswith("conj:"):
            alpha = parse_braid(chunk[len("conj:"):], strands)
            moves.append(Conjugate(alpha))
        elif chunk.startswith("stab:"):
            sign = int(chunk[len("stab:"):])
            if sign not in (1, -1):
                raise ValueError(f"bad stabilization sign in {chunk!r}")
            moves.append(Stabilize(sign))
            strands += 1
        else:
            raise ValueError(f"unknown move {chunk!r}")
    return moves


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="l2burau",
        description="Burau matrices, Fuglede-Kadison determinants, and Markov experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, family=True):
        """The shared options; returns the exclusive group of --json."""
        sp.add_argument("-b", "--braid", required=True, help="whitespace-separated letters")
        sp.add_argument("-n", "--strands", type=int, default=None)
        if family:
            sp.add_argument(
                "-f", "--family", default="phi", help="id | phi | ab | custom:<file>"
            )
        sp.add_argument("-o", "--output", default=None, help="write to a file")
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="emit JSON")
        return fmt

    def backend_options(sp):
        # eps always runs its fixed 60-term, tail-fitted series, so reads none
        sp.add_argument("--method", choices=["roots", "quad", "series", "eps"], default=None,
                        help="force a determinant backend (default: by target group)")
        sp.add_argument("--grid", type=int, default=128, help="torus grid per axis; quad only")
        sp.add_argument("--series-len", type=int, default=30,
                        help="trace series terms; series only")
        sp.add_argument("--no-accel", dest="accel", action="store_false",
                        help="sum the series terms only, without the fitted tail; series only")

    sp = sub.add_parser("burau", help="print the reduced Burau matrix")
    common(sp)

    sp = sub.add_parser("fq", help="evaluate det^r(Burau - Id)/max(1,t)^n")
    common(sp).add_argument("--csv", action="store_true", help="emit CSV")
    sp.add_argument("-t", "--t-values", default="1", help="positive rationals, e.g. '1/2 1 2'")
    backend_options(sp)

    sp = sub.add_parser("markov", help="apply Markov moves and compare values")
    common(sp)
    sp.add_argument("-t", "--t-values", default="1")
    sp.add_argument("--moves", required=True, help="'conj:<word>, stab:+1, ...'")
    backend_options(sp)

    sp = sub.add_parser("alexander", help="Alexander polynomial of a knot closure")
    common(sp, family=False)

    sp = sub.add_parser("counterexample", help="reproduce a Markov-invariance failure")
    sp.add_argument("which", choices=sorted(COUNTEREXAMPLE_TARGETS))
    sp.add_argument("--json", action="store_true")
    sp.add_argument("-o", "--output", default=None)

    return p


_WARNINGS = {
    # diagnostics flag -> what it means for the printed value
    "tail_vacuous": "series cut while its terms are still material, no tail model",
    "injectivity_assumed": "no reduction applies; the operator is assumed injective",
    "bound_vacuous": "the error bound is not below the value",
}


def _warnings(diagnostics: dict, indent: str) -> list[str]:
    """Text-output lines for the warning flags set in an estimate's diagnostics."""
    return [
        f"{indent}warning: {flag}: {text}"
        for flag, text in _WARNINGS.items()
        if diagnostics.get(flag)
    ]


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_burau(args) -> int:
    beta = _parsed(parse_braid, args.braid, args.strands)
    family = _parsed(family_by_name, args.family)
    bm = reduced_burau(beta, family)
    if args.json:
        _emit(args, json.dumps(bm.to_json_obj(), indent=2))
    else:
        _emit(args, bm.render())
    return 0


def _request(args):
    """The braid, family, moves (markov only), t values and backend
    keywords of an fq or markov request, checked in this order.  The
    library's own limits on --grid and --series-len are checked before any
    backend runs, whichever backend the request reaches."""
    beta = _parsed(parse_braid, args.braid, args.strands)
    family = _parsed(family_by_name, args.family)
    moves = _parsed(_parse_moves, args.moves, beta) if args.command == "markov" else None
    t_values = _parsed(_parse_t_values, args.t_values)
    _parsed(_check_grid, args.grid)
    _parsed(_check_series_len, args.series_len)
    options = dict(method=args.method, grid=args.grid, series_len=args.series_len,
                   accel=args.accel)
    return beta, family, moves, t_values, options


def _cmd_fq(args) -> int:
    beta, family, _, t_values, options = _request(args)
    results = [fq_value(beta, family, t0, **options) for t0 in t_values]
    if args.json:
        _emit(args, json.dumps([r.to_json_obj() for r in results], indent=2))
    elif args.csv:
        import csv  # only this branch writes CSV, so other requests start without it

        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["t", "value", "error_bound", "method"])
        for r in results:
            wr.writerow([str(r.t0), r.value, r.error_bound, r.estimate.method])
        _emit(args, buf.getvalue().rstrip("\n"))
    else:
        lines = []
        for r in results:
            lines.append(f"t={r.t0}: F = {r.value:.10g} (+- {r.error_bound:.3g})")
            lines.extend(_warnings(r.estimate.diagnostics, "  "))
        _emit(args, "\n".join(lines))
    return 0


def _cmd_markov(args) -> int:
    beta, family, moves, t_values, options = _request(args)
    reports = markov_reports(beta, moves, family, t_values, **options)
    if args.json:
        _emit(args, json.dumps([r.to_json_obj() for r in reports], indent=2))
    else:
        lines = []
        for r in reports:
            lines.append(f"t={r.t0}: verdict={r.verdict} max_deviation={r.max_deviation:.3g}")
            for s in r.stages:
                lines.append(f"  {s.move:<14} [{s.braid.render() or 'empty'}]  F = {s.fq.value:.10g}")
                lines.extend(_warnings(s.fq.estimate.diagnostics, "    "))
        _emit(args, "\n".join(lines))
    return 0


def _cmd_alexander(args) -> int:
    beta = _parsed(parse_braid, args.braid, args.strands)
    poly = alexander_polynomial(beta)
    if args.json:
        _emit(args, json.dumps({str(k): str(v) for k, v in sorted(poly.items())}))
    else:
        _emit(args, render_poly(poly))
    return 0


def _cmd_counterexample(args) -> int:
    tag, base_target, stab_target, tol = COUNTEREXAMPLE_TARGETS[args.which]
    family = family_by_name(tag)
    base = parse_braid("-1", 2)
    stabilized = braidmod.stabilize(base, +1, after=True)  # sigma_1^-1 sigma_2
    v1 = fq_value(base, family, 1)
    v2 = fq_value(stabilized, family, 1)
    ok1 = abs(v1.value - base_target) <= max(tol, v1.error_bound + 1e-9)
    ok2 = abs(v2.value - stab_target) <= tol
    verdict = "PASS" if (ok1 and ok2) else "FAIL"
    payload = {
        "family": tag,
        "base_braid": base.render(),
        "stabilized_braid": stabilized.render(),
        "values": [v1.value, v2.value],
        "expected": [base_target, stab_target],
        "tolerance": tol,
        "markov_invariance": "violated" if abs(v1.value - v2.value) > tol else "held",
        "verdict": verdict,
    }
    if args.json:
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(
            args,
            f"{verdict}: F({base.render()}) = {v1.value:.6f}, "
            f"F({stabilized.render()}) = {v2.value:.6f} "
            f"(expected {base_target:.6f}, {stab_target:.6f}; "
            f"invariance {payload['markov_invariance']})",
        )
    return 0 if verdict == "PASS" else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "burau": _cmd_burau,
        "fq": _cmd_fq,
        "markov": _cmd_markov,
        "alexander": _cmd_alexander,
        "counterexample": _cmd_counterexample,
    }
    try:
        _parsed(_check_output, args.output)
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
