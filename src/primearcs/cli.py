"""Command-line front end: one subcommand per module plus the acceptance
runner.  Exit codes: 0 success, 2 validation error, 3 numerical
non-convergence, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, circle, expsums, meansquare, optimizer, rational, search
from .errors import (ConvergenceError, PrimeArcsError, ResourceLimitError,
                     ValidationError)
from .primes import build_table, load_table, save_table


_INSTANCE_KEYS = ("lambda1", "lambda2", "lambda3", "k", "varpi", "eps", "delta")


def load_instance(path: str) -> circle.ProblemInstance:
    """Parse a key=value instance file into a validated ProblemInstance.

    Coefficient values may be exact expression strings (sqrt(2), 7/3,
    decimal literals).  Rejects a key outside _INSTANCE_KEYS, what
    ProblemInstance refuses (a zero coefficient) and a coefficient set that
    shares one sign (not sign_ok); warns (stderr) when k falls outside the
    supported exponent range.
    """
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"instance file not found: {path}")
    raw: dict[str, str] = {}
    for line in p.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"bad instance line (need key=value): {line!r}")
        key, val = line.split("=", 1)
        raw[key.strip()] = val.strip()
    for key in raw:
        if key not in _INSTANCE_KEYS:
            raise ValidationError(f"instance file: unknown key {key!r}")
    for req in ("lambda1", "lambda2", "lambda3", "k"):
        if req not in raw:
            raise ValidationError(f"instance file missing required field {req!r}")
    inst = circle.ProblemInstance(
        *(rational.parse_hireal(raw[key]).to_float()
          for key in ("lambda1", "lambda2", "lambda3", "k")),
        varpi=_number(raw.get("varpi", 0.0), "varpi"),
        eps=_number(raw.get("eps", 0.01), "eps"),
        delta=_number(raw.get("delta", 0.1), "delta"))
    if not inst.sign_ok:
        raise ValidationError(
            "coefficients must not all be of the same sign (with one sign "
            "the inequality has at most finitely many solutions)")
    for warning in inst.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return inst


def _number(text, name: str, kind=float):
    """kind(text), with malformed text and a nan or infinite float a
    ValidationError naming its field."""
    try:
        value = kind(text)
    except (ValueError, ArithmeticError):
        raise ValidationError(f"{name}: not a number: {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{name}: not a finite number: {text!r}")
    return value


def _meta(quantity: str, **params) -> dict:
    out = {"quantity": quantity, "version": __version__}
    out.update({k: v for k, v in params.items()})
    return out


def _write_csv(path: str | None, meta: dict, header: list[str], rows):
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(v) -> str:
    # numpy 2 scalars repr as np.float64(...); float() gives the plain form
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_json(path: str | None, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ------------------------------- subcommands ---------------------------------

def _cmd_sieve(args) -> int:
    limit = _number(args.limit, "--limit", lambda s: int(float(s)))
    table = build_table(limit)
    save_table(table, args.out)
    print(f"wrote {table.count} primes up to {table.limit} -> {args.out}")
    return 0


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError("--alpha-grid expects lo:hi:n")
    lo, hi = (_number(x, "--alpha-grid") for x in parts[:2])
    n = _number(parts[2], "--alpha-grid", int)
    if n < 1 or hi < lo:
        raise ValidationError("bad alpha grid")
    return np.linspace(lo, hi, n)


def _cmd_expsum(args) -> int:
    which = args.which.upper()
    if which == "S" and not args.table:
        raise ValidationError("--which S needs --table")
    table = load_table(args.table) if which == "S" else None
    w = expsums.WindowSpec(X=_number(args.X, "--X"), k=_number(args.k, "--k"),
                           delta=_number(args.delta, "--delta"))
    grid = _parse_grid(args.alpha_grid)
    meta = _meta(f"exp_sum_{which}", X=args.X, k=args.k, delta=w.delta)
    if which == "S":
        vals = [expsums.eval_S(table, w, a) for a in grid]
    elif which == "U":
        vals = [expsums.eval_U(w, a) for a in grid]
    else:
        vals, meta["est_error"] = expsums.eval_T_grid(
            w.k, w.delta * w.X, w.X, grid, [0.0], _number(args.tol, "--tol"))
        vals = [complex(v) for v in vals[:, 0]]
    rows = [(a, v.real, v.imag, abs(v)) for a, v in zip(grid, vals)]
    _write_csv(args.out, meta, ["alpha", "re", "im", "abs"], rows)
    return 0


def _cmd_meansquare(args) -> int:
    table = load_table(args.table)
    h, rel_delta, Y = (None if text is None else _number(text, name)
                       for text, name in ((args.h, "--h"),
                                          (args.rel_delta, "--rel-delta"),
                                          (args.Y, "--Y")))
    q = meansquare.MeanSquareQuery(
        X=_number(args.X, "--X"), k=_number(args.k, "--k"), h=h,
        rel_delta=rel_delta, Y=Y, use_psi=args.psi, rh_mode=args.rh)
    if q.Y is not None:
        w = expsums.WindowSpec(X=q.X, k=q.k)
        rep = meansquare.l2_diff(table, w, q.Y)
        param = q.Y
    elif q.rel_delta is not None:
        rep = meansquare.selberg_J_relative(table, q)
        param = q.rel_delta
    else:
        rep = meansquare.selberg_J(table, q)
        param = q.h
    meta = _meta("mean_square", psi=args.psi, rh=args.rh,
                 est_error=rep.est_error, note=rep.note)
    _write_csv(args.out, meta,
               ["X", "k", "param", "value", "comparator", "ratio", "method"],
               [(q.X, q.k, param, rep.value, rep.comparator, rep.ratio,
                 rep.method)])
    return 0


def _cmd_approx(args) -> int:
    x = rational.parse_hireal(args.lambda_ratio)
    convs = rational.continued_fraction(x, args.terms)
    payload = {
        "meta": _meta("continued_fraction", expression=args.lambda_ratio,
                      terms=args.terms),
        "convergents": [{"a": c.a, "q": c.q, "err": float(c.err)}
                        for c in convs],
    }
    _write_json(args.out, payload)
    return 0


def _cmd_arcs(args) -> int:
    inst = load_instance(args.instance)
    table = load_table(args.table)
    X = _number(args.X, "--X")
    w = expsums.WindowSpec(X=X, k=inst.k, delta=inst.delta)
    arc = circle.arc_params(inst, X)
    tol = _number(args.tol, "--tol")
    payload = {"meta": _meta("arc_decomposition", X=X, k=inst.k, eta=arc.eta),
               "params": {"P": arc.P, "eta": arc.eta, "R": arc.R,
                          "major": list(arc.major),
                          "minor": [list(arc.minor[0]), list(arc.minor[1])],
                          "trivial": arc.trivial}}
    piece = args.piece
    if piece in ("major", "all"):
        payload["major"] = circle.major_arc_split(inst, table, w, arc.eta,
                                                  tol=tol)
    if piece in ("minor", "all"):
        rows = circle.minor_arc_l2(inst, table, w, arc.eta, arc)
        holder_comp = arc.eta * X ** ((65 * inst.k + 39) / (72 * inst.k)
                                      + inst.eps)
        payload["minor"] = {"l2_majorants": rows,
                            "holder_comparator": holder_comp}
    if piece in ("trivial", "all"):
        tails = circle.trivial_tails(inst, table, w, arc.R, tol=tol * 1e3)
        payload["trivial"] = {"values": list(tails.values),
                              "comparators": list(tails.comparators),
                              "ratios": list(tails.ratios),
                              "start": list(tails.start),
                              "slices": list(tails.slices)}
    _write_json(args.out, payload)
    return 0


def _cmd_search(args) -> int:
    inst = load_instance(args.instance)
    table = load_table(args.table)
    X = _number(args.X, "--X")
    if args.threshold == "auto":
        threshold = search.admissible_threshold(inst, X)
    else:
        threshold = _number(args.threshold, "--threshold")
    rep = search.find_solutions(inst, table, X, threshold,
                                cap=args.emit_solutions, window=args.window)
    meta = _meta("solution_search", X=X, threshold=threshold,
                 count=rep.count, truncated=rep.truncated, pairs=rep.pairs,
                 candidates=rep.candidates, window=args.window)
    _write_csv(args.out, meta, list(search.SolutionRecord._fields),
               rep.records)
    return 0


def _cmd_exponents(args) -> int:
    k = _number(args.k, "--k", Fraction)
    sol = optimizer.solve(k)
    ok, slacks, flags = optimizer.verify_closed_form(k)
    payload = {
        "meta": _meta("exponent_program", k=str(k)),
        "solution": {
            "inv_a": str(sol.inv_a), "b": str(sol.b), "c": str(sol.c),
            "feasible": sol.feasible,
            "active_constraints": list(sol.active_constraints),
            "violated": list(sol.violated),
        },
        "closed_form_check": {"ok": ok, "flags": flags,
                              "slacks": {k2: str(v) for k2, v in slacks.items()}},
    }
    _write_json(args.out, payload)
    return 0


def _cmd_verify_all(args) -> int:
    from . import acceptance
    results = acceptance.run_all(record_monitors=args.record_monitors)
    width = max(len(r.name) for r in results)
    all_pass = True
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"[{flag}] {r.name:<{width}}  {r.detail}  ({r.elapsed:.1f} s)")
    if args.out:
        _write_json(args.out, {
            "meta": _meta("acceptance"),
            "results": [r.as_dict() for r in results],
        })
    print("acceptance:", "ALL PASS" if all_pass else "FAILURES PRESENT")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="primearcs",
        description="Numerics for ternary prime-power inequalities")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build and save a prime table")
    p.add_argument("--limit", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("expsum", help="exponential sums on an alpha grid")
    p.add_argument("--table")
    p.add_argument("--X", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--delta", default=0.1)
    p.add_argument("--alpha-grid", required=True)
    p.add_argument("--which", required=True, choices=list("SUTsut"))
    p.add_argument("--tol", default=1e-9, help="absolute tol of T")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_expsum)

    p = sub.add_parser("meansquare", help="short-interval mean squares")
    p.add_argument("--table", required=True)
    p.add_argument("--X", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--h")
    p.add_argument("--rel-delta", dest="rel_delta")
    p.add_argument("--Y")
    p.add_argument("--psi", action="store_true")
    p.add_argument("--rh", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_meansquare)

    p = sub.add_parser("approx", help="continued-fraction convergents")
    p.add_argument("--lambda-ratio", required=True, dest="lambda_ratio")
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("arcs", help="arc decomposition integrals")
    p.add_argument("--instance", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--X", required=True)
    p.add_argument("--piece", default="all",
                   choices=["major", "minor", "trivial", "all"])
    p.add_argument("--tol", default=1e-3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_arcs)

    p = sub.add_parser("search", help="prime-triple solution search")
    p.add_argument("--instance", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--X", required=True)
    p.add_argument("--threshold", default="auto")
    p.add_argument("--emit-solutions", type=int, default=1000,
                   dest="emit_solutions")
    p.add_argument("--window", default="delta",
                   choices=["delta", "dyadic"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("exponents", help="solve the exponent program")
    p.add_argument("--k", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("verify-all", help="run the acceptance criteria")
    p.add_argument("--record-monitors", action="store_true",
                   dest="record_monitors",
                   help="store criterion 8's measured ratio as its frozen "
                        "constant")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except PrimeArcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
