"""Command-line entry point wiring all modules.

Exit codes: 0 on success or all checks passing, 1 on a verification
failure, 2 on usage errors (bad flags, unparseable polynomials, values out
of range).  Polynomials are accepted as text (--poly) or as family
shortcuts (--family P:m, Q:k or f:m,k).  A degree below what a command
needs (census --n 3, a form 2, the q of verify-ineq 1) or above
polyalg.MAX_DEGREE, verify-identities --m-max outside 4..MAX_IDENTITY_M
(the checks cost about m^3.6) and foliate --seeds outside
1..foliation.MAX_SEEDS are usage errors.

index, certify and census --certify read origin indexes exactly
(origin_index); index first proves the form hyperbolic and exits 1 naming
the hypothesis when it is not.  Only index --trace and the foliate
figures run the float tracer.  foliate checks the float separatrix count
against the exact number of distinct real linear factors of f and exits 1
with both numbers when they differ; it counts 0 lines for an elliptic form
but refuses to draw one (--svg/--csv exit 1 naming ``hyperbolic``, before
any sampling).  The float layer samples forms in the Fourier basis, where
nothing cancels: the tracer and foliate agree with the exact answers on the
saddle family up to the degree cap (the monomial basis failed from P:112
and P:86).

JSON shapes: classify prints {"classification": label, "certificate":
{...}}; index prints {"index": "n/2"}; verify-ineq prints
{"pairing_nonpositive": bool, "certificate": {...}}, the certificate of
-hessian_pairing(p, q) >= 0, whose witness is a point where the pairing is
positive; certify prints "certified" (the two exact origin indexes agree: a
returned isotopy certificate has passed every hypothesis) beside the
certificate and both indexes.  With --certify, census gives each row
"certified" and, on failure, "failed" (the hypothesis or exception class).
``python -m hesstop`` runs :func:`main`.  When the reader of stdout goes
away early (``| head -1``), main stops quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census as census_mod
from . import combinat
from .classify import Verdict, certify_pairing_nonpositive, count_real_roots, is_hyperbolic
from .errors import HesstopError, PreconditionFailed
from .foliation import (
    MAX_SEEDS,
    count_separatrices,
    curves_to_csv,
    curves_to_svg,
    trace_foliation,
)
from .isotopy import certify_product_isotopy
from .lineindex import index_at_origin, origin_index
from .polyalg import MAX_DEGREE, HomoPoly, parse, product_family, radial_family, saddle_family
from .quadform import second_fundamental_form


# Largest verify-identities --m-max: the checks cost about m^3.6 (1.6 s at
# m = 80, 19.5 s at m = 160), so m = MAX_DEGREE would run for hours.
MAX_IDENTITY_M = 160


class UsageError(Exception):
    pass


_CLASS_LABELS = {Verdict.POSITIVE: "hyperbolic", Verdict.NEGATIVE: "elliptic"}


def _check_degree(degree: int, what: str, floor: int = 0) -> None:
    if not floor <= degree <= MAX_DEGREE:
        raise UsageError(f"{what} is {degree}; this command needs {floor}..{MAX_DEGREE}")


def _pair_spec(args: str, spec: str) -> tuple[int, int]:
    """(m, k) from the "m,k" of an f:m,k spec, its degree m + 2k capped."""
    m_str, k_str = args.split(",")
    m, k = int(m_str), int(k_str)
    _check_degree(m + 2 * k, f"the degree of {spec}")
    return m, k


def _family_poly(spec: str) -> HomoPoly:
    try:
        tag, _, args = spec.partition(":")
        if tag == "P":
            _check_degree(int(args), f"the degree of {spec}")
            return saddle_family(int(args))
        if tag == "Q":
            _check_degree(2 * int(args), f"the degree of {spec}")
            return radial_family(int(args))
        if tag == "f":
            return product_family(*_pair_spec(args, spec))
    except (ValueError, HesstopError) as exc:
        raise UsageError(f"bad family spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown family tag in {spec!r} (use P:m, Q:k or f:m,k)")


def _parse(text: str) -> HomoPoly:
    try:
        return parse(text)
    except HesstopError as exc:
        raise UsageError(f"cannot parse polynomial {text!r}: {exc}") from exc


def _load_poly(args, floor: int) -> HomoPoly:
    """The --poly or --family polynomial, of degree at least ``floor``."""
    if (args.poly is None) == (args.family is None):
        raise UsageError("provide exactly one of --poly or --family")
    f = _parse(args.poly) if args.poly is not None else _family_poly(args.family)
    _check_degree(f.degree, "the degree", floor)
    return f


def _load_pair(args, q_floor: int) -> tuple[HomoPoly, HomoPoly]:
    """(p, q) from --family f:m,k or from --p and --q; deg p >= 2 and
    deg q >= q_floor."""
    if args.family is not None:
        if args.p or args.q:
            raise UsageError("--family excludes --p/--q")
        tag, _, rest = args.family.partition(":")
        if tag != "f":
            raise UsageError("pair commands need --family f:m,k")
        try:
            m, k = _pair_spec(rest, args.family)
            p, q = saddle_family(m), radial_family(k)
        except (ValueError, HesstopError) as exc:
            raise UsageError(f"bad family spec {args.family!r}: {exc}") from exc
    elif not (args.p and args.q):
        raise UsageError("provide --family f:m,k or both --p and --q")
    else:
        p, q = _parse(args.p), _parse(args.q)
    _check_degree(p.degree, "the degree of p", 2)
    _check_degree(q.degree, "the degree of q", q_floor)
    return p, q


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _classification(f: HomoPoly):
    """("hyperbolic" | "elliptic" | "neither", certificate) from one exact
    sign verdict on the discriminant of II_f."""
    _, cert = is_hyperbolic(f)
    return _CLASS_LABELS.get(cert.verdict, "neither"), cert


def _cmd_classify(args) -> int:
    f = _load_poly(args, 2)
    label, cert = _classification(f)
    _emit(
        args,
        {"classification": label, "certificate": cert.to_json()},
        f"{label}",
    )
    return 0


def _cmd_index(args) -> int:
    f = _load_poly(args, 2)
    label, _ = _classification(f)
    if label != "hyperbolic":
        raise PreconditionFailed(
            "hyperbolic", f"the line field index needs a hyperbolic form; this one is {label}"
        )
    w = second_fundamental_form(f)
    half = origin_index(w)
    if args.trace:
        index_at_origin(w)[1].to_csv(args.trace)
    _emit(args, {"index": str(half)}, f"index {half}")
    return 0


def _row_failure(row) -> str | None:
    """None when the census row certifies, else the failed hypothesis or
    the exception class."""
    try:
        census_mod.certify_row(row)
    except HesstopError as exc:
        return getattr(exc, "hypothesis", type(exc).__name__)
    return None


def _cmd_census(args) -> int:
    _check_degree(args.n, "--n", 3)
    rows = census_mod.enumerate_rows(args.n)
    failed = [_row_failure(row) for row in rows] if args.certify else []
    if args.json:
        payload = [r.to_json() for r in rows]
        for obj, name in zip(payload, failed):
            obj["certified"] = name is None
            if name is not None:
                obj["failed"] = name
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'n':>3} {'k':>3} {'m':>3} {'index':>7} {'lower bound':>12}")
        for r in rows:
            print(f"{r.n:>3} {r.k:>3} {r.m:>3} {str(r.index):>7} {r.lower_bound:>12}")
        for row, name in zip(rows, failed):
            status = "certified" if name is None else f"FAILED ({name})"
            print(f"  (k={row.k}, m={row.m}): {status}")
    return 1 if any(name is not None for name in failed) else 0


def _cmd_verify_identities(args) -> int:
    m_max = args.m_max
    if not 4 <= m_max <= MAX_IDENTITY_M:
        raise UsageError(
            f"--m-max is {m_max}; this command needs 4..{MAX_IDENTITY_M}, since its "
            f"cost grows about as m^3.6 and m = {MAX_DEGREE} would run for hours"
        )
    checks: list[tuple[str, bool]] = []

    ok = all(combinat.binomial_reduction_check(m) for m in range(4, m_max + 1, 2))
    checks.append(("binomial-reductions", ok))

    ok = all(
        combinat.vanishing_alternating_sum(m, j) == 0
        for m in range(1, m_max + 1)
        for j in range(m)
    )
    checks.append(("vanishing-alternating-sum", ok))

    ok = all(
        combinat.weighted_convolution_sum(m, j) == (j + 1) * combinat.binom(m, j + 1)
        and combinat.square_convolution_sum(m, j) == combinat.binom(m, j)
        for m in range(2, m_max + 1)
        for j in range(m)
    )
    checks.append(("convolution-closed-forms", ok))

    ok = all(
        combinat.weighted_sum_recurrence_holds(m, j)
        and combinat.square_sum_recurrence_holds(m, j)
        for m in range(2, m_max + 1)
        for j in range(m)
    )
    checks.append(("convolution-recurrences", ok))

    ok = all(
        combinat.absorption_identity_holds(m, k)
        for m in range(1, m_max + 1)
        for k in range(m + 1)
    )
    checks.append(("absorption", ok))

    ok = all(
        combinat.alternating_sum_identity_holds(m, r)
        for m in range(1, m_max + 1)
        for r in range(m)
    )
    checks.append(("alternating-sum", ok))

    ok = all(
        combinat.bracket_closed_form_check(m, k)
        for m in range(2, min(m_max, 12) + 1)
        for k in range(1, 7)
    )
    checks.append(("bracket-closed-form", ok))

    if args.json:
        print(json.dumps({name: ok for name, ok in checks}, indent=2))
    else:
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(ok for _, ok in checks) else 1


def _cmd_verify_ineq(args) -> int:
    p, q = _load_pair(args, 1)
    cert = certify_pairing_nonpositive(p, q)
    _emit(
        args,
        {"pairing_nonpositive": cert.nonnegative, "certificate": cert.to_json()},
        f"pairing nonpositive: {'holds' if cert.nonnegative else 'VIOLATED'} "
        f"({cert.method})",
    )
    return 0 if cert.nonnegative else 1


def _cmd_certify(args) -> int:
    p, q = _load_pair(args, 2)
    try:
        cert = certify_product_isotopy(p, q)
    except PreconditionFailed as exc:
        _emit(
            args,
            {"certified": False, "failed_hypothesis": exc.hypothesis},
            f"FAILED: hypothesis {exc.hypothesis}",
        )
        return 1
    # every hypothesis held, or certify_product_isotopy would have raised
    idx_product = origin_index(second_fundamental_form(p * q))
    idx_factor = origin_index(second_fundamental_form(p))
    agreed = idx_product.value == idx_factor.value
    payload = {
        "certified": agreed,
        "certificate": cert.to_json(),
        "index_product": str(idx_product),
        "index_factor": str(idx_factor),
    }
    _emit(args, payload, f"certified: {agreed}  (index {idx_product} = {idx_factor})")
    return 0 if agreed else 1


def _cmd_foliate(args) -> int:
    if not 1 <= args.seeds <= MAX_SEEDS:
        raise UsageError(f"--seeds must lie in 1..{MAX_SEEDS}, got {args.seeds}")
    f = _load_poly(args, 2)
    label, cert = _classification(f)
    if label == "neither":
        raise PreconditionFailed(
            "hyperbolic",
            f"the line field needs a hyperbolic (or elliptic, line-free) form; "
            f"the discriminant of II is {cert.verdict.value}",
        )
    if label == "elliptic" and (args.svg or args.csv):
        raise PreconditionFailed(
            "hyperbolic",
            "a figure traces asymptotic lines, and an elliptic form has none",
        )
    w = second_fundamental_form(f)
    if args.svg or args.csv:
        cs = trace_foliation(w, seeds=args.seeds)
        count, angles = cs.sector_count, cs.separatrix_angles
    else:
        count, angles = count_separatrices(w)
    # the alignment form of II_f is n(n-1)f, so the invariant lines are the
    # distinct real linear factors of f: the slice's roots, plus x = 0
    exact = count_real_roots(f.coeffs) + (f.coeffs[f.degree] == 0)
    if count != exact:
        raise HesstopError(
            f"the float scan counted {count} separatrix lines, "
            f"but f has {exact} distinct real linear factors"
        )
    if args.svg:
        curves_to_svg(cs, args.svg)
    if args.csv:
        curves_to_csv(cs, args.csv)
    payload = {
        "separatrix_lines": count,
        "ray_angles": [round(a, 9) for a in angles],
    }
    _emit(
        args,
        payload,
        f"{count} separatrix lines ({len(angles)} rays)",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesstop",
        description="exact certification toolkit for hyperbolic homogeneous polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_flags(p):
        p.add_argument("--poly", help="polynomial text, e.g. 'x^3 - 3*x*y^2'")
        p.add_argument("--family", help="family shortcut: P:m, Q:k or f:m,k")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="hyperbolic / elliptic / neither")
    add_poly_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("index", help="origin index of the asymptotic line field")
    add_poly_flags(p)
    p.add_argument("--trace", help="dump the direction trace to this CSV path")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("census", help="component census for one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify-identities", help="combinatorial identity matrix")
    p.add_argument("--m-max", type=int, default=40)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("verify-ineq", help="certify the hessian pairing <= 0")
    p.add_argument("--p", help="first polynomial (text)")
    p.add_argument("--q", help="second polynomial (text)")
    p.add_argument("--family", help="f:m,k shortcut for the pair")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_ineq)

    p = sub.add_parser("certify", help="full product isotopy certificate")
    p.add_argument("--p", help="first polynomial (text)")
    p.add_argument("--q", help="second polynomial (text)")
    p.add_argument("--family", help="f:m,k shortcut for the pair")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("foliate", help="separatrices and integral-curve figures")
    add_poly_flags(p)
    p.add_argument("--svg", help="write an SVG figure to this path")
    p.add_argument("--csv", help="write curve points to this CSV path")
    p.add_argument("--seeds", type=int, default=24,
                   help=f"integral curves to trace, 1..{MAX_SEEDS} (with --svg/--csv)")
    p.set_defaults(func=_cmd_foliate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); send what is left to
        # devnull so the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HesstopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
