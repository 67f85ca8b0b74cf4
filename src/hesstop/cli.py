"""Command-line entry point wiring all modules.

Exit codes: 0 on success or all checks passing, 1 on a verification
failure, 2 on usage errors (bad flags, unparseable polynomials).
Polynomials are accepted as text (--poly) or as family shortcuts
(--family P:m, Q:k or f:m,k); degrees above polyalg.MAX_DEGREE are
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import census as census_mod
from . import combinat
from .classify import Verdict, certify_pairing_nonpositive, is_hyperbolic
from .errors import HesstopError, PreconditionFailed
from .foliation import count_separatrices, curves_to_csv, curves_to_svg, trace_foliation
from .isotopy import certify_product_isotopy
from .lineindex import index_at_origin
from .polyalg import MAX_DEGREE, HomoPoly, parse, product_family, radial_family, saddle_family
from .quadform import second_fundamental_form


class UsageError(Exception):
    pass


_CLASS_LABELS = {Verdict.POSITIVE: "hyperbolic", Verdict.NEGATIVE: "elliptic"}


def _check_degree(degree: int, what: str) -> None:
    if degree > MAX_DEGREE:
        raise UsageError(f"{what} has degree {degree}, above the cap {MAX_DEGREE}")


def _family_poly(spec: str) -> HomoPoly:
    try:
        tag, _, args = spec.partition(":")
        if tag == "P":
            _check_degree(int(args), spec)
            return saddle_family(int(args))
        if tag == "Q":
            _check_degree(2 * int(args), spec)
            return radial_family(int(args))
        if tag == "f":
            m_str, k_str = args.split(",")
            _check_degree(int(m_str) + 2 * int(k_str), spec)
            return product_family(int(m_str), int(k_str))
    except (ValueError, HesstopError) as exc:
        raise UsageError(f"bad family spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown family tag in {spec!r} (use P:m, Q:k or f:m,k)")


def _load_poly(args, attr: str = "poly", family_attr: str = "family") -> HomoPoly:
    text = getattr(args, attr, None)
    family = getattr(args, family_attr, None)
    if (text is None) == (family is None):
        raise UsageError("provide exactly one of --poly or --family")
    if text is not None:
        try:
            return parse(text)
        except HesstopError as exc:
            raise UsageError(f"cannot parse polynomial {text!r}: {exc}") from exc
    return _family_poly(family)


def _load_pair(args) -> tuple[HomoPoly, HomoPoly]:
    if args.family is not None:
        if args.p or args.q:
            raise UsageError("--family excludes --p/--q")
        tag, _, rest = args.family.partition(":")
        if tag != "f":
            raise UsageError("pair commands need --family f:m,k")
        try:
            m_str, k_str = rest.split(",")
            _check_degree(int(m_str) + 2 * int(k_str), args.family)
            return saddle_family(int(m_str)), radial_family(int(k_str))
        except (ValueError, HesstopError) as exc:
            raise UsageError(f"bad family spec {args.family!r}: {exc}") from exc
    if not (args.p and args.q):
        raise UsageError("provide --family f:m,k or both --p and --q")
    try:
        return parse(args.p), parse(args.q)
    except HesstopError as exc:
        raise UsageError(f"cannot parse polynomial: {exc}") from exc


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
    f = _load_poly(args)
    label, cert = _classification(f)
    _emit(
        args,
        {"classification": label, "certificate": cert.to_json()},
        f"{label}",
    )
    return 0


def _cmd_index(args) -> int:
    f = _load_poly(args)
    half, trace = index_at_origin(second_fundamental_form(f))
    if args.trace:
        trace.to_csv(args.trace)
    payload = {
        "index": str(half),
        "residual": half.residual,
        "samples_used": len(trace.samples),
    }
    _emit(args, payload, f"index {half}  (residual {half.residual:.2e}, "
                         f"{len(trace.samples)} samples)")
    return 0


def _cmd_census(args) -> int:
    _check_degree(args.n, "--n")
    rows = census_mod.enumerate_rows(args.n)
    if args.json:
        print(json.dumps([r.to_json() for r in rows], indent=2))
    else:
        print(f"{'n':>3} {'k':>3} {'m':>3} {'index':>7} {'lower bound':>12}")
        for r in rows:
            print(f"{r.n:>3} {r.k:>3} {r.m:>3} {str(r.index):>7} {r.lower_bound:>12}")
    if not args.certify:
        return 0
    failures = 0
    for row in rows:
        try:
            census_mod.certify_row(row)
            status = "certified"
        except HesstopError as exc:
            status = f"FAILED ({getattr(exc, 'hypothesis', type(exc).__name__)})"
            failures += 1
        if not args.json:
            print(f"  (k={row.k}, m={row.m}): {status}")
    return 1 if failures else 0


def _cmd_verify_identities(args) -> int:
    m_max = args.m_max
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
    p, q = _load_pair(args)
    cert = certify_pairing_nonpositive(p, q)
    _emit(
        args,
        cert.to_json(),
        f"pairing nonpositive: {'holds' if cert.holds else 'VIOLATED'} "
        f"({cert.method})",
    )
    return 0 if cert.holds else 1


def _cmd_certify(args) -> int:
    p, q = _load_pair(args)
    try:
        cert = certify_product_isotopy(p, q)
    except PreconditionFailed as exc:
        _emit(
            args,
            {"certified": False, "failed_hypothesis": exc.hypothesis},
            f"FAILED: hypothesis {exc.hypothesis}",
        )
        return 1
    idx_product, _ = index_at_origin(second_fundamental_form(p * q))
    idx_factor, _ = index_at_origin(second_fundamental_form(p))
    agreed = idx_product.value == idx_factor.value
    payload = {
        "certified": cert.valid and agreed,
        "certificate": cert.to_json(),
        "index_product": str(idx_product),
        "index_factor": str(idx_factor),
    }
    _emit(
        args,
        payload,
        f"certified: {cert.valid and agreed}  "
        f"(index {idx_product} = {idx_factor})",
    )
    return 0 if cert.valid and agreed else 1


def _cmd_foliate(args) -> int:
    f = _load_poly(args)
    label, cert = _classification(f)
    if label == "neither":
        raise PreconditionFailed(
            "hyperbolic",
            f"the line field needs a hyperbolic (or elliptic, line-free) form; "
            f"the discriminant of II is {cert.verdict.value}",
        )
    w = second_fundamental_form(f)
    if args.svg or args.csv:
        cs = trace_foliation(w, seeds=args.seeds)
        if args.svg:
            curves_to_svg(cs, args.svg)
        if args.csv:
            curves_to_csv(cs, args.csv)
        count, angles = cs.sector_count, cs.separatrix_angles
    else:
        count, angles = count_separatrices(w)
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
    p.add_argument("--seeds", type=int, default=24)
    p.set_defaults(func=_cmd_foliate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HesstopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
