"""Command-line entry point wiring all modules.

Exit codes: 0 on success or all checks passing, 1 on a verification
failure, 2 on usage errors (bad flags, unparseable polynomials, values out
of range, or an output that cannot be written: the path of index --trace,
foliate --svg or --csv, or stdout, refused in one line, ``usage error:
cannot write <path>: <reason>``).  Polynomials are accepted as text
(--poly) or as family shortcuts (--family P:m, Q:k or f:m,k with integers
m >= 2, k >= 0; the pair commands take f:m,k only), and any other spec is
refused by name with the accepted forms.  A degree below what a command
needs (census --n 3, a form 2, the q of verify-ineq 1) or above
polyalg.MAX_DEGREE (for a pair, deg p + deg q), verify-identities --m-max
outside 4..MAX_IDENTITY_M (the checks cost more than m^3), foliate --seeds
outside 1..foliation.MAX_SEEDS and polynomial text longer than
MAX_POLY_TEXT characters are usage errors.  An error message quotes at most
errors.ECHO_CHARS characters of the user's text.

index, certify and census --certify read origin indexes exactly, and
all three the same way: lineindex.hyperbolic_index proves a form f
hyperbolic and reads the index of II_f from one conversion of f, from a
dominant Fourier term of the line field when one outweighs the rest, as
for every saddle and census model, else from a Cauchy index chain.  index
exits 1 naming the hypothesis when f is not hyperbolic; certify reads the
indexes of II_{pq} and II_p from the isotopy certificate, whose
product_hyperbolic and p_hyperbolic proofs read them.  A census row and
index build no II_f unless no Fourier term decides; index --trace builds
it for the tracer, and foliate reads it from the hyperbolicity verdict, so
each builds II_f at most once.  Only index --trace and the foliate
figures run the float tracer.  foliate checks the float separatrix count
against the exact number of distinct real linear factors of f and exits 1
with both numbers when they differ; it counts 0 lines for an elliptic
form but refuses to draw one (--svg/--csv exit 1 naming ``hyperbolic``,
before any sampling).  The float layer samples forms in the Fourier
basis, where nothing cancels: the tracer and foliate agree
with the exact answers on the saddle family up to the degree cap (the
monomial basis failed from P:112 and P:86).  A batch of figures is a
shell loop of checked foliate calls: ``for s in P:3 P:4 f:3,1; do python
-m hesstop foliate --family $s --svg out/$s.svg; done``.

JSON shapes: classify prints {"classification": label, "certificate":
{...}}; index prints {"index": "n/2", "method": m}, m naming how the index
was read (rouche-dominant-term or cauchy-index-chain); verify-ineq prints
{"pairing_nonpositive": bool, "certificate": {...}}, the certificate of
-hessian_pairing(p, q) >= 0, whose witness is a point where the pairing is
positive; certify prints "certified" (the two exact origin indexes agree:
a returned isotopy certificate has passed every hypothesis),
"certificate", "index_product" and "index_factor", the indexes of the
II_{pq} and II_p the certificate joins, and "index_product_method" and
"index_factor_method", named as by index, or {"certified": false,
"failed_hypothesis": name}.
The certificate's "hypotheses" are, in order, p_hyperbolic, q_elliptic,
q_positive, product_hyperbolic and pairing_nonpositive, each with its
exact certificate, then gradient_term_leg, a nested certificate whose
hypotheses are p_hyperbolic, q_positive and pairing_nonpositive.  census
--certify proves each row's product P_m (x^2 + y^2)^k hyperbolic and its
exact index (2 - m)/2, with no isotopy, and gives each row "certified" and,
on failure, "failed" (product_hyperbolic, index_matches or the exception
class).
``python -m hesstop`` runs :func:`main`.  When the reader of stdout goes
away early (``| head -1``), main stops quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import census as census_mod
from . import combinat
from .classify import Verdict, certify_pairing_nonpositive, count_real_roots, is_hyperbolic
from .errors import HesstopError, PreconditionFailed, excerpt
from .foliation import (
    MAX_SEEDS,
    count_separatrices,
    curves_to_csv,
    curves_to_svg,
    trace_foliation,
)
from .isotopy import certify_product_isotopy
from .lineindex import hyperbolic_index, index_at_origin
from .polyalg import MAX_DEGREE, HomoPoly, parse, radial_family, saddle_family
from .quadform import second_fundamental_form


# Largest verify-identities --m-max: the checks cost more than m^3 (0.3 s
# at m = 80, 2.3 s at m = 160, best of three wall times of python -m
# hesstop on a 2-vCPU VM), so m = MAX_DEGREE would run for hours.
MAX_IDENTITY_M = 160

# Longest polynomial text (--poly, --p, --q), in characters: above the
# formatted text of every family form up to MAX_DEGREE (121k characters
# for P:1024), and the longest single argument Linux passes to a program.
MAX_POLY_TEXT = 1 << 17


class UsageError(Exception):
    pass


_CLASS_LABELS = {Verdict.POSITIVE: "hyperbolic", Verdict.NEGATIVE: "elliptic"}


def _check_degree(degree: int, what: str, floor: int = 0) -> None:
    if not floor <= degree <= MAX_DEGREE:
        raise UsageError(f"{what} is {degree}; this command needs {floor}..{MAX_DEGREE}")


def _family(spec: str) -> tuple[HomoPoly, ...]:
    """The factors of a family spec: (P_m,) for P:m, (Q_k,) for Q:k and
    (P_m, Q_k) for f:m,k, where m >= 2, k >= 0 and the product's degree
    m + 2k is at most MAX_DEGREE."""
    tag, _, args = spec.partition(":")
    fields = args.split(",")
    try:
        # {"m": m}, {"k": k} or both; a strict zip refuses a wrong count.
        # int() alone would also take signs, spaces, underscores and the
        # digits of other scripts
        if not all(s.isascii() and s.isdigit() for s in fields):
            raise ValueError
        names = {"P": "m", "Q": "k", "f": "mk"}.get(tag, "")
        nums = dict(zip(names, map(int, fields), strict=True))
    except ValueError:
        nums = {}
    if not nums or nums.get("m", 2) < 2:
        raise UsageError(
            f"bad family spec {excerpt(spec)}: use P:m, Q:k or f:m,k "
            f"with integers m >= 2 and k >= 0"
        )
    degree = nums.get("m", 0) + 2 * nums.get("k", 0)
    _check_degree(degree, f"the degree of {excerpt(spec)}")
    build = {"m": saddle_family, "k": radial_family}
    return tuple(build[n](v) for n, v in nums.items())


def _parse(text: str) -> HomoPoly:
    if len(text) > MAX_POLY_TEXT:
        raise UsageError(
            f"polynomial text of {len(text)} characters is over the limit of {MAX_POLY_TEXT}"
        )
    try:
        return parse(text)
    except HesstopError as exc:
        # the parser's message already quotes the text
        raise UsageError(f"cannot parse polynomial: {exc}") from exc


def _load_poly(args, floor: int) -> HomoPoly:
    """The --poly or --family polynomial, of degree at least ``floor``."""
    if (args.poly is None) == (args.family is None):
        raise UsageError("provide exactly one of --poly or --family")
    f = _parse(args.poly) if args.poly is not None else math.prod(_family(args.family))
    _check_degree(f.degree, "the degree", floor)
    return f


def _load_pair(args, q_floor: int) -> tuple[HomoPoly, HomoPoly]:
    """(p, q) from --family f:m,k or from --p and --q; deg p >= 2,
    deg q >= q_floor and deg p + deg q <= MAX_DEGREE."""
    if args.family is not None:
        if args.p or args.q:
            raise UsageError("--family excludes --p/--q")
        if not args.family.startswith("f:"):
            raise UsageError(
                f"bad family spec {excerpt(args.family)}: pair commands need f:m,k"
            )
        p, q = _family(args.family)
    elif not (args.p and args.q):
        raise UsageError("provide --family f:m,k or both --p and --q")
    else:
        p, q = _parse(args.p), _parse(args.q)
    _check_degree(p.degree, "the degree of p", 2)
    _check_degree(q.degree, "the degree of q", q_floor)
    _check_degree(p.degree + q.degree, "the degree of p*q")
    return p, q


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _classification(f: HomoPoly):
    """("hyperbolic" | "elliptic" | "neither", certificate, II_f) from one
    exact sign verdict on the discriminant of II_f."""
    _, cert, w = is_hyperbolic(f)
    return _CLASS_LABELS.get(cert.verdict, "neither"), cert, w


def _cmd_classify(args) -> int:
    f = _load_poly(args, 2)
    label, cert, _ = _classification(f)
    _emit(
        args,
        {"classification": label, "certificate": cert.to_json()},
        f"{label}",
    )
    return 0


def _cmd_index(args) -> int:
    f = _load_poly(args, 2)
    cert, half = hyperbolic_index(f)
    if half is None:
        label = _CLASS_LABELS.get(cert.verdict, "neither")
        raise PreconditionFailed(
            "hyperbolic", f"the line field index needs a hyperbolic form; this one is {label}"
        )
    if args.trace:
        _write(index_at_origin(second_fundamental_form(f))[1].to_csv, args.trace)
    _emit(args, {"index": str(half), "method": half.method}, f"index {half}")
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
            f"cost grows faster than m^3 (2.3 s at m = 160) and "
            f"m = {MAX_DEGREE} would run for hours"
        )
    checks = {
        "binomial-reductions": all(
            combinat.binomial_reduction_check(m) for m in range(4, m_max + 1, 2)
        ),
        "vanishing-alternating-sum": all(
            combinat.vanishing_alternating_sum(m, j) == 0
            for m in range(1, m_max + 1) for j in range(m)
        ),
        "convolution-closed-forms": all(
            combinat.weighted_convolution_sum(m, j) == (j + 1) * combinat.binom(m, j + 1)
            and combinat.square_convolution_sum(m, j) == combinat.binom(m, j)
            for m in range(2, m_max + 1) for j in range(m)
        ),
        "convolution-recurrences": all(
            combinat.weighted_sum_recurrence_holds(m, j)
            and combinat.square_sum_recurrence_holds(m, j)
            for m in range(2, m_max + 1) for j in range(m)
        ),
        "absorption": all(
            combinat.absorption_identity_holds(m, k)
            for m in range(1, m_max + 1) for k in range(m + 1)
        ),
        "alternating-sum": all(
            combinat.alternating_sum_identity_holds(m, r)
            for m in range(1, m_max + 1) for r in range(m)
        ),
        "bracket-closed-form": all(
            combinat.bracket_closed_form_check(m, k)
            for m in range(2, min(m_max, 12) + 1) for k in range(1, 7)
        ),
    }
    if args.json:
        print(json.dumps(checks, indent=2))
    else:
        for name, ok in checks.items():
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


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
    # every hypothesis held (or it would have raised); the indexes of II_{pq}
    # and II_p were read in the proofs that they are hyperbolic
    idx_product, idx_factor = cert.index, cert.verdicts["gradient_term_leg"].index
    agreed = idx_product.value == idx_factor.value
    payload = {
        "certified": agreed,
        "certificate": cert.to_json(),
        "index_product": str(idx_product),
        "index_factor": str(idx_factor),
        "index_product_method": idx_product.method,
        "index_factor_method": idx_factor.method,
    }
    _emit(args, payload, f"certified: {agreed}  (index {idx_product} = {idx_factor})")
    return 0 if agreed else 1


def _cmd_foliate(args) -> int:
    if not 1 <= args.seeds <= MAX_SEEDS:
        raise UsageError(f"--seeds must lie in 1..{MAX_SEEDS}, got {args.seeds}")
    f = _load_poly(args, 2)
    label, cert, w = _classification(f)
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
        _write(curves_to_svg, cs, args.svg)
    if args.csv:
        _write(curves_to_csv, cs, args.csv)
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


def _write(write, *args) -> None:
    """write(*args), whose last argument is the output path; a path that
    cannot be written (missing directory, full device) is a usage error."""
    try:
        write(*args)
    except OSError as exc:
        raise UsageError(f"cannot write {excerpt(args[-1])}: {exc.strerror}") from None


def _drop_stdout() -> None:
    # point stdout at devnull so the interpreter's last flush of the bytes
    # it still holds cannot fail a second time
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
        # the reader closed stdout early (``| head``)
        _drop_stdout()
        return 1
    except OSError as exc:
        # after BrokenPipeError, an OSError too: any other refused write to
        # stdout (the output paths go through _write)
        _drop_stdout()
        print(f"usage error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HesstopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
