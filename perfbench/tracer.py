"""In-memory span tracer for the traced perfbench run.

``Tracer.install`` wraps the public functions of every ``hesstop`` module,
plus the remainder-sequence kernel ``SturmChain.of``, and puts each wrapper
in every module namespace that holds the original, so calls made inside
the library go through the wrappers too.  ``uninstall`` puts the originals
back.

A span records its name, its parent span, the op it belongs to, the start
and end of the call, the input degree and largest coefficient bit length,
whether the call raised, and per-layer counts taken from its result.  Input
and result sizes are measured outside the call window.  Self time is the
call window minus the wrapper windows of the child spans, so a child's
bookkeeping is charged to neither.
"""

from __future__ import annotations

import statistics
import sys
import types
from fractions import Fraction
from time import perf_counter

PACKAGE = "hesstop"

# Leaf helpers called in inner loops, where a span would cost more than the
# call it measures; their time stays in the calling span.
UNWRAPPED = frozenset({
    "polyalg.partial",
    "combinat.binom",
    "lineindex.line_distance",
    "lineindex.branch_continuation",
})

HYPOTHESES = ("classify.is_hyperbolic", "classify.is_elliptic",
              "classify.certify_pairing_nonpositive")

# per-layer metric group -> span names whose self time it sums
COMBINAT_GROUPS = {
    "binomial_reduction_check": ("binomial_reduction_check", "raw_coeff_head",
                                 "raw_coeff_middle", "raw_coeff_tail"),
    "vanishing_alternating_sum": ("vanishing_alternating_sum",),
    "convolution_sums": ("weighted_convolution_sum", "square_convolution_sum"),
    "recurrences": ("weighted_sum_recurrence_holds", "square_sum_recurrence_holds"),
    "absorption_alternating": ("absorption_identity_holds", "alternating_sum_identity_holds"),
    "bracket_closed_form_check": ("bracket_closed_form_check",),
}
STURM_BUCKETS = (("deg-000-032", 0, 32), ("deg-033-064", 33, 64), ("deg-065-up", 65, None))


def coeff_bits(coeffs) -> int:
    """Largest bit length of a numerator or denominator among ``coeffs``."""
    best = 0
    for c in coeffs:
        if isinstance(c, Fraction):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
        else:
            best = max(best, int(c).bit_length())
    return best


def _size(arg):
    """(degree, bits) of one argument, or None when it is not a form."""
    if hasattr(arg, "coeffs") and hasattr(arg, "degree"):
        return arg.degree, coeff_bits(arg.coeffs)
    if all(hasattr(arg, k) for k in ("a", "b", "c")):
        return arg.degree, coeff_bits(arg.a.coeffs + arg.b.coeffs + arg.c.coeffs)
    if isinstance(arg, (list, tuple)) and arg and isinstance(arg[0], (Fraction, int)):
        return len(arg) - 1, coeff_bits(arg)
    if hasattr(arg, "n") and hasattr(arg, "m"):
        return arg.n, 0
    if isinstance(arg, int) and not isinstance(arg, bool):
        return arg, arg.bit_length()
    return None


def describe(args) -> tuple[int, int]:
    """Input degree and largest coefficient bits over the form arguments;
    -1 for both when no argument is a form, a row or a size."""
    degree = bits = -1
    for arg in args:
        size = _size(arg)
        if size is not None:
            degree, bits = max(degree, size[0]), max(bits, size[1])
    return degree, bits


def _nonzero(p) -> int:
    return sum(1 for c in p.coeffs if c != 0)


def _counts(name: str, args, result) -> dict:
    """Per-layer work counts read off a call's arguments and result."""
    if name == "classify.SturmChain.of":
        return {"chain_len": len(result.polys),
                "chain_bits": max(coeff_bits(p) for p in result.polys)}
    if name == "classify.isolate_real_roots":
        return {"intervals": len(result)}
    if name == "polyalg.multiply":
        return {"term_products": _nonzero(args[0]) * _nonzero(args[1]),
                "out_bits": coeff_bits(result.coeffs)}
    if name == "lineindex.index_at_origin":
        return {"samples": len(result[1].samples), "depth": result[1].refinement_depth}
    if name == "foliation.trace_foliation":
        return {"points": sum(len(c) for c in result.curves)}
    if name in HYPOTHESES:
        return {"key": hash(tuple(args))}
    return {}


class Tracer:
    """Collects spans of the calls made while ``active``."""

    def __init__(self):
        self.active = False
        self.spans: list[dict] = []
        self.wrong: dict[str, int] = {}
        self.op = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    @staticmethod
    def _modules():
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        prefix = PACKAGE + "."
        wrappers = {}
        for mod in self._modules():
            short = mod.__name__[len(prefix):]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[fn] = self._wrap(name, fn)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        chain = sys.modules[prefix + "classify"].SturmChain
        of = vars(chain)["of"]
        self._patch(chain, "of", classmethod(self._wrap("classify.SturmChain.of", of.__func__)))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            enter = perf_counter()
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            degree, bits = describe(args)
            frame = [sid, 0.0]
            stack.append(frame)
            error = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span = {
                    "id": sid, "parent": parent[0] if parent else None, "op": tracer.op,
                    "name": name, "start": start, "end": end,
                    "self": end - start - frame[1], "degree": degree, "bits": bits,
                    "error": error,
                }
                if not error:
                    span.update(_counts(name, args, result))
                tracer.spans.append(span)
                if parent is not None:
                    parent[1] += perf_counter() - enter
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per pass ------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.wrong = {}
        self._next_id = 0

    def note_wrong(self, entry: str) -> None:
        """An op whose entry point returned without raising gave a wrong answer."""
        self.wrong[entry] = self.wrong.get(entry, 0) + 1


PER_LAYER = (
    "classify.sturm.calls", "classify.sturm.self_s", "classify.sturm.chain_len",
    "classify.sturm.bits_max",
    *(f"classify.sturm.self_s.{label}" for label, _, _ in STURM_BUCKETS),
    *(f"classify.{fn}.{stat}"
      for fn in ("count_real_roots", "isolate_real_roots", "sign_on_punctured_plane",
                 "certify_nonnegative")
      for stat in ("calls", "self_s")),
    "classify.isolate_real_roots.intervals",
    *(f"{name}.calls" for name in HYPOTHESES),
    "classify.hypothesis.distinct_ratio",
    "polyalg.multiply.calls", "polyalg.multiply.self_s", "polyalg.multiply.term_products",
    "polyalg.multiply.out_bits_max",
    *(f"quadform.{fn}.self_s"
      for fn in ("second_fundamental_form", "discriminant", "hessian_pairing",
                 "gradient_product_form", "path_discriminant_coeffs")),
    *(f"isotopy.{fn}.{stat}"
      for fn in ("certify_product_isotopy", "certify_gradient_term_path",
                 "certify_path_positivity")
      for stat in ("calls", "self_s")),
    "lineindex.index_at_origin.calls", "lineindex.index_at_origin.self_s",
    "lineindex.index_at_origin.samples", "lineindex.index_at_origin.depth_max",
    "lineindex.index_at_origin.failed",
    "foliation.count_separatrices.calls", "foliation.count_separatrices.self_s",
    "foliation.count_separatrices.failed",
    "foliation.trace_foliation.self_s", "foliation.trace_foliation.points",
    *(f"combinat.{group}.self_s" for group in COMBINAT_GROUPS),
    "census.certify_row.self_s",
)


def layer_metrics(spans: list[dict], wrong: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric of one traced pass, except the overhead ratio."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    total: dict[str, int] = {}
    peak: dict[str, int] = {}
    keys: dict[str, set] = {}
    sturm_buckets = {label: 0.0 for label, _, _ in STURM_BUCKETS}
    for s in spans:
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s["self"]
        errors[name] = errors.get(name, 0) + s["error"]
        for field in ("chain_len", "term_products", "samples", "intervals", "points"):
            if field in s:
                total[f"{name}.{field}"] = total.get(f"{name}.{field}", 0) + s[field]
        for field in ("chain_bits", "out_bits", "depth"):
            if field in s:
                key = f"{name}.{field}"
                peak[key] = max(peak.get(key, 0), s[field])
        if "key" in s:
            keys.setdefault(name, set()).add(s["key"])
        if name == "classify.SturmChain.of":
            for label, lo, hi in STURM_BUCKETS:
                if s["degree"] >= lo and (hi is None or s["degree"] <= hi):
                    sturm_buckets[label] += s["self"]

    sturm = "classify.SturmChain.of"
    out: dict[str, float] = {
        "classify.sturm.calls": calls.get(sturm, 0),
        "classify.sturm.self_s": self_s.get(sturm, 0.0),
        "classify.sturm.chain_len": total.get(f"{sturm}.chain_len", 0),
        "classify.sturm.bits_max": peak.get(f"{sturm}.chain_bits", 0),
    }
    for label, value in sturm_buckets.items():
        out[f"classify.sturm.self_s.{label}"] = value
    for name in ("classify.count_real_roots", "classify.isolate_real_roots",
                 "classify.sign_on_punctured_plane", "classify.certify_nonnegative",
                 "isotopy.certify_product_isotopy", "isotopy.certify_gradient_term_path",
                 "isotopy.certify_path_positivity", "lineindex.index_at_origin",
                 "foliation.count_separatrices"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["classify.isolate_real_roots.intervals"] = total.get(
        "classify.isolate_real_roots.intervals", 0)
    hyp_calls = 0
    hyp_distinct = 0
    for name in HYPOTHESES:
        out[f"{name}.calls"] = calls.get(name, 0)
        hyp_calls += calls.get(name, 0)
        hyp_distinct += len(keys.get(name, ()))
    # with no hypothesis calls nothing was proved twice: report 1, not 0/0
    out["classify.hypothesis.distinct_ratio"] = hyp_distinct / hyp_calls if hyp_calls else 1.0
    out["polyalg.multiply.calls"] = calls.get("polyalg.multiply", 0)
    out["polyalg.multiply.self_s"] = self_s.get("polyalg.multiply", 0.0)
    out["polyalg.multiply.term_products"] = total.get("polyalg.multiply.term_products", 0)
    out["polyalg.multiply.out_bits_max"] = peak.get("polyalg.multiply.out_bits", 0)
    for fn in ("second_fundamental_form", "discriminant", "hessian_pairing",
               "gradient_product_form", "path_discriminant_coeffs"):
        out[f"quadform.{fn}.self_s"] = self_s.get(f"quadform.{fn}", 0.0)
    idx = "lineindex.index_at_origin"
    out[f"{idx}.samples"] = total.get(f"{idx}.samples", 0)
    out[f"{idx}.depth_max"] = peak.get(f"{idx}.depth", 0)
    out[f"{idx}.failed"] = errors.get(idx, 0) + wrong.get(idx, 0)
    sep = "foliation.count_separatrices"
    out[f"{sep}.failed"] = errors.get(sep, 0) + wrong.get(sep, 0)
    out["foliation.trace_foliation.self_s"] = self_s.get("foliation.trace_foliation", 0.0)
    out["foliation.trace_foliation.points"] = total.get("foliation.trace_foliation.points", 0)
    for group, members in COMBINAT_GROUPS.items():
        out[f"combinat.{group}.self_s"] = sum(self_s.get(f"combinat.{m}", 0.0) for m in members)
    out["census.certify_row.self_s"] = self_s.get("census.certify_row", 0.0)
    return {name: out[name] for name in PER_LAYER}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced passes."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if ".self_s" in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    return "count"
