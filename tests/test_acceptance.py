"""Acceptance suite: one test per primary criterion, each printing a
pass/fail line and enforcing its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import math
import random
import time
from fractions import Fraction

from hesstop.census import enumerate_rows
from hesstop.classify import certify_pairing_nonpositive, is_hyperbolic
from hesstop.combinat import (
    binom,
    binomial_reduction_check,
    bracket_closed_form_check,
    square_convolution_sum,
    square_sum_recurrence_holds,
    vanishing_alternating_sum,
    weighted_convolution_sum,
    weighted_sum_recurrence_holds,
)
from hesstop.foliation import count_separatrices
from hesstop.isotopy import certify_product_isotopy
from hesstop.lineindex import index_at_origin
from hesstop.polyalg import multiply, radial_family, saddle_family
from hesstop.quadform import gradient_forms, second_fundamental_form

from helpers import (
    discriminant_expansion_residual,
    hopf_model_form,
    hypotheses_hold,
    random_homopoly,
    reflection_identity_holds,
)

F = Fraction


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


def test_census_reference_rows():
    # every cell for degrees 3 through 8, and fast without certification
    expected = {
        3: [(0, 3, F(-1, 2), 1)],
        4: [(0, 4, F(-1), 1)],
        5: [(0, 5, F(-3, 2), 2), (1, 3, F(-1, 2), 2)],
        6: [(0, 6, F(-2), 2), (1, 4, F(-1), 2)],
        7: [(0, 7, F(-5, 2), 3), (1, 5, F(-3, 2), 3), (2, 3, F(-1, 2), 3)],
        8: [(0, 8, F(-3), 3), (1, 6, F(-2), 3), (2, 4, F(-1), 3)],
    }
    start = time.perf_counter()
    ok = True
    for n, rows in expected.items():
        got = [(r.k, r.m, r.index, r.lower_bound) for r in enumerate_rows(n)]
        ok = ok and got == rows
    elapsed = time.perf_counter() - start
    _report(
        "census reference rows (degrees 3-8)",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s < 1s",
    )


def test_index_law_for_saddle_family():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for m in range(3, 11):
        half, _ = index_at_origin(second_fundamental_form(saddle_family(m)))
        ok = ok and half.value == F(2 - m, 2) and half.residual < 0.01
        worst = max(worst, half.residual)
    elapsed = time.perf_counter() - start
    _report(
        "index law (2-m)/2 for m=3..10",
        ok and elapsed < 5.0,
        f"worst residual {worst:.2e}, {elapsed:.2f}s < 5s",
    )


def test_product_isotopy_transfers_index():
    # every admissible (m, k) with 3 <= m <= 8, 1 <= k < m, m + 2k <= 12
    start = time.perf_counter()
    pairs = [
        (m, k)
        for m in range(3, 9)
        for k in range(1, m)
        if m + 2 * k <= 12
    ]
    ok = True
    for m, k in pairs:
        cert = certify_product_isotopy(saddle_family(m), radial_family(k))
        product = multiply(saddle_family(m), radial_family(k))
        half_f, _ = index_at_origin(second_fundamental_form(product))
        half_p, _ = index_at_origin(second_fundamental_form(saddle_family(m)))
        ok = ok and hypotheses_hold(cert) and half_f.value == half_p.value == F(2 - m, 2)
    elapsed = time.perf_counter() - start
    _report(
        "product isotopy certificates and index transfer",
        ok and elapsed < 60.0,
        f"{len(pairs)} pairs, {elapsed:.2f}s < 60s",
    )


def test_bracket_closed_form():
    start = time.perf_counter()
    ok = all(
        bracket_closed_form_check(m, k)
        for m in range(2, 13)
        for k in range(1, 7)
    )
    elapsed = time.perf_counter() - start
    _report(
        "bracket closed form, m=2..12 (both parities), k=1..6",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s < 10s",
    )


def test_binomial_identity_battery():
    start = time.perf_counter()
    ok = all(binomial_reduction_check(m) for m in range(4, 41, 2))
    ok = ok and all(
        vanishing_alternating_sum(m, j) == 0
        for m in range(1, 41)
        for j in range(m)
    )
    for m in range(2, 41):
        for j in range(m):
            ok = ok and weighted_sum_recurrence_holds(m, j)
            ok = ok and square_sum_recurrence_holds(m, j)
            ok = ok and square_convolution_sum(m, j) == binom(m, j)
            ok = ok and weighted_convolution_sum(m, j) == (j + 1) * binom(m, j + 1)
    elapsed = time.perf_counter() - start
    _report(
        "binomial reductions, vanishing sum, recurrences (m <= 40)",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s < 30s",
    )


def test_discriminant_expansion_and_product_split():
    rng = random.Random(20240817)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        p = random_homopoly(rng, rng.randint(2, 8))
        q = random_homopoly(rng, rng.randint(1, 6))
        ok = ok and discriminant_expansion_residual(p, q).is_zero
    for _ in range(100):
        p = random_homopoly(rng, rng.randint(2, 6))
        q = random_homopoly(rng, rng.randint(2, 6))
        lhs = second_fundamental_form(multiply(p, q))
        rhs = (
            second_fundamental_form(q).scale(p)
            + second_fundamental_form(p).scale(q)
            + gradient_forms(p, q)[0]
        )
        ok = ok and (lhs - rhs).is_zero
    elapsed = time.perf_counter() - start
    _report(
        "discriminant expansion residual (200 pairs) and product split (100 pairs)",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s < 30s",
    )


def test_hyperbolicity_double_certification():
    # the polar criterion n < m^2 and the exact kernel agree on every
    # admissible pair with n = m + 2k <= 14; the criterion's peak value
    # 4k(m + k) - m^2 (m + 2k - 1) is n (n - m^2)
    ok = True
    checked = 0
    for m in range(3, 15):
        for k in range(0, m):
            if m + 2 * k > 14 or (k >= 1 and m <= max(2, k)):
                continue
            n = m + 2 * k
            ok = ok and 4 * k * (m + k) - m * m * (m + 2 * k - 1) == n * (n - m * m)
            ok = ok and n < m * m
            product = multiply(saddle_family(m), radial_family(k))
            ok = ok and is_hyperbolic(product)[0]
            ok = ok and certify_pairing_nonpositive(
                saddle_family(m), radial_family(k) if k >= 1 else radial_family(1)
            ).nonnegative
            checked += 1
    _report(
        "hyperbolicity double certification (m + 2k <= 14)",
        ok,
        f"{checked} admissible pairs",
    )


def test_separatrix_counts_and_model_form():
    start = time.perf_counter()
    ok = True
    for m in range(3, 7):
        for k in (0, 1, 2):
            f = multiply(saddle_family(m), radial_family(k))
            count, _ = count_separatrices(second_fundamental_form(f))
            ok = ok and count == m
        model_count, _ = count_separatrices(hopf_model_form(m))
        ok = ok and model_count == m
        if m % 2 == 1:
            ok = ok and reflection_identity_holds(m)
    ok = ok and reflection_identity_holds(7)
    elapsed = time.perf_counter() - start
    _report(
        "separatrix counts, model form, odd reflection identity",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s < 30s",
    )
