"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s or -v to see them).  Every tolerance is exact: all comparisons
are rational-arithmetic equalities or three-way verdict matches.
"""

import random
import time
from fractions import Fraction

from lctkit.criterion import choose_p, lct_ge
from lctkit.errors import DegenerateError
from lctkit.ideals import (
    build_cor3_pack, containment_check, cor3_divisibility, degree3_test,
)
from lctkit.numeric import (
    contact_order_identity_check, diff_orders, orders_against_series,
    perturbation_check,
)
from lctkit.oracle import lct_binomial_curve, lct_plane_nondegenerate
from lctkit.mpoly import MPoly
from lctkit.poly import UPoly
from lctkit.qideal import NO, YES
from lctkit.reports import integrality_test, max_root_order, partial_sums
from lctkit.rootdata import root_orders
from lctkit.series import PSeries

F = Fraction


def xs(e, c=1):
    return PSeries.monomial("x", F(e), F(c))


def ts(e, c=1):
    return PSeries.monomial("t", F(e), F(c))


def zero(var="x"):
    return PSeries.zero(var)


def rand_series(rng, var="t", max_terms=2, max_exp=6, lo=1):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        c = F(rng.randint(-5, 5))
        if c:
            terms[F(rng.randint(lo, max_exp))] = c
    return PSeries(var, terms)


def rand_monic(rng, dmax=4, var="t"):
    d = rng.randint(2, dmax)
    return UPoly("y", [rand_series(rng, var) for _ in range(d)])


def report(num, label, failures, elapsed, limit):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status} "
          f"[{elapsed:.1f}s / limit {limit}s]")
    assert not failures, failures[:3]
    assert elapsed < limit, f"criterion {num} exceeded {limit}s"


def test_criterion_1_binomial_curves():
    """lct_ge on y^d + x^k agrees with the binomial closed form
    min(1, 1/d + 1/k), exactly, over the full (d, k, c) grid."""
    t0 = time.time()
    failures = []
    for d in (2, 3, 4, 5):
        for k in range(2, 11):
            truth = lct_binomial_curve(d, k)
            coeffs = [zero() for _ in range(d - 1)] + [xs(k)]
            for j in range(1, 41):
                c = F(1, d) + j * (1 - F(1, d)) / 40
                verdict, _ = lct_ge(d, c, coeffs)
                want = YES if c <= truth else NO
                if verdict != want:
                    failures.append((d, k, c, verdict, want))
    report(1, "binomial curves", failures, time.time() - t0, 30)


def test_criterion_2_degree3_explicit():
    """degree3_test, lct_ge and the plane-curve oracle agree on 50
    nondegenerate trinomials y^3 + x^a y + x^b over 20 c values each."""
    t0 = time.time()
    failures = []
    trinomials = []
    for a in range(1, 9):
        for b in range(1, 9):
            f = MPoly(("x", "y"), {(0, 3): F(1), (a, 1): F(1), (b, 0): F(1)})
            try:
                lct, _ = lct_plane_nondegenerate(f)
            except DegenerateError:
                continue
            trinomials.append((a, b, lct))
            if len(trinomials) == 50:
                break
        if len(trinomials) == 50:
            break
    assert len(trinomials) == 50, "not enough nondegenerate trinomials"
    for a, b, truth in trinomials:
        sa, sb = xs(a), xs(b)
        for i in range(1, 21):
            c = F(1, 3) + i * F(2, 3) / 20
            v1 = degree3_test(sa, sb, c)[0]
            v2 = lct_ge(3, c, [zero(), sa, sb])[0]
            want = YES if c <= truth else NO
            if not (v1 == v2 == want):
                failures.append((a, b, c, v1, v2, want))
    report(2, "degree-3 explicit criterion", failures, time.time() - t0, 60)


def test_criterion_3_identity_suite():
    """200 seeded random monic polynomials (d <= 4): smallest root order
    equals the coefficient-ideal order, partial sums match the explicit
    recursion, the maximum matches the complementary formula, and the
    difference table's off-diagonal multiset equals the root orders of the
    difference polynomial."""
    t0 = time.time()
    failures = []
    rng = random.Random(20240042)
    for trial in range(200):
        h = rand_monic(rng)
        d = h.degree
        try:
            orders = root_orders(h)       # (i) internal dual-route equality
            for k in range(1, d + 1):
                partial_sums(h, k)        # (ii) recursion equality
            max_root_order(h)             # (iii) complementary formula
            table = diff_orders(h)        # (iv) certified construction
        except Exception as exc:
            failures.append((trial, repr(exc)))
            continue
        flat = sorted(v.sort_key() for i, row in enumerate(table.entries)
                      for j, v in enumerate(row) if i != j)
        cert = sorted(v.sort_key() for v in table.certificate)
        if flat != cert:
            failures.append((trial, "table/certificate mismatch"))
    report(3, "identity suite", failures, time.time() - t0, 60)


def test_criterion_4_shift_identity():
    """100 random (h, w): the root orders of h(y + w) equal the numerically
    grouped orders ord(alpha_i - w), exactly."""
    t0 = time.time()
    failures = []
    rng = random.Random(777001)
    for trial in range(100):
        h = rand_monic(rng, dmax=3)
        w = rand_series(rng, max_terms=2, max_exp=4)
        if rng.random() < 0.25:  # exercise fractional-exponent shifts
            w = w + PSeries("t", {F(3, 2): F(rng.randint(1, 2))})
        try:
            vals, cert = orders_against_series(h, w)
        except Exception as exc:
            failures.append((trial, repr(exc)))
            continue
        if sorted(v.sort_key() for v in vals) != \
                sorted(v.sort_key() for v in cert):
            failures.append((trial, "multiset mismatch"))
    report(4, "shift identity", failures, time.time() - t0, 60)


def test_criterion_5_integrality():
    """Parity families y^2 - t^m and 100 random products of linear factors,
    with the degree-2 divisibility pack agreeing throughout."""
    t0 = time.time()
    failures = []
    pack = build_cor3_pack(2)
    for m in range(1, 11):
        for power, expect in ((2 * m + 1, False), (2 * m, True)):
            h = UPoly("y", [zero("t"), ts(power, -1)])
            verdict, _ = integrality_test(h)
            divisible = cor3_divisibility(pack, [h.coeff(1), h.coeff(2)])
            if verdict is not expect or divisible is not expect:
                failures.append(("parity", power, verdict, divisible))
    rng = random.Random(31415)
    for trial in range(100):
        roots = [rand_series(rng, max_terms=2, max_exp=4) for _ in range(2)]
        h = UPoly.from_roots("y", roots)
        verdict, cert = integrality_test(h)
        divisible = cor3_divisibility(pack, [h.coeff(1), h.coeff(2)])
        if verdict is not True or divisible is not True:
            failures.append(("product", trial, verdict, divisible))
    report(5, "root integrality", failures, time.time() - t0, 60)


def test_criterion_6_containment():
    """ord(plus) >= (d/(d-1)) ord(minus) for the paper's plus/minus pair
    along 100 random arcs z_i -> a_i per (d, c) pair."""
    t0 = time.time()
    failures = []
    combos = [(2, F(2, 3)), (2, F(5, 6)), (2, F(1)),
              (3, F(5, 12)), (3, F(2, 3)), (3, F(11, 12))]
    for i, (d, c) in enumerate(combos):
        ctx = choose_p(d, c)
        rng = random.Random(1000 + i)
        for _ in range(100):
            coeffs = [rand_series(rng) for _ in range(d)]
            rep = containment_check(ctx, coeffs)
            if not rep["pass"]:
                failures.append((d, c, coeffs, rep))
    report(6, "containment bound", failures, time.time() - t0, 120)


def test_criterion_7_perturbation_bound():
    """100 random (f, N, perturbation of order >= N): every root of the
    perturbed polynomial matches a root of f to order >= N/d."""
    t0 = time.time()
    failures = []
    rng = random.Random(8675309)
    for trial in range(100):
        f = rand_monic(rng, dmax=3)
        N = rng.randint(6, 12)
        pert = []
        for a in f.coeffs:
            bump = PSeries("t", {F(N + rng.randint(0, 3)):
                                 F(rng.randint(-2, 2))})
            pert.append(a + bump)
        g = UPoly("y", pert)
        try:
            rep = perturbation_check(f, g, N)
        except Exception as exc:
            failures.append((trial, repr(exc)))
            continue
        if not rep["pass"]:
            failures.append((trial, rep))
    report(7, "perturbation bound", failures, time.time() - t0, 120)


def test_criterion_8_contact_identity():
    """100 random (h, w): the contact-order inequality holds at every
    center, with equality at the maximizing one."""
    t0 = time.time()
    failures = []
    rng = random.Random(2718281)
    for trial in range(100):
        h = rand_monic(rng, dmax=3)
        w = rand_series(rng, max_terms=2, max_exp=4)
        try:
            rep = contact_order_identity_check(h, w)
        except Exception as exc:
            failures.append((trial, repr(exc)))
            continue
        if not rep["pass"]:
            failures.append((trial, rep))
    report(8, "contact-order identity", failures, time.time() - t0, 120)


def test_criterion_9_repeated_root():
    """f = (y - x^m)^d: the verdict is yes exactly for c <= 1/d."""
    t0 = time.time()
    failures = []
    for d in (2, 3, 4, 5):
        for m in (1, 2, 3):
            h = UPoly.from_roots("y", [xs(m)] * d)
            coeffs = list(h.coeffs)
            for j in range(0, 25):
                c = F(1, d) + j * (1 - F(1, d)) / 24 if d > 1 else F(j, 24)
                if c == 0:
                    continue
                verdict, diag = lct_ge(d, c, coeffs)
                want = YES if c <= F(1, d) else NO
                if verdict != want:
                    failures.append((d, m, c, verdict, want))
                if c > F(1, d) and diag["V"] != {"kind": "inf"}:
                    failures.append((d, m, c, "V-not-infinite", diag["V"]))
    report(9, "repeated-root sanity", failures, time.time() - t0, 60)
