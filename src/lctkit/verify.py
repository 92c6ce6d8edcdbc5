"""Deterministic verification suites of `lctkit verify`: seeded random
checks of the root orders, the dual-route identities, the certified
difference and contact orders, the integrality pack, the containment
bound of the paper's plus/minus pair along random arcs, perturbation,
series arithmetic and the oracles.

Each suite takes (trials, seed) and returns one report per trial; every
trial draws from its own random.Random seeded from the master seed and the
trial index, so a report is reproducible on its own.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .criterion import choose_p
from .ideals import build_cor3_pack, containment_check, cor3_divisibility
from .numeric import (
    contact_order_identity_check, diff_orders, orders_against_series,
    perturbation_check,
)
from .oracle import lct_binomial_curve, lct_monomial_ideal
from .poly import UPoly
from .reports import integrality_test, max_root_order, partial_sums
from .rootdata import root_orders
from .series import PSeries, frac_str


def _trial_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def _rand_coeffs(rng, d):
    """d coefficients in t of up to two terms, exponents 1..6."""
    coeffs = []
    for _ in range(d):
        terms = {}
        for _ in range(rng.randint(0, 2)):
            e = Fraction(rng.randint(1, 6))
            c = Fraction(rng.randint(-5, 5))
            if c:
                terms[e] = c
        coeffs.append(PSeries("t", terms))
    return coeffs


def _rand_upoly(rng, dmax=4):
    return UPoly("y", _rand_coeffs(rng, rng.randint(2, dmax)))


def _rand_w(rng, var="t"):
    terms = {Fraction(rng.randint(1, 4)): Fraction(rng.randint(-3, 3))
             for _ in range(rng.randint(0, 2))}
    return PSeries(var, terms)


def _per_trial(check):
    """A suite that runs check(rng) once per trial, on the trial's own rng;
    check gives the trial's report fields besides "trial"."""
    def suite(trials, seed):
        return [{"trial": i, **check(_trial_rng(seed, i))}
                for i in range(trials)]
    return suite


@_per_trial
def _suite_orders(rng):
    orders = root_orders(_rand_upoly(rng))  # carries the coefficient check
    return {"ok": True, "orders": [v.to_json() for v in orders]}


@_per_trial
def _suite_partial_sums(rng):
    h = _rand_upoly(rng)
    return {"ok": True, "partial_sums": [partial_sums(h, k).to_json()
                                         for k in range(1, h.degree + 1)]}


@_per_trial
def _suite_max_order(rng):
    return {"ok": True,
            "max_root_order": max_root_order(_rand_upoly(rng)).to_json()}


@_per_trial
def _suite_diffs(rng):
    table = diff_orders(_rand_upoly(rng))  # certificate check is internal
    flat = sorted(v.sort_key() for row in table.rows for v in row[:-1])
    cert = sorted(v.sort_key() for v in table.certificate)
    return {"ok": flat == cert}


@_per_trial
def _suite_shift(rng):
    h = _rand_upoly(rng, dmax=3)
    vals, cert = orders_against_series(h, _rand_w(rng))
    ok = sorted(v.sort_key() for v in vals) == \
        sorted(v.sort_key() for v in cert)
    return {"ok": ok}


def _suite_integrality(trials, seed):
    pack = build_cor3_pack(2)
    results = []
    for i in range(trials):
        rng = _trial_rng(seed, i)
        if i % 2 == 0:
            m = rng.randint(1, 10)
            ram = rng.choice([0, 1])
            h = UPoly("y", [PSeries.zero("t"),
                            PSeries.monomial("t", 2 * m + ram, -1)])
            expect = ram == 0
        else:
            roots = [PSeries("t", {Fraction(rng.randint(1, 4)):
                                   Fraction(rng.randint(-3, 3))
                                   for _ in range(rng.randint(0, 2))})
                     for _ in range(2)]
            h = UPoly.from_roots("y", roots)
            expect = True
        verdict, _ = integrality_test(h)
        divisible = cor3_divisibility(pack, [h.coeff(1), h.coeff(2)])
        ok = (verdict == expect) and (divisible == verdict)
        results.append({"trial": i, "ok": ok, "integral": verdict})
    return results


_CONTAINMENT_PAIRS = ((2, Fraction(2, 3)), (2, Fraction(1)),
                      (3, Fraction(5, 12)), (3, Fraction(2, 3)),
                      (3, Fraction(11, 12)))


@_per_trial
def _suite_containment(rng):
    d, c = rng.choice(_CONTAINMENT_PAIRS)
    rep = containment_check(choose_p(d, c), _rand_coeffs(rng, d))
    return {"ok": rep["pass"], "d": d, "c": frac_str(c),
            "ord_plus": rep["ord_plus"], "ord_minus": rep["ord_minus"]}


@_per_trial
def _suite_perturbation(rng):
    f = _rand_upoly(rng, dmax=3)
    N = rng.randint(8, 12)
    pert = []
    for a in f.coeffs:
        bump = PSeries("t", {Fraction(N + rng.randint(0, 2)):
                             Fraction(rng.randint(-2, 2))})
        pert.append(a + bump)
    rep = perturbation_check(f, UPoly("y", pert), N)
    return {"ok": rep["pass"], "N": N}


@_per_trial
def _suite_contact(rng):
    h = _rand_upoly(rng, dmax=3)
    return {"ok": contact_order_identity_check(h, _rand_w(rng))["pass"]}


@_per_trial
def _suite_ring(rng):
    def rnd():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = Fraction(rng.randint(0, 8), rng.choice([1, 1, 2]))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if c:
                terms[e] = c
        return PSeries("t", terms)

    a, b, c = rnd(), rnd(), rnd()
    ok = ((a + b) + c == a + (b + c)) and \
        (a * (b + c) == a * b + a * c) and (a * b == b * a)
    oa, ob = a.order(), b.order()
    if oa.is_exact and ob.is_exact:
        ok = ok and (a * b).order() == oa + ob
    return {"ok": ok}


@_per_trial
def _suite_oracle(rng):
    d, k = rng.randint(1, 12), rng.randint(1, 12)
    closed = lct_binomial_curve(d, k)
    mono = lct_monomial_ideal([(k, 0), (0, d)])
    return {"ok": closed == min(Fraction(1), mono), "d": d, "k": k}


_SUITES = {
    "orders": _suite_orders,
    "partial-sums": _suite_partial_sums,
    "max-order": _suite_max_order,
    "diffs": _suite_diffs,
    "shift": _suite_shift,
    "integrality": _suite_integrality,
    "containment": _suite_containment,
    "perturbation": _suite_perturbation,
    "contact": _suite_contact,
    "ring": _suite_ring,
    "oracle": _suite_oracle,
}
