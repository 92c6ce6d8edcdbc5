import random
from fractions import Fraction

import pytest

from lctkit import criterion, ideals, rootdata
from lctkit.criterion import choose_p, lct_ge
from lctkit.errors import BudgetError
from lctkit.ideals import (
    build_b, build_bbar_k, build_bk, build_c, build_cor3_pack,
    build_p_plus_minus, build_tilde_bk, containment_check,
    cor3_divisibility, degree3_test, depressed_cubic, example3_test,
)
from lctkit.mpoly import MPoly
from lctkit.poly import UPoly
from lctkit.qideal import (
    NO, UNKNOWN, YES, QIdeal, QIdealFrac, lc_dim1, qi_ord, qi_power,
)
from lctkit.reports import integrality_test
from lctkit.series import INF, OrderVal, PSeries

F = Fraction


def xs(e, c=1):
    return PSeries.monomial("x", F(e), F(c))


def lct_v(ctx, coeffs):
    """V of lct_ge's diagnostics at ctx's threshold."""
    return OrderVal.from_json(lct_ge(ctx.d, ctx.c, coeffs)[1]["V"])


def zero():
    return PSeries.zero("x")


def arc(**kw):
    return {k: v for k, v in kw.items()}


class TestChooseP:
    def test_band_examples(self):
        ctx = choose_p(3, F(5, 6))
        assert (ctx.p, ctx.c1, ctx.c2) == (2, F(1, 6), F(2, 3))
        ctx = choose_p(3, F(1, 2))
        assert (ctx.p, ctx.c1, ctx.c2) == (1, F(0), F(1, 2))
        # endpoint c = 1: p = d - 1, c1 = 1 - c = 0, c2 = 2c - 1 = 1
        ctx = choose_p(5, F(1))
        assert (ctx.p, ctx.c1, ctx.c2) == (4, F(0), F(1))

    def test_partition_total_unique(self):
        rng = random.Random(1)
        for _ in range(200):
            d = rng.randint(2, 6)
            c = F(rng.randint(1, 60), 60)
            if not (F(1, d) < c <= 1):
                continue
            ctx = choose_p(d, c)
            hits = [p for p in range(1, d)
                    if F(1, d - p + 1) < c <= F(1, d - p)]
            assert hits == [ctx.p]
            assert ctx.c1 >= 0 and ctx.c2 > 0

    def test_out_of_band(self):
        with pytest.raises(ValueError):
            choose_p(3, F(1, 3))
        with pytest.raises(ValueError):
            choose_p(3, F(4, 3))

    def test_non_int_degree_rejected(self):
        for d in (3.0, F(3), True, "3"):
            with pytest.raises(TypeError, match="degree must be an int"):
                choose_p(d, F(1, 2))


class TestIdealBuilders:
    def test_b_small(self):
        b = build_b(2)
        a = arc(z1=PSeries.zero("t"), z2=PSeries.monomial("t", 3, -1))
        assert qi_ord(b, a) == OrderVal.exact(F(3, 2))

    def test_b_d1(self):
        b = build_b(1)
        a = arc(z1=PSeries.monomial("t", 2))
        assert qi_ord(b, a) == OrderVal.exact(2)

    def test_c_branch_sample(self):
        # coefficients of (y-t)(y-t^2): max root order = ord(a_d) - ord(c-ideal)
        cid = build_c(2)
        a = arc(z1=PSeries("t", {F(1): F(-1), F(2): F(-1)}),
                z2=PSeries.monomial("t", 3))
        assert qi_ord(cid, a) == OrderVal.exact(1)

    def test_c_d1_unit(self):
        cid = build_c(1)
        assert qi_ord(cid, arc(z1=PSeries.monomial("t", 5))) == \
            OrderVal.exact(0)

    def test_bk_top_is_constant_ideal(self):
        # the k = d ideal is order-equivalent to (z_d)
        bk = build_bk(2, 2)
        for e in (2, 3, 7):
            a = arc(z1=PSeries.monomial("t", 1),
                    z2=PSeries.monomial("t", e))
            assert qi_ord(bk, a) == OrderVal.exact(e)

    def test_bk_matches_root_products(self):
        # ord of the k-products ideal equals the sum of the k smallest root
        # orders, evaluated on sample coefficient arcs
        rng = random.Random(5)
        for _ in range(20):
            d = rng.randint(2, 3)
            roots = [PSeries.monomial("t", rng.randint(1, 4),
                                      rng.randint(1, 3))
                     for _ in range(d)]
            h = UPoly.from_roots("y", roots)
            from lctkit.reports import partial_sums
            for k in range(1, d + 1):
                bk = build_bk(d, k)
                a = {f"z{i}": h.coeff(i) for i in range(1, d + 1)}
                assert qi_ord(bk, a) == partial_sums(h, k)

    def test_tilde_at_zero_shift_matches(self):
        rng = random.Random(11)
        for _ in range(10):
            d = rng.randint(2, 3)
            coeffs = {f"z{i}": PSeries.monomial("t", rng.randint(1, 3),
                                                rng.randint(1, 2))
                      for i in range(1, d + 1)}
            coeffs["w"] = PSeries.zero("t")
            for k in range(1, d + 1):
                tk = build_tilde_bk(d, k)
                bk = build_bk(d, k)
                base = {v: s for v, s in coeffs.items() if v != "w"}
                assert qi_ord(tk, coeffs) == qi_ord(bk, base)

    def test_tilde_k0_unit(self):
        assert qi_ord(build_tilde_bk(3, 0),
                      arc(z1=PSeries.monomial("t", 1))) == OrderVal.exact(0)

    def test_bbar_1_equals_b(self):
        for d in (2, 3, 4):
            bb = build_bbar_k(d, 1)
            b = build_b(d)
            rng = random.Random(d)
            for _ in range(20):
                a = {f"z{i}": PSeries("t", {F(rng.randint(1, 5)):
                                            F(rng.randint(1, 4))})
                     for i in range(1, d + 1)}
                assert qi_ord(bb, a) == qi_ord(b, a)

    def test_bbar_d2_k2(self):
        bb = build_bbar_k(2, 2)
        for e in (1, 2, 5):
            a = arc(z1=PSeries.monomial("t", 1),
                    z2=PSeries.monomial("t", e))
            assert qi_ord(bb, a) == OrderVal.exact(e)

    def test_bbar_d3_k2_example(self):
        bb = build_bbar_k(3, 2)
        a = arc(z1=PSeries.zero("t"), z2=PSeries.monomial("t", 2),
                z3=PSeries.monomial("t", 3))
        assert qi_ord(bb, a) == OrderVal.exact(2)

    def test_bbar_matches_partial_sums(self):
        rng = random.Random(21)
        from lctkit.reports import partial_sums
        for _ in range(15):
            d = rng.randint(2, 4)
            roots = [PSeries.monomial("t", rng.randint(1, 3),
                                      rng.randint(1, 3))
                     for _ in range(d)]
            h = UPoly.from_roots("y", roots)
            a = {f"z{i}": h.coeff(i) for i in range(1, d + 1)}
            for k in range(1, d + 1):
                assert qi_ord(build_bbar_k(d, k), a) == partial_sums(h, k)


class TestCor3Pack:
    def test_d2_pack_shape(self):
        pack = build_cor3_pack(2)
        assert pack.modulus == 2
        disc = MPoly.variable("z1") ** 2 - 4 * MPoly.variable("z2")
        assert any(p == disc or p == -disc for p in pack.polys)

    def test_d2_divisibility_flags_ramification(self):
        pack = build_cor3_pack(2)
        # y^2 - t^4: integral; y^2 - t^3: ramified
        assert cor3_divisibility(pack, [PSeries.zero("t"),
                                        PSeries.monomial("t", 4, -1)])
        assert not cor3_divisibility(pack, [PSeries.zero("t"),
                                            PSeries.monomial("t", 3, -1)])

    def test_budget(self):
        with pytest.raises(BudgetError):
            build_cor3_pack(3)

    def test_agrees_with_integrality(self):
        pack = build_cor3_pack(2)
        rng = random.Random(8)
        for _ in range(40):
            roots = [PSeries("t", {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                                   for _ in range(rng.randint(0, 2))})
                     for _ in range(2)]
            h = UPoly.from_roots("y", roots)
            coeffs = [h.coeff(1), h.coeff(2)]
            verdict, _ = integrality_test(h)
            assert verdict is True
            assert cor3_divisibility(pack, coeffs) is True


class TestEvalTheoremLhs:
    """The theorem's left-hand side V, as lct_ge's diagnostics give it."""

    def test_cusp_v_is_one(self):
        ctx = choose_p(3, F(5, 6))
        v = lct_v(ctx, [zero(), zero(), xs(2)])
        assert v == OrderVal.exact(1)

    def test_cusp_higher_c(self):
        ctx = choose_p(3, F(11, 12))
        v = lct_v(ctx, [zero(), zero(), xs(2)])
        assert v == OrderVal.exact(F(7, 6))

    def test_triple_root_infinite(self):
        g = xs(2)
        h = UPoly.from_roots("y", [g, g, g])
        ctx = choose_p(3, F(5, 6))
        v = lct_v(ctx, list(h.coeffs))
        assert v.is_infinite

    def test_context_outside_the_bands(self):
        # c where lct_ge's shortcuts decide: no band, so no V
        for c in (F(1, 4), F(1, 3), F(3, 2)):
            with pytest.raises(ValueError, match=r"must lie in \(1/3, 1\]"):
                choose_p(3, c)
            _, diag = lct_ge(3, c, [xs(1)] * 3)
            assert diag["p"] is None and diag["V"] is None


class TestLctGe:
    def test_cusp_yes_at_threshold(self):
        verdict, diag = lct_ge(3, F(5, 6), [zero(), zero(), xs(2)])
        assert verdict == YES
        assert diag["V"] == {"kind": "exact", "value": "1"}

    def test_cusp_no_above(self):
        verdict, diag = lct_ge(3, F(11, 12), [zero(), zero(), xs(2)])
        assert verdict == NO
        assert diag["V"] == {"kind": "exact", "value": "7/6"}

    def test_short_circuit_low_c(self):
        verdict, _ = lct_ge(2, F(1, 2), [xs(3), xs(5)])
        assert verdict == YES

    def test_c_above_one(self):
        verdict, _ = lct_ge(2, F(3, 2), [xs(1), xs(2)])
        assert verdict == NO

    def test_degree_one(self):
        assert lct_ge(1, F(1), [xs(4)])[0] == YES

    def test_order_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            lct_ge(2, F(3, 4), [PSeries.one("x"), xs(1)])

    def test_coefficient_count_rejected(self):
        with pytest.raises(ValueError,
                           match="expected 2 coefficients, got 1"):
            lct_ge(2, "1/2", [xs(1)])

    def test_non_series_coefficient_rejected(self):
        with pytest.raises(TypeError, match="coefficients must be series"):
            lct_ge(2, "1/2", [xs(1), 3])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree must be positive"):
            lct_ge(0, "1/2", [])

    def test_non_int_degree_rejected(self):
        """A degree equal to an int but not one is refused before the
        coefficients are read, so it neither builds a table nor reaches
        the band: 2.0 and Fraction(2) used to fail inside V with a raw
        TypeError, and True came back as "d": true."""
        cases = [(2.0, [xs(1), xs(2)]), (F(2), [xs(1), xs(2)]),
                 (True, [xs(1)]), (False, []), ("2", [xs(1), xs(2)])]
        for d, coeffs in cases:
            with pytest.raises(TypeError, match="degree must be an int"):
                lct_ge(d, "3/4", coeffs)

    def test_monotone_in_c(self):
        rng = random.Random(77)
        grid = [F(j, 24) for j in range(9, 25)]
        for _ in range(10):
            coeffs = [PSeries("x", {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                                    for _ in range(rng.randint(0, 2))})
                      for _ in range(3)]
            verdicts = [lct_ge(3, c, coeffs)[0] for c in grid]
            seen_no = False
            for v in verdicts:
                if v == NO:
                    seen_no = True
                else:
                    assert not seen_no, "yes after no breaks monotonicity"

    def test_repeated_root_family(self):
        for d in (2, 3, 4):
            for m in (1, 2):
                h = UPoly.from_roots("y", [xs(m)] * d)
                coeffs = list(h.coeffs)
                assert lct_ge(d, F(1, d), coeffs)[0] == YES
                for c in (F(1, d) + F(1, 24), F(1, 2) + F(1, 4),
                          F(1, d - 1) if d > 1 else F(1)):
                    if F(1, d) < c <= 1:
                        assert lct_ge(d, c, coeffs)[0] == NO


class TestKnownThresholds:
    def test_mixed_multiplicity_double_line(self):
        # (y - x)^2 (y - x^2): the double factor pins the threshold at 1/2
        h = UPoly.from_roots("y", [xs(1), xs(1), xs(2)])
        coeffs = list(h.coeffs)
        for num in range(9, 25):
            c = F(num, 24)
            verdict, _ = lct_ge(3, c, coeffs)
            assert verdict == (YES if c <= F(1, 2) else NO), c

    def test_distinct_lines_three_ways(self):
        # product of d distinct lines: threshold 2/d; the direct decision,
        # the closed form, and the plane oracle must agree
        from lctkit.oracle import lct_plane_nondegenerate
        for d in (3, 4):
            h = UPoly.from_roots("y", [xs(1, k) for k in range(1, d + 1)])
            coeffs = list(h.coeffs)
            truth = F(2, d)
            # oracle route: the same polynomial as a two-variable germ
            terms = {(0, d): F(1)}
            for i in range(1, d + 1):
                poly_coeff = coeffs[i - 1]
                for e, cc in poly_coeff.terms.items():
                    terms[(int(e), d - i)] = cc
            got, _ = lct_plane_nondegenerate(MPoly(("x", "y"), terms))
            assert got == truth
            for num in range(1, 25):
                c = F(num, 24)
                if not (F(1, d) < c <= 1):
                    continue
                verdict, _ = lct_ge(d, c, coeffs)
                assert verdict == (YES if c <= truth else NO), (d, c)


class TestDegree3:
    def test_cusp_examples(self):
        assert degree3_test(zero(), xs(2), F(5, 6))[0] == YES
        assert degree3_test(zero(), xs(2), F(9, 10))[0] == NO
        assert degree3_test(zero(), xs(2), F(1, 2))[0] == YES

    def test_band_error(self):
        with pytest.raises(ValueError):
            degree3_test(zero(), xs(2), F(1, 4))

    def test_bool_threshold_is_refused(self):
        # True equals 1, a threshold in the band, but is not a rational
        with pytest.raises(TypeError, match="^cannot interpret True as"):
            degree3_test(zero(), xs(2), True)

    def test_matches_lct_ge_random(self):
        rng = random.Random(4242)
        cs = [F(5, 12), F(1, 2), F(7, 12), F(2, 3), F(3, 4), F(5, 6), F(1)]
        for _ in range(25):
            a = PSeries("x", {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                              for _ in range(rng.randint(0, 2))})
            b = PSeries("x", {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                              for _ in range(rng.randint(0, 2))})
            for c in cs:
                got = degree3_test(a, b, c)[0]
                want = lct_ge(3, c, [zero(), a, b])[0]
                assert got == want, (a, b, c)

    def test_depressed_cubic_shift(self):
        a1, a2, a3 = xs(1), xs(2, -1), xs(3)
        a, b = depressed_cubic(a1, a2, a3)
        # roots are shifted by a1/3: differences unchanged, threshold equal
        for c in (F(5, 12), F(2, 3), F(11, 12)):
            assert lct_ge(3, c, [zero(), a, b])[0] == \
                lct_ge(3, c, [a1, a2, a3])[0]


class TestExample3:
    def test_d2(self):
        assert example3_test(2, F(3, 4), [xs(2)]) == YES

    def test_d3_yes(self):
        assert example3_test(3, F(5, 12), [zero(), xs(4)]) == YES

    def test_d3_no(self):
        assert example3_test(3, F(1, 2), [zero(), xs(8)]) == NO

    def test_band_enforced(self):
        with pytest.raises(ValueError):
            example3_test(3, F(2, 3), [xs(1), xs(2)])

    def test_matches_lct_ge(self):
        rng = random.Random(31)
        for _ in range(15):
            d = rng.randint(2, 4)
            tail = [PSeries("x", {F(rng.randint(1, 5)): F(rng.randint(-3, 3))
                                  for _ in range(rng.randint(0, 2))})
                    for _ in range(d - 1)]
            for j in (1, 2, 3):
                c = F(1, d) + j * (F(1, d - 1) - F(1, d)) / 3
                got = example3_test(d, c, tail)
                want = lct_ge(d, c, [zero()] + tail)[0]
                assert got == want


class TestPlusMinusPair:
    def test_d2_difference_is_v(self):
        rng = random.Random(13)
        for _ in range(25):
            coeffs = [PSeries("x", {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                                    for _ in range(rng.randint(0, 2))})
                      for _ in range(2)]
            for c in (F(2, 3), F(3, 4), F(1)):
                ctx = choose_p(2, c)
                pair = build_p_plus_minus(ctx)
                a = {"z1": coeffs[0], "z2": coeffs[1]}
                lhs = pair.ord_numer(a)
                rhs = pair.ord_denom(a)
                v = lct_v(ctx, coeffs)
                if v.is_infinite:
                    assert lhs.is_infinite
                else:
                    assert lhs.sub(rhs) == v

    def test_d2_lc_dim1_decides_as_lct_ge(self):
        # lct(y^2 + a1 y + a2) >= c iff (c - 1/2) ord(a1^2 - 4 a2) <= 1:
        # lc_dim1 of the pair along z1 -> a1, z2 -> a2 answers as lct_ge on
        # exact input, and never against it on truncated input
        rng = random.Random(29)
        for _ in range(60):
            coeffs = [PSeries("x", {F(rng.randint(1, 8), rng.choice((1, 2))):
                                    F(rng.randint(-3, 3))
                                    for _ in range(rng.randint(0, 2))})
                      for _ in range(2)]
            if rng.random() < 0.3:
                coeffs[1] = coeffs[1].truncated(F(rng.randint(1, 6)))
            arc = {"z1": coeffs[0], "z2": coeffs[1]}
            for c in (F(3, 5), F(2, 3), F(3, 4), F(5, 6), F(1)):
                got = lc_dim1(build_p_plus_minus(choose_p(2, c)), arc)
                want = lct_ge(2, c, coeffs)[0]
                if want != UNKNOWN or coeffs[1].trunc == INF:
                    assert got == want, (coeffs, c)

    def test_d3_depressed_difference_is_v(self):
        rng = random.Random(17)
        cs = [F(5, 12), F(1, 2), F(7, 12), F(2, 3), F(3, 4), F(11, 12)]
        for _ in range(20):
            a = PSeries("x", {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                              for _ in range(rng.randint(0, 2))})
            b = PSeries("x", {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                              for _ in range(rng.randint(0, 2))})
            for c in cs:
                ctx = choose_p(3, c)
                pair = build_p_plus_minus(ctx)
                m = {"z2": a, "z3": b}
                lhs = pair.ord_numer(m)
                rhs = pair.ord_denom(m)
                v = lct_v(ctx, [zero(), a, b])
                if v.is_infinite:
                    assert lhs.is_infinite or rhs.is_infinite
                else:
                    assert lhs.sub(rhs) == v, (a, b, c)

    def test_materialized_small_denominator(self, materialized_ord):
        # both parts of the d = 3 pairs at small denominators, multiplied
        # out, against their formal orders
        rng = random.Random(31)
        arcs = [{"z2": zero(), "z3": xs(2)}, {"z2": xs(2), "z3": xs(3)}]
        arcs += [{"z2": _rand_arc(rng, 1)[0], "z3": _rand_arc(rng, 1)[0]}
                 for _ in range(6)]
        for c in (F(5, 12), F(3, 5), F(5, 6)):
            pair = build_p_plus_minus(choose_p(3, c))
            for a in arcs:
                assert materialized_ord(pair.numer, a) == pair.ord_numer(a)
                assert materialized_ord(pair.denom, a) == pair.ord_denom(a)

    def test_vanishing_generators(self):
        # for c2 > 0 the plus ideal evaluates to positive order on
        # positive-order coefficients
        rng = random.Random(23)
        for d in (2, 3):
            for c in (F(2, 3), F(1)):
                ctx = choose_p(d, c)
                pair = build_p_plus_minus(ctx)
                for _ in range(10):
                    m = {f"z{i}": PSeries(
                        "x", {F(rng.randint(1, 3)): F(rng.randint(1, 3))})
                        for i in range(1 if d == 2 else 2, d + 1)}
                    assert pair.ord_numer(m).lower > 0

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            build_p_plus_minus(choose_p(4, F(1, 2)))

    def test_branch_shapes(self):
        z2, z3 = MPoly.variable("z2"), MPoly.variable("z3")
        disc3 = 4 * z2 ** 3 + 27 * z3 ** 2
        # bottom band: minus part trivial, plus exponent c2/6
        pair = build_p_plus_minus(choose_p(3, F(5, 12)))
        assert pair.denom.terms == ((),)
        e = choose_p(3, F(5, 12)).c2 / 6
        assert pair.numer.terms == (((z2 ** 3, e),), ((z3 ** 2, e),))
        # upper band, c <= 2/3: both ideals multiply into the plus part
        pair = build_p_plus_minus(choose_p(3, F(3, 5)))
        assert pair.denom.terms == ((),)
        assert pair.numer.terms == (
            ((disc3, F(1, 10)), (z2 ** 3, F(1, 30))),
            ((disc3, F(1, 10)), (z3 ** 2, F(1, 30))))
        # upper band, c > 2/3: the monomial-pair ideal moves below the bar
        pair = build_p_plus_minus(choose_p(3, F(5, 6)))
        assert pair.numer.terms == (((disc3, F(1, 3)),),)
        assert pair.denom.terms == (((z2 ** 3, F(1, 12)),),
                                    ((z3 ** 2, F(1, 12)),))
        # degree 2: discriminant only, c2/2 = (2c-1)/2
        pair = build_p_plus_minus(choose_p(2, F(3, 4)))
        assert pair.denom.terms == ((),)
        disc2 = MPoly.variable("z1") ** 2 - 4 * z2
        assert pair.numer.terms == (((disc2, F(1, 4)),),)


_CONTAINMENT_PAIRS = [(2, F(2, 3)), (2, F(3, 4)), (2, F(1)),
                      (3, F(5, 12)), (3, F(2, 3)), (3, F(11, 12))]


def _rand_arc(rng, d):
    """d coefficients in x of up to two terms, exponents 1..6: the arc
    z_i -> a_i."""
    return [PSeries("x", {F(rng.randint(1, 6)): F(rng.randint(-5, 5))
                          for _ in range(rng.randint(0, 2))})
            for _ in range(d)]


class TestContainment:
    """containment_check compares the orders of build_p_plus_minus's pair
    along one arc; the callers sample the arcs."""

    @pytest.mark.parametrize("d,c", _CONTAINMENT_PAIRS)
    def test_no_violations(self, d, c):
        rng = random.Random(11)
        ctx = choose_p(d, c)
        for _ in range(30):
            coeffs = _rand_arc(rng, d)
            rep = containment_check(ctx, coeffs)
            assert rep["pass"], (coeffs, rep)

    def test_planted_violation(self, monkeypatch):
        # a trivial plus ideal against (z2^3, z3^2)^(1/6): along a = x^2,
        # b = x^3 the minus order is 1, and 0 >= 3/2 fails
        ctx = choose_p(3, F(5, 6))
        z2, z3 = MPoly.variable("z2"), MPoly.variable("z3")
        planted = QIdealFrac(QIdeal.unit(),
                             qi_power(QIdeal([z2 ** 3, z3 ** 2], 1), F(1, 6)))
        monkeypatch.setattr(ideals, "build_p_plus_minus",
                            lambda ctx: planted)
        rep = containment_check(ctx, [zero(), xs(2), xs(3)])
        assert rep == {"pass": False,
                       "ord_plus": OrderVal.exact(0).to_json(),
                       "ord_minus": OrderVal.exact(1).to_json()}

    def test_degenerate_arcs_pass(self):
        inf = OrderVal.infinite().to_json()
        ctx = choose_p(3, F(5, 6))
        # triple root: a = b = 0, both orders infinite
        triple = UPoly.from_roots("y", [xs(1)] * 3).coeffs
        assert containment_check(ctx, triple) == {
            "pass": True, "ord_plus": inf, "ord_minus": inf}
        # double root: the discriminant vanishes, (a^3, b^2) has order 6
        double = UPoly.from_roots("y", [xs(1), xs(1), xs(2)]).coeffs
        assert containment_check(ctx, double) == {
            "pass": True, "ord_plus": inf,
            "ord_minus": OrderVal.exact(F(1, 2)).to_json()}
        square = UPoly.from_roots("y", [xs(1), xs(1)]).coeffs
        assert containment_check(choose_p(2, F(3, 4)), square) == {
            "pass": True, "ord_plus": inf,
            "ord_minus": OrderVal.exact(0).to_json()}

    def test_degree_four_raises(self):
        with pytest.raises(ValueError, match="d <= 3"):
            containment_check(choose_p(4, F(1, 2)), [xs(1)] * 4)

    def test_reads_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the check read a difference-order table")
        monkeypatch.setattr(criterion, "_table_for", refuse)
        monkeypatch.setattr(rootdata, "certified_rows", refuse)
        rng = random.Random(3)
        for d, c in _CONTAINMENT_PAIRS:
            assert containment_check(choose_p(d, c), _rand_arc(rng, d))["pass"]

    def test_degenerate_sample_passes(self, centers_of):
        # triple root: one distinct row, infinite past its first entry
        ctx = choose_p(3, F(5, 6))
        h = UPoly.from_roots("y", [xs(1)] * 3)
        from lctkit.criterion import _table_for
        table = _table_for(tuple(h.coeffs))
        assert centers_of(ctx, table) == [OrderVal.infinite()]


class TestTruncatedInput:
    """Truncated data: a certified verdict must hold for every completion
    of the data; otherwise the verdict is unknown with a hint."""

    @staticmethod
    def _series(rng, lo, hi, terms):
        out = {}
        for _ in range(terms):
            c = F(rng.randint(-5, 5))
            if c:
                out[F(rng.randint(lo, hi))] = c
        return PSeries("x", out)

    def test_sound_against_exact_and_completion(self):
        rng = random.Random(20260)
        certified = unknown = 0
        degrees = set()
        for _ in range(70):
            d = rng.choice([2, 2, 3, 3, 4, 5])
            coeffs = [self._series(rng, 1, 6, rng.randint(0, 2))
                      for _ in range(d)]
            c = F(1, d) + (1 - F(1, d)) * F(rng.randint(1, 10), 10)
            for bound in (F(2), F(4), F(6), F(9)):
                cut = [a.truncated(bound) for a in coeffs]
                # a second completion: the known part plus random terms
                # at or past the bound
                other = [a + self._series(rng, int(bound), int(bound) + 4, 2)
                         for a in cut]
                other = [PSeries("x", a.terms) for a in other]
                verdict, diag = lct_ge(d, c, cut)
                if verdict == UNKNOWN:
                    unknown += 1
                    assert diag["required"] is not None, diag
                    assert diag["reason"]
                    continue
                certified += 1
                degrees.add(d)
                assert verdict == lct_ge(d, c, coeffs)[0]
                assert verdict == lct_ge(d, c, other)[0]
        assert certified > 50 and unknown > 50
        assert degrees == {2, 3, 4, 5}

    def test_no_known_term_is_unknown(self):
        cut = [PSeries.zero("x", 1), PSeries.zero("x", 1)]
        verdict, diag = lct_ge(2, F(3, 4), cut)
        assert verdict == UNKNOWN
        assert diag["V"] is None
        assert F(diag["required"]) > 1

    @pytest.mark.parametrize("bound", [14, 20, 30])
    def test_double_char_root_beside_simple_one(self, bound):
        """An ambiguous d = 6 pattern whose top characteristic polynomial
        has the double root 2 beside the simple root -1: the expansion reads
        it exactly wherever the cut input is known on the segment, so the
        cut decides as the exact input does."""
        roots = [xs(1, -1) + xs(F(3, 2)) + xs(4), xs(F(3, 2), -2),
                 xs(1, 2) + xs(F(3, 2), 2) + xs(4, 2), xs(2, -2),
                 xs(1, 2) + xs(4, 2), xs(2, 2)]
        coeffs = UPoly.from_roots("y", roots).coeffs
        cut = [a.truncated(F(bound)) for a in coeffs]
        for c, want, v in ((F(14, 75), YES, "3/25"), (F(1, 2), NO, "9/4"),
                           (F(1), NO, "13/2")):
            assert lct_ge(6, c, coeffs)[0] == want
            verdict, diag = lct_ge(6, c, cut)
            assert (verdict, diag["V"]) == (
                want, {"kind": "exact", "value": v})


class TestTableCache:
    """The difference-order table cache is a least-recently-used map of
    257 entries with hit and miss counters."""

    @pytest.fixture(autouse=True)
    def _stub(self, monkeypatch):
        """An empty cache around each test, and the route to the rows
        replaced by a stub that returns a new object per call."""
        monkeypatch.setattr(criterion, "certified_rows", lambda h: object())
        criterion._table_for.cache_clear()
        yield
        criterion._table_for.cache_clear()

    @staticmethod
    def _lookup(k):
        return criterion._table_for((xs(k + 1), xs(k + 2)))

    @staticmethod
    def _counts():
        info = criterion._table_for.cache_info()
        return info.hits, info.misses, info.currsize

    def test_evicts_least_recently_used(self):
        size = criterion._table_for.cache_info().maxsize
        assert size == 257
        first = [self._lookup(k) for k in range(size)]
        assert self._lookup(0) is first[0]  # hit: key 0 is now the newest
        self._lookup(size)  # a miss past capacity evicts key 1
        assert self._lookup(0) is first[0]
        assert self._lookup(2) is first[2]
        assert self._lookup(1) is not first[1]
        assert self._counts() == (3, size + 2, size)

    def test_equal_keys_built_differently_hit(self):
        """A key equal by value hits, however its series were built: from
        int, Fraction or str keys, unreduced exponents, or arithmetic."""
        built = [
            (PSeries("x", {1: 3}), PSeries("x", {2: 1, F(1, 2): -1}, 7)),
            (PSeries("x", {"2/2": "6/2"}),
             PSeries("x", {"4/2": F(2, 2), "1/2": "-1"}, "14/2")),
            (xs(1, 3),
             (xs(F(1, 4)) * xs(F(1, 4)) + xs(2) * xs(0)).scale(-1).truncated(7)
             .scale(-1) - xs(F(1, 2), 2)),
        ]
        tables = [criterion._table_for(key) for key in built]
        assert tables[1] is tables[0] and tables[2] is tables[0]
        assert self._counts() == (2, 1, 1)

    def test_reuse_distance_85_always_hits(self):
        # a sliding window of 86 curves, one new curve per round: every
        # repeat has 85 other curves between its uses, and 385 curves in
        # all pass through a 257-entry cache
        rounds = 300
        for r in range(rounds):
            for k in range(r, r + 86):
                self._lookup(k)
        assert self._counts()[:2] == (86 * rounds - (85 + rounds),
                                      85 + rounds)
