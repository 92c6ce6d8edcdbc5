import random
from fractions import Fraction

import mpmath
import pytest

from lctkit import numeric
from lctkit.errors import ConsistencyError, PrecisionError, TruncationError
from lctkit.numeric import (
    contact_order_identity_check, diff_orders, orders_against_series,
    perturbation_check, puiseux_expand,
)
from lctkit.mpoly import MPoly, q_squarefree
from lctkit.poly import UPoly, compound_poly, difference_poly
from lctkit.reports import (
    integrality_test, max_root_order, newton_polygon, partial_sums,
)
from lctkit.rootdata import _difference_levels, root_orders
from lctkit.series import INF, OrderVal, PSeries

F = Fraction


def mono(e, c=1):
    return PSeries.monomial("t", F(e), F(c))


def zero():
    return PSeries.zero("t")


def rand_h(rng, dmax=4, sparse=True):
    """Random monic polynomial over Q[[t]] with small sparse coefficients."""
    d = rng.randint(2, dmax)
    coeffs = []
    for _ in range(d):
        terms = {}
        for _ in range(rng.randint(0, 2 if sparse else 4)):
            e = F(rng.randint(1, 6))
            c = F(rng.randint(-5, 5))
            if c:
                terms[e] = c
        coeffs.append(PSeries("t", terms))
    return UPoly("y", coeffs)


class TestNewtonPolygon:
    def test_cusp(self):
        h = UPoly("y", [zero(), -mono(3)])
        np = newton_polygon(h)
        assert np.slopes == [(OrderVal.exact(F(3, 2)), 2)]

    def test_two_branches(self):
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        np = newton_polygon(h)
        assert np.slopes == [(OrderVal.exact(1), 1), (OrderVal.exact(2), 1)]

    def test_collinear_point(self):
        h = UPoly("y", [zero(), mono(2), mono(3)])
        np = newton_polygon(h)
        assert np.slopes == [(OrderVal.exact(1), 3)]

    def test_zero_tail_infinite(self):
        h = UPoly.from_roots("y", [zero(), mono(1)])
        np = newton_polygon(h)
        assert np.slopes == [(OrderVal.exact(1), 1), (OrderVal.infinite(), 1)]

    def test_truncated_middle_point_certified(self):
        # a_1 unknown below 5, a_2 = t^2: the hull passes under (1, >=5)
        h = UPoly("y", [PSeries.zero("t", 5), mono(2)])
        np = newton_polygon(h)
        assert np.slopes == [(OrderVal.exact(1), 2)]

    def test_truncated_middle_point_raises_when_binding(self):
        # a_1 unknown below 1 could cut the hull of y^2 + a_1 y + t^4
        h = UPoly("y", [PSeries.zero("t", 1), mono(4)])
        with pytest.raises(TruncationError):
            newton_polygon(h)

    def test_truncated_constant_term_raises(self):
        # an unknown lowest coefficient controls the polygon's left end
        h = UPoly("y", [mono(1), PSeries.zero("t", 5)])
        with pytest.raises(TruncationError):
            newton_polygon(h)

    def test_truncated_left_end_raises(self):
        h = UPoly("y", [PSeries.zero("t", 4), PSeries.zero("t", 4)])
        with pytest.raises(TruncationError):
            newton_polygon(h)

    def test_truncated_left_end_hint_passes_truncation(self):
        # y^2 + t y + O(t^5): the hint lies past the known bound
        h = UPoly("y", [mono(1), PSeries.zero("t", 5)])
        with pytest.raises(TruncationError) as info:
            newton_polygon(h)
        assert info.value.required is not None and info.value.required > 5
        h = UPoly("y", [PSeries.zero("t", 4), PSeries.zero("t", 4)])
        with pytest.raises(TruncationError) as info:
            newton_polygon(h)
        assert info.value.required > 4


class TestRootOrders:
    def test_cusp_min_matches_ideal(self):
        h = UPoly("y", [zero(), -mono(3)])
        assert root_orders(h) == [OrderVal.exact(F(3, 2))] * 2

    def test_branches(self):
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        assert [v.value for v in root_orders(h)] == [1, 2]

    def test_depressed_cubic(self):
        h = UPoly("y", [zero(), mono(2), mono(3)])
        assert [v.value for v in root_orders(h)] == [1, 1, 1]

    def test_random_identity_suite(self):
        rng = random.Random(2024)
        for _ in range(80):
            h = rand_h(rng)
            orders = root_orders(h)  # includes the internal lem1 assert
            d = h.degree
            for k in range(1, d + 1):
                partial_sums(h, k)  # internal dual-route assert
            max_root_order(h)       # internal dual-route assert

    @pytest.mark.parametrize("read", [root_orders, _difference_levels,
                                      integrality_test])
    def test_polynomial_coefficients_are_rejected(self, read):
        # the message says what is wrong with the input, not which helper
        # found it
        z = MPoly.variable("z")
        with pytest.raises(ValueError,
                           match="^root orders need series coefficients$"):
            read(UPoly("y", [z, z * z]))

    def test_truncated_orders_are_exact_or_infinite(self):
        """A truncation either leaves the polygon ambiguous, and raises, or
        leaves it certified, with exact hull slopes (infinite orders need
        exactly vanishing coefficients): root_orders never returns AtLeast,
        for h or for its difference polynomial."""
        rng = random.Random(909)
        seen = set()
        for n in range(40):
            d = 2 + n % 4
            h = UPoly("y", [PSeries("t", {F(rng.randint(1, 6)):
                                          F(rng.choice([-3, -1, 1, 2]))
                                          for _ in range(rng.randint(0, 2))})
                            for _ in range(d)])
            for trunc in range(1, 10):
                cut = UPoly("y", [a.truncated(trunc) for a in h.coeffs])
                for poly in (cut, difference_poly(cut)):
                    try:
                        orders = root_orders(poly)
                    except TruncationError:
                        seen.add("raised")
                        continue
                    seen.update(v.kind for v in orders)
                    assert all(v.is_exact or v.is_infinite for v in orders)
        assert {"raised", OrderVal.EXACT} <= seen


class TestPartialAndMax:
    def test_cusp_total(self):
        h = UPoly("y", [zero(), -mono(3)])
        assert partial_sums(h, 2) == OrderVal.exact(3)

    def test_branch_first(self):
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        assert partial_sums(h, 1) == OrderVal.exact(1)

    def test_cubic_two(self):
        h = UPoly("y", [zero(), mono(2), mono(3)])
        assert partial_sums(h, 2) == OrderVal.exact(2)

    def test_max_branch(self):
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        assert max_root_order(h) == OrderVal.exact(2)

    def test_max_cusp(self):
        h = UPoly("y", [zero(), -mono(3)])
        assert max_root_order(h) == OrderVal.exact(F(3, 2))

    def test_max_zero_root(self):
        h = UPoly.from_roots("y", [zero(), mono(1)])
        assert max_root_order(h).is_infinite

    @pytest.mark.parametrize("coeffs,top", [
        # y^2 + O(t) y + t^2: the loose a_1 sits on the hull
        ([PSeries.zero("t", 1), mono(2)], 1),
        # y^3 + O(t^2) y^2 + t^3 y + t^5: the loose a_1 lies above it
        ([PSeries.zero("t", 2), mono(3), mono(5)], 2),
    ], ids=["d2", "d3"])
    def test_max_with_loose_coefficient(self, coeffs, top):
        """A loose coefficient on or above the hull leaves the minimum of
        the complementary formula exact: on it, its candidate ties with
        the least one."""
        assert max_root_order(UPoly("y", coeffs)) == OrderVal.exact(top)


class TestPuiseuxExpand:
    def test_cusp_pair(self):
        h = UPoly("y", [zero(), -mono(3)])
        rs = puiseux_expand(h, 3)
        leads = sorted(complex(r[0][1]).real for r in rs.roots)
        assert [r[0][0] for r in rs.roots] == [F(3, 2), F(3, 2)]
        assert leads == [-1.0, 1.0]

    def test_two_branches_exact_terms(self):
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        rs = puiseux_expand(h, 4)
        exps = sorted(tuple(e for e, _ in r) for r in rs.roots)
        assert exps == [((F(1)),), ((F(2)),)]

    def test_cubic_characteristic(self):
        # leading coefficients are the roots of u^3 + u + 1
        h = UPoly("y", [zero(), mono(2), mono(3)])
        rs = puiseux_expand(h, 2)
        import mpmath
        with mpmath.workprec(320):
            for r in rs.roots:
                assert r[0][0] == 1
                u = r[0][1]
                assert abs(u ** 3 + u + 1) < mpmath.mpf(2) ** -100

    def test_leading_matches_polygon_random(self):
        rng = random.Random(77)
        for _ in range(40):
            h = rand_h(rng, dmax=3)
            finite = [v.value for v in root_orders(h) if v.is_exact]
            depth = max(finite, default=F(1)) + 1
            rs = puiseux_expand(h, depth)
            got = sorted(r[0][0] for r in rs.roots if r)
            assert got == sorted(finite)

    def test_truncated_coefficient_raises(self):
        h = UPoly("y", [zero(), PSeries("t", {F(3): F(-1)}, 4)])
        with pytest.raises(TruncationError):
            puiseux_expand(h, 6)

    def test_explicit_precision_is_kept(self):
        h = UPoly("y", [zero(), -mono(3)])
        assert puiseux_expand(h, 3).precision == numeric.PRECISION
        assert puiseux_expand(h, 3, 64).precision == 64

    @pytest.mark.parametrize("precision", [0, -8, True, False, 64.0, "64"])
    def test_precision_must_be_a_positive_int(self, precision):
        h = UPoly("y", [zero(), -mono(3)])
        with pytest.raises(ValueError,
                           match="precision must be a positive int"):
            puiseux_expand(h, 3, precision)


class TestDiffOrders:
    def test_cusp(self):
        h = UPoly("y", [zero(), -mono(3)])
        t = diff_orders(h)
        assert t.entries[0][1] == OrderVal.exact(F(3, 2))

    def test_cubic_all_one(self):
        h = UPoly("y", [zero(), mono(2), mono(3)])
        t = diff_orders(h)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert t.entries[i][j] == OrderVal.exact(1)

    def test_degree_one(self):
        # one root: no pair, so an empty certificate
        t = diff_orders(UPoly("y", [-mono(2)]))
        assert t.entries == [[OrderVal.infinite()]]
        assert t.certificate == []

    def test_degree_one_depth(self):
        h = UPoly("y", [-mono(2)])
        assert diff_orders(h).depth == 1
        assert diff_orders(h, "5/2").depth == F(5, 2)

    @pytest.mark.parametrize("depth", [0, -1, "-1/2"])
    @pytest.mark.parametrize("coeffs", [[-mono(2)], [zero(), -mono(3)]],
                             ids=["d1", "d2"])
    def test_depth_must_be_positive(self, coeffs, depth):
        with pytest.raises(ValueError, match="depth must be positive"):
            diff_orders(UPoly("y", coeffs), depth)

    def test_double_root_infinite(self):
        h = UPoly.from_roots("y", [mono(1), mono(1)])
        t = diff_orders(h)
        assert t.entries[0][1].is_infinite

    def test_rows_sorted_with_diagonal(self):
        h = UPoly.from_roots("y", [mono(1), mono(2), mono(4)])
        t = diff_orders(h)
        for row in t.rows:
            assert row[-1].is_infinite
            vals = [v.lower for v in row]
            assert vals == sorted(vals)

    def test_cross_validation_random(self):
        rng = random.Random(555)
        for _ in range(30):
            h = rand_h(rng)
            t = diff_orders(h)
            flat = sorted(
                (v.sort_key() for i, row in enumerate(t.entries)
                 for j, v in enumerate(row) if i != j))
            cert = sorted(v.sort_key() for v in t.certificate)
            assert flat == cert

    def test_two_level_ramified_tower(self):
        # (y^2 - t^3)^2 - t^7: roots +-t^(3/2) +- t^2/2 + ...; same-sign
        # pairs differ at order 2, opposite-sign pairs at 3/2
        h = UPoly("y", [zero(), mono(3, -2), zero(),
                        mono(6) - mono(7)])
        assert root_orders(h) == [OrderVal.exact(F(3, 2))] * 4
        t = diff_orders(h)
        for row in t.rows:
            assert [v.sort_key() for v in row] == [
                OrderVal.exact(F(3, 2)).sort_key(),
                OrderVal.exact(F(3, 2)).sort_key(),
                OrderVal.exact(2).sort_key(),
                OrderVal.infinite().sort_key(),
            ]

    def test_mixed_multiplicity(self):
        # (y - t)^2 (y - t^2): differences {0,0,1x4}
        h = UPoly.from_roots("y", [mono(1), mono(1), mono(2)])
        t = diff_orders(h)
        flat = sorted((v.lower for i, row in enumerate(t.entries)
                       for j, v in enumerate(row) if i != j))
        assert flat == [1, 1, 1, 1, INF, INF]


class TestWiderInputs:
    def test_fractional_exponent_coefficients(self):
        # coefficients may themselves carry half-integer exponents
        rng = random.Random(55)
        for _ in range(8):
            coeffs = []
            for _ in range(rng.randint(2, 3)):
                terms = {F(rng.randint(1, 8), 2): F(rng.randint(-5, 5))
                         for _ in range(rng.randint(0, 2))}
                coeffs.append(PSeries("t", {e: c for e, c in terms.items()
                                            if c}))
            h = UPoly("y", coeffs)
            t = diff_orders(h)
            flat = sorted(v.sort_key() for i, row in enumerate(t.entries)
                          for j, v in enumerate(row) if i != j)
            assert flat == sorted(v.sort_key() for v in t.certificate)

    def test_degree_five_table(self):
        # above the symbolic budgets the series route still certifies
        h = UPoly("y", [mono(1), zero(), mono(2, -3), zero(), mono(7)])
        t = diff_orders(h)
        flat = sorted(v.sort_key() for i, row in enumerate(t.entries)
                      for j, v in enumerate(row) if i != j)
        assert flat == sorted(v.sort_key() for v in t.certificate)
        assert len(t.certificate) == 20


class TestIntegrality:
    def test_odd_power_ramified(self):
        for m in range(1, 6):
            h = UPoly("y", [zero(), -mono(2 * m + 1)])
            verdict, cert = integrality_test(h)
            assert verdict is False

    def test_even_power_integral(self):
        for m in range(1, 6):
            h = UPoly("y", [zero(), -mono(2 * m)])
            verdict, _ = integrality_test(h)
            assert verdict is True

    def test_products_of_linear_factors(self):
        rng = random.Random(9)
        for _ in range(30):
            d = rng.randint(2, 4)
            roots = []
            for _ in range(d):
                terms = {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                         for _ in range(rng.randint(0, 2))}
                roots.append(PSeries("t", terms))
            h = UPoly.from_roots("y", roots)
            verdict, _ = integrality_test(h)
            assert verdict is True

    def test_certificate_names_violation(self):
        h = UPoly("y", [zero(), -mono(3)])
        _, cert = integrality_test(h)
        assert cert["violating_order"] == "3/2"

    def test_difference_is_the_violation(self):
        # the roots t + t^(3/2) and t - t^(3/2) have integral orders, but
        # their difference has order 3/2
        h = UPoly.from_roots("y", [mono(1) + mono(F(3, 2)),
                                   mono(1) - mono(F(3, 2))])
        assert root_orders(h) == [OrderVal.exact(1)] * 2
        assert integrality_test(h) == (False, {
            "integral": False, "source": "difference",
            "violating_order": "3/2"})


class TestContactOrder:
    def test_cusp_at_t(self):
        h = UPoly("y", [zero(), -mono(3)])
        rep = contact_order_identity_check(h, mono(1))
        assert rep["pass"]
        assert rep["order_h_w"] == {"kind": "exact", "value": "2"}

    def test_w_zero_on_branches(self):
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        rep = contact_order_identity_check(h, zero())
        assert rep["pass"]
        assert rep["order_h_w"] == {"kind": "exact", "value": "3"}

    def test_w_matching_root_prefix(self):
        # w agrees with a root to a chosen depth
        h = UPoly.from_roots("y", [mono(1) + mono(3), mono(2)])
        w = mono(1)  # matches the first root up to order 3
        rep = contact_order_identity_check(h, w)
        assert rep["pass"]

    def test_random(self):
        rng = random.Random(31337)
        for _ in range(25):
            h = rand_h(rng, dmax=3)
            terms = {F(rng.randint(1, 3)): F(rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 2))}
            w = PSeries("t", terms)
            rep = contact_order_identity_check(h, w)
            assert rep["pass"]


class TestPerturbation:
    def test_quartic_example(self):
        f = UPoly("y", [zero(), -mono(4)])
        g = UPoly("y", [zero(), -mono(4) + mono(10)])
        rep = perturbation_check(f, g, 10)
        assert rep["pass"]
        assert rep["roots"][0]["best_match"] == {"kind": "exact", "value": "8"}

    def test_identical(self):
        f = UPoly("y", [zero(), -mono(4)])
        rep = perturbation_check(f, f, 10)
        assert rep["pass"]
        assert rep["roots"][0]["best_match"] == {"kind": "inf"}

    def test_smooth_pair(self):
        f = UPoly("y", [zero(), -mono(2)])
        g = UPoly("y", [zero(), -mono(2) + mono(6)])
        rep = perturbation_check(f, g, 6)
        assert rep["pass"]

    def test_requires_matching_orders(self):
        f = UPoly("y", [zero(), -mono(2)])
        g = UPoly("y", [zero(), -mono(3)])
        with pytest.raises(ValueError):
            perturbation_check(f, g, 6)

    def test_random(self):
        rng = random.Random(404)
        for _ in range(20):
            f = rand_h(rng, dmax=3)
            N = rng.randint(8, 12)
            pert = []
            for a in f.coeffs:
                bump = PSeries("t", {F(N + rng.randint(0, 2)):
                                     F(rng.randint(-2, 2))})
                pert.append(a + bump)
            g = UPoly("y", pert)
            rep = perturbation_check(f, g, N)
            assert rep["pass"]


class TestCompoundProductIdentity:
    def test_min_product_order_is_partial_sum(self):
        # the smallest order among products of k distinct roots equals the
        # sum of the k smallest root orders, via the compound polynomial
        rng = random.Random(606)
        for _ in range(15):
            h = rand_h(rng, dmax=4)
            d = h.degree
            for k in range(1, d + 1):
                g = compound_poly(h, k)
                got = OrderVal.min_of(root_orders(g))
                want = partial_sums(h, k)
                assert got == want, (h, k)


class TestOrdersAgainstSeries:
    def test_multiset_matches_shifted_polygon(self):
        rng = random.Random(111)
        for _ in range(25):
            h = rand_h(rng, dmax=3)
            terms = {F(rng.randint(1, 4)): F(rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 2))}
            w = PSeries("t", terms)
            vals, cert = orders_against_series(h, w)
            assert sorted(v.sort_key() for v in vals) == \
                sorted(v.sort_key() for v in cert)


class TestSharedPrefix:
    """Roots w + t_i sharing a prefix w of two or more terms: the
    expansion meets a characteristic polynomial with one multiple root."""

    @staticmethod
    def _check(prefix, tails):
        w = PSeries("t", {F(e): F(c) for e, c in prefix})
        roots = [w + mono(e, c) for e, c in tails]
        h = UPoly.from_roots("y", roots)
        # rows follow the expansion order: compare the multiset of rows
        key = lambda row: sorted(v.sort_key() for v in row)  # noqa: E731
        want = [[(mono(*a) - mono(*b)).order() if a != b
                 else OrderVal.infinite() for b in tails] for a in tails]
        rows = diff_orders(h).entries
        assert sorted(map(key, rows)) == sorted(map(key, want))
        return h

    def test_two_term_prefix_decides(self):
        # the reproducer y -> y + 3x + 2x^2 of a curve with lct 7/12
        from lctkit.criterion import lct_ge
        from lctkit.qideal import NO, YES
        a1 = PSeries("x", {F(1): F(-6), F(2): F(-4), F(6): F(2),
                           F(7): F(-1)})
        a2 = PSeries("x", {F(2): F(9), F(3): F(12), F(4): F(4), F(7): F(-6),
                           F(8): F(-1), F(9): F(2), F(13): F(-2)})
        assert lct_ge(2, F(2, 3), [a1, a2])[0] == NO
        assert lct_ge(2, F(7, 12), [a1, a2])[0] == YES
        self._check([(1, 3), (2, 2)], [(6, -2), (7, 1)])

    def test_three_term_prefix(self):
        self._check([(1, 1), (2, 2), (3, -3)], [(5, 2), (6, -1)])
        self._check([(1, 1), (2, 2), (3, -3)], [(4, 1), (5, 2), (6, -1)])

    def test_cluster_detection_on_truncated_data(self):
        # truncated data takes the numeric characteristic-root route
        h = self._check([(1, 1), (2, 2), (3, -3)], [(4, 1), (5, 2), (6, -1)])
        cut = UPoly("y", [a.truncated(F(40)) for a in h.coeffs])
        assert diff_orders(cut).entries == diff_orders(h).entries


class TestTruncationHints:
    def test_expansion_hint_in_input_units(self):
        # y^2 + O(t^(5/2)) y + t^2 + O(t^(5/2)): the second expansion level
        # needs the input known to order 3
        h = UPoly("y", [PSeries.zero("t", F(5, 2)),
                        PSeries("t", {F(2): F(1)}, F(5, 2))])
        with pytest.raises(TruncationError) as info:
            diff_orders(h)
        assert info.value.required == 3
        cut = UPoly("y", [PSeries.zero("t", 3),
                          PSeries("t", {F(2): F(1)}, 3)])
        assert diff_orders(cut).entries[0][1] == OrderVal.exact(1)


class TestEscalation:
    """The shared precision-escalation loop, seen through each caller with
    puiseux_expand replaced: precisions numeric.PRECISION << i for five
    attempts, only a PrecisionError retried."""

    PREC = 96

    @pytest.fixture(autouse=True)
    def _precision(self, monkeypatch):
        monkeypatch.setattr(numeric, "PRECISION", self.PREC)

    @staticmethod
    def _call(name):
        h = UPoly.from_roots("y", [mono(1), mono(1) + mono(2), mono(3)])
        if name == "diff_orders":
            return diff_orders(h).to_json()
        if name == "orders_against_series":
            return orders_against_series(h, mono(1))
        f = UPoly("y", [zero(), -mono(4)])
        g = UPoly("y", [zero(), -mono(4) + mono(10)])
        return perturbation_check(f, g, 10)

    @staticmethod
    def _patch(monkeypatch, fail):
        """Replace puiseux_expand; fail(n) gives the error for the n-th call
        (from 1) or None to expand for real.  Returns the precisions seen."""
        real = numeric.puiseux_expand
        bits = []

        def fake(h, depth, precision=None):
            bits.append(precision)
            err = fail(len(bits))
            if err is not None:
                raise err
            return real(h, depth, precision)

        monkeypatch.setattr(numeric, "puiseux_expand", fake)
        return bits

    CALLERS = {
        "diff_orders": "difference orders failed to certify",
        "orders_against_series": "contact orders failed to certify",
        "perturbation_check": "perturbation check failed to certify",
    }

    @pytest.mark.parametrize("name", list(CALLERS))
    def test_precision_error_exhausts_five_attempts(self, monkeypatch, name):
        bits = self._patch(monkeypatch, lambda n: PrecisionError("lost"))
        with pytest.raises(ConsistencyError) as info:
            self._call(name)
        assert str(info.value) == f"{self.CALLERS[name]}: lost"
        assert bits == [self.PREC << i for i in range(5)]

    @pytest.mark.parametrize("name", list(CALLERS))
    def test_consistency_error_propagates_at_once(self, monkeypatch, name):
        bits = self._patch(monkeypatch, lambda n: ConsistencyError("bad"))
        with pytest.raises(ConsistencyError, match="^bad$"):
            self._call(name)
        assert bits == [self.PREC]

    @pytest.mark.parametrize("name", list(CALLERS))
    def test_one_precision_error_then_success(self, monkeypatch, name):
        want = self._call(name)
        bits = self._patch(
            monkeypatch, lambda n: PrecisionError("lost") if n == 1 else None)
        assert self._call(name) == want
        assert bits[0] == self.PREC
        assert set(bits[1:]) == {2 * self.PREC}

    # another polynomial of the same degree, whose orders differ from the
    # caller's certificate at every precision
    _CUBIC = UPoly.from_roots("y", [mono(1), mono(1) + mono(3), mono(3)])
    OTHER = {"diff_orders": _CUBIC, "orders_against_series": _CUBIC,
             "perturbation_check": UPoly("y", [zero(), -mono(6)])}
    MISMATCH = {
        "diff_orders": "numeric difference orders disagree with the exact "
                       "difference polynomial",
        "orders_against_series": "numeric contact orders disagree with the "
                                 "shifted polygon",
        "perturbation_check": "numeric perturbation orders disagree with "
                              "the exact cross-difference polynomial",
    }

    def test_backfill_and_unresolved_count(self):
        """Unresolved pairs are filled from the certificate's orders at or
        past the depth, and must be exactly as many as those orders."""
        one, two = mpmath.mpf(1), mpmath.mpf(2)
        roots = [[(F(1), one)], [(F(1), one)], [(F(1), two)]]

        def certify(cert):
            return numeric._certified_orders(
                lambda p: (roots, roots), [(0, 1), (0, 2)], cert,
                F(3), "mismatch", "exhausted")

        E = OrderVal.exact
        assert certify([E(1), OrderVal.infinite()]) == \
            [OrderVal.infinite(), E(1)]
        assert certify([E(5), E(1)]) == [OrderVal.at_least(3), E(1)]
        with pytest.raises(ConsistencyError, match="^mismatch$"):
            certify([E(1)])

    @pytest.mark.parametrize("name", list(CALLERS))
    def test_mismatch_exhausts_five_attempts(self, monkeypatch, name):
        real = numeric.puiseux_expand
        bits = []

        def fake(h, depth, precision=None):
            bits.append(precision)
            return real(self.OTHER[name], depth, precision)

        monkeypatch.setattr(numeric, "puiseux_expand", fake)
        with pytest.raises(ConsistencyError) as info:
            self._call(name)
        assert str(info.value) == self.MISMATCH[name]
        per_attempt = 2 if name == "perturbation_check" else 1
        assert bits == [self.PREC << i for i in range(5)
                        for _ in range(per_attempt)]


class TestCharRoots:
    """The characteristic-root routine against mpmath.polyroots run at four
    times the precision."""

    PREC = 256

    @staticmethod
    def _expand(roots):
        """Descending rational coefficients of prod (z - r) over rational
        roots r and conjugate pairs (a, b) for a +- i b."""
        poly = [F(1)]
        for r in roots:
            factor = [F(1), -2 * r[0], r[0] ** 2 + r[1] ** 2] \
                if isinstance(r, tuple) else [F(1), -r]
            poly = [sum(poly[i] * factor[k - i] for i in range(len(poly))
                        if 0 <= k - i < len(factor))
                    for k in range(len(poly) + len(factor) - 1)]
        return poly

    def _roots(self, coeffs, prec=PREC):
        with mpmath.workprec(prec + 64):
            mp = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
            got = numeric._char_roots(mp, prec,
                                       numeric._tolerances(prec)[1])
            want = mpmath.polyroots(mp, maxsteps=400, extraprec=4 * prec)
        return got, want

    def _check(self, coeffs, prec=PREC):
        got, want = self._roots(coeffs, prec)
        assert len(got) == len(want) == len(coeffs) - 1
        tol = mpmath.mpf(2) ** (-(prec // 2))
        for w in want:  # every root found once, to 2^-(prec/2)
            near = [g for g in got if abs(g - w) <= tol * max(1, abs(w))]
            assert len(near) == 1, (got, want)
        keys = [(abs(mpmath.im(g)), mpmath.re(g)) for g in got]
        assert keys == sorted(keys)  # polyroots' order
        return got

    def test_random_squarefree_factors(self):
        rng = random.Random(5)
        done = 0
        while done < 60:
            deg = rng.randint(2, 5)
            coeffs = [F(rng.randint(1, 9), rng.randint(1, 4))] + \
                [F(rng.randint(-20, 20), rng.randint(1, 6))
                 for _ in range(deg)]
            if coeffs[-1] == 0 or not q_squarefree(coeffs):
                continue
            self._check(coeffs)
            done += 1

    def test_real_roots_and_conjugate_pairs(self):
        rng = random.Random(6)
        for _ in range(40):
            deg = rng.randint(2, 5)
            pairs = rng.randint(0, deg // 2)
            re = [F(k, 7) for k in rng.sample(range(-60, 60), deg - pairs)]
            roots = [(a, F(rng.randint(1, 30), 7)) for a in re[:pairs]] + \
                re[pairs:]
            got = self._check(self._expand(roots))
            assert sum(1 for g in got if mpmath.im(g) != 0) == 2 * pairs

    def test_near_coincident_roots_raise(self):
        for gap in (F(1, 2 ** 80), F(1, 2 ** 200)):
            for other in ([], [F(3)], [(F(1), F(2))], [F(-2), F(5, 3)]):
                coeffs = self._expand([F(7, 5), F(7, 5) + gap] + other)
                with pytest.raises(PrecisionError):
                    self._roots(coeffs)
        # the same pair is resolved once the precision separates it
        got = self._check(self._expand([F(7, 5), F(7, 5) + F(1, 2 ** 80),
                                        F(3)]), prec=1024)
        assert abs(got[0] - got[1]) > mpmath.mpf(2) ** -81

    def test_complex_coefficients(self):
        # the numeric route's characteristic polynomials are complex
        rng = random.Random(8)
        with mpmath.workprec(self.PREC + 64):
            for _ in range(30):
                deg = rng.randint(2, 5)
                mp = [mpmath.mpc(rng.randint(-9, 9) or 1, rng.randint(-9, 9))
                      for _ in range(deg + 1)]
                got = numeric._char_roots(mp, 2 * self.PREC)
                want = mpmath.polyroots(mp, maxsteps=400,
                                        extraprec=4 * self.PREC)
                tol = mpmath.mpf(2) ** (-(self.PREC // 2))
                for w in want:
                    assert sum(1 for g in got
                               if abs(g - w) <= tol * max(1, abs(w))) == 1


class TestSolveChar:
    """The numeric route of _solve_char: Durand-Kerner approximations
    clustered, and each cluster of m polished to one root of multiplicity
    m."""

    PREC = 256

    @staticmethod
    def _from_roots(lead, roots):
        """Descending mpc coefficients of lead * prod (z - r)."""
        poly = [mpmath.mpc(lead)]
        for r in roots:
            poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
        return poly

    def _solve(self, lead, roots, tols=None):
        with mpmath.workprec(self.PREC + 64):
            return numeric._solve_char(
                self._from_roots(lead, roots), None, self.PREC,
                tols or numeric._tolerances(self.PREC))

    def _check(self, got, want):
        """got holds each (root, mult) of want once, the root to within
        2^-(PREC/2), in some order."""
        assert len(got) == len(want)
        tol = mpmath.mpf(2) ** (-(self.PREC // 2))
        for w, m in want:
            assert sum(1 for u, k in got
                       if k == m and abs(u - w) <= tol) == 1, (got, want)

    def test_double_root_beside_a_simple_one(self):
        # (z + 1)^2 (z - 1): Durand-Kerner closes in on -1 only linearly
        self._check(self._solve(1, [-1, -1, 1]), [(-1, 2), (1, 1)])
        w = mpmath.mpc(2, 1)
        self._check(self._solve(1.5, [1, w, 1, 1, w]), [(1, 3), (w, 2)])

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_one_multiple_root(self, m):
        # c_0 (z - u)^m: the polish is one Newton step to -c_1 / (m c_0)
        u = mpmath.mpc(0.7, -1.3)
        self._check(self._solve(mpmath.mpc(3, 2), [u] * m), [(u, m)])

    def test_cluster_of_distinct_roots_raises(self):
        # 1 and 11/10 fall into one cluster at a coarse cluster tolerance,
        # but (z - 1)(z - 11/10)(z + 2) has no double root between them
        with mpmath.workprec(self.PREC + 64):
            tols = numeric._tolerances(self.PREC)[:2] + (mpmath.mpf(1) / 2,)
        with pytest.raises(PrecisionError, match="not one multiple root"):
            self._solve(1, [1, mpmath.mpf(11) / 10, -2], tols)
        self._check(self._solve(1, [1, mpmath.mpf(11) / 10, -2]),
                    [(-2, 1), (1, 1), (mpmath.mpf(11) / 10, 1)])

    def test_multiple_roots_stop_durand_kerner_early(self, monkeypatch):
        # the six roots x + x^2 + a x^3 share their first two terms, so
        # the expansion's second level has a sixfold characteristic root,
        # which Durand-Kerner approaches only linearly: its sweeps stop once
        # no approximation moves by 2^-8 of the cluster tolerance, not after
        # all _DK_STEPS of them
        sweeps = []
        sweep = numeric._dk_sweep

        def counted(roots, monic):
            if isinstance(roots[0], mpmath.mpc):
                sweeps.append(len(roots))
            return sweep(roots, monic)

        monkeypatch.setattr(numeric, "_dk_sweep", counted)
        roots = [PSeries("x", {F(1): F(1), F(2): F(1), F(3): F(a)})
                 for a in range(1, 7)]
        table = numeric.diff_orders(UPoly.from_roots("y", roots))
        assert len(sweeps) <= 100
        assert table.entries == [
            [OrderVal.infinite() if i == j else OrderVal.exact(3)
             for j in range(6)] for i in range(6)]

    def test_split_multiple_root_raises(self):
        # at a cluster tolerance too fine to join them, the approximations
        # to a triple root are three simple roots, and Newton's method on
        # the polynomial itself closes in on each only linearly
        with mpmath.workprec(self.PREC + 64):
            tols = numeric._tolerances(self.PREC)[:2] + (
                mpmath.mpf(2) ** -1000,)
        with pytest.raises(PrecisionError, match="did not converge"):
            self._solve(1, [1, 1, 1, -2], tols)


class TestTransformCut:
    """_transform drops the terms at or past its cut and nothing else."""

    PREC = 256

    def test_cut_equals_uncut_below_the_cut(self):
        rng = random.Random(9)
        exps = [F(k, r) for r in (1, 2, 3) for k in range(0, 13)]
        with mpmath.workprec(self.PREC + 64):
            tols = numeric._tolerances(self.PREC)

            def value():
                return mpmath.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))

            dropping = 0
            for _ in range(60):
                d = rng.randint(2, 5)
                coeffs = []
                for _ in range(d + 1):
                    terms = {e: value() for e in rng.sample(exps, 3)}
                    trunc = INF if rng.random() < 0.7 else F(13)
                    coeffs.append(numeric._ns_normalize(terms, trunc, tols))
                q = F(rng.randint(1, 6), rng.randint(1, 3))
                mu = F(rng.randint(0, 12), rng.randint(1, 2))
                cut = F(rng.randint(1, 24), rng.randint(1, 3))
                u = value()
                full = numeric._transform(coeffs, q, u, mu, INF, tols)
                lazy = numeric._transform(coeffs, q, u, mu, cut, tols)
                dropping += any(e >= cut for a in full for e in a.terms)
                for a, b in zip(full, lazy):
                    assert b.terms == {e: c for e, c in a.terms.items()
                                       if e < cut}
                    assert b.trunc == a.trunc
        assert dropping > 30

    def test_cut_keeps_tables_on_deep_expansions(self):
        # shared prefixes send the expansion several levels down, where the
        # cut drops most of each transform
        for prefix, tails in (([(1, 1), (2, 2), (3, -3)], [(5, 2), (6, -1)]),
                              ([(1, 3), (2, 2)], [(6, -2), (7, 1), (9, 1)])):
            w = PSeries("t", {F(e): F(c) for e, c in prefix})
            h = UPoly.from_roots("y", [w + mono(e, c) for e, c in tails])
            table = diff_orders(h, depth=12)
            want = [[(mono(*a) - mono(*b)).order() if a != b
                     else OrderVal.infinite() for b in tails] for a in tails]
            key = lambda row: sorted(v.sort_key() for v in row)  # noqa
            assert sorted(map(key, table.entries)) == sorted(map(key, want))


class TestShortfallGuard:
    def test_shortfall_on_exact_input_is_a_consistency_error(
            self, monkeypatch):
        def short(coeffs, depth):
            raise numeric._Shortfall("a forced shortfall", F(5, 2))

        monkeypatch.setattr(numeric, "_numeric_polygon", short)
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        with pytest.raises(ConsistencyError, match="shortfall 5/2"):
            puiseux_expand(h, 3)
