import json
import random
from fractions import Fraction

import pytest

from lctkit.mpoly import MPoly
from lctkit.qideal import (
    NO, QIdeal, QIdealFrac, UNKNOWN, YES, lc_dim1, ord_diff_le_one, qi_ord,
    qi_power, qi_product, qi_sum,
)
from lctkit.series import OrderVal, PSeries

F = Fraction


def x_to(e):
    """The polynomial x^e, read along an arc x -> t-series."""
    return MPoly(("x",), {(e,): F(1)})


def arc_t(e=1):
    """Arc x -> t^e."""
    return {"x": PSeries.monomial("t", F(e))}


def zvar(i):
    return MPoly.variable(f"z{i}")


def rand_ideal(rng, nvars=2):
    gens = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            terms[exps] = F(rng.randint(-4, 4))
        p = MPoly(tuple(f"z{i}" for i in range(1, nvars + 1)), terms)
        if not p.is_zero():
            gens.append(p)
    if not gens:
        gens = [zvar(1)]
    exp = F(rng.randint(1, 2), rng.randint(1, 3))
    return QIdeal(gens, exp)


def rand_arc(rng, nvars=2):
    arc = {}
    for i in range(1, nvars + 1):
        terms = {F(rng.randint(1, 4)): F(rng.randint(1, 5))}
        arc[f"z{i}"] = PSeries("t", terms)
    return arc


class TestProductSumPower:
    def test_product_exponents_add(self):
        a = QIdeal([x_to(1)], F(1, 2))
        b = QIdeal([x_to(1)], F(1, 3))
        p = qi_product([a, b])
        assert qi_ord(p, arc_t()) == OrderVal.exact(F(5, 6))

    def test_product_unit_identity(self):
        rng = random.Random(1)
        a = rand_ideal(rng)
        unit = qi_power(QIdeal.unit(), F(3, 7))
        p = qi_product([a, unit])
        for seed in range(10):
            arc = rand_arc(random.Random(seed))
            assert qi_ord(p, arc) == qi_ord(a, arc)

    def test_product_ord_additive(self):
        a = QIdeal([x_to(2), x_to(3)], F(1))
        b = QIdeal([x_to(1)], F(1))
        p = qi_product([a, b])
        assert qi_ord(p, {"x": PSeries.monomial("t", 1)}) == OrderVal.exact(3)

    def test_sum_is_min(self):
        a = QIdeal([x_to(3)], F(1))
        b = QIdeal([x_to(5)], F(1))
        assert qi_ord(qi_sum([a, b]), arc_t()) == OrderVal.exact(3)

    def test_sum_of_root_powers_d3(self):
        b = qi_sum([qi_power(QIdeal([zvar(i)], 1), F(1, i))
                    for i in range(1, 4)])
        assert not b.is_zero
        arc = {"z1": PSeries.zero("t"), "z2": PSeries.zero("t"),
               "z3": PSeries.monomial("t", 3, -1)}
        assert qi_ord(b, arc) == OrderVal.exact(1)

    def test_sum_idempotent_on_orders(self):
        rng = random.Random(5)
        a = rand_ideal(rng)
        s = qi_sum([a, a])
        for seed in range(10):
            arc = rand_arc(random.Random(seed))
            assert qi_ord(s, arc) == qi_ord(a, arc)

    def test_power(self):
        a = QIdeal([x_to(1)], F(1, 2))
        assert qi_power(a, 2).exp == 1
        assert qi_power(a, 1).exp == F(1, 2)
        b = QIdeal([MPoly.variable("z1") ** 3, MPoly.variable("z2") ** 2],
                   F(1, 6))
        assert qi_power(b, 3).exp == F(1, 2)
        with pytest.raises(ValueError):
            qi_power(a, -1)


class TestOrd:
    def test_principal_along_power_arc(self):
        a = QIdeal([MPoly.variable("x")], F(5, 6))
        got = qi_ord(a, {"x": PSeries.monomial("t", 2)})
        assert got == OrderVal.exact(F(5, 3))

    def test_two_generator_min(self):
        for k in (1, 2, 5):
            a = QIdeal([zvar(1) ** 3, zvar(2) ** 2], F(1, 6))
            arc = {"z1": PSeries.zero("t"),
                   "z2": PSeries.monomial("t", k)}
            assert qi_ord(a, arc) == OrderVal.exact(F(k, 3))

    def test_zero_ideal_infinite(self):
        assert qi_ord(QIdeal.zero(), arc_t()).is_infinite

    def test_arc_positivity_enforced(self):
        a = QIdeal([MPoly.variable("x")], F(1))
        with pytest.raises(ValueError):
            qi_ord(a, {"x": PSeries.one("t")})

    def test_arc_must_cover_every_variable(self):
        a = QIdeal([zvar(1) * zvar(2)], F(1))
        with pytest.raises(ValueError,
                           match="arc does not cover variable 'z2'"):
            qi_ord(a, {"z1": PSeries.monomial("t", 1)})

    def test_morphism_properties_random(self):
        rng = random.Random(99)
        for _ in range(100):
            a, b = rand_ideal(rng), rand_ideal(rng)
            arc = rand_arc(rng)
            oa, ob = qi_ord(a, arc), qi_ord(b, arc)
            assert qi_ord(qi_product([a, b]), arc) == oa + ob
            assert qi_ord(qi_sum([a, b]), arc) == OrderVal.min_of([oa, ob])
            c = F(rng.randint(1, 7), rng.randint(1, 4))
            assert qi_ord(qi_power(a, c), arc) == oa.scale(c)

    def test_common_denominator_invariance(self):
        # scaling exponents to a non-minimal common denominator must not
        # change any order
        rng = random.Random(7)
        for _ in range(100):
            a, b = rand_ideal(rng), rand_ideal(rng)
            arc = rand_arc(rng)
            p1 = qi_product([a, b])
            s1 = qi_sum([a, b])
            # same ideals with doubled exponent denominators
            a2 = QIdeal([g * g for g in a.gens], a.exp / 2)
            b2 = QIdeal([g * g for g in b.gens], b.exp / 2)
            assert qi_ord(qi_product([a2, b2]), arc) == qi_ord(p1, arc)
            assert qi_ord(qi_sum([a2, b2]), arc) == qi_ord(s1, arc)


class TestLcDim1:
    def test_boundary_difference_one(self):
        num = QIdeal([x_to(2)], F(1))
        den = QIdeal([x_to(1)], F(1))
        assert lc_dim1(QIdealFrac([(num, 1)], [(den, 1)]), arc_t()) == YES

    def test_difference_two(self):
        num = QIdeal([x_to(3)], F(1))
        den = QIdeal([x_to(1)], F(1))
        assert lc_dim1(QIdealFrac([(num, 1)], [(den, 1)]), arc_t()) == NO

    def test_effective_half(self):
        num = QIdeal([x_to(1)], F(1, 2))
        den = QIdeal([MPoly.const(1)], F(1))
        assert lc_dim1(QIdealFrac([(num, 1)], [(den, 1)]), arc_t()) == YES

    def test_zero_part_is_error(self):
        num = QIdeal.zero()
        den = QIdeal([x_to(1)], F(1))
        with pytest.raises(ValueError):
            lc_dim1(QIdealFrac([(num, 1)], [(den, 1)]), arc_t())

    def test_truncation_unknown(self):
        # w along O(t^8): ord >= 8 > 2
        num = QIdeal([MPoly.variable("w")], F(1))
        den = QIdeal([x_to(1)], F(1))
        arc = {**arc_t(), "w": PSeries.zero("t", 8)}
        assert lc_dim1(QIdealFrac([(num, 1)], [(den, 1)]), arc) == NO
        den_big = QIdeal([x_to(7)], F(1))
        assert lc_dim1(QIdealFrac([(num, 1)], [(den_big, 1)]), arc) \
            == UNKNOWN

    @pytest.mark.parametrize("on,od,verdict", [
        (OrderVal.exact(3), OrderVal.infinite(), YES),
        (OrderVal.exact(3), OrderVal.at_least(2), YES),
        (OrderVal.exact(3), OrderVal.at_least(1), UNKNOWN),
        (OrderVal.at_least(3), OrderVal.at_least(1), UNKNOWN),
    ], ids=["exact-inf", "exact-atleast-yes", "exact-atleast-unknown",
            "atleast-atleast"])
    def test_inexact_denominator(self, on, od, verdict):
        # an infinite denominator leaves a finite numerator's difference at
        # -inf; a denominator of at least k bounds the difference by
        # ord(numer) - k from above only
        assert ord_diff_le_one(on, od) == verdict

    def test_fraction_equivalence(self):
        # multiplying both parts by a common ideal preserves the verdict
        rng = random.Random(3)
        for _ in range(50):
            n = QIdeal([x_to(rng.randint(1, 5))], F(rng.randint(1, 3)))
            d = QIdeal([x_to(rng.randint(1, 5))], F(rng.randint(1, 3), 2))
            m = QIdeal([x_to(rng.randint(1, 4))], F(rng.randint(1, 3), 3))
            base = lc_dim1(QIdealFrac([(n, 1)], [(d, 1)]), arc_t())
            scaled = lc_dim1(QIdealFrac([(qi_product([n, m]), 1)],
                                        [(qi_product([d, m]), 1)]), arc_t())
            assert base == scaled


class TestJson:
    def test_roundtrip_poly_gens(self):
        a = QIdeal([zvar(1) ** 3 - zvar(2)], F(2, 3))
        b = QIdeal.from_json(json.loads(json.dumps(a.to_json())))
        assert b.exp == a.exp and b.gens == a.gens

    def test_roundtrip_frac(self):
        fr = QIdealFrac([(QIdeal([x_to(2)], 1), 1)],
                        [(QIdeal([x_to(1)], F(1, 2)), 1)])
        back = QIdealFrac.from_json(json.loads(json.dumps(fr.to_json())))
        assert back.numer.gens == fr.numer.gens
        assert back.denom.exp == fr.denom.exp

    def test_zero_roundtrip(self):
        z = QIdeal.zero()
        assert QIdeal.from_json(z.to_json()).is_zero


class TestRepr:
    def test_generators_and_exponent(self):
        a = QIdeal([zvar(1) ** 3, zvar(2) ** 2 - zvar(2)], F(1, 6))
        assert repr(a) == "(z1^3, z2^2 - z2)^1/6"
        assert repr(QIdeal.zero()) == "(0)"
