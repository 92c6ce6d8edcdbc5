import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lctkit import packed, poly, rootdata
from lctkit.errors import ConsistencyError, TruncationError
from lctkit.mpoly import (
    MPoly, generic_compound_coeffs, generic_difference_coeffs, q_deriv,
    q_divmod, q_squarefree, q_squarefree_decomposition, q_strip, resultant,
    taylor_shift, value_poly,
)
from lctkit.poly import (
    UPoly, composed_difference, compound_poly, difference_orders,
    difference_poly, from_power_sums, power_sums,
)
from lctkit.series import INF, PSeries

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Symmetric reduction: the oracle for the generic coefficient polynomials,
# independent of the power-sum kernel that builds them.
# ---------------------------------------------------------------------------

def _root_vars(d):
    return tuple(f"r{i}" for i in range(1, d + 1))


@functools.lru_cache(maxsize=None)
def _elem_sym(d, i):
    """Elementary symmetric polynomial e_i in the d root variables."""
    vars = _root_vars(d)
    terms = {}
    for subset in itertools.combinations(range(d), i):
        exps = tuple(1 if j in subset else 0 for j in range(d))
        terms[exps] = Fraction(1)
    return MPoly(vars, terms)


def _eval_frac(p: MPoly, mapping) -> Fraction:
    """p at rational values of its variables."""
    total = F(0)
    for exps, c in p.terms.items():
        val = c
        for v, e in zip(p.vars, exps):
            if e:
                val *= F(mapping[v]) ** e
        total += val
    return total


def _const(p: MPoly) -> Fraction:
    """The value of a constant polynomial; refuses any other."""
    if p.vars:
        raise ValueError(f"not a constant polynomial: {p!r}")
    return p.terms.get((), F(0))


def _permuted(p: MPoly, rename) -> MPoly:
    """p with its variables renamed by a dict that permutes them."""
    new_names = [rename.get(v, v) for v in p.vars]
    assert sorted(new_names) == sorted(p.vars)
    pos = {v: i for i, v in enumerate(p.vars)}
    terms = {}
    for exps, c in p.terms.items():
        new = [0] * len(exps)
        for v, e in zip(new_names, exps):
            new[pos[v]] = e
        terms[tuple(new)] = c
    return MPoly(p.vars, terms)


def q_eval(f, x):
    """Horner evaluation of a dense rational coefficient list."""
    acc = F(0)
    for c in f:
        acc = acc * x + c
    return acc


def q_resultant(f, g):
    """Resultant of dense rational coefficient lists by the Euclidean
    algorithm over Q: the field reference for the resultant routes."""
    f, g = q_strip(f), q_strip(g)
    if not f or not g:
        return F(0)
    n, m = len(f) - 1, len(g) - 1
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    _, r = q_divmod(f, g)
    if not r:
        return F(0)
    k = len(r) - 1
    sign = F(-1) if (n % 2 and m % 2) else F(1)
    return sign * g[0] ** (n - k) * q_resultant(g, r)


def q_discriminant(f):
    """Discriminant of a dense rational polynomial of degree >= 1, from
    the field resultant with its derivative."""
    f = q_strip(f)
    n = len(f) - 1
    assert n >= 1
    res = q_resultant(f, q_deriv(f))
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return s * res / f[0]


def _terms_over(p: MPoly, vars):
    """p's terms as exponent vectors over `vars`, a superset of p.vars."""
    return {tuple(dict(zip(p.vars, exps)).get(v, 0) for v in vars): c
            for exps, c in p.terms.items()}


def _is_symmetric(p: MPoly, vars) -> bool:
    for i in range(len(vars) - 1):
        swap = {vars[i]: vars[i + 1], vars[i + 1]: vars[i]}
        if _permuted(p, swap) != p:
            return False
    return True


def symmetric_reduce(p: MPoly, evars=None) -> MPoly:
    """Rewrite a symmetric polynomial in the r_i as a polynomial in the
    elementary symmetric polynomials e_1..e_d, by lex leading-term
    subtraction.  Raises ValueError on non-symmetric input."""
    d = len(p.vars)
    vars = _root_vars(d)
    if p.vars != vars or not _is_symmetric(p, vars):
        raise ValueError("input polynomial is not symmetric")
    if evars is None:
        evars = tuple(f"e{i}" for i in range(1, d + 1))
    evars = tuple(evars)
    work = p
    out = MPoly.zero()
    while not work.is_zero():
        terms = _terms_over(work, vars)
        lead = max(terms)
        c = terms[lead]
        if any(lead[i] < lead[i + 1] for i in range(d - 1)):
            raise ConsistencyError(
                "leading exponent of a symmetric polynomial must be sorted")
        mu = [lead[i] - (lead[i + 1] if i + 1 < d else 0) for i in range(d)]
        emono = MPoly(evars, {tuple(mu): c})
        out = out + emono
        sub = MPoly.const(c)
        for i, m in enumerate(mu, start=1):
            if m:
                sub = sub * _elem_sym(d, i) ** m
        work = work - sub
    return out


def _subst_e_to_z(q: MPoly, d) -> MPoly:
    """Substitute e_i -> (-1)^i z_i (the sign convention a_i = (-1)^i s_i)."""
    mapping = {}
    for i in range(1, d + 1):
        zi = MPoly.variable(f"z{i}")
        mapping[f"e{i}"] = zi if i % 2 == 0 else -zi
    return q.substitute(mapping)


def zpoly(name):
    return MPoly.variable(name)


def mono(e, c=1, var="t"):
    return PSeries.monomial(var, F(e), F(c))


def generic(d, var="y"):
    return UPoly(var, [zpoly(f"z{i}") for i in range(1, d + 1)])


def const_upoly(var, coeffs):
    """UPoly over rational constants embedded as variable-free MPolys."""
    return UPoly(var, [MPoly.const(c) for c in coeffs])


class TestUPolyRefusals:
    """UPoly takes a nonempty list of coefficients from one domain: series
    in one variable, or polynomials, with ints and Fractions lifted."""

    @pytest.mark.parametrize("coeffs,message", [
        ([], "UPoly degree must be positive"),
        ([1, 2], "coefficients must include at least one polynomial or "
                 "series"),
        ([mono(1), MPoly.variable("w")],
         "coefficient domain must be homogeneous"),
        ([mono(1), PSeries.monomial("x", 1)],
         "series coefficients use different variables"),
    ], ids=["empty", "rationals", "series-and-mpoly", "two-variables"])
    def test_refused(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            UPoly("y", coeffs)


class TestMPoly:
    def test_arith(self):
        a, b = zpoly("a"), zpoly("b")
        p = (a + b) * (a - b)
        assert p == a * a - b * b

    def test_substitute(self):
        a, b = zpoly("a"), zpoly("b")
        p = a ** 2 + b
        q = p.substitute({"a": b, "b": MPoly.const(3)})
        assert q == b ** 2 + 3

    def test_eval_series(self):
        a, b = zpoly("a"), zpoly("b")
        p = a * b + a ** 2
        s = p.eval_series({"a": mono(1), "b": mono(2)})
        assert s == mono(3) + mono(2)

    def test_json_roundtrip(self):
        p = zpoly("z1") ** 2 - 4 * zpoly("z2")
        assert MPoly.from_json(p.to_json()) == p

    def test_json_repeated_exponents_are_refused(self):
        blob = {"vars": ["x"], "terms": [{"exps": [1], "c": "1"},
                                         {"exps": [1], "c": "2"}]}
        with pytest.raises(ValueError, match='"terms" repeats'):
            MPoly.from_json(blob)

    def test_rsub(self):
        p = zpoly("a") ** 2 - 3 * zpoly("b")
        assert 1 - p == MPoly.const(1) - p

    def test_repr(self):
        x, z = MPoly.variable("x"), MPoly.variable("z")
        p = 3 * x ** 2 * z - z ** 3 + F(1, 2) * x - 1
        assert repr(p) == "3*x^2*z + 1/2*x - z^3 - 1"
        assert repr(MPoly.zero()) == "0"

    def test_one_stored_form(self):
        # unused columns drop, the rest sort: equal polynomials have equal
        # fields, so they hash equal
        p = MPoly(("z", "y", "x"), {(2, 0, 1): 3, (0, 0, 4): F(1, 2)})
        assert p.vars == ("x", "z")
        assert p.terms == {(1, 2): 3, (4, 0): F(1, 2)}
        q = F(1, 2) * zpoly("x") ** 4 + 3 * zpoly("x") * zpoly("z") ** 2
        assert (p.vars, p.terms, hash(p)) == (q.vars, q.terms, hash(q))
        c = MPoly(("x",), {(0,): 5})
        assert c.vars == () and c == MPoly.const(5) and _const(c) == 5
        gone = zpoly("x") * zpoly("y") - zpoly("y") * zpoly("x")
        assert gone.vars == () and gone == MPoly.zero()

    def test_repeated_variable_is_refused(self):
        with pytest.raises(ValueError, match="variable 'x' repeated"):
            MPoly(("x", "y", "x"), {(1, 0, 1): 1})
        with pytest.raises(ValueError, match="variable 'x' repeated"):
            MPoly.from_json({"vars": ["x", "x"],
                             "terms": [{"exps": [1, 1], "c": "1"}]})

    @pytest.mark.parametrize("e", [F(3, 2), 1.9, True],
                             ids=["fraction", "float", "bool"])
    def test_non_int_exponent_is_refused(self, e):
        with pytest.raises(ValueError, match="not an int"):
            MPoly(("x",), {(e,): 1})
        with pytest.raises(ValueError, match="not an int"):
            MPoly(("x", "y"), {(1, e): 1})


class TestUPolyRepr:
    def test_skips_zero_coefficients(self):
        h = UPoly("y", [PSeries.zero("x"),
                        PSeries("x", {F(3, 2): -1, 2: F(1, 2)}),
                        PSeries("x", {5: 3}, 7)])
        assert repr(h) == "y^3 + (-x^3/2 + 1/2*x^2)y + (3*x^5 + O(x^7))"


class TestTaylorShift:
    def test_quadratic_symbolic(self):
        h = generic(2)
        s = taylor_shift(h, zpoly("w"))
        w, z1, z2 = zpoly("w"), zpoly("z1"), zpoly("z2")
        assert s.coeffs[0] == z1 + 2 * w
        assert s.coeffs[1] == w ** 2 + z1 * w + z2

    def test_shift_zero_identity(self):
        h = UPoly("y", [PSeries.zero("t"), -mono(3)])
        assert taylor_shift(h, PSeries.zero("t")) == h

    def test_cube(self):
        h = UPoly("y", [MPoly.zero(), MPoly.zero(), MPoly.zero()])
        s = taylor_shift(h, zpoly("w"))
        w = zpoly("w")
        assert list(s.coeffs) == [3 * w, 3 * w ** 2, w ** 3]

    def test_shift_then_unshift(self):
        rng = random.Random(3)
        for _ in range(20):
            coeffs = [PSeries("t", {F(e): F(rng.randint(-5, 5))
                                    for e in range(rng.randint(0, 3))})
                      for _ in range(3)]
            h = UPoly("y", [c + mono(1) for c in coeffs])
            w = mono(1, 2) + mono(2, -1)
            assert taylor_shift(taylor_shift(h, w), -w) == h


class TestResultant:
    """`resultant` against the tests' own Euclidean `q_resultant` over Q."""

    def test_linear_elimination(self):
        # Res_z(z^2 + a, z - y) = y^2 + a
        a, y = zpoly("a"), zpoly("y")
        f = UPoly("z", [MPoly.zero(), a])
        g = UPoly("z", [-y])
        assert resultant(f, g) == y ** 2 + a

    def test_common_root_vanishes(self):
        f = UPoly("z", [MPoly.const(-1)])
        assert resultant(f, f).is_zero()

    def test_main_variable_must_be_shared(self):
        f = UPoly("z", [MPoly.const(-1)])
        with pytest.raises(ValueError, match="shared main variable"):
            resultant(f, UPoly("y", [MPoly.const(-1)]))

    def test_series_perturbation(self):
        # Res_z(z^2 - t^3, z^2 - t^3 + t^10) = t^20
        t = zpoly("t")
        f = UPoly("z", [MPoly.zero(), -t ** 3])
        g = UPoly("z", [MPoly.zero(), -t ** 3 + t ** 10])
        assert resultant(f, g) == t ** 20

    def test_series_accepted_mixed_domains_refused(self):
        # series take the same route; only a pair over two domains is refused
        f = UPoly("z", [PSeries.zero("t"), -mono(3)])
        g = UPoly("z", [PSeries.zero("t"), -mono(3) + mono(10)])
        assert resultant(f, g) == mono(20)
        t = zpoly("t")
        h = UPoly("z", [MPoly.zero(), -t ** 3])
        with pytest.raises(ValueError, match="PSeries and MPoly"):
            resultant(f, h)
        with pytest.raises(ValueError, match="MPoly and PSeries"):
            resultant(h, f)

    def test_matches_euclidean_resultant(self):
        # general leading coefficients through
        # Res(f, g) = lc(f)^deg g lc(g)^deg f Res(f / lc f, g / lc g)
        rng = random.Random(11)
        for _ in range(60):
            df, dg = rng.randint(1, 4), rng.randint(1, 4)
            fq = [F(rng.randint(-4, 4)) for _ in range(df + 1)]
            gq = [F(rng.randint(-4, 4)) for _ in range(dg + 1)]
            if fq[0] == 0 or gq[0] == 0:
                continue
            f = const_upoly("z", [c / fq[0] for c in fq[1:]])
            g = const_upoly("z", [c / gq[0] for c in gq[1:]])
            got = fq[0] ** dg * gq[0] ** df * _const(resultant(f, g))
            assert got == q_resultant(fq, gq)

    def test_symbolic_input_matches_euclidean_resultant_at_points(self):
        # leading coefficients 1, since symbolic ones cannot be divided out
        rng = random.Random(29)
        vars = ("a", "b")

        def rand_mpoly():
            return MPoly(vars, {(rng.randint(0, 2), rng.randint(0, 2)):
                                rng.randint(-3, 3)
                                for _ in range(rng.randint(1, 3))})

        checked = 0
        for _ in range(40):
            df, dg = rng.randint(1, 3), rng.randint(1, 3)
            fs = [MPoly.const(1)] + [rand_mpoly() for _ in range(df)]
            gs = [MPoly.const(1)] + [rand_mpoly() for _ in range(dg)]
            f, g = UPoly("z", fs[1:]), UPoly("z", gs[1:])
            res = resultant(f, g)
            assert resultant(g, f) == (-res if df * dg % 2 else res)
            for _ in range(3):
                pt = {v: F(rng.randint(-4, 4), rng.randint(1, 3))
                      for v in vars}
                fq = [_eval_frac(c, pt) for c in fs]
                gq = [_eval_frac(c, pt) for c in gs]
                assert _eval_frac(res, pt) == q_resultant(fq, gq)
                checked += 1
        assert checked == 120


class TestSymmetricReduce:
    def test_power_sum(self):
        r1, r2 = zpoly("r1"), zpoly("r2")
        e1, e2 = zpoly("e1"), zpoly("e2")
        assert symmetric_reduce(r1 ** 2 + r2 ** 2) == e1 ** 2 - 2 * e2

    def test_product(self):
        r1, r2 = zpoly("r1"), zpoly("r2")
        assert symmetric_reduce(r1 * r2) == zpoly("e2")

    def test_difference_square(self):
        r1, r2 = zpoly("r1"), zpoly("r2")
        e1, e2 = zpoly("e1"), zpoly("e2")
        assert symmetric_reduce((r1 - r2) ** 2) == e1 ** 2 - 4 * e2

    def test_identity_on_elementary(self):
        for d in (2, 3, 4):
            for i in range(1, d + 1):
                out = symmetric_reduce(_elem_sym(d, i))
                assert out == zpoly(f"e{i}")

    def test_rejects_nonsymmetric(self):
        r1, r2 = zpoly("r1"), zpoly("r2")
        with pytest.raises(ValueError):
            symmetric_reduce(r1 ** 2 + r2)

    def test_commutes_with_evaluation(self):
        rng = random.Random(17)
        d = 3
        r = [zpoly(f"r{i}") for i in range(1, d + 1)]
        p = (r[0] * r[1] + r[1] * r[2] + r[0] * r[2]) ** 2 + \
            (r[0] + r[1] + r[2])
        red = symmetric_reduce(p)
        for _ in range(100):
            vals = {f"r{i}": F(rng.randint(-5, 5)) for i in range(1, d + 1)}
            evals = {}
            names = sorted(vals)
            for i in range(1, d + 1):
                acc = F(0)
                for sub in itertools.combinations(names, i):
                    prod = F(1)
                    for v in sub:
                        prod *= vals[v]
                    acc += prod
                evals[f"e{i}"] = acc
            assert _eval_frac(p, vals) == _eval_frac(red, evals)


class TestCompoundPoly:
    def test_d2_k2(self):
        g = compound_poly(generic(2), 2)
        assert g.degree == 1
        assert g.coeffs[0] == -zpoly("z2")

    def test_d2_k1_identity(self):
        h = generic(2)
        assert compound_poly(h, 1) == h

    def test_d3_k3(self):
        g = compound_poly(generic(3), 3)
        assert g.degree == 1
        assert g.coeffs[0] == zpoly("z3")

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                     (4, 2), (4, 3), (4, 4)] +
                             [(d, k) for d in (5, 6)
                              for k in range(1, d + 1)])
    def test_numeric_brute_force(self, d, k):
        rng = random.Random(100 * d + k)
        for _ in range(8):
            roots = [F(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(d)]
            h = UPoly.from_roots("y", [MPoly.const(r) for r in roots])
            got = compound_poly(h, k)
            prods = [MPoly.const(math.prod(sub, start=F(1)))
                     for sub in itertools.combinations(roots, k)]
            want = UPoly.from_roots("y", prods)
            assert got == want


class TestDifferencePoly:
    def test_symbolic_quadratic(self):
        h = generic(2)
        H = difference_poly(h)
        z1, z2 = zpoly("z1"), zpoly("z2")
        assert H.degree == 2
        assert H.coeffs[0].is_zero()
        assert H.coeffs[1] == -(z1 ** 2 - 4 * z2)

    def test_series_cusp(self):
        h = UPoly("y", [PSeries.zero("t"), -mono(3)])
        H = difference_poly(h)
        assert H.degree == 2
        assert H.coeffs[0].is_zero()
        assert H.coeffs[1] == mono(3, -4)

    def test_two_branches(self):
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        H = difference_poly(h)
        diff = mono(1) - mono(2)
        assert H.coeffs[1] == -(diff * diff)

    def test_series_matches_generic_route(self):
        rng = random.Random(31)
        for _ in range(20):
            d = rng.randint(2, 4)
            coeffs = [PSeries("t", {F(rng.randint(0, 4)): F(rng.randint(-3, 3))
                                    for _ in range(rng.randint(0, 2))})
                      for _ in range(d)]
            h = UPoly("y", [c if not c.is_zero() else PSeries.zero("t")
                            for c in coeffs])
            H1 = difference_poly(h)
            gen = generic_difference_coeffs(d)
            mapping = {f"z{i}": h.coeff(i) for i in range(1, d + 1)}
            H2 = [c.eval_series(mapping) for c in gen]
            assert list(H1.coeffs) == H2

    def test_constant_term_is_discriminant(self):
        # H(0) = prod over ordered pairs of (alpha_j - alpha_i)
        #      = (-1)^C(d,2) * disc(h) for monic h
        rng = random.Random(41)
        for d in (2, 3, 4):
            sign = -1 if (d * (d - 1) // 2) % 2 else 1
            for _ in range(10):
                coeffs = [F(rng.randint(-4, 4)) for _ in range(d)]
                h = const_upoly("y", coeffs)
                H = difference_poly(h)
                const = _const(H.coeffs[-1])
                disc = q_discriminant([F(1)] + coeffs)
                assert const == sign * disc


def rand_exact_series(rng, var="t"):
    """One or two terms of positive order with nonzero coefficients."""
    return PSeries(var, {F(rng.randint(1, 6), rng.choice([1, 1, 2])):
                         F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 4]))
                         for _ in range(rng.randint(1, 2))})


BIG = 2 ** 70 + 12345


def stress_roots():
    """Root lists that stress the packed kernel: coefficients beyond 2^64
    of both signs, rational coefficients, ramified exponents, a root 0
    (an exactly zero a_d), and a repeated root (disc(h) = 0); and one with
    high, ramified exponents that is too sparse to pack (its truncations
    are packed)."""
    return [
        [PSeries("t", {1: BIG, F(5, 2): F(-1, 3)}),
         PSeries("t", {F(1, 2): -BIG, 2: F(2, 7)})],
        [PSeries("t", {F(1, 3): F(3, 5)}), PSeries("t", {1: -BIG}),
         PSeries.zero("t")],
        [mono(1, F(1, 2)), mono(1, F(1, 2)), mono(F(3, 2), -BIG)],
        [mono(F(2, 3), 7), mono(2, -3) + mono(3, 5), mono(F(1, 2), 2),
         PSeries("t", {F(2, 3): 7, 4: F(-9, 11)})],
        [mono(F(1, 3)), mono(500, 2), mono(F(1001, 2), -BIG)],
    ]


def stress_upolys():
    """The stress roots' polynomials, and three with an exactly zero
    coefficient whose roots are not series: a_1 = 0 with a ramified,
    rational a_2, a_2 = 0 with a_3 beyond -2^64, and the sparse
    y^4 + t y + t^1000."""
    return [UPoly.from_roots("y", roots) for roots in stress_roots()] + [
        UPoly("y", [PSeries.zero("t"),
                    PSeries("t", {F(1, 3): F(-4, 9), 5: BIG})]),
        UPoly("y", [mono(1, 3), PSeries.zero("t"), mono(1, -BIG)]),
        UPoly("y", [PSeries.zero("t")] * 2 + [mono(1), mono(1000)]),
    ]


def _seven_sums(dom, a):
    """Root power sums s_0..s_7 of the monic polynomial with coefficients
    a."""
    return power_sums(dom, a, 7)


def _coeffs_of_sums(dom, p):
    """Coefficients of the monic polynomial with root power sums p."""
    return from_power_sums(dom, [None] + p, len(p))


def _product_and_half(dom, a):
    """a_1 a_2, and a_1 halved."""
    product = dom.mac([(1, a[0], a[1])])
    return [product, dom.div(a[0], 2)]


INEXACT_DIVISION = """
from lctkit import packed
from lctkit.errors import ConsistencyError
from lctkit.poly import from_power_sums


def coeffs_of_sums(dom, p):
    return from_power_sums(dom, [None] + p, len(p))


try:
    packed._replay_ints(packed._program(coeffs_of_sums, 2), [1, 0])
except ConsistencyError:
    print("ConsistencyError")
"""


def integer_nodes(count):
    """Nonzero integer nodes 1, -1, 2, -2, ..."""
    return [F((k // 2 + 1) * (-1) ** k) for k in range(count)]


# Points s where the resultant identities are checked over Q, at t = s^R.
S_POINTS = (F(2), F(-3), F(5))


def ram_lcm(*hs):
    """R: the lcm of the ramification indices of the coefficients."""
    return math.lcm(*(a.ram for h in hs for a in h.coeffs))


def q_at(a, s, R):
    """The exact series a at t = s^R; R is a multiple of a's ramification."""
    assert a.trunc == INF and R % a.ram == 0
    return sum((c * s ** int(e * R) for e, c in a.terms.items()), F(0))


def q_shift(f, r):
    """f(z + r) for a dense descending rational list f, by Horner."""
    out = []
    for c in f:
        new = out + [F(c)]
        for i, x in enumerate(out):
            new[i + 1] += r * x
        out = new
    return out


class TestPowerSumKernel:
    """The kernel against oracles that do not share its code: the
    Euclidean resultant over Q, explicit roots, and symmetric reduction."""

    def test_power_sums_of_explicit_roots(self):
        rng = random.Random(3)
        for d in (1, 2, 3, 4):
            roots = [F(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(d)]
            h = UPoly.from_roots("y", [MPoly.const(r) for r in roots])
            dom = poly._Exact(MPoly.zero())
            s = power_sums(dom, h.coeffs, 7)
            assert [_const(x) for x in s] == \
                [sum(r ** k for r in roots) for k in range(8)]
            assert from_power_sums(dom, s, d) == list(h.coeffs)
            # the identities recorded and replayed on the roots scaled to
            # integers
            L = math.lcm(*(r.denominator for r in roots))
            ints = [int(_const(a) * L ** i)
                    for i, a in enumerate(h.coeffs, 1)]
            s = packed._replay_ints(packed._program(_seven_sums, d), ints)
            assert s == [sum((r * L) ** k for r in roots) for k in range(8)]
            assert packed._replay_ints(packed._program(_coeffs_of_sums, d),
                                       s[1:d + 1]) == ints

    @pytest.mark.parametrize("d,count", [(2, 6), (3, 4), (4, 2), (5, 1)])
    def test_difference_poly_matches_shifted_resultant(self, d, count):
        # Res_z(h(z), h(z + r)) = r^d D(r) at d(d-1)+1 integer nodes, each
        # at the points t = s^R
        rng = random.Random(50 + d)
        hs = [UPoly("y", [rand_exact_series(rng) for _ in range(d)])
              for _ in range(count)]
        for h in hs + [h for h in stress_upolys() if h.degree == d]:
            D = difference_poly(h)
            assert D.degree == d * (d - 1)
            R = ram_lcm(h)
            for r in integer_nodes(d * (d - 1) + 1):
                got = D.evaluate(r).scale(r ** d)
                for s in S_POINTS:
                    hq = [q_at(a, s, R) for a in h.dense()]
                    want = q_resultant(hq, q_shift(hq, r))
                    assert q_at(got, s, R) == want

    def test_composed_difference_matches_shifted_resultant(self):
        # Res_z(f(z), g(z + r)) = C(r), C with roots beta - alpha
        rng = random.Random(61)
        pairs = [tuple(UPoly("y", [rand_exact_series(rng)
                                   for _ in range(rng.randint(1, 3))])
                       for _ in range(2)) for _ in range(12)]
        stress = [h for h in stress_upolys() if h.degree <= 3]
        for f, g in pairs + list(zip(stress, stress[1:] + stress[:1])):
            C = composed_difference(f, g)
            assert C.degree == f.degree * g.degree
            R = ram_lcm(f, g)
            for r in integer_nodes(C.degree + 1):
                got = C.evaluate(r)
                for s in S_POINTS:
                    fq = [q_at(a, s, R) for a in f.dense()]
                    gq = [q_at(a, s, R) for a in g.dense()]
                    want = q_resultant(fq, q_shift(gq, r))
                    assert q_at(got, s, R) == want

    def test_cross_difference_orders_of_explicit_roots(self):
        from lctkit.reports import cross_difference_orders
        rng = random.Random(67)
        for _ in range(12):
            alphas = [rand_exact_series(rng) for _ in range(rng.randint(1, 3))]
            betas = [rand_exact_series(rng) for _ in range(rng.randint(1, 3))]
            f = UPoly.from_roots("y", alphas)
            g = UPoly.from_roots("y", betas)
            want = sorted(((b - a).order() for a in alphas for b in betas),
                          key=lambda v: v.sort_key())
            assert cross_difference_orders(f, g) == want

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generic_matches_symmetric_reduction(self, d):
        def reduced(root_exprs):
            return [_subst_e_to_z(symmetric_reduce(c), d)
                    for c in UPoly.from_roots("y", root_exprs).coeffs]

        rs = [MPoly.variable(f"r{i}") for i in range(1, d + 1)]
        diffs = [rs[i] - rs[j] for i in range(d) for j in range(d) if i != j]
        got = generic_difference_coeffs(d)
        assert list(got) == reduced(diffs)
        for k in range(1, d + 1):
            prods = [math.prod(sub, start=MPoly.const(1))
                     for sub in itertools.combinations(rs, k)]
            got = generic_compound_coeffs(d, k)
            assert list(got) == reduced(prods)

    def test_generic_degree_five_has_no_cap(self):
        coeffs = generic_difference_coeffs(5)
        assert len(coeffs) == 20
        assert all(c.is_zero() for c in coeffs[0::2])

    def test_truncated_input_stays_sound(self):
        # every known term of D from truncated data matches the exact D
        rng = random.Random(71)
        pairs = []
        for _ in range(20):
            d = rng.randint(2, 4)
            h = UPoly("y", [rand_exact_series(rng) for _ in range(d)])
            pairs.append((h, [a.truncated(F(rng.randint(2, 6)))
                              for a in h.coeffs]))
        # the stress inputs keep some coefficients exact and cut others,
        # some below their first term
        pairs += [(h, [a if rng.random() < 0.2 else
                       a.truncated(F(rng.randint(1, 12), rng.choice([2, 3])))
                       for a in h.coeffs]) for h in stress_upolys()]
        for h, cut in pairs:
            exact = difference_poly(h).coeffs
            for a, b in zip(exact, difference_poly(UPoly("y", cut)).coeffs):
                assert a.truncated(b.trunc) == b

    def test_inexact_packed_division_raises(self):
        # the reverse identities divide by k; a remainder is an
        # inconsistency, raised by the replay, also under python -O.  The
        # power sums 1, 0 give a_1 = -1 and 2 a_2 = 1; the power sums 1, 1
        # give a_2 = 0.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", INEXACT_DIVISION], env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ConsistencyError"]
        program = packed._program(_coeffs_of_sums, 2)
        assert packed._replay_ints(program, [1, 1]) == [-1, 0]
        with pytest.raises(ConsistencyError, match="divisible by 2"):
            packed._replay_ints(program, [1, 0])

    def test_division_of_an_older_value_is_its_own_op(self):
        # only a division of the sum just formed folds into its op
        program = packed._program(_product_and_half, 2)
        assert [op[3] for op in program[0]] == [1, 2] and program[2] == 1
        assert packed._replay_ints(program, [4, -6]) == [-24, 2]
        with pytest.raises(ConsistencyError, match="divisible by 2"):
            packed._replay_ints(program, [5, 6])

    def test_sparse_input_is_not_packed(self, monkeypatch):
        # y^4 + t^(10^6) would pack into ints of 3e6 digits; the series
        # route keeps one term per value.  Its roots are zeta t^250000, so
        # D is the difference polynomial of y^4 + 1 with c_j scaled by
        # t^(250000 j), and the certificate reads D's orders.
        routes = []
        real = packed.orders

        def spy(*args):
            routes.append(real(*args))
            return routes[-1]

        monkeypatch.setattr(packed, "orders", spy)
        packed._program.cache_clear()
        top = 10 ** 6
        zeros = [PSeries.zero("t")] * 3
        h = UPoly("y", zeros + [mono(top)])
        start = time.perf_counter()
        got = difference_orders(h)
        D = difference_poly(h)
        elapsed = time.perf_counter() - start
        # the sparse certificate records no program
        assert packed._program.cache_info().currsize == 0
        one = difference_poly(UPoly("y", zeros + [PSeries.one("t")]))
        assert list(D.coeffs) == [c * mono(F(top, 4) * j)
                                  for j, c in enumerate(one.coeffs, 1)]
        assert got == poly.polygon_points(
            [c.order_units() for c in D.coeffs])
        assert routes == [None]
        assert elapsed < 5
        # the sparsest packing any benchmark workload asks for stays
        # packed: y^5 + t^10 reaches 40 digits with one term
        difference_orders(UPoly("y", zeros + [PSeries.zero("t"), mono(10)]))
        assert routes[1] is not None

    @pytest.mark.parametrize("roots", stress_roots())
    def test_stress_roots_match_explicit_polynomials(self, roots):
        # D, the composed difference with the reversed roots and every
        # compound polynomial, against the polynomials built from the
        # explicit differences and products; then each from truncated
        # input against the exact one
        rng = random.Random(len(roots))
        h = UPoly.from_roots("y", roots)
        g = UPoly.from_roots("y", roots[::-1][:2])
        builds = [
            (difference_poly, (h,),
             [b - a for a, b in itertools.permutations(roots, 2)]),
            (composed_difference, (h, g),
             [b - a for a in roots for b in roots[::-1][:2]])]
        builds += [(compound_poly, (h, k),
                    [math.prod(sub, start=PSeries.one("t"))
                     for sub in itertools.combinations(roots, k)])
                   for k in range(1, len(roots) + 1)]
        for build, args, want in builds:
            exact = build(*args)
            assert exact == UPoly.from_roots("y", want)
            cut = build(*[UPoly("y", [a.truncated(F(rng.randint(1, 9), 2))
                                      for a in u.coeffs])
                          if isinstance(u, UPoly) else u for u in args])
            for a, b in zip(exact.coeffs, cut.coeffs):
                assert a.truncated(b.trunc) == b


def fold_products(var, triples):
    """Reference for the fused kernel on {Fraction: Fraction} maps: each
    term known below T_a (scaled) or min(T_a + ord(b), T_b + ord(a))
    (product), the sum below the least of these."""
    def lower(s):
        return min(s.terms, default=s.trunc)

    terms, trunc = {}, INF
    for k, a, b in triples:
        if b is None:
            trunc = min(trunc, a.trunc)
            part = a.terms.items()
        else:
            trunc = min(trunc, a.trunc + lower(b), b.trunc + lower(a))
            part = [(e1 + e2, c1 * c2) for e1, c1 in a.terms.items()
                    for e2, c2 in b.terms.items()]
        for e, c in part:
            terms[e] = terms.get(e, 0) + k * c
    return PSeries(var, terms, trunc)


def rand_cut_upoly(rng, d):
    """Coefficients of mixed ramification, each exactly zero, exact, or
    truncated (possibly below its first term)."""
    coeffs = []
    for _ in range(d):
        a = PSeries.zero("t") if rng.random() < 0.1 else \
            rand_exact_series(rng) + rng.choice([0, 0, F(1, 3)])
        if rng.random() < 0.7:
            a = a.truncated(F(rng.randint(1, 12), rng.choice([1, 2, 3])))
        coeffs.append(a)
    return UPoly("y", coeffs)


W2 = MPoly.variable("w") ** 2 + MPoly.variable("z1") * MPoly.variable("w")
W3 = MPoly.variable("w") ** 3 - MPoly.variable("z2")


def _builds(rng):
    """(name, thunk) for every kernel user, on truncated inputs."""
    out = []
    for _ in range(8):
        h = rand_cut_upoly(rng, rng.randint(2, 3))
        g = rand_cut_upoly(rng, rng.randint(1, 3))
        out += [("difference", lambda h=h: difference_poly(h)),
                ("composed", lambda h=h, g=g: composed_difference(h, g)),
                ("value", lambda h=h: value_poly(h, W2)),
                ("value", lambda h=h: value_poly(h, W3)),
                ("compound", lambda h=h: compound_poly(h, 2))]
    return out


class TestTruncatedKernel:
    """On truncated input every polynomial built from roots has the fields
    it gets from the same identities over PSeries with a reference sum of
    products, and each known term agrees with the result from exact
    input."""

    def test_matches_reference_sums(self, monkeypatch):
        def fields(thunk):
            return [(c._t, c._ram, c._den, c._tr) for c in thunk().coeffs]

        builds = _builds(random.Random(79))
        fused = [fields(thunk) for _, thunk in builds]
        monkeypatch.setattr(poly, "sum_of_products", fold_products)
        folded = [fields(thunk) for _, thunk in builds]
        for (name, _), a, b in zip(builds, fused, folded):
            assert a == b, name
        assert any(c[3] is not None for f in fused for c in f)

    def test_composed_difference_and_value_stay_sound(self):
        rng = random.Random(83)
        for _ in range(12):
            f = UPoly("y", [rand_exact_series(rng)
                            for _ in range(rng.randint(1, 3))])
            g = UPoly("y", [rand_exact_series(rng)
                            for _ in range(rng.randint(2, 3))])

            def cut(u):
                return UPoly("y", [a.truncated(F(rng.randint(2, 8)))
                                   for a in u.coeffs])

            pairs = [(composed_difference(f, g),
                      composed_difference(cut(f), cut(g))),
                     (value_poly(g, W2), value_poly(cut(g), W2)),
                     (value_poly(g, W3), value_poly(cut(g), W3))]
            for exact, got in pairs:
                for a, b in zip(exact.coeffs, got.coeffs):
                    assert a.truncated(b.trunc) == b


def _certificate(read, h):
    """read(h)'s root levels with each order a reduced Fraction, and the
    count of infinite orders; or the TruncationError's text and hint."""
    try:
        levels, infinite = read(h)
    except TruncationError as exc:
        return "raised", str(exc), exc.required
    return [(F(num, den), mult) for num, den, mult in levels], infinite


def _built_certificate(h):
    """The certificate read off D built in full, coefficient by
    coefficient."""
    return rootdata._root_levels(rootdata._coeff_orders(difference_poly(h)))


class TestDifferenceOrders:
    """The certificate read off D's coefficient orders without building D
    (rootdata._difference_levels) against D built on the series route and
    read: the same levels, and on truncated input the same TruncationError
    text and `required` hint."""

    def test_matches_built_difference_poly(self, monkeypatch):
        rng = random.Random(89)
        exact = [UPoly("y", [rand_exact_series(rng) for _ in range(d)])
                 for d in range(2, 7) for _ in range(4)]
        # roots with ramified exponents: repeated levels in the tree
        exact += [UPoly.from_roots("y", [rand_exact_series(rng)
                                         for _ in range(d)])
                  for d in range(2, 6) for _ in range(4)]
        exact += stress_upolys()
        cut = [UPoly("y", [a.truncated(F(rng.randint(1, 12),
                                         rng.choice([1, 2, 3])))
                           if rng.random() < 0.7 else a for a in h.coeffs])
               for h in exact for _ in range(3)]
        replays = []
        real = packed._replay_ints

        def spy(*args):
            replays.append(args)
            return real(*args)

        # the certificate replays the packed program at most once per exact
        # input and never on truncated input, and D is built without it:
        # on packed input the two share only Newton's identities
        monkeypatch.setattr(packed, "_replay_ints", spy)
        packs, seen = [], set()
        for h in exact + cut:
            got = _certificate(rootdata._difference_levels, h)
            if any(a.trunc != INF for a in h.coeffs):
                assert replays == [], h.coeffs
            else:
                assert len(replays) <= 1, h.coeffs
                packs.append(len(replays))
            replays.clear()
            assert got == _certificate(_built_certificate, h), h.coeffs
            assert replays == [], h.coeffs
            seen.add("raised" if got[0] == "raised" else
                     "infinite" if got[1] else "finite")
        assert seen == {"raised", "infinite", "finite"}
        # y^4 + t y + t^1000 takes the series route
        assert packs.count(0) >= 1 and packs.count(1) >= len(exact) - 1


class _PlainInts:
    """Bare ints, written apart from lctkit.packed: the reference the
    exact replay is checked against."""

    @staticmethod
    def const(c):
        return c

    @staticmethod
    def mac(terms):
        return sum(k * a if b is None else k * a * b for k, a, b in terms)

    @staticmethod
    def div(x, k):
        q, r = divmod(x, k)
        assert r == 0, (x, k)
        return q


# The unit-norm bound of the difference sums at d = 2..10, as the norms
# carried by a separate pass over the identities gave it before they were
# recorded, and the digit width each one sets.
UNIT_BOUNDS = {
    2: 7,
    3: 3048,
    4: 21769686,
    5: 2390675931640,
    6: 4076822144502811560,
    7: 106859696620898903934317184,
    8: 43260502212829420904304024057184932,
    9: 271832750305552901569246700698705572573088176,
    10: 26677024566297122178028951398863532515929747448236685265,
}
WIDTHS = {2: 4, 3: 13, 4: 26, 5: 43, 6: 63, 7: 88, 8: 117, 9: 149, 10: 186}


class TestRecordedIdentities:
    """Newton's identities recorded once per degree (packed._program) and
    replayed on bare ints."""

    def test_unit_bounds_and_widths(self):
        for d, bound in UNIT_BOUNDS.items():
            _, out, top = packed._program(poly._difference_sums, d)
            assert (top, len(out)) == (bound, d * (d - 1) // 2)
            assert packed._width(top) == WIDTHS[d]

    @pytest.mark.parametrize("d", range(2, 9))
    def test_exact_replay_matches_plain_ints(self, d):
        rng = random.Random(100 + d)
        program = packed._program(poly._difference_sums, d)
        for bits in (8, 80, 300):
            xs = [rng.randrange(-2 ** bits, 2 ** bits) for _ in range(d)]
            assert packed._replay_ints(program, xs) == \
                poly._difference_sums(_PlainInts, xs)


class TestValuePoly:
    def test_identity(self):
        h = generic(3)
        G = MPoly.variable("w")
        assert value_poly(h, G) == h

    def test_square_map(self):
        # roots of y^2 - a2 square to a2 twice
        h = UPoly("y", [MPoly.zero(), -zpoly("z2")])
        G = MPoly.variable("w") ** 2
        got = value_poly(h, G)
        z2 = zpoly("z2")
        assert got.coeffs[0] == -2 * z2
        assert got.coeffs[1] == z2 ** 2

    def test_cubic_resolvent(self):
        # G = z2 + 3w^2 on y^3 + a y + b gives y^3 + 3a y^2 - (4a^3 + 27b^2)
        a, b = zpoly("a"), zpoly("b")
        h = UPoly("y", [MPoly.zero(), a, b])
        G = MPoly.variable("z2") + 3 * MPoly.variable("w") ** 2
        got = value_poly(h, G)
        assert got.coeffs[0] == 3 * a
        assert got.coeffs[1].is_zero()
        assert got.coeffs[2] == -(4 * a ** 3 + 27 * b ** 2)

    def test_series_domain(self):
        h = UPoly.from_roots("y", [mono(1), mono(2)])
        G = MPoly.variable("w") ** 2
        got = value_poly(h, G)
        want = UPoly.from_roots("y", [mono(2), mono(4)])
        assert got == want

    def test_explicit_roots(self):
        # G(a, alpha) = alpha^3 + a_1 alpha over rational roots
        rng = random.Random(13)
        G = MPoly.variable("w") ** 3 + MPoly.variable("z1") * \
            MPoly.variable("w")
        for d in (1, 2, 3, 4):
            roots = [F(rng.randint(-4, 4), rng.randint(1, 2))
                     for _ in range(d)]
            h = UPoly.from_roots("y", [MPoly.const(r) for r in roots])
            a1 = _const(h.coeff(1))
            want = UPoly.from_roots(
                "y", [MPoly.const(r ** 3 + a1 * r) for r in roots])
            assert value_poly(h, G) == want


class TestQHelpers:
    def test_squarefree(self):
        assert q_squarefree([F(1), F(0), F(1)])
        assert not q_squarefree([F(1), F(2), F(1)])

    def test_squarefree_decomposition(self):
        # (x-1)^2 (x+2)
        f = [F(1), F(0), F(-3), F(2)]
        dec = q_squarefree_decomposition(f)
        assert ([F(1), F(2)], 1) in dec
        assert ([F(1), F(-1)], 2) in dec

    def test_discriminant_quadratic(self):
        assert q_discriminant([F(1), F(3), F(1)]) == 5

    def test_discriminant_cubic(self):
        # y^3 + ay + b -> -4a^3 - 27b^2
        rng = random.Random(2)
        for _ in range(20):
            a, b = F(rng.randint(-5, 5)), F(rng.randint(-5, 5))
            assert q_discriminant([F(1), F(0), a, b]) == -4 * a ** 3 - 27 * b ** 2

    def test_eval(self):
        assert q_eval([F(2), F(0), F(-1)], F(3)) == 17
