from fractions import Fraction

import pytest

from lctkit.errors import DegenerateError
from lctkit.oracle import (
    lct_binomial_curve, lct_monomial_ideal, lct_plane_nondegenerate,
)
from lctkit.mpoly import MPoly

F = Fraction


def plane(terms):
    return MPoly(("x", "y"), {k: F(v) for k, v in terms.items()})


class TestMonomialIdeal:
    def test_cusp_ideal(self):
        assert lct_monomial_ideal([(2, 0), (0, 3)]) == F(5, 6)

    def test_maximal_ideal(self):
        assert lct_monomial_ideal([(1, 0), (0, 1)]) == 2

    def test_one_variable_power(self):
        for k in range(1, 8):
            assert lct_monomial_ideal([(k,)]) == F(1, k)

    def test_three_variables(self):
        # (x, y, z) maximal ideal: lct = 3
        assert lct_monomial_ideal([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3

    def test_scale_invariance(self):
        import random
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 3)
            vecs = [tuple(rng.randint(0, 5) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            vecs = [v for v in vecs if any(v)]
            if not vecs:
                continue
            base = lct_monomial_ideal(vecs)
            s = rng.randint(2, 4)
            scaled = lct_monomial_ideal([tuple(s * c for c in v)
                                         for v in vecs])
            assert scaled == base / s

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            lct_monomial_ideal([(0, 0)])

    @pytest.mark.parametrize("vectors", [
        5, "12", [5], [[1, 0], 2], {"a": [1]}, [[1, None]], [[[1], 2]],
        [[2.9, 0], [0, 3]], [[True, 0], [0, 3]], [["2", 0], [0, 3]],
    ])
    def test_malformed_vectors_rejected(self, vectors):
        # anything but a list of lists of integers is a ValueError
        with pytest.raises(ValueError):
            lct_monomial_ideal(vectors)


class TestPlaneOracle:
    def test_cusp(self):
        got, cert = lct_plane_nondegenerate(plane({(2, 0): 1, (0, 3): 1}))
        assert got == F(5, 6)

    def test_node(self):
        got, _ = lct_plane_nondegenerate(plane({(2, 0): 1, (0, 2): 1}))
        assert got == 1

    def test_trinomial_hull(self):
        f = plane({(0, 3): 1, (2, 1): 1, (4, 0): 1})
        got, cert = lct_plane_nondegenerate(f)
        assert cert["t0"] == F(3, 2)
        assert got == F(2, 3)

    def test_smooth_capped(self):
        got, _ = lct_plane_nondegenerate(plane({(0, 1): 1, (3, 0): 1}))
        assert got == 1

    def test_degenerate_refused(self):
        # (x + y)^2 has a repeated face root
        f = plane({(2, 0): 1, (1, 1): 2, (0, 2): 1})
        with pytest.raises(DegenerateError):
            lct_plane_nondegenerate(f)

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            lct_plane_nondegenerate(plane({(0, 0): 1, (1, 0): 1}))

    def test_interior_points_ignored(self):
        # adding a monomial above the boundary changes nothing
        base = plane({(2, 0): 1, (0, 3): 1})
        fat = plane({(2, 0): 1, (0, 3): 1, (5, 5): 7})
        assert lct_plane_nondegenerate(base)[0] == \
            lct_plane_nondegenerate(fat)[0]


class TestBinomial:
    def test_examples(self):
        assert lct_binomial_curve(3, 2) == F(5, 6)
        assert lct_binomial_curve(2, 2) == 1
        assert lct_binomial_curve(1, 7) == 1

    def test_coherence_all_oracles(self):
        for d in range(1, 13):
            for k in range(1, 13):
                closed = lct_binomial_curve(d, k)
                mono = lct_monomial_ideal([(k, 0), (0, d)])
                assert closed == min(F(1), mono)
