"""Independent threshold oracles used as ground truth at desk scale.

All three are classical Newton-polyhedron computations, deliberately
disjoint from the root-difference machinery so agreement between the two is
genuine cross-validation: the monomial-ideal threshold (an exact rational
linear program), the Newton-boundary threshold of a nondegenerate plane
curve, and the binomial-curve closed form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ConsistencyError, DegenerateError
from .mpoly import MPoly, q_squarefree
from .series import as_int

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact matrix-game value (the rational linear program)
# ---------------------------------------------------------------------------

def _det(B):
    n = len(B)
    if n == 1:
        return B[0][0]
    if n == 2:
        return B[0][0] * B[1][1] - B[0][1] * B[1][0]
    total = _ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in B[1:]]
        term = B[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _adjugate(B):
    n = len(B)
    if n == 1:
        return [[_ONE]]
    adj = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:]
                     for k, row in enumerate(B) if k != i]
            cof = _det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def _game_value(A):
    """Value of the zero-sum game max_x min_j (x^T A)_j over mixed row
    strategies, by enumeration of square kernels (exact rationals)."""
    m, n = len(A), len(A[0])
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                B = [[A[i][j] for j in cols] for i in rows]
                adj = _adjugate(B)
                s = sum(sum(r) for r in adj)
                if s == 0:
                    continue
                det = _det(B)
                v = det / s
                x = [sum(adj[j][i] for j in range(k)) / s for i in range(k)]
                y = [sum(adj[j][i] for i in range(k)) / s for j in range(k)]
                if any(c < 0 for c in x) or any(c < 0 for c in y):
                    continue
                xs = {rows[i]: x[i] for i in range(k)}
                ys = {cols[j]: y[j] for j in range(k)}
                ok = all(
                    sum(xs.get(i, _ZERO) * A[i][j] for i in range(m)) >= v
                    for j in range(n))
                ok = ok and all(
                    sum(A[i][j] * ys.get(j, _ZERO) for j in range(n)) <= v
                    for i in range(m))
                if ok:
                    return v
    raise ConsistencyError("matrix game has no kernel")  # unreachable


def _diag_entry(vectors):
    """Smallest s with (s, ..., s) in the Newton polyhedron of the vectors:
    min over the simplex of the componentwise max, solved as a game value."""
    A = [[-Fraction(c) for c in v] for v in vectors]
    return -_game_value(A)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def lct_monomial_ideal(vectors) -> Fraction:
    """Threshold of the monomial ideal generated by x^v over the given
    exponent vectors: the largest t with the all-ones vector inside t times
    the Newton polyhedron.  Raises ValueError unless `vectors` is a list
    of lists of integers."""
    if not (isinstance(vectors, (list, tuple)) and
            all(isinstance(v, (list, tuple)) for v in vectors)):
        raise ValueError("exponent vectors must be a list of lists")
    # bool is an int subclass: True is not an exponent
    if any(isinstance(c, bool) or not isinstance(c, int)
           for v in vectors for c in v):
        raise ValueError("exponents must be integers")
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValueError("no exponent vectors")
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("exponent vectors of mixed arity")
    if any(c < 0 for v in vectors for c in v):
        raise ValueError("exponents must be nonnegative")
    if any(not any(v) for v in vectors):
        raise ValueError("the unit ideal has no finite threshold")
    s0 = _diag_entry(vectors)
    return 1 / s0


def _staircase_edges(support):
    """Compact edges of the Newton boundary and its vertices: the lower
    convex hull of the minimal support points, which sorted by x have
    strictly falling y.  A point leaves the hull while the slope into it is
    not below the slope out of it."""
    stairs = sorted(p for p in support
                    if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                               for q in support))
    hull = []
    for p in stairs:
        while len(hull) >= 2 and (_slope(hull[-2], hull[-1])
                                  >= _slope(hull[-1], p)):
            hull.pop()
        hull.append(p)
    return list(zip(hull, hull[1:])), hull


def _slope(p, q):
    return Fraction(q[1] - p[1], q[0] - p[0])


def _edge_polynomial(p1, p2, coeff_of):
    """One-variable polynomial carried by a compact edge, dense descending."""
    dx, dy = p2[0] - p1[0], p1[1] - p2[1]
    g = math.gcd(dx, dy)
    step = (dx // g, -(dy // g))
    out = []
    for k in range(g, -1, -1):
        pt = (p1[0] + k * step[0], p1[1] + k * step[1])
        out.append(coeff_of.get(pt, _ZERO))
    return out


def lct_plane_nondegenerate(f: MPoly):
    """Newton-boundary threshold min(1, 1/t0) for a nondegenerate plane
    curve germ f in x and y (either may be absent); refuses
    (DegenerateError) when any compact face carries a polynomial with a
    repeated nonzero root.

    Returns (threshold, certificate)."""
    if len(f.vars) > 2:
        raise ValueError("plane oracle expects at most two variables")
    other = [v for v in f.vars if v not in ("x", "y")]
    if other:
        raise ValueError(
            f"plane oracle expects the variables x and y, not {other[0]!r}")
    support = {}
    for exps, c in f.terms.items():
        e = dict(zip(f.vars, exps))
        support[(e.get("x", 0), e.get("y", 0))] = c
    if not support:
        raise ValueError("zero polynomial")
    if (0, 0) in support:
        raise ValueError("the germ must vanish at the origin")
    edges, hull = _staircase_edges(list(support))
    faces = []
    for p1, p2 in edges:
        phi = _edge_polynomial(p1, p2, support)
        sf = q_squarefree(phi)
        faces.append({"from": list(p1), "to": list(p2),
                      "squarefree": bool(sf)})
        if not sf:
            raise DegenerateError(
                f"edge {p1}-{p2} carries a non-squarefree face polynomial")
    t0 = _diag_entry(list(support))
    lct = min(_ONE, 1 / t0)
    return lct, {"t0": t0, "hull": [list(p) for p in hull], "faces": faces}


def lct_binomial_curve(d: int, k: int) -> Fraction:
    """Closed form min(1, 1/d + 1/k) for y^d + x^k, cross-checked against
    the plane oracle."""
    if as_int(d, "degree") < 1 or as_int(k, "k") < 1:
        raise ValueError("exponents must be positive")
    closed = min(_ONE, Fraction(1, d) + Fraction(1, k))
    f = MPoly(("x", "y"), {(0, d): _ONE, (k, 0): _ONE})
    from_plane, _ = lct_plane_nondegenerate(f)
    if from_plane != closed:
        raise ConsistencyError(
            f"binomial closed form {closed} disagrees with the plane "
            f"oracle {from_plane}")
    return closed
