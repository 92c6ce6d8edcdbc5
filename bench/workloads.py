"""Seeded inputs and independent truth for the benchmark workloads.

Every verdict is checked against a threshold that does not come from the
decision procedure under test: the Newton-boundary oracle of a
nondegenerate plane curve, the binomial closed form, or the plane oracle on
a polynomial that differs from the input by the coordinate change
y -> y + w.  A draw the oracle refuses is redrawn before any timing starts
and counted; no input is ever redrawn, skipped or retried because of how
`lct_ge` behaves on it.

lctkit is imported lazily so that a caller can time the package import
first.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("distinct", "sweep", "contact", "cli")

# A run does a fixed amount of work, sized so that it takes about
# REF_SECONDS at the seed on a 2-core x86 machine and scaled linearly by
# --seconds.  Fixed counts, rather than "as many as fit", keep the number of
# rare, expensive decisions in a run, and with it the throughput and the
# rank of the tail percentile, independent of timing noise.
REF_SECONDS = 25

# distinct: decisions per degree.  Degree 2 holds about 70% of them, so the
# median lies inside the d=2 group, and the tail percentile inside the d=3
# group.  Degrees 4 (0.05-0.6 s a draw), 5 (0.2-6 s) and 6 (about 11 s)
# are left to the traced degree ladder: four d=4 draws take 0.45-1.5 s of a
# 10-s run (at the reference speed) depending on the seed, and one or two
# d=5 draws made the throughput differ by 17% between seeds.
DISTINCT_PLAN = {2: 600, 3: 280}

# contact: decisions per (degree, prefix terms).  Roots sharing a prefix of
# two or more terms almost always fail after every precision attempt (0.5-2
# s each at d=2 at the reference speed, 3-6 s at d=3); about 1 in 12 to 1 in
# 30 certifies in milliseconds instead.  There are only two, of degree 2:
# with four a run, the throughput spread by 24% across seeds, set by which
# of them failed and how slowly rather than by the code.  The m=1 decisions
# certify in 5-200 ms.
CONTACT_PLAN = {(2, 1): 260, (3, 1): 160, (2, 2): 1, (2, 3): 1}

# sweep: one pass decides the whole family at every grid point
SWEEP_BINOMIALS = [(d, k) for d in range(2, 6) for k in range(2, 11)]
SWEEP_TRINOMIALS = 50
SWEEP_GRID = 40
SWEEP_PASS_SECONDS = 5

# cli: argvs per run (each runs twice), degree pattern, and every
# CLI_TRUNC_EVERY-th argv truncates below any certifiable bound
CLI_ARGVS = 50
CLI_DEGREES = (2, 2, 3)
CLI_TRUNC_EVERY = 5

# distinct and cli draws: coefficient shape
MAX_TERMS = 2
EXPONENTS = range(1, 7)
COEFFS = [c for c in range(-5, 6) if c]


def schedule(plan, seconds):
    """The plan scaled to `seconds`, its keys spread evenly over the run."""
    slots = []
    for key, n in plan.items():
        n = max(1, round(n * seconds / REF_SECONDS))
        slots += [((k + 0.5) / n, key) for k in range(n)]
    return [key for _, key in sorted(slots)]


def sweep_passes(seconds):
    return max(1, round(seconds / SWEEP_PASS_SECONDS))


def cli_argv_count(seconds):
    return max(1, round(CLI_ARGVS * seconds / REF_SECONDS))


@dataclass(frozen=True)
class Decision:
    """One call lct_ge(d, c, coeffs); `expect` is the only verdict it may
    give."""
    d: int
    c: Fraction
    coeffs: tuple
    expect: str


@dataclass
class Draws:
    """Inputs the generators threw away before timing, by reason."""
    refused: int = 0      # DegenerateError from the oracle
    zero_ad: int = 0      # a_d = 0: the oracle needs a convenient polygon
    duplicate: int = 0    # each polynomial is decided once

    def to_json(self):
        return asdict(self)


def _threshold(d, term_dicts):
    """Plane oracle on y^d + sum a_i(x) y^(d-i); raises DegenerateError."""
    from lctkit import MPoly, lct_plane_nondegenerate
    support = {(0, d): Fraction(1)}
    for i, terms in enumerate(term_dicts, start=1):
        for e, c in terms.items():
            support[(int(e), d - i)] = Fraction(c)
    lam, _ = lct_plane_nondegenerate(MPoly(("x", "y"), support))
    return lam


def _verdict(lam, c):
    return "yes" if lam >= c else "no"


def _alternate_c(lam, k):
    """Even draws ask c = lct (yes); odd draws ask a point above it (no,
    unless lct = 1, where both points coincide)."""
    return lam if k % 2 == 0 else lam + (1 - lam) / 5


# ---------------------------------------------------------------------------
# distinct
# ---------------------------------------------------------------------------

def _random_poly(rng, d):
    return [{Fraction(e): Fraction(rng.choice(COEFFS))
             for e in rng.sample(EXPONENTS, rng.randint(0, MAX_TERMS))}
            for _ in range(d)]


class DistinctSource:
    """Random monic polynomials, each returned once, with their
    plane-oracle threshold."""

    def __init__(self, seed, draws):
        self.rng = random.Random(f"distinct:{seed}")
        self.seen = set()
        self.draws = draws
        self.per_degree = {}

    def poly(self, d):
        from lctkit import DegenerateError
        while True:
            terms = _random_poly(self.rng, d)
            if not terms[-1]:
                self.draws.zero_ad += 1
                continue
            key = tuple(tuple(sorted(t.items())) for t in terms)
            if key in self.seen:
                self.draws.duplicate += 1
                continue
            try:
                lam = _threshold(d, terms)
            except DegenerateError:
                self.draws.refused += 1
                continue
            self.seen.add(key)
            return terms, lam

    def decision(self, d):
        from lctkit import PSeries
        terms, lam = self.poly(d)
        k = self.per_degree.get(d, 0)
        self.per_degree[d] = k + 1
        c = _alternate_c(lam, k)
        return Decision(d, c, tuple(PSeries("x", t) for t in terms),
                        _verdict(lam, c))


def distinct(seed, degrees, draws):
    """Distinct decisions of the given degrees, in order."""
    src = DistinctSource(seed, draws)
    for d in degrees:
        yield src.decision(d)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_family():
    """[(d, coeffs, lct)]: 36 binomials y^d + x^k and the first 50
    nondegenerate trinomials y^3 + x^a y + x^b in (a, b) order."""
    from lctkit import DegenerateError, PSeries, lct_binomial_curve
    zero = PSeries.zero("x")
    family = []
    for d, k in SWEEP_BINOMIALS:
        coeffs = (zero,) * (d - 1) + (PSeries.monomial("x", k),)
        family.append((d, coeffs, lct_binomial_curve(d, k)))
    found = 0
    for a in range(1, 11):
        for b in range(1, 11):
            if found == SWEEP_TRINOMIALS:
                return family
            try:
                lam = _threshold(3, [{}, {a: 1}, {b: 1}])
            except DegenerateError:
                continue
            coeffs = (zero, PSeries.monomial("x", a), PSeries.monomial("x", b))
            family.append((3, coeffs, lam))
            found += 1
    raise AssertionError("fewer nondegenerate trinomials than requested")


def sweep(seed, pass_no):
    """One pass of the parameter study: the threshold grid in the outer
    loop, the family in a seeded order in the inner loop."""
    family = sweep_family()
    order = list(range(len(family)))
    random.Random(f"sweep:{seed}:{pass_no}").shuffle(order)
    for j in range(1, SWEEP_GRID + 1):
        for i in order:
            d, coeffs, lam = family[i]
            c = Fraction(1, d) + (1 - Fraction(1, d)) * Fraction(j, SWEEP_GRID)
            yield Decision(d, c, coeffs, _verdict(lam, c))


# ---------------------------------------------------------------------------
# contact
# ---------------------------------------------------------------------------

def contact(seed, shapes, draws):
    """Decisions of the given (degree, prefix terms) shapes, in order, each
    polynomial once.  The roots w + t_i share a prefix w and end in
    distinct monomial tails t_i past it; the truth is the plane oracle on
    prod(y - t_i), which y -> y + w maps to the input without changing the
    threshold."""
    from lctkit import DegenerateError, PSeries, UPoly
    rng = random.Random(f"contact:{seed}")
    nonzero = (-3, -2, -1, 1, 2, 3)
    seen = set()
    for k, (d, m) in enumerate(shapes):
        while True:
            exps = sorted(rng.sample(range(1, 5), m))
            w = {Fraction(e): Fraction(rng.choice(nonzero)) for e in exps}
            tails = rng.sample([(e, c) for e in range(exps[-1] + 1,
                                                      exps[-1] + 5)
                                for c in nonzero], d)
            key = (tuple(sorted(w.items())), tuple(sorted(tails)))
            if key in seen:
                draws.duplicate += 1
                continue
            seen.add(key)
            g = UPoly.from_roots(
                "y", [PSeries.monomial("x", e, c) for e, c in tails])
            try:
                lam = _threshold(d, [a.terms for a in g.coeffs])
                break
            except DegenerateError:
                draws.refused += 1
        roots = [PSeries("x", {**w, Fraction(e): Fraction(c)})
                 for e, c in tails]
        h = UPoly.from_roots("y", roots)
        c = _alternate_c(lam, k)
        yield Decision(d, c, tuple(h.coeffs), _verdict(lam, c))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def series_text(terms):
    """Series text in the CLI grammar, e.g. '-6*x - 4*x^2'; '0' if empty."""
    out = ""
    for e, c in sorted(terms.items()):
        mono = f"{abs(c)}*x^{e}"
        if not out:
            out = ("-" if c < 0 else "") + mono
        else:
            out += (" - " if c < 0 else " + ") + mono
    return out or "0"


@dataclass(frozen=True)
class CliCase:
    """`lctkit lct` arguments, the exit code the README promises for them
    and the verdict the JSON on stdout must carry."""
    argv: tuple
    d: int
    expect_exit: int
    expect: str


def cli_cases(seed, count, workdir: Path, draws):
    """`count` argvs of `lctkit lct` over draws of the distinct generator,
    degrees cycling through CLI_DEGREES.  Even cases pass --coeff texts,
    odd ones a --coeffs JSON file written into `workdir`.

    Every fifth case truncates at a bound B no larger than the smallest
    exponent of the input, which leaves no known term.  Every completion
    lies in the ideal (y^d, x^B): the zero one has threshold 1/d < c and
    the generic one min(1, 1/d + 1/B) >= c, so only `unknown` is correct."""
    src = DistinctSource(f"cli:{seed}", draws)
    rng = random.Random(f"cli:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for k in range(count):
        dec = src.decision(CLI_DEGREES[k % len(CLI_DEGREES)])
        d, c = dec.d, dec.c
        argv = ["lct", "--c", f"{c.numerator}/{c.denominator}"]
        if k % 2 == 0:
            argv += [f"--coeff={series_text(a.terms)}" for a in dec.coeffs]
        else:
            path = workdir / f"cli-{seed}-{k}.json"
            blob = {"d": d, "coeffs": [a.to_json() for a in dec.coeffs]}
            path.write_text(json.dumps(blob, sort_keys=True))
            argv += ["--coeffs", str(path)]
        if k % CLI_TRUNC_EVERY == CLI_TRUNC_EVERY - 1:
            low = min(min(a.terms) for a in dec.coeffs if a.terms)
            bounds = [b for b in range(1, int(low) + 1)
                      if c <= Fraction(1, d) + Fraction(1, b)]
            argv += ["--trunc", str(rng.choice(bounds))]
            cases.append(CliCase(tuple(argv), d, 3, "unknown"))
        else:
            cases.append(CliCase(tuple(argv), d, 0, dec.expect))
    return cases


# ---------------------------------------------------------------------------
# checking answers
# ---------------------------------------------------------------------------

def classify(verdict, expect, exact):
    """Status of one answered decision: ok, wrong, or failed (an `unknown`
    on exact input)."""
    if verdict == expect:
        return "ok", verdict
    if verdict == "unknown" and exact:
        return "failed", "unknown on exact input"
    return "wrong", f"{verdict} (expected {expect})"


def check_cli_output(case, code, out):
    """Status of one `lctkit lct` run from its exit code and stdout."""
    if code not in (0, 1, 2, 3):
        return "failed", f"exit {code} is not a documented code"
    try:
        verdict = json.loads(out)["verdict"]
    except (ValueError, KeyError, TypeError):
        return "failed", f"exit {code} with no verdict JSON on stdout"
    status, detail = classify(verdict, case.expect,
                              exact=case.expect_exit == 0)
    if status == "ok" and code != case.expect_exit:
        return "failed", f"verdict {verdict} with exit {code}"
    return status, detail


def decisions(workload, seed, seconds, draws, pass_no=0):
    """The in-process decisions of one run (of one pass, for sweep)."""
    if workload == "distinct":
        return distinct(seed, schedule(DISTINCT_PLAN, seconds), draws)
    if workload == "contact":
        return contact(seed, schedule(CONTACT_PLAN, seconds), draws)
    if workload == "sweep":
        return sweep(seed, pass_no)
    raise ValueError(f"no in-process decisions for workload {workload!r}")
