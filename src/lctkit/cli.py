"""Command-line front end: parsing, subcommand dispatch, JSON reporting.

The module loads only the decision path, which is all `lctkit lct` needs;
a subcommand that needs a layer off that path imports it when it runs, and
`lctkit verify` runs the seeded suites of lctkit.verify.

Exit codes: 0 a verdict, 2 parse/usage error or BudgetError, 3 unknown due
to truncation, 1 internal consistency failure (an exhausted precision
escalation is raised as one).

Identical argv and seed give byte-identical output: rationals are "p/q"
strings, reports are sorted, and per-trial seeds derive from the master
seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .criterion import choose_p, lct_ge
from .errors import (
    ConsistencyError, DegenerateError, LctkitError, ParseError,
    TruncationError,
)
from .poly import UPoly
from .series import UNKNOWN, PSeries, frac_str

# ---------------------------------------------------------------------------
# Text parsing
# ---------------------------------------------------------------------------


# Tokens are numbers [0-9]+, names [A-Za-z_][A-Za-z0-9_]* and the operators
# +-*^()/; whitespace between them is skipped and any other character is
# an error at its position.
_Token = namedtuple("_Token", "kind value pos")
_SCAN = re.compile(r"(?P<num>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                   r"|(?P<op>[-+*^()/])|(?P<space>\s+)|(?P<bad>.)")


def _tokenize(text):
    toks = []
    for m in _SCAN.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "num":
            try:
                toks.append(_Token(kind, int(value), pos))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("number has too many digits", pos) from None
        elif kind != "space":
            toks.append(_Token(value if kind == "op" else kind, value, pos))
    toks.append(_Token("end", None, len(text)))
    return toks


class _Parser:
    """Terms c*x^(p/q) joined by + and -, each a product of factors joined
    by '*'; rational literals p/q; variables ASCII names.  Produces a list
    of (Fraction, {var: Fraction}, position of the term's first factor)."""

    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind}", tok.pos)
        self.i += 1
        return tok

    def parse(self):
        terms = []
        sign = 1
        tok = self.peek()
        if tok.kind in "+-":
            self.take()
            sign = -1 if tok.kind == "-" else 1
        terms.append(self.term(sign))
        while self.peek().kind in "+-":
            op = self.take()
            terms.append(self.term(-1 if op.kind == "-" else 1))
        self.take("end")
        return terms

    def term(self, sign):
        """factor ('*' factor)*, where a factor is a rational or a name with
        an optional exponent."""
        coeff = Fraction(sign)
        exps = {}
        pos = self.peek().pos
        while True:
            tok = self.peek()
            if tok.kind == "num":
                coeff *= self.rational()
            elif tok.kind == "name":
                self.take()
                e = Fraction(1)
                if self.peek().kind == "^":
                    self.take()
                    e = self.exponent()
                exps[tok.value] = exps.get(tok.value, Fraction(0)) + e
            else:
                raise ParseError("expected a term", tok.pos)
            if self.peek().kind != "*":
                return coeff, exps, pos
            self.take()

    def rational(self):
        tok = self.take("num")
        value = Fraction(tok.value)
        if self.peek().kind == "/":
            self.take()
            den_tok = self.take("num")
            if den_tok.value == 0:
                raise ParseError("zero denominator", den_tok.pos)
            value /= den_tok.value
        return value

    def exponent(self):
        tok = self.peek()
        if tok.kind == "num":
            return self.rational()
        if tok.kind == "(":
            self.take()
            v = self.rational()
            self.take(")")
            return v
        raise ParseError("expected an exponent", tok.pos)


def _one_var(texts, what, skip=None):
    """The one variable, skip aside, of the terms of the parsed texts, or
    None.  A second is a ParseError at the term that brings it in, naming
    that term's text by its 1-based place when there are several."""
    seen = set()
    for k, terms in enumerate(texts, 1):
        for _, exps, pos in terms:
            seen |= exps.keys() - {skip}
            if len(seen) > 1:
                every = {v for ts in texts for t in ts for v in t[1]} - {skip}
                where = f" in text {k}" if len(texts) > 1 else ""
                raise ParseError(
                    f"{what} several variables {sorted(every)}{where}", pos)
    return seen.pop() if seen else None


def parse_series(text, var=None) -> PSeries:
    """Series from text, or from the terms _Parser made of it; exact
    (infinite truncation).  The variable is inferred when unambiguous;
    constants default to `var` or 't'."""
    terms = _Parser(text).parse() if isinstance(text, str) else text
    name = var or _one_var([terms], "series text uses") or "t"
    acc = {}
    for coeff, exps, pos in terms:
        stray = [v for v in exps if v != name]
        if stray:
            raise ParseError(
                f"series text uses {stray[0]!r}, expected {name!r}", pos)
        e = exps.get(name, Fraction(0))
        acc[e] = acc.get(e, Fraction(0)) + coeff
    return PSeries(name, acc)


def parse_series_group(texts):
    """Parse several series sharing one variable; constants adopt it.  Each
    text is parsed once: every text's ParseError comes before the check for
    several variables."""
    parsed = [_Parser(t).parse() for t in texts]
    var = _one_var(parsed, "series use") or "x"
    return [parse_series(terms, var=var) for terms in parsed]


def parse_poly(text):
    """Multivariate polynomial (an MPoly) from text (integer exponents)."""
    from .mpoly import MPoly
    terms = _Parser(text).parse()
    vars = tuple(sorted({v for _, exps, _ in terms for v in exps}))
    acc = {}
    for coeff, exps, pos in terms:
        for v, e in exps.items():
            if e.denominator != 1:
                raise ParseError(
                    f"fractional exponent on {v!r} in a polynomial", pos)
        key = tuple(int(exps.get(v, 0)) for v in vars)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return MPoly(vars, acc)


def parse_upoly(text, main="y") -> UPoly:
    """Monic polynomial in `main` with exact series coefficients in the
    remaining variable."""
    terms = _Parser(text).parse()
    cvar = _one_var([terms], "coefficients use", skip=main) or "x"
    d = 0
    for _, exps, pos in terms:
        e = exps.get(main, Fraction(0))
        if e.denominator != 1:
            raise ParseError(f"fractional power of {main!r}", pos)
        d = max(d, int(e))
    if d == 0:
        raise ParseError(f"no positive power of {main!r}", 0)
    coeff_terms = [dict() for _ in range(d + 1)]
    for coeff, exps, _ in terms:
        k = int(exps.get(main, Fraction(0)))
        e = exps.get(cvar, Fraction(0))
        tgt = coeff_terms[d - k]
        tgt[e] = tgt.get(e, Fraction(0)) + coeff
    lead = coeff_terms[0]
    if list(lead.items()) != [(Fraction(0), Fraction(1))]:
        raise ParseError(f"polynomial is not monic in {main!r}", next(
            pos for _, exps, pos in terms if exps.get(main) == d))
    coeffs = [PSeries(cvar, t) for t in coeff_terms[1:]]
    return UPoly(main, coeffs)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _rational(value, option):
    """The rational value of an option; anything else, a zero denominator
    included, is a usage error (ValueError) that names the option."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(
            f"{option} has a zero denominator: {value!r}") from None
    except ValueError:
        raise ValueError(
            f"{option} must be a rational, got {value!r}") from None


def _positive(value, option):
    """The positive rational value of an option; anything else is a usage
    error (ValueError) that names the option."""
    q = _rational(value, option)
    if q <= 0:
        raise ValueError(f"{option} must be positive, got {value!r}")
    return q


def _integer(value, option):
    """The int value of an option; anything else is a usage error
    (ValueError) that names the option."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"{option} must be an integer, got {value!r}") from None


def _load_lct_input(args):
    """The coefficients of `lctkit lct`, cut at --trunc when it is given;
    fills args.d and args.c from a --coeffs document where the command line
    leaves them out."""
    if args.coeffs:
        with open(args.coeffs) as fh:
            blob = json.load(fh)
        # a list of series objects, or an object holding it in "coeffs";
        # a malformed document is a usage error that names the bad field
        items = blob.get("coeffs") if isinstance(blob, dict) else blob
        if not isinstance(items, list):
            raise ValueError('--coeffs JSON must be a list of series or an '
                             'object whose field "coeffs" is one')
        coeffs = [PSeries.from_json(o) for o in items]
        if isinstance(blob, dict):
            # JSON true and false load as bools, which Python counts as ints
            if args.d is None and "d" in blob:
                d = blob["d"]
                try:
                    if isinstance(d, bool) or not isinstance(d, (int, str)):
                        raise ValueError
                    args.d = int(d)
                except ValueError:
                    raise ValueError(
                        '--coeffs JSON field "d" must be an integer') from None
            if args.c is None and "c" in blob:
                c = blob["c"]
                if isinstance(c, bool) or not isinstance(c, (int, str)):
                    raise ValueError(
                        '--coeffs JSON field "c" must be a rational')
                args.c = _rational(c, '--coeffs JSON field "c"')
    else:
        coeffs = parse_series_group(args.coeff or [])
    if args.c is None:
        raise ValueError(
            'missing the threshold: give --c or a "c" field in the --coeffs '
            'JSON')
    if not coeffs:
        raise ValueError("missing the coefficients: give --coeff or --coeffs")
    if args.trunc is not None:
        bound = _positive(args.trunc, "--trunc")
        coeffs = [s.truncated(bound) for s in coeffs]
    return coeffs


def _cmd_orders(args):
    from .reports import max_root_order, newton_polygon, partial_sums
    h = parse_upoly(args.poly, args.var)
    np = newton_polygon(h)
    out = np.to_json()
    out["min_partial_sums"] = [
        partial_sums(h, k).to_json() for k in range(1, h.degree + 1)]
    out["max_root_order"] = max_root_order(h).to_json()
    _emit(out)
    return 0


def _cmd_diffs(args):
    from .numeric import diff_orders
    h = parse_upoly(args.poly, args.var)
    depth = _positive(args.depth, "--depth") if args.depth else None
    table = diff_orders(h, depth=depth)
    _emit(table.to_json())
    return 0


def _cmd_integrality(args):
    from .reports import integrality_test
    h = parse_upoly(args.poly, args.var)
    verdict, cert = integrality_test(h)
    _emit(cert)
    return 0


def _cmd_criterion(args):
    from .ideals import build_p_plus_minus
    ctx = choose_p(_integer(args.d, "--d"), _rational(args.c, "--c"))
    out = {"d": ctx.d, "c": frac_str(ctx.c), "p": ctx.p,
           "c1": frac_str(ctx.c1), "c2": frac_str(ctx.c2)}
    if ctx.d <= 3:
        pair = build_p_plus_minus(ctx)
        out["p_plus"] = pair.numer.to_json()
        out["p_minus"] = pair.denom.to_json()
    _emit(out)
    return 0


def _cmd_lct(args):
    coeffs = _load_lct_input(args)
    d = _integer(args.d, "--d") if args.d is not None else len(coeffs)
    verdict, diag = lct_ge(d, _rational(args.c, "--c"), coeffs)
    diag["verdict"] = verdict
    _emit(diag)
    return 3 if verdict == UNKNOWN else 0


def _cmd_degree3(args):
    from .ideals import degree3_test
    a, b = parse_series_group([args.a, args.b])
    verdict, diag = degree3_test(a, b, _rational(args.c, "--c"))
    diag["verdict"] = verdict
    _emit(diag)
    return 3 if verdict == UNKNOWN else 0


def _cmd_oracle(args):
    from .oracle import (
        lct_binomial_curve, lct_monomial_ideal, lct_plane_nondegenerate,
    )
    if args.binomial:
        d, k = (_integer(v, "--binomial") for v in args.binomial)
        _emit({"lct": frac_str(lct_binomial_curve(d, k)),
               "kind": "binomial"})
        return 0
    if args.vectors:
        vecs = json.loads(args.vectors)
        lct = lct_monomial_ideal(vecs)
        _emit({"lct": frac_str(lct), "kind": "monomial"})
        return 0
    f = parse_poly(args.poly)
    lct, cert = lct_plane_nondegenerate(f)
    _emit({"lct": frac_str(lct), "kind": "plane",
           "t0": frac_str(cert["t0"]),
           "hull": cert["hull"]})
    return 0


def _cmd_verify(args):
    from .verify import _SUITES
    suite = _SUITES.get(args.suite)
    if suite is None:
        raise ValueError(
            f"unknown suite {args.suite!r}; available: "
            f"{', '.join(sorted(_SUITES))}")
    if args.trials < 1:
        raise ValueError(
            f"--trials must be positive, got {str(args.trials)!r}")
    results = suite(args.trials, args.seed)
    results.sort(key=lambda r: r["trial"])
    failures = sum(1 for r in results if not r["ok"])
    _emit({"suite": args.suite, "seed": args.seed, "trials": len(results),
           "failures": failures, "results": results})
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line like every other usage error: one
    {"error": ...} line on stderr and exit 2."""

    def error(self, message):
        sys.stderr.write(json.dumps({"error": message}) + "\n")
        self.exit(2)


def _build_argparser():
    ap = _ArgumentParser(
        prog="lctkit",
        description="Exact threshold toolkit for monic polynomials with "
                    "one-variable series coefficients")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orders", help="Newton polygon and root orders")
    p.add_argument("--poly", required=True)
    p.add_argument("--var", default="y")
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("diffs", help="pairwise root-difference orders")
    p.add_argument("--poly", required=True)
    p.add_argument("--var", default="y")
    p.add_argument("--depth", default=None)
    p.set_defaults(func=_cmd_diffs)

    p = sub.add_parser("integrality", help="are all roots unramified?")
    p.add_argument("--poly", required=True)
    p.add_argument("--var", default="y")
    p.set_defaults(func=_cmd_integrality)

    p = sub.add_parser("criterion",
                       help="band data and (d <= 3) the symbolic pair")
    p.add_argument("--d", required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(func=_cmd_criterion)

    p = sub.add_parser("lct", help="decide lct(f) >= c")
    p.add_argument("--d", default=None)
    p.add_argument("--c", default=None,
                   help='threshold; overrides "c" in the --coeffs JSON')
    p.add_argument("--coeffs", default=None,
                   help="JSON file with the coefficient series")
    p.add_argument("--coeff", action="append",
                   help="coefficient as series text (repeatable)")
    p.add_argument("--trunc", default=None,
                   help="truncate every coefficient at this rational bound")
    p.set_defaults(func=_cmd_lct)

    p = sub.add_parser("degree3", help="explicit depressed-cubic test")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(func=_cmd_degree3)

    p = sub.add_parser("oracle", help="independent threshold oracles")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--poly", default=None)
    which.add_argument("--vectors", default=None,
                       help="JSON list of exponent vectors")
    which.add_argument("--binomial", nargs=2, default=None,
                       metavar=("D", "K"))
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="seeded verification suites")
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    return ap


# Options whose value is series, polynomial, rational or integer text, by
# subcommand.
_TEXT_OPTIONS = {
    "orders": ("--poly",), "diffs": ("--poly", "--depth"),
    "integrality": ("--poly",), "oracle": ("--poly",),
    "lct": ("--coeff", "--c", "--d", "--trunc"),
    "criterion": ("--c", "--d"),
    "degree3": ("--a", "--b", "--c"),
}


def _join_text_values(argv):
    """Series text, rationals and integers may start with "-", which
    argparse reads as an option unless it looks like a negative number:
    "--coeff -x^5/3", "--c -1/2" and "--d -1/2" fail with "expected one
    argument".  Such a value is joined to its option as "--coeff=-x^5/3",
    the form argparse reads as a value.  A following "--..." or "-h" stays
    an option."""
    argv = list(argv)
    opts = _TEXT_OPTIONS.get(argv[0], ()) if argv else ()
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in opts and nxt.startswith("-")
                and not nxt.startswith("--") and nxt != "-h"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(_join_text_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "pos": exc.pos}) + "\n")
        return 2
    except TruncationError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 3
    except ConsistencyError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1
    except (ValueError, DegenerateError, LctkitError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
