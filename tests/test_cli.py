import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lctkit.cli import (
    _Parser, parse_poly, parse_series, parse_series_group, parse_upoly, run,
)
from lctkit.criterion import choose_p
from lctkit.errors import ParseError
from lctkit.ideals import build_p_plus_minus
from lctkit.oracle import lct_binomial_curve
from lctkit.series import PSeries, frac_str

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


class TestParseSeries:
    def test_two_terms_ram_two(self):
        s = parse_series("t^2 - 4*t^(3/2)")
        assert s.ram == 2
        assert s.terms == {F(2): F(1), F(3, 2): F(-4)}

    def test_rational_coefficient(self):
        s = parse_series("1/2*t + 3")
        assert s.terms == {F(1): F(1, 2), F(0): F(3)}

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_series("1/0")

    def test_constant_default_var(self):
        s = parse_series("5")
        assert s.var == "t" and s.terms == {F(0): F(5)}

    def test_exact_roundtrip_with_repr(self):
        s = parse_series("t^2 - 4*t^(3/2)")
        assert parse_series(repr(s)) == s

    def test_json_roundtrip(self):
        s = parse_series("3*x - 1/7*x^4", var="x")
        assert PSeries.from_json(json.loads(json.dumps(s.to_json()))) == s

    def test_group_infers_shared_var(self):
        a, b, c = parse_series_group(["0", "x^2", "0"])
        assert a.var == b.var == c.var == "x"

    def test_group_parses_each_text_once(self, monkeypatch):
        parsed = []
        parse = _Parser.parse

        def counted(self):
            parsed.append(self.text)
            return parse(self)

        monkeypatch.setattr(_Parser, "parse", counted)
        parse_series_group(["x", "x^2 - 1", "0"])
        assert parsed == ["x", "x^2 - 1", "0"]

    def test_group_parse_errors_come_first(self):
        # the second text's ParseError wins over the first's two variables
        with pytest.raises(ParseError, match="^zero denominator "):
            parse_series_group(["x + y", "1/0"])
        several = r"^series use several variables \['x', 'y'\]"
        with pytest.raises(ParseError, match=several):
            parse_series_group(["x", "y^2"])

    def test_bad_character_position(self):
        with pytest.raises(ParseError) as err:
            parse_series("t^2 ? 1")
        assert err.value.pos == 4


class TestParsePoly:
    def test_two_vars(self):
        p = parse_poly("y^3 + x^2")
        assert set(p.vars) == {"x", "y"}

    def test_upoly_degree(self):
        h = parse_upoly("y^3 + x^2")
        assert h.degree == 3
        assert h.coeffs[2].terms == {F(2): F(1)}

    def test_upoly_cusp(self):
        h = parse_upoly("y^2 - t^3")
        assert h.degree == 2
        assert h.coeffs[1].terms == {F(3): F(-1)}

    def test_upoly_monic_enforced(self):
        with pytest.raises(ParseError):
            parse_upoly("2*y^2 + x")

    def test_upoly_middle_coefficients(self):
        h = parse_upoly("y^3 + x^2*y + x^4")
        assert h.coeffs[0].is_zero()
        assert h.coeffs[1].terms == {F(2): F(1)}
        assert h.coeffs[2].terms == {F(4): F(1)}


class TestCommands:
    def test_orders(self, capsys):
        assert run(["orders", "--poly", "y^2 - t^3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["slopes"] == [["3/2", 2]]

    def test_lct_yes(self, capsys):
        rc = run(["lct", "--c", "5/6", "--coeff", "0", "--coeff", "0",
                  "--coeff", "x^2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "yes"
        assert out["V"] == {"kind": "exact", "value": "1"}
        assert (out["p"], out["c1"], out["c2"]) == (2, "1/6", "2/3")

    def test_lct_from_file(self, tmp_path, capsys):
        blob = {"d": 3, "c": "5/6",
                "coeffs": [PSeries.zero("x").to_json(),
                           PSeries.zero("x").to_json(),
                           PSeries.monomial("x", 2).to_json()]}
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(blob))
        rc = run(["lct", "--c", "5/6", "--coeffs", str(path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "yes"

    def test_degree3(self, capsys):
        assert run(["degree3", "--a", "0", "--b", "x^2", "--c", "5/6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "yes"

    def test_integrality(self, capsys):
        assert run(["integrality", "--poly", "y^2 - t^4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["integral"] is True

    def test_integrality_reports_a_difference(self, capsys):
        # roots x + x^(3/2) and x - x^(3/2): integral orders, difference 3/2
        assert run(["integrality", "--poly", "y^2 - 2*x*y + x^2 - x^3"]) == 0
        assert capsys.readouterr().out == (
            '{"integral": false, "source": "difference", '
            '"violating_order": "3/2"}\n')

    def test_diffs_full_and_shallow(self, capsys):
        assert run(["diffs", "--poly", "y^2 - t^3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["diffTable"][0][1] == {"kind": "exact", "value": "3/2"}
        assert run(["diffs", "--poly", "y^2 - t^3", "--depth", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["diffTable"][0][1] == {"kind": "atleast", "value": "1"}
        # the exact certificate is reported either way
        assert out["certificate"] == [{"kind": "exact", "value": "3/2"}] * 2

    def test_oracle_plane(self, capsys):
        assert run(["oracle", "--poly", "y^3 + x^2*y + x^4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lct"] == "2/3"

    def test_oracle_vectors(self, capsys):
        assert run(["oracle", "--vectors", "[[2,0],[0,3]]"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lct"] == "5/6"

    def test_parse_error_exit_code(self, capsys):
        assert run(["orders", "--poly", "1/0"]) == 2

    def test_truncation_exit_code(self, tmp_path, capsys):
        def lct(*coeffs):
            path = tmp_path / "trunc.json"
            path.write_text(json.dumps([a.to_json() for a in coeffs]))
            rc = run(["lct", "--c", "3/4", "--coeffs", str(path)])
            return rc, json.loads(capsys.readouterr().out)["verdict"]

        # y^2 + O(x^3): its completions y^2 + x^3 (lct 5/6) and y^2 + x^5
        # (lct 7/10) lie on both sides of 3/4
        zero = PSeries.zero("x")
        assert lct(zero, PSeries.zero("x", 3)) == (3, "unknown")
        assert lct(zero, PSeries.monomial("x", 3)) == (0, "yes")
        assert lct(zero, PSeries.monomial("x", 5)) == (0, "no")
        # y^2 + x*y + O(x^5) is a node (lct 1) for every completion
        assert lct(PSeries.monomial("x", 1), PSeries.zero("x", 5)) == \
            (0, "yes")

    def test_truncated_lct_prints_unknown(self, capsys):
        rc = run(["lct", "--c", "3/4", "--coeff=2*x^3", "--coeff=x^2",
                  "--trunc", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert out["verdict"] == "unknown"
        assert F(out["required"]) > 1 and out["reason"]

    def test_verify_lem1(self, capsys):
        assert run(["verify", "--suite", "orders", "--trials", "5",
                    "--seed", "42"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["failures"] == 0
        assert out["trials"] == 5

    def test_verify_containment_gives_one_result_per_trial(self, capsys):
        assert run(["verify", "--suite", "containment", "--trials", "7",
                    "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["trials"], out["failures"]) == (7, 0)
        assert [r["trial"] for r in out["results"]] == list(range(7))
        assert {(r["d"], r["c"]) for r in out["results"]} <= {
            (2, "2/3"), (2, "1"), (3, "5/12"), (3, "2/3"), (3, "11/12")}

    def test_verify_unknown_suite(self, capsys):
        assert run(["verify", "--suite", "nope"]) == 2


class TestZeroDenominator:
    """A rational option with a zero denominator is a usage error: exit 2,
    nothing on stdout and one JSON error line on stderr."""

    @pytest.mark.parametrize("argv", [
        ["lct", "--c", "1/0", "--coeff", "x", "--coeff", "x^2"],
        ["criterion", "--d", "3", "--c", "1/0"],
        ["degree3", "--a", "x", "--b", "x^2", "--c", "1/0"],
        ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^2",
         "--trunc", "1/0"],
        ["diffs", "--poly", "y^2 - t^3", "--depth", "1/0"],
    ], ids=["lct-c", "criterion-c", "degree3-c", "lct-trunc", "diffs-depth"])
    def test_usage_error(self, capsys, argv):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert "zero denominator" in json.loads(line)["error"]


class TestMalformedRational:
    """A rational option that is no rational is a usage error whose message
    names the option: exit 2, nothing on stdout and one JSON error line on
    stderr."""

    @pytest.mark.parametrize("argv,option", [
        (["lct", "--c", "abc", "--coeff", "x", "--coeff", "x^2"], "--c"),
        (["criterion", "--d", "3", "--c", "abc"], "--c"),
        (["degree3", "--a", "x", "--b", "x^2", "--c", "abc"], "--c"),
        (["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^2",
          "--trunc", "abc"], "--trunc"),
        (["diffs", "--poly", "y^2 - t^3", "--depth", "abc"], "--depth"),
    ], ids=["lct-c", "criterion-c", "degree3-c", "lct-trunc", "diffs-depth"])
    def test_usage_error(self, capsys, argv, option):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert json.loads(line) == {
            "error": f"{option} must be a rational, got 'abc'"}

    @pytest.mark.parametrize("argv,option,value", [
        (["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^2",
          "--trunc", "0"], "--trunc", "0"),
        (["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^2",
          "--trunc=-1/2"], "--trunc", "-1/2"),
        (["diffs", "--poly", "y^2 - t^3", "--depth", "0"], "--depth", "0"),
        (["diffs", "--poly", "y^2 - t^3", "--depth", "-3"], "--depth",
         "-3"),
        (["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^2",
          "--trunc", "-1/2"], "--trunc", "-1/2"),
        (["diffs", "--poly", "y^2 - t^3", "--depth", "-1/2"], "--depth",
         "-1/2"),
        (["verify", "--suite", "diffs", "--trials", "0"], "--trials", "0"),
        (["verify", "--suite", "diffs", "--trials", "-1"], "--trials", "-1"),
    ], ids=["lct-trunc-zero", "lct-trunc-negative", "diffs-depth-zero",
            "diffs-depth-negative", "lct-trunc-negative-separate",
            "diffs-depth-negative-fraction", "verify-trials-zero",
            "verify-trials-negative"])
    def test_non_positive_bound(self, capsys, argv, option, value):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert json.loads(line) == {
            "error": f"{option} must be positive, got {value!r}"}

    @pytest.mark.parametrize("argv", [
        ["lct", "--c", "-1/2", "--coeff", "x", "--coeff", "x^2"],
        ["criterion", "--d", "3", "--c", "-1/2"],
        ["degree3", "--a", "x", "--b", "x^2", "--c", "-1/2"],
        ["lct", "--c", "1/2", "--coeff", "x", "--d", "-1/2"],
        ["criterion", "--c", "1/2", "--d", "-1/2"],
    ], ids=["lct", "criterion", "degree3", "lct-d", "criterion-d"])
    def test_negative_rational_is_a_value(self, capsys, argv):
        """"--c -1/2" is read as "--c=-1/2", not as an option: both forms
        give the same exit code and output.  "--d -1/2" likewise reaches
        the integer check of --d."""
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        code = run(joined)
        want = capsys.readouterr()
        assert run(argv) == code
        got = capsys.readouterr()
        assert (got.out, got.err) == (want.out, want.err)
        assert "expected one argument" not in want.err
        if argv[-2] == "--d":
            assert code == 2
            assert json.loads(want.err) == {
                "error": "--d must be an integer, got '-1/2'"}


class TestMissingCoefficients:
    """`lctkit lct` without coefficients, from neither --coeff nor a
    --coeffs document, is a usage error naming both options."""

    @pytest.mark.parametrize("argv,document", [
        (["--c", "1/2"], None),
        (["--c", "1/2", "--d", "2"], None),
        (["--c", "1/2"], {"coeffs": []}),
    ], ids=["c-only", "c-and-d", "empty-document"])
    def test_usage_error(self, tmp_path, capsys, argv, document):
        if document is not None:
            path = tmp_path / "empty.json"
            path.write_text(json.dumps(document))
            argv = argv + ["--coeffs", str(path)]
        assert run(["lct", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert json.loads(line) == {
            "error": "missing the coefficients: give --coeff or --coeffs"}


class TestRemovedSpellings:
    """Spellings the CLI no longer accepts are usage errors: exit 2,
    nothing on stdout and one JSON error line on stderr."""

    @pytest.mark.parametrize("argv", [
        ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^2", "--trunc"],
        ["degree3", "--a", "x", "--b", "x^2", "--c", "3/4",
         "--series-var", "t"],
        ["oracle", "--vectors", "[[1,0],[0,2]]", "--n", "2"],
        ["verify", "--suite", "lem1"],
    ], ids=["bare-trunc", "series-var", "oracle-n", "suite-alias"])
    def test_usage_error(self, capsys, argv):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert "error" in json.loads(line)


class TestDegreeOption:
    """A --d that is not an integer is a usage error whose message names
    --d: exit 2, nothing on stdout and one JSON error line on stderr."""

    @pytest.mark.parametrize("argv", [
        ["lct", "--d", "two", "--c", "3/4", "--coeff", "x", "--coeff",
         "x^2"],
        ["criterion", "--d", "two", "--c", "3/4"],
    ], ids=["lct", "criterion"])
    def test_usage_error(self, capsys, argv):
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert json.loads(line) == {
            "error": "--d must be an integer, got 'two'"}


class TestThresholdFromFile:
    """`lctkit lct` takes c from --c, else from the --coeffs document's
    "c" field; with neither, it is a usage error naming --c."""

    @staticmethod
    def _file(tmp_path, **fields):
        blob = {"coeffs": [PSeries.zero("x").to_json(),
                           PSeries.monomial("x", 3, -1).to_json()], **fields}
        path = tmp_path / "cusp.json"
        path.write_text(json.dumps(blob))
        return str(path)

    def test_file_c_is_read(self, tmp_path, capsys):
        assert run(["lct", "--coeffs", self._file(tmp_path, c="5/6")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["c"], out["verdict"]) == ("5/6", "yes")

    def test_option_overrides_file(self, tmp_path, capsys):
        path = self._file(tmp_path, c="5/6")
        assert run(["lct", "--c", "1", "--coeffs", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["c"], out["verdict"]) == ("1", "no")

    @pytest.mark.parametrize("argv,fields,named", [
        (["--coeff", "0", "--coeff", "x^3"], None, "--c"),
        ([], {}, "--c"),
        ([], {"c": None}, '"c"'),
        ([], {"c": ["5/6"]}, '"c"'),
        ([], {"c": True}, '"c"'),
        ([], {"c": "abc"}, '"c"'),
    ], ids=["no-file", "file-without-c", "null-c", "list-c", "bool-c",
            "word-c"])
    def test_usage_error(self, tmp_path, capsys, argv, fields, named):
        if fields is not None:
            argv = argv + ["--coeffs", self._file(tmp_path, **fields)]
        assert run(["lct", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert named in json.loads(line)["error"]


class TestOracleArguments:
    """`lctkit oracle` takes exactly one of --poly, --vectors and
    --binomial; malformed vectors are a usage error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        [], ["--n", "2"], ["--poly", "x^2 + y^3", "--vectors", "[[1]]"],
        ["--vectors", "[[1]]", "--binomial", "2", "3"],
    ], ids=["none", "n-only", "poly-vectors", "vectors-binomial"])
    def test_one_source_required(self, capsys, argv):
        assert run(["oracle", *argv]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("vectors", [
        "5", '"12"', "[[1, null]]", "[[2.9,0],[0,3]]", "[[true,0],[0,3]]",
        '[["2",0],[0,3]]',
    ])
    def test_malformed_vectors(self, capsys, vectors):
        assert run(["oracle", "--vectors", vectors]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert "error" in json.loads(line)

    @pytest.mark.parametrize("poly", ["y^2", "y^2 + x - x"])
    def test_plane_reads_y_by_name(self, capsys, poly):
        # a polynomial in y alone has its hull point on the y axis
        assert run(["oracle", "--poly", poly]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["hull"] == [[0, 2]] and out["lct"] == "1/2"

    def test_plane_refuses_other_names(self, capsys):
        assert run(["oracle", "--poly", "v^2 + u^3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert "x and y, not 'u'" in json.loads(line)["error"]


_X = {"var": "x", "terms": [{"e": "1", "c": "1"}], "trunc": "inf"}


class TestMalformedCoeffsFile:
    """A --coeffs document of the wrong shape is a usage error: exit 2,
    nothing on stdout and one JSON error line on stderr that names the bad
    field."""

    @pytest.mark.parametrize("blob,field", [
        ([{"var": "x"}], '"terms"'),
        ([{"var": "x", "terms": {"1": "1"}}], '"terms"'),
        ({"a": 1}, '"coeffs"'),
        ({"coeffs": {"var": "x"}}, '"coeffs"'),
        ([{"terms": [], "trunc": "inf"}], '"var"'),
        ([{"var": "x", "terms": [{"e": "1", "c": None}], "trunc": "inf"}],
         '"terms"'),
        ([{"var": "x", "terms": []}], '"trunc"'),
        ({"coeffs": [_X], "d": None}, '"d"'),
        ({"coeffs": [_X], "d": True}, '"d"'),
        ({"coeffs": [_X], "d": "two"}, '"d"'),
    ], ids=["no-terms", "terms-object", "no-coeffs", "coeffs-object",
            "no-var", "null-coefficient", "no-trunc", "null-d", "bool-d",
            "word-d"])
    def test_usage_error(self, tmp_path, capsys, blob, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        assert run(["lct", "--c", "3/4", "--coeffs", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert field in json.loads(line)["error"]


class TestMalformedSeries:
    """A --coeffs entry that is no series object, or whose `ram` disagrees
    with its exponents, is a usage error: exit 2, nothing on stdout and
    one JSON error line on stderr."""

    @pytest.mark.parametrize("blob,message", [
        ([5], "a series must be a JSON object, got 5"),
        ([{**_X, "ram": 3, "terms": [{"e": "1/2", "c": "1"}]}],
         "ramification field 3 does not match exponents"),
    ], ids=["not-an-object", "wrong-ram"])
    def test_usage_error(self, tmp_path, capsys, blob, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        assert run(["lct", "--c", "1/2", "--coeffs", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [json.dumps({"error": message})]


class TestTruncOption:
    """--trunc B cuts every coefficient at B before the decision."""

    # y^2 + 2x^3 y + x^3, lct 5/6; cut at 5/2 it has the completion
    # y^2 + x^5, lct 7/10 < 3/4
    ARGV = ["lct", "--c", "3/4", "--coeff=2*x^3", "--coeff=x^3"]

    def test_explicit_bounds(self, capsys):
        assert run(self.ARGV) == 0
        exact = capsys.readouterr().out
        assert run(self.ARGV + ["--trunc", "64"]) == 0
        assert capsys.readouterr().out == exact
        assert run(self.ARGV + ["--trunc", "5/2"]) == 3
        assert json.loads(capsys.readouterr().out)["verdict"] == "unknown"
        # the completion y^2 + x^5 itself
        assert run(self.ARGV[:3] + ["--coeff=0", "--coeff=x^5"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "no"
        # the node y^2 + 2x^3 y + x^2 is decided from its cut at 5/2
        assert run(self.ARGV[:4] + ["--coeff=x^2", "--trunc", "5/2"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "yes"


class TestCriterionCommand:
    """`lctkit criterion` prints choose_p's band data and, for d <= 3, the
    plus/minus pair of build_p_plus_minus."""

    @pytest.mark.parametrize("d,c,p", [
        (2, "3/4", 1), (3, "2/5", 1), (3, "5/6", 2), (3, "3/5", 2),
        (4, "1/2", 2),
    ], ids=["d2", "d3-p1", "d3-p2-c2-ge-c1", "d3-p2-c2-lt-c1", "d4"])
    def test_output(self, capsys, d, c, p):
        assert run(["criterion", "--d", str(d), "--c", c]) == 0
        out = json.loads(capsys.readouterr().out)
        ctx = choose_p(d, F(c))
        assert ctx.p == p
        want = {"d": d, "c": c, "p": p, "c1": frac_str(ctx.c1),
                "c2": frac_str(ctx.c2)}
        if d <= 3:
            pair = build_p_plus_minus(ctx)
            want["p_plus"] = json.loads(json.dumps(pair.numer.to_json()))
            want["p_minus"] = json.loads(json.dumps(pair.denom.to_json()))
        assert out == want

    @pytest.mark.parametrize("d,c,exp", [(2, "7919/7920", "3959/7920"),
                                          (3, "3999/4000", "1999/4000")])
    def test_large_denominator_stays_formal(self, capsys, d, c, exp):
        # the plus parts are (z1^2 - 4 z2)^(3959/7920) and
        # (4 z2^3 + 27 z3^2)^(1999/4000), one term each, never multiplied out
        assert run(["criterion", "--d", str(d), "--c", c]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [[factor]] = json.loads(captured.out)["p_plus"]["terms"]
        assert factor["exp"] == exp


class TestOracleBinomial:
    def test_output(self, capsys):
        assert run(["oracle", "--binomial", "3", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"lct": frac_str(lct_binomial_curve(3, 4)),
                       "kind": "binomial"}
        assert out["lct"] == "7/12"


class TestDashLedText:
    """Series and polynomial text that starts with "-" is read as a value
    in the space form, with the same output as the "--opt=text" form."""

    @staticmethod
    def _both(capsys, head, opt, text, tail):
        rc_space = run(head + [opt, text] + tail)
        out_space = capsys.readouterr().out
        rc_eq = run(head + [f"{opt}={text}"] + tail)
        out_eq = capsys.readouterr().out
        assert (rc_space, out_space) == (rc_eq, out_eq)
        return rc_space, out_space

    def test_lct_coeff(self, capsys):
        rc, out = self._both(capsys, ["lct", "--c", "3/4"], "--coeff",
                             "-x^5/3", ["--coeff", "x^3"])
        assert rc == 0 and json.loads(out)["verdict"] == "yes"

    def test_degree3_a(self, capsys):
        rc, out = self._both(capsys, ["degree3"], "--a", "-x^2",
                             ["--b", "x^3", "--c", "3/4"])
        assert rc == 0 and json.loads(out)["verdict"] == "no"

    def test_degree3_b(self, capsys):
        rc, out = self._both(capsys, ["degree3", "--a", "x^2"], "--b",
                             "-x^3", ["--c", "3/4"])
        assert rc == 0 and json.loads(out)["verdict"] == "no"

    def test_orders_poly(self, capsys):
        rc, out = self._both(capsys, ["orders"], "--poly", "-t^3+y^2", [])
        assert rc == 0 and json.loads(out)["slopes"] == [["3/2", 2]]

    def test_dash_led_parse_error(self, capsys):
        rc, _ = self._both(capsys, ["lct", "--c", "3/4"], "--coeff", "-?",
                           ["--coeff", "x^3"])
        assert rc == 2

    def test_missing_value_stays_usage_error(self, capsys):
        assert run(["lct", "--c", "3/4", "--coeff", "--coeff", "x"]) == 2
        assert run(["lct", "--c", "3/4", "--coeff", "-h"]) == 2


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "orders", "--trials", "8", "--seed", "7"],
        ["verify", "--suite", "diffs", "--trials", "4", "--seed", "3"],
        ["verify", "--suite", "integrality", "--trials", "6", "--seed", "1"],
        ["lct", "--c", "5/6", "--coeff", "0", "--coeff", "0",
         "--coeff", "x^2"],
        ["orders", "--poly", "y^3 + t^2*y + t^3"],
        ["verify", "--suite", "containment", "--trials", "7", "--seed", "4"],
    ])
    def test_byte_identical(self, argv, capsys):
        assert run(list(argv)) == 0
        first = capsys.readouterr().out
        assert run(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_all_suites_pass_briefly(self, capsys):
        from lctkit.verify import _SUITES
        assert len(_SUITES) == 11
        for name in sorted(_SUITES):
            trials = 3 if name not in ("oracle",) else 1
            rc = run(["verify", "--suite", name, "--trials", str(trials),
                      "--seed", "5"])
            out = json.loads(capsys.readouterr().out)
            assert rc == 0, (name, out)
            assert out["failures"] == 0


def _cli_digest(capsys, corpus):
    """SHA-256 over one JSON line [argv, exit code, stdout, stderr] per
    argv, each run once through cli.run."""
    h = hashlib.sha256()
    for argv in corpus:
        rc = run(list(argv))
        out = capsys.readouterr()
        h.update(json.dumps([argv, rc, out.out, out.err]).encode() + b"\n")
    return h.hexdigest()


# Every subcommand on well-formed input, exit 3 on truncated input, a pair
# at a large denominator, and usage and parse errors, the latter with their
# positions.
CLI_CORPUS = [
    ["orders", "--poly", "y^3 + t^2*y + t^3"],
    ["orders", "--poly", "-t^3+y^2"],
    ["orders", "--poly", "z^2 - x^(3/2)*z + 1/2*x^4", "--var", "z"],
    ["orders", "--poly", "y^2 - x^3 ? 1"],
    ["orders", "--poly", "2*y^2 + x"],
    ["orders", "--poly", "y^(1/2) + x"],
    ["orders", "--poly", "y^2 + x + t"],
    ["orders", "--poly", "x^3"],
    ["orders"],
    ["diffs", "--poly", "y^2 - t^3"],
    ["diffs", "--poly", "y^3 - x^2*y + x^5", "--depth", "2"],
    ["diffs", "--poly", "y - x^2"],
    ["diffs", "--poly", "y^2 - t^3", "--depth", "0"],
    ["diffs", "--poly", "y^2 - t^3 +"],
    ["integrality", "--poly", "y^2 - x^3"],
    ["integrality", "--poly", "y^2 - x^2"],
    ["integrality", "--poly", "y^2 - 2*x*y + x^2 - x^3"],
    ["integrality", "--poly", "y^2 - x^"],
    ["criterion", "--d", "2", "--c", "3/4"],
    ["criterion", "--d", "3", "--c", "5/6"],
    ["criterion", "--d", "3", "--c", "2/5"],
    ["criterion", "--d", "4", "--c", "1/2"],
    ["criterion", "--d", "2", "--c", "7919/7920"],
    ["criterion", "--d", "two", "--c", "1/2"],
    ["criterion", "--d", "3", "--c", "1/0"],
    ["lct", "--c", "5/6", "--coeff", "0", "--coeff", "0", "--coeff", "x^2"],
    ["lct", "--c", "5/6", "--coeff", "0", "--coeff", "x^3"],
    ["lct", "--c", "1", "--coeff", "0", "--coeff", "x^3"],
    ["lct", "--c", "3/4", "--coeff", "-x^5/3", "--coeff", "x^3"],
    ["lct", "--c", "3/4", "--coeff=2*x^3", "--coeff=x^2", "--trunc", "1"],
    ["lct", "--c", "2/3", "--coeff", "x^(3/2) - 1/2*x^2", "--coeff", "0",
     "--coeff", "x^4 + 3*x^(9/2)"],
    ["lct", "--d", "3", "--c", "1/2", "--coeff", "t", "--coeff", "t^2",
     "--coeff", "t^3"],
    ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "y^2"],
    ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^(1/0)"],
    ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "(x"],
    ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^(1/2"],
    ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x y"],
    ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^-1"],
    ["lct", "--c", "3/4", "--coeff", "-?", "--coeff", "x^3"],
    ["lct", "--c", "3/4", "--coeff", "x", "--coeff", ""],
    ["lct", "--c", "3/4"],
    ["lct", "--coeff", "x"],
    ["lct", "--c", "3/4", "--coeff", "x", "--coeff", "x^2", "--trunc", "-1"],
    ["lct", "--c", "half", "--coeff", "x"],
    ["degree3", "--a", "x^2", "--b", "x^3", "--c", "3/4"],
    ["degree3", "--a", "-x^2", "--b", "x^3", "--c", "1/2"],
    ["degree3", "--a", "0", "--b", "x^2", "--c", "9/10"],
    ["degree3", "--a", "0", "--b", "x^2", "--c", "5/6"],
    ["degree3", "--a", "0", "--b", "0", "--c", "2/3"],
    ["degree3", "--a", "x^2", "--b", "x^3", "--c", "1/3"],
    ["degree3", "--a", "1 + x", "--b", "x^3", "--c", "3/4"],
    ["degree3", "--a", "x^2", "--b", "t^3", "--c", "3/4"],
    ["oracle", "--poly", "y^3 + x^2"],
    ["oracle", "--poly", "y^2 + x^3 + x^2*y^2"],
    ["oracle", "--poly", "x*y + z"],
    ["oracle", "--poly", "y^2 + x^(3/2)"],
    ["oracle", "--vectors", "[[2,0],[0,3]]"],
    ["oracle", "--vectors", "[[2,0],"],
    ["oracle", "--binomial", "3", "4"],
    ["oracle", "--binomial", "3", "four"],
    ["verify", "--suite", "orders", "--trials", "3", "--seed", "1"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "orders", "--trials", "0"],
]

CLI_DIGEST = (
    "0c979302398a0d4c16795b615a343ae4c2e034516273a45f9b9102257de77c42")


class TestCliBytes:
    def test_corpus_digest(self, capsys):
        """The exit code, stdout and stderr of every argv in CLI_CORPUS
        keep their bytes."""
        assert _cli_digest(capsys, CLI_CORPUS) == CLI_DIGEST


class TestMalformedText:
    """A '*' must be followed by a factor and only ASCII characters make
    tokens, so each text is a parse error at its position on every
    subcommand that reads text: exit 2, nothing on stdout and one
    {"error", "pos"} line on stderr."""

    TEXTS = [("x**2", 2, "expected a term"), ("x*", 2, "expected a term"),
             ("2*", 2, "expected a term"), ("x^2*", 4, "expected a term"),
             ("3**x", 2, "expected a term"),
             ("²x", 0, "unexpected character '²'"),
             ("x^٣", 2, "unexpected character '٣'")]

    @pytest.mark.parametrize("text,pos,message", TEXTS)
    @pytest.mark.parametrize("argv", [
        ["lct", "--c", "1", "--coeff", "0", "--coeff", "{}"],
        ["degree3", "--a", "{}", "--b", "x^3", "--c", "9/10"],
        ["degree3", "--a", "0", "--b", "{}", "--c", "9/10"],
        ["orders", "--poly", "{}"],
        ["diffs", "--poly", "{}"],
        ["integrality", "--poly", "{}"],
        ["oracle", "--poly", "{}"],
    ], ids=["lct-coeff", "degree3-a", "degree3-b", "orders", "diffs",
            "integrality", "oracle"])
    def test_parse_error(self, capsys, argv, text, pos, message):
        assert run([a.replace("{}", text) for a in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        (line,) = out.err.splitlines()
        assert json.loads(line) == {
            "error": f"{message} (at position {pos})", "pos": pos}


def _one_error_line(capsys):
    """The one {"error", "pos"} line of a parse error, nothing on stdout."""
    out = capsys.readouterr()
    assert out.out == ""
    (line,) = out.err.splitlines()
    obj = json.loads(line)
    assert set(obj) == {"error", "pos"}
    return obj


class TestTermPositions:
    """A semantic error in text points at the term that causes it: the
    position of the term's first factor."""

    @pytest.mark.parametrize("argv,pos,message", [
        (["orders", "--poly", "y^2 - x^(1/2)*y + x + t"], 22,
         "coefficients use several variables ['t', 'x']"),
        (["orders", "--poly", "y^2 + x*y^(1/2)"], 6,
         "fractional power of 'y'"),
        (["orders", "--poly", "x + 2*y^2"], 4,
         "polynomial is not monic in 'y'"),
        (["orders", "--poly", "x^2 + x"], 0, "no positive power of 'y'"),
        (["oracle", "--poly", "y^2 + x*y^(3/2)"], 6,
         "fractional exponent on 'y' in a polynomial"),
        (["lct", "--c", "1", "--coeff", "x", "--coeff", "x^2 - 3*t"], 6,
         "series use several variables ['t', 'x'] in text 2"),
        (["degree3", "--a", "0", "--b", "x^2 + t + s", "--c", "1/2"], 6,
         "series use several variables ['s', 't', 'x'] in text 2"),
    ], ids=["several", "fractional-y", "not-monic", "no-power-of-y",
            "fractional-exponent", "group", "group-three"])
    def test_cli_position(self, capsys, argv, pos, message):
        assert run(argv) == 2
        assert _one_error_line(capsys) == {
            "error": f"{message} (at position {pos})", "pos": pos}

    def test_series_text(self):
        with pytest.raises(ParseError, match="several variables") as err:
            parse_series("x - x^2 + 3*t")
        assert err.value.pos == 10
        with pytest.raises(ParseError, match="uses 't'") as err:
            parse_series("x + 1/2*t^2", var="x")
        assert err.value.pos == 4


class TestLongNumber:
    def test_digit_limit(self, capsys):
        # one digit past the limit of int() on decimal text
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        argv = ["lct", "--c", "1", "--coeff", "0", "--coeff",
                f"x^3 + {digits}*x^4"]
        assert run(argv) == 2
        assert _one_error_line(capsys) == {
            "error": "number has too many digits (at position 6)", "pos": 6}


class TestMain:
    """`python -m lctkit.cli` runs main(), whose exit code is run()'s."""

    @pytest.mark.parametrize("argv,code", [
        (["lct", "--c", "5/6", "--coeff", "0", "--coeff", "0",
          "--coeff", "x^2"], 0),
        (["lct", "--c", "1", "--coeff", "0", "--coeff", "x**3"], 2),
    ], ids=["yes", "parse-error"])
    def test_exit_code(self, argv, code):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "lctkit.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["verdict"] == "yes"
        else:
            assert proc.stdout == "" and "pos" in json.loads(proc.stderr)
