"""Tests for the command line interface.

Most cases call run() in-process for speed; a few go through a real
subprocess to check the console entry point end to end.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import modimage
import modimage.classifier as classifier
import modimage.cli as cli
import modimage.exactmath as exactmath
import modimage.gl2 as gl2
import modimage.tables as tables
from modimage.classifier import (ImageResult, Report, classify,
                                  classify_from_j)
from modimage.ec import ShortCurve, WeierstrassCurve
from modimage.exactmath import FactorizationIncomplete
from modimage.polyq import INFINITY
from modimage.tables import prime_table, supported_primes
from oracles import report_to_dict


def run_cli(*args, capsys=None):
    """Invoke the CLI in-process, returning (exit code, stdout)."""
    code = cli.run(list(args))
    out = capsys.readouterr().out if capsys is not None else ""
    return code, out


def assert_one_error_line(err):
    """stderr of an exit 1: a single `modimage: error:` line, no traceback."""
    assert err.startswith("modimage: error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def plus_minus_level(label: str) -> str:
    """Collapse a sub-refinement label to the group generated with -I."""
    if label == "GL2" or ".CM." in label:
        return label
    l = int(label.split(".")[0])
    for e in prime_table(l).entries:
        if e.subs and label in [name for name, _ in e.subs]:
            return e.label
    return label


@pytest.fixture
def span_calls(monkeypatch):
    """The l of every gl2.span call the test makes."""
    calls = []
    span = gl2.span
    monkeypatch.setattr(gl2, "span",
                        lambda gens, l: calls.append(l) or span(gens, l))
    return calls


class TestClassify:
    def test_json_label_for_benchmark_curve(self, capsys):
        code, out = run_cli("classify", "--curve", "1,1,1,-305,7888",
                            "--primes", "11", "--format", "json",
                            capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["images"][0]["label"] == "11.H1.1"
        assert doc["images"][0]["status"] == "proven"
        assert doc["j"] == "-121"
        assert doc["cm"] is None
        assert doc["exceptional_primes"] == [11]

    def test_json_round_trips_byte_identically(self, capsys):
        code, out = run_cli("classify", "--curve", "0,0,1,-1,0",
                            "--format", "json", capsys=capsys)
        assert code == 0
        assert json.dumps(json.loads(out), indent=2) == out.rstrip("\n")

    def test_json_writer_matches_the_dict_oracle(self):
        # the template writer against json.dumps of the oracle's dict: a
        # box curve, cover hits with a witness, a j-value hit refined by
        # twist, CM, conditional tails with possible lists, explicit primes
        # without a table, and reports from j alone
        reports = []
        for curve in ("0,0,1,-1,0", "1,1,1,-305,7888", "0,-1,1,-10,-20",
                      "1,0,1,-190891,-36002922", "1,1,1,-208083,-36621194",
                      "1/2,0,0,-3/4,1"):
            E = WeierstrassCurve(*map(Fraction, curve.split(",")))
            reports.append(classify(E))
            reports.append(classify(E, [13, 19, 41], frobenius_bound=6))
        for A, B in ((-1715, 33614), (0, 16), (1, 0)):
            E = ShortCurve(A, B).to_long()
            reports.append(classify(E, [2, 3, 7, 11, 19, 41]))
        for j in (Fraction(-121), Fraction(3), Fraction(-3375)):
            reports.append(classify_from_j(j, [2, 11, 13, 19]))
        # strings that json.dumps must escape, and empty lists throughout
        odd = ImageResult(5, 'a "b"', "c\\d", witness_t=INFINITY,
                          possible=("\u00e9", "\n"), note="\x7f\t")
        reports.append(Report(None, Fraction(1, 2), None, (odd,)))
        reports.append(Report(None, Fraction(7), None, ()))
        for report in reports:
            assert cli.report_json(report) == json.dumps(
                report_to_dict(report), indent=2)

    def test_text_mode_one_line_per_prime(self, capsys):
        code, out = run_cli("classify", "--curve", "0,-1,1,-10,-20",
                            capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        prime_lines = [ln for ln in lines if ln.startswith("l = ")]
        assert len(prime_lines) == 8
        assert any("5.H1.1" in ln and "t = -1" in ln for ln in prime_lines)
        assert lines[-1] == "exceptional primes: 5"

    def test_j_only_agrees_with_model_at_plus_minus_level(self, capsys):
        code, out = run_cli("classify", "--j", "-121", "--primes", "11",
                            "--format", "json", capsys=capsys)
        assert code == 0
        jdoc = json.loads(out)
        assert jdoc["curve"] is None
        code, out = run_cli("classify", "--curve", "1,1,1,-305,7888",
                            "--primes", "11", "--format", "json",
                            capsys=capsys)
        mdoc = json.loads(out)
        assert (plus_minus_level(jdoc["images"][0]["label"])
                == plus_minus_level(mdoc["images"][0]["label"]))

    def test_cm_curve_reports_cm_block(self, capsys):
        code, out = run_cli("classify", "--short=-1715,33614",
                            "--primes", "7", "--format", "json",
                            capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["cm"] == {"j": "-3375", "field_disc": 7, "order_index": 1}
        assert doc["images"][0]["label"] == "7.CM.H1"

    def test_conditional_result_carries_possible_list(self, capsys):
        code, out = run_cli("classify", "--curve", "0,0,1,-1,0",
                            "--primes", "13", "--frobenius-bound", "6",
                            "--format", "json", capsys=capsys)
        assert code == 0
        img = json.loads(out)["images"][0]
        assert img["status"] == "conditional(BPR-conjecture)"
        assert img["possible"] == ["13.Ns"]

    def test_rational_coefficients_accepted(self, capsys):
        code, out = run_cli("classify", "--curve", "1/2,0,0,-3/4,1",
                            "--primes", "2", "--format", "json",
                            capsys=capsys)
        assert code == 0
        assert json.loads(out)["curve"][0] == "1/2"


class TestVerifyTables:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli("verify-tables", capsys=capsys)
        assert code == 0
        assert "FAIL" not in out
        summary = out.strip().splitlines()[-1]
        passed, total = summary.split()[0].split("/")
        assert passed == total and int(total) > 150

    def test_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_all",
                            lambda: [("broken", False, "detail")])
        code, out = run_cli("verify-tables", capsys=capsys)
        assert code == 2
        assert "FAIL broken" in out

    def test_emit_dumps_every_prime(self, capsys):
        code, out = run_cli("verify-tables", "--emit", capsys=capsys)
        assert code == 0
        for l in supported_primes():
            assert f"prime {l} " in out
        assert "cover num:" in out


class TestGroup:
    def test_borel_invariants(self, capsys):
        code, out = run_cli("group", "--prime", "5", "--label", "B",
                            capsys=capsys)
        assert code == 0
        assert "order: 80" in out
        assert "index: 6" in out
        assert "det surjective: yes" in out
        assert "generators:" in out

    def test_octahedral_group_at_13(self, capsys):
        code, out = run_cli("group", "--prime", "13", "--label", "G7",
                            capsys=capsys)
        assert code == 0
        assert "order: 288" in out
        assert "index: 91" in out

    def test_unknown_label_is_input_error(self, capsys):
        code, _ = run_cli("group", "--prime", "11", "--label", "XX",
                          capsys=capsys)
        assert code == 1

    def test_known_label_at_a_wrong_prime_is_not_unknown(self, capsys):
        code = cli.run(["group", "--prime", "5", "--label", "Ns-index3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "needs l = 1 mod 3" in err
        assert "unknown" not in err


    @pytest.mark.parametrize("label, order, index", [
        ("37.G3", 15984, 114), ("0037.G3", 15984, 114), ("B", 47952, 38)])
    def test_borel_groups_at_37_are_counted(self, label, order, index,
                                            capsys, span_calls):
        assert cli.run(["group", "--prime", "37", "--label", label]) == 0
        out = capsys.readouterr().out
        assert f"order: {order}\nindex: {index}\n" in out
        assert "det surjective: yes\ncontains -I: yes\n" in out
        assert span_calls == []

    def test_verify_tables_enumerates_nothing_at_37(self, span_calls):
        assert all(ok for _, ok, _ in tables.verify_all())
        assert span_calls and 37 not in span_calls


class TestAp:
    def test_quoted_trace(self, capsys):
        code, out = run_cli("ap", "--curve", "0,0,0,-338,2392", "--p", "3",
                            capsys=capsys)
        assert code == 0
        assert out.strip() == "0"

    def test_bad_reduction_is_input_error(self, capsys):
        code, _ = run_cli("ap", "--curve", "0,-1,1,-10,-20", "--p", "11",
                          capsys=capsys)
        assert code == 1


class TestTwistSet:
    def test_distinguished_pair(self, capsys):
        code, out = run_cli("twist-set", "--short=-42875,-3246250",
                            "--prime", "7", "--r", "337", capsys=capsys)
        assert code == 0
        assert out.strip() == "-7 1"

    def test_even_prime_is_input_error(self, capsys):
        code, _ = run_cli("twist-set", "--short=-42875,-3246250",
                          "--prime", "2", "--r", "10", capsys=capsys)
        assert code == 1


# group for every name the CLI knows at every table prime up to 13 (and
# one it does not), and for every table label and sublabel as listed
# (repeats kept), the isolated images at 17 and 37 included; then
# verify-tables. The names stop at 13: GL2(37) has 1.8 million elements
PINNED_GROUP_NAMES = ("GL2", "Cs", "Cns", "Ns", "Nns", "B", "Ns-index3",
                      "Nns-index3", "CM.G", "CM.H1", "CM.H2", "XX")
PINNED_CALLS = [
    ("group", "--prime", str(l), "--label", name)
    for l in supported_primes() if l <= 13 for name in PINNED_GROUP_NAMES
] + [
    ("group", "--prime", str(l), "--label", label)
    for l in supported_primes() for e in prime_table(l).entries
    for label in (e.label, *(sub for sub, _ in e.subs))
] + [("verify-tables",), ("verify-tables", "--emit")]

# sha256 over (argv, exit code, stdout, stderr) of every pinned call
PINNED_CALLS_SHA256 = \
    "ccbec289e92d9208222cdcfef51e9414239538f3776a397e839751c07ac0baa6"


def test_pinned_outputs(capsys):
    digest = hashlib.sha256()
    for argv in PINNED_CALLS:
        code = cli.run(list(argv))
        captured = capsys.readouterr()
        digest.update(repr((argv, code, captured.out,
                            captured.err)).encode())
    assert len(PINNED_CALLS) == 139
    assert digest.hexdigest() == PINNED_CALLS_SHA256


HUGE = str(10 ** 12)
MERSENNE_11213 = str(2 ** 11213 - 1)  # a prime of 3376 digits
# exponent notation that would build a 5001-digit numerator, and plain
# literals one digit past what int() reads from a string
OVERSIZED_LITERALS = [
    ("classify", "--short=1e5000,1"),
    ("classify", "--j", "1e5000"),
    ("ap", "--curve", "0,0,0,1e5000,1", "--p", "3"),
    ("classify", "--j", "1" * 4301),
    ("classify", "--j", "2/" + "3" * 4301),
]


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ("classify", "--curve", "1,2,bad,4,5"),
        ("classify", "--curve", "0,0,0,0,0"),
        ("classify",),
        ("classify", "--curve", "0,0,1,-1,0", "--j", "3"),
        ("classify", "--curve", "0,0,1,-1,0", "--primes", "4"),
        ("classify", "--j", "0"),
        ("nonsense",),
        ("ap", "--p", "3"),
        ("ap", "--curve", "0,0,0,-338,2392", "--p", "9"),
        ("ap", "--curve", "0,0,0,-338,2392", "--p", "1"),
        ("ap", "--curve", "0,0,0,-338,2392", "--p", "0"),
        ("ap", "--curve", "0,0,0,-338,2392", "--p", "-5"),
        ("twist-set", "--prime", "7", "--r", "10"),
        ("group", "--prime", "9", "--label", "B"),
        ("group", "--prime", "0", "--label", "B"),
        ("group", "--prime", "1", "--label", "B"),
        ("group", "--prime", "-3", "--label", "B"),
        ("group", "--prime", "2", "--label", "CM.G"),
        ("group", "--prime", "2", "--label", "CM.H1"),
        ("group", "--prime", "2", "--label", "CM.H2"),
        ("classify", "--j", "5", "--primes="),
    ])
    def test_input_errors_exit_one(self, args, capsys):
        assert cli.run(list(args)) == 1
        assert_one_error_line(capsys.readouterr().err)

    # one case per library error that run() turns into exit 1
    @pytest.mark.parametrize("args, message", [
        (("ap", "--curve", "0,-1,1,-10,-20", "--p", "11"),
         "p = 11 divides the discriminant"),
        (("twist-set", "--short=0,1000000016000000063", "--prime", "7",
          "--r", "10", "--factor-bound", "0"), "resists trial division"),
        (("group", "--prime", "11", "--label", "XX"), "unknown label 11.XX"),
        (("group", "--prime", "37", "--label", "17.G1"),
         "label 17.G1 is at l = 17, not 37"),
        (("group", "--prime", "37", "--label", "0017.G1"),
         "label 0017.G1 is at l = 17, not 37"),
        (("classify", "--j", "0"), "j = 0 needs a curve model"),
    ], ids=["BadReduction", "FactorizationIncomplete", "unknown-label",
            "label-at-another-prime", "zero-padded-label-at-another-prime",
            "j-zero"])
    def test_library_errors_exit_one(self, args, message, capsys):
        assert cli.run(list(args)) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert message in err

    # the twist-set model of 1 + 10^1500, 1 has a 4501-digit discriminant
    TALL_TWIST_SET = ("twist-set", "--short=1" + "0" * 1499 + "1,1",
                      "--prime", "7", "--r", "10", "--factor-bound", "40")

    def test_tall_twist_set_model_refused_before_factoring(self, capsys,
                                                          monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("factoring started")

        # the library refuses the model before its prime test and factoring
        monkeypatch.setattr(classifier, "is_probable_prime", forbidden)
        monkeypatch.setattr(classifier, "factor", forbidden)
        assert cli.run(list(self.TALL_TWIST_SET)) == 1
        assert capsys.readouterr().err == (
            "modimage: error: the discriminant of the integral model must "
            "be at most 200 digits long\n")

    def test_unprintable_cofactor_named_by_bit_length(self, capsys,
                                                      monkeypatch):
        # past the height limit, factor() leaves a cofactor of more than
        # 4300 digits; the stubbed primality test (composite) keeps the
        # test from running Miller-Rabin on it
        monkeypatch.setattr(classifier, "MAX_HEIGHT_DIGITS", 5000)
        monkeypatch.setattr(exactmath, "is_probable_prime", lambda n: False)
        assert cli.run(list(self.TALL_TWIST_SET)) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "bits resists trial division up to 40" in err
        assert len(err) < 100

    @pytest.mark.parametrize("name, args, exc", [
        ("verify_all", ["verify-tables"], ValueError("bad table")),
        ("classify", ["classify", "--curve", "0,0,1,-1,0"],
         FactorizationIncomplete("no factorization")),
    ], ids=["ValueError", "FactorizationIncomplete"])
    def test_library_error_from_any_call_is_one_line(self, name, args, exc,
                                                      capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, name, fail)
        assert cli.run(args) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(exc) in err

    @pytest.mark.parametrize("args, message", [
        (("classify", "--curve", "0,0,1,-1"),
         "--curve needs 5 comma-separated rationals, got 4"),
        (("classify", "--curve", "0,0,1,-1,0", "--short=1,1"),
         "give only one of --curve and --short"),
    ], ids=["four-values", "curve-and-short"])
    def test_model_argument_errors(self, args, message, capsys):
        assert cli.run(list(args)) == 1
        assert capsys.readouterr().err == f"modimage: error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (("classify", "--short=1,1", "--primes", f"5,{MERSENNE_11213}"),
         "--primes entries must be at most 10000000"),
        (("classify", "--j", "5", "--primes", f"{MERSENNE_11213},5,7"),
         "--primes entries must be at most 10000000"),
        (("twist-set", "--short=1,1", "--prime", MERSENNE_11213,
          "--r", "10"), "--prime must be at most 10000000"),
        (("group", "--prime", MERSENNE_11213, "--label", "GL2"),
         "--prime must be at most 37"),
        (("group", "--prime", "39", "--label", "GL2"),
         "--prime must be at most 37"),
    ], ids=["classify", "classify-j", "twist-set", "group", "group-39"])
    def test_large_prime_refused_before_a_primality_test(self, args, message,
                                                         capsys, monkeypatch):
        def forbidden(n):
            raise AssertionError("primality test reached")

        for module in (cli, classifier, tables):
            monkeypatch.setattr(module, "is_probable_prime", forbidden)
        assert cli.run(list(args)) == 1
        assert capsys.readouterr().err == f"modimage: error: {message}\n"

    def test_help_exits_zero(self, capsys):
        code, _ = run_cli("--help", capsys=capsys)
        assert code == 0

    def test_distinct_error_messages(self, capsys):
        errs = []
        for args in (["classify", "--curve", "1,2,bad,4,5"],
                     ["classify", "--curve", "0,0,0,0,0"],
                     ["group", "--prime", "11", "--label", "XX"],
                     ["ap", "--curve", "0,0,0,-338,2392", "--p", "9"],
                     ["group", "--prime", "9", "--label", "B"]):
            assert cli.run(args) == 1
            errs.append(capsys.readouterr().err)
            assert_one_error_line(errs[-1])
        err1, err2, err3, err4, err5 = errs
        assert "malformed rational" in err1
        assert "singular" in err2
        assert "unknown label" in err3
        assert "p = 9 is not a prime" in err4
        assert "l = 9 is not a prime" in err5

    @pytest.mark.parametrize("text", ["x" * 5000, "1/" + "0" * 4000,
                                      "1" * 4000 + "x", "1e" + "9" * 5000],
                             ids=["letters", "zero-den", "trailing-x",
                                  "long-exponent"])
    def test_malformed_literal_is_echoed_short(self, text, capsys):
        assert cli.run(["classify", "--j", text]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "malformed rational" in err and len(err) < 100

    def test_long_plain_literal_says_at_most_4300_digits(self, capsys):
        assert cli.run(["classify", "--j", "1" * 4301]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "at most 4300 digits" in err and "1" * 30 not in err

    def test_long_integer_argument_says_at_most_4300_digits(self, capsys):
        assert cli.run(["classify", "--j", "5", "--primes", "1" * 4301]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "at most 4300 digits" in err and "1" * 30 not in err

    @pytest.mark.parametrize("args", [
        ("classify", "--curve", "0,0,1,-1,0", "--frobenius-bound", HUGE),
        ("classify", "--curve", "0,0,1,-1,0", "--frobenius-bound", "-1"),
        ("classify", "--j", "3", "--frobenius-bound", HUGE),
        ("twist-set", "--curve", "0,0,1,-1,0", "--prime", "7", "--r", HUGE),
        ("twist-set", "--curve", "0,0,1,-1,0", "--prime", "7", "--r", "-1"),
        ("ap", "--curve", "0,0,1,-1,0", "--p", HUGE),
        ("ap", "--curve", "0,0,1,-1,0", "--p", "-1"),
        ("twist-set", "--short=0,1000000016000000063", "--prime", "7",
         "--r", "10", "--factor-bound", HUGE),
        ("twist-set", "--short=0,1000000016000000063", "--prime", "7",
         "--r", "10", "--factor-bound", "-1"),
        ("group", "--prime", "41", "--label", "GL2"),
        ("group", "--prime", "1000000007", "--label", "B"),
    ] + OVERSIZED_LITERALS)
    def test_size_arguments_rejected_before_computing(self, args, capsys,
                                                      monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("computation started")

        names = ["classify", "classify_from_j", "twist_set", "ap",
                 "group_from_label"]
        if args in OVERSIZED_LITERALS:  # refused before a curve is built
            names += ["ShortCurve", "WeierstrassCurve"]
        for name in names:
            monkeypatch.setattr(cli, name, forbidden)
        assert cli.run(list(args)) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "must be" in err or "is not a prime" in err

    @pytest.mark.parametrize("args", [
        ("classify", "--j", "1" + "0" * 250),
        ("classify", "--short", f"{10 ** 70},1"),
        ("classify", "--j", "1" + "0" * 250, "--primes", "4"),
    ], ids=["j", "model", "j-composite-prime"])
    def test_tall_j_refused_before_computing(self, args, capsys,
                                             monkeypatch):
        # the library checks the height of j before the primes and the walk
        def forbidden(*args, **kwargs):
            raise AssertionError("computation started")

        for name in ("is_probable_prime", "cm_entry", "classify_cm",
                     "classify_prime_noncm"):
            monkeypatch.setattr(classifier, name, forbidden)
        assert cli.run(list(args)) == 1
        assert capsys.readouterr().err == (
            "modimage: error: the numerator and denominator of j must be at "
            "most 200 digits long\n")


# Argument lists for the fuzz below: every flag of every subcommand, each
# given or left out (a required one seldom left out), with values from
# small pools of edge integers, junk and literals one digit past what
# int() reads. No pool value is slow to run: none is a group prime in
# 17..37, an --r or --frobenius-bound in 2001..10^5, or an ap --p in
# 10^4..10^7; plain verify-tables (0.3 s, pinned above) is left out.
_FUZZ_INTS = st.sampled_from(
    ["-1", "0", "1", "2", "9", "13", "39", str(10 ** 12)])
_FUZZ_VALUES = _FUZZ_INTS | st.sampled_from(
    ["", "x", " 7 ", "1/0", "1e5000", "-2/3", "3" * 4301, "2/" + "3" * 4301])
_FUZZ_INT_FLAG = _FUZZ_INTS | _FUZZ_VALUES  # mostly integers, some junk


def _fuzz_model(n):
    """Values for a flag that takes n comma-separated rationals: a curve
    the tests use, integers, any pool values, or one pool value."""
    curves = {5: ["0,0,1,-1,0", "1,1,1,-305,7888", "0,-1,1,-10,-20"],
              2: ["1,1", "-42875,-3246250", "0,16", "-3,2"]}[n]
    return st.sampled_from(curves) \
        | st.lists(_FUZZ_INTS, min_size=n, max_size=n).map(",".join) \
        | st.lists(_FUZZ_VALUES, min_size=n, max_size=n).map(",".join) \
        | _FUZZ_VALUES


_FUZZ_FLAGS = {  # flag: (values or None for a switch, required)
    "classify": {"--curve": (_fuzz_model(5), False),
                 "--short": (_fuzz_model(2), False),
                 "--j": (_FUZZ_VALUES, False),
                 "--primes": (st.lists(_FUZZ_INT_FLAG, min_size=1,
                                       max_size=3).map(",".join), False),
                 "--frobenius-bound": (_FUZZ_INT_FLAG, False),
                 "--format": (st.sampled_from(["text", "json", "x"]), False)},
    "verify-tables": {"--emit": (None, True)},
    "group": {"--prime": (_FUZZ_INT_FLAG, True),
              "--label": (st.sampled_from(["GL2", "B", "Cs", "Nns-index3",
                                           "CM.H1", "G1", "13.G7", "XX", ""]),
                          True)},
    "ap": {"--curve": (_fuzz_model(5), False),
           "--short": (_fuzz_model(2), False),
           "--p": (_FUZZ_INT_FLAG, True)},
    "twist-set": {"--curve": (_fuzz_model(5), False),
                  "--short": (_fuzz_model(2), False),
                  "--prime": (_FUZZ_INT_FLAG, True),
                  "--r": (_FUZZ_INT_FLAG, True),
                  "--factor-bound": (_FUZZ_INT_FLAG, False)},
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag, (values, required) in _FUZZ_FLAGS[command].items():
        if draw(st.integers(0, 7)) >= (1 if required else 4):
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    if argv == ["verify-tables"]:
        argv.append("--emit")
    return argv


@given(_fuzz_argv())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_fuzzed_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        text = err.getvalue()
        assert text.startswith("modimage") and ": error: " in text, text
        assert text.count("\n") == 1 and text.endswith("\n"), text


def run_python(*args):
    """Run a fresh interpreter that imports modimage from this checkout."""
    src = os.path.dirname(os.path.dirname(modimage.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    argv = ["classify", "--curve=1,1,1,-305,7888", "--format", "json"]
    assert cli.run(argv) == 0
    first = capsys.readouterr()
    for args in (["classify", "--bogus"],                    # usage error
                 ["classify", "--curve=0,0,1,-1,0", "--frobenius-bound=x"],
                 ["ap", "--curve=0,-1,1,-10,-20", "--p", "11"],  # ValueError
                 ["classify", "--j", "0"]):
        assert cli.run(args) == 1
        err = capsys.readouterr().err
        assert ": error: " in err and err.count("\n") == 1, err
    assert cli.run(argv) == 0
    assert capsys.readouterr() == first
    assert builds == [1]
    fresh = run_python("-m", "modimage.cli", *argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == \
        (0, first.out, first.err)


class TestConsoleEntryPoint:
    def test_installed_script_or_module(self):
        out = run_python("-m", "modimage.cli", "ap",
                         "--curve", "0,0,0,-338,2392", "--p", "3")
        assert out.returncode == 0
        assert out.stdout.strip() == "0"

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # both cost cold start: dataclasses pulls in inspect, ast and dis
        out = run_python("-c", "import sys; before = set(sys.modules); "
                         "import modimage.cli; "
                         "print(modimage.__file__); "
                         "print(*sorted({'dataclasses', 'inspect'} "
                         "& (set(sys.modules) - before)))")
        assert out.returncode == 0, out.stderr
        path, newly_loaded = out.stdout.split("\n")[:2]
        assert path == modimage.__file__
        assert newly_loaded == ""
