"""Tests for Weierstrass curve arithmetic, twists and point counts."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import modimage.ec
from modimage.classifier import (classify, classify_from_j,
                                 classify_prime_noncm,
                                 frobenius_noncontainment)
from modimage.ec import (
    DEFAULT_FROBENIUS_BOUND,
    MAX_SCALAR,
    BadReduction,
    PointQ,
    ShortCurve,
    SingularCurveError,
    WeierstrassCurve,
    ap,
    division_polynomial,
    integral_model,
    quadratic_twist,
    scalar_mul,
    short_model,
    twist_test,
)
from modimage.exactmath import (MAX_PRIME, icbrt, is_cube, is_square,
                                legendre, primes_up_to)
from modimage.tables import (cm_entry, group_from_label,
                             nonsplit11_contains, nonsplit11_j)
from modimage.polyq import Poly, exact_divide
from oracles import brute_force_ap, fraction_model, silverman_invariants

T = Poly.var()

# curves reused across the suite
CURVE_J121 = WeierstrassCurve(1, 1, 1, -305, 7888)
CURVE_J131 = WeierstrassCurve(1, 1, 0, -3632, 82757)
FIXED7 = ShortCurve(-42875, -3246250)
RANK1_11 = WeierstrassCurve(0, -1, 1, -7, 10)


SINGULAR_MODELS = [
    (0, 0, 0, 0, 0),                  # cusp
    (0, 0, 0, -3, 2),                 # y^2 = (x-1)^2 (x+2)
    (1, 0, 0, 0, 0),                  # y^2 + xy = x^3
    (0, Fraction(1, 4), 0, 0, 0),     # y^2 = x^2 (x + 1/4)
    (Fraction(2, 3), Fraction(-1, 9), 0, 0, 0),
    (0, 0, 0, Fraction(-3, 4), Fraction(1, 4)),
]


def test_rejects_singular():
    # the message is the one the CLI prints as it stands
    message = "^singular curve: the discriminant vanishes$"
    for coeffs in SINGULAR_MODELS:
        assert silverman_invariants(*coeffs)["disc"] == 0
        with pytest.raises(SingularCurveError, match=message):
            WeierstrassCurve(*coeffs)
        if coeffs[:3] == (0, 0, 0):
            with pytest.raises(SingularCurveError, match=message):
                ShortCurve(*coeffs[3:])
    # a coefficient with no rational value is a ValueError too, where
    # Fraction raises OverflowError on an infinity
    for x in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="is not a rational number"):
            WeierstrassCurve(0, 0, 1, -1, x)
        with pytest.raises(ValueError, match="is not a rational number"):
            ShortCurve(x, 1)


def test_zero_denominator_is_not_a_rational_number():
    # Fraction("1/0") raises ZeroDivisionError, which is no ValueError;
    # a curve, a j or any other rational argument given such a string
    # gets the message above
    for build in (lambda x: WeierstrassCurve(0, 0, 0, x, 1),
                  lambda x: ShortCurve(x, 1), classify_from_j, cm_entry,
                  lambda x: nonsplit11_j(x, 1), nonsplit11_contains,
                  is_square, is_cube, lambda x: legendre(x, 7)):
        for text in ("1/0", "-7/0"):
            with pytest.raises(ValueError, match="is not a rational number"):
                build(text)


def test_long_literal_is_refused_before_it_is_built():
    # Fraction("1e10000000") takes seconds to build its ten-million-digit
    # numerator; the digits, the exponent's shift counted, are checked
    # first
    for build, text in ((lambda x: WeierstrassCurve(x, 0, 0, 0, 1),
                         "1e1000000"),
                        (classify_from_j, "1e10000000"),
                        (classify_from_j, "1/" + "1" * 4301)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most 4300 digits"):
            build(text)
        assert time.perf_counter() - start < 1
    assert WeierstrassCurve("1e4299", 0, 0, 0, 1).a1 == 10 ** 4299


def test_bad_literal_is_quoted_short():
    # the message quoted all 100000 characters
    with pytest.raises(ValueError) as raised:
        WeierstrassCurve("x" * 100000, 0, 0, 0, 1)
    message = str(raised.value)
    assert len(message) < 60
    assert message.endswith("is not a rational number")


def test_invariants_and_j():
    E = WeierstrassCurve(0, 0, 0, -1, 0)  # y^2 = x^3 - x
    assert E.j_invariant() == 1728
    assert E.discriminant() == 64
    assert CURVE_J121.j_invariant() == -121
    assert CURVE_J131.j_invariant() == -24729001
    assert -24729001 == -11 * 131 ** 3
    assert ShortCurve(0, 16).j_invariant() == 0


def test_curves_and_points_are_not_sequences():
    # as tuples they would concatenate and repeat; only the group law is +
    P = PointQ(RANK1_11, 4, 5)
    for x in (CURVE_J121, FIXED7, P):
        with pytest.raises(TypeError):
            x * 2
        with pytest.raises(TypeError):
            2 * x
        with pytest.raises(TypeError):
            (1, 2) + x
    for E in (CURVE_J121, FIXED7):
        with pytest.raises(TypeError):
            E + E
    assert P + P == scalar_mul(P, 2) == PointQ(RANK1_11, 2, 0)


def test_short_model_preserves_j():
    E = CURVE_J121
    S = short_model(E)
    assert S.j_invariant() == E.j_invariant()
    c4, c6 = E.c_invariants()
    assert S.A == -27 * c4
    assert S.B == -54 * c6


def test_quadratic_twist():
    E = ShortCurve(-1, 1)
    Ed = quadratic_twist(E, 3)
    assert Ed.A == -9 and Ed.B == 27
    assert Ed.j_invariant() == E.j_invariant()
    # a long model is read through its short model (this raised
    # AttributeError); anything else is no curve
    W = WeierstrassCurve(0, 0, 0, 1, 1)
    assert quadratic_twist(W, 2) == quadratic_twist(short_model(W), 2)
    assert twist_test(W, quadratic_twist(W, 2), 2)
    with pytest.raises(TypeError, match="^not a curve: "):
        quadratic_twist((1, 1), 2)


def twist_oracle(E, Eprime, d):
    """twist_test by its definition through j: the answer, or the text of
    the ValueError it must raise."""
    a, b = (S if isinstance(S, ShortCurve) else short_model(S)
            for S in (E, Eprime))
    j = a.j_invariant()
    if d == 0:
        return "twist by 0"
    if j != b.j_invariant():
        return "twist test requires equal j-invariants"
    if j not in (0, 1728):
        return is_square((b.B * a.A) / (a.B * b.A) * d)
    if j == 0 and d == 1:
        return is_cube(b.B / a.B)
    return ("twist test at j = 0 or 1728 only supports the same-orbit "
            "form (j = 0, d = 1)")


def twist_outcome(E, Eprime, d):
    """twist_test(E, Eprime, d), or the text of the ValueError it raised."""
    try:
        return twist_test(E, Eprime, d)
    except ValueError as exc:
        return str(exc)


SMALL = st.integers(min_value=-8, max_value=8)


@settings(derandomize=True, deadline=None)
@given(SMALL, SMALL, st.sampled_from([-7, -3, -1, 1, 2, 3, 5, 6, 13]),
       SMALL, SMALL)
@example(0, 1, -7, 0, 2)      # j = 0
@example(1, 0, 13, -1, 0)     # j = 1728
@example(0, 1, 1, 1, 0)       # j = 0 against j = 1728
def test_twist_preserves_j_and_twist_test(A, B, d, A2, B2):
    if 4 * A ** 3 + 27 * B ** 2 == 0:
        return
    E = ShortCurve(A, B)
    Ed = quadratic_twist(E, d)
    assert Ed.j_invariant() == E.j_invariant()
    if E.j_invariant() not in (0, 1728):
        assert twist_test(E, Ed, d)
        assert twist_test(Ed, E, d)
        assert twist_test(E, E, 1)
    pairs = [(E, Ed), (Ed, E), (E, E)]
    if 4 * A2 ** 3 + 27 * B2 ** 2 != 0:
        pairs += [(E, ShortCurve(A2, B2)), (ShortCurve(A2, B2), Ed)]
    for X, Y in pairs:
        for e in (0, 1, -7, 13, d):
            assert twist_outcome(X, Y, e) == twist_oracle(X, Y, e), (X, Y, e)


tall_fracs = st.builds(
    Fraction,
    st.integers(min_value=-10 ** 40, max_value=10 ** 40).filter(bool),
    st.integers(min_value=10 ** 20, max_value=10 ** 30))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(tall_fracs, tall_fracs, tall_fracs,
       st.sampled_from([1, -1, 7, Fraction(-7, 3), Fraction(10 ** 21 + 1, 6),
                        Fraction(4, 9)]))
def test_twist_test_on_large_denominators(A, B, u, d):
    # non-integral short models with denominators of 20 to 30 digits, and
    # the model u^4 A, u^6 B of the twist by d, isomorphic to it: the
    # integer kernel against the twist test through j and Fractions
    E = ShortCurve(A, B)
    Ed = quadratic_twist(E, d)
    Y = ShortCurve(u ** 4 * Ed.A, u ** 6 * Ed.B)
    assert twist_test(E, Y, d) and twist_test(Y, E, d)
    pairs = [(E, Y), (Y, E), (E, E), (E, ShortCurve(A, -B)),
             (E, ShortCurve(B, A))]
    for X, Z in pairs:
        for e in (0, 1, -1, d, 7 * d, Fraction(1, 3)):
            assert twist_outcome(X, Z, e) == twist_oracle(X, Z, e), (X, Z, e)


def test_twist_test_cases():
    E = ShortCurve(-42875, -3246250)
    Em7 = quadratic_twist(E, -7)
    assert twist_test(E, Em7, -7)
    assert not twist_test(E, Em7, 1)
    # j = 0 cube orbit: y^2 = x^3 + d and y^2 = x^3 + d' agree up to
    # quadratic twist exactly when d'/d is a square times a cube; with
    # d = 1 the test reduces to cube recognition
    assert twist_test(ShortCurve(0, 1), ShortCurve(0, 8), 1)
    assert not twist_test(ShortCurve(0, 1), ShortCurve(0, 2), 1)
    with pytest.raises(ValueError):
        twist_test(ShortCurve(0, 1), ShortCurve(-1, 0), 1)


@pytest.mark.parametrize("E, Eprime, d", [
    (ShortCurve(1, 0), ShortCurve(4, 0), 1),      # j = 1728
    (ShortCurve(1, 0), ShortCurve(-1, 0), -1),
    (ShortCurve(0, 1), ShortCurve(0, 8), -3),     # j = 0, d != 1
])
def test_twist_test_refuses_other_forms_at_0_and_1728(E, Eprime, d):
    with pytest.raises(ValueError) as info:
        twist_test(E, Eprime, d)
    assert str(info.value) == ("twist test at j = 0 or 1728 only supports "
                               "the same-orbit form (j = 0, d = 1)")


@pytest.mark.parametrize("E, Eprime", [
    (ShortCurve(-1, 1), ShortCurve(1, 1)),
    (CURVE_J121, CURVE_J131),
    (WeierstrassCurve(0, 0, 0, Fraction(-1, 4), Fraction(1, 8)),
     ShortCurve(-1, 2)),
    (ShortCurve(0, 1), ShortCurve(1, 0)),     # j = 0 against j = 1728
    (ShortCurve(0, 1), ShortCurve(-1, 1)),    # j = 0 against j != 0, 1728
    (ShortCurve(-1, 0), CURVE_J121),          # j = 1728 against j = -121
])
def test_twist_test_requires_equal_j(E, Eprime):
    for X, Y in ((E, Eprime), (Eprime, E)):
        for d in (1, -7, 13):
            with pytest.raises(ValueError) as info:
                twist_test(X, Y, d)
            assert str(info.value) == twist_oracle(X, Y, d) == \
                "twist test requires equal j-invariants"


def test_twist_guards():
    E = ShortCurve(-42875, -3246250)
    with pytest.raises(ValueError) as info:
        quadratic_twist(E, 0)
    assert str(info.value) == "twist by 0"
    # twisting by 0 is no twist, and was answered True
    with pytest.raises(ValueError) as info:
        twist_test(E, E, 0)
    assert str(info.value) == "twist by 0"
    for args in (((-42875, -3246250), E, 1), (E, "y^2 = x^3 - 1", 1)):
        with pytest.raises(TypeError) as info:
            twist_test(*args)
        assert str(info.value).startswith("not a curve: ")


NOT_A_CURVE = (TypeError, "^not a curve: ")
NOT_AN_INT = (TypeError, "^not an int: ")


@pytest.mark.parametrize("call, error", [
    (lambda: classify("x"), NOT_A_CURVE),
    (lambda: classify(None), NOT_A_CURVE),
    (lambda: short_model(1.5), NOT_A_CURVE),
    (lambda: ap("x", 5), NOT_A_CURVE),
    (lambda: division_polynomial("x", 3), NOT_A_CURVE),
    (lambda: division_polynomial(RANK1_11, float("nan")), NOT_AN_INT),
    (lambda: division_polynomial(RANK1_11, 3.0), NOT_AN_INT),
    (lambda: classify([0] * 100000), NOT_A_CURVE),
    (lambda: classify(10 ** 5000), NOT_A_CURVE),
    (lambda: division_polynomial(RANK1_11, 39),
     (ValueError, "^defined for odd n from 3 to 37$")),
    (lambda: ap(WeierstrassCurve(0, 0, 0, Fraction(1, 10 ** 4400), 1), 5),
     (ValueError, "^ap needs an integral model, got <WeierstrassCurve>$")),
    (lambda: frobenius_noncontainment([0] * 100000, 13, 100), NOT_A_CURVE),
    (lambda: group_from_label(13, [0] * 100000),
     (ValueError, "^the label .* is not a string$")),
    (lambda: classify_prime_noncm(None, "x", 5),
     (TypeError, "^not a rational: ")),
    (lambda: classify_prime_noncm(None, 0.5, 5),
     (TypeError, "^not a rational: ")),
    (lambda: scalar_mul("x", 2), (TypeError, "^not a point: ")),
    (lambda: scalar_mul(PointQ(RANK1_11, 4, 5), 2.0), NOT_AN_INT),
    (lambda: scalar_mul(PointQ(RANK1_11, 4, 5), -(MAX_SCALAR + 1)),
     (ValueError, f"^\\|k\\| must be at most {MAX_SCALAR}$")),
    (lambda: icbrt(1.5), NOT_AN_INT),
], ids=["classify", "classify-none", "short-model", "ap", "psi-curve",
        "psi-nan", "psi-float", "long-list", "long-int", "psi-39",
        "ap-long-repr", "certificates-long-list", "label-long-list",
        "noncm-j-str", "noncm-j-float", "scalar-mul-str", "scalar-mul-float",
        "scalar-mul-257", "icbrt-float"])
def test_bad_argument_raises_at_entry(call, error):
    # each raised AttributeError, RecursionError or nothing before its
    # entry point checked the argument; a list was quoted in all its
    # 300000 characters, the int of 5001 digits and the curve with a
    # coefficient of 4401 digits raised ValueError from their repr,
    # psi_39 was computed (psi_81 takes 21 s), a non-curve got
    # certificates' ValueError, and scalar_mul had no bound on k (k = 400
    # took 0.2 s on the criterion-11 generator, growing about as k^3)
    kind, message = error
    with pytest.raises(kind, match=message) as info:
        call()
    assert len(str(info.value)) < 100


def test_integral_model():
    E = WeierstrassCurve(0, 0, 0, Fraction(-1, 4), Fraction(1, 8))
    Ei, u = integral_model(E)
    for a in Ei.a_invariants():
        assert a.denominator == 1
    assert Ei.j_invariant() == E.j_invariant()
    assert u >= 1


def test_ap_anchors():
    assert ap(CURVE_J121, 2) == -1
    assert ap(CURVE_J131, 2) == 1
    assert ap(ShortCurve(-338, 2392).to_long(), 3) == 0
    E7 = FIXED7.to_long()
    assert ap(E7, 211) == 16
    assert ap(E7, 239) == -5
    assert ap(E7, 337) == -5


# a coefficient: 0, an integer, or a fraction with a denominator up to 30
COEFF = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                  st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                            st.integers(2, 30)))
SILVERMAN_ORDER = ("b2", "b4", "b6", "b8", "c4", "c6", "disc", "j")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.tuples(COEFF, COEFF, COEFF, COEFF, COEFF))
@example((0, 0, 0, -1, 0))
@example((0, 0, 1, 0, 0))
@example((1, 1, 1, -305, 7888))
@example((Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(2, 7),
          Fraction(-3, 11)))
@example((0, 0, 0, Fraction(-1, 4), Fraction(1, 8)))
def test_invariants_match_the_silverman_formulas(coeffs):
    want = silverman_invariants(*coeffs)
    b2, b4, b6, b8, c4, c6, disc, j = map(want.get, SILVERMAN_ORDER)
    # the oracle itself satisfies the two classical identities
    assert 4 * b8 == b2 * b6 - b4 * b4
    assert 1728 * disc == c4 ** 3 - c6 ** 2
    if disc == 0:
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(*coeffs)
        return
    E = WeierstrassCurve(*coeffs)
    got = E.b_invariants() + E.c_invariants() + (E.discriminant(),
                                                 E.j_invariant())
    assert got == (b2, b4, b6, b8, c4, c6, disc, j)
    assert all(type(x) is Fraction for x in got)
    if coeffs[:3] == (0, 0, 0):
        assert ShortCurve(*coeffs[3:]).j_invariant() == j


# a numerator: 0, small (where singular models lie), or large, either sign
NUMERATOR = st.one_of(st.just(0), st.integers(-3, 3),
                      st.integers(-10 ** 6, 10 ** 6))
DENOMINATOR_PRIMES = (2, 3, 5, 7, 11)


@st.composite
def a_invariants(draw):
    """Five coefficients: integers, or Fractions whose denominators are
    powers of one shared prime, or of five distinct primes."""
    kind = draw(st.sampled_from(("integer", "shared", "coprime")))
    numerators = draw(st.tuples(*[NUMERATOR] * 5))
    exponents = draw(st.tuples(*[st.integers(0, 3)] * 5))
    if kind == "integer":
        primes = (1,) * 5
    elif kind == "shared":
        primes = (draw(st.sampled_from(DENOMINATOR_PRIMES)),) * 5
    else:
        primes = draw(st.permutations(DENOMINATOR_PRIMES))
    return tuple(Fraction(n, q ** e)
                 for n, q, e in zip(numerators, primes, exponents))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(a_invariants())
@example((0, 0, 0, Fraction(-1, 4), Fraction(1, 8)))
@example((Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(2, 7),
          Fraction(-3, 11)))
@example(SINGULAR_MODELS[3])
@example(SINGULAR_MODELS[4])
@example(SINGULAR_MODELS[5])
def test_kernel_matches_the_fraction_path(coeffs):
    want = fraction_model(*coeffs)
    if want["disc"] == 0:
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(*coeffs)
        return
    E = WeierstrassCurve(*coeffs)
    assert E.b_invariants() == tuple(map(want.get, SILVERMAN_ORDER[:4]))
    assert E.c_invariants() == (want["c4"], want["c6"])
    assert (E.discriminant(), E.j_invariant()) == (want["disc"], want["j"])
    M, u = integral_model(E)
    assert (M.a_invariants(), u) == want["integral"]
    assert tuple(short_model(E)) == want["short"]
    # M keeps E's kernel with u = 1, which is the kernel M computes
    assert M._integral == WeierstrassCurve(*M)._integral
    assert M.discriminant() == want["disc"] * u ** 12
    assert all(type(x) is Fraction for x in E.b_invariants()
               + E.c_invariants() + M.a_invariants()
               + tuple(short_model(E)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                min_size=5, max_size=5),
       st.integers(min_value=1, max_value=30))
def test_integral_model_invariants_match_the_rational_ones(coeffs, scale):
    try:
        E = WeierstrassCurve(*(Fraction(c, scale) for c in coeffs))
    except SingularCurveError:
        return
    M, u = integral_model(E)
    want = silverman_invariants(*M)
    assert all(a.denominator == 1 for a in M.a_invariants())
    assert M.b_invariants() == tuple(map(want.get, SILVERMAN_ORDER[:4]))
    disc = M.discriminant()
    assert disc == want["disc"] == silverman_invariants(*E)["disc"] * u ** 12
    assert all(x.denominator == 1 for x in M.b_invariants() + (disc,))
    # ap counts on M itself: at the least good prime it matches brute force
    p = next((p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
              if disc % p), None)
    if p is not None:
        assert ap(M, p) == brute_force_ap(M, p)
    if u == 1:
        assert M is E


@pytest.mark.parametrize("E", [
    WeierstrassCurve(0, 0, 0, Fraction(-1, 4), Fraction(1, 8)),
    WeierstrassCurve(0, 0, 0, Fraction(1, 2), 1),
])
def test_ap_needs_an_integral_model(E):
    with pytest.raises(ValueError, match="ap needs an integral model"):
        ap(E, 7)
    M, _ = integral_model(E)
    assert ap(M, 7) == brute_force_ap(M, 7)


def test_ap_takes_an_int_p_untested_for_primality():
    M = WeierstrassCurve(0, 0, 1, -1, 0)
    for p in (7.5, 7.0, Fraction(7), float("nan")):
        with pytest.raises(ValueError, match="p is not an integer"):
            ap(M, p)
    # a composite p is counted as given; no trace comes out
    assert ap(M, 15) == -9


def test_ap_refuses_p_below_2():
    # refused before the discriminant test: p = 0 divided by zero there,
    # p = 1 divides every discriminant, and a negative p gave a negative
    # count of its own
    M = WeierstrassCurve(0, 0, 1, -1, 0)  # 37a1
    for p in (0, 1, -3):
        with pytest.raises(ValueError, match=f"^p = {p} is less than 2$"):
            ap(M, p)


def test_ap_against_brute_force():
    curves = [
        CURVE_J121,
        WeierstrassCurve(0, 0, 0, -1, 0),
        WeierstrassCurve(0, 0, 0, 0, 16),
        WeierstrassCurve(1, 0, 0, 4, -6),
    ]
    for E in curves:
        disc = int(E.discriminant())
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            if disc % p == 0:
                with pytest.raises(BadReduction,
                                   match=f"p = {p} divides the discriminant"):
                    ap(E, p)
                continue
            assert ap(E, p) == brute_force_ap(E, p)


# a coefficient of a long model, up to 60 digits, so that ap reduces the
# invariants mod p before it counts
LONG_COEFF = st.one_of(st.integers(-3, 3), st.integers(-10 ** 60, 10 ** 60))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.tuples(*[LONG_COEFF] * 5), st.sampled_from(primes_up_to(60)))
@example((1, 1, 1, -305, 7888), 2)
@example((0, 0, 0, 10 ** 60, -10 ** 60 + 1), 3)
def test_ap_of_long_models_against_brute_force(coeffs, p):
    try:
        E = WeierstrassCurve(*coeffs)
    except SingularCurveError:
        return
    if int(E.discriminant()) % p == 0:
        with pytest.raises(BadReduction):
            ap(E, p)
        return
    assert ap(E, p) == brute_force_ap(E, p)


def test_character_tables_kept_up_to_the_frobenius_bound():
    tables = modimage.ec._cached_char_table
    # room for the table of every prime the classifier's pass reaches
    assert tables.cache_info().maxsize == len(
        primes_up_to(DEFAULT_FROBENIUS_BOUND))
    E = CURVE_J131
    ap(E, 997)
    size = tables.cache_info().currsize
    assert size >= 1
    assert ap(E, 1009) == brute_force_ap(E, 1009)
    assert tables.cache_info().currsize == size


@pytest.mark.parametrize("p", [MAX_PRIME + 19, 10 ** 12])
def test_ap_refuses_p_above_max_prime(monkeypatch, p):
    # refused before its table of p bytes is built
    def forbidden(p):
        raise AssertionError("character table built")

    monkeypatch.setattr(modimage.ec, "_char_table", forbidden)
    with pytest.raises(ValueError, match="^p must be at most 10000000$"):
        ap(RANK1_11, p)


def test_ap_hasse_bound():
    E = CURVE_J131
    disc = int(E.discriminant())
    for p in (29, 31, 37, 101, 199):
        if disc % p:
            assert ap(E, p) ** 2 <= 4 * p


def test_division_polynomial_cubic():
    # psi_3 = 3x^4 + 6Ax^2 + 12Bx - A^2 on a short curve
    E = ShortCurve(-2, 3).to_long()
    psi3 = division_polynomial(E, 3)
    expected = 3 * T ** 4 + 6 * (-2) * T ** 2 + 12 * 3 * T - Fraction(4)
    assert psi3 == expected
    # and on y^2 = x^3 + d it collapses to 3x(x^3 + 4d)
    Ed = ShortCurve(0, 5).to_long()
    assert division_polynomial(Ed, 3) == 3 * T * (T ** 3 + 20)


def test_division_polynomial_degrees():
    E = CURVE_J121
    for n in (3, 5, 7):
        assert division_polynomial(E, n).degree == (n * n - 1) // 2


def test_division_polynomial_11_factor():
    # the 11-division polynomial of the j = -121 curve picks up a
    # rational quintic factor cutting out the kernel line
    psi = division_polynomial(CURVE_J121, 11)
    assert psi.degree == 60
    quintic = (T ** 5 - 129 * T ** 4 + 800 * T ** 3 + 81847 * T ** 2
               - 421871 * T - 4132831)
    assert exact_divide(psi, quintic) is not None


def test_point_arithmetic_anchors():
    # a generator of infinite order on a rank-one curve
    P = PointQ(RANK1_11, Fraction(4), Fraction(5))
    want = [
        (Fraction(4), Fraction(5)),
        (Fraction(2), Fraction(0)),
        (Fraction(5, 4), Fraction(7, 8)),
        (Fraction(-2), Fraction(3)),
        (Fraction(-8, 9), Fraction(-118, 27)),
    ]
    for k, (x, y) in enumerate(want, start=1):
        Q = scalar_mul(P, k)
        assert (Q.x, Q.y) == (x, y)
        assert RANK1_11.contains(Q.x, Q.y)
    O = PointQ(RANK1_11)
    assert (P + (-P)).is_infinity()
    assert (P + O).x == P.x


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(min_value=-6, max_value=6))
def test_scalar_multiples_stay_on_curve(k):
    P = PointQ(RANK1_11, Fraction(4), Fraction(5))
    Q = scalar_mul(P, k)
    if not Q.is_infinity():
        assert RANK1_11.contains(Q.x, Q.y)
    # group law consistency: (k+1)P = kP + P
    R = scalar_mul(P, k + 1)
    S = Q + P
    assert (R.is_infinity() and S.is_infinity()) or (R.x, R.y) == (S.x, S.y)
