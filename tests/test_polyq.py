"""Tests for exact polynomial arithmetic, composition and rational roots."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import modimage.polyq as polyq
from modimage.classifier import SIEVE_PRIMES
from modimage.polyq import (
    Poly,
    compose,
    exact_divide,
    poly_gcd,
    poly_sqrt,
    rational_roots,
    _pseudo_divmod,
)
from modimage.tables import (fibre, nonsplit11, prime_table, supported_primes,
                             verify_all)
from oracles import (cover_value, divisor_root_search, fraction_gcd,
                     fraction_poly_sqrt, schoolbook_product, termwise_compose)

T = Poly.var()


def poly_from_roots(roots, cofactor=None):
    f = Poly.const(1)
    for r in roots:
        f = f * (Fraction(r.denominator) * T - Fraction(r.numerator))
    if cofactor is not None:
        f = f * cofactor
    return f


small_fracs = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)

small_polys = st.lists(small_fracs, min_size=1, max_size=5).map(Poly)


def test_poly_basics():
    f = T ** 2 - 1
    g = T + 1
    assert f.degree == 2
    assert Poly.const(0).degree == -1
    assert exact_divide(f, g) == T - 1
    assert (T ** 3).derivative() == 3 * T ** 2
    assert f.evaluate(Fraction(3)) == 8
    assert (2 * T + 1).monic() == T + Fraction(1, 2)


def test_poly_division_rules():
    assert exact_divide(T ** 3 + T + 1, T ** 2 + 1) is None
    assert exact_divide(T ** 3 + T, T ** 2 + 1) == T
    assert exact_divide(Poly(), T + 1) == Poly()
    assert exact_divide(T + 1, T ** 2) is None
    with pytest.raises(ZeroDivisionError):
        exact_divide(T, Poly.const(0))


int_lists = st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                     max_size=7)


@settings(derandomize=True, deadline=None)
@given(int_lists, int_lists.filter(lambda b: b and b[-1]))
@example([1, 1, 0, 1], [1, 0, 1])
@example([5, -3], [2, 0, 7])
@example([], [3])
def test_pseudo_divmod_identity(a, b):
    q, r = _pseudo_divmod(a, b)
    e = max(len(a) - len(b) + 1, 0)
    assert Poly(a) * b[-1] ** e == Poly(q) * Poly(b) + Poly(r)
    assert len(r) < len(b) and (not r or r[-1] != 0)
    assert all(isinstance(c, int) for c in q + r)


def assert_stored_form(f):
    """ints over den: den > 0 coprime to the ints, no leading zero."""
    assert all(isinstance(c, int) for c in f.ints + (f.den,))
    assert f.den > 0 and math.gcd(f.den, *f.ints) == 1
    assert not f.ints or f.ints[-1] != 0


def trimmed(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


rationals = st.one_of(st.integers(min_value=-10 ** 20, max_value=10 ** 20),
                      st.fractions(max_denominator=10 ** 6))
nonzero_rationals = rationals.filter(lambda x: x != 0)
rational_lists = st.lists(st.one_of(rationals, st.just(0)), max_size=7)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rational_lists, rational_lists, nonzero_rationals, rationals)
@example([Fraction(1, 2), 0, 0], [Fraction(-1, 2), 0, 0], 3, 0)
@example([6, -4, 2], [Fraction(1, 3)], Fraction(-2, 7), Fraction(-1, 2))
def test_operations_match_fraction_lists(a, b, s, x):
    f, g = Poly(a), Poly(b)
    n = max(len(a), len(b))
    pa = [Fraction(c) for c in a] + [Fraction(0)] * (n - len(a))
    pb = [Fraction(c) for c in b] + [Fraction(0)] * (n - len(b))
    cases = [
        (f, pa),
        (f + g, [u + v for u, v in zip(pa, pb)]),
        (f - g, [u - v for u, v in zip(pa, pb)]),
        (s - f, [s - pa[0]] + [-u for u in pa[1:]] if pa else [s]),
        (-f, [-u for u in pa]),
        (f / s, [u / s for u in pa]),
        (f.derivative(), [i * u for i, u in enumerate(pa)][1:]),
        (f * g, schoolbook_product(f, g).coeffs),
    ]
    lead = trimmed(pa)
    if lead:
        cases.append((f.monic(), [u / lead[-1] for u in lead]))
    for result, expected in cases:
        assert result.coeffs == trimmed(expected)
        assert_stored_form(result)
    assert f.evaluate(x) == sum(u * Fraction(x) ** i for i, u in enumerate(pa))


@settings(derandomize=True, deadline=None)
@given(small_polys, small_polys)
def test_exact_divide_undoes_a_product(f, g):
    if g.degree < 0:
        return
    assert exact_divide(f * g, g) == f


@settings(derandomize=True, deadline=None)
@given(small_polys, small_polys)
def test_gcd_divides(f, g):
    d = poly_gcd(f, g)
    if d.degree < 0:
        assert f.degree < 0 and g.degree < 0
        return
    assert exact_divide(f, d) is not None
    assert exact_divide(g, d) is not None


# The largest prime below 2^30. Coefficients near its multiples once made
# the reductions of a modular coprimality test collide or lose their
# leading term; they stay as inputs that any gcd must get right.
P = 1073741789

gcd_coeffs = st.one_of(
    small_fracs,
    st.builds(lambda k, s: k * P + s, st.integers(min_value=-3, max_value=3),
              st.sampled_from([-1, 0, 1])),
)
gcd_polys = st.lists(gcd_coeffs, max_size=5).map(Poly)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(gcd_polys, gcd_polys, st.booleans(),
       st.lists(gcd_coeffs, min_size=2, max_size=4).map(Poly))
@example(T + P + 1, T + 1, True, P * T ** 2 + 1)
def test_gcd_matches_fraction_euclid(f, g, shared, h):
    if shared:
        f, g = f * h, g * h
    assert poly_gcd(f, g).coeffs == fraction_gcd(f, g)


@pytest.mark.parametrize("f, g, expected", [
    (T, T + P, Poly.const(1)),        # equal mod P
    (P * T + 1, T, Poly.const(1)),    # P divides lead(a)
    (T * (T + P), T, T),
    (Poly(), Poly(), Poly()),
    (Poly(), 2 * T + 4, T + 2),
    (Poly.const(3), T ** 2 + 1, Poly.const(1)),
    (Poly.const(3), Poly(), Poly.const(1)),
])
def test_gcd_edge_cases(f, g, expected):
    assert poly_gcd(f, g) == expected
    assert poly_gcd(g, f) == expected


def fibre_at_generic_j():
    """num - j*den for the 13.G6 cover at a j off every table."""
    cover = next(e.cover for e in prime_table(13).entries
                 if e.label == "13.G6")
    return cover.num - Fraction(1234567, 89) * cover.den


def test_trivial_gcd_skips_the_remainder_sequence(monkeypatch):
    def refuse(a, b):
        raise AssertionError("pseudo-division ran")

    monkeypatch.setattr(polyq, "_pseudo_divmod", refuse)
    f = fibre_at_generic_j()
    assert poly_gcd(f, f.derivative()) == 1


def test_common_factor_runs_the_division_check(monkeypatch):
    # the heuristic reads f off the packed gcd at the first point and
    # checks it by one division of each input; no remainder sequence runs
    calls = []

    def counted(a, b):
        calls.append(b)
        return _pseudo_divmod(a, b)

    monkeypatch.setattr(polyq, "_pseudo_divmod", counted)
    f = fibre_at_generic_j()
    assert poly_gcd(f ** 2, (f ** 2).derivative()) == f.monic()
    assert calls == [f.primitive()] * 2


def first_point(f, g):
    """xi = 2^k, the first point at which poly_gcd's heuristic evaluates
    f and g: the least power of two above 2 m + 2, with m the smaller of
    the heights of their primitive parts."""
    m = min(max(map(abs, h.primitive())) for h in (f, g))
    return 2 ** (2 * m + 2).bit_length()


near_powers = st.builds(lambda e, s, sign: sign * (2 ** e + s),
                        st.integers(min_value=0, max_value=70),
                        st.integers(min_value=-2, max_value=2),
                        st.sampled_from([1, -1]))
heuristic_polys = st.lists(
    st.one_of(st.integers(min_value=-9, max_value=9), near_powers),
    min_size=1, max_size=6).map(Poly).filter(lambda f: not f.is_zero())
small_int_polys = st.lists(st.integers(min_value=-3, max_value=3),
                           min_size=2, max_size=4).map(Poly).filter(
                               lambda f: not f.is_zero())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(heuristic_polys, small_int_polys, small_int_polys,
       st.lists(st.tuples(st.sampled_from([1, -1]),
                          st.integers(min_value=-2, max_value=2),
                          st.booleans()), min_size=1, max_size=5))
@example(Poly([1, 1, 1]), Poly([-7, 10]), Poly([1]), [(1, 0, False)])
@example((T - 1) ** 2, T + 2, T ** 2 - 3 * T + 3, [(-1, 1, True)])
def test_heuristic_gcd_matches_fraction_euclid(a, b, h, digits):
    # products with a shared factor h and coefficients near +-2^k, then a
    # cofactor whose coefficients sit near +-xi/2 and +-xi at the pair's
    # first evaluation point xi, the edges of one signed k-bit digit
    f, g = a * h, b * h
    assert poly_gcd(f, g).coeffs == fraction_gcd(f, g)
    half = first_point(f, g) // 2
    c = Poly([sign * (half * (2 if whole else 1) + s)
              for sign, s, whole in digits])
    for f2, g2 in ((c * h, g), (c, g), (c * h, h)):
        assert poly_gcd(f2, g2).coeffs == fraction_gcd(f2, g2)


def test_heuristic_that_gives_up_leaves_the_gcd_to_the_remainder_sequence(
        monkeypatch):
    # a coprimality certificate that never holds, and an unpacker one off
    # in the lowest digit: no expansion re-packs, so the heuristic tries
    # each of its points and gives up, coprime pairs included
    f = fibre_at_generic_j()
    pairs = [(f ** 2, (f ** 2).derivative()), (f, f.derivative()),
             ((T - 1) * (T + 2) ** 2, (T + 2) * (T ** 2 + 1))]
    unpack, tries = polyq._unpack, []

    def one_off(packed, k, n):
        tries.append(k)
        return [c + (i == 0) for i, c in enumerate(unpack(packed, k, n))]

    monkeypatch.setattr(polyq, "_coprime_at_small_point", lambda a, b: False)
    monkeypatch.setattr(polyq, "_unpack", one_off)
    for a, b in pairs:
        del tries[:]
        assert poly_gcd(a, b).coeffs == fraction_gcd(a, b)
        assert len(tries) == polyq._HEURISTIC_TRIES


def cauchy_bound(*fs):
    """B = 2 + min over the integer lists fs of
    floor(max_{i<n} |c_i| / |c_n|): every common root has |beta| < B."""
    return 2 + min(max(map(abs, f[:-1])) // abs(f[-1]) for f in fs)


def certificate_point(*fs):
    """xi = 2^k, the point of poly_gcd's coprimality certificate, with k
    _CERTIFICATE_BITS above the bit length of 2B."""
    return 2 ** ((2 * cauchy_bound(*fs)).bit_length()
                 + polyq._CERTIFICATE_BITS)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=9), near_powers.filter(bool),
       st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
       small_int_polys)
def test_a_common_root_near_the_bound_defeats_the_certificate(
        c, r, s, s2, cofactor):
    # h = cT - r is shared, and its root r/c lies within 3 of the bound
    # B the certificate rests on; h(xi) divides gamma, so the certificate
    # must fall through, and the heuristic or the remainder sequence finds h
    h = c * T - r
    f, g = h * (T + s), h * (T + s2) * cofactor
    a, b = f.primitive(), g.primitive()
    assert cauchy_bound(a, b) - 3 <= abs(Fraction(r, c)) < cauchy_bound(a, b)
    assert not polyq._coprime_at_small_point(a, b)
    assert poly_gcd(f, g).coeffs == fraction_gcd(f, g)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1,
                max_size=5), st.sampled_from([-3, -2, 1, 2]))
def test_a_coprime_pair_the_certificate_cannot_prove_goes_on(low, m):
    # a monic a and b = a + m a(xi), xi the certificate's point for a: b
    # differs from a by a constant, so they are coprime, but
    # gamma = gcd(a(xi), (1 + m) a(xi)) = |a(xi)| >= xi/2; b's huge
    # constant term leaves the bound, and so xi, to a
    a = Poly(low + [1])
    xi = certificate_point(a.primitive())
    b = a + m * a.evaluate(xi)
    assert certificate_point(a.primitive(), b.primitive()) == xi
    assert math.gcd(a.evaluate(xi).numerator,
                    b.evaluate(xi).numerator) >= xi // 2
    assert not polyq._coprime_at_small_point(a.primitive(), b.primitive())
    assert poly_gcd(a, b).coeffs == fraction_gcd(a, b) == (1,)


def test_an_expansion_that_does_not_repack_is_refused(monkeypatch):
    # at xi = 8 both T^2 + T + 1 and 10 T - 7 are 73 = 1 + 8 + 8^2, whose
    # two low digits, T + 1, would be read without the re-pack check; the
    # next point, 32, gives gamma = 1, so no candidate is ever divided
    def refuse(a, b):
        raise AssertionError(f"divided by {b}")

    monkeypatch.setattr(polyq, "_pseudo_divmod", refuse)
    assert poly_gcd(T ** 2 + T + 1, 10 * T - 7) == 1


def table_fibres():
    """The fibre of every cover of a table over the j of each member of
    each of the table's families at t = +-n/d, n in {5, 6, 7} and
    d in {1, 2, 3}."""
    ts = [Fraction(s * n, d) for n in (5, 6, 7) for d in (1, 2, 3)
          for s in (1, -1) if math.gcd(n, d) == 1]
    for l in supported_primes():
        covers = [e.relation for e in prime_table(l).entries if e.cover]
        for e in prime_table(l).entries:
            for t in ts if e.family else ():
                num, den = (c.evaluate(t) for c in e.cover)
                for relation in covers if den else ():
                    yield fibre(relation, num / den)[0]


def test_no_table_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    # the heuristic settles every gcd of the table checks and of the walk
    # over the table families, so the remainder sequence is only the path
    # that always finishes
    heuristic, settled, fallbacks = polyq._heuristic_gcd, [], []

    def counted(a, b):
        h = heuristic(a, b)
        (settled if h is not None else fallbacks).append((a, b))
        return h

    monkeypatch.setattr(polyq, "_heuristic_gcd", counted)
    assert all(ok for _, ok, _ in verify_all())
    for f in table_fibres():
        rational_roots(f)
    assert len(settled) > 1000 and fallbacks == []


big = 2 ** 200
product_coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=big - 1000, max_value=big + 1000),
    st.integers(min_value=-big - 1000, max_value=-big + 1000),
    st.builds(Fraction, st.integers(min_value=-10 ** 30, max_value=10 ** 30),
              st.integers(min_value=1, max_value=10 ** 12)),
)
product_polys = st.lists(product_coeffs, min_size=1, max_size=8).map(Poly)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(product_polys, product_polys)
@example(Poly([-big] * 6), Poly([big] * 4))
@example(Poly([big, 0, 0, -big]), Poly([-1, 0, 1]))
@example(Poly([Fraction(-2, 3)]), Poly([1, 0, Fraction(5, 7), -big]))
@example(Poly([1, 0, Fraction(5, 7), -big]), Poly([Fraction(-2, 3)]))
@example(Poly([Fraction(1, 3)]), Poly([-5]))
def test_product_matches_schoolbook(f, g):
    assert f * g == schoolbook_product(f, g)
    assert g * f == schoolbook_product(g, f)


def test_power_squares_only_while_bits_remain(monkeypatch):
    f = T ** 2 - Fraction(1, 2) * T + 3
    calls = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    for n in range(10):
        calls.clear()
        power = f ** n
        assert len(calls) == (n.bit_length() - 1 + bin(n).count("1")
                              if n else 0)
        expected = Poly.const(1)
        for _ in range(n):
            expected = schoolbook_product(expected, f)
        assert power == expected


@pytest.mark.parametrize("c", [3, Fraction(5, 7), -2])
@pytest.mark.parametrize("m", [0, 1, 5])
def test_monomial_power_is_written_down(monkeypatch, c, m):
    base = Poly([0] * m + [c])
    expected = [Poly.const(1)]
    for _ in range(6):
        expected.append(schoolbook_product(expected[-1], base))

    def no_mul(self, other):
        raise AssertionError("a monomial power multiplied")

    monkeypatch.setattr(Poly, "__mul__", no_mul)
    for n in range(7):
        assert base ** n == expected[n]


def test_exact_divide():
    assert exact_divide(T ** 2 - 1, T - 1) == T + 1
    assert exact_divide(T ** 2 + 1, T - 1) is None


def test_poly_sqrt():
    f = (T ** 2 + 3 * T + 1) ** 2
    assert poly_sqrt(f) in ((T ** 2 + 3 * T + 1), -(T ** 2 + 3 * T + 1))
    assert poly_sqrt(T ** 2 + 1) is None
    assert poly_sqrt(2 * T ** 2) is None


@st.composite
def near_squares(draw):
    """g*g for a random g, its negative, or g*g with its constant term
    moved."""
    g = draw(st.lists(product_coeffs, min_size=1, max_size=7).map(Poly))
    f = g * g
    return draw(st.sampled_from([f, -f, f + draw(product_coeffs)]))


def nonsplit11_quotient():
    """The discriminant of the nonsplit-11 criterion over its cubic
    factor: a square of degree 106 that verify_all checks."""
    crit = nonsplit11()
    delta = crit.B * crit.B - 4 * crit.A * crit.C
    return exact_divide(delta, T ** 3 - T ** 2 - 7 * T + Fraction(41, 4))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(near_squares())
@example(Poly())
@example(Poly([4]))
@example(Poly([-4]))
@example(T ** 3)
@example(Fraction(1, 4) * T ** 5 + 1)
@example(Fraction(1, 2) * (T + 1) ** 2)
@example(Fraction(9, 8) * T ** 2)
@example(T ** 4 + T ** 3)
@example((Fraction(2, 3) * T ** 2 - 5) ** 2 + Fraction(1, 9) * T)
@example(nonsplit11_quotient())
def test_poly_sqrt_matches_fraction_recurrence(f):
    assert poly_sqrt(f) == fraction_poly_sqrt(f)


def test_compose_rational():
    one = Poly.const(1)
    # (t^2)|_{t -> t+1} = t^2 + 2t + 1
    assert compose((T ** 2, one), (T + 1, one)) == ((T + 1) ** 2, one)
    # denominators are homogenised, no division by zero on the way
    assert compose((T, T + 2), (one, T)) == (one, 2 * T + 1)
    # a constant inner map at a pole of the outer one
    with pytest.raises(ZeroDivisionError):
        compose((T, T - 1), (one, one))


@settings(derandomize=True, deadline=None)
@given(small_polys, small_fracs)
def test_compose_agrees_with_evaluation(f, x):
    outer = (f, Poly.const(1))
    inner = (T ** 2 + 1, T - 7)
    if x == 7:
        return
    inner_val = cover_value(inner, x)
    assert cover_value(compose(outer, inner), x) == f.evaluate(inner_val)


def _composed(outer, inner, compose):
    try:
        return compose(outer, inner)
    except ZeroDivisionError:
        return ZeroDivisionError


def polys_up_to(degree):
    # the zero polynomial and constants among them
    return st.lists(small_fracs, max_size=degree + 1).map(Poly)


ONE = Poly.const(1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.tuples(polys_up_to(15), polys_up_to(15)),
       st.tuples(polys_up_to(4), polys_up_to(4)))
@example((T ** 2, ONE), (Poly.const(Fraction(-3, 7)), ONE))  # constant inner
@example((Poly(), T + 1), (T / 3, T - Fraction(1, 2)))  # zero numerator
@example((T ** 15 - 7 * T, -2 * T ** 4 + 9),
         (Fraction(-5, 3) * T ** 3 + 1, Fraction(2, 9) * T - 4))
@example((T, T - 1), (ONE, ONE))  # a pole everywhere
@example((T ** 3, ONE), (Poly(), T))  # inner zero
@example((T ** 3 + T, T ** 2), (T, Poly()))  # inner infinity
def test_compose_matches_termwise_substitution(outer, inner):
    # the same Poly pair, not only the same map
    assert _composed(outer, inner, compose) == \
        _composed(outer, inner, termwise_compose)


def test_rational_roots_anchor():
    f = poly_from_roots([Fraction(2, 3), Fraction(-5), Fraction(0)], T ** 2 + 1)
    assert rational_roots(f) == {Fraction(2, 3), Fraction(-5), Fraction(0)}
    assert rational_roots(T ** 2 + 1) == set()
    assert rational_roots(Poly.const(5)) == set()
    # roots colliding mod 2 (and mod 3) move the lifting prime to 3 (and 5)
    assert rational_roots((T - 1) * (T - 3)) == {1, 3}
    assert rational_roots((T - 1) * (T - 4) * (T - 7)) == {1, 4, 7}
    # a repeated root at 0 goes through the squarefree part, a simple one not
    assert rational_roots(T ** 2 * (2 * T - 1)) == {0, Fraction(1, 2)}
    assert rational_roots(5 * T) == {0}
    # roots with no residue mod 2, or mod any prime up to 29:
    # 6469693230 = 2*3*5*...*29 is their product
    assert rational_roots(2 * T - 1) == {Fraction(1, 2)}
    assert rational_roots(6469693230 * T - 1) == {Fraction(1, 6469693230)}


@pytest.mark.parametrize("call", [
    lambda: Poly(1.5),
    lambda: Poly(["a"]),
    lambda: Poly(T),
    lambda: T.evaluate(1.5),
    lambda: rational_roots(1.5),
    lambda: rational_roots([0] * 100000),  # quoted by a short prefix
    lambda: poly_gcd(1.5, T),
    lambda: exact_divide(T, 2),
    lambda: compose((1.5, ONE), (T, ONE)),
    lambda: compose((T, ONE), (T, "t")),
    lambda: poly_sqrt(1.5),
    lambda: polyq.fibre_image_mod((T, 2), 5),
    lambda: polyq.format_poly(3),
])
def test_a_wrong_type_raises_type_error(call):
    with pytest.raises(TypeError, match="^not a (Poly|rational|list of "
                                        "rationals): .{1,43}$"):
        call()


@pytest.mark.parametrize("p", [4, 1, 0, -5, 5.0, Fraction(5), "5", None,
                               True, 91])
def test_fibre_image_mod_needs_a_prime(p):
    # p = 4 returned {0, 1, 2, 3, 4} and p = 1 returned None
    with pytest.raises(ValueError, match="is not a prime$"):
        polyq.fibre_image_mod((T, -ONE), p)


@pytest.mark.parametrize("p", [1009, 2 ** 127 - 1, 10 ** 30])
def test_fibre_image_mod_refuses_a_prime_above_its_bound(p):
    # its time grows as p^2 (0.36 s for the nonsplit-11 criterion at
    # p = 1009); the walk sieve reads it at SIEVE_PRIMES alone
    assert max(SIEVE_PRIMES) <= polyq.MAX_FIBRE_PRIME < 1009
    with pytest.raises(ValueError, match=" is above 1000$"):
        polyq.fibre_image_mod((T, -ONE), p)


def brute_fibre_image_mod(coeffs, p):
    """The (a : b) of P^1(F_p), written as fibre_image_mod writes them
    (a/b in range(p), infinity as p), at which the form
    sum c_i(x) a^i b^(k-i) vanishes mod p for some x in P^1(F_p), with
    coeffs = (c_0, ..., c_k) scaled to coprime integers and homogenized
    at their largest degree n (at x = infinity, the degree-n
    coefficients). None when every c_i vanishes at one x."""
    n = max(c.degree for c in coeffs)
    flat = [c[i] for c in coeffs for i in range(n + 1)]
    scale = math.lcm(*(c.denominator for c in flat))
    ints = [int(c * scale) for c in flat]
    g = math.gcd(*ints)
    forms = [[c // g for c in ints[k:k + n + 1]]
             for k in range(0, len(ints), n + 1)]
    values = [[sum(c * x ** i for i, c in enumerate(f)) % p for f in forms]
              for x in range(p)] + [[f[n] % p for f in forms]]
    points = [(a, 1) for a in range(p)] + [(1, 0)]
    k = len(coeffs) - 1
    image = set()
    for vals in values:
        if not any(vals):
            return None
        image |= {a if b else p for a, b in points
                  if sum(v * a ** i * b ** (k - i)
                         for i, v in enumerate(vals)) % p == 0}
    return image


def test_fibre_image_mod():
    one, zero = Poly.const(1), Poly()

    def cover(num, den, p):
        return polyq.fibre_image_mod((num, -den), p)

    def quadratic(A, B, C, p):
        return polyq.fibre_image_mod((C, B, A), p)

    # covers num - j*den
    assert cover(T ** 2, one, 5) == {0, 1, 4, 5}
    # T / (T + 1)^2 mod 2: a pole at 1 and a zero at infinity
    assert cover(T, T ** 2 + 1, 2) == {0, 2}
    # a content shared by num and den is no common zero
    assert cover(2 * T, Poly.const(2), 2) == {0, 1, 2}
    assert cover(T ** 2 + 1, T + 3, 2) is None
    # T^2 + 1 has no root mod 3, so 0 is missed
    assert cover(T ** 2 + 1, T + 3, 3) == {1, 2, 3}
    # relations quadratic in j, A j^2 + B j + C
    # j^2 = x: every j over x = j^2, and infinity over x = infinity
    assert quadratic(one, zero, -T, 5) == set(range(6))
    # j^2 + 1 = 0 has no point mod 3 and one (x free) mod 5 at j = 2, 3
    assert quadratic(one, zero, one, 3) == set()
    assert quadratic(one, zero, one, 5) == {2, 3}
    # x j^2 - j = 0: j = 0 at every x, j = 1/x, and infinity at x = 0
    assert quadratic(T, -one, zero, 3) == {0, 1, 2, 3}
    # A, B and C all vanish at x = 1 mod 2
    assert quadratic(T + 1, T + 3, T - 1, 2) is None
    assert quadratic(T + 1, T + 3, T - 1, 3) is not None
    # a constant relation, (j - 3)(j - 1/2)(j + 121): its j-values, 1/2
    # at infinity mod 2
    jvals = tuple(map(Poly.const, ((T - 3) * (T - Fraction(1, 2))
                                   * (T + 121)).coeffs))
    assert polyq.fibre_image_mod(jvals, 2) == {1, 2}
    assert polyq.fibre_image_mod(jvals, 5) == {3, 4}
    cases = [(T ** 2 + 1, Fraction(1, 2) * T, T ** 3 - 7),
             (Poly([3, 0, 2]), Poly([Fraction(5, 3), 1]), Poly([-4, 0, 1])),
             (2 * T, Poly.const(6), 4 * T ** 2 - 2)]
    relations = [(C, B, A) for A, B, C in cases] + [
        jvals, (T ** 2 + 1, T + 3), (T ** 3 - 2, 5 * T, T - 1, T ** 2)]
    for coeffs in relations:
        for p in SIEVE_PRIMES:
            assert polyq.fibre_image_mod(coeffs, p) == \
                brute_fibre_image_mod(coeffs, p), (coeffs, p)
    for l in supported_primes():
        for entry in prime_table(l).entries:
            for p in SIEVE_PRIMES:
                assert polyq.fibre_image_mod(entry.relation, p) == \
                    brute_fibre_image_mod(entry.relation, p), (entry.label, p)


def test_rational_roots_root_free_only_over_q_reaches_the_exact_path(
        monkeypatch):
    # every p has 2, 3 or 6 a square mod p, so f has a root mod every prime
    # and only the exact path, through the squarefree gcd, finds it root-free
    f = (T ** 2 - 2) * (T ** 2 - 3) * (T ** 2 - 6)
    calls = []
    gcd = polyq.poly_gcd

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(polyq, "poly_gcd", counted)
    assert rational_roots(f) == set()
    assert len(calls) == 1


def test_rational_roots_repeated_and_big():
    f = (3 * T - 2) ** 3 * (T + 1) ** 2 * (T ** 2 + T + 1)
    assert rational_roots(f) == {Fraction(2, 3), Fraction(-1)}
    # large planted root exercises the lifting precision loop
    big = Fraction(99991, 2 ** 20)
    assert rational_roots(poly_from_roots([big])) == {big}


def lift_log(monkeypatch, f):
    """Record each rational reconstruction of rational_roots on the
    squarefree f as (whether its modulus reached the precision the root
    bounds of f call for, its candidate)."""
    ints = f.primitive()
    an, height = abs(ints[-1]), max(map(abs, ints))
    target = 2 * (abs(ints[0]) or an + height) * an + 1
    log = []
    reconstruct = polyq._rational_reconstruct

    def recorded(x, m, bound_u, bound_v):
        cand = reconstruct(x, m, bound_u, bound_v)
        log.append((m >= target, cand))
        return cand

    monkeypatch.setattr(polyq, "_rational_reconstruct", recorded)
    return log


def test_lift_stops_at_the_first_verified_root(monkeypatch):
    # tall coefficients, small roots: each residue stops at a verified
    # candidate long before the precision the root bounds call for
    f = (2 * T - 1) * (T - 3) * (T ** 2 + 10 ** 30)
    log = lift_log(monkeypatch, f)
    assert rational_roots(f) == {Fraction(1, 2), Fraction(3)}
    assert len(log) == 3 and not any(full for full, _ in log)
    assert {cand for _, cand in log} == {None, Fraction(1, 2), Fraction(3)}


def test_lift_reaches_the_full_bounds_when_no_early_candidate_holds(
        monkeypatch):
    # the root is as tall as the bounds allow, so only the last, full
    # reconstruction finds it; the early candidates fail substitution and
    # the lift goes on past them
    big = Fraction(99991, 2 ** 20)
    f = poly_from_roots([big])
    log = lift_log(monkeypatch, f)
    assert rational_roots(f) == {big}
    assert log[-1] == (True, big)
    assert [cand for full, cand in log if not full and cand is not None] \
        == [Fraction(-2), Fraction(5, 2), Fraction(43)]
    # residues 1 and 2 mod 3 lift to +-sqrt(7), no rational root: each
    # ends in a full reconstruction, and 0 stops early at t = 3 (T^2 +
    # 10^12 has no root mod 3, and only makes the bounds tall)
    f = (T - 3) * (T ** 2 - 7) * (T ** 2 + 10 ** 12)
    log = lift_log(monkeypatch, f)
    assert rational_roots(f) == {3}
    assert [full for full, cand in log if cand == 3] == [False]
    assert sum(full for full, _ in log) == 2


big_roots = st.builds(Fraction,
                      st.sampled_from([99991, -99991, 65521, -3 ** 10, 1]),
                      st.sampled_from([1, 2 ** 20, 3 ** 12, 2 ** 7 * 5 ** 3]))
irreducible_quadratics = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
).filter(lambda q: q[2] != 0 and not math.isqrt(max(q[1] ** 2 - 4 * q[0]
                                                    * q[2], 0)) ** 2
         == q[1] ** 2 - 4 * q[0] * q[2])
multiplicity = st.integers(min_value=1, max_value=3)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(small_fracs, multiplicity), max_size=3),
    st.lists(big_roots, max_size=1),
    st.lists(st.tuples(irreducible_quadratics, st.integers(min_value=1,
                                                           max_value=2)),
             max_size=2),
)
@example([], [Fraction(99991, 2 ** 20)], [])
@example([], [Fraction(99991)], [])        # cut bounds never reach 99991
@example([(Fraction(3), 1)], [], [((1, 0, -7), 1)])
@example([(Fraction(2, 3), 2)], [Fraction(-3 ** 10, 2 ** 20)],
         [((1, 1, 2), 1)])
def test_early_stopping_lift_against_divisor_search(small, big, quadratics):
    # planted rational roots, repeated or tall, times irreducible
    # quadratics whose residues lift to no rational root
    f = poly_from_roots(big)
    for r, m in small:
        f = f * poly_from_roots([r]) ** m
    for (a, b, c), m in quadratics:
        f = f * (a * T ** 2 + b * T + c) ** m
    if f.degree < 1:
        return
    assert rational_roots(f) == divisor_root_search(f)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(small_fracs, min_size=0, max_size=4),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3),
)
def test_rational_roots_against_divisor_search(roots, cof):
    cofactor = Poly([Fraction(c) for c in cof])
    if cofactor.degree < 0:
        cofactor = Poly.const(1)
    f = poly_from_roots(roots, cofactor)
    if f.degree < 1:
        return
    assert rational_roots(f) == divisor_root_search(f)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(small_fracs, st.integers(min_value=2, max_value=3)),
             min_size=1, max_size=2),
    st.lists(small_fracs, max_size=2),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=9),
)
def test_rational_roots_through_a_nontrivial_squarefree_part(repeated, simple,
                                                            b, c):
    # squared or cubed rational roots times a squared irreducible quadratic
    # (discriminant -3b^2 - 4c < 0), so gcd(f, f') has degree >= 3 and the
    # squarefree part is an exact division
    f = poly_from_roots(simple, (T ** 2 + b * T + b * b + c) ** 2)
    for r, m in repeated:
        f = f * poly_from_roots([r]) ** m
    assert poly_gcd(f, f.derivative()).degree >= 3
    assert rational_roots(f) == divisor_root_search(f)



@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.integers(min_value=-10 ** 12, max_value=10 ** 12),
    st.integers(min_value=1, max_value=10 ** 6),
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3),
)
@example(99991, 1, 0, [1])                 # |u| = |a_0|: the numerator bound
@example(-99991, 2 ** 20, 0, [1, 0, 1])
@example(0, 1, 1, [3, 1])                  # a_0 = 0 and a root at 0
@example(5, 3, 2, [0, 1])
def test_rational_root_theorem_against_divisor_search(u, v, zeros, cof):
    # a root u/v, t^zeros and a cofactor: the lift's bounds are |a_0| when
    # a_0 != 0, so a root with |u| = |a_0| sits on the bound, and the
    # divisibility test refuses candidates before substitution
    f = (v * T - u) * T ** zeros * Poly(cof)
    if f.degree < 1:
        return
    assert rational_roots(f) == divisor_root_search(f)


@pytest.mark.parametrize("p, v, cofactor", [
    (2, 5 ** 9 * 11, T ** 2 + T + 1),   # no root mod 2
    (3, 2 ** 15 * 7, T ** 2 + 1),       # 2 | a_n, and no root mod 3
])
@pytest.mark.parametrize("u", [1, -3, 3 ** 20 * 13 ** 5, -3 ** 9 * 17 ** 4])
def test_root_at_the_full_bound_at_lifting_primes_2_and_3(monkeypatch, p, v,
                                                          cofactor, u):
    # f = (vT - u) * cofactor, with cofactor(0) = lead(cofactor) = 1: its
    # root u/v has |u| = |a_0| and v = |a_n|, the rational root theorem's
    # bounds exactly. The moduli squared below the target 2|a_0||a_n| + 1
    # are p^(2^i), and the last is P, the least power of p at or above it
    f = (v * T - u) * cofactor
    ints = f.primitive()
    target = 2 * abs(ints[0] * ints[-1]) + 1
    dints = [i * c for i, c in enumerate(ints)][1:]
    assert polyq._lifting_prime(ints, dints)[0] == p
    P = p
    while P < target:
        P *= p
    moduli, reconstruct = [], polyq._rational_reconstruct

    def recorded(x, m, bound_u, bound_v):
        moduli.append(m)
        return reconstruct(x, m, bound_u, bound_v)

    monkeypatch.setattr(polyq, "_rational_reconstruct", recorded)
    assert rational_roots(f) == divisor_root_search(f) == {Fraction(u, v)}
    assert moduli == [p ** 2 ** i for i in range(1, len(moduli))] + [P]
