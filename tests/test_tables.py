"""Tests for the classification tables.

verify_all re-derives every internal consistency identity; on top of
that we freeze a handful of externally known values: j-invariants of
named curves, the image of the nonsplit-11 criterion map at small
multiples of its generator, and conjugacy of listed generators with the
standard subgroup constructors.
"""

import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import modimage.classifier as classifier
import modimage.tables as tables
from modimage.classifier import SIEVE_PRIMES, _cover_parameters
from modimage.ec import PointQ, ShortCurve, scalar_mul
from modimage.exactmath import primes_up_to
from modimage.gl2 import (Mat2, Subgroup, borel, cartan_split, gl2_order,
                          is_applicable, is_twist_pair, normalizer_nonsplit,
                          octahedral_normalizer, primitive_root)
from modimage.polyq import INFINITY, Poly, compose, fibre_image_mod, poly_gcd
from modimage.tables import (CM_TABLE, Cover, PrimeTable, TableEntry,
                             cm_entry, emit_text, group_from_label,
                             nonsplit11, nonsplit11_contains, nonsplit11_j,
                             prime_table, supported_primes, verify_all)
from oracles import (brute_force_ap, cover_value, divisor_root_search,
                     enumerated_twist_pair, is_conjugate,
                     subgroup_fingerprints, termwise_compose,
                     unsieved_first_hit, value_at_infinity)

T = Poly.var()

# sha256 of emit_text(): any drift in a transcribed constant or in the
# normalisation of cover denominators changes it
EMIT_TEXT_SHA256 = \
    "716b2ba95c75ac185a00a4509706c4ea7a063282af84e84c50c162560ef782e7"

# sha256 of the names of verify_all's checks, in order, one a line: a
# speed-up that dropped or renamed a check changes it
CHECK_NAMES_SHA256 = \
    "81cd8fceab307749c8621ee6659abbaf8d50f17d60061f93225dfd4059f584f2"


def test_verify_all_green():
    results = verify_all()
    bad = [(name, detail) for name, ok, detail in results if not ok]
    assert bad == []
    assert len(results) > 150


def test_emit_text_is_pinned():
    digest = hashlib.sha256(emit_text().encode()).hexdigest()
    assert digest == EMIT_TEXT_SHA256


def test_every_cover_is_checked_coprime(monkeypatch):
    # the fiber test reads rational preimages of j as the roots of
    # num - j*den, which is only right when num and den are coprime
    covers = [f"coprime:{e.label}" for l in supported_primes()
              for e in prime_table(l).entries if e.cover is not None]
    checks = [(name, ok) for name, ok, _ in verify_all()
              if name.startswith("coprime:")]
    assert checks == [(name, True) for name in covers]

    def common_factor(e):
        if e.label != "2.G2":
            return e
        return e._replace(cover=Cover(
            e.cover.num * (T - 1), e.cover.den * (T - 1)))

    real = tables.prime_table
    bad = real(2)._replace(
        entries=tuple(map(common_factor, real(2).entries)))
    monkeypatch.setattr(tables, "prime_table",
                        lambda l: bad if l == 2 else real(l))
    failed = [name for name, ok, _ in tables.verify_all() if not ok]
    assert failed == ["coprime:2.G2"]


def test_check_names_are_pinned():
    names = [name for name, _, _ in verify_all()]
    assert len(names) == 188
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == CHECK_NAMES_SHA256


def test_compose_checks_match_termwise_substitution():
    # the same Poly pairs as the term-by-term substitution, not only the
    # same maps
    checks = tables._composition_checks()
    assert len(checks) == 17
    for l, outer, inner, target in checks:
        cover = tables._entry(l, outer).cover
        assert compose(cover, inner) == termwise_compose(cover, inner), \
            (l, outer, target)


def _table_pairs():
    """(G, H) for every entry G and twist refinement H of the tables."""
    return [(group_from_label(l, e.label), group_from_label(l, sub))
            for l in supported_primes() for e in prime_table(l).entries
            for sub in dict(e.subs)]


def test_twist_pairs_agree_with_enumeration():
    pairs = _table_pairs()
    assert len(pairs) == 26
    on_elements = []
    for G, H in pairs:
        assert is_twist_pair(G, H) and enumerated_twist_pair(G, H), H.label
        if "elements" in vars(H):
            on_elements.append(H.label)
        else:  # the closed form read no element of either group
            assert "elements" not in vars(G), H.label
    assert on_elements == ["3.H1.1", "5.H1.1", "5.H1.2", "7.H1.1"]


def _square_subgroups():
    """Index-2 subgroups that hold -I: the upper-triangular matrices of
    the Borel group at 13 with a square top-left entry (-1 is a square
    mod 13), in closed form, and the diagonal matrices of determinant a
    square at 5, on their elements."""
    g13, g5 = primitive_root(13), primitive_root(5)
    return [(borel(13), Subgroup(13, [Mat2(g13 ** 2, 0, 0, 1, 13),
                                      Mat2(1, 0, 0, g13, 13),
                                      Mat2(1, 1, 0, 1, 13)])),
            (cartan_split(5), Subgroup(5, [Mat2(g5, 0, 0, g5, 5),
                                           Mat2(g5 ** 2, 0, 0, 1, 5)]))]


def test_non_twist_pairs_are_refused():
    pairs = _table_pairs()
    squares = _square_subgroups()
    for G, H in squares:
        assert 2 * H.order == G.order
        assert -Mat2.identity(G.l) in H.elements
    # each group with itself, the square subgroups, and each entry with
    # the refinement of another entry at its prime
    cases = [(G, G) for G, _ in pairs] + squares + [
        (G, H) for G, _ in pairs for G2, H in pairs
        if G.l == G2.l and G.label != G2.label]
    assert len(cases) > 60
    cases.append((borel(7), Subgroup(5, [Mat2(1, 1, 0, 1, 5)])))  # two l
    for G, H in cases:
        assert not is_twist_pair(G, H), (G.label, H.label)
        assert not enumerated_twist_pair(G, H), (G.label, H.label)


@pytest.mark.parametrize("label, sub, gens, closed_form", [
    # the generators of 13.H5.1, a twist refinement of 13.G5
    ("13.G4", "13.H4.1", ((3, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)), True),
    # diag(+-1, +-1), an index-2 subgroup of 5.G1 that holds -I
    ("5.G1", "5.H1.1", ((4, 0, 0, 1), (1, 0, 0, 4)), False),
])
def test_every_twist_pair_is_checked(monkeypatch, label, sub, gens,
                                     closed_form):
    l = int(label.partition(".")[0])

    def wrong_sub(e):
        if e.label != label:
            return e
        return e._replace(subs=tuple((s, gens if s == sub else g)
                                     for s, g in e.subs))

    real = tables.prime_table
    bad = real(l)._replace(entries=tuple(map(wrong_sub, real(l).entries)))
    monkeypatch.setattr(tables, "prime_table",
                        lambda k: bad if k == l else real(k))
    H = group_from_label(l, sub)
    assert (H._diagonals is not None) == closed_form
    failed = [name for name, ok, _ in tables.verify_all() if not ok]
    assert failed == [f"twist-pair:{sub}"]


def test_prime_table_only_at_table_primes():
    with pytest.raises(ValueError) as info:
        prime_table(19)
    assert str(info.value) == "no table for l = 19"


def test_each_table_label_names_one_generator_set():
    # group_from_label resolves a label to the first entry that lists it,
    # so a label listed twice must carry the same generators each time
    gens = {}
    for l in supported_primes():
        for e in prime_table(l).entries:
            for label, g in ((e.label, e.gens), *e.subs):
                gens.setdefault(label, set()).add(g)
    assert len(gens) == 63
    assert all(len(g) == 1 for g in gens.values())


def test_tables_listed_by_decreasing_index():
    for l in supported_primes():
        entries = prime_table(l).entries
        indexes = [e.index for e in entries]
        assert indexes == sorted(indexes, reverse=True)


def test_fixed_curves_are_known_j():
    t11 = prime_table(11)
    by_label = {e.label: e for e in t11.entries}
    assert by_label["11.G1"].curve.j_invariant() == -121
    assert by_label["11.G2"].curve.j_invariant() == -24729001


def test_cover_values_pin_down_transcription():
    # independent spot values of the genus zero covers
    assert cover_value(prime_table(2).entries[0].cover, F(2)) == F(21952, 9)
    assert cover_value(prime_table(5).entries[7].cover, F(1)) \
        == 5 ** 2 * 16 ** 3
    # the five covers with a finite value at t = infinity, all CM j's but
    # one; the fiber test finds t = infinity over each
    finite_at_infinity = {}
    for l in supported_primes():
        for e in prime_table(l).entries:
            if e.cover is None:
                continue
            v = value_at_infinity(e.cover)
            if v is not None:
                finite_at_infinity[e.label] = v
                assert tables._fiber_contains(e.relation, v)
    assert finite_at_infinity == {
        "5.G3": F(0), "5.G7": F(8000), "7.G5": F(-3375), "7.G6": F(8000),
        "13.G3": F(-49353408, 5),
    }
    # the only non-CM value in that list has affine preimages as well, so
    # a rational-root search cannot silently miss a containment
    cover = prime_table(13).entries[3].cover
    assert cover_value(cover, F(0)) == F(-49353408, 5)
    assert cover_value(cover, F(1)) == F(-49353408, 5)


def test_same_map_cross_multiplies():
    assert tables._same_map((T ** 2 - 1, 2 * T + 2), (T - 1, Poly.const(2)))
    assert tables._same_map((T, T), (Poly.const(1), Poly.const(1)))
    assert not tables._same_map((T, T + 1), (T, T + 2))


small_fracs = st.builds(F, st.integers(min_value=-9, max_value=9),
                        st.integers(min_value=1, max_value=4))
small_polys = st.lists(small_fracs, min_size=1, max_size=5).map(Poly)


@settings(derandomize=True, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_same_map_ignores_a_common_factor(f, g, h):
    if g.degree < 0 or h.degree < 0:
        return
    assert tables._same_map((f * h, g * h), (f, g))


# a nonconstant cover: num and den nonzero, coprime, not both constant
covers = st.tuples(small_polys, small_polys).filter(
    lambda c: min(c[0].degree, c[1].degree) >= 0
    and max(c[0].degree, c[1].degree) >= 1
    and poly_gcd(*c).degree == 0)


TABLE_ENTRIES = tuple(e for l in supported_primes()
                      for e in prime_table(l).entries)


def _values_at_infinity(entry):
    """The j over the point t = infinity of an entry's relation: a
    cover's limit there, if finite; 54000 for 11.G3's criterion, where
    the leading terms of A j^2 + B j + C cancel; and each value of a
    j-value set, whose fibre there is zero, so that every t lies over
    it."""
    if entry.cover is not None:
        limit = value_at_infinity(entry.cover)
        return set() if limit is None else {limit}
    return {F(54000)} if entry.criterion else set(entry.jvals)


def _at_every_table_entry(test):
    """test with two explicit examples per table entry: j at a value over
    its point at infinity, and j = 1."""
    for entry in TABLE_ENTRIES:
        for at_limit in (True, False):
            test = example(entry, F(1), at_limit)(test)
    return test


@settings(derandomize=True, deadline=None)
@given(st.one_of(covers, st.sampled_from(TABLE_ENTRIES)), small_fracs,
       st.booleans())
@example((T + 1, T - 1), F(3), True)        # equal degrees: the lead ratio
@example((T + 1, T - 1), F(3), False)
@example((T ** 2, T + 1), F(1), True)       # a pole at infinity
@example((T, T ** 2 + 1), F(1), True)       # 0 at infinity
@example((T, T ** 2 + 1), F(1), False)
@_at_every_table_entry
def test_infinity_lies_over_j_exactly_at_the_value_there(cover, j, at_limit):
    # cover is a (num, den) pair or a table entry; j is a value over its
    # point at infinity when at_limit and there is one
    entry = cover if isinstance(cover, TableEntry) else \
        TableEntry("test", 1, (), cover=Cover(*cover))
    limits = _values_at_infinity(entry)
    if at_limit and limits:
        j = min(limits)
    at_infinity = j in limits
    params = _cover_parameters(entry, j)
    contains = tables._fiber_contains(entry.relation, j)
    assert tables.fibre(entry.relation, j)[1] == at_infinity
    if entry.cover is None:
        # a j-value or criterion hit names no parameter; a j-value set
        # has no point over any other j
        assert params == [None] * contains
        if at_infinity or entry.jvals:
            assert contains == at_infinity
        return
    roots = divisor_root_search(entry.cover.num - j * entry.cover.den)
    assert params == sorted(roots - entry.bad_t,
                            key=lambda t: (t.denominator, t.numerator)) \
        + [INFINITY] * at_infinity
    assert contains == (at_infinity or bool(roots))


# coefficients past the small sieve primes, so that num and den often
# share a zero modulo one of them and the image there says nothing
wide_polys = st.lists(st.integers(min_value=-40, max_value=40), min_size=1,
                      max_size=5).map(Poly)
wide_covers = st.tuples(wide_polys, wide_polys).filter(
    lambda c: min(c[0].degree, c[1].degree) >= 0
    and max(c[0].degree, c[1].degree) >= 1
    and poly_gcd(*c).degree == 0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(wide_covers, st.one_of(small_fracs, st.none()))
@example((T ** 2 + 1, T + 3), F(1))         # both vanish at 1 mod 2
@example((T ** 2 + 1, T + 3), F(0))         # j = 1/3
@example((T ** 2 + T + 1, T - 1), F(4))     # both vanish at 1 mod 3
@example((2 * T + 1, 3 * T + 3), None)      # j = 2/3 at infinity
@example((T ** 3, T + 1), F(29))            # j = 29^3 / (2 * 3 * 5)
@example((T, T ** 2 + 1), F(1, 13))         # j = 13 / (2 * 5 * 17)
@example((T, T ** 2 + 1), F(667))           # 23 * 29 divides num(j)
def test_cover_parameters_find_each_parameter_over_its_value(cover, t):
    # t = None stands for t = infinity
    j = value_at_infinity(cover) if t is None else cover_value(cover, t)
    if j is None:
        return
    entry = TableEntry("test", 1, (), cover=Cover(*cover))
    params = _cover_parameters(entry, j)
    assert (INFINITY if t is None else t) in params
    roots = divisor_root_search(cover[0] - j * cover[1])
    assert params == sorted(roots, key=lambda r: (r.denominator, r.numerator)) \
        + [INFINITY] * (j == value_at_infinity(cover))


def test_every_table_cover_finds_its_parameters_on_a_grid():
    # 2580 (cover, t) pairs with t = n/d, |n| <= 12, 1 <= d <= 6
    grid = sorted({F(n, d) for n in range(-12, 13) for d in range(1, 7)})
    pairs = 0
    for l in supported_primes():
        for entry in prime_table(l).entries:
            if entry.cover is None:
                continue
            for t in grid:
                j = cover_value(entry.cover, t)
                if t in entry.bad_t or j is None:
                    continue
                assert t in _cover_parameters(entry, j), (entry.label, t)
                pairs += 1
    assert pairs == 2580


def _hit_label(hit):
    return None if hit is None else (hit[0].label, hit[1])


def _first_hit_in(monkeypatch, entries, j, l=2):
    """_first_hit(j, l) with the table for l made of entries, as
    (label, t), or None."""
    table = PrimeTable(l, l, tuple(entries))
    monkeypatch.setattr(classifier, "prime_table", lambda _: table)
    return _hit_label(classifier._first_hit(j, l))


def test_tables_under_one_prime_keep_their_own_sieves(monkeypatch):
    # T^2 has no point over j = 2 modulo 3, where 2 is no square; T + 5
    # has t = -3 over it. Each table is freed before the next is built,
    # so a sieve kept by l or by id() would be served to the next table.
    monkeypatch.setattr(classifier, "_SIEVES", {})

    def hit(num):
        return _first_hit_in(monkeypatch,
                             [TableEntry("same", 1, (), cover=Cover(num))],
                             F(2))

    square, shift = T ** 2, T + 5
    for _ in range(2):
        assert hit(square) is None
        assert hit(shift) == ("same", F(-3))


def test_walk_sieves_are_bounded(monkeypatch):
    monkeypatch.setattr(classifier, "_SIEVES", {})
    for k in range(1, 200):
        entry = TableEntry("test", 1, (), cover=Cover(T ** 2 + k))
        assert _first_hit_in(monkeypatch, [entry], F(k + 1)) == \
            ("test", F(-1))
        # a new table at l replaces the sieve of the last one
        assert list(classifier._SIEVES) == [2]
    monkeypatch.undo()
    # the sieve of a table prime holds p + 1 masks of one bit per entry
    # at each sieve prime, however many j are walked
    for k in range(1, 200):
        for l in supported_primes():
            classifier._first_hit(F(k + 1), l)
    for l in supported_primes():
        sieve = classifier._SIEVES[l]
        assert sieve.entries is prime_table(l).entries
        for p in SIEVE_PRIMES:
            assert len(sieve.masks[p]) == p + 1
            assert all(0 <= m < 1 << len(sieve.entries)
                       for m in sieve.masks[p])


def test_criterion_curve_points_map_to_cm_j():
    crit = nonsplit11()
    gen = PointQ(crit.curve, *crit.generator)
    values = [nonsplit11_j(*(lambda q: (q.x, q.y))(scalar_mul(gen, k)))
              for k in range(1, 6)]
    assert values[0] == -147197952000          # CM discriminant -67
    assert values[1] == 1728                   # CM discriminant -4
    assert values[2] is INFINITY               # a cusp
    assert values[3] == -262537412640768000    # CM discriminant -163
    assert values[4] == F(
        15998695788196884593181069048231000,
        55614717793339117396720595443969)


def test_criterion_contains_inert_cm_j():
    # 54000 sits over the point at infinity, the rest over affine points
    assert nonsplit11_contains(54000)
    assert nonsplit11_contains(0)
    assert nonsplit11_contains(-12288000)
    assert nonsplit11_contains(1728)
    assert nonsplit11_contains(-147197952000)
    assert not nonsplit11_contains(F(1))
    assert not nonsplit11_contains(8000)       # split at 11, not inert


def _criterion_j():
    """The inert CM j-invariants and the j of +-k P for k = 1..6, P the
    generator of the criterion curve, poles left out."""
    crit = nonsplit11()
    gen = PointQ(crit.curve, *crit.generator)
    out = [F(54000), F(0), F(1728), F(-12288000), F(-147197952000)]
    for k in range(-6, 7):
        if k:
            q = scalar_mul(gen, k)
            j = nonsplit11_j(q.x, q.y)
            if j is not INFINITY:
                out.append(j)
    return out


CRITERION_J = _criterion_j()


def test_criterion_j_lies_in_every_image():
    relation = tables._entry(11, "G3").relation
    images = {p: fibre_image_mod(relation, p) for p in SIEVE_PRIMES}
    # A, B and C share a zero mod 11 only
    assert [p for p, image in images.items() if image is None] == [11]
    assert len(CRITERION_J) == 15
    for j in CRITERION_J:
        a, b = j.numerator, j.denominator
        for p, image in images.items():
            if image is not None:
                assert (a * pow(b, -1, p) % p if b % p else p) in image, \
                    (j, p)
        assert nonsplit11_contains(j)


tall = st.integers(min_value=-10 ** 40, max_value=10 ** 40)
criterion_inputs = st.one_of(
    st.sampled_from(CRITERION_J),
    st.builds(F, tall, st.integers(min_value=1, max_value=10 ** 6)),
    # a denominator divisible by a sieve prime: (a : b) = (1 : 0) there
    st.builds(lambda a, b, q: F(a, b * q), tall,
              st.integers(min_value=1, max_value=1000),
              st.sampled_from(SIEVE_PRIMES)),
    # a point over the criterion moved by a multiple of p^3
    st.builds(lambda j, q, m: j + q ** 3 * m, st.sampled_from(CRITERION_J),
              st.sampled_from(SIEVE_PRIMES),
              st.integers(min_value=-10 ** 6, max_value=10 ** 6)),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(criterion_inputs)
# j = 54000 mod every sieve prime but 11; j = infinity mod every one
@example(F(54000 + math.prod(p for p in SIEVE_PRIMES if p != 11)))
@example(F(1, math.prod(SIEVE_PRIMES)))
@example(F(8000))
def test_criterion_sieve_matches_the_unsieved_test(j):
    # the walk at 11 sieves the criterion with the j-values; wherever the
    # unsieved criterion holds, the sieve admits its entry
    assert _hit_label(classifier._first_hit(j, 11)) == \
        _hit_label(unsieved_first_hit(j, 11))
    labels = [e.label for e in prime_table(11).entries]
    admitted = classifier._SIEVES[11].admitted(classifier._sieve_points(j))
    if nonsplit11_contains(j):
        assert admitted >> labels.index("11.G3") & 1


def test_listed_generators_match_constructors():
    # the generator pair listed for the nonsplit normalizer at 3 spans a
    # conjugate of the standard model
    G = Subgroup(3, [Mat2(1, 2, 1, 1, 3), Mat2(1, 0, 0, 2, 3)])
    ok, witness = is_conjugate(G, normalizer_nonsplit(3))
    assert ok and witness is not None


# every family group_from_label names at an odd l, with its order and
# the residue of l mod 3 it needs (None: any)
NAMED_FAMILIES = {
    "GL2": (gl2_order, None),
    "Cs": (lambda l: (l - 1) ** 2, None),
    "Cns": (lambda l: l * l - 1, None),
    "Ns": (lambda l: 2 * (l - 1) ** 2, None),
    "Nns": (lambda l: 2 * (l * l - 1), None),
    "B": (lambda l: l * (l - 1) ** 2, None),
    "Ns-index3": (lambda l: 2 * (l - 1) ** 2 // 3, 1),
    "Nns-index3": (lambda l: 2 * (l * l - 1) // 3, 2),
    "CM.G": (lambda l: 2 * l * (l - 1), None),
    "CM.H1": (lambda l: l * (l - 1), None),
    "CM.H2": (lambda l: l * (l - 1), None),
}


def test_group_from_label():
    for l in supported_primes():
        for e in prime_table(l).entries:
            G = group_from_label(l, e.label)
            assert G.order * e.index == gl2_order(l)
            assert group_from_label(l, e.label.split(".", 1)[1]).order == G.order
    B = group_from_label(5, "B")
    assert B.order == 80
    ns = group_from_label(7, "Ns")
    assert ns.order == 2 * 36
    oct13 = group_from_label(13, "G7")
    ok, _ = is_conjugate(oct13, octahedral_normalizer(13))
    assert ok
    gl = group_from_label(11, "GL2")
    assert gl.index == 1
    for l in (3, 5, 7, 11, 13):
        for name, (order, residue) in NAMED_FAMILIES.items():
            if residue is not None and l % 3 != residue:
                with pytest.raises(ValueError, match="needs l ="):
                    group_from_label(l, name)
                continue
            for given_as in (name, f"{l}.{name}"):
                G = group_from_label(l, given_as)
                assert G.label == f"{l}.{name}"
                assert G.order * G.index == gl2_order(l)
                assert G.order == order(l), (l, name)


def test_group_from_label_refuses_a_non_integer_l():
    # refused before the primality test, which raised TypeError on these
    for l in (13.0, 13.5, float("nan"), F(13)):
        with pytest.raises(ValueError, match="^l is not an integer$"):
            group_from_label(l, "B")
    with pytest.raises(ValueError, match="^l = 9 is not a prime$"):
        group_from_label(9, "B")


@pytest.mark.parametrize("l", [41, 2 ** 4423 - 1], ids=["41", "M4423"])
def test_group_from_label_refuses_l_past_the_table_primes(l, monkeypatch):
    # refused before the primality test, which took 2.8 s on the Mersenne
    # prime and then failed to factor l - 1; GL2(F_41) has 2.8 million
    # elements
    def forbidden(n):
        raise AssertionError("primality test reached")

    monkeypatch.setattr(tables, "is_probable_prime", forbidden)
    with pytest.raises(ValueError, match="^l must be at most 37$"):
        group_from_label(l, "B")


@pytest.mark.parametrize("name", [5, None])
def test_group_from_label_refuses_a_label_that_is_not_a_string(name):
    # partition on the label raised AttributeError on these
    with pytest.raises(ValueError, match="is not a string"):
        group_from_label(5, name)


def test_exceptional_groups_from_label():
    # Borel subgroups of index 4 at 17 and of index 3 at 37; each must
    # hold every Frobenius pair of a curve with its isolated j
    sizes = {"17.G1": (1088, 72), "17.G2": (1088, 72),
             "37.G3": (15984, 114), "37.G4": (15984, 114)}
    entries = [(l, e) for l in (17, 37) for e in prime_table(l).entries]
    assert sorted(e.label for _, e in entries) == sorted(sizes)
    for l, e in entries:
        (j,) = e.jvals
        label = e.label
        G = group_from_label(l, label)
        assert (G.order, G.index) == sizes[label]
        assert e.index == G.index
        assert is_applicable(G)
        u = j.denominator  # scales y^2 = x^3 - 3j(j - 1728)x - 2j(j - 1728)^2
        M = ShortCurve(-3 * j * (j - 1728) * u ** 4,
                       -2 * j * (j - 1728) ** 2 * u ** 6).to_long()
        assert M.j_invariant() == j
        prints = subgroup_fingerprints(G.elements)
        disc = int(M.discriminant())
        for p in primes_up_to(400):
            if p != l and disc % p:
                assert (brute_force_ap(M, p) % l, p % l) in prints, (label, p)


def test_cm_table_lookup():
    assert len(CM_TABLE) == 13
    e = cm_entry(F(54000))
    assert e is not None and e.field_disc == 3 and e.order_index == 2
    assert cm_entry(F(1)) is None
    assert cm_entry(1728).field_disc == 4
    assert cm_entry(-262537412640768000).field_disc == 163
    for e in CM_TABLE:
        assert e.model.j_invariant() == e.j


def test_exceptional_lookup_keys():
    # Mazur's isolated points on X_0(17) and X_0(37), the only j-values
    # of the tables at 17 and 37
    isolated = {(l, v): e.label for l in (17, 37)
                for e in prime_table(l).entries for v in e.jvals}
    assert isolated[(17, F(-17 * 373 ** 3, 2 ** 17))] == "17.G1"
    assert isolated[(17, F(-17 ** 2 * 101 ** 3, 2))] == "17.G2"
    assert isolated[(37, F(-7 * 11 ** 3))] == "37.G3"
    assert isolated[(37, F(-7 * 137 ** 3 * 2083 ** 3))] == "37.G4"
    assert len(isolated) == 4
    assert all(e.cover is None and e.jvals is not None
               for l in (17, 37) for e in prime_table(l).entries)
