"""Tests for matrix groups over F_l: orders, invariants, conjugacy."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from modimage import gl2, tables
from modimage.exactmath import FactorizationIncomplete, is_probable_prime
from modimage.gl2 import (
    Mat2,
    Subgroup,
    borel,
    cartan_nonsplit,
    cartan_split,
    epsilon,
    fingerprint_in_borel,
    fingerprint_in_nonsplit_normalizer,
    fingerprint_in_octahedral,
    fingerprint_in_split_normalizer,
    full_gl2,
    gl2_order,
    is_applicable,
    normalizer_nonsplit,
    normalizer_split,
    octahedral_normalizer,
    primitive_root,
    span,
)
from oracles import (enumerate_gl2, is_conjugate, mat_inverse, naive_span,
                     subgroup_fingerprints, squares_mod)

SMALL_PRIMES = [3, 5, 7, 11, 13]


def test_group_orders():
    assert gl2_order(2) == 6
    assert gl2_order(3) == 48
    assert gl2_order(5) == 480
    assert gl2_order(7) == 2016
    assert gl2_order(11) == 13200
    assert gl2_order(13) == 26208


def test_epsilon_values():
    # l = 3 mod 4 uses -1, otherwise the least nonresidue
    assert epsilon(3) == 2
    assert epsilon(5) == 2
    assert epsilon(7) == 6
    assert epsilon(11) == 10
    assert epsilon(13) == 2
    for l in SMALL_PRIMES:
        assert epsilon(l) % l not in squares_mod(l)


def test_primitive_root():
    for l in [2] + SMALL_PRIMES + [17, 37]:
        g = primitive_root(l)
        seen = set()
        x = 1
        for _ in range(l - 1):
            x = x * g % l
            seen.add(x)
        assert len(seen) == l - 1


def test_primitive_root_needs_a_factored_group_order():
    # l - 1 = 2 * 1000003 * 1000121, both odd factors past the default
    # trial bound of 10^6, so no generator of F_l^* can be certified
    l = 2000248000727
    assert is_probable_prime(l) and l - 1 == 2 * 1000003 * 1000121
    message = "cofactor 1000124000363 resists trial division up to 1000000"
    with pytest.raises(FactorizationIncomplete, match=message):
        primitive_root(l)
    with pytest.raises(FactorizationIncomplete, match=message):
        cartan_split(l)


@pytest.mark.parametrize("build, l", [
    (full_gl2, 0), (full_gl2, 4), (full_gl2, -7), (normalizer_nonsplit, 9),
])
def test_named_subgroups_refuse_an_l_that_is_not_a_prime(build, l):
    # primitive_root and epsilon, one of which every named constructor
    # reads, check l: these raised ZeroDivisionError, built a "GL2(F_4)"
    # of order 256, built a group at -7 and raised ArithmeticError
    with pytest.raises(ValueError, match="^l is not a prime$"):
        build(l)


@pytest.mark.parametrize("call", [
    lambda: gl2.fingerprint_in_borel(1, 1, 0),     # raised ZeroDivisionError
    lambda: gl2.fingerprint_in_borel(1, 1, 9),     # answered at l = 9
    lambda: fingerprint_in_split_normalizer(1, 1, -7),
    lambda: fingerprint_in_nonsplit_normalizer(1, 1, 7.0),
    lambda: fingerprint_in_octahedral(1, 1, 15),
    lambda: octahedral_normalizer(4),              # raised ArithmeticError
    lambda: octahedral_normalizer(10 ** 19),       # searched O(l^2) first
    lambda: octahedral_normalizer(2),
])
def test_odd_prime_takers_refuse_any_other_l(call, monkeypatch):
    def refuse(l):
        raise AssertionError("searched before checking l")

    monkeypatch.setattr(gl2, "_sum_of_squares_minus_one", refuse)
    with pytest.raises(ValueError, match="^l is not an? (odd )?prime$"):
        call()


def test_mat2_basics():
    m = Mat2(1, 2, 3, 4, 5)
    assert m.det() == (1 * 4 - 2 * 3) % 5
    assert m * mat_inverse(m) == Mat2.identity(5)
    assert (-m).tuple() == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        Mat2(1, 2, 2, 4, 5)  # singular


def test_mat2_is_a_matrix_not_a_sequence():
    m, n = Mat2(1, 2, 3, 4, 5), Mat2(2, 0, 0, 1, 5)
    with pytest.raises(TypeError):
        m + n
    with pytest.raises(TypeError):
        3 * m
    with pytest.raises(TypeError):
        (1, 2) + m
    with pytest.raises(AttributeError):
        m.a = 2
    assert (m.a, m.b, m.c, m.d, m.l) == (1, 2, 3, 4, 5)
    assert m * n == Mat2(2, 2, 6, 4, 5)


def test_mat2_hash_agrees_with_equality():
    reduced, unreduced = Mat2(1, 2, 3, 4, 5), Mat2(-4, 12, 3, -1, 5)
    assert reduced == unreduced and hash(reduced) == hash(unreduced)
    assert len({reduced, unreduced}) == 1
    assert Mat2.identity(5) != Mat2.identity(7)
    assert Mat2(1, 2, 3, 4, 5) != Mat2(1, 2, 3, 4, 7)
    assert -Mat2.identity(5) == Mat2(4, 0, 0, 4, 5)


@settings(derandomize=True, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.tuples(*[st.integers(min_value=0, max_value=6)] * 8),
)
def test_mat2_mul_associative_and_det_multiplicative(l, entries):
    a, b, c, d, e, f, g, h = (x % l for x in entries)
    if (a * d - b * c) % l == 0 or (e * h - f * g) % l == 0:
        return
    m = Mat2(a, b, c, d, l)
    n = Mat2(e, f, g, h, l)
    assert (m * n).det() == m.det() * n.det() % l
    assert mat_inverse(m * n) == mat_inverse(n) * mat_inverse(m)


def test_span_small():
    assert len(span([Mat2(1, 1, 0, 1, 5)], 5)) == 5
    full = span([Mat2(2, 0, 0, 1, 5), Mat2(1, 1, 0, 1, 5),
                 Mat2(0, 1, 4, 0, 5)], 5)
    assert len(full) == gl2_order(5)


@st.composite
def _generator_sets(draw):
    """A prime l and one to three invertible (a, b, c, d) tuples. At
    l >= 7 a set of two or more is upper triangular, so that its group
    stays small enough for the quadratic oracle."""
    l = draw(st.sampled_from([2, 3, 5, 7, 11]))
    k = draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=0, max_value=l - 1)
    lower = st.just(0) if l >= 7 and k > 1 else entry
    gens = draw(st.lists(st.tuples(entry, entry, lower, entry),
                         min_size=k, max_size=k))
    assume(all((a * d - b * c) % l for a, b, c, d in gens))
    return l, gens


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_generator_sets())
def test_span_matches_naive_closure(case):
    l, gens = case
    spanned = span([Mat2(*g, l) for g in gens], l)
    assert {m.tuple() for m in spanned} == naive_span(gens, l)
    assert all(isinstance(m, Mat2) for m in spanned)


def test_generators_over_another_field_are_refused():
    with pytest.raises(ValueError) as info:
        Subgroup(5, [Mat2(1, 1, 0, 1, 5), Mat2(2, 0, 0, 1, 7)])
    assert str(info.value) == "generator over the wrong field"


def _counting_span(monkeypatch):
    """Record the l of every span call made through the gl2 module."""
    calls = []

    def counting_span(generators, l):
        calls.append(l)
        return span(generators, l)

    monkeypatch.setattr(gl2, "span", counting_span)
    return calls


def test_subgroups_span_only_when_elements_are_read(monkeypatch):
    calls = _counting_span(monkeypatch)
    tables._gens_of(borel(13))
    G = normalizer_split(7)
    assert calls == []
    assert len(G.elements) == G.order == 72
    assert G.elements is G.elements  # kept, not enumerated again
    assert calls == [7]
    for name in ("l", "generators", "label", "elements", "_diagonals", "x"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(G, name, None)


def test_named_subgroup_orders():
    for l in SMALL_PRIMES:
        assert cartan_split(l).order == (l - 1) ** 2
        assert cartan_nonsplit(l).order == l * l - 1
        assert normalizer_split(l).order == 2 * (l - 1) ** 2
        assert normalizer_nonsplit(l).order == 2 * (l * l - 1)
        assert borel(l).order == l * (l - 1) ** 2
        assert full_gl2(l).order == gl2_order(l)
        assert octahedral_normalizer(l).order == 24 * (l - 1)
    assert full_gl2(2).order == gl2_order(2) == 6


def test_cartan_nonsplit_shape():
    for l in (3, 5, 7, 11, 13):
        e = epsilon(l)
        expected = {
            Mat2(a, b * e % l, b, a, l)
            for a in range(l)
            for b in range(l)
            if (a * a - e * b * b) % l != 0
        }
        assert cartan_nonsplit(l).elements == frozenset(expected)


def test_invariants_against_enumeration():
    G = normalizer_split(7)
    inv = G.invariants()
    assert inv.order == 72
    assert inv.index == 28
    assert inv.det_is_full
    assert inv.has_minus_i
    assert inv.fingerprints == subgroup_fingerprints(G.elements)


def _enumerated_invariants(elements, l):
    """Invariants of an explicit set of (a, b, c, d) tuples, read as an
    oracle independent of Subgroup."""
    prints = subgroup_fingerprints(Mat2(*m, l) for m in elements)
    return gl2.Invariants(
        order=len(elements),
        index=gl2_order(l) // len(elements),
        det_is_full=len({det for _, det in prints}) == l - 1,
        has_minus_i=(l - 1, 0, 0, l - 1) in elements,
        fingerprints=prints,
    )


def _qualifies(gens):
    """Upper-triangular generators, one of them [1, b; 0, 1] with b != 0."""
    return (all(m.c == 0 for m in gens)
            and any(m.a == m.d == 1 and m.b for m in gens))


def _labels_group_from_label_accepts():
    """{(l, full label): group} for every label group_from_label accepts
    at the table primes, 17 and 37 among them."""
    names = ("GL2", "Cs", "Cns", "Ns", "Nns", "B", "Ns-index3",
             "Nns-index3", "CM.G", "CM.H1", "CM.H2")
    labels = [(l, name) for l in tables.supported_primes()
              for name in names]
    labels += [(l, label) for l in tables.supported_primes()
               for e in tables.prime_table(l).entries
               for label in (e.label, *(sub for sub, _ in e.subs))]
    accepted = {}
    for l, name in labels:
        try:
            G = tables.group_from_label(l, name)
        except ValueError:  # the index-3 groups at half the primes,
            continue        # Cns, Nns and CM.* at l = 2
        accepted[(l, G.label)] = G
    return accepted


def test_closed_form_matches_enumeration(monkeypatch):
    calls = _counting_span(monkeypatch)
    qualified = []
    for (l, label), G in _labels_group_from_label_accepts().items():
        if not _qualifies(G.generators):
            continue
        qualified.append(label)
        inv = G.invariants()
        assert (G.order, G.index) == (inv.order, inv.index)
        assert calls == [], label  # counted, not enumerated
        gens = [m.tuple() for m in G.generators]
        elements = (naive_span(gens, l) if l <= 13 else
                    {m.tuple() for m in span(G.generators, l)})
        assert inv == _enumerated_invariants(elements, l), label
    assert {"37.G3", "37.G4", "17.G1", "17.G2", "37.B", "37.CM.H2",
            "13.G6", "13.H5.2", "2.B", "2.G2"} <= set(qualified)
    assert len(qualified) == 72


@st.composite
def _unipotent_borel_generators(draw):
    """A prime l and upper-triangular (a, b, 0, d) tuples, one of them
    [1, b; 0, 1] with b != 0, in a drawn position."""
    l = draw(st.sampled_from([3, 5, 7, 11, 13]))
    unit = st.integers(min_value=1, max_value=l - 1)
    entry = st.integers(min_value=0, max_value=l - 1)
    gens = draw(st.lists(st.tuples(unit, entry, st.just(0), unit),
                         max_size=3))
    at = draw(st.integers(min_value=0, max_value=len(gens)))
    gens.insert(at, (1, draw(unit), 0, 1))
    return l, gens


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_unipotent_borel_generators())
def test_closed_form_matches_span_on_random_borel_generators(case):
    l, gens = case
    G = Subgroup(l, [Mat2(*g, l) for g in gens])
    expected = _enumerated_invariants({m.tuple() for m in span(
        G.generators, l)}, l)
    assert G.invariants() == expected
    assert "elements" not in vars(G)  # the closed form read no element


@pytest.mark.parametrize("l, gens", [
    (5, tables.prime_table(5).entries[0].gens),  # 5.G1: no unipotent
    (5, tables._gens_of(cartan_split(5))),
    (5, [(1, 0, 0, 1), (2, 0, 0, 1)]),  # the identity is no unipotent
    (5, [(1, 0, 1, 1), (2, 0, 0, 1)]),  # a lower unipotent
    (5, tables._gens_of(full_gl2(5))),  # a unipotent beside [0, 1; 1, 0]
], ids=["5.G1", "Cs", "identity", "lower", "GL2"])
def test_other_generators_still_enumerate(monkeypatch, l, gens):
    calls = _counting_span(monkeypatch)
    G = Subgroup(l, [Mat2(*g, l) for g in gens])
    assert not _qualifies(G.generators)
    inv = G.invariants()
    assert calls == [l]
    assert inv == _enumerated_invariants(
        naive_span([m.tuple() for m in G.generators], l), l)


def test_applicability():
    assert not is_applicable(full_gl2(5))
    assert not is_applicable(cartan_nonsplit(7))
    assert is_applicable(normalizer_nonsplit(7))
    assert is_applicable(borel(5))
    assert is_applicable(normalizer_split(5))
    # projectively octahedral groups only qualify at l = +-3 mod 8
    assert is_applicable(octahedral_normalizer(5))
    assert not is_applicable(octahedral_normalizer(7))
    assert is_applicable(octahedral_normalizer(11))
    assert is_applicable(octahedral_normalizer(13))
    # at l = 3 the octahedral construction fills all of GL2(F_3)
    assert octahedral_normalizer(3).order == gl2_order(3)
    assert not is_applicable(octahedral_normalizer(3))
    # <diag(2, 3)> has order 4 and holds -I, but every determinant is 1
    H = Subgroup(5, [Mat2(2, 0, 0, 3, 5)])
    assert not is_applicable(H)
    # each fails one condition only: no -I (3.H3.1, determinants onto
    # and [1, 0; 0, 2] of trace 0 and det -1), then determinants {1, -1}
    assert not is_applicable(Subgroup(3, [Mat2(1, 1, 0, 1, 3),
                                          Mat2(1, 0, 0, 2, 3)]))
    assert not is_applicable(Subgroup(7, [Mat2(6, 0, 0, 6, 7),
                                          Mat2(0, 1, 1, 0, 7)]))


def test_applicability_mod_two():
    # at l = 2 the -I and trace conditions are vacuous
    G2 = Subgroup(2, [Mat2(1, 1, 0, 1, 2)])
    assert G2.order == 2
    assert is_applicable(G2)
    assert not is_applicable(full_gl2(2))


def test_conjugacy_witness_round_trip():
    G = cartan_split(7)
    m = Mat2(1, 2, 3, 0, 7)
    conj = Subgroup(7, [m * g * mat_inverse(m) for g in G.generators])
    ok, w = is_conjugate(G, conj)
    assert ok
    elements = {w * g * mat_inverse(w) for g in G.elements}
    assert elements == set(conj.elements)


def test_conjugacy_rejects():
    # same order two, but -I is central so never conjugate to a
    # non-central involution
    center = Subgroup(5, [Mat2(4, 0, 0, 4, 5)])
    refl = Subgroup(5, [Mat2(1, 0, 0, 4, 5)])
    assert center.order == refl.order == 2
    ok, w = is_conjugate(center, refl)
    assert not ok and w is None
    ok, _ = is_conjugate(cartan_split(5), cartan_nonsplit(5))
    assert not ok


def test_octahedral_conjugate_to_quotient_91_group():
    # the order-288 subgroup of GL2(F_13) generated below is the same
    # group up to conjugacy as the generic octahedral construction
    gens = [Mat2(2, 0, 0, 2, 13), Mat2(2, 0, 0, 3, 13),
            Mat2(0, -1, 1, 0, 13), Mat2(1, 1, -1, 1, 13)]
    H = Subgroup(13, gens)
    assert H.order == 288
    assert H.index == 91
    G = octahedral_normalizer(13)
    ok, w = is_conjugate(G, H)
    assert ok
    assert {w * g * mat_inverse(w) for g in G.elements} == set(H.elements)


def _fingerprint_set(G):
    return subgroup_fingerprints(G.elements)


def test_borel_fingerprint_closed_form():
    for l in SMALL_PRIMES:
        enum = _fingerprint_set(borel(l))
        closed = {(t, d) for t in range(l) for d in range(1, l)
                  if fingerprint_in_borel(t, d, l)}
        assert enum == closed
    # in characteristic 2 the discriminant says nothing: (1, 1) passed,
    # though x^2 + x + 1 is irreducible over F_2, so l = 2 is refused
    with pytest.raises(ValueError, match="odd prime"):
        fingerprint_in_borel(1, 1, 2)


def test_split_normalizer_fingerprint_closed_form():
    for l in SMALL_PRIMES:
        enum = _fingerprint_set(normalizer_split(l))
        closed = {(t, d) for t in range(l) for d in range(1, l)
                  if fingerprint_in_split_normalizer(t, d, l)}
        assert enum == closed
    with pytest.raises(ValueError, match="odd prime"):
        fingerprint_in_split_normalizer(1, 1, 2)


def test_nonsplit_normalizer_fingerprint_closed_form():
    for l in SMALL_PRIMES:
        enum = _fingerprint_set(normalizer_nonsplit(l))
        closed = {(t, d) for t in range(l) for d in range(1, l)
                  if fingerprint_in_nonsplit_normalizer(t, d, l)}
        assert enum == closed
    with pytest.raises(ValueError, match="odd prime"):
        fingerprint_in_nonsplit_normalizer(1, 1, 2)


def test_octahedral_fingerprint_soundness():
    # the closed form may overshoot (it is a necessary condition only),
    # so containment is the contract
    for l in (5, 11, 13):
        enum = _fingerprint_set(octahedral_normalizer(l))
        for (t, d) in enum:
            assert fingerprint_in_octahedral(t, d, l)
    with pytest.raises(ValueError, match="odd prime"):
        fingerprint_in_octahedral(1, 1, 2)


def test_enumerate_gl2_complete():
    mats = list(enumerate_gl2(3))
    assert len(mats) == 48
    assert len(set(mats)) == 48
