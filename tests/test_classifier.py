"""Tests for the mod-l image classifier.

Expected labels for the benchmark curves were verified against the
subgroup tables by hand: each curve's j-invariant sits on the stated
modular cover, and the twist refinements were cross-checked with
quadratic twists by the distinguished discriminant.
"""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import modimage.classifier
import modimage.ec
import modimage.polyq
from modimage.classifier import (
    DEFAULT_PRIMES,
    MAXIMAL_KINDS,
    MAX_SCAN_BOUND,
    SIEVE_PRIMES,
    Certificate,
    FrobeniusPass,
    _excluded_kinds,
    _WalkSieve,
    _first_hit,
    _sieve_points,
    classify,
    classify_cm,
    classify_from_j,
    classify_prime_noncm,
    frobenius_noncontainment,
    twist_set,
)
from modimage.cli import _print_text_report
from modimage.ec import (
    ShortCurve,
    SingularCurveError,
    WeierstrassCurve,
    _invariants,
    _trace,
    ap,
    integral_model,
    quadratic_twist,
    short_model,
    twist_test,
)
from modimage.exactmath import FactorizationIncomplete, primes_up_to
from modimage.polyq import INFINITY, Poly, fibre_image_mod, rational_roots
from modimage.gl2 import (
    borel,
    normalizer_nonsplit,
    normalizer_split,
    octahedral_normalizer,
)
from modimage.tables import (CM_TABLE, TableEntry, group_from_label,
                             nonsplit11, nonsplit11_j, prime_table,
                             supported_primes)
from oracles import (brute_force_ap, cover_value, divisor_root_search,
                     mod2_label, naive_is_square, report_to_dict,
                     subgroup_fingerprints, unsieved_first_hit)


# -3 * the generator on the nonsplit-11 criterion curve
J11 = F(21400770996000000, 952809757913927)


def short(A, B):
    return ShortCurve(A, B).to_long()


def one(E, l, **kw):
    """Classify E at the single prime l and return the result record."""
    return classify(E, [l], **kw).results[0]


def table_entry(l, label):
    return {e.label: e for e in prime_table(l).entries}[label]


def family_curve(l, label, t):
    A, B = table_entry(l, label).family
    return ShortCurve(A.evaluate(F(t)), B.evaluate(F(t)))


class TestBenchmarkCurves:
    """Curves whose nontrivial mod-l images are pinned by the tables."""

    def test_mod_11_index_55_pair(self):
        r = one(WeierstrassCurve(1, 1, 1, -305, 7888), 11)
        assert (r.label, r.status) == ("11.H1.1", "proven")
        r = one(WeierstrassCurve(1, 1, 0, -3632, 82757), 11)
        assert (r.label, r.status) == ("11.H2.1", "proven")

    def test_mod_11_twist_swaps_sublabel(self):
        E = WeierstrassCurve(1, 1, 0, -3632, 82757)
        Et = quadratic_twist(short_model(E), -11).to_long()
        assert one(Et, 11).label == "11.H2.2"

    def test_mod_17_exceptional_pair(self):
        r = one(WeierstrassCurve(1, 0, 1, -190891, -36002922), 17)
        assert (r.label, r.status) == ("17.G1", "proven")
        r = one(WeierstrassCurve(1, 0, 1, -3041, 64278), 17)
        assert (r.label, r.status) == ("17.G2", "proven")

    def test_mod_37_exceptional_pair(self):
        r = one(WeierstrassCurve(1, 1, 1, -8, 6), 37)
        assert (r.label, r.status) == ("37.G3", "proven")
        r = one(WeierstrassCurve(1, 1, 1, -208083, -36621194), 37)
        assert (r.label, r.status) == ("37.G4", "proven")

    def test_mod_7_twist_insensitive_label(self):
        E = ShortCurve(-42875, -3246250)
        assert one(E.to_long(), 7).label == "7.H1.1"
        assert one(quadratic_twist(E, -7).to_long(), 7).label == "7.H1.1"

    def test_rank_one_curve_is_surjective_everywhere(self):
        rep = classify(WeierstrassCurve(0, 0, 1, -1, 0))
        assert [r.prime for r in rep.results] == [2, 3, 5, 7, 11, 13, 17, 37]
        assert all(r.label == "GL2" for r in rep.results)
        assert all(r.status == "proven" for r in rep.results)
        assert rep.exceptional_primes == ()
        assert rep.cm is None
        # the large primes are settled by explicit trace certificates
        for r in rep.results:
            if r.prime >= 13:
                assert len(r.certificates) == 4

    def test_double_isogeny_curve(self):
        # conductor-11 optimal curve: two independent 5-isogenies force
        # a tiny diagonal image mod 5, everything else is surjective
        rep = classify(WeierstrassCurve(0, -1, 1, -10, -20))
        labels = {r.prime: r.label for r in rep.results}
        assert labels[5] == "5.H1.1"
        assert all(v == "GL2" for p, v in labels.items() if p != 5)
        assert rep.exceptional_primes == (5,)
        at5 = [r for r in rep.results if r.prime == 5][0]
        assert at5.witness_t == F(-1)


class TestCoverWalk:
    def test_all_preimages_refine_consistently(self):
        # j(E) has three preimages on the 7.G3 cover; the walk refines at
        # the first, and the family member at every one of them must give
        # the same twist verdict for E and for its twist by -7
        E = family_curve(7, "7.G3", -4)
        Et = quadratic_twist(E, -7)
        cover = table_entry(7, "7.G3").cover
        fiber = rational_roots(cover.num - Poly.const(E.j_invariant())
                               * cover.den)
        assert set(fiber) == {F(-4), F(5, 4), F(1, 5)}
        for t in fiber:
            model = family_curve(7, "7.G3", t)
            assert twist_test(model, E, 1)
            assert twist_test(model, Et, -7)
        r = one(E.to_long(), 7)
        assert (r.label, r.witness_t) == ("7.H3.1", F(-4))
        rt = one(Et.to_long(), 7)
        assert (rt.label, rt.witness_t) == ("7.H3.2", F(-4))

    def test_twist_refinement_at_13(self):
        for glabel, h1, h2 in (
            ("13.G4", "13.H4.1", "13.H4.2"),
            ("13.G5", "13.H5.1", "13.H5.2"),
        ):
            E = family_curve(13, glabel, 3)
            assert one(E.to_long(), 13).label == h1
            assert one(quadratic_twist(E, 13).to_long(), 13).label == h2
            # a twist by anything else lands on the full plus-minus group
            assert one(quadratic_twist(E, 7).to_long(), 13).label == glabel

    def test_witness_is_smallest_parameter(self):
        r = one(WeierstrassCurve(0, -1, 1, -10, -20), 5)
        assert r.witness_t == F(-1)

    def test_generic_curve_walk_needs_no_squarefree_gcd(self, monkeypatch):
        # every cover fibre of 37a1 has no root modulo some small prime,
        # so the walk answers without the squarefree gcd of any fibre
        def forbidden(*args):
            raise AssertionError("poly_gcd reached")

        monkeypatch.setattr(modimage.polyq, "poly_gcd", forbidden)
        report = classify(WeierstrassCurve(0, 0, 1, -1, 0))
        assert [(r.prime, r.label) for r in report.results] == [
            (l, "GL2") for l in (2, 3, 5, 7, 11, 13, 17, 37)]

    def test_nonsplit11_point_at_infinity(self):
        # j = 54000 lies under the criterion curve's point at infinity,
        # where the criterion polynomial drops degree and has no rational
        # root; 54000 is CM by Z[sqrt(-3)] and 11 is inert in Q(sqrt(-3)),
        # so the image does lie in the nonsplit normalizer
        assert classify_prime_noncm(None, F(54000), 11).label == "11.G3"


# --- the walk sieve --------------------------------------------------------

ALL_ENTRIES = [e for l in supported_primes() for e in prime_table(l).entries]
TABLE_COVERS = [e.cover for e in ALL_ENTRIES if e.cover is not None]
COVER_LABELS = {e.label for e in ALL_ENTRIES if e.cover is not None}


def _criterion_points_j():
    """The j of +-k P for k = 1..6, P the generator of the nonsplit-11
    criterion curve, poles left out."""
    crit = nonsplit11()
    gen = modimage.ec.PointQ(crit.curve, *crit.generator)
    out = []
    for k in range(-6, 7):
        if k:
            q = modimage.ec.scalar_mul(gen, k)
            j = nonsplit11_j(q.x, q.y)
            if j is not INFINITY:
                out.append(j)
    return out


SPECIAL_J = sorted(set(_criterion_points_j()) | {e.j for e in CM_TABLE} | {
    j for l in supported_primes() for e in prime_table(l).entries
    if e.jvals is not None for j in e.jvals})

tall = st.integers(min_value=-10 ** 40, max_value=10 ** 40)
wide = st.integers(min_value=1, max_value=10 ** 40)
walk_inputs = st.one_of(
    # a value of a table cover at a small parameter: a hit somewhere
    st.builds(cover_value, st.sampled_from(TABLE_COVERS),
              st.builds(F, st.integers(min_value=-30, max_value=30),
                        st.integers(min_value=1, max_value=12))
              ).filter(lambda j: j is not None),
    st.sampled_from(SPECIAL_J),
    st.builds(F, tall, wide),
    # a numerator or a denominator divisible by a sieve prime: (a : b) is
    # (0 : 1) or infinity = (1 : 0) there
    st.builds(lambda a, b, q, top: F(a * q, b) if top else F(a, b * q),
              tall, wide, st.sampled_from(SIEVE_PRIMES), st.booleans()),
)


def hit_label(hit):
    return None if hit is None else (hit[0].label, hit[1])


def label_by_relation(entries):
    """The function from a relation to the label of the entry among
    entries that has it."""
    relations = [(e.label, e.relation) for e in entries]
    return lambda coeffs: next(label for label, rel in relations
                               if rel == coeffs)


def fake_images(monkeypatch, at, entries, built):
    """Make the walk sieve read at(label, p) as the image of each of
    entries at p, and record each (label, p) it reads in built."""
    label_of = label_by_relation(entries)

    def image_mod(coeffs, p):
        label = label_of(coeffs)
        built.append((label, p))
        return at(label, p)

    monkeypatch.setattr(modimage.classifier, "fibre_image_mod", image_mod)


def fresh_sieves(monkeypatch):
    """Empty the walk sieves for this test, and count the images built
    per (entry label, p)."""
    monkeypatch.setattr(modimage.classifier, "_SIEVES", {})
    entries = {e.label: e for e in ALL_ENTRIES}
    built = []
    fake_images(monkeypatch, lambda label, p: fibre_image_mod(
        entries[label].relation, p), ALL_ENTRIES, built)
    return built


class TestWalkSieve:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(walk_inputs)
    @example(F(21952, 9))          # 2.G1 at t = 2, infinity at p = 3
    @example(F(1, math.prod(SIEVE_PRIMES)))  # infinity at every sieve prime
    @example(F(54000))             # the criterion's point at infinity
    @example(J11)
    @example(F(-121))
    def test_sieved_walk_matches_the_unsieved_walk(self, j):
        points = _sieve_points(j)
        for l in supported_primes():
            expected = hit_label(unsieved_first_hit(j, l))
            assert hit_label(_first_hit(j, l, points)) == expected, (j, l)
            assert hit_label(_first_hit(j, l)) == expected, (j, l)

    def test_sieve_points_write_infinity_as_p(self):
        # (a : b) with b = 0 mod p is infinity, written p; a = 0 is 0
        assert _sieve_points(F(7, 6)) == (2, 3, 2, 0, 3, 12, 4, 17, 5, 6,
                                          27, 32, 8, 37, 9, 10, 11, 52)
        assert _sieve_points(F(6, 7)) == (0, 0, 3, 7, 4, 12, 13, 9, 14, 5,
                                          23, 22, 36, 7, 21, 16, 43, 27)

    def test_walk_sieve_reads_each_image_once(self, monkeypatch):
        built = []
        e = TableEntry("e", 1, (), jvals=frozenset({F(5)}))
        out = TableEntry("out", 1, (), jvals=frozenset({F(6)}))
        kept = TableEntry("in", 1, (), jvals=frozenset({F(7)}))
        fake_images(monkeypatch, lambda _, p: None if p == 3
                    else frozenset({1, p}), (e,), built)
        sieve = _WalkSieve((e,))
        assert sieve.admitted(_sieve_points(F(1))) == 1
        assert built == [("e", p) for p in SIEVE_PRIMES]
        # 2 is 0 mod 2, outside {1, 2}; no image is built twice
        assert sieve.admitted(_sieve_points(F(2))) == 0
        assert built == [("e", p) for p in SIEVE_PRIMES]
        # a denominator divisible by p reduces to infinity, written p, and
        # an image of None rules nothing out
        fake_images(monkeypatch, lambda _, p: frozenset({2}) if p == 2
                    else None, (e,), built)
        for j, admitted in ((F(1, 2), 1), (F(1, 3), 0)):
            assert _WalkSieve((e,)).admitted(_sieve_points(j)) == admitted
        # an entry ruled out at 2 has no image built at a later prime
        built.clear()
        fake_images(monkeypatch, lambda label, p: frozenset({p})
                    if label == "out" else None, (out, kept), built)
        sieve = _WalkSieve((out, kept))
        assert sieve.admitted(_sieve_points(F(1))) == 0b10
        assert built == [("out", 2), ("in", 2)] + [
            ("in", p) for p in SIEVE_PRIMES[1:]]

    def test_each_image_is_built_once_over_two_passes(self, monkeypatch):
        built = fresh_sieves(monkeypatch)
        grid = [F(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
        js = sorted({j for cover in TABLE_COVERS for t in grid
                     if (j := cover_value(cover, t)) is not None}
                    | set(SPECIAL_J) | {F(k + 1) for k in range(1, 200)})
        hits = []
        for _ in range(2):
            hits.append([hit_label(_first_hit(j, l))
                         for j in js for l in supported_primes()])
        assert hits[0] == hits[1]
        assert set(Counter(built).values()) == {1}
        # the covers, the j-values and the criterion are all sieved
        assert {"13.G1", "7.G1", "13.G7", "11.G3"} <= {
            label for label, _ in built}

    def test_first_classify_builds_no_more_images_than_before(
            self, monkeypatch):
        # y^2 + y = x^3 - 7x + 6 (5077a1): GL2 at every table prime, so
        # every walk runs to its end; a per-entry sieve built 94 cover
        # images and 7 criterion images here
        built = fresh_sieves(monkeypatch)
        report = classify(WeierstrassCurve(0, 0, 1, -7, 6))
        assert {r.label for r in report.results} == {"GL2"}
        assert sum(1 for label, _ in built if label in COVER_LABELS) <= 94
        assert sum(1 for label, _ in built if label == "11.G3") <= 7

    def test_exact_tests_see_only_admitted_entries(self, monkeypatch):
        seen = []
        cover_parameters = modimage.classifier._cover_parameters

        def recorded(entry, j):
            seen.append((entry, j))
            return cover_parameters(entry, j)

        monkeypatch.setattr(modimage.classifier, "_cover_parameters",
                            recorded)
        for j in SPECIAL_J + [F(k + 1) for k in range(1, 200)]:
            for l in supported_primes():
                _first_hit(j, l)
        # every kind of entry meets the one exact test
        assert {"2.G1", "7.G1", "13.G7", "11.G3"} <= {
            entry.label for entry, _ in seen}
        for entry, j in seen:
            for p, r in zip(SIEVE_PRIMES, _sieve_points(j)):
                image = fibre_image_mod(entry.relation, p)
                assert image is None or r in image, (entry.label, j, p)


    def test_no_exact_test_misses_on_small_curves(self, monkeypatch):
        # y^2 = x^3 + ax + b with |a|, |b| <= 15: the sieve rules out
        # every entry that j does not lie under, so no exact test misses
        # (with the primes up to 29 alone, 162 of 298 did)
        calls = []
        cover_parameters = modimage.classifier._cover_parameters

        def recorded(entry, j):
            calls.append(cover_parameters(entry, j))
            return calls[-1]

        monkeypatch.setattr(modimage.classifier, "_cover_parameters",
                            recorded)
        curves = [ShortCurve(a, b) for a in range(-15, 16)
                  for b in range(-15, 16) if 4 * a ** 3 + 27 * b ** 2]
        assert len(curves) == 958
        for E in curves:
            classify(E.to_long())
        assert calls and [] not in calls


class TestComplexMultiplication:
    # label of each table model at the primes 2, 3, 5, 7, 11, 13
    MATRIX = {
        (3, 1): ("GL2", "3.H1.1", "5.Nns", "7.Ns", "11.Nns", "13.Ns"),
        (3, 2): ("2.G2", "3.CM.H1", "5.Nns", "7.Ns", "11.Nns", "13.Ns"),
        (3, 3): ("GL2", "3.CM.H1", "5.Nns", "7.Ns", "11.Nns", "13.Ns"),
        (4, 1): ("2.G2", "3.Nns", "5.Ns", "7.Nns", "11.Nns", "13.Ns"),
        (4, 2): ("2.G2", "3.Nns", "5.Ns", "7.Nns", "11.Nns", "13.Ns"),
        (7, 1): ("2.G2", "3.Nns", "5.Nns", "7.CM.H1", "11.Ns", "13.Nns"),
        (7, 2): ("2.G2", "3.Nns", "5.Nns", "7.CM.H1", "11.Ns", "13.Nns"),
        (8, 1): ("2.G2", "3.Ns", "5.Nns", "7.Nns", "11.Ns", "13.Nns"),
        (11, 1): ("GL2", "3.Ns", "5.Ns", "7.Nns", "11.CM.H1", "13.Nns"),
        (19, 1): ("GL2", "3.Nns", "5.Ns", "7.Ns", "11.Ns", "13.Nns"),
        (43, 1): ("GL2", "3.Nns", "5.Nns", "7.Nns", "11.Ns", "13.Ns"),
        (67, 1): ("GL2", "3.Nns", "5.Nns", "7.Nns", "11.Nns", "13.Nns"),
        (163, 1): ("GL2", "3.Nns", "5.Nns", "7.Nns", "11.Nns", "13.Nns"),
    }

    def test_every_table_model(self):
        for entry in CM_TABLE:
            rep = classify(entry.model.to_long(), [2, 3, 5, 7, 11, 13])
            labels = tuple(r.label for r in rep.results)
            key = (entry.field_disc, entry.order_index)
            assert labels == self.MATRIX[key], key
            assert all(r.status == "proven" for r in rep.results)
            assert rep.cm is entry

    def test_quadratic_twist_by_minus_l_flips_cm_sublabel(self):
        E = ShortCurve(-1715, 33614)  # discriminant -7, class number 1
        assert one(E.to_long(), 7).label == "7.CM.H1"
        assert one(quadratic_twist(E, -7).to_long(), 7).label == "7.CM.H2"

    def test_mod_2_depends_on_the_model_not_just_j(self):
        # j = 1728: full image iff -A is not a square
        assert one(short(-1, 0), 2).label == "2.G1"
        assert one(short(1, 0), 2).label == "2.G2"
        # j = 0: index-2 image iff B is a cube
        assert one(short(0, 1), 2).label == "2.G2"
        assert one(short(0, 2), 2).label == "GL2"

    def test_mod_2_away_from_0_and_1728_is_read_off_the_2_division_cubic(self):
        # a quadratic twist does not move the mod-2 image, so each model,
        # its twists and its j alone give the one label the cubic decides
        seen = set()
        for entry in CM_TABLE:
            if entry.j in (0, 1728):
                continue
            E = entry.model
            expected = mod2_label(int(E.A), int(E.B))
            labels = {one(E.to_long(), 2).label,
                      classify_from_j(entry.j, [2]).results[0].label}
            labels |= {one(quadratic_twist(E, d).to_long(), 2).label
                       for d in (-1, 2, -3)}
            assert labels == {expected}, entry.j
            seen.add(expected)
        assert seen == {"2.G2", "GL2"}

    def test_j0_at_3_follows_the_3_torsion_of_the_model(self):
        # on y^2 = x^3 + d, (0, +-sqrt d) is a rational 3-torsion point iff
        # d is a square, the -3 twist has one iff -3d is a square, and
        # psi_3 = 3x(x^3 + 4d) has a second rational root iff -4d is a cube
        prints, labels = {}, set()
        for d in (1, 4, 9, -3, -12, -27, 3, 5, -1, 2, 16, -432):
            point, twisted = naive_is_square(d), naive_is_square(-3 * d)
            if len(divisor_root_search(Poly([0, 12 * d, 0, 0, 3]))) == 2:
                expected = "3.H1.1" if point or twisted else "3.G1"
            elif point:
                expected = "3.H3.1"
            elif twisted:
                expected = "3.H3.2"
            else:
                expected = "3.G3"
            assert one(short(0, d), 3).label == expected, d
            labels.add(expected)
            prints[d] = subgroup_fingerprints(
                group_from_label(3, expected).elements)
        assert labels == {"3.H3.1", "3.H3.2", "3.G3", "3.G1", "3.H1.1"}
        # Frobenius soundness at the good p <= 300 (p > 3, p not dividing
        # d): one scan of every (x, y) mod p counts the affine points of
        # y^2 = x^3 + d for all d at once, as brute_force_ap does for one
        # curve (compared at p = 31)
        for p in primes_up_to(300)[2:]:
            affine = Counter((y * y - x ** 3) % p
                             for x in range(p) for y in range(p))
            if p == 31:
                assert p - affine[5] == brute_force_ap(short(0, 5), p)
            for d, fp in prints.items():
                if d % p:
                    assert ((p - affine[d % p]) % 3, p % 3) in fp, (d, p)


class TestFrobeniusTail:
    def test_conditional_shrinks_to_proven_at_13(self):
        E = WeierstrassCurve(0, 0, 1, -1, 0)
        r = one(E, 13, frobenius_bound=6)
        assert r.status == "conditional(BPR-conjecture)"
        assert r.possible == ("13.Ns",)
        r = one(E, 13, frobenius_bound=12)
        assert (r.label, r.status) == ("GL2", "proven")
        assert r.possible == ()

    def test_large_prime_tail_tracks_residue_mod_3(self):
        E = WeierstrassCurve(0, 0, 1, -1, 0)
        r = one(E, 23, frobenius_bound=6)
        assert r.possible == ("23.Nns", "23.Nns-index3")
        r = one(E, 19, frobenius_bound=2)
        assert r.possible == ("19.Nns",)
        assert one(E, 23, frobenius_bound=12).status == "proven"
        assert one(E, 19, frobenius_bound=3).status == "proven"
        # at 17 and 37 the walk runs first; on a miss the same tail
        # follows, and with no prime scanned every candidate stays open
        assert all(modimage.classifier._first_hit(E.j_invariant(), l) is None
                   for l in (17, 37))
        r = one(E, 17, frobenius_bound=1)
        assert r.possible == ("17.Nns", "17.Nns-index3")
        r = one(E, 37, frobenius_bound=1)
        assert r.possible == ("37.Nns",)
        assert one(E, 17, frobenius_bound=2).status == "proven"
        assert one(E, 37, frobenius_bound=2).status == "proven"

    def test_certificates_are_sound(self):
        # a ruled-out subgroup type must contain no element realizing the
        # witness (trace, det) pair
        found = frobenius_noncontainment(WeierstrassCurve(0, 0, 1, -1, 0),
                                         13, 1000)
        assert set(found) == {"Borel", "SplitNormalizer",
                              "NonsplitNormalizer", "Exceptional"}
        groups = {
            "Borel": borel(13),
            "SplitNormalizer": normalizer_split(13),
            "NonsplitNormalizer": normalizer_nonsplit(13),
            "Exceptional": group_from_label(13, "G7"),
        }
        for kind, cert in found.items():
            assert isinstance(cert, Certificate)
            prints = {(g.trace(), g.det()) for g in groups[kind].elements}
            assert (cert.trace, cert.det) not in prints

    def test_certificates_use_the_smallest_prime(self):
        # each certificate's p is the first good p whose (a_p, p) mod 13
        # is outside the enumerated fingerprints of its subgroup type, and
        # a type without certificate has no such p up to the bound
        l, bound = 13, 400
        prints = {
            kind: G.invariants().fingerprints for kind, G in (
                ("Borel", borel(l)),
                ("SplitNormalizer", normalizer_split(l)),
                ("NonsplitNormalizer", normalizer_nonsplit(l)),
                ("Exceptional", octahedral_normalizer(l)))
        }
        rng = random.Random(13)
        curves = 0
        while curves < 20:
            try:
                E = WeierstrassCurve(rng.randint(0, 1), rng.randint(-1, 1),
                                     rng.randint(0, 1), rng.randint(-9, 9),
                                     rng.randint(-9, 9))
            except SingularCurveError:
                continue
            curves += 1
            disc = int(E.discriminant())
            pairs = [(p, ap(E, p) % l, p % l) for p in primes_up_to(bound)
                     if (l * disc) % p != 0]
            found = frobenius_noncontainment(E, l, bound)
            for kind, group_prints in prints.items():
                first = next((Certificate(kind, p, t, d) for p, t, d in pairs
                              if (t, d) not in group_prints), None)
                assert found.get(kind) == first, (E, kind)

    def test_small_primes_reject_certificate_request(self):
        with pytest.raises(ValueError):
            frobenius_noncontainment(WeierstrassCurve(0, 0, 1, -1, 0), 3, 100)

    def test_certificate_request_needs_a_model(self):
        # the pass unpacked None into its integral model, a TypeError
        with pytest.raises(ValueError, match="need a curve model"):
            frobenius_noncontainment(None, 13, 100)

    @pytest.mark.parametrize("build, label", [
        (lambda: family_curve(7, "7.G3", F(5, 2)), "7.H3.1"),
        (lambda: short(0, 16), "3.H1.1"),
    ], ids=["rational-family-member", "j0-cm"])
    def test_one_kernel_call_per_classify(self, monkeypatch, build, label):
        # the constructor runs the invariant kernel and the curve keeps
        # it: j, the twist tests' short model, the CM rules at every
        # prime and the Frobenius pass of the tails read what it kept
        calls = []

        def counted(a):
            calls.append(a)
            return _invariants(a)

        monkeypatch.setattr(modimage.ec, "_invariants", counted)
        report = classify(build())
        assert len(calls) == 1
        assert label in {r.label for r in report.results}

    @pytest.mark.parametrize("E", [
        WeierstrassCurve(0, 0, 1, -1, 0),
        WeierstrassCurve(1, 0, 1, 4, -6),
        short(F(-3, 4), F(5, 8)),
    ])
    def test_one_trace_per_prime_per_classify(self, monkeypatch, E):
        # the scans at 13, 17 and 37 share one pass: the kernel counts
        # a_p once for each p that some scan reaches, on one model's
        # invariants, read once
        calls = []

        def counted(a, b, p):
            calls.append(((id(a), id(b)), p))
            return _trace(a, b, p)

        monkeypatch.setattr(modimage.classifier, "_trace", counted)
        report = classify(E, [13, 17, 37])
        assert calls
        assert len(calls) == len({p for _, p in calls})
        assert len({model for model, _ in calls}) == 1
        # and the pass reaches as far as the furthest certificate scan
        last = max(c.p for r in report.results for c in r.certificates)
        assert max(p for _, p in calls) == last
        # each scan finds on the shared pass what a pass of its own finds
        monkeypatch.undo()
        for r in report.results:
            found = frobenius_noncontainment(E, r.prime, 1000)
            assert set(r.certificates) == set(found.values())

    @pytest.mark.parametrize("E", [
        WeierstrassCurve(1, -1, 0, -7, 11),
        family_curve(13, "13.G4", F(-123457, 8191)),
        ShortCurve(F(-3, 4), F(5, 8)),
    ], ids=["box", "tall-family-member", "rational-short"])
    def test_pass_counts_what_ap_counts(self, E):
        # the pass reads the model's invariants once and calls the kernel
        # of ap; it must count every good p <= 1000 as ap does
        M, _ = integral_model(E.to_long() if isinstance(E, ShortCurve) else E)
        pairs = list(FrobeniusPass(E, 1000))
        disc = M.discriminant().numerator
        assert [p for p, _ in pairs] == [p for p in primes_up_to(1000)
                                         if disc % p]
        assert all(a == ap(M, p) for p, a in pairs)

    def test_excluded_kinds_table(self):
        # the cached kinds of a pair are the MAXIMAL_KINDS tests read in
        # order, at the tail primes and beyond
        for l in (5, 7, 13, 17, 37, 41):
            for t in range(l):
                for d in range(1, l):
                    assert _excluded_kinds(t, d, l) == tuple(
                        k for k, c in MAXIMAL_KINDS if not c(t, d, l))
        # a scan at a large l fills the cache no further than its bound
        frobenius_noncontainment(WeierstrassCurve(0, 0, 1, -1, 0), 99991,
                                 1000)
        info = _excluded_kinds.cache_info()
        assert info.currsize <= info.maxsize
        assert info.maxsize >= 13 ** 2 + 17 ** 2 + 37 ** 2

    @pytest.mark.parametrize("E", [
        WeierstrassCurve(1, -1, 0, -7, 11),
        WeierstrassCurve(0, 0, 0, -1, 0),  # CM, j = 1728
    ], ids=["non-CM", "CM"])
    def test_one_prime_check_per_requested_prime(self, monkeypatch, E):
        # the per-prime entry point checks l, and the walk, the tail and
        # the certificate scan below it take the checked int
        checked = []
        check = modimage.classifier._checked_prime

        def counted(l):
            checked.append(l)
            return check(l)

        monkeypatch.setattr(modimage.classifier, "_checked_prime", counted)
        classify(E)
        assert sorted(checked) == sorted(DEFAULT_PRIMES)

    def test_trace_scans_accept_a_short_curve(self):
        E = ShortCurve(-1, 1)
        assert frobenius_noncontainment(E, 13, 100) == \
            frobenius_noncontainment(E.to_long(), 13, 100)
        j = E.j_invariant()
        for l in (13, 17, 37):
            assert classify_prime_noncm(E, j, l) == \
                classify_prime_noncm(E.to_long(), j, l)

    def test_one_sieve_per_frobenius_bound(self, monkeypatch):
        # the scans at 13, 17 and 37 of every curve share one sieve
        calls = []

        def counted(bound):
            calls.append(bound)
            return primes_up_to(bound)

        monkeypatch.setattr(modimage.classifier, "primes_up_to", counted)
        modimage.classifier._primes_to.cache_clear()
        for E in (WeierstrassCurve(0, 0, 1, -1, 0),
                  WeierstrassCurve(1, 0, 1, 4, -6)):
            classify(E, [13, 17, 37])
            classify(E, [17], frobenius_bound=500)
            # twist_set scans the same sieve as the certificate scans
            twist_set(E, 7, 1000)
        assert calls == [1000, 500]


class TestExceptionalLookup:
    CASES = (
        (17, F(-17 * 373**3, 2**17), "17.G1"),
        (17, F(-17**2 * 101**3, 2), "17.G2"),
        (37, F(-7 * 11**3), "37.G3"),
        (37, F(-7 * 137**3 * 2083**3), "37.G4"),
    )

    def test_known_j_invariants_need_no_model(self):
        for l, j, label in self.CASES:
            r = classify_from_j(j, [l]).results[0]
            assert (r.label, r.status) == (label, "proven")


class TestJOnlyClassification:
    def test_plus_minus_label_with_note(self):
        r = classify_from_j(F(-121), [11]).results[0]
        assert (r.label, r.status) == ("11.G1", "proven")
        assert "model" in r.note
        r = classify_from_j(F(-24729001), [11]).results[0]
        assert r.label == "11.G2"

    def test_tail_stays_conditional_without_a_model(self):
        r = classify_from_j(F(3), [13]).results[0]
        assert r.status == "conditional(BPR-conjecture)"
        assert r.possible == ("13.Ns", "13.Nns")
        assert "model" in r.note

    def test_cm_j_degrades_gracefully(self):
        r = classify_from_j(F(-3375), [7]).results[0]
        assert (r.label, r.status) == ("7.CM.G", "proven")
        assert "model" in r.note
        assert classify_from_j(F(-3375), [11]).results[0].label == "11.Ns"

    def test_special_cm_j_requires_model(self):
        for j in (F(0), F(1728)):
            with pytest.raises(ValueError):
                classify_from_j(j, [5])

    def test_non_finite_j_rejected(self):
        # Fraction raises OverflowError on an infinity
        for j in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="is not a rational number"):
                classify_from_j(j)
        assert classify_from_j(-121.0, [11]) == classify_from_j(F(-121), [11])


class TestTwistSets:
    E = short(-42875, -3246250)

    def test_exact_set_at_full_depth(self):
        assert sorted(twist_set(self.E, 7, 337)) == [-7, 1]

    def test_no_congruence_checks_leaves_all_candidates(self):
        got = sorted(twist_set(self.E, 7, 1))
        assert got == sorted(
            s * d for s in (1, -1) for d in (1, 2, 5, 7, 10, 14, 35, 70))

    def test_deeper_scan_only_shrinks(self):
        shallow = set(twist_set(self.E, 7, 50))
        deep = set(twist_set(self.E, 7, 337))
        assert deep <= shallow

    def test_even_prime_rejected(self):
        with pytest.raises(ValueError):
            twist_set(self.E, 2, 10)

    def test_unfactorable_discriminant_raises(self):
        stubborn = short(0, (10**9 + 7) * (10**9 + 9))
        with pytest.raises(FactorizationIncomplete):
            twist_set(stubborn, 7, 10, factor_bound=10**4)

    def test_scan_bound_refused_before_any_count(self, monkeypatch):
        # twist_set(E, 5, 10**6) ran for over 20 s; the command line
        # refused such an --r, the library did not
        def unreachable(*args):
            raise AssertionError("sieved or counted past the scan bound")

        monkeypatch.setattr(modimage.classifier, "primes_up_to", unreachable)
        monkeypatch.setattr(modimage.classifier, "ap", unreachable)
        for r in (MAX_SCAN_BOUND + 1, 10 ** 6):
            with pytest.raises(ValueError,
                               match=f"r must be at most {MAX_SCAN_BOUND}"):
                twist_set(self.E, 5, r)


class TestInputValidation:
    def test_composite_prime_rejected(self):
        with pytest.raises(ValueError):
            classify(WeierstrassCurve(0, 0, 1, -1, 0), [4])

    def test_duplicate_primes_collapse(self):
        rep = classify(WeierstrassCurve(0, 0, 1, -1, 0), [5, 5, 3])
        assert [r.prime for r in rep.results] == [3, 5]

    @pytest.mark.parametrize("l, j, message", [
        (2, 1728, "model required for j in {0, 1728}"),
        (2, 0, "model required for j in {0, 1728}"),
        (5, 0, "model required for j = 0"),
    ])
    def test_cm_verdict_needing_a_model_refuses_none(self, l, j, message):
        entry = modimage.tables.cm_entry(j)
        with pytest.raises(ValueError) as info:
            modimage.classifier.classify_cm(None, l, entry)
        assert str(info.value) == message

    @pytest.mark.parametrize("E, entry, message", [
        ("x", modimage.tables.cm_entry(1728), "not a curve: 'x'"),  # 5.Ns
        ((1, 0), modimage.tables.cm_entry(1728), "not a curve: (1, 0)"),
        (ShortCurve(1, 0), None, "not a CM entry: None"),  # AttributeError
        (None, F(1728), "not a CM entry: Fraction(1728, 1)"),
    ])
    def test_cm_verdict_refuses_a_wrong_type(self, E, entry, message):
        with pytest.raises(TypeError) as info:
            modimage.classifier.classify_cm(E, 5, entry)
        assert str(info.value) == message

    MERSENNE_3217 = 2 ** 3217 - 1  # a prime of 969 digits
    PRIME_TAKERS = ["classify", "classify_from_j", "classify_prime_noncm",
                    "classify_cm", "frobenius_noncontainment", "twist_set"]

    def prime_taking_calls(self, l):
        """Every library entry point that takes a prime l, called at l."""
        E = WeierstrassCurve(1, 1, 1, -305, 7888)
        j0 = modimage.tables.cm_entry(0)
        return {
            "classify": lambda: classify(E, [l, 5]),
            "classify_from_j": lambda: classify_from_j(F(-121), [l]),
            "classify_prime_noncm":
                lambda: classify_prime_noncm(E, E.j_invariant(), l),
            "classify_cm": lambda: classify_cm(ShortCurve(0, 5), l, j0),
            "frobenius_noncontainment":
                lambda: frobenius_noncontainment(E, l, 50),
            "twist_set": lambda: twist_set(E, l, 10),
        }

    @pytest.mark.parametrize("name", PRIME_TAKERS)
    @pytest.mark.parametrize("l", [MERSENNE_3217, -MERSENNE_3217, 10 ** 7 + 1],
                             ids=["2^3217-1", "-(2^3217-1)", "10^7+1"])
    def test_large_prime_refused_before_a_primality_test(self, name, l,
                                                         monkeypatch):
        def forbidden(n):
            raise AssertionError("primality test reached")

        monkeypatch.setattr(modimage.classifier, "is_probable_prime",
                            forbidden)
        with pytest.raises(ValueError) as info:
            self.prime_taking_calls(l)[name]()
        assert str(info.value) == "l must be a prime at most 10000000"

    @pytest.mark.parametrize("name", PRIME_TAKERS)
    @pytest.mark.parametrize("l", [9, 1, -7])
    def test_composite_or_small_prime_refused(self, name, l):
        # classify_prime_noncm and classify_cm used to answer at l = 9
        with pytest.raises(ValueError) as info:
            self.prime_taking_calls(l)[name]()
        assert str(info.value) == f"{l} is not prime"

    J_TOO_TALL = ("the numerator and denominator of j must be at most 200 "
                  "digits long")
    DISC_TOO_TALL = ("the discriminant of the integral model must be at "
                     "most 200 digits long")

    @staticmethod
    def forbid(monkeypatch, *names):
        def forbidden(*args, **kwargs):
            raise AssertionError("computation started")

        for name in names:
            monkeypatch.setattr(modimage.classifier, name, forbidden)

    # each call also breaks the prime limit where it names primes: the
    # height is checked first
    @pytest.mark.parametrize("call", [
        lambda: classify(WeierstrassCurve(0, 0, 0, 10 ** 70, 1)),
        lambda: classify(ShortCurve(10 ** 70, 1), [4]),
        lambda: classify_from_j(10 ** 200),
        lambda: classify_from_j(F(1, 10 ** 200), [9]),
        lambda: classify_from_j(F(-10 ** 250, 7), [0]),
    ], ids=["model", "short-model-composite-l", "j", "j-denominator",
            "negative-j-zero-l"])
    def test_tall_j_refused_before_the_walk(self, call, monkeypatch):
        self.forbid(monkeypatch, "is_probable_prime", "cm_entry",
                    "classify_cm", "classify_prime_noncm")
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == self.J_TOO_TALL

    def test_j_at_the_height_limit_is_classified(self):
        for j in (10 ** 200 - 1, F(-1, 10 ** 200 - 1)):
            assert classify_from_j(j, [2]).results[0].label == "GL2"

    @pytest.mark.parametrize("l", [7, 2, 9, 10 ** 7 + 1])
    def test_tall_twist_set_model_refused_before_factoring(self, l,
                                                          monkeypatch):
        # 4 (10^1500 + 1)^3 + 27 has 4501 digits
        self.forbid(monkeypatch, "is_probable_prime", "factor")
        with pytest.raises(ValueError) as info:
            twist_set(ShortCurve(10 ** 1500 + 1, 1), l, 10)
        assert str(info.value) == self.DISC_TOO_TALL

    def test_float_prime_gives_int_labels(self):
        # l is read as an int once, on entry: a float l used to come back
        # as the prime 2.0, and would have named the labels "13.0.Ns"
        for l in supported_primes():
            r = classify_prime_noncm(None, F(5, 7), float(l))
            assert type(r.prime) is int and r.prime == l
            assert r.possible or l < 13
            assert all(lab.startswith(f"{int(l)}.") for lab in r.possible)

    def test_non_integer_prime_rejected(self):
        E = WeierstrassCurve(1, 1, 1, -305, 7888)
        # int() raises OverflowError on an infinity and ValueError on NaN
        for l in (F(23, 2), 11.7, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="is not an integer"):
                classify(E, [l])
        for l in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="is not an integer"):
                twist_set(E, l, 10)
        assert classify(E, [F(11)]) == classify(E, [11])

    @pytest.mark.parametrize("call", [
        lambda E: classify(E, [13], 50.5),
        lambda E: classify(E, [13], float("nan")),
        lambda E: classify(E, [37], float("inf")),
        lambda E: frobenius_noncontainment(E, 13, F(50)),
        lambda E: twist_set(E, 7, 50.5),
    ], ids=["classify", "classify-nan", "classify-inf", "certificates",
            "twist-set"])
    def test_non_integer_bound_rejected(self, call):
        # the sieve of primes up to a Frobenius or twist-set bound refuses
        # it, where it used to raise TypeError from inside the sieve
        with pytest.raises(ValueError,
                           match="the sieve bound is not an integer"):
            call(WeierstrassCurve(0, 0, 1, -1, 0))


class TestFingerprintSoundness:
    # a verdict G at l claims the image of Frobenius at every good p != l
    # lies in G, so (a_p mod l, p mod l) must be the (trace, det) pair of
    # some element of G; the converse (every pair is seen) is not checked
    BOUND = 250

    def corpus(self):
        """The thirteen CM models at the default primes, and one seeded
        member of every table family and its twist by l* at that l."""
        rng = random.Random(6)
        out = [(e.model.to_long(), None) for e in CM_TABLE]
        for l in supported_primes():
            table = prime_table(l)
            for e in table.entries:
                if e.family is None:
                    continue
                t = F(rng.randint(-9, 9), rng.randint(1, 3))
                while t in e.bad_t:
                    t += 1
                E = ShortCurve(*(c.evaluate(t) for c in e.family))
                out.append((E.to_long(), [l]))
                out.append((quadratic_twist(E, table.twist).to_long(), [l]))
        return out

    def test_frobenius_pairs_lie_in_the_labelled_group(self):
        prints = {}
        verdicts = 0
        for E, primes in self.corpus():
            labelled = [r for r in classify(E, primes).results
                        if r.label != "GL2"]
            if not labelled:
                continue
            M, _ = integral_model(E)
            disc = int(M.discriminant())
            traces = {p: brute_force_ap(M, p)
                      for p in primes_up_to(self.BOUND) if disc % p}
            for r in labelled:
                l = r.prime
                if r.label not in prints:
                    prints[r.label] = subgroup_fingerprints(
                        group_from_label(l, r.label).elements)
                for p, a in traces.items():
                    if p != l:
                        assert (a % l, p % l) in prints[r.label], \
                            (E, r.label, p)
                verdicts += 1
        assert verdicts >= 100 and len(prints) >= 30


class TestCompleteness:
    # a GL2 verdict must not hide a proper image; the point counts and the
    # enumerated groups here never touch the classifier's fingerprint tests

    def test_mod_2_is_read_off_the_2_division_cubic(self):
        # exact both ways: (x - 1)(x - 2)(x + 3) splits (2.G1, j = 148176/25);
        # x^3 - 3x + 1 has no rational root and discriminant 81 (2.G3)
        assert one(short(-7, 6), 2).label == mod2_label(-7, 6) == "2.G1"
        assert one(short(-3, 1), 2).label == mod2_label(-3, 1) == "2.G3"
        cm_js = {e.j for e in CM_TABLE}
        rng = random.Random(2)
        models = set()
        while len(models) < 300:
            A, B = rng.randint(-30, 30), rng.randint(-30, 30)
            den = 4 * A ** 3 + 27 * B ** 2
            if den and F(6912 * A ** 3, den) not in cm_js:
                models.add((A, B))
        for A, B in sorted(models):
            assert one(short(A, B), 2).label == mod2_label(A, B), (A, B)

    # Over Q the determinant is onto, so a proper image at 5 <= l <= 13
    # lies in a Borel, a split or nonsplit Cartan normalizer, or has
    # projective image S4 (Serre, Invent. Math. 1972, 2.6): each of these
    # must miss the (a_p mod l, p mod l) pair of some good p
    MAXIMAL = (borel, normalizer_split, normalizer_nonsplit,
               octahedral_normalizer)
    PRIMES = (5, 7, 11, 13)
    BOUND = 300

    # one j on each table entry at 5 <= l <= 13 (a cover value at a small
    # t, a listed j, the nonsplit-11 criterion's), written out so that a
    # dropped or mistranscribed entry leaves its member behind
    MEMBERS = {
        5: (F(-122023936, 161051), F(1511372858176, 6956883693),
            F(552960000, 161051), F(-5000), F(-25, 2), F(-1, 608), F(1875),
            F(64), F(-36)),
        7: (F(2268945, 128), F(-68694048000, 62748517), F(-2146689, 1664),
            F(-2401, 6), F(-56723625, 13), F(106227040256, 62748517),
            F(-15590912409, 78125)),
        11: (F(-121), F(-24729001), J11),
        13: (F(-160855552000, 1594323), F(-14210405279629, 14648437500),
             F(-60698457, 40960), F(-49353408, 5), F(-274432, 7971615),
             F(-28672, 3), F(-189, 2)),
    }

    def corpus(self):
        """60 seeded small curves at every l, and each member at its l."""
        rng = random.Random(5)
        out = []
        while len(out) < 60:
            try:
                E = WeierstrassCurve(rng.randint(0, 1), rng.randint(-1, 1),
                                     rng.randint(0, 1), rng.randint(-30, 30),
                                     rng.randint(-30, 30))
            except SingularCurveError:
                continue
            out.append((E, self.PRIMES))
        for l, js in self.MEMBERS.items():
            out += [(short(-3 * j * (j - 1728), -2 * j * (j - 1728) ** 2),
                     [l]) for j in js]
        return out

    def test_every_gl2_verdict_misses_each_maximal_type(self):
        prints = {(l, make): subgroup_fingerprints(make(l).elements)
                  for l in self.PRIMES for make in self.MAXIMAL}
        verdicts = 0
        for E, primes in self.corpus():
            M, _ = integral_model(E)
            disc = int(M.discriminant())
            good = [p for p in primes_up_to(self.BOUND) if disc % p]
            traces = {}  # counted on demand, shared by every l and type

            def pair(p, l):
                if p not in traces:
                    traces[p] = brute_force_ap(M, p)
                return traces[p] % l, p % l

            for r in classify(E, primes).results:
                if r.label != "GL2":
                    continue
                l = r.prime
                for make in self.MAXIMAL:
                    assert any(pair(p, l) not in prints[l, make]
                               for p in good if p != l), (E, l, make)
                verdicts += 1
        assert verdicts >= 200


class TestVerdictExits:
    # one input per way a verdict can come out, each given as
    # (model or None, j or None, primes, frobenius bound)
    CASES = (
        # non-CM: cover hit with its witness t; j-value hit refined by
        # twist; the nonsplit-11 criterion; a cover hit at l = 2
        (WeierstrassCurve(0, -1, 1, -10, -20), None, [5], 1000),
        (WeierstrassCurve(1, 1, 1, -305, 7888), None, [11], 1000),
        (short(3 * J11 * (1728 - J11), 2 * J11 * (1728 - J11) ** 2), None,
         [11], 1000),
        (short(-3, 1), None, [2], 1000),
        # GL2 at every prime up to 11, the proven 13, 17 and 37 tails; the
        # conditional 13 and l >= 17 tails; the j-value hits at 17 and 37
        (WeierstrassCurve(0, 0, 1, -1, 0), None, [2, 3, 5, 7, 11, 13, 17, 37],
         1000),
        (WeierstrassCurve(0, 0, 1, -1, 0), None, [13, 19, 23], 6),
        (WeierstrassCurve(1, 0, 1, -190891, -36002922), None, [17], 1000),
        (WeierstrassCurve(1, 1, 1, -208083, -36621194), None, [37], 1000),
        # CM, j = 0: at 3, and by l mod 9 (1, 2, 4, 5, 7, 8), with the
        # index-3 drop at 13 and 11
        (short(0, 16), None, [2, 3, 5, 7, 11, 13, 17, 19], 1000),
        (short(0, 16 * 13), None, [13], 1000),
        (short(0, 16 * 121), None, [11], 1000),
        (short(0, 2), None, [2, 3], 1000),
        # CM, j = 1728 at 2 both ways; the l = 2 table for other CM j;
        # l = D with a model, its -D twist, and without a model
        (short(-1, 0), None, [2], 1000),
        (short(1, 0), None, [2, 3, 5], 1000),
        (short(-1715, 33614), None, [2, 7, 11], 1000),
        (quadratic_twist(ShortCurve(-1715, 33614), -7).to_long(), None, [7],
         1000),
        (short(-15, 22), None, [2, 3, 5, 7], 1000),
        (None, F(-3375), [2, 7, 11], 1000),
        # from j alone: a j-value hit and the 13 tail, each with a note
        (None, F(-121), [11], 1000),
        (None, F(3), [13], 1000),
    )
    # sha256 of the text and JSON renderings of every case's report
    SHA256 = ("e1e9a0f2d82e3f7aa54cada7ca1a6f15"
              "307abc91cdafd75919461e71f6eef1aa")

    def test_verdict_exits_are_pinned(self, capsys):
        digest = hashlib.sha256()
        for model, j, primes, bound in self.CASES:
            if model is None:
                report = classify_from_j(j, primes, frobenius_bound=bound)
            else:
                report = classify(model, primes, frobenius_bound=bound)
            _print_text_report(report)
            digest.update(capsys.readouterr().out.encode())
            digest.update(json.dumps(report_to_dict(report),
                                     indent=2).encode())
        assert digest.hexdigest() == self.SHA256
