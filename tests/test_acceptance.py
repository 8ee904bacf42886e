"""Acceptance suite: ten end-to-end criteria, one test each.

Each test prints a single PASS line on success (visible with -rP or -s);
a failure shows up as an ordinary pytest failure. Oracles are kept
independent of the code under test: point counts are enumerated from
scratch, rational roots are cross-checked against divisor search, and
group facts against exhaustive subgroup enumeration.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import modimage
from modimage.classifier import classify, frobenius_noncontainment, twist_set
from modimage.ec import (
    ShortCurve,
    SingularCurveError,
    WeierstrassCurve,
    ap,
    division_polynomial,
    integral_model,
    quadratic_twist,
)
from modimage.gl2 import (
    Mat2,
    Subgroup,
    borel,
    fingerprint_in_borel,
    fingerprint_in_nonsplit_normalizer,
    fingerprint_in_octahedral,
    fingerprint_in_split_normalizer,
    gl2_order,
    is_applicable,
    normalizer_nonsplit,
    normalizer_split,
    octahedral_normalizer,
)
from modimage.polyq import Poly, exact_divide, rational_roots
from modimage.tables import (
    CM_TABLE,
    cm_entry,
    prime_table,
    supported_primes,
    verify_all,
)
from oracles import cover_value, divisor_root_search, value_at_infinity


def announce(n, text):
    print(f"criterion {n:2d}: PASS  {text}")


def classify_one(E, l, **kw):
    return classify(E, [l], **kw).results[0]


def test_criterion_01_identity_suite():
    """verify-tables passes every algebraic identity, exactly, in time."""
    t0 = time.time()
    src = os.path.dirname(os.path.dirname(modimage.__file__))
    proc = subprocess.run([sys.executable, "-m", "modimage.cli",
                           "verify-tables"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    assert elapsed <= 30, f"verify-tables took {elapsed:.1f}s"
    # the named identities the suite must contain
    results = {name: ok for name, ok, _ in verify_all()}
    for l in (2, 3, 5, 7, 13):
        assert any(name.startswith(f"compose:{l}.") for name in results), l
    assert any(name.startswith("family:") for name in results)
    for name in ("nonsplit11:A-power", "nonsplit11:discriminant",
                 "nonsplit11:point1", "nonsplit11:point2",
                 "nonsplit11:point4", "nonsplit11:point5"):
        assert results[name], name
    assert all(results.values())
    announce(1, f"{len(results)} identities, {elapsed:.1f}s")


def test_criterion_02_group_tables():
    """Index lists reproduced by enumeration; applicability and twist
    pairs hold for every entry."""
    t0 = time.time()
    printed = {
        2: [("G1", 6), ("G2", 3), ("G3", 2)],
        3: [("G1", 12), ("G2", 6), ("G3", 4), ("G4", 3)],
        5: [("G1", 60), ("G2", 30), ("G3", 30), ("G4", 15), ("G5", 12),
            ("G6", 12), ("G7", 10), ("G8", 6), ("G9", 5)],
        7: [("G1", 56), ("G2", 28), ("G3", 24), ("G4", 24), ("G5", 24),
            ("G6", 21), ("G7", 8)],
        11: [("G1", 60), ("G2", 60), ("G3", 55)],
        13: [("G7", 91), ("G1", 42), ("G2", 42), ("G3", 42), ("G4", 28),
             ("G5", 28), ("G6", 14)],
        17: [("G1", 72), ("G2", 72)],
        37: [("G3", 114), ("G4", 114)],
    }
    total = 0
    for l in supported_primes():
        got = [(e.label.split(".")[1], e.index)
               for e in prime_table(l).entries]
        assert got == printed[l], l
        for e in prime_table(l).entries:
            G = Subgroup(l, [Mat2(*g, l) for g in e.gens], label=e.label)
            assert G.order * e.index == gl2_order(l), e.label
            assert is_applicable(G), e.label
            minus_i = Mat2(-1, 0, 0, -1, l)
            for sub_label, sub_gens in e.subs:
                H = Subgroup(l, [Mat2(*g, l) for g in sub_gens],
                             label=sub_label)
                assert minus_i not in H.elements, sub_label
                assert 2 * H.order == G.order, sub_label
                assert (set(H.elements) | {-m for m in H.elements}
                        == set(G.elements)), sub_label
                total += 1
            total += 1
    elapsed = time.time() - t0
    assert elapsed <= 20, f"group enumeration took {elapsed:.1f}s"
    announce(2, f"{total} groups enumerated, {elapsed:.1f}s")


def test_criterion_03_benchmark_classifications():
    """Exact label match on the eight benchmark classifications."""
    cases = [
        (WeierstrassCurve(1, 1, 1, -305, 7888), 11, "11.H1.1"),
        (WeierstrassCurve(1, 1, 0, -3632, 82757), 11, "11.H2.1"),
        (WeierstrassCurve(1, 0, 1, -190891, -36002922), 17, "17.G1"),
        (WeierstrassCurve(1, 0, 1, -3041, 64278), 17, "17.G2"),
        (WeierstrassCurve(1, 1, 1, -8, 6), 37, "37.G3"),
        (WeierstrassCurve(1, 1, 1, -208083, -36621194), 37, "37.G4"),
        (ShortCurve(-42875, -3246250).to_long(), 7, "7.H1.1"),
        (quadratic_twist(ShortCurve(-42875, -3246250), -7).to_long(),
         7, "7.H1.1"),
    ]
    for E, l, expected in cases:
        r = classify_one(E, l)
        assert (r.label, r.status) == (expected, "proven"), (l, expected)
    announce(3, f"{len(cases)} curves labeled exactly")


def test_criterion_04_cm_suite():
    """All thirteen CM models classify at l in {2,...,13}; spot anchors
    match the hand-applied case rules."""
    count = 0
    for entry in CM_TABLE:
        rep = classify(entry.model.to_long(), [2, 3, 5, 7, 11, 13])
        assert all(r.status == "proven" for r in rep.results)
        count += len(rep.results)
    assert classify_one(ShortCurve(0, 16).to_long(), 2).label == "GL2"
    assert classify_one(ShortCurve(0, 16).to_long(), 3).label == "3.H1.1"
    assert classify_one(ShortCurve(-1715, 33614).to_long(), 7).label \
        == "7.CM.H1"
    E41 = ShortCurve(1, 0).to_long()  # y^2 = x^3 + x
    assert classify_one(E41, 2).label == "2.G2"
    assert classify_one(E41, 5).label == "5.Ns"
    assert classify_one(ShortCurve(-9504, 365904).to_long(), 11).label \
        == "11.CM.H1"
    announce(4, f"{count} CM classifications, anchors exact")


def count_points_brute(M, p):
    """Affine point count over F_p straight from the curve equation."""
    a1, a2, a3, a4, a6 = (int(a) % p for a in M.a_invariants())
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, []).append(y)
    n = 0
    for x in range(p):
        # complete the square: (2y + a1 x + a3)^2 = rhs
        rhs = ((a1 * x + a3) ** 2
               + 4 * (x ** 3 + a2 * x * x + a4 * x + a6)) % p
        if p == 2:
            n += sum(1 for y in range(2)
                     if (y * y + a1 * x * y + a3 * y) % 2
                     == (x ** 3 + a2 * x * x + a4 * x + a6) % 2)
        else:
            n += len(squares.get(rhs, []))
    return n + 1  # the point at infinity


def test_criterion_05_trace_oracle():
    """Quoted traces reproduced; Hasse bound against brute-force counts."""
    quoted = [
        (WeierstrassCurve(1, 1, 1, -305, 7888), 2, -1),
        (WeierstrassCurve(1, 1, 0, -3632, 82757), 2, 1),
        (WeierstrassCurve(0, 0, 0, -338, 2392), 3, 0),
    ]
    for E, p, expected in quoted:
        M, _ = integral_model(E)
        assert ap(M, p) == expected, (p, expected)
    five = [
        WeierstrassCurve(1, 1, 1, -305, 7888),
        WeierstrassCurve(1, 1, 0, -3632, 82757),
        WeierstrassCurve(0, 0, 0, -338, 2392),
        WeierstrassCurve(0, 0, 1, -1, 0),
        WeierstrassCurve(0, -1, 1, -10, -20),
    ]
    primes = [p for p in range(2, 201)
              if all(p % q for q in range(2, p))]
    checked = 0
    for E in five:
        M, _ = integral_model(E)
        disc = int(M.discriminant())
        for p in primes:
            if disc % p == 0:
                continue
            a = ap(M, p)
            assert a == p + 1 - count_points_brute(M, p), (p, a)
            assert a * a <= 4 * p, f"Hasse fails at {p}"
            checked += 1
    announce(5, f"3 quoted traces, {checked} brute-force counts agree")


def test_criterion_06_division_polynomials():
    """psi_3 closed form and the quintic factor of psi_11."""
    t0 = time.time()
    x = Poly([F(0), F(1)])
    for d in (-5, -4, -1, 1, 2, 3, 7, 16):
        psi3 = division_polynomial(ShortCurve(0, d).to_long(), 3)
        assert psi3 == 3 * x * (x ** 3 + Poly.const(F(4 * d))), d
    psi11 = division_polynomial(WeierstrassCurve(1, 1, 1, -305, 7888), 11)
    assert psi11.degree == 60
    quintic = Poly([F(c) for c in
                    (-4132831, -421871, 81847, 800, -129, 1)])
    assert exact_divide(psi11, quintic) is not None
    elapsed = time.time() - t0
    assert elapsed <= 10, f"psi_11 took {elapsed:.1f}s"
    announce(6, f"psi_3 form and psi_11 quintic factor, {elapsed:.1f}s")


def test_criterion_07_twist_sets():
    """The discriminant scan reproduces both published twist sets."""
    t0 = time.time()
    E = ShortCurve(-42875, -3246250).to_long()
    assert sorted(twist_set(E, 7, 337)) == [-7, 1]
    got = sorted(twist_set(E, 7, 1))
    assert got == sorted(s * d for s in (1, -1)
                         for d in (1, 2, 5, 7, 10, 14, 35, 70))
    elapsed = time.time() - t0
    assert elapsed <= 30, f"twist sets took {elapsed:.1f}s"
    announce(7, f"twist sets {{1,-7}} and 16 candidates, {elapsed:.1f}s")


def test_criterion_08_rational_root_oracle():
    """Hensel-based roots agree with divisor search on 200 random
    polynomials with planted roots."""
    rng = random.Random(8)
    for trial in range(200):
        n_planted = rng.randint(0, 2)
        f = Poly([F(1)])
        deg_used = 0
        for _ in range(n_planted):
            p = rng.randint(-9, 9)
            q = rng.randint(1, 6)
            f = f * Poly([F(-p), F(q)])  # q x - p
            deg_used += 1
        rest = rng.randint(0, 6 - deg_used)
        tail = [F(rng.randint(-30, 30)) for _ in range(rest)]
        lead = F(rng.choice([c for c in range(-30, 31) if c]))
        f = f * Poly(tail + [lead])
        if f.degree < 1:
            continue
        assert set(rational_roots(f)) == divisor_root_search(f), \
            (trial, f.coeffs)
    announce(8, "200 planted-root polynomials agree with divisor search")


def matches_entry(entry, j):
    """Whether the walk would stop at this entry for the given j."""
    if entry.criterion == "nonsplit-fiber":
        from modimage.tables import nonsplit11_contains
        return nonsplit11_contains(j)
    if entry.jvals is not None:
        return j in entry.jvals
    if entry.cover is not None:
        f = entry.cover.num - Poly.const(j) * entry.cover.den
        if any(r not in entry.bad_t for r in rational_roots(f)):
            return True
        return value_at_infinity(entry.cover) == j
    return False


def test_criterion_09_twist_coherence():
    """Family members refine to H_{i,1}, their distinguished twists to
    H_{i,2}, and both collapse to G_i at the plus-minus level."""
    rng = random.Random(9)
    pairs = 0
    for l in supported_primes():
        table = prime_table(l)
        lstar = table.twist
        for pos, entry in enumerate(table.entries):
            if entry.family is None or not entry.subs or entry.cover is None:
                continue
            A, B = entry.family
            earlier = table.entries[:pos]
            done = 0
            while done < 10:
                t = F(rng.randint(-60, 60), rng.randint(1, 8))
                if t in entry.bad_t:
                    continue
                j = cover_value(entry.cover, t)
                if j is None or j in (F(0), F(1728)):
                    continue
                if cm_entry(j) is not None:
                    continue
                if any(matches_entry(e, j) for e in earlier):
                    continue
                try:
                    E = ShortCurve(A.evaluate(t), B.evaluate(t))
                except SingularCurveError:
                    continue
                h1 = classify_one(E.to_long(), l)
                h2 = classify_one(quadratic_twist(E, lstar).to_long(), l)
                names = [name for name, _ in entry.subs]
                assert h1.label == names[0], (entry.label, t, h1.label)
                assert h2.label == names[1], (entry.label, t, h2.label)
                done += 1
            pairs += 1
    assert pairs >= 10
    announce(9, f"{pairs} family pairs, 10 parameters each")


def test_criterion_10_certificate_soundness():
    """Ruled-out types carry fingerprints no subgroup element realizes."""
    rng = random.Random(10)
    enumerated = {
        "Borel": borel(13).invariants().fingerprints,
        "SplitNormalizer": normalizer_split(13).invariants().fingerprints,
        "NonsplitNormalizer":
            normalizer_nonsplit(13).invariants().fingerprints,
        "Exceptional": octahedral_normalizer(13).invariants().fingerprints,
    }
    closed_form = {
        "Borel": fingerprint_in_borel,
        "SplitNormalizer": fingerprint_in_split_normalizer,
        "NonsplitNormalizer": fingerprint_in_nonsplit_normalizer,
        "Exceptional": fingerprint_in_octahedral,
    }
    curves = 0
    certs = 0
    while curves < 50:
        try:
            E = WeierstrassCurve(rng.randint(0, 1), rng.randint(-1, 1),
                                 rng.randint(0, 1), rng.randint(-20, 20),
                                 rng.randint(-20, 20))
        except SingularCurveError:
            continue
        curves += 1
        for kind, cert in frobenius_noncontainment(E, 13, 200).items():
            pair = (cert.trace, cert.det)
            assert pair not in enumerated[kind], (kind, pair)
            assert not closed_form[kind](cert.trace, cert.det, 13), \
                (kind, pair)
            certs += 1
    assert certs >= 50
    announce(10, f"50 curves, {certs} certificates all sound")
