"""Independent reference implementations used only by the tests.

Each function here deliberately takes a different route than the package
code it is checked against, so that agreement between the two is real
evidence and not a shared bug:

  * divisor_root_search finds rational roots by enumerating divisors of
    the outer coefficients, while polyq.rational_roots lifts roots
    p-adically and reconstructs.
  * brute_force_ap counts points by scanning every affine pair (x, y)
    mod p, while ec.ap sums a quadratic character over x only.
  * schoolbook_product multiplies coefficient by coefficient in
    Fractions, while Poly.__mul__ packs integer coefficients into one big
    int (Kronecker substitution).
  * termwise_compose builds every term c_i p^i q^(d-i) of the
    homogenized substitution with Poly arithmetic and sums them, while
    polyq.compose runs one Horner pass on the inner map's integer
    numerators packed into plain ints.
  * fraction_poly_sqrt solves for the coefficients of a square root in
    Fractions from the top one down and checks it by schoolbook_product,
    while polyq.poly_sqrt works on the integer numerators, refusing at
    the first inexact division.
  * fraction_gcd runs Euclid on Fraction coefficient lists, making the
    divisor monic at every step, while polyq.poly_gcd reads the gcd off
    one integer gcd of the inputs packed at a power of two, checked by
    division, and otherwise runs an integer pseudo-remainder sequence.
  * subgroup_fingerprints enumerates an explicit subgroup, while the
    closed-form predicates in gl2 never build the group.
  * naive_span closes a set of plain 4-tuples under products with the
    generators, round by round on plain sets, while gl2.span grows a
    frontier of Mat2 objects.
  * enumerated_twist_pair compares the naive_span sets of two groups
    element by element, while gl2.is_twist_pair reads the diagonal pairs
    alone when both groups lie in the Borel group in closed form.
  * cover_value and value_at_infinity evaluate a (num, den) cover at a
    point and read its limit from the leading terms, while the package
    asks whether num - j*den has a root or drops degree.
  * silverman_invariants writes out the formulas of Silverman III.1 for
    b2..b8, c4, c6, the discriminant and j on Fractions, while ec
    computes them once in one helper, in plain ints for an integral
    model; the test also holds the oracle to the identities
    4 b8 = b2 b6 - b4^2 and 1728 disc = c4^3 - c6^2.
  * fraction_model computes the invariants, the integral model and the
    short model on Fractions of the coefficients as given, by the nested
    formulas ec used before its kernel, while ec scales the coefficients
    to the integral model first and computes in ints.
  * mod2_label reads the mod-2 image of y^2 = x^3 + Ax + B off the
    rational roots and discriminant of the 2-division cubic, while the
    classifier walks the l = 2 cover table.
  * is_conjugate decides conjugacy of two subgroups by searching all of
    GL2(F_l) (enumerate_gl2) for an element that carries the generators
    of one into the other, inverting it by the adjugate (mat_inverse);
    the package has no conjugacy test at all, and the tests use it to tie
    table groups to the named constructions.
  * unsieved_first_hit walks a table entry by entry with the exact tests
    alone (the rational roots of each fibre, the j-values, the
    nonsplit-11 polynomial), while classifier._first_hit first sieves
    every entry at once against its images modulo small primes.
  * report_to_dict builds a classification report as nested dicts and
    lists for json.dumps, while cli.report_json fills the JSON text into
    fixed templates.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from modimage.gl2 import Mat2
from modimage.polyq import INFINITY, Poly, rational_roots
from modimage.tables import nonsplit11, prime_table


def _divisors(n):
    """All positive divisors of n (n != 0), built from its factorization
    by trial division."""
    n = abs(n)
    out = {1}
    q = 2
    while q * q <= n:
        k = 0
        while n % q == 0:
            n //= q
            k += 1
        if k:
            out = {d * q ** e for d in out for e in range(k + 1)}
        q += 1
    if n > 1:
        out |= {d * n for d in out}
    return out


def divisor_root_search(f):
    """All rational roots of a nonzero Poly over Q, the slow classical way.

    Clears denominators, strips powers of the variable, then tests every
    candidate +-u/v with u dividing the constant term and v dividing the
    leading term by exact substitution.
    """
    if f.degree < 0:
        raise ValueError("zero polynomial")
    coeffs = list(f.coeffs)
    roots = set()
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    a0, an = ints[0], ints[-1]
    for u in _divisors(a0):
        for v in _divisors(an):
            if gcd(u, v) != 1:
                continue
            for cand in (Fraction(u, v), Fraction(-u, v)):
                if f.evaluate(cand) == 0:
                    roots.add(cand)
    return roots


def schoolbook_product(f, g):
    """f*g for Polys, by summing every pairwise product of coefficients."""
    out = {}
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out.get(i + j, Fraction(0)) + a * b
    return Poly([out[i] for i in range(len(out))])


def termwise_compose(outer, inner):
    """outer(inner(t)) for (num, den) pairs of Polys: with inner = p/q and
    d the mapping degree of outer, each of outer's num and den becomes
    sum_i c_i p^i q^(d-i), every term a product of Polys. Raises
    ZeroDivisionError when the denominator comes out zero."""
    p, q = inner
    d = max(outer[0].degree, outer[1].degree, 0)
    ppow = [Poly.const(1)]
    qpow = [Poly.const(1)]
    for _ in range(d):
        ppow.append(ppow[-1] * p)
        qpow.append(qpow[-1] * q)

    def homog(f):
        acc = Poly()
        for i in range(f.degree + 1):
            c = f[i]
            if c != 0:
                acc = acc + c * ppow[i] * qpow[d - i]
        return acc

    num, den = map(homog, outer)
    if den.is_zero():
        raise ZeroDivisionError("composition lands at a pole everywhere")
    return num, den


def fraction_poly_sqrt(f):
    """g with g*g == f when the Poly f is a square over Q, else None; the
    leading coefficient of g is positive. The coefficient of x^(n+k) in
    g*g fixes g's x^k coefficient once the higher ones are known."""
    if f.is_zero():
        return Poly()
    if f.degree % 2 != 0:
        return None
    lead = f.leading()
    u, v = isqrt(max(lead.numerator, 0)), isqrt(lead.denominator)
    if (u * u, v * v) != (lead.numerator, lead.denominator):
        return None
    n = f.degree // 2
    g = [Fraction(0)] * (n + 1)
    g[n] = Fraction(u, v)
    for k in range(n - 1, -1, -1):
        s = Fraction(0)
        for i in range(k + 1, n):
            s += g[i] * g[n + k - i]
        g[k] = (f[n + k] - s) / (2 * g[n])
    cand = Poly(g)
    return cand if schoolbook_product(cand, cand) == f else None


def fraction_gcd(f, g):
    """The monic gcd of two Polys as a tuple of Fractions, index = degree
    (() for two zeros), by Euclid's algorithm on their coefficients."""
    a, b = _trimmed(f.coeffs), _trimmed(g.coeffs)
    while b:
        b = [c / b[-1] for c in b]
        r = list(a)
        while len(r) >= len(b):
            u, shift = r[-1], len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= u * c
            r = _trimmed(r)
        a, b = b, r
    return tuple(c / a[-1] for c in a)


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def cover_value(cover, t):
    """num(t)/den(t) for a (num, den) pair of Polys, or None at a pole."""
    num, den = cover
    d = den.evaluate(t)
    return None if d == 0 else num.evaluate(t) / d


def value_at_infinity(cover):
    """The limit of num/den as t grows: the ratio of the leading terms, 0
    when den has the higher degree, None (a pole) when num has it."""
    num, den = cover
    if num.degree > den.degree:
        return None
    if num.degree < den.degree:
        return Fraction(0)
    return num.leading() / den.leading()


def brute_force_ap(curve, p):
    """Trace of Frobenius at a good odd-or-even prime p by full enumeration.

    Counts solutions of the long Weierstrass equation over F_p directly,
    one pair (x, y) at a time, plus the point at infinity.
    """
    a1, a2, a3, a4, a6 = (int(a) for a in curve.a_invariants())
    if int(curve.discriminant()) % p == 0:
        raise ValueError("bad reduction at %d" % p)
    count = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                count += 1
    return p + 1 - count


def subgroup_fingerprints(elements):
    """The set of (trace, det) pairs over an explicit set of matrices."""
    return {(m.trace(), m.det()) for m in elements}


def naive_span(generators, l):
    """The subgroup of GL2(F_l) generated by (a, b, c, d) tuples, as a set
    of reduced 4-tuples: multiply every new member by every generator
    until nothing new appears. In a finite group the inverses are powers,
    so the products alone span it."""
    gens = [tuple(x % l for x in g) for g in generators]
    group = {(1, 0, 0, 1)}
    new = list(group)
    while new:
        products = {((a * e + b * g) % l, (a * f + b * h) % l,
                     (c * e + d * g) % l, (c * f + d * h) % l)
                    for a, b, c, d in new for e, f, g, h in gens}
        new = products - group
        group |= new
    return group


def enumerated_twist_pair(G, H):
    """Whether H and -H make up G, -I is not in H and 2 |H| = |G|, on the
    naive_span sets of the two groups' generators."""
    l = G.l
    g = naive_span([m.tuple() for m in G.generators], l)
    h = naive_span([m.tuple() for m in H.generators], H.l)
    minus_h = {tuple(-x % l for x in m) for m in h}
    return (H.l == l and (l - 1, 0, 0, l - 1) not in h
            and 2 * len(h) == len(g) and h | minus_h == g)


def enumerate_gl2(l):
    """Iterate over all of GL2(F_l). Quadratic in l^2; fine for l <= 13."""
    for a in range(l):
        for b in range(l):
            for c in range(l):
                for d in range(l):
                    if (a * d - b * c) % l != 0:
                        yield Mat2(a, b, c, d, l)


def mat_inverse(m):
    """The inverse of a Mat2: its adjugate over its determinant."""
    inv_det = pow(m.det(), -1, m.l)
    return Mat2(m.d * inv_det, -m.b * inv_det, -m.c * inv_det,
                m.a * inv_det, m.l)


def is_conjugate(G, H):
    """Decide conjugacy in GL2(F_l), returning (True, M) for a witness M
    with M G M^-1 = H, else (False, None).

    Fast rejection by order and fingerprint set; then a search over the
    full group, checking that each generator of G lands in H (equal orders
    then force equality). Intended for l <= 13.
    """
    if G.l != H.l:
        raise ValueError("subgroups of different ambient groups")
    if G.order != H.order:
        return False, None
    if G.invariants().fingerprints != H.invariants().fingerprints:
        return False, None
    gens = G.generators if G.generators else tuple(G.elements)
    for m in enumerate_gl2(G.l):
        m_inv = mat_inverse(m)
        if all((m * g * m_inv) in H.elements for g in gens):
            return True, m
    return False, None


def naive_is_square(x):
    """Integer square test by isqrt, for cross-checking exactmath."""
    if x < 0:
        return False
    r = isqrt(x)
    return r * r == x


def squares_mod(p):
    """The set of nonzero quadratic residues mod an odd prime p."""
    return {(x * x) % p for x in range(1, p)}


def mod2_label(A, B):
    """The mod-2 image label of y^2 = x^3 + Ax + B from its 2-division
    cubic: three rational roots give 2.G1, one gives 2.G2, none with a
    square discriminant gives 2.G3 (cyclic of order 3), else GL2."""
    roots = divisor_root_search(Poly([B, A, 0, 1]))
    if len(roots) == 3:
        return "2.G1"
    if len(roots) == 1:
        return "2.G2"
    return "2.G3" if naive_is_square(-4 * A ** 3 - 27 * B ** 2) else "GL2"


def silverman_invariants(a1, a2, a3, a4, a6):
    """{name: Fraction} of b2, b4, b6, b8, c4, c6, disc and j of the long
    Weierstrass model with coefficients a1..a6, by the formulas of
    Silverman III.1; j is None when disc = 0."""
    a1, a2, a3, a4, a6 = map(Fraction, (a1, a2, a3, a4, a6))
    b2 = a1 * a1 + 4 * a2
    b4 = a1 * a3 + 2 * a4
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return {"b2": b2, "b4": b4, "b6": b6, "b8": b8, "c4": c4, "c6": c6,
            "disc": disc, "j": c4 * c4 * c4 / disc if disc else None}


def fraction_model(a1, a2, a3, a4, a6):
    """{name: value} of the model with coefficients a1..a6, all on
    Fractions of the coefficients as given: b2..b8, c4, c6, disc and j
    (None when disc = 0) by the nested formulas of Silverman III.1, the
    integral model as (a-invariants, u) with u the lcm of the
    denominators, and the short model (A, B) = (-27 c4, -54 c6)."""
    a1, a2, a3, a4, a6 = a = tuple(map(Fraction, (a1, a2, a3, a4, a6)))
    b2 = a1 ** 2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 ** 2 + 4 * a6
    b8 = b2 * a6 + a3 * (a2 * a3 - a1 * a4) - a4 ** 2
    c4 = b2 ** 2 - 24 * b4
    c6 = -b2 * (c4 - 12 * b4) - 216 * b6
    disc = b2 * (9 * b4 * b6 - b2 * b8) - (8 * b4 ** 3 + 27 * b6 ** 2)
    u = lcm(*(x.denominator for x in a))
    integral = (a1 * u, a2 * u ** 2, a3 * u ** 3, a4 * u ** 4, a6 * u ** 6)
    return {"b2": b2, "b4": b4, "b6": b6, "b8": b8, "c4": c4, "c6": c6,
            "disc": disc, "j": c4 ** 3 / disc if disc else None,
            "integral": (integral, u), "short": (-27 * c4, -54 * c6)}


def unsieved_first_hit(j, l):
    """The first entry of the table for l that j lies under, as (entry,
    t), or None: t is the least rational cover parameter over j off the
    entry's bad_t, by (denominator, numerator), else INFINITY when the
    fibre polynomial num - j*den drops below the cover's degree; t is
    None for a j-value or nonsplit-11 hit."""
    for entry in prime_table(l).entries:
        if entry.criterion:
            crit = nonsplit11()
            f = crit.A * j * j + crit.B * j + crit.C
            if f.degree < crit.A.degree or rational_roots(f):
                return entry, None
        elif entry.jvals is not None:
            if j in entry.jvals:
                return entry, None
        else:
            num, den = entry.cover
            f = num - j * den
            roots = rational_roots(f) - entry.bad_t
            if roots:
                return entry, min(roots,
                                  key=lambda t: (t.denominator, t.numerator))
            if f.degree < max(num.degree, den.degree):
                return entry, INFINITY
    return None


def _q(x):
    return "infinity" if x is INFINITY else str(x)


def report_to_dict(report):
    """The JSON document of a classification report, as the dict whose
    json.dumps(..., indent=2) is the `classify --format json` output:
    every rational a string, INFINITY the string "infinity", and "curve"
    the a-invariants of report.curve, or null for a report from j alone."""
    cm = None
    if report.cm is not None:
        cm = {
            "j": _q(report.cm.j),
            "field_disc": report.cm.field_disc,
            "order_index": report.cm.order_index,
        }
    images = []
    for r in report.results:
        images.append({
            "prime": r.prime,
            "label": r.label,
            "status": r.status,
            "witness_t": None if r.witness_t is None else _q(r.witness_t),
            "certificates": [
                {"kind": c.kind, "p": c.p, "trace": c.trace, "det": c.det}
                for c in r.certificates
            ],
            "possible": list(r.possible),
            "note": r.note,
        })
    return {
        "curve": None if report.curve is None else
        [_q(a) for a in report.curve.a_invariants()],
        "j": _q(report.j),
        "cm": cm,
        "images": images,
        "exceptional_primes": list(report.exceptional_primes),
    }
