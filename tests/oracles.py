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
  * subgroup_fingerprints enumerates an explicit subgroup, while the
    closed-form predicates in gl2 never build the group.
  * naive_span closes a set of plain 4-tuples under all pairwise
    products, while gl2.span grows a frontier by the generators only.
  * cover_value and value_at_infinity evaluate a (num, den) cover at a
    point and read its limit from the leading terms, while the package
    asks whether num - j*den has a root or drops degree.
  * mod2_label reads the mod-2 image of y^2 = x^3 + Ax + B off the
    rational roots and discriminant of the 2-division cubic, while the
    classifier walks the l = 2 cover table.
"""

from fractions import Fraction
from math import gcd, isqrt

from modimage.polyq import Poly


def _divisors(n):
    """All positive divisors of n (n != 0), by trial division."""
    n = abs(n)
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
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
    of reduced 4-tuples: add every product of two members until nothing
    new appears."""
    group = {(1, 0, 0, 1)} | {tuple(x % l for x in g) for g in generators}
    while True:
        products = {((a * e + b * g) % l, (a * f + b * h) % l,
                     (c * e + d * g) % l, (c * f + d * h) % l)
                    for a, b, c, d in group for e, f, g, h in group}
        if products <= group:
            return group
        group |= products


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
