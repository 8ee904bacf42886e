"""Dense univariate polynomials over Q and their rational roots.

A polynomial is stored as integer numerators over one denominator, so
its arithmetic runs on ints; _poly, which builds every one, brings it to
that form. A product is one big-int product of the numerators (Kronecker
substitution: _pack writes a list of ints at 2^k, _unpack reads the
signed k-bit digits back), or a scaling when one factor is a constant.
A power of a monomial c t^m, as the tables' j-maps raise T, is written
down as c^n t^(m n); any other power is square-and-multiply. poly_sqrt
takes the root of the integer numerators with exact integer divisions,
after checking that the denominator is a square (Gauss's lemma). poly_gcd
reads the gcd off one integer gcd of the primitive parts packed at a power
of two (the heuristic gcd, after a coprimality certificate at a smaller
one), and runs the exact primitive remainder sequence only when that
gives up; one integer pseudo-division, _pseudo_divmod, serves both and
exact division. compose
substitutes one map of the projective line, given as a (num, den) pair,
into another, by one Horner pass on the inner numerators packed as in
a product, unpacked once.

rational_roots finds all rational roots of a polynomial. It reduces to a
squarefree integer polynomial, picks the smallest prime at which the
roots of that polynomial are simple, and Newton lifts each of those
roots on its own, trying rational reconstruction after every doubling
and stopping at the first candidate that exact substitution verifies; a
root not found early is found at the precision the root bounds call for,
so none is missed. It keeps no sieve of its own: the one mod-p sieve is
the classifier's walk sieve, which reads fibre_image_mod, the image on
P^1(F_p) of a relation sum c_i(x) j^i = 0 (a cover, the nonsplit-11
criterion or a set of j-values), and leaves rational_roots only the
fibres it cannot rule out. One evaluator mod m, _eval_mod (Horner),
serves the Newton lift, the search for the lifting prime and
fibre_image_mod.

Each public function checks its argument types once, at its entry, and
raises TypeError for an argument that is not a Poly (a coefficient that
is not a rational for the constructor, an x that is not one for
evaluate); fibre_image_mod raises ValueError unless p is a prime int of
at most MAX_FIBRE_PRIME.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional, Union

from .exactmath import _echo, is_probable_prime

Rat = Union[int, Fraction]

# The largest p fibre_image_mod takes (its time grows as p^2; the walk
# sieve reads p <= 61), the points _heuristic_gcd tries, and the bits
# its certificate adds to the point that the proof needs.
MAX_FIBRE_PRIME = 1000
_HEURISTIC_TRIES = 6
_CERTIFICATE_BITS = 16


class Infinity:
    """The point at infinity of the projective line: the cover parameter
    t = infinity, or the value at a pole."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = Infinity()


class Poly:
    """Dense univariate polynomial over Q, immutable: the integers ints
    (index = degree, no leading zero) over den > 0, gcd(den, *ints) = 1."""

    __slots__ = ("ints", "den")

    def __new__(cls, coeffs: Iterable[Rat] = ()):
        try:
            cs = list(coeffs)
            d = math.lcm(*[c.denominator for c in cs])
            ints = [c.numerator * (d // c.denominator) for c in cs]
        except (AttributeError, TypeError):
            raise TypeError(f"not a list of rationals: {_echo(coeffs)}") \
                from None
        return _poly(ints, d)

    # __getitem__ reads 0 past the degree, so iteration would never stop
    __iter__ = None

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _poly, not by setting slots
        return _poly, (list(self.ints), self.den)

    @staticmethod
    def const(c: Rat) -> "Poly":
        return Poly([c])

    @staticmethod
    def var() -> "Poly":
        return Poly([0, 1])

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, index = degree."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def leading(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.ints):
            return Fraction(self.ints[i], self.den)
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ints == other.ints and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __neg__(self):
        return _poly([-c for c in self.ints], self.den)

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        pairs = zip_longest(self.ints, other.ints, fillvalue=0)
        return _poly([a * other.den + b * self.den for a, b in pairs],
                     self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """Product by scaling when one factor is a constant, else by
        Kronecker substitution. A coefficient of the product of the
        numerators is at most min(len) * max|a| * max|b| < 2^(k-1) in
        absolute value, so each fits one signed k-bit digit."""
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.ints, other.ints
        if len(a) == 1 or len(b) == 1:
            # a scalar multiple: scale the other factor's ints directly
            s, rest = (a[0], b) if len(a) == 1 else (b[0], a)
            return _poly([s * c for c in rest], self.den * other.den)
        k = (min(len(a), len(b)) * max(map(abs, a), default=0)
             * max(map(abs, b), default=0)).bit_length() + 1
        return _poly(_unpack(_pack(a, k) * _pack(b, k), k,
                             len(a) + len(b) - 1), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """A monomial c t^m (a constant or zero among them) has its power
        c^n t^(m n) written down; any other base is raised by
        square-and-multiply."""
        if n < 0:
            raise ValueError("negative power of a Poly")
        *low, c = self.ints or (0,)
        if not any(low):
            return _poly([0] * (len(low) * n) + [c ** n], self.den ** n)
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _poly([c * other.denominator for c in self.ints],
                         self.den * other.numerator)
        return NotImplemented

    def derivative(self) -> "Poly":
        return _poly([i * c for i, c in enumerate(self.ints)][1:], self.den)

    def evaluate(self, x: Rat) -> Fraction:
        """Horner at x = u/v on ints: sum c_i u^i v^(n-i) over v^n den."""
        try:
            u, v = x.numerator, x.denominator
        except AttributeError:
            raise TypeError(f"not a rational: {_echo(x)}") from None
        acc, vpow = 0, 1
        for c in reversed(self.ints):
            acc = acc * u + c * vpow
            vpow *= v
        return Fraction(acc * v, vpow * self.den)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return _poly(list(self.ints), self.ints[-1])

    def primitive(self) -> list:
        """The coprime integers P with self = c * P for a rational c,
        the leading one positive ([] for the zero polynomial)."""
        return _primitive(self.ints)

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _pack(ints, k: int) -> int:
    """The integer polynomial ints evaluated at 2^k (Kronecker
    substitution)."""
    return sum(c << (k * i) for i, c in enumerate(ints))


def _unpack(packed: int, k: int, n: int) -> list:
    """The n coefficients of the integer polynomial that _pack wrote at
    2^k, each read as a signed k-bit digit: the one unpacker, of products,
    compose and the heuristic gcd. Right when every coefficient lies in
    [-2^(k-1), 2^(k-1)) and the degree is below n."""
    out = []
    for _ in range(n):
        r = packed & ((1 << k) - 1)
        packed >>= k
        if r >> (k - 1):
            r -= 1 << k
            packed += 1
        out.append(r)
    return out


def _poly(ints: list, den: int = 1) -> Poly:
    """The Poly ints/den (den nonzero), leading zeros stripped, the gcd
    of den and the ints divided out and den made positive."""
    while ints and ints[-1] == 0:
        ints.pop()
    g = math.gcd(den, *ints)
    if den < 0:
        g = -g
    if g != 1:
        ints, den = [c // g for c in ints], den // g
    f = object.__new__(Poly)
    object.__setattr__(f, "ints", tuple(ints))
    object.__setattr__(f, "den", den)
    return f


def _primitive(ints: list) -> list:
    """ints divided by their content, the leading one made positive
    ([] stays [])."""
    g = math.gcd(*ints)
    if ints and ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _require_poly(*fs) -> None:
    """The type check at the entry of each polynomial function: raise
    TypeError unless every f is a Poly."""
    for f in fs:
        if not isinstance(f, Poly):
            raise TypeError(f"not a Poly: {_echo(f)}")


def _coerce_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return NotImplemented


def _pseudo_divmod(a: list, b: list) -> tuple:
    """Pseudo-division of integer coefficient lists (Knuth, TAOCP 4.6.1,
    Algorithm R): (q, r) with lead(b)^e * a = q*b + r and deg r < deg b,
    where e = max(deg a - deg b + 1, 0). b must be nonzero with no
    leading zero; r has none either."""
    lead, r = b[-1], list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        u = r.pop()
        q[k] = u * lead ** k
        r[k:] = [lead * c - u * v for c, v in zip(r[k:], b)]
        r[:k] = [lead * c for c in r[:k]]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _coprime_at_small_point(a: list, b: list) -> bool:
    """Whether one integer gcd proves the primitive int lists a and b, of
    degree >= 1, coprime (a squarefree certificate when b = a'). With
    B = 2 + min over a, b of floor(max_{i<n} |c_i| / |c_n|), a common root
    beta has |beta| < B (Cauchy). At xi = 2^k >= 2B a nonconstant common
    factor q has q(xi) | gamma = gcd(a(xi), b(xi)) and |q(xi)| > xi - B
    >= xi/2, so gamma < xi/2 proves gcd = 1. k is _CERTIFICATE_BITS past
    the bit length of 2B, so that the small factors a(xi) and b(xi) share
    by chance, such as powers of 2 and 3 from a_0 and a_1, stay below."""
    B = 2 + min(max(map(abs, f[:-1])) // abs(f[-1]) for f in (a, b))
    k = (2 * B).bit_length() + _CERTIFICATE_BITS
    return math.gcd(_pack(a, k), _pack(b, k)) < 1 << (k - 1)


def _heuristic_gcd(a: list, b: list) -> Optional[list]:
    """The primitive gcd of the primitive int lists a and b, with
    len(a) >= len(b) > 1, or None (GCDHEU: Char, Geddes and Gonnet,
    J. Symbolic Comput. 7 (1989) 31-48); [1] when _coprime_at_small_point
    proves them coprime. At xi = 2^k > 2m + 2, with
    m = min(|a|_inf, |b|_inf), gamma = gcd(a(xi), b(xi)) is read as the
    polynomial h of its signed k-bit digits, kept if it re-packs to gamma.
    If pp(h) divides a and b it is their gcd: for gcd = pp(h) q, q(xi)
    divides cont(h), at most xi/2, while a nonconstant q has its roots
    below 1 + m (Cauchy), so |q(xi)| > xi - 1 - m > xi/2. A constant h
    (pp(h) = 1) needs no division. Otherwise xi grows, and after
    _HEURISTIC_TRIES points the heuristic gives up."""
    if _coprime_at_small_point(a, b):
        return [1]
    k = (2 * min(max(map(abs, a)), max(map(abs, b))) + 2).bit_length()
    for _ in range(_HEURISTIC_TRIES):
        gamma = math.gcd(_pack(a, k), _pack(b, k))
        h = _unpack(gamma, k, len(b))
        if _pack(h, k) == gamma:
            h = _poly(h).primitive()
            if len(h) == 1 or not (_pseudo_divmod(a, h)[1]
                                   or _pseudo_divmod(b, h)[1]):
                return h
        k = 3 * k // 2 + 1
    return None


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q (zero for two zeros).

    The heuristic gcd of the primitive parts (_heuristic_gcd), and when
    it gives up a primitive pseudo-remainder sequence, which always
    finishes: stripping the content after each _pseudo_divmod keeps the
    numbers near the size of the inputs' subresultants, where fraction
    Euclid squares them at every step."""
    _require_poly(f, g)
    a, b = f.primitive(), g.primitive()
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1:
        h = _heuristic_gcd(a, b)
        if h is not None:
            return _poly(h).monic()
    while len(b) > 1:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return _poly(a).monic() if not b else Poly.const(1)


def exact_divide(f: Poly, g: Poly) -> Optional[Poly]:
    """Return f/g when g divides f exactly, else None. With f = a/df and
    g = b/dg as stored, g | f iff the pseudo-remainder r of a by
    b is 0, and then f/g = q * dg / (df * lead(b)^e)."""
    _require_poly(f, g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    q, r = _pseudo_divmod(f.ints, g.ints)
    if r:
        return None
    return _poly([c * g.den for c in q], f.den * g.ints[-1] ** len(q))


def poly_sqrt(f: Poly) -> Optional[Poly]:
    """Return g with g*g == f when f is a perfect square over Q, else None.

    With f = F/den as stored (in lowest terms), f is a square over Q
    exactly when den = e^2 and F = H^2 for an integer polynomial H
    (Gauss's lemma: the square of a primitive polynomial is primitive).
    H is built from the top coefficient down, its t^k coefficient read off
    the t^(n+k) coefficient of H^2 by an exact integer division by 2 H_n;
    a remainder, or a den or lead(F) that is not a square, means no root.
    The lower half of H^2 is then checked against F."""
    _require_poly(f)
    if f.is_zero():
        return Poly()
    F, n = f.ints, f.degree // 2
    e, h = math.isqrt(f.den), math.isqrt(max(F[-1], 0))
    if f.degree % 2 or e * e != f.den or h * h != F[-1]:
        return None
    H = [0] * n + [h]
    for k in range(n - 1, -1, -1):
        s = sum(H[i] * H[n + k - i] for i in range(k + 1, n))
        H[k], r = divmod(F[n + k] - s, 2 * h)
        if r:
            return None
    cand = _poly(H, e)
    return cand if cand * cand == f else None


def compose(outer: tuple, inner: tuple) -> tuple:
    """Composition outer(inner(t)) of rational maps of the projective line,
    each given as a (num, den) pair of Polys; returns such a pair.

    Uses the homogenized substitution: with inner = p/q and d the mapping
    degree of outer, each of outer's num and den becomes
    sum_i c_i p^i q^(d-i), and the common q^d cancels. Common factors are
    not cancelled. With p = P/dp, q = Q/dq and c_i = F_i/df as stored,
    that sum is sum_i F_i (P dq)^i (Q dp)^(d-i) over df (dp dq)^d, and
    its integer numerator is one Horner pass, acc = acc * P' + F_i * Q'^(d-i),
    on the plain ints P' and Q' that P dq and Q dp pack to at 2^k
    (Kronecker substitution), unpacked once. A coefficient of that
    numerator is at most sum_i |F_i| |P dq|_1^i |Q dp|_1^(d-i) < 2^(k-1)
    in absolute value, so each fits one signed k-bit digit. Raises
    ZeroDivisionError if the resulting denominator is identically zero
    (inner constant at a pole of outer).
    """
    _require_poly(*outer, *inner)
    p, q = inner
    d = max(outer[0].degree, outer[1].degree, 0)
    P = [c * q.den for c in p.ints]
    Q = [c * p.den for c in q.ints]
    norm_p, norm_q = sum(map(abs, P)), sum(map(abs, Q))
    k = max(sum(abs(c) * norm_p ** i * norm_q ** (d - i)
                for i, c in enumerate(f.ints)) for f in outer).bit_length() + 1
    packed_p, packed_q = _pack(P, k), _pack(Q, k)
    qpow = [1]
    for _ in range(d):
        qpow.append(qpow[-1] * packed_q)
    n = d * max(len(P) - 1, len(Q) - 1, 0) + 1
    scale = (p.den * q.den) ** d

    def homog(f: Poly) -> Poly:
        acc = 0
        for i in range(f.degree, -1, -1):
            acc = acc * packed_p + f.ints[i] * qpow[d - i]
        return _poly(_unpack(acc, k, n), f.den * scale)

    num, den = map(homog, outer)
    if den.is_zero():
        raise ZeroDivisionError("composition lands at a pole everywhere")
    return num, den


# --- rational root finding -------------------------------------------------

def rational_roots(f: Poly) -> set:
    """All rational roots of f, found by Hensel lifting.

    f is reduced to its squarefree part f / gcd(f, f') over coprime
    ints. The lifting prime is the smallest prime p, not dividing the
    leading coefficient, at which every root of that part mod p is
    simple. Each of those roots is Newton lifted on its own, doubling the
    precision up to the least power of p above twice the product of the
    numerator and denominator bounds, and stops at the first rational
    reconstruction that the rational root theorem and exact substitution
    into f verify (_lift_root).
    No rational root is missed: its denominator divides the leading
    coefficient, so it reduces to one of the simple roots mod p, and
    Newton's iteration from there converges to it; and it is the only
    p-adic root over that residue, so the lift of a residue that has
    yielded one root has no other to find.
    """
    _require_poly(f)
    if f.is_zero():
        raise ValueError("the zero polynomial has every root")
    if f.degree < 1:
        return set()
    ints = _squarefree_part(f)
    dints = [i * c for i, c in enumerate(ints)][1:]
    p, residues = _lifting_prime(ints, dints)
    roots = (_lift_root(f, ints, dints, r, p) for r in residues)
    return {root for root in roots if root is not None}


def _squarefree_part(f: Poly) -> list:
    """Squarefree part f / gcd(f, f') as a primitive integer list."""
    g = poly_gcd(f, f.derivative())
    if g.degree > 0:
        f = exact_divide(f, g)
    return f.primitive()


def _lifting_prime(ints: list, dints: list):
    """Smallest prime p not dividing the leading coefficient at which every
    root of ints mod p is simple (dints is the derivative), and those roots.
    One exists: any p dividing neither a_n nor the discriminant will do."""
    p = 1
    while True:
        p += 1
        if not is_probable_prime(p) or ints[-1] % p == 0:
            continue
        residues = [r for r in range(p) if _eval_mod(ints, r, p) == 0]
        if all(_eval_mod(dints, r, p) for r in residues):
            return p, residues


def _lift_root(f: Poly, ints: list, dints: list, r: int,
               p: int) -> Optional[Fraction]:
    """The rational root of f over the simple root r mod p of its
    squarefree part ints (dints the derivative), or None.

    By the rational root theorem a root u/v in lowest terms has v | a_n
    and u | a_0, so |v| <= bound_v = |a_n| and |u| <= bound_u = |a_0|, or
    |a_n| + H (H the height) when a_0 = 0, as |u/v| <= 1 + H/|a_n|.

    Newton's iteration squares the modulus m of r while m < target =
    2 * bound_u * bound_v + 1, and then goes to P, the least power of p
    at or above target, read off the squares greedily. A step from m to
    m' <= m^2 needs f'(r)^-1 only mod m, as f(r) = 0 mod m (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 9). After each step
    short of P, rational reconstruction with both bounds cut to
    isqrt(m/2) proposes a candidate, and the first one that _is_root
    verifies is returned; a candidate that fails is dropped and the lift
    goes on. Only P gets the full bounds, which find any root over r.
    """
    bound_v = abs(ints[-1])
    bound_u = abs(ints[0]) or bound_v + max(map(abs, ints))
    target = 2 * bound_u * bound_v + 1
    mods = [p]
    while mods[-1] < target:
        mods.append(mods[-1] * mods[-1])
    below = 1
    for q in reversed(mods[:-1]):
        if below * q < target:
            below *= q
    mods[-1] = below * p
    for old, m in zip(mods, mods[1:]):
        s = pow(_eval_mod(dints, r, old), -1, old)
        r = (r - _eval_mod(ints, r, m) * s) % m
        if m < target:
            h = math.isqrt(m // 2)
            cand = _rational_reconstruct(r, m, min(bound_u, h),
                                         min(bound_v, h))
            if cand is not None and _is_root(f, ints, cand):
                return cand
    cand = _rational_reconstruct(r, mods[-1], bound_u, bound_v)
    return cand if cand is not None and _is_root(f, ints, cand) else None


def _is_root(f: Poly, ints: list, x: Fraction) -> bool:
    """Whether x = u/v is a root of f, whose squarefree part is ints: by
    the rational root theorem first, then by exact substitution."""
    u, v = x.numerator, x.denominator
    if ints[-1] % v or (ints[0] % u if u else ints[0]):
        return False
    return f.evaluate(x) == 0


def _eval_mod(ints: list, x: int, m: int) -> int:
    """The value mod m at x of the integer polynomial ints, by Horner:
    the one evaluator mod m, of the Newton lift, the lifting-prime search
    and fibre_image_mod."""
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % m
    return acc


def _projective_values(polys: tuple, p: int):
    """The values mod p of the polys at each x of P^1(F_p), infinity last,
    as one tuple per x.

    The polys are scaled by one rational to integers with no common
    content and homogenized at their largest degree n, so at x = infinity
    their values are the degree-n coefficients. Each is evaluated at the
    affine x by _eval_mod."""
    d = math.lcm(*[f.den for f in polys])
    ints = [[c * (d // f.den) for c in f.ints] for f in polys]
    g = math.gcd(*[c for f in ints for c in f])
    n = max(map(len, ints))
    forms = [[c // g % p for c in f] + [0] * (n - len(f)) for f in ints]
    return zip(*[[_eval_mod(f, x, p) for x in range(p)] + [f[-1]]
                 for f in forms])


def fibre_image_mod(coeffs: tuple, p: int) -> Optional[frozenset]:
    """The points (a : b) of P^1(F_p) over which the relation
    sum c_i(x) j^i = 0, with coeffs = (c_0, ..., c_k), has a point with x
    in P^1(F_p), or None where it says nothing.

    With the c_i made integral and homogenized as in _projective_values,
    these are the (a : b) where sum c_i^h(x) a^i b^(k-i) vanishes for some
    x, each written as its affine coordinate in range(p), and infinity as
    p. None when the c_i^h share a zero on P^1(F_p), over which every
    (a : b) lies. When k = 1 the form has the one zero (-c_0 : c_1) at
    each x, solved directly; otherwise its zeros are read off its values
    at every a, once per distinct tuple of values. Both the c_i at every
    x and, when k >= 2, the form at every a are evaluated by _eval_mod,
    the module's one evaluator mod m. Raises ValueError unless p is a
    prime int of at most MAX_FIBRE_PRIME.
    """
    _require_poly(*coeffs)
    if isinstance(p, int) and p > MAX_FIBRE_PRIME:
        raise ValueError(f"p = {_echo(p)} is above {MAX_FIBRE_PRIME}")
    if not (isinstance(p, int) and is_probable_prime(p)):
        raise ValueError(f"p = {_echo(p)} is not a prime")
    image = set()
    for values in set(_projective_values(coeffs, p)):
        if not any(values):
            return None
        if len(values) == 2:
            c0, c1 = values
            image.add(-c0 * pow(c1, -1, p) % p if c1 else p)
        else:
            image.update(a for a in range(p) if not _eval_mod(values, a, p))
            if not values[-1]:
                image.add(p)
    return frozenset(image)


def _rational_reconstruct(x: int, m: int, bound_u: int, bound_v: int):
    """Find u/v with u = v*x mod m, |u| <= bound_u, 0 < v <= bound_v."""
    r0, r1 = m, x % m
    t0, t1 = 0, 1
    while r1 > bound_u:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound_v:
        return None
    if math.gcd(r1, abs(t1)) != 1:
        return None
    return Fraction(r1, t1)


# --- printing --------------------------------------------------------------

def format_poly(f: Poly, var: str = "t") -> str:
    """Render as 'c_n*t^n + ... + c_0', highest degree first."""
    _require_poly(f)
    if f.is_zero():
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        elif i == 1:
            term = f"{c}*{var}"
        else:
            term = f"{c}*{var}^{i}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out

