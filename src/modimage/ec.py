"""Elliptic curves over Q in long and short Weierstrass form.

Provides the standard invariants, quadratic twists and the exact twist
test, naive point counting mod p (ap checks its input and calls the one
counting kernel, _trace, which a scan over many p calls with the
model's invariants read once), odd division polynomials, and
chord-and-tangent arithmetic on rational points. All computations are
exact. The invariants of a model come from one kernel, _invariants, in
ints: it scales the a-invariants to the integral model and computes b,
c and the discriminant of that. A WeierstrassCurve runs it once, in its
constructor, and keeps it; the integral model, the short model, j and
the public invariants, which are Fractions, are all read from it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple, Tuple, Union

from .exactmath import (MAX_PRIME, _echo, _int_is_square, is_cube,
                        to_fraction)
from .polyq import Poly

Rat = Union[int, Fraction]


class SingularCurveError(ValueError):
    """Raised when the requested Weierstrass equation has discriminant 0."""


_SINGULAR = "singular curve: the discriminant vanishes"


class BadReduction(ValueError):
    """Raised when point counting is requested at a prime of bad reduction."""


# The formulas of Silverman III.1, nested so that few sums are taken at the
# top weight (a_i has weight i, b_k and c_k weight k, the discriminant 12).

def _b_invariants(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8) of the a-invariants."""
    b2 = a1 ** 2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 ** 2 + 4 * a6
    b8 = b2 * a6 + a3 * (a2 * a3 - a1 * a4) - a4 ** 2
    return b2, b4, b6, b8


def _discriminant(b2, b4, b6, b8):
    return b2 * (9 * b4 * b6 - b2 * b8) - (8 * b4 ** 3 + 27 * b6 ** 2)


class _Invariants(NamedTuple):
    """The integral model of a curve in ints: u, the lcm of the
    denominators of its a-invariants, the a-invariants a_i u^i, and the
    b-invariants, (c4, c6) and discriminant of that model. Those of the
    curve itself are b_k / u^k, c_k / u^k and disc / u^12; j is
    c4^3 / disc, where u cancels."""
    u: int
    a: tuple
    b: tuple
    c: tuple
    disc: int


def _invariants(a) -> _Invariants:
    """The kernel of every invariant: the model a = (a1, a2, a3, a4, a6)
    of Fractions scaled by (x, y) -> (u^2 x, u^3 y) to integer
    a-invariants, and its invariants computed in ints. Scaling first
    costs the gcd of j a longer run on the scaled integers, but saves
    the Fraction gcds of every sum and product: on the non-integral
    models of the twist families it takes 9 us against 76 us for the
    formulas on Fractions of the coefficients as given (CPython 3.11,
    2-vCPU Xeon host)."""
    u = math.lcm(*(x.denominator for x in a))
    a = tuple(x.numerator * u ** w // x.denominator
              for x, w in zip(a, (1, 2, 3, 4, 6)))
    b = b2, b4, b6, _ = _b_invariants(*a)
    c4 = b2 ** 2 - 24 * b4
    c6 = -b2 * (c4 - 12 * b4) - 216 * b6  # -b2^3 + 36 b2 b4 - 216 b6
    return _Invariants(u, a, b, (c4, c6), _discriminant(*b))


def _not_a_sequence(self, other):
    raise TypeError(f"{type(self).__name__} is not a sequence")


class WeierstrassCurve(tuple):
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q, stored as the
    immutable tuple (a1, a2, a3, a4, a6) of Fractions. It is a curve, not a
    sequence: + and integer * are refused.

    The constructor runs the kernel _invariants, which the singularity
    check needs, and keeps it; the short model is built the first time
    it is read, and kept. Both are functools.cached_property fields,
    which write the instance dict directly; assigning or deleting an
    attribute raises AttributeError. A copy or a pickle rebuilds the
    curve from its coefficients."""

    a1, a2, a3, a4, a6 = (property(itemgetter(i)) for i in range(5))

    def __new__(cls, a1: Rat, a2: Rat, a3: Rat, a4: Rat, a6: Rat):
        self = tuple.__new__(cls, map(to_fraction, (a1, a2, a3, a4, a6)))
        if self._integral.disc == 0:
            raise SingularCurveError(_SINGULAR)
        return self

    def __setattr__(self, *args):
        raise AttributeError("WeierstrassCurve is immutable")

    __delattr__ = __setattr__
    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence

    def __reduce__(self):
        return type(self), tuple(self)

    @cached_property
    def _integral(self) -> _Invariants:
        return _invariants(self)

    @cached_property
    def _short(self) -> "ShortCurve":
        """The standard short model; see short_model."""
        c4, c6 = self.c_invariants()
        # 4A^3 + 27B^2 is -2^8 3^12 disc, which the constructor checked
        return tuple.__new__(ShortCurve, (-27 * c4, -54 * c6))

    def b_invariants(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        inv = self._integral
        return tuple(Fraction(b, inv.u ** k)
                     for b, k in zip(inv.b, (2, 4, 6, 8)))

    def c_invariants(self) -> Tuple[Fraction, Fraction]:
        inv = self._integral
        c4, c6 = inv.c
        return Fraction(c4, inv.u ** 4), Fraction(c6, inv.u ** 6)

    def discriminant(self) -> Fraction:
        inv = self._integral
        return Fraction(inv.disc, inv.u ** 12)

    def j_invariant(self) -> Fraction:
        inv = self._integral
        return Fraction(inv.c[0] ** 3, inv.disc)

    def a_invariants(self) -> Tuple[Fraction, Fraction, Fraction, Fraction,
                                    Fraction]:
        """(a1, a2, a3, a4, a6) as a plain tuple."""
        return tuple(self)

    def rhs(self, x: Rat) -> Fraction:
        x = to_fraction(x)
        return x ** 3 + self.a2 * x * x + self.a4 * x + self.a6

    def contains(self, x: Rat, y: Rat) -> bool:
        x, y = to_fraction(x), to_fraction(y)
        return y * y + self.a1 * x * y + self.a3 * y == self.rhs(x)

    def __repr__(self):
        return "WeierstrassCurve({}, {}, {}, {}, {})".format(*self)


class ShortCurve(tuple):
    """y^2 = x^3 + A x + B over Q, stored as the immutable tuple (A, B) of
    Fractions. Like WeierstrassCurve, it refuses + and integer *."""

    __slots__ = ()
    A, B = (property(itemgetter(i)) for i in range(2))

    def __new__(cls, A: Rat, B: Rat):
        A, B = to_fraction(A), to_fraction(B)
        if 4 * A ** 3 + 27 * B ** 2 == 0:
            raise SingularCurveError(_SINGULAR)
        return tuple.__new__(cls, (A, B))

    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence

    def __getnewargs__(self):
        return tuple(self)

    def to_long(self) -> WeierstrassCurve:
        return WeierstrassCurve(0, 0, 0, self.A, self.B)

    def j_invariant(self) -> Fraction:
        return self.to_long().j_invariant()

    def __repr__(self):
        return "ShortCurve({}, {})".format(*self)


def _require_curve(E) -> None:
    """The one check of the package's curve arguments: a TypeError unless
    E is a WeierstrassCurve or a ShortCurve."""
    if not isinstance(E, (WeierstrassCurve, ShortCurve)):
        raise TypeError(f"not a curve: {_echo(E)}")


def _as_long(E) -> WeierstrassCurve:
    """E as a WeierstrassCurve, a ShortCurve written in long form."""
    _require_curve(E)
    return E.to_long() if isinstance(E, ShortCurve) else E


def short_model(E) -> ShortCurve:
    """The standard short model y^2 = x^3 - 27 c4 x - 54 c6, isomorphic to
    E over Q (complete the square, then scale by 6); a WeierstrassCurve
    builds it once and keeps it."""
    return _as_long(E)._short


def quadratic_twist(E, d: Rat) -> ShortCurve:
    """The twist of y^2 = x^3 + Ax + B by d: y^2 = x^3 + d^2 A x + d^3 B.
    A WeierstrassCurve is read through its short model."""
    A, B = _as_short(E)
    d = to_fraction(d)
    if d == 0:
        raise ValueError("twist by 0")
    return ShortCurve(d * d * A, d ** 3 * B)


def _as_short(E) -> ShortCurve:
    return E if isinstance(E, ShortCurve) else short_model(E)


def twist_test(E, Eprime, d: Rat) -> bool:
    """Whether Eprime is isomorphic over Q to the quadratic twist of E by d.

    Requires j(E) = j(Eprime) and d != 0 (ValueError otherwise). On
    ints: with the short models' A = a/a2, B = b/b2, A' = a'/a2',
    B' = b'/b2' in lowest terms, the j agree exactly when
    A^3 B'^2 = A'^3 B^2, that is a^3 b2^2 a2'^3 b'^2 = a2^3 b^2 a'^3 b2'^2,
    and j = 0, 1728 are a = 0, b = 0. Elsewhere c d, with c = (B' A)/(B A')
    the twisting scalar and d = n/m, is a square exactly when the int
    a a2 b b2 a' a2' b' b2' n m is a square >= 0, as a rational N/D is a
    square exactly when N D is. For j = 0 only d = 1 is supported (same
    quadratic-twist orbit, decided by whether B'/B is a cube); other
    combinations raise ValueError.
    """
    S, S2 = _as_short(E), _as_short(Eprime)
    d = to_fraction(d)
    if d == 0:
        raise ValueError("twist by 0")
    (a, a2), (b, b2), (a_, a2_), (b_, b2_) = (
        (x.numerator, x.denominator) for x in (*S, *S2))
    if a ** 3 * b2 ** 2 * a2_ ** 3 * b_ ** 2 != \
            a2 ** 3 * b ** 2 * a_ ** 3 * b2_ ** 2:
        raise ValueError("twist test requires equal j-invariants")
    if a and b:
        return _int_is_square(a * a2 * b * b2 * a_ * a2_ * b_ * b2_
                              * d.numerator * d.denominator)
    if not a and d == 1:
        return is_cube(S2.B / S.B)
    raise ValueError("twist test at j = 0 or 1728 only supports the "
                     "same-orbit form (j = 0, d = 1)")


# --- point counting --------------------------------------------------------

def integral_model(E) -> Tuple[WeierstrassCurve, int]:
    """Scale (x, y) -> (u^2 x, u^3 y) with u the lcm of the coefficient
    denominators, giving integer a-invariants. Returns (curve, u). The
    model is the one E's kernel computed, and keeps that kernel with u
    set to 1: nothing is scaled or computed a second time."""
    E = _as_long(E)
    inv = E._integral
    if inv.u == 1:
        return E, 1
    M = tuple.__new__(WeierstrassCurve, map(Fraction, inv.a))
    vars(M)["_integral"] = inv._replace(u=1)
    return M, inv.u


def ap(M: WeierstrassCurve, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - #M(F_p) by direct counting on the
    integral model M (see integral_model; a ShortCurve is read in long
    form). Raises TypeError when M is not a curve, ValueError when p is
    not an int from 2 to MAX_PRIME (a larger p would allocate a p-byte
    table) or M has a non-integral coefficient, BadReduction when p
    divides its discriminant. The count itself is _trace, which a scan
    over many p calls directly with the invariants of M read once.

    p is not tested for primality (a composite p gives no trace: ap(M, 15)
    is -9 for y^2 + y = x^3 - x): the package passes sieved primes, and a
    test would add a quarter to each call (5.5 us against 23 us at
    p = 101 under CPython 3.11 on a 2-vCPU Xeon host). The command line
    tests p.
    """
    M = _as_long(M)
    if not isinstance(p, int):
        raise ValueError("p is not an integer")
    if p < 2:
        raise ValueError(f"p = {p} is less than 2")
    if p > MAX_PRIME:
        raise ValueError(f"p must be at most {MAX_PRIME}")
    inv = M._integral
    if inv.u != 1:
        raise ValueError(f"ap needs an integral model, got {_echo(M)}")
    if inv.disc % p == 0:
        raise BadReduction(f"p = {p} divides the discriminant")
    return _trace(inv.a, inv.b, p)


# the bound of the classifier's Frobenius pass; the character tables of the
# p up to it are kept, at most 168 (the primes up to 1000) of p bytes each
DEFAULT_FROBENIUS_BOUND = 1000


def _char_table(p: int) -> bytes:
    """The quadratic character of F_p plus one, indexed by residue: chi(v)
    is table[v] - 1 (for a composite p, as ap counts it, 2 at every square
    mod p, 0 included)."""
    table = bytearray(p)
    table[0] = 1
    for v in range(1, p):
        table[v * v % p] = 2
    return bytes(table)


_cached_char_table = lru_cache(maxsize=168)(_char_table)


def _trace(a: tuple, b: tuple, p: int) -> int:
    """a_p of the model with integer a-invariants a = (a1, a2, a3, a4, a6)
    and b-invariants b = (b2, b4, b6, b8), as _invariants gives them, at
    an int p >= 2 of good reduction; ap checks all that.

    For odd p the count is p + 1 + sum over x of the quadratic character
    of 4x^3 + b2 x^2 + 2 b4 x + b6 (complete the square in y), with the
    coefficients reduced mod p first and the character read from a table
    kept per p up to DEFAULT_FROBENIUS_BOUND; p = 2 is a four-point brute
    force.
    """
    if p == 2:
        a1, a2, a3, a4, a6 = a
        count = 1
        for x in (0, 1):
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y
                        - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    count += 1
        return 2 + 1 - count
    # 4x^3 + c2 x^2 + c1 x + c0 with c2 = b2, c1 = 2 b4, c0 = b6 mod p
    c2, c1, c0 = b[0] % p, 2 * b[1] % p, b[2] % p
    char = (_cached_char_table(p) if p <= DEFAULT_FROBENIUS_BOUND
            else _char_table(p))
    total = 0
    for x in range(p):
        total += char[(((4 * x + c2) * x + c1) * x + c0) % p]
    return p - total


# --- division polynomials --------------------------------------------------

# the largest n of division_polynomial, the largest prime with a table
MAX_DIVISION_INDEX = 37


def division_polynomial(E, n: int) -> Poly:
    """The odd division polynomial psi_n in x for n odd from 3 to
    MAX_DIVISION_INDEX, of degree (n^2 - 1)/2, whose roots are the
    x-coordinates of the nonzero n-torsion.

    Uses the recurrences in the b-invariants, writing psi_m = f_m for m odd
    and psi_m = f_m * psi_2 for m even, where psi_2^2 = 4x^3 + b2 x^2 +
    2 b4 x + b6. Raises TypeError when E is not a curve or n not an int,
    and ValueError for an even n or one out of range, before any
    recursion: the time grows about 50-fold each time n doubles, and
    psi_37 of y^2 + y = x^3 - x^2 - 7x + 10 takes 0.27 s, psi_81 21 s.
    """
    if not isinstance(n, int):
        raise TypeError(f"not an int: {_echo(n)}")
    if not 3 <= n <= MAX_DIVISION_INDEX or n % 2 == 0:
        raise ValueError(f"defined for odd n from 3 to {MAX_DIVISION_INDEX}")
    b2, b4, b6, b8 = _as_long(E).b_invariants()
    x = Poly.var()
    B = 4 * x ** 3 + b2 * x ** 2 + 2 * b4 * x + b6
    base = {
        0: Poly(),
        1: Poly.const(1),
        2: Poly.const(1),
        3: 3 * x ** 4 + b2 * x ** 3 + 3 * b4 * x ** 2 + 3 * b6 * x + b8,
        4: (2 * x ** 6 + b2 * x ** 5 + 5 * b4 * x ** 4 + 10 * b6 * x ** 3
            + 10 * b8 * x ** 2 + (b2 * b8 - b4 * b6) * x
            + (b4 * b8 - b6 * b6)),
    }
    memo = dict(base)

    def f(m: int) -> Poly:
        if m in memo:
            return memo[m]
        if m % 2 == 1:
            k = (m - 1) // 2
            if k % 2 == 0:
                val = f(k + 2) * f(k) ** 3 * B ** 2 - f(k - 1) * f(k + 1) ** 3
            else:
                val = f(k + 2) * f(k) ** 3 - f(k - 1) * f(k + 1) ** 3 * B ** 2
        else:
            k = m // 2
            val = f(k) * (f(k + 2) * f(k - 1) ** 2 - f(k - 2) * f(k + 1) ** 2)
        memo[m] = val
        return val

    out = f(n)
    expected = (n * n - 1) // 2
    if out.degree != expected:
        raise ArithmeticError(f"psi_{n} degree {out.degree} != {expected}")
    return out


# --- rational points -------------------------------------------------------

class PointQ(tuple):
    """A rational point on a long Weierstrass curve, stored as the immutable
    tuple (curve, x, y); x = y = None is the point at infinity. + is the
    group law; integer * is refused (scalar_mul is the multiple)."""

    __slots__ = ()
    curve, x, y = (property(itemgetter(i)) for i in range(3))

    def __new__(cls, curve: WeierstrassCurve, x=None, y=None):
        if x is None and y is None:
            return tuple.__new__(cls, (curve, None, None))
        x, y = to_fraction(x), to_fraction(y)
        if not curve.contains(x, y):
            raise ValueError(f"({x}, {y}) is not on the curve")
        return tuple.__new__(cls, (curve, x, y))

    __radd__ = __mul__ = __rmul__ = _not_a_sequence

    def __getnewargs__(self):
        return tuple(self)

    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "PointQ":
        if self.is_infinity():
            return self
        E = self.curve
        return PointQ(E, self.x, -self.y - E.a1 * self.x - E.a3)

    def __add__(self, other: "PointQ") -> "PointQ":
        if self.curve != other.curve:
            raise ValueError("points on different curves")
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        E = self.curve
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2 and (y1 + y2 + E.a1 * x2 + E.a3) == 0:
            return PointQ(E)
        if x1 == x2:
            lam = ((3 * x1 * x1 + 2 * E.a2 * x1 + E.a4 - E.a1 * y1)
                   / (2 * y1 + E.a1 * x1 + E.a3))
        else:
            lam = (y2 - y1) / (x2 - x1)
        nu = y1 - lam * x1
        x3 = lam * lam + E.a1 * lam - E.a2 - x1 - x2
        y3 = -(lam + E.a1) * x3 - nu - E.a3
        return PointQ(E, x3, y3)

    def __repr__(self):
        if self.is_infinity():
            return "PointQ(infinity)"
        return f"PointQ({self.x}, {self.y})"


# the largest |k| of scalar_mul: k = 400 took 0.2 s on the nonsplit-11
# criterion's generator (CPython 3.11, 2-vCPU Xeon host), growing as k^3
MAX_SCALAR = 256


def scalar_mul(P: PointQ, k: int) -> PointQ:
    """k * P by double and add. TypeError unless P is a PointQ and k an
    int, ValueError for |k| above MAX_SCALAR."""
    if not isinstance(P, PointQ):
        raise TypeError(f"not a point: {_echo(P)}")
    if not isinstance(k, int):
        raise TypeError(f"not an int: {_echo(k)}")
    if abs(k) > MAX_SCALAR:
        raise ValueError(f"|k| must be at most {MAX_SCALAR}")
    if k < 0:
        return scalar_mul(-P, -k)
    acc = PointQ(P.curve)
    addend = P
    while k:
        if k & 1:
            acc = acc + addend
        addend = addend + addend
        k >>= 1
    return acc
