"""Subgroups of GL2 over a prime field, given by generators.

Matrices are immutable tuples (a, b, c, d, l) of entries reduced mod l,
with nonzero determinant. A subgroup whose generators are upper
triangular, one of them [1, b; 0, 1] with b != 0 (the Borel group and
the exceptional images at 17 and 37 among them), has its order and
invariants counted in closed form from the diagonals of its generators;
is_twist_pair reads two such groups on those diagonals too.
Every other subgroup, and the elements of any subgroup, are enumerated
on first use: ~l^4 matrices for GL2(F_l), so intended for l <= 37. The
elements and the diagonal pairs are functools.cached_property fields of
Subgroup, computed on first read and kept.

The fingerprint predicates refuse an l that is not an odd prime.
They and epsilon ask whether a number is a square mod l through
exactmath's Euler criterion, the one quadratic character of the
package, which legendre reads too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Tuple

from .exactmath import _euler, factor, is_probable_prime


def gl2_order(l: int) -> int:
    """|GL2(F_l)| = (l^2 - 1)(l^2 - l)."""
    return (l * l - 1) * (l * l - l)


class Mat2(tuple):
    """Invertible 2x2 matrix [a, b; c, d] over F_l, stored as the tuple
    (a, b, c, d, l) of reduced entries, so hashing and equality run in
    C. It is a matrix, not a sequence: + and integer * are refused."""

    __slots__ = ()
    a, b, c, d, l = (property(itemgetter(i)) for i in range(5))

    def __new__(cls, a: int, b: int, c: int, d: int, l: int):
        a, b, c, d = a % l, b % l, c % l, d % l
        if (a * d - b * c) % l == 0:
            raise ValueError(f"singular matrix [{a},{b};{c},{d}] mod {l}")
        return tuple.__new__(cls, (a, b, c, d, l))

    def _not_a_sequence(self, other):
        raise TypeError("Mat2 is a matrix: only Mat2 * Mat2 is defined")

    __add__ = __radd__ = __rmul__ = _not_a_sequence

    @staticmethod
    def identity(l: int) -> "Mat2":
        return Mat2(1, 0, 0, 1, l)

    def __mul__(self, other: "Mat2") -> "Mat2":
        # a product of invertible reduced matrices is both: no re-check
        a, b, c, d, l = self
        e, f, g, h, _ = other
        return tuple.__new__(Mat2, ((a * e + b * g) % l, (a * f + b * h) % l,
                                    (c * e + d * g) % l, (c * f + d * h) % l,
                                    l))

    def __neg__(self) -> "Mat2":
        a, b, c, d, l = self
        return tuple.__new__(Mat2, (-a % l, -b % l, -c % l, -d % l, l))

    def det(self) -> int:
        a, b, c, d, l = self
        return (a * d - b * c) % l

    def trace(self) -> int:
        return (self[0] + self[3]) % self[4]

    def tuple(self) -> Tuple[int, int, int, int]:
        return self[:4]

    def __repr__(self):
        return "[{},{};{},{}]".format(*self)


def _require_prime(l) -> None:
    if not (isinstance(l, int) and is_probable_prime(l)):
        raise ValueError("l is not a prime")


def _require_odd(l) -> None:
    _require_prime(l)
    if l == 2:
        raise ValueError("l is not an odd prime")


def epsilon(l: int) -> int:
    """The fixed non-square used for the non-split torus: -1 when
    l = 3 mod 4, otherwise the smallest non-residue >= 2. Raises
    ValueError unless l is an odd prime int."""
    _require_prime(l)
    if l == 2:
        raise ValueError("no non-split torus convention at l = 2")
    if l % 4 == 3:
        return l - 1
    e = 2
    while _euler(e, l) == 1:
        e += 1
    return e


def primitive_root(l: int) -> int:
    """Smallest generator of the cyclic group F_l^*. Raises ValueError
    unless l is a prime int, and FactorizationIncomplete when l - 1 does
    not factor by trial division."""
    _require_prime(l)
    if l == 2:
        return 1
    fac = factor(l - 1)
    g = 2
    while True:
        if all(pow(g, (l - 1) // q, l) != 1 for q in fac):
            return g
        g += 1


def span(generators: Iterable[Mat2], l: int) -> set:
    """Closure of the generators under multiplication (the generated
    subgroup; inverses come for free in a finite group). Products are
    formed on the unpacked entries, and each new one becomes a Mat2 once.

    Returns the set it built, not a frozen copy, so the group is held in
    memory once: callers must not mutate it."""
    gens = [g.tuple() for g in generators]
    new = tuple.__new__
    one = Mat2.identity(l)
    elements = {one}
    frontier = [one]
    while frontier:
        grown = []
        for a, b, c, d, _ in frontier:
            for e, f, g, h in gens:
                key = ((a * e + b * g) % l, (a * f + b * h) % l,
                       (c * e + d * g) % l, (c * f + d * h) % l, l)
                if key not in elements:  # a plain tuple equals its Mat2
                    m = new(Mat2, key)
                    elements.add(m)
                    grown.append(m)
        frontier = grown
    return elements


class Invariants(NamedTuple):
    order: int
    index: int
    det_is_full: bool
    has_minus_i: bool
    fingerprints: frozenset  # set of (trace, det) pairs


class Subgroup:
    """A subgroup of GL2(F_l) given by generators. Its elements are
    enumerated the first time they are read, and kept. Its order and
    invariants come from the elements too, unless the generators qualify
    for the closed form of _borel_diagonals; then they come from the
    diagonal pairs, counted the first time they are read. Assignment to
    an attribute raises AttributeError; the two cached_property fields
    write the instance dict directly."""

    def __init__(self, l: int, generators: Iterable[Mat2], label: str = ""):
        gens = tuple(generators)
        for g in gens:
            if g.l != l:
                raise ValueError("generator over the wrong field")
        vars(self).update(l=l, generators=gens, label=label)

    def __setattr__(self, *args):
        raise AttributeError("Subgroup is immutable")

    @cached_property
    def elements(self) -> set:
        """The elements, as a set shared by every reader: do not mutate."""
        return span(self.generators, self.l)

    @cached_property
    def _diagonals(self) -> Optional[frozenset]:
        """The diagonal pairs of the elements when the closed form holds
        (see _borel_diagonals), otherwise None."""
        return _borel_diagonals(self.generators, self.l)

    @property
    def order(self) -> int:
        diagonals = self._diagonals
        if diagonals is None:
            return len(self.elements)
        return self.l * len(diagonals)

    @property
    def index(self) -> int:
        return gl2_order(self.l) // self.order

    def invariants(self) -> Invariants:
        """Order, index, determinants, -I and (trace, det) pairs, read in
        one pass over the diagonal pairs or over the elements on their
        unpacked entries."""
        l = self.l
        diagonals = self._diagonals
        if diagonals is None:
            prints = frozenset(((a + d) % l, (a * d - b * c) % l)
                               for a, b, c, d, _ in self.elements)
            has_minus_i = -Mat2.identity(l) in self.elements
        else:
            prints = frozenset(((a + d) % l, a * d % l)
                               for a, d in diagonals)
            has_minus_i = (l - 1, l - 1) in diagonals
        return Invariants(
            order=self.order,
            index=self.index,
            det_is_full=len({det for _, det in prints}) == l - 1,
            has_minus_i=has_minus_i,
            fingerprints=prints,
        )

    def __repr__(self):
        name = self.label or "subgroup"
        return f"<{name} of GL2(F_{self.l}), order {self.order}>"


def _borel_diagonals(generators, l: int) -> Optional[frozenset]:
    """The diagonal pairs (a, d) of the group G the generators span, when
    every generator is upper triangular and one is [1, b; 0, 1] with
    b != 0; None otherwise.

    Such a G lies in the Borel group and holds all of U = {[1, x; 0, 1]},
    which has prime order l. The map g -> (a, d) is a homomorphism onto
    the subgroup D of (F_l^*)^2 that the generators' diagonal pairs span,
    with kernel U, so G = {[a, x; 0, d] : (a, d) in D} and |G| = l |D|.
    D is their closure, of at most (l - 1)^2 pairs."""
    if not (all(c == 0 for _, _, c, _, _ in generators)
            and any(a == d == 1 and b for a, b, _, d, _ in generators)):
        return None
    gens = {(a, d) for a, _, _, d, _ in generators}
    pairs = {(1, 1)}
    frontier = [(1, 1)]
    while frontier:
        grown = []
        for x, y in frontier:
            for a, d in gens:
                pair = (x * a % l, y * d % l)
                if pair not in pairs:
                    pairs.add(pair)
                    grown.append(pair)
        frontier = grown
    return frozenset(pairs)


def is_twist_pair(G: Subgroup, H: Subgroup) -> bool:
    """Whether H is the index-2 subgroup of G that a quadratic twist
    leaves: H and -H make up G, -I is not in H, and 2 |H| = |G|.

    When both groups qualify for _borel_diagonals, G = {[a, x; 0, d] :
    (a, d) in D_G} and likewise for H, so this reads on the diagonal
    pairs alone: (-1, -1) is not in D_H, 2 |D_H| = |D_G| and D_H and
    -D_H make up D_G. Otherwise on the elements."""
    l, dg, dh = G.l, G._diagonals, H._diagonals
    if H.l != l:
        return False
    if dg is None or dh is None:
        return (-Mat2.identity(l) not in H.elements
                and 2 * H.order == G.order
                and H.elements | {-m for m in H.elements} == G.elements)
    return ((l - 1, l - 1) not in dh and 2 * len(dh) == len(dg)
            and dh | {(l - a, l - d) for a, d in dh} == dg)


def is_applicable(G: Subgroup) -> bool:
    """Whether G can be the mod-l image of a curve over Q that is not
    yet accounted for: proper, containing -I, with surjective determinant,
    and containing a trace-zero element of determinant -1. At l = 2 the
    -I condition holds automatically since -I = I."""
    inv = G.invariants()
    return (inv.index > 1 and inv.has_minus_i and inv.det_is_full
            and (0, G.l - 1) in inv.fingerprints)


# --- the named subgroups ---------------------------------------------------

def cartan_split(l: int) -> Subgroup:
    """Diagonal matrices."""
    g = primitive_root(l)
    return Subgroup(l, [Mat2(g, 0, 0, 1, l), Mat2(1, 0, 0, g, l)], f"{l}.Cs")


def cartan_nonsplit(l: int) -> Subgroup:
    """Matrices [a, b*eps; b, a], the image of F_{l^2}^* acting on itself."""
    e = epsilon(l)
    gen = _nonsplit_generator(l, e)
    return Subgroup(l, [gen], f"{l}.Cns")


@lru_cache(maxsize=None)
def _nonsplit_generator(l: int, e: int) -> Mat2:
    # An element a + b*sqrt(eps) generating F_{l^2}^*, searched in order.
    target = l * l - 1
    for a in range(l):
        for b in range(1, l):
            if (a * a - e * b * b) % l == 0:
                continue
            m = Mat2(a, b * e % l, b, a, l)
            if _order(m) == target:
                return m
    raise ArithmeticError("no generator found; not a prime field?")


def _order(m: Mat2) -> int:
    k = 1
    acc = m
    ident = Mat2.identity(m.l)
    while acc != ident:
        acc = acc * m
        k += 1
    return k


def normalizer_split(l: int) -> Subgroup:
    G = cartan_split(l)
    gens = list(G.generators) + [Mat2(0, 1, 1, 0, l)]
    return Subgroup(l, gens, f"{l}.Ns")


def normalizer_nonsplit(l: int) -> Subgroup:
    G = cartan_nonsplit(l)
    gens = list(G.generators) + [Mat2(1, 0, 0, -1, l)]
    return Subgroup(l, gens, f"{l}.Nns")


def borel(l: int) -> Subgroup:
    g = primitive_root(l)
    return Subgroup(l, [Mat2(g, 0, 0, 1, l), Mat2(1, 0, 0, g, l),
                        Mat2(1, 1, 0, 1, l)], f"{l}.B")


def full_gl2(l: int) -> Subgroup:
    g = primitive_root(l)
    return Subgroup(l, [Mat2(g, 0, 0, 1, l), Mat2(1, 1, 0, 1, l),
                        Mat2(0, 1, 1, 0, l)] if l > 2 else
                    [Mat2(1, 1, 0, 1, l), Mat2(0, 1, 1, 0, l)],
                    f"{l}.GL2")


def octahedral_normalizer(l: int) -> Subgroup:
    """The subgroup of order 24(l-1) whose projective image is the
    octahedral group S4, built from a quaternion pair i, j with
    i^2 = j^2 = -I and ij = -ji, the 3-cycle I+i+j+ij, the 4-fold
    element I+i, and all scalars. Its determinants are onto exactly
    when l = 3 or 5 mod 8. Raises ValueError unless l is an odd prime
    int."""
    _require_odd(l)
    a, b = _sum_of_squares_minus_one(l)
    i = Mat2(0, -1, 1, 0, l)
    j = Mat2(a, b, b, -a, l)
    k = i * j
    sigma = _mat_sum([Mat2.identity(l), i, j, k], l)
    four = _mat_sum([Mat2.identity(l), i], l)
    g = primitive_root(l)
    scal = Mat2(g, 0, 0, g, l)
    return Subgroup(l, [i, j, sigma, four, scal], f"{l}.S4")


def _mat_sum(ms, l: int) -> Mat2:
    return Mat2(*(sum(m[i] for m in ms) for i in range(4)), l)


def _sum_of_squares_minus_one(l: int) -> Tuple[int, int]:
    for a in range(l):
        need = (-1 - a * a) % l
        for b in range(l):
            if b * b % l == need:
                return a, b
    raise ArithmeticError("unreachable for odd l")


# --- fingerprint membership without enumeration, at odd l -----------------

def fingerprint_in_borel(t: int, d: int, l: int) -> bool:
    """Whether some upper-triangular matrix has this (trace, det), for an
    odd prime l: the characteristic polynomial must split over F_l.
    Raises ValueError unless l is an odd prime."""
    _require_odd(l)
    return _euler(t * t - 4 * d, l) >= 0


def fingerprint_in_split_normalizer(t: int, d: int, l: int) -> bool:
    """For an odd prime l: the torus part needs a split characteristic
    polynomial; the outer coset consists of trace-zero matrices of
    arbitrary determinant. Raises ValueError unless l is an odd prime."""
    _require_odd(l)
    return t % l == 0 or _euler(t * t - 4 * d, l) >= 0


def fingerprint_in_nonsplit_normalizer(t: int, d: int, l: int) -> bool:
    """For an odd prime l: torus elements have non-split or scalar
    characteristic polynomial; the outer coset is trace-zero. Raises
    ValueError unless l is an odd prime."""
    _require_odd(l)
    return t % l == 0 or _euler(t * t - 4 * d, l) <= 0


def fingerprint_in_octahedral(t: int, d: int, l: int) -> bool:
    """For an odd prime l: projectively octahedral elements satisfy
    t^2/d in {0, 1, 2, 4}. Raises ValueError unless l is an odd prime."""
    _require_odd(l)
    u = t * t * pow(d, -1, l) % l
    return u in (0, 1, 2 % l, 4 % l)
