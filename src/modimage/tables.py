"""Classification data for the mod-l image computation at small primes.

For each l in {2, 3, 5, 7, 11, 13, 17, 37} there is a table of the
maximal proper subgroups (up to conjugacy and sign) that can occur as
mod-l images of elliptic curves over Q, listed in the matching order
used by the classifier: decreasing index, ties kept in their listed
order. At 17 and 37 those are the Borel subgroups at Mazur's isolated
points of X_0(17) and X_0(37), four j-values in all. An entry carries
some of:

  * a degree-index cover J(t) of the j-line whose rational fibers detect
    containment of the image in +-G (genus-zero case),
  * a finite set of j-invariants when the fiber is finite,
  * a one-parameter twist family (A(t), B(t)) of short curves realising
    the d = 1 twist class, or a single fixed representative curve,
  * refinements (label, generators) distinguishing the image inside +-G
    by whether the curve is the d = 1 or the d = l* quadratic twist of
    the family member over the matched point.

The nonsplit Cartan normalizer at l = 11 has a genus-one fiber, given
by a criterion (a rank-one curve and a quadratic in j) whose data lives
in NonsplitCriterion11. Every entry is one relation sum c_i(t) j^i = 0
(TableEntry.relation), and j lies under it where the fibre over j has a
rational point. fibre() forms that fibre, for the classifier's walk and
for _fiber_contains, which verify_all and nonsplit11_contains (on the
criterion's relation) call.

Everything is exact: Fractions and Poly over Q, each cover a coprime
(num, den) pair as transcribed. verify_all() re-derives the internal
consistency of all of this data (cover composition identities, covers
in lowest terms, family j-invariants, group orders, fiber membership of
the complex-multiplication j-invariants, the discriminant identity of
the nonsplit-11 criterion) and is exposed on the command line as
`verify-tables`.
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .ec import PointQ, ShortCurve, WeierstrassCurve, scalar_mul
from .exactmath import _echo, is_probable_prime, legendre, to_fraction
from .gl2 import (
    Mat2,
    Subgroup,
    borel,
    cartan_nonsplit,
    cartan_split,
    full_gl2,
    gl2_order,
    is_applicable,
    is_twist_pair,
    normalizer_nonsplit,
    normalizer_split,
    primitive_root,
)
from .polyq import INFINITY, Poly, compose, exact_divide, format_poly, \
    poly_gcd, poly_sqrt, rational_roots

T = Poly.var()
F = Fraction


class Cover(NamedTuple):
    """A cover J(t) = num(t)/den(t) of the j-line, num and den coprime."""

    num: Poly
    den: Poly = Poly.const(1)


class TableEntry(NamedTuple):
    """One maximal image candidate at a prime l."""

    label: str
    index: int                       # index of +-G in GL2(F_l)
    gens: tuple                      # generator matrices as (a, b, c, d)
    cover: Optional[Cover] = None    # J(t) when the fiber is a rational line
    jvals: Optional[frozenset] = None  # finite fiber of j-invariants
    family: Optional[tuple] = None   # (A(t), B(t)): y^2 = x^3 + A(t)x + B(t)
    curve: Optional[ShortCurve] = None  # fixed representative curve
    bad_t: frozenset = frozenset()   # parameter values the family excludes
    subs: tuple = ()                 # ((label, gens) at d=1, (label, gens) at d=l*)
    criterion: str = ""              # nonempty: the nonsplit-11 criterion

    @property
    def relation(self) -> tuple:
        """The coefficients (c_0, ..., c_k), Polys in t, of the entry's
        relation sum c_i(t) j^i = 0: (num, -den) for a cover, (C, B, A) of
        nonsplit11() for the criterion, the constant coefficients of
        prod (j - v) over the j-values v. Derived on read, never stale."""
        if self.cover is not None:
            return self.cover.num, -self.cover.den
        if self.criterion:
            crit = nonsplit11()
            return crit.C, crit.B, crit.A
        return tuple(map(Poly.const, math.prod(T - v for v in self.jvals)
                         .coeffs))


class PrimeTable(NamedTuple):
    l: int
    twist: int          # l* = (-1)^((l-1)/2) * l; the only twist that matters
    entries: tuple


def _gens_of(G: Subgroup) -> tuple:
    return tuple(m.tuple() for m in G.generators)


# --- l = 2 -----------------------------------------------------------------

def _table_2() -> PrimeTable:
    j1 = Cover(256 * (T ** 2 + T + 1) ** 3, T ** 2 * (T + 1) ** 2)
    j2 = Cover(256 * (T + 1) ** 3, T)
    j3 = Cover(T ** 2 + 1728)
    entries = (
        TableEntry("2.G1", 6, (), cover=j1),
        TableEntry("2.G2", 3, ((1, 1, 0, 1),), cover=j2),
        TableEntry("2.G3", 2, ((1, 1, 1, 0),), cover=j3),
    )
    return PrimeTable(2, 1, entries)


# --- l = 3 -----------------------------------------------------------------

def _table_3() -> PrimeTable:
    j1 = Cover(27 * (T + 1) ** 3 * (T + 3) ** 3 * (T ** 2 + 3) ** 3,
                 T ** 3 * (T ** 2 + 3 * T + 3) ** 3)
    j2 = Cover(27 * (T + 1) ** 3 * (T - 3) ** 3, T ** 3)
    j3 = Cover(27 * (T + 1) * (T + 9) ** 3, T ** 3)
    j4 = Cover(T ** 3)
    fam1 = (-3 * (T + 1) * (T + 3) * (T ** 2 + 3),
            -2 * (T ** 2 - 3) * (T ** 4 + 6 * T ** 3 + 18 * T ** 2
                                 + 18 * T + 9))
    fam3 = (-3 * (T + 1) ** 3 * (T + 9),
            -2 * (T + 1) ** 4 * (T ** 2 - 18 * T - 27))
    h11 = ((1, 0, 0, 2),)
    h31 = ((1, 1, 0, 1), (1, 0, 0, 2))
    h32 = ((1, 1, 0, 1), (2, 0, 0, 1))
    entries = (
        TableEntry("3.G1", 12, _gens_of(cartan_split(3)), cover=j1,
                   family=fam1, bad_t=frozenset({F(0)}),
                   subs=(("3.H1.1", h11), ("3.H1.1", h11))),
        TableEntry("3.G2", 6, _gens_of(normalizer_split(3)), cover=j2),
        TableEntry("3.G3", 4, _gens_of(borel(3)), cover=j3,
                   family=fam3, bad_t=frozenset({F(0), F(-1)}),
                   subs=(("3.H3.1", h31), ("3.H3.2", h32))),
        TableEntry("3.G4", 3, _gens_of(normalizer_nonsplit(3)), cover=j4),
    )
    return PrimeTable(3, -3, entries)


# --- l = 5 -----------------------------------------------------------------

def _table_5() -> PrimeTable:
    p20 = T ** 20 + 228 * T ** 15 + 494 * T ** 10 - 228 * T ** 5 + 1
    j1 = Cover(p20 ** 3, T ** 5 * (T ** 10 - 11 * T ** 5 - 1) ** 5)
    j2 = Cover((T ** 2 + 5 * T + 5) ** 3 * (T ** 4 + 5 * T ** 2 + 25) ** 3
                 * (T ** 4 + 5 * T ** 3 + 20 * T ** 2 + 25 * T + 25) ** 3,
                 T ** 5 * (T ** 4 + 5 * T ** 3 + 15 * T ** 2
                           + 25 * T + 25) ** 5)
    j3 = Cover(5 ** 4 * T ** 3 * (T ** 2 + 5 * T + 10) ** 3
                 * (2 * T ** 2 + 5 * T + 5) ** 3
                 * (4 * T ** 4 + 30 * T ** 3 + 95 * T ** 2
                    + 150 * T + 100) ** 3,
                 (T ** 2 + 5 * T + 5) ** 5
                 * (T ** 4 + 5 * T ** 3 + 15 * T ** 2 + 25 * T + 25) ** 5)
    j4 = Cover((T + 5) ** 3 * (T ** 2 - 5) ** 3 * (T ** 2 + 5 * T + 10) ** 3,
                 (T ** 2 + 5 * T + 5) ** 5)
    q4 = T ** 4 + 228 * T ** 3 + 494 * T ** 2 - 228 * T + 1
    j5 = Cover(q4 ** 3, T * (T ** 2 - 11 * T - 1) ** 5)
    r4 = T ** 4 - 12 * T ** 3 + 14 * T ** 2 + 12 * T + 1
    j6 = Cover(r4 ** 3, T ** 5 * (T ** 2 - 11 * T - 1))
    j7 = Cover(5 ** 3 * (T + 1) * (2 * T + 1) ** 3
                 * (2 * T ** 2 - 3 * T + 3) ** 3,
                 (T ** 2 + T - 1) ** 5)
    j8 = Cover(5 ** 2 * (T ** 2 + 10 * T + 5) ** 3, T ** 5)
    j9 = Cover(T ** 3 * (T ** 2 + 5 * T + 40))
    fam1 = (-27 * p20,
            54 * (T ** 30 - 522 * T ** 25 - 10005 * T ** 20
                  - 10005 * T ** 10 + 522 * T ** 5 + 1))
    fam5 = (-27 * q4,
            54 * (T ** 6 - 522 * T ** 5 - 10005 * T ** 4
                  - 10005 * T ** 2 + 522 * T + 1))
    fam6 = (-27 * r4,
            54 * (T ** 6 - 18 * T ** 5 + 75 * T ** 4
                  + 75 * T ** 2 + 18 * T + 1))
    zero = frozenset({F(0)})
    entries = (
        TableEntry("5.G1", 60, ((1, 0, 0, 2), (4, 0, 0, 4)), cover=j1,
                   family=fam1, bad_t=zero,
                   subs=(("5.H1.1", ((1, 0, 0, 2),)),
                         ("5.H1.2", ((4, 0, 0, 2),)))),
        TableEntry("5.G2", 30, _gens_of(cartan_split(5)), cover=j2),
        TableEntry("5.G3", 30, ((2, 0, 0, 2), (1, 0, 0, 4), (0, 1, 3, 0)),
                   cover=j3),
        TableEntry("5.G4", 15, _gens_of(normalizer_split(5)), cover=j4),
        TableEntry("5.G5", 12, ((2, 0, 0, 1), (1, 1, 0, 1), (4, 0, 0, 4)),
                   cover=j5, family=fam5, bad_t=zero,
                   subs=(("5.H5.1", ((2, 0, 0, 1), (1, 1, 0, 1))),
                         ("5.H5.2", ((2, 0, 0, 4), (1, 1, 0, 1))))),
        TableEntry("5.G6", 12, ((1, 0, 0, 2), (1, 1, 0, 1), (4, 0, 0, 4)),
                   cover=j6, family=fam6, bad_t=zero,
                   subs=(("5.H6.1", ((1, 0, 0, 2), (1, 1, 0, 1))),
                         ("5.H6.2", ((4, 0, 0, 2), (1, 1, 0, 1))))),
        TableEntry("5.G7", 10, _gens_of(normalizer_nonsplit(5)), cover=j7),
        TableEntry("5.G8", 6, _gens_of(borel(5)), cover=j8),
        TableEntry("5.G9", 5, ((2, 0, 0, 1), (1, 0, 0, 2), (0, 4, 1, 0),
                               (1, 1, 1, 4)), cover=j9),
    )
    return PrimeTable(5, 5, entries)


# --- l = 7 -----------------------------------------------------------------

def _table_7() -> PrimeTable:
    s6a = (T ** 6 - 11 * T ** 5 + 30 * T ** 4 - 15 * T ** 3
           - 10 * T ** 2 + 5 * T + 1)
    s6b = (T ** 6 + 229 * T ** 5 + 270 * T ** 4 - 1695 * T ** 3
           + 1430 * T ** 2 - 235 * T + 1)
    j2 = Cover(T * (T + 1) ** 3 * (T ** 2 - 5 * T + 1) ** 3
                 * (T ** 2 - 5 * T + 8) ** 3
                 * (T ** 4 - 5 * T ** 3 + 8 * T ** 2 - 7 * T + 7) ** 3,
                 (T ** 3 - 4 * T ** 2 + 3 * T + 1) ** 7)
    j3 = Cover((T ** 2 - T + 1) ** 3 * s6a ** 3,
                 (T - 1) ** 7 * T ** 7 * (T ** 3 - 8 * T ** 2 + 5 * T + 1))
    j4 = Cover((T ** 2 - T + 1) ** 3 * s6b ** 3,
                 (T - 1) * T * (T ** 3 - 8 * T ** 2 + 5 * T + 1) ** 7)
    j5 = Cover(-(T ** 2 - 3 * T - 3) ** 3 * (T ** 2 - T + 1) ** 3
                 * (3 * T ** 2 - 9 * T + 5) ** 3 * (5 * T ** 2 - T - 1) ** 3,
                 (T ** 3 - 2 * T ** 2 - T + 1)
                 * (T ** 3 - T ** 2 - 2 * T + 1) ** 7)
    j6 = Cover(64 * T ** 3 * (T ** 2 + 7) ** 3 * (T ** 2 - 7 * T + 14) ** 3
                 * (5 * T ** 2 - 14 * T - 7) ** 3,
                 (T ** 3 - 7 * T ** 2 + 7 * T + 7) ** 7)
    j7 = Cover((T ** 2 + 245 * T + 2401) ** 3 * (T ** 2 + 13 * T + 49),
                 T ** 7)
    fam3 = (-27 * (T ** 2 - T + 1) * s6a,
            54 * (T ** 12 - 18 * T ** 11 + 117 * T ** 10 - 354 * T ** 9
                  + 570 * T ** 8 - 486 * T ** 7 + 273 * T ** 6
                  - 222 * T ** 5 + 174 * T ** 4 - 46 * T ** 3
                  - 15 * T ** 2 + 6 * T + 1))
    fam4 = (-27 * (T ** 2 - T + 1) * s6b,
            54 * (T ** 12 - 522 * T ** 11 - 8955 * T ** 10 + 37950 * T ** 9
                  - 70998 * T ** 8 + 131562 * T ** 7 - 253239 * T ** 6
                  + 316290 * T ** 5 - 218058 * T ** 4 + 80090 * T ** 3
                  - 14631 * T ** 2 + 510 * T + 1))
    fam5 = (-27 * 7 * (T ** 2 - 3 * T - 3) * (T ** 2 - T + 1)
            * (3 * T ** 2 - 9 * T + 5) * (5 * T ** 2 - T - 1),
            -54 * 49 * (T ** 4 - 6 * T ** 3 + 17 * T ** 2 - 24 * T + 9)
            * (3 * T ** 4 - 4 * T ** 3 - 5 * T ** 2 - 2 * T - 1)
            * (9 * T ** 4 - 12 * T ** 3 - T ** 2 + 8 * T - 3))
    fam7 = (-27 * (T ** 2 + 13 * T + 49) ** 3 * (T ** 2 + 245 * T + 2401),
            54 * (T ** 2 + 13 * T + 49) ** 4
            * (T ** 4 - 490 * T ** 3 - 21609 * T ** 2
               - 235298 * T - 823543))
    h11 = ((2, 0, 0, 4), (0, 2, 1, 0))
    zero_one = frozenset({F(0), F(1)})
    entries = (
        TableEntry("7.G1", 56, ((2, 0, 0, 4), (0, 2, 1, 0), (6, 0, 0, 6)),
                   jvals=frozenset({F(3 ** 3 * 5 * 7 ** 5, 2 ** 7)}),
                   curve=ShortCurve(-42875, -3246250),
                   subs=(("7.H1.1", h11), ("7.H1.1", h11))),
        TableEntry("7.G2", 28, _gens_of(normalizer_split(7)), cover=j2),
        TableEntry("7.G3", 24, ((1, 0, 0, 3), (1, 1, 0, 1), (6, 0, 0, 6)),
                   cover=j3, family=fam3, bad_t=zero_one,
                   subs=(("7.H3.1", ((1, 0, 0, 3), (1, 1, 0, 1))),
                         ("7.H3.2", ((6, 0, 0, 1), (1, 0, 0, 2),
                                     (1, 1, 0, 1))))),
        TableEntry("7.G4", 24, ((3, 0, 0, 1), (1, 1, 0, 1), (6, 0, 0, 6)),
                   cover=j4, family=fam4, bad_t=zero_one,
                   subs=(("7.H4.1", ((3, 0, 0, 1), (1, 1, 0, 1))),
                         ("7.H4.2", ((2, 0, 0, 1), (1, 0, 0, 6),
                                     (1, 1, 0, 1))))),
        TableEntry("7.G5", 24, ((3, 0, 0, 3), (1, 0, 0, 6), (1, 1, 0, 1)),
                   cover=j5, family=fam5,
                   subs=(("7.H5.1", ((2, 0, 0, 2), (6, 0, 0, 1),
                                     (1, 1, 0, 1))),
                         ("7.H5.2", ((2, 0, 0, 2), (1, 0, 0, 6),
                                     (1, 1, 0, 1))))),
        TableEntry("7.G6", 21, _gens_of(normalizer_nonsplit(7)), cover=j6),
        TableEntry("7.G7", 8, _gens_of(borel(7)), cover=j7,
                   family=fam7, bad_t=frozenset({F(0)}),
                   subs=(("7.H7.1", ((3, 0, 0, 1), (1, 0, 0, 2),
                                     (1, 1, 0, 1))),
                         ("7.H7.2", ((2, 0, 0, 1), (1, 0, 0, 3),
                                     (1, 1, 0, 1))))),
    )
    return PrimeTable(7, -7, entries)


# --- l = 11 ----------------------------------------------------------------

def _table_11() -> PrimeTable:
    entries = (
        TableEntry("11.G1", 60, ((1, 1, 0, 1), (10, 0, 0, 10), (4, 0, 0, 6)),
                   jvals=frozenset({F(-121)}),
                   curve=ShortCurve(-395307, 373960422),
                   subs=(("11.H1.1", ((1, 1, 0, 1), (4, 0, 0, 6))),
                         ("11.H1.2", ((1, 1, 0, 1), (7, 0, 0, 5))))),
        TableEntry("11.G2", 60, ((1, 1, 0, 1), (10, 0, 0, 10), (5, 0, 0, 7)),
                   jvals=frozenset({F(-24729001)}),
                   curve=ShortCurve(-4707747, 3931723422),
                   subs=(("11.H2.1", ((1, 1, 0, 1), (5, 0, 0, 7))),
                         ("11.H2.2", ((1, 1, 0, 1), (6, 0, 0, 4))))),
        TableEntry("11.G3", 55, _gens_of(normalizer_nonsplit(11)),
                   criterion="nonsplit-fiber"),
    )
    return PrimeTable(11, -11, entries)


# --- l = 13 ----------------------------------------------------------------

def _table_13() -> PrimeTable:
    p1 = (T ** 12 + 231 * T ** 11 + 269 * T ** 10 - 3160 * T ** 9
          + 6022 * T ** 8 - 9616 * T ** 7 + 21880 * T ** 6
          - 34102 * T ** 5 + 28297 * T ** 4 - 12455 * T ** 3
          + 2876 * T ** 2 - 243 * T + 1)
    p2 = (T ** 12 - 9 * T ** 11 + 29 * T ** 10 - 40 * T ** 9 + 22 * T ** 8
          - 16 * T ** 7 + 40 * T ** 6 - 22 * T ** 5 - 23 * T ** 4
          + 25 * T ** 3 - 4 * T ** 2 - 3 * T + 1)
    p3 = ((T ** 4 - T ** 3 + 2 * T ** 2 - 9 * T + 3)
          * (3 * T ** 4 - 3 * T ** 3 - 7 * T ** 2 + 12 * T - 4)
          * (4 * T ** 4 - 4 * T ** 3 - 5 * T ** 2 + 3 * T - 1))
    p4 = (T ** 8 + 235 * T ** 7 + 1207 * T ** 6 + 955 * T ** 5
          + 3840 * T ** 4 - 955 * T ** 3 + 1207 * T ** 2 - 235 * T + 1)
    p5 = (T ** 8 - 5 * T ** 7 + 7 * T ** 6 - 5 * T ** 5 + 5 * T ** 3
          + 7 * T ** 2 + 5 * T + 1)
    p6 = T ** 4 + 7 * T ** 3 + 20 * T ** 2 + 19 * T + 1
    q4 = (T ** 12 - 512 * T ** 11 - 13079 * T ** 10 - 32300 * T ** 9
          - 104792 * T ** 8 - 111870 * T ** 7 - 419368 * T ** 6
          + 111870 * T ** 5 - 104792 * T ** 4 + 32300 * T ** 3
          - 13079 * T ** 2 + 512 * T + 1)
    q5 = (T ** 12 - 8 * T ** 11 + 25 * T ** 10 - 44 * T ** 9 + 40 * T ** 8
          + 18 * T ** 7 - 40 * T ** 6 - 18 * T ** 5 + 40 * T ** 4
          + 44 * T ** 3 + 25 * T ** 2 + 8 * T + 1)
    cubic = T ** 3 - 4 * T ** 2 + T + 1
    quart = T ** 4 - T ** 3 + 5 * T ** 2 + T + 1
    j1 = Cover((T ** 2 - T + 1) ** 3 * p1 ** 3, (T - 1) * T * cubic ** 13)
    j2 = Cover((T ** 2 - T + 1) ** 3 * p2 ** 3,
                 (T - 1) ** 13 * T ** 13 * cubic)
    j3 = Cover(-13 ** 4 * (T ** 2 - T + 1) ** 3 * p3 ** 3,
                 cubic ** 13 * (5 * T ** 3 - 7 * T ** 2 - 8 * T + 5))
    j4 = Cover(quart * p4 ** 3, T * (T ** 2 - 3 * T - 1) ** 13)
    j5 = Cover(quart * p5 ** 3, T ** 13 * (T ** 2 - 3 * T - 1))
    j6 = Cover((T ** 2 + 5 * T + 13) * p6 ** 3, T)
    fam4 = (-27 * quart ** 3 * p4, 54 * (T ** 2 + 1) * quart ** 4 * q4)
    fam5 = (-27 * quart ** 3 * p5, 54 * (T ** 2 + 1) * quart ** 4 * q5)
    g7_jvals = frozenset({
        F(2 ** 4 * 5 * 13 ** 4 * 17 ** 3, 3 ** 13),
        F(-(2 ** 12) * 5 ** 3 * 11 * 13 ** 4, 3 ** 13),
        F(2 ** 18 * 3 ** 3 * 13 ** 4 * 127 ** 3 * 139 ** 3 * 157 ** 3
          * 283 ** 3 * 929, 5 ** 13 * 61 ** 13),
    })
    zero = frozenset({F(0)})
    entries = (
        TableEntry("13.G7", 91, ((2, 0, 0, 2), (2, 0, 0, 3), (0, 12, 1, 0),
                                 (1, 1, 12, 1)), jvals=g7_jvals),
        TableEntry("13.G1", 42, ((2, 0, 0, 1), (1, 0, 0, 8), (1, 1, 0, 1)),
                   cover=j1),
        TableEntry("13.G2", 42, ((8, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)),
                   cover=j2),
        TableEntry("13.G3", 42, ((2, 0, 0, 2), (5, 0, 0, 1), (1, 1, 0, 1)),
                   cover=j3),
        TableEntry("13.G4", 28, ((2, 0, 0, 1), (1, 0, 0, 4), (1, 1, 0, 1)),
                   cover=j4, family=fam4, bad_t=zero,
                   subs=(("13.H4.1", ((2, 0, 0, 1), (1, 0, 0, 3),
                                      (1, 1, 0, 1))),
                         ("13.H4.2", ((4, 0, 0, 1), (1, 0, 0, 3),
                                      (1, 1, 0, 1), (2, 0, 0, 4))))),
        TableEntry("13.G5", 28, ((4, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)),
                   cover=j5, family=fam5, bad_t=zero,
                   subs=(("13.H5.1", ((3, 0, 0, 1), (1, 0, 0, 2),
                                      (1, 1, 0, 1))),
                         ("13.H5.2", ((3, 0, 0, 1), (1, 0, 0, 4),
                                      (1, 1, 0, 1), (4, 0, 0, 2))))),
        TableEntry("13.G6", 14, _gens_of(borel(13)), cover=j6),
    )
    return PrimeTable(13, 13, entries)


# --- l = 17 and l = 37: the isolated points of X_0(17) and X_0(37) ---------

def _table_17() -> PrimeTable:
    entries = (
        TableEntry("17.G1", 72, ((2, 0, 0, 11), (4, 0, 0, 13), (1, 1, 0, 1)),
                   jvals=frozenset({F(-17 * 373 ** 3, 2 ** 17)})),
        TableEntry("17.G2", 72, ((11, 0, 0, 2), (13, 0, 0, 4), (1, 1, 0, 1)),
                   jvals=frozenset({F(-(17 ** 2) * 101 ** 3, 2)})),
    )
    return PrimeTable(17, 17, entries)


def _table_37() -> PrimeTable:
    entries = (
        TableEntry("37.G3", 114, ((8, 0, 0, 1), (1, 0, 0, 2), (1, 1, 0, 1)),
                   jvals=frozenset({F(-7 * 11 ** 3)})),
        TableEntry("37.G4", 114, ((2, 0, 0, 1), (1, 0, 0, 8), (1, 1, 0, 1)),
                   jvals=frozenset({F(-7 * 137 ** 3 * 2083 ** 3)})),
    )
    return PrimeTable(37, 37, entries)


_BUILDERS = {2: _table_2, 3: _table_3, 5: _table_5, 7: _table_7,
             11: _table_11, 13: _table_13, 17: _table_17, 37: _table_37}

# the largest l group_from_label takes: the largest table prime. A group
# at l is enumerated unless closed form applies, ~l^4 matrices for GL2
# (1.8 million at 37), and a prime of thousands of digits takes seconds
# to test
MAX_GROUP_PRIME = max(_BUILDERS)


def supported_primes() -> tuple:
    """Primes with a full matching table."""
    return tuple(_BUILDERS)


@lru_cache(maxsize=None)
def prime_table(l: int) -> PrimeTable:
    if l not in _BUILDERS:
        raise ValueError(f"no table for l = {l}")
    return _BUILDERS[l]()


# --- complex multiplication over Q ------------------------------------------

class CMEntry(NamedTuple):
    """One of the thirteen CM j-invariants over Q.

    field_disc is the (positive) squarefree D with CM field Q(sqrt(-D));
    order_index is the conductor of the order inside its maximal order.
    model is a representative short curve with that j-invariant.
    """

    j: Fraction
    field_disc: int
    order_index: int
    model: ShortCurve


CM_TABLE = (
    CMEntry(F(0), 3, 1, ShortCurve(0, 16)),
    CMEntry(F(54000), 3, 2, ShortCurve(-15, 22)),
    CMEntry(F(-12288000), 3, 3, ShortCurve(-480, 4048)),
    CMEntry(F(1728), 4, 1, ShortCurve(1, 0)),
    CMEntry(F(287496), 4, 2, ShortCurve(-11, 14)),
    CMEntry(F(-3375), 7, 1, ShortCurve(-1715, 33614)),
    CMEntry(F(16581375), 7, 2, ShortCurve(-29155, 1915998)),
    CMEntry(F(8000), 8, 1, ShortCurve(-4320, 96768)),
    CMEntry(F(-32768), 11, 1, ShortCurve(-9504, 365904)),
    CMEntry(F(-884736), 19, 1, ShortCurve(-608, 5776)),
    CMEntry(F(-884736000), 43, 1, ShortCurve(-13760, 621264)),
    CMEntry(F(-147197952000), 67, 1, ShortCurve(-117920, 15585808)),
    CMEntry(F(-262537412640768000), 163, 1,
            ShortCurve(-34790720, 78984748304)),
)

_CM_BY_J = {e.j: e for e in CM_TABLE}


def cm_entry(j) -> Optional[CMEntry]:
    """The CM table row for this j-invariant, or None."""
    return _CM_BY_J.get(to_fraction(j))


# --- the nonsplit Cartan normalizer fiber at l = 11 --------------------------

# ascending coefficients of the degree-49 cofactor of -(x^2+3x-6)^3 in B(x)
_B11_BRACKET = (
    -30857360406231018655, 708318740340941449799, -8117056250720937228985,
    61683475328903338239178, -347819053424928336793068,
    1542648801995330874184236, -5570911068111617263502302,
    16754292456737738144357709, -42636417323385892254033027,
    92916572268973769104815620, -175049577131269087795781453,
    287270832775316643952335709, -413200824632802503354807972,
    523465655841901079370457175, -586206578096981243980668654,
    581656165535334214665717816, -511840960382358144595839458,
    399144725377223909937142938, -275040771573054834247036345,
    166474240219619575379485393, -87534472061810348609315974,
    39148264563215734730610917, -14221091463553801024770599,
    3668241437553022801950917, -234929885880162547645306,
    -421596979720485992629121, 315827025781563232420857,
    -143943931899306373170309, 48291196122826259771817,
    -11768533689837648360109, 1609695806324946484826,
    210175535413395353857, -232064394883539673213, 96849826504401032248,
    -30444784135263860996, 7984804002023063554, -1686428698022253344,
    236712051437217644, -3218815397602111, -7744726079195413,
    1631415220074871, 33563647471596, -90936268647246, 23205911712335,
    -3137869050351, 230799738529, -5377010368, -413223722, 23793840,
    108000,
)


class NonsplitCriterion11(NamedTuple):
    """Deciding containment in the nonsplit Cartan normalizer at 11.

    The rational points of the relevant modular curve form a rank-one
    elliptic curve; a j-invariant lies under one of them exactly when
    A(x) j^2 + B(x) j + C(x) has a rational root. A, B, C satisfy the
    discriminant identity B^2 - 4AC = D(x)^2 (x^3 - x^2 - 7x + 41/4),
    which verify_all checks.
    """

    curve: WeierstrassCurve
    generator: tuple
    A: Poly
    B: Poly
    C: Poly


@lru_cache(maxsize=None)
def nonsplit11() -> NonsplitCriterion11:
    X = T  # the variable is the x-coordinate here
    A = (X ** 5 - 9 * X ** 4 + 17 * X ** 3 + 20 * X ** 2
         - 73 * X + 43) ** 11
    B = -((X ** 2 + 3 * X - 6) ** 3) * Poly(_B11_BRACKET)
    C = ((4 * X - 5) * (X ** 2 + 3 * X - 6) ** 6
         * (9 * X ** 2 - 28 * X + 23) ** 3
         * (X ** 4 - 5 * X ** 3 + 74 * X ** 2 - 245 * X + 223) ** 3
         * (4 * X ** 4 - 9 * X ** 3 - X ** 2 + 21 * X - 32) ** 3
         * (25 * X ** 4 - 114 * X ** 3 + 167 * X ** 2 - 86 * X + 20) ** 3)
    return NonsplitCriterion11(
        curve=WeierstrassCurve(0, -1, 1, -7, 10),
        generator=(F(4), F(5)),
        A=A, B=B, C=C,
    )


def nonsplit11_j(x, y):
    """The j-coordinate of a point (x, y) on the criterion curve, or
    INFINITY at one of the six poles."""
    x, y = to_fraction(x), to_fraction(y)
    f1 = x ** 2 + 3 * x - 6
    f2 = 11 * (x ** 2 - 5) * y + (2 * x ** 4 + 23 * x ** 3
                                  - 72 * x ** 2 - 28 * x + 127)
    f3 = 6 * y + 11 * x - 19
    f4 = 22 * (x - 2) * y + (5 * x ** 3 + 17 * x ** 2 - 112 * x + 120)
    f5 = 11 * y + (2 * x ** 2 + 17 * x - 34)
    f6 = (x - 4) * y - (5 * x - 9)
    den = f5 ** 2 * f6 ** 11
    if den == 0:
        return INFINITY
    return (f1 * f2 * f3 * f4) ** 3 / den


def nonsplit11_contains(j) -> bool:
    """Whether a rational point of the criterion curve sits over j:
    _fiber_contains on the relation of 11.G3.

    Affine points appear as rational roots in x of A*j^2 + B*j + C. The
    curve's single point at infinity sits over j = 54000, where the
    leading coefficients cancel and the degree of that polynomial drops.
    """
    return _fiber_contains(_entry(11, "G3").relation, to_fraction(j))


# --- building groups from labels ---------------------------------------------

def _entry(l: int, name: str) -> Optional[TableEntry]:
    """The entry of the table for l labelled l.name, or the one with a
    twist refinement so labelled; None when there is none."""
    label = f"{l}.{name}"
    for e in prime_table(l).entries:
        if e.label == label or label in dict(e.subs):
            return e
    return None


# the families each named by one gl2 constructor, labelled l.name
_NAMED = {"GL2": full_gl2, "Cs": cartan_split, "Cns": cartan_nonsplit,
          "Ns": normalizer_split, "Nns": normalizer_nonsplit, "B": borel}

# the CM images at l = D: the power of a primitive root g that spans the
# scalars, and the diagonal unit of determinant -1, beside [1, 1; 0, 1]
_CM_GROUPS = {"CM.G": (1, (1, 0, 0, -1)), "CM.H1": (2, (1, 0, 0, -1)),
              "CM.H2": (2, (-1, 0, 0, 1))}


def group_from_label(l: int, name: str) -> Subgroup:
    """Build the subgroup of GL2(F_l) named by a verdict label.

    Accepts either the bare name ("G1", "H4.2", "Ns", "B", "GL2",
    "Ns-index3", "CM.H1", ...) or the full label "l.name", whose prefix
    is read as an integer, so "037.G3" is 37.G3. Raises ValueError
    unless l is a prime int (13.0 and Fraction(13) are refused too) of at
    most MAX_GROUP_PRIME, checked before the primality test, and the
    label is a string that is known and names no other prime. This is
    the one way from a label to its group: verify_all checks what it
    returns.
    """
    if not isinstance(l, int):
        raise ValueError("l is not an integer")
    if l > MAX_GROUP_PRIME:
        raise ValueError(f"l must be at most {MAX_GROUP_PRIME}")
    if not is_probable_prime(l):
        raise ValueError(f"l = {l} is not a prime")
    if not isinstance(name, str):
        raise ValueError(f"the label {_echo(name)} is not a string")
    prefix, dot, rest = name.partition(".")
    if dot and prefix.isdecimal():
        if int(prefix) != l:
            raise ValueError(f"label {name} is at l = {int(prefix)}, "
                             f"not {l}")
        name = rest
    full = f"{l}.{name}"
    if name.startswith("CM.") and l == 2:
        raise ValueError(f"{full} needs an odd l")
    if name in _NAMED:
        gens = _gens_of(_NAMED[name](l))
    elif name == "Ns-index3":
        if (l - 1) % 3 != 0:
            raise ValueError(f"{full} needs l = 1 mod 3")
        g = primitive_root(l)
        gens = ((pow(g, 3, l), 0, 0, 1), (g, 0, 0, g), (0, 1, 1, 0))
    elif name == "Nns-index3":
        if (l + 1) % 3 != 0:
            raise ValueError(f"{full} needs l = 2 mod 3")
        c = cartan_nonsplit(l).generators[0]
        gens = ((c * c * c).tuple(), (1, 0, 0, -1))
    elif name in _CM_GROUPS:
        power, unit = _CM_GROUPS[name]
        s = pow(primitive_root(l), power, l)
        gens = ((s, 0, 0, s), unit, (1, 1, 0, 1))
    else:
        e = _entry(l, name) if l in _BUILDERS else None
        if e is None:
            raise ValueError(f"unknown label {full}")
        gens = dict(e.subs).get(full, e.gens)
    return Subgroup(l, [Mat2(*m, l) for m in gens], label=full)


# --- self checks -------------------------------------------------------------

def _family_j(A: Poly, B: Poly) -> Cover:
    """j-invariant of y^2 = x^3 + A(t) x + B(t) as a function of t."""
    a3 = A ** 3
    return Cover(6912 * a3, 4 * a3 + 27 * B ** 2)


# composition identities between the covers: (l, outer, inner map, target).
# Together with the family and anchor checks below, every cover is pinned
# by at least one identity that an independent transcription would break.
def _composition_checks():
    return (
        (2, "G2", Cover(T ** 2, T + 1), "G1"),
        (2, "G3", Cover(-16 * T ** 3 - 24 * T ** 2 + 24 * T + 16,
                          T ** 2 + T), "G1"),
        (3, "G2", Cover(T ** 2 + 3 * T + 3, T), "G1"),
        (3, "G3", Cover(T * (T ** 2 + 3 * T + 3)), "G1"),
        (3, "G4", Cover(3 * (T + 1) * (T - 3), T), "G2"),
        (5, "G2", Cover(T ** 2 - T - 1, T), "G1"),
        (5, "G4", Cover(T ** 2 + 5, T), "G2"),
        (5, "G5", Cover(T ** 5), "G1"),
        (5, "G7", Cover(-(T ** 3 + 10 * T ** 2 + 25 * T + 25),
                          2 * T ** 3 + 10 * T ** 2 + 25 * T + 25), "G3"),
        (5, "G8", Cover(T ** 2 - 11 * T - 1, 25 * T), "G5"),
        (5, "G9", Cover((T + 5) * (T ** 2 - 5), T ** 2 + 5 * T + 5), "G4"),
        # t + 1/(1 - t) + (t - 1)/t - 8
        (7, "G7", Cover(T ** 3 - 8 * T ** 2 + 5 * T + 1, T ** 2 - T), "G4"),
        (13, "G6", Cover(13 * (T ** 2 - T), T ** 3 - 4 * T ** 2 + T + 1),
         "G1"),
        (13, "G6", Cover(T ** 3 - 4 * T ** 2 + T + 1, T ** 2 - T), "G2"),
        (13, "G6", Cover(-5 * T ** 3 + 7 * T ** 2 + 8 * T - 5,
                           T ** 3 - 4 * T ** 2 + T + 1), "G3"),
        (13, "G6", Cover(13 * T, T ** 2 - 3 * T - 1), "G4"),
        (13, "G6", Cover(T ** 2 - 3 * T - 1, T), "G5"),
    )


# fixed points with independently known j-invariants
_ANCHOR_CURVES = (
    (13, "G3", F(0), ShortCurve(-338, 2392)),
    (13, "G2", F(2), ShortCurve(-2227, -59534)),
    (13, "G5", F(1), ShortCurve(-3024, -69552)),
)

# covers of the split and nonsplit Cartan normalizers, for the CM cross
# checks: a CM curve lands split or inert according to (-D | l)
_NORMALIZER_COVERS = {3: ("G2", "G4"), 5: ("G4", "G7"), 7: ("G2", "G6")}


def _same_map(f: tuple, g: tuple) -> bool:
    """Whether two (num, den) pairs define the same rational function."""
    (a, b), (c, d) = f, g
    return a * d == c * b


def fibre(relation: tuple, j: Fraction) -> tuple:
    """The fibre of a relation (see TableEntry.relation) over j, as
    (f, at_infinity): f = sum c_i j^i, a Poly in t evaluated by Horner,
    whose rational roots are the affine points over j, and whether
    t = infinity lies over j, which it does exactly where f drops below
    the largest degree of the c_i. A zero f (j one of the j-values) has
    every t over it, infinity included. The one fibre rule: the walk's
    exact test (classifier._cover_parameters) and _fiber_contains both
    read it."""
    f = relation[-1]
    for c in relation[-2::-1]:
        f = f * j + c
    return f, f.degree < max(c.degree for c in relation)


def _fiber_contains(relation: tuple, j: Fraction) -> bool:
    """Whether j lies under a rational point of a relation: t = infinity
    lies over it, or its fibre has a rational root."""
    f, at_infinity = fibre(relation, j)
    return at_infinity or bool(rational_roots(f))


def verify_all():
    """Re-derive the consistency of all table data.

    Returns a list of (check name, passed, detail) triples covering (a)
    cover composition identities, (b) covers in lowest terms, family
    j-invariants and fixed curves, (c) anchor curves, (d) group orders
    and applicability and twist-pair structure, (e) CM model
    j-invariants, (f) normalizer fiber membership of the CM j-invariants,
    and (g) the discriminant and evaluation identities of the nonsplit-11
    criterion. The groups in (d) are the ones group_from_label returns
    for each label, so these checks cover what `modimage group` prints.
    """
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    # (a) compositions
    for l, outer, inner, target in _composition_checks():
        got = compose(_entry(l, outer).cover, inner)
        check(f"compose:{l}.{outer}->{l}.{target}",
              _same_map(got, _entry(l, target).cover))

    # (b) covers are in lowest terms, so their fibers are the roots of
    # num - j*den; families and fixed curves match their covers / j-values
    for l in supported_primes():
        for e in prime_table(l).entries:
            if e.cover is not None:
                check(f"coprime:{e.label}",
                      poly_gcd(e.cover.num, e.cover.den).degree == 0)
            if e.family is not None:
                check(f"family:{e.label}",
                      _same_map(_family_j(*e.family), e.cover))
            if e.curve is not None:
                check(f"fixed-curve:{e.label}",
                      e.jvals is not None
                      and e.curve.j_invariant() in e.jvals)

    # (c) anchor values
    anchors = [(2, "G1", F(2), F(21952, 9))] + [
        (l, name, t0, curve.j_invariant())
        for l, name, t0, curve in _ANCHOR_CURVES]
    for l, name, t0, j0 in anchors:
        num, den = _entry(l, name).cover
        check(f"anchor:{l}.{name}@{t0}",
              num.evaluate(t0) == j0 * den.evaluate(t0))

    # (d) group structure of every entry and twist pair, on the groups
    # group_from_label builds for their labels
    for l in supported_primes():
        for e in prime_table(l).entries:
            G = group_from_label(l, e.label)
            ok = G.order * e.index == gl2_order(l) and is_applicable(G)
            detail = "" if ok else f"order {G.order}"
            check(f"group:{e.label}", ok, detail)
            for sub_label in dict(e.subs):  # 3.H1.1, 7.H1.1 are listed twice
                check(f"twist-pair:{sub_label}",
                      is_twist_pair(G, group_from_label(l, sub_label)))

    # (e) CM models
    for e in CM_TABLE:
        check(f"cm-model:{e.j}", e.model.j_invariant() == e.j)

    # (f) CM fiber membership in the normalizer covers
    for l, (split_name, inert_name) in _NORMALIZER_COVERS.items():
        for e in CM_TABLE:
            if e.field_disc == l:
                continue
            side = legendre(-e.field_disc, l)
            entry = _entry(l, split_name if side == 1 else inert_name)
            check(f"cm-fiber:{l}:{e.j}", _fiber_contains(entry.relation, e.j))

    # (g) the nonsplit-11 criterion: A, the discriminant identity, the
    # points over j, the point at infinity and the inert CM j-invariants
    crit = nonsplit11()
    check("nonsplit11:A-power",
          crit.A == (T ** 5 - 9 * T ** 4 + 17 * T ** 3 + 20 * T ** 2
                     - 73 * T + 43) ** 11)
    delta = crit.B * crit.B - 4 * crit.A * crit.C
    quotient = exact_divide(delta, T ** 3 - T ** 2 - 7 * T + F(41, 4))
    check("nonsplit11:discriminant",
          quotient is not None and poly_sqrt(quotient) is not None)
    P = PointQ(crit.curve, *crit.generator)
    for k in range(1, 7):
        Q = scalar_mul(P, k)
        jq = nonsplit11_j(Q.x, Q.y)
        if jq is INFINITY:
            continue  # the point sits over a cusp
        val = (crit.A.evaluate(Q.x) * jq * jq + crit.B.evaluate(Q.x) * jq
               + crit.C.evaluate(Q.x))
        check(f"nonsplit11:point{k}", val == 0)
    lead = (crit.A.leading(), crit.B.leading(), crit.C.leading())
    check("nonsplit11:infinity",
          lead[1] ** 2 == 4 * lead[0] * lead[2]
          and -lead[1] == 2 * lead[0] * 54000)
    for e in CM_TABLE:
        if e.field_disc == 11:
            continue
        if legendre(-e.field_disc, 11) == -1:
            check(f"cm-fiber:11:{e.j}", nonsplit11_contains(e.j))

    return results


def emit_text() -> str:
    """Dump all table constants in the plain polynomial text format."""
    out = []
    for l in supported_primes():
        table = prime_table(l)
        out.append(f"prime {l} (twist discriminant {table.twist})")
        for e in table.entries:
            out.append(f"  {e.label} index {e.index} gens {e.gens}")
            if e.cover is not None:
                lead = e.cover.den.leading()  # printed with a monic den
                out.append(f"    cover num: {format_poly(e.cover.num / lead)}")
                out.append(f"    cover den: {format_poly(e.cover.den / lead)}")
            if e.jvals is not None:
                vals = ", ".join(str(v) for v in sorted(e.jvals))
                out.append(f"    j values: {vals}")
            if e.family is not None:
                out.append(f"    family A: {format_poly(e.family[0])}")
                out.append(f"    family B: {format_poly(e.family[1])}")
            if e.curve is not None:
                out.append(f"    curve: {e.curve!r}")
            if e.bad_t:
                vals = ", ".join(str(v) for v in sorted(e.bad_t))
                out.append(f"    excluded t: {vals}")
            for sub_label, sub_gens in e.subs:
                out.append(f"    sub {sub_label} gens {sub_gens}")
            if e.criterion:
                out.append(f"    criterion: {e.criterion}")
    out.append("complex multiplication table")
    for e in CM_TABLE:
        out.append(f"  j {e.j} D {e.field_disc} f {e.order_index} "
                   f"model {e.model!r}")
    crit = nonsplit11()
    out.append("nonsplit Cartan normalizer criterion at 11")
    out.append(f"  curve: {crit.curve!r} generator {crit.generator}")
    out.append(f"  A: {format_poly(crit.A, 'x')}")
    out.append(f"  B: {format_poly(crit.B, 'x')}")
    out.append(f"  C: {format_poly(crit.C, 'x')}")
    return "\n".join(out)
