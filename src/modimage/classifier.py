"""Decision procedures for mod-l Galois image classification.

Given an elliptic curve over Q and a prime l, determine the image of the
mod-l representation up to conjugacy in GL_2(F_l):

* non-CM curves at every prime with a table (2 to 13, 17 and 37) are
  classified by walking the table in order of decreasing index; each
  entry is one relation sum c_i(t) j^i = 0 (a cover, a set of j-values,
  or at l = 11 the nonsplit normalizer's criterion), and the first with
  a rational point over j is refined to a twist sublabel with the curve
  parametrized by the matched value; j is reduced once per call at the
  primes up to 61, and one sieve per l, a bit per entry, keeps only the
  entries whose image on P^1(F_p) holds j at every one of them, which
  rules out every miss but those of Gassmann twins before the one exact
  test runs (see SIEVE_PRIMES);
* when the walk misses at l < 13 the image is full; at l >= 13 the
  remaining open containments (nonsplit or split normalizer images with
  no known rational points) give verdicts conditional on the
  surjectivity conjecture, upgraded to proven when Frobenius traces
  certify non-containment in every open possibility; the trace scans of
  one classify call read one Frobenius pass, which reads the integral
  model's invariants that the curve keeps and counts each a_p once with
  the counting kernel of ec.ap, and each scan reads the kinds a pair
  (a_p, p) mod l excludes from a cached table;
* CM curves are classified by the discriminant table rules, including
  the mod-9 refinements for j = 0 and the twist tests at l = D; at l = 2
  away from j in {0, 1728} the l = 2 table decides, since a quadratic
  twist does not move the mod-2 image.

The walk and the CM rules yield labels; each verdict path builds its
ImageResult once.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .exactmath import (MAX_PRIME, _echo, factor, is_cube,
                        is_probable_prime, is_square, legendre,
                        primes_up_to, to_fraction)
from .ec import (DEFAULT_FROBENIUS_BOUND, ShortCurve, WeierstrassCurve,
                 _as_long, _require_curve, _trace, ap, integral_model,
                 short_model, twist_test)
from .gl2 import (fingerprint_in_borel, fingerprint_in_nonsplit_normalizer,
                  fingerprint_in_octahedral, fingerprint_in_split_normalizer)
from .polyq import INFINITY, fibre_image_mod, rational_roots
from .tables import CMEntry, cm_entry, fibre, prime_table, supported_primes

DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 37)
# the most digits the numerator and denominator of j, and the discriminant
# of twist_set's integral model, may have: the walk slows down sharply with
# the height of j, and twist_set factors the discriminant
MAX_HEIGHT_DIGITS = 200
# the largest bound of twist_set's trace scan, and of the command line's
# --r and --frobenius-bound: twist_set(E, 5, 10**6) ran for over 20 s
MAX_SCAN_BOUND = 10 ** 5
# the primes of the walk sieve, at which j is compared with the image of
# each entry's relation on P^1(F_p). Some images rule little out at small
# p: 3.G4's t^3 = j is onto at every p != 1 mod 3, where cubing permutes
# F_p, and 2.G2's cubic cover hits about 2/3 of P^1(F_p) at every p. With
# the primes up to 29, 162 of the 298 exact tests over the curves
# y^2 = x^3 + ax + b with |a|, |b| <= 15 found nothing; with those up to
# 61, none of 136 did. The list stops there: what the exact test still
# rejects is then mostly a Gassmann twin (5.G5/5.G6, 7.G3/7.G4,
# 13.G4/13.G5), whose image equals its twin's at every p, so no prime
# can sieve it, while each further prime adds an image per entry to fill
SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61)

STATUS_PROVEN = "proven"
STATUS_CONDITIONAL = "conditional(BPR-conjecture)"

# the maximal subgroup types a certificate can rule out, each with its
# (trace, det) membership test, in the canonical order of certificate lists
MAXIMAL_KINDS = (
    ("Borel", fingerprint_in_borel),
    ("SplitNormalizer", fingerprint_in_split_normalizer),
    ("NonsplitNormalizer", fingerprint_in_nonsplit_normalizer),
    ("Exceptional", fingerprint_in_octahedral),
)


class Certificate(NamedTuple):
    """A Frobenius witness (a_p, p) mod l incompatible with a maximal
    subgroup type."""
    kind: str
    p: int
    trace: int
    det: int


class ImageResult(NamedTuple):
    """Mod-l verdict for one prime.

    label is "GL2" or a group label from the tables; witness_t is the
    matched cover parameter when the verdict came from a cover hit;
    possible lists the alternatives a conditional verdict leaves open.
    """
    prime: int
    label: str
    status: str
    witness_t: object = None
    certificates: Tuple[Certificate, ...] = ()
    possible: Tuple[str, ...] = ()
    note: str = ""


class Report(NamedTuple):
    curve: Optional[WeierstrassCurve]
    j: Fraction
    cm: Optional[CMEntry]
    results: Tuple[ImageResult, ...]

    @property
    def exceptional_primes(self) -> Tuple[int, ...]:
        return tuple(r.prime for r in self.results if r.label != "GL2")


# --- the genus-zero walk ----------------------------------------------------

def _cover_parameters(entry, j):
    """The parameters over j of the entry's relation (TableEntry.relation):
    the rational roots t of its fibre f over j (tables.fibre) off bad_t,
    sorted by (denominator, numerator), and INFINITY when t = infinity
    lies over j. A t is a cover parameter only for a cover; a hit on
    the criterion, and a zero f (j one of the j-values), reads [None].

    The exact test: the walk reaches it only for an entry that its sieve
    admits (see _WalkSieve).
    """
    f, at_infinity = fibre(entry.relation, j)
    if f.is_zero():
        return [None]
    roots = {t for t in rational_roots(f) if t not in entry.bad_t}
    out = sorted(roots, key=lambda t: (t.denominator, t.numerator))
    if at_infinity:
        out.append(INFINITY)
    return out if entry.cover is not None else [None] * bool(out)


def _twist_label(model, E, d: int, labels) -> str:
    """labels = (h1, h2, g): h1 when E is isomorphic to model, h2 when E
    is the quadratic twist of model by d, else g. Both tests read the
    short model that E keeps."""
    E = short_model(E)
    if twist_test(model, E, 1):
        return labels[0]
    if twist_test(model, E, d):
        return labels[1]
    return labels[2]


def _refine(entry, t, E, twist: int):
    """Twist discrimination inside a matched entry: decide between the
    index-two subgroups and the full group.

    The matched parameter pins a curve with the same j-invariant; the
    verdict is the first sublabel when E is isomorphic to it, the second
    when E is its twist by the table's twist discriminant, else the
    ambient label.
    """
    if not entry.subs:
        return entry.label, ""
    if E is None:
        return entry.label, "model required for twist refinement"
    if entry.curve is not None:
        model = entry.curve
    else:
        if t is INFINITY:
            return entry.label, "parameter at infinity; twist refinement skipped"
        A, B = entry.family
        model = ShortCurve(A.evaluate(t), B.evaluate(t))
    labels = (entry.subs[0][0], entry.subs[1][0], entry.label)
    return _twist_label(model, E, twist, labels), ""


@lru_cache(maxsize=4)
def _primes_to(bound: int) -> tuple:
    """The primes up to bound, sieved once per bound."""
    return tuple(primes_up_to(bound))


def _good_primes(disc: int, bound: int):
    """The primes p <= bound not dividing disc, in increasing order."""
    return (p for p in _primes_to(bound) if disc % p)


class FrobeniusPass:
    """The pairs (p, a_p) of a curve E at its good primes p <= bound, in
    increasing order: the one Frobenius pass that the trace scans of a
    classify call read in turn.

    The integral model's invariants are those the curve computed in its
    constructor and keeps (a ShortCurve is read in long form, built
    once when a scan first reads the pass), and each a_p is counted by
    the kernel of ap, ec._trace, when a scan first reaches p; a later
    scan rereads the pairs already computed. A pass lives for one call.
    """

    def __init__(self, E, bound: int):
        self._pairs = []
        self._rest = self._scan(E, bound)

    @staticmethod
    def _scan(E, bound: int):
        inv = _as_long(E)._integral
        for p in _good_primes(inv.disc, bound):
            yield p, _trace(inv.a, inv.b, p)

    def __iter__(self):
        pairs, i = self._pairs, 0
        while True:
            if i == len(pairs):
                pair = next(self._rest, None)
                if pair is None:
                    return
                pairs.append(pair)
            yield pairs[i]
            i += 1


@lru_cache(maxsize=2048)
def _excluded_kinds(t: int, d: int, l: int) -> tuple:
    """The kinds of MAXIMAL_KINDS, in that order, that no element of
    trace t and determinant d mod l lies in. The cache holds every pair
    of the tail primes 13, 17 and 37 (1827 keys) without evicting."""
    return tuple(kind for kind, contains in MAXIMAL_KINDS
                 if not contains(t, d, l))


def frobenius_noncontainment(E, l: int, bound: int) -> dict:
    """Trace certificates against the maximal subgroup types.

    For each good prime p <= bound other than l compute
    (t, d) = (a_p, p) mod l. A type is ruled out by the first pair that
    no element of its subgroup has, as decided by the type's test in
    MAXIMAL_KINDS (the exceptional type is the projectively octahedral
    normalizer). The pairs are read from a Frobenius pass of E up to
    bound, built here.

    Returns {kind: Certificate} for the types ruled out. ValueError
    unless E is a curve model (a WeierstrassCurve or a ShortCurve).
    """
    if not isinstance(E, (WeierstrassCurve, ShortCurve)):
        raise ValueError(f"certificates need a curve model, not {_echo(E)}")
    l = _checked_prime(l)
    if l < 5:
        raise ValueError("certificates are defined for l >= 5")
    return _certificates(l, FrobeniusPass(E, bound))


def _certificates(l: int, traces: FrobeniusPass) -> dict:
    """frobenius_noncontainment at a checked prime l >= 5, reading the
    pairs of the pass traces: the kinds each pair excludes are read from
    _excluded_kinds, and the scan stops once every kind is ruled out."""
    found = {}
    for p, a in traces:
        if p == l:
            continue
        t = a % l
        d = p % l
        for kind in _excluded_kinds(t, d, l):
            if kind not in found:
                found[kind] = Certificate(kind, p, t, d)
        if len(found) == len(MAXIMAL_KINDS):
            break
    return found


def _tail(l: int, candidates, traces) -> ImageResult:
    """The walk missed at the checked prime l >= 13, or l has no table:
    the image is full unless it lies in one of the candidate groups,
    which conjecturally never happens for non-CM curves.

    candidates pairs each open label with its maximal subgroup type; a
    Frobenius certificate against a type closes its labels, and the
    verdict is proven once none is left open. traces is the call's
    Frobenius pass, None exactly when there is no model: then no
    certificate can be sought, and every candidate stays open.
    """
    if traces is None:
        found, note = {}, "model required for Frobenius certificates"
    else:
        found = _certificates(l, traces)
        note = ""
    certs = tuple(found[k] for k, _ in MAXIMAL_KINDS if k in found)
    possible = tuple(lab for lab, kind in candidates if kind not in found)
    status = STATUS_CONDITIONAL if possible else STATUS_PROVEN
    return ImageResult(l, "GL2", status, certificates=certs,
                       possible=possible, note=note)


def _sieve_points(j) -> tuple:
    """j = a/b in lowest terms as the point (a : b) of P^1(F_p) at each p
    of SIEVE_PRIMES, written as fibre_image_mod writes a point: its affine
    coordinate in range(p), and infinity as p."""
    a, b = j.numerator, j.denominator
    return tuple(a * pow(b, -1, p) % p if b % p else p for p in SIEVE_PRIMES)


class _WalkSieve:
    """The entries of one table that j may lie under, read off j's
    points at the sieve primes.

    For each p of SIEVE_PRIMES, masks[p][r] has bit i set when entry i
    (in walk order) may lie over the point r of P^1(F_p): r is in the
    image of the entry's relation there (fibre_image_mod), or that image
    is None. An entry whose bit is clear at some p of j's points has no
    parameter over j. Sound for a relation sum c_i j^i of any degree k in
    j: a parameter t = u/v in lowest terms over j = a/b (t = infinity
    being (1 : 0), where the degree of the fibre drops) makes the form
    sum c_i^h(u, v) a^i b^(k-i) of fibre_image_mod vanish, and so does
    every t when the fibre is zero, at a j-value. Reduced mod p, that
    identity puts (a : b) in the image of (u : v) wherever the c_i^h do
    not all vanish at (u : v), and where they do the image is None.

    The masks fill lazily: entry i's image at p is built the first time
    a j that every earlier prime left entry i reaches p, and never again.
    A sieve holds its table's entries, and serves no other table.
    """

    __slots__ = ("entries", "masks", "filled")

    def __init__(self, entries):
        self.entries = entries
        self.masks = {p: [0] * (p + 1) for p in SIEVE_PRIMES}
        self.filled = dict.fromkeys(SIEVE_PRIMES, 0)

    def admitted(self, points) -> int:
        """The bits of the entries whose image holds j's point at every
        sieve prime; the scan stops once none is left."""
        alive = (1 << len(self.entries)) - 1
        for p, r in zip(SIEVE_PRIMES, points):
            todo = alive & ~self.filled[p]
            if todo:
                self._fill(p, todo)
            alive &= self.masks[p][r]
            if not alive:
                break
        return alive

    def _fill(self, p: int, todo: int):
        masks = self.masks[p]
        self.filled[p] |= todo
        while todo:
            bit = todo & -todo
            todo ^= bit
            entry = self.entries[bit.bit_length() - 1]
            image = fibre_image_mod(entry.relation, p)
            for r in range(p + 1) if image is None else image:
                masks[r] |= bit


# the walk sieve of each table prime, built the first time a walk needs
# it; like prime_table's cache, it holds what the table alone decides,
# so every classify call in the process reads the masks filled so far
_SIEVES = {}


def _first_hit(j, l: int, points: Optional[tuple] = None):
    """The first entry of the table for l whose relation j lies under, in
    the table's decreasing-index order, as (entry, t): t is the first of
    _cover_parameters, the smallest cover parameter over j, or None for a
    j-value or nonsplit-11 criterion hit. None when j lies under no entry.

    points is j reduced by _sieve_points, which a classify call shares
    among its walks. Only the entries that the sieve of l admits meet
    the exact test, _cover_parameters.
    """
    entries = prime_table(l).entries
    sieve = _SIEVES.get(l)
    if sieve is None or sieve.entries is not entries:
        sieve = _SIEVES[l] = _WalkSieve(entries)
    alive = sieve.admitted(_sieve_points(j) if points is None else points)
    while alive:
        bit = alive & -alive
        alive ^= bit
        entry = entries[bit.bit_length() - 1]
        params = _cover_parameters(entry, j)
        if params:
            return entry, params[0]
    return None


def classify_prime_noncm(E, j, l: int, *,
                         traces: Optional[FrobeniusPass] = None,
                         points: Optional[tuple] = None) -> ImageResult:
    """Image of the mod-l representation for a non-CM j-invariant j, an
    int or a Fraction.

    E may be None (classification from j alone); twist refinement and
    Frobenius certification then degrade with a note. The walk takes the
    first matching entry in the table's decreasing-index order; a miss
    is GL2 at l < 13 and goes to the Frobenius tail above. traces is
    the Frobenius pass of E that a classify call's scans share; a lone
    call with a model builds its own, up to DEFAULT_FROBENIUS_BOUND (pass
    traces=FrobeniusPass(E, bound) for another bound). points is
    j reduced at the sieve primes, which the call's walks share, as in
    _first_hit. l is checked here once, and the walk and the tail take
    the checked int.
    """
    l = _checked_prime(l)
    if l in supported_primes():
        hit = _first_hit(j, l, points)
        if hit is not None:
            entry, t = hit
            label, note = _refine(entry, t, E, prime_table(l).twist)
            return ImageResult(l, label, STATUS_PROVEN, witness_t=t, note=note)
    if l < 13:
        return ImageResult(l, "GL2", STATUS_PROVEN)
    # the split normalizer at 13, then the nonsplit normalizer, with its
    # index-3 subgroup when l = 2 mod 3
    candidates = (("13.Ns", "SplitNormalizer"),) if l == 13 else ()
    candidates += ((f"{l}.Nns", "NonsplitNormalizer"),)
    if l % 3 == 2:
        candidates += ((f"{l}.Nns-index3", "NonsplitNormalizer"),)
    if traces is None and E is not None:
        traces = FrobeniusPass(E, DEFAULT_FROBENIUS_BOUND)
    return _tail(l, candidates, traces)


# --- CM curves ---------------------------------------------------------------

def _classify_cm_2(E, j) -> str:
    if j == 1728:
        return "2.G1" if is_square(-short_model(E).A) else "2.G2"
    if j == 0:
        return "2.G2" if is_cube(short_model(E).B) else "GL2"
    # a quadratic twist does not move the mod-2 image, and away from
    # j in {0, 1728} every model with this j is one, so j decides it
    return classify_prime_noncm(None, j, 2).label


def _classify_cm_j0(E, l: int) -> str:
    """j = 0 at an odd prime: sextic twists split the normalizer verdict
    by l mod 9, with an index-3 drop exactly on the twist orbit of
    y^2 = x^3 + 16 l^e."""
    d = short_model(E).B
    if l == 3:
        sq = is_square(d) or is_square(-3 * d)
        if is_cube(-4 * d):
            return "3.H1.1" if sq else "3.G1"
        if is_square(d):
            return "3.H3.1"
        if is_square(-3 * d):
            return "3.H3.2"
        return "3.G3"
    m = l % 9
    if m == 1:
        return f"{l}.Ns"
    if m == 8:
        return f"{l}.Nns"
    if m in (4, 7):
        # (l - 1)/3 = e mod 3 with e in {1, 2}
        e = 1 if m == 4 else 2
        base, drop = f"{l}.Ns", f"{l}.Ns-index3"
    else:
        # (l + 1)/3 = -e mod 3 with e in {1, 2}
        e = 2 if m == 2 else 1
        base, drop = f"{l}.Nns", f"{l}.Nns-index3"
    twisted = twist_test(ShortCurve(0, 16 * l ** e), E, 1)
    return drop if twisted else base


def classify_cm(E, l: int, entry: CMEntry) -> ImageResult:
    """Image of the mod-l representation of a CM curve.

    E may be None only where the verdict depends on j alone (l = 2 away
    from j in {0, 1728}, where the l = 2 table decides, and the
    normalizer verdict at primes not dividing the CM discriminant);
    elsewhere the model decides among twists. Raises TypeError when E is
    neither None nor a curve, or entry is not a CMEntry.
    """
    if E is not None:
        _require_curve(E)
    if not isinstance(entry, CMEntry):
        raise TypeError(f"not a CM entry: {_echo(entry)}")
    l = _checked_prime(l)
    j = entry.j
    note = ""
    if l == 2:
        if j in (0, 1728) and E is None:
            raise ValueError("model required for j in {0, 1728}")
        label = _classify_cm_2(E, j)
    elif j == 0:
        if E is None:
            raise ValueError("model required for j = 0")
        label = _classify_cm_j0(E, l)
    elif l == entry.field_disc and E is None:
        label, note = f"{l}.CM.G", "model required for twist refinement"
    elif l == entry.field_disc:
        # every prime CM field discriminant is 3 mod 4, so l* = -l
        label = _twist_label(entry.model, E, -l, (
            f"{l}.CM.H1", f"{l}.CM.H2", f"{l}.CM.G"))
    elif legendre(-entry.field_disc, l) == 1:
        label = f"{l}.Ns"
    else:
        label = f"{l}.Nns"
    return ImageResult(l, label, STATUS_PROVEN, note=note)


# --- entry points ------------------------------------------------------------

def _checked_prime(l) -> int:
    """l as an int; ValueError unless it is an integer of absolute value
    at most MAX_PRIME that passes a primality test. The size is checked
    first, and no message prints an l of unchecked size, whose str() may
    itself raise. A non-finite float is no integer: int() raises on it."""
    try:
        integral = int(l) == l
    except (OverflowError, ValueError):
        integral = False
    if not integral:
        raise ValueError("l is not an integer")
    if abs(l) > MAX_PRIME:
        raise ValueError(f"l must be a prime at most {MAX_PRIME}")
    l = int(l)
    if l < 2 or not is_probable_prime(l):
        raise ValueError(f"{l} is not prime")
    return l


def _report(E, j, primes, frobenius_bound: int) -> Report:
    """The report of classify or classify_from_j (E None), after checking
    the height of j, then the primes, then that a j of 0 or 1728 comes
    with a model. The per-prime verdicts come from the public
    classify_prime_noncm and classify_cm, which check their l as well:
    a default prime is checked there alone, once per call."""
    if max(abs(j.numerator), j.denominator) >= 10 ** MAX_HEIGHT_DIGITS:
        raise ValueError(f"the numerator and denominator of j must be at "
                         f"most {MAX_HEIGHT_DIGITS} digits long")
    primes = DEFAULT_PRIMES if primes is None else \
        tuple(sorted({_checked_prime(l) for l in primes}))
    if E is None and j in (0, 1728):
        raise ValueError(f"j = {j} needs a curve model; twists with this "
                         "j-invariant have different images")
    entry = cm_entry(j)
    # one Frobenius pass, read in turn by every trace scan of this call;
    # it computes nothing until a scan reads it
    traces = None if E is None else FrobeniusPass(E, frobenius_bound)
    # j reduced once at the sieve primes, read by every walk of this call
    points = None if entry is not None else _sieve_points(j)
    results = tuple(
        classify_cm(E, l, entry) if entry is not None
        else classify_prime_noncm(E, j, l, traces=traces, points=points)
        for l in primes)
    return Report(E, j, entry, results)


def classify(E: WeierstrassCurve, primes=None,
             frobenius_bound: int = DEFAULT_FROBENIUS_BOUND) -> Report:
    """Classify the mod-l image of E at every requested prime."""
    E = _as_long(E)
    return _report(E, E.j_invariant(), primes, frobenius_bound)


def classify_from_j(j, primes=None,
                    frobenius_bound: int = DEFAULT_FROBENIUS_BOUND) -> Report:
    """Classify from the j-invariant alone.

    Twist refinement needs a model, so verdicts stay at the plus-minus
    level with an explanatory note. j = 0 and j = 1728 are rejected:
    every rule for them reads the model.
    """
    return _report(None, to_fraction(j), primes, frobenius_bound)


# --- twist sets --------------------------------------------------------------

def twist_set(E, l: int, r: int, factor_bound: int = 10 ** 6) -> set:
    """Quadratic twist discriminants of E not yet excluded by traces.

    Candidates are the signed squarefree integers supported on l and the
    primes of the integral model's discriminant. A discriminant d is
    excluded by a good prime p = 1 mod l with a_p = -2 (d|p) mod l; the
    returned set shrinks toward the true twist set as r grows, up to
    MAX_SCAN_BOUND: a larger r is refused before any sieve or point
    count. A discriminant of more than MAX_HEIGHT_DIGITS digits is
    refused before any check of l.
    """
    M, _ = integral_model(E)
    if r > MAX_SCAN_BOUND:
        raise ValueError(f"r must be at most {MAX_SCAN_BOUND}")
    disc = M.discriminant().numerator
    if abs(disc) >= 10 ** MAX_HEIGHT_DIGITS:
        raise ValueError(f"the discriminant of the integral model must be "
                         f"at most {MAX_HEIGHT_DIGITS} digits long")
    l = _checked_prime(l)
    if l == 2:
        raise ValueError("twist sets are defined for odd primes")
    support = sorted(factor(l * disc, factor_bound))
    candidates = [1]
    for q in support:
        candidates += [d * q for d in candidates]
    candidates += [-d for d in candidates]
    survivors = set()
    tests = [p for p in _good_primes(disc, r) if p % l == 1]
    traces = {p: ap(M, p) for p in tests}
    for d in candidates:
        if all((traces[p] + 2 * legendre(d, p)) % l != 0 for p in tests):
            survivors.add(d)
    return survivors
