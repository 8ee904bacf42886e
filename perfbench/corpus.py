"""Seeded inputs for the modimage benchmark (standard library only).

Each workload is an endless, deterministic stream of operations made
from the workload name and the seed alone: the same seed gives the same
stream. An operation carries only what the program under test receives
(a curve, or a command line) plus the verdicts known for it by
construction, which the checks compare against after timing.

    python3 perfbench/corpus.py --workload family --seed 1

prints the operations of the first pass of a stream as JSON lines.
"""

import argparse
import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("box", "family", "verify")
DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 37)

# Random box curves per pass of the box stream; each pass also holds the
# anchors below.
BOX_CURVES_PER_PASS = 48

# The eight curves of the acceptance suite's criterion 3, as
# (a-invariants, prime, label); each label is proven.
CRITERION3 = (
    ((1, 1, 1, -305, 7888), 11, "11.H1.1"),
    ((1, 1, 0, -3632, 82757), 11, "11.H2.1"),
    ((1, 0, 1, -190891, -36002922), 17, "17.G1"),
    ((1, 0, 1, -3041, 64278), 17, "17.G2"),
    ((1, 1, 1, -8, 6), 37, "37.G3"),
    ((1, 1, 1, -208083, -36621194), 37, "37.G4"),
    ((0, 0, 0, -42875, -3246250), 7, "7.H1.1"),
    ((0, 0, 0, -2100875, 1113463750), 7, "7.H1.1"),  # its twist by -7
)

# The thirteen CM models y^2 = x^3 + Ax + B with their labels at the
# default primes. Away from l = 2, from l dividing the CM discriminant and
# from j = 0, the label is l.Ns when l splits in the CM field and l.Nns
# when it is inert; the rest follow the mod-2 buckets, the twist tests at
# l = D and the mod-9 rule for j = 0.
CM_MODELS = (
    ((0, 16), "GL2 3.H1.1 5.Nns 7.Ns 11.Nns 13.Ns 17.Nns 37.Ns"),
    ((-15, 22), "2.G2 3.CM.H1 5.Nns 7.Ns 11.Nns 13.Ns 17.Nns 37.Ns"),
    ((-480, 4048), "GL2 3.CM.H1 5.Nns 7.Ns 11.Nns 13.Ns 17.Nns 37.Ns"),
    ((1, 0), "2.G2 3.Nns 5.Ns 7.Nns 11.Nns 13.Ns 17.Ns 37.Ns"),
    ((-11, 14), "2.G2 3.Nns 5.Ns 7.Nns 11.Nns 13.Ns 17.Ns 37.Ns"),
    ((-1715, 33614), "2.G2 3.Nns 5.Nns 7.CM.H1 11.Ns 13.Nns 17.Nns 37.Ns"),
    ((-29155, 1915998), "2.G2 3.Nns 5.Nns 7.CM.H1 11.Ns 13.Nns 17.Nns 37.Ns"),
    ((-4320, 96768), "2.G2 3.Ns 5.Nns 7.Nns 11.Ns 13.Nns 17.Ns 37.Nns"),
    ((-9504, 365904), "GL2 3.Ns 5.Ns 7.Nns 11.CM.H1 13.Nns 17.Nns 37.Ns"),
    ((-608, 5776), "GL2 3.Nns 5.Ns 7.Ns 11.Ns 13.Nns 17.Ns 37.Nns"),
    ((-13760, 621264), "GL2 3.Nns 5.Nns 7.Nns 11.Ns 13.Ns 17.Ns 37.Nns"),
    ((-117920, 15585808), "GL2 3.Nns 5.Nns 7.Nns 11.Nns 13.Nns 17.Ns 37.Ns"),
    ((-34790720, 78984748304),
     "GL2 3.Nns 5.Nns 7.Nns 11.Nns 13.Nns 17.Nns 37.Nns"),
)

CM_J = frozenset(Fraction(6912 * A ** 3, 4 * A ** 3 + 27 * B ** 2)
                 for (A, B), _ in CM_MODELS)

# Every table entry with a twist family and a cover: (entry label, l*,
# label at d = 1, label at d = l*, A(t), B(t)) for the short family
# y^2 = x^3 + A(t) x + B(t), coefficients in ascending order. A member at
# a parameter t refines to the first label and its twist by l* to the
# second, as long as its j-invariant is not CM and lies under no earlier
# entry (acceptance criterion 9).
FAMILIES = (
    ("3.G1", -3, "3.H1.1", "3.H1.1",
     (-27, -36, -18, -12, -3),
     (54, 108, 90, 0, -30, -12, -2)),
    ("3.G3", -3, "3.H3.1", "3.H3.2",
     (-27, -84, -90, -36, -3),
     (54, 252, 466, 424, 186, 28, -2)),
    ("5.G1", 5, "5.H1.1", "5.H1.2",
     (-27, 0, 0, 0, 0, 6156, 0, 0, 0, 0, -13338, 0, 0, 0, 0, -6156, 0, 0, 0, 0,
      -27),
     (54, 0, 0, 0, 0, 28188, 0, 0, 0, 0, -540270, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      -540270, 0, 0, 0, 0, -28188, 0, 0, 0, 0, 54)),
    ("5.G5", 5, "5.H5.1", "5.H5.2",
     (-27, 6156, -13338, -6156, -27),
     (54, 28188, -540270, 0, -540270, -28188, 54)),
    ("5.G6", 5, "5.H6.1", "5.H6.2",
     (-27, -324, -378, 324, -27),
     (54, 972, 4050, 0, 4050, -972, 54)),
    ("7.G3", -7, "7.H3.1", "7.H3.2",
     (-27, -108, 378, 0, -945, 1512, -1134, 324, -27),
     (54, 324, -810, -2484, 9396, -11988, 14742, -26244, 30780, -19116, 6318,
      -972, 54)),
    ("7.G4", -7, "7.H4.1", "7.H4.2",
     (-27, 6372, -44982, 90720, -91665, 46872, -1134, -6156, -27),
     (54, 27540, -790074, 4324860, -11775132, 17079660, -13674906, 7104348,
      -3833892, 2049300, -483570, -28188, 54)),
    ("7.G5", -7, "7.H5.1", "7.H5.2",
     (-2835, 2268, 18522, -31752, 6615, 31752, -44982, 20412, -2835),
     (-71442, 238140, -261954, 470988, -428652, -2365524, 5167638, -1730484,
      -4048380, 4768092, -2357586, 619164, -71442)),
    ("7.G7", -7, "7.H7.1", "7.H7.2",
     (-7626831723, -6848583588, -2700044550, -604706256, -83077785, -7016976,
      -340470, -7668, -27),
     (-256368321536922, -345312433090548, -213658063888122, -80012002058604,
      -20112155374500, -3555405957348, -449838053658, -40583961684,
      -2544224580, -104513436, -2477466, -23652, 54)),
    ("13.G4", 13, "13.H4.1", "13.H4.2",
     (-27, 6264, -14040, 41472, -437616, -234468, -3788424, -1959768,
      -13686192, -2751840, -22084218, 2751840, -13686192, 1959768, -3788424,
      234468, -437616, -41472, -14040, -6264, -27),
     (54, 27864, -594216, -330912, -15969312, -8353044, -192483864, -99922248,
      -1547749296, -989791488, -8396754030, -4763361816, -26994019608,
      -8196518952, -47789802360, 0, -47789802360, 8196518952, -26994019608,
      4763361816, -8396754030, 989791488, -1547749296, 99922248, -192483864,
      8353044, -15969312, 330912, -594216, -27864, 54)),
    ("13.G5", 13, "13.H5.1", "13.H5.2",
     (-27, -216, -1080, -3888, -9936, -20628, -30024, -35208, -26352, -10800,
      -13338, 10800, -26352, 35208, -30024, 20628, -9936, 3888, -1080, 216,
      -27),
     (54, 648, 4536, 22896, 88128, 274428, 695304, 1457352, 2528496, 3565296,
      4171986, 3683880, 2946024, 1375704, 1493640, 0, 1493640, -1375704,
      2946024, -3683880, 4171986, -3565296, 2528496, -1457352, 695304, -274428,
      88128, -22896, 4536, -648, 54)),
)

# Family parameters t = n/d with n in {5, 6, 7} and d in {1, 2, 3}: one
# height band, so that every pass of the family stream costs about the
# same. The pairs in FAMILY_EXCLUDED are left out: there j also lies under
# an earlier (smaller) entry of the same table, whose label the walk then
# rightly gives instead of the construction label.
FAMILY_PARAMETERS = tuple(Fraction(s * n, d) for n in (5, 6, 7)
                          for d in (1, 2, 3) for s in (1, -1)
                          if math.gcd(n, d) == 1)
FAMILY_EXCLUDED = {("3.G3", Fraction(7)): "3.H1.1",
                   ("7.G7", Fraction(-6)): "7.H3.2"}


def _rng(workload, seed, *more):
    return random.Random(":".join(str(x) for x in (workload, seed) + more))


def _fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def discriminant(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _horner(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _op(kind, curve, expect, **extra):
    """An operation: the curve as a1..a6 strings and {l: label} expected."""
    return dict(kind=kind, curve=[_fmt(a) for a in curve], expect=expect,
                **extra)


def _interleave(xs, ys):
    """Merge two lists, spreading each one evenly over the result."""
    keyed = [((i + 0.5) / len(xs), 0, i) for i in range(len(xs))] + \
        [((i + 0.5) / len(ys), 1, i) for i in range(len(ys))]
    return [(xs, ys)[which][i] for _, which, i in sorted(keyed)]


def anchors():
    """The fixed curves of every box pass: the criterion-3 curves and the
    CM models, spread evenly over each other."""
    return _interleave(
        [_op("criterion3", a, {l: label}) for a, l, label in CRITERION3],
        [_op("cm", (0, 0, 0, A, B), dict(zip(DEFAULT_PRIMES, labels.split())))
         for (A, B), labels in CM_MODELS])


def box_curve(rng):
    """A random nonsingular curve [a1, a2, a3, a4, a6] in reduced shape:
    a1, a3 in {0, 1}, a2 in {-1, 0, 1}, |a4|, |a6| <= 30."""
    while True:
        a = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
             rng.randint(-30, 30), rng.randint(-30, 30))
        if discriminant(*a) != 0:
            return a


def family_curve(family, t):
    """(A(t), B(t)) of a family member, or None where it is singular or
    has j in {0, 1728} or a CM j-invariant."""
    a, b = _horner(family[4], t), _horner(family[5], t)
    den = 4 * a ** 3 + 27 * b ** 2
    if den == 0 or a * b == 0 or 6912 * a ** 3 / den in CM_J:
        return None
    return a, b


def family_member(family, rng, twist):
    """The family member at a seeded parameter t, or its twist by l*."""
    label, lstar, h1, h2, _, _ = family
    while True:
        t = rng.choice(FAMILY_PARAMETERS)
        ab = None if (label, t) in FAMILY_EXCLUDED else family_curve(family, t)
        if ab is not None:
            break
    d = lstar if twist else 1
    return _op("family", (0, 0, 0, d ** 2 * ab[0], d ** 3 * ab[1]),
               {abs(lstar): h2 if twist else h1}, family=label, t=_fmt(t),
               twist=d)


def stream(workload, seed):
    """The endless operation stream of a workload."""
    if workload == "box":
        # anchors spread evenly, so that the cheap CM curves make up the
        # same share of any stretch of the stream
        fixed = anchors()
        for k in itertools.count():
            rng = _rng(workload, seed, k)
            yield from _interleave(fixed, [
                _op("box", box_curve(rng), {})
                for _ in range(BOX_CURVES_PER_PASS)])
    elif workload == "family":
        for k in itertools.count():
            rng = _rng(workload, seed, k)
            for family in FAMILIES:
                yield family_member(family, rng, twist=False)
                yield family_member(family, rng, twist=True)
    elif workload == "verify":
        while True:
            yield dict(kind="verify", argv=["verify-tables"])
    else:
        raise ValueError(f"unknown workload {workload!r}")


def pass_length(workload):
    """Operations in one pass of the stream: what a traced run covers."""
    return {"box": len(CRITERION3) + len(CM_MODELS) + BOX_CURVES_PER_PASS,
            "family": 2 * len(FAMILIES), "verify": 1}[workload]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ns = ap.parse_args()
    for op in itertools.islice(stream(ns.workload, ns.seed),
                               pass_length(ns.workload)):
        print(json.dumps(op))


if __name__ == "__main__":
    main()
