"""Value semantics of the package's records, curves and points.

Records are NamedTuples; curves and points are tuple subclasses that
validate on construction. All of them are immutable, compare and hash by
value, and keep the reprs pinned below.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from modimage.classifier import Certificate, ImageResult, classify
from modimage.ec import (PointQ, ShortCurve, WeierstrassCurve,
                         integral_model, short_model)
from modimage.gl2 import borel
from modimage.tables import (CM_TABLE, CMEntry, nonsplit11, prime_table,
                             supported_primes)

E = WeierstrassCurve(1, 1, 1, -305, 7888)
RANK1_11 = WeierstrassCurve(0, -1, 1, -7, 10)


def values():
    """(value, one of its field names) for every converted type."""
    return [
        (E, "a1"),
        (ShortCurve(-15, 22), "A"),
        (PointQ(RANK1_11, 4, 5), "x"),
        (borel(3).invariants(), "order"),
        (prime_table(2), "l"),
        (prime_table(2).entries[1], "label"),
        (CM_TABLE[1], "j"),
        (nonsplit11(), "curve"),
        (Certificate("Borel", 5, 1, 4), "p"),
        (ImageResult(11, "GL2", "proven"), "label"),
        (classify(E, [11]), "j"),
    ]


@pytest.mark.parametrize("value, field", values(),
                         ids=lambda v: type(v).__name__)
def test_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)


def test_curve_fields_stay_read_only_once_read():
    # a curve keeps its kernel and short model in its instance dict, and
    # no assignment or deletion reaches them, before or after a read
    curve = WeierstrassCurve(0, 0, 1, F(-1, 4), F(3, 8))
    M, u = integral_model(curve)
    short, j = short_model(curve), curve.j_invariant()
    for value in (curve, M):
        for field in ("a1", "_integral", "_short", "j_invariant"):
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
            with pytest.raises(AttributeError):
                delattr(value, field)
    assert short_model(curve) is short and curve.j_invariant() == j
    assert integral_model(curve) == (M, u) and M._integral.u == 1
    for copied in (copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))):
        assert copied == curve and type(copied) is WeierstrassCurve
        assert copied._integral == curve._integral
        assert short_model(copied) == short


def test_equal_values_compare_and_hash_equal():
    pairs = [
        (E, WeierstrassCurve(F(1), F(1), F(1), F(-305), F(7888))),
        (ShortCurve(-15, 22), CM_TABLE[1].model),
        (PointQ(RANK1_11, 4, 5), PointQ(RANK1_11, F(4), F(5))),
        (PointQ(RANK1_11), PointQ(WeierstrassCurve(0, -1, 1, -7, 10))),
        (CM_TABLE[1], CMEntry(F(54000), 3, 2, ShortCurve(-15, 22))),
        (classify(E, [11, 13]), classify(E, [11, 13])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert ShortCurve(-15, 22) != ShortCurve(-15, 23)
    assert PointQ(RANK1_11, 4, 5) != PointQ(RANK1_11)


def test_curves_and_points_copy_as_values():
    tables = [prime_table(l) for l in supported_primes()] + [nonsplit11()]
    for value in (E, ShortCurve(-15, 22), PointQ(RANK1_11, 4, 5),
                  PointQ(RANK1_11), *tables):
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_replace_gives_a_new_entry():
    entry = prime_table(2).entries[1]
    renamed = entry._replace(label="2.X")
    assert (renamed.label, entry.label) == ("2.X", "2.G2")
    assert renamed._replace(label="2.G2") == entry


def test_reprs_are_pinned():
    assert repr(ShortCurve(-15, 22)) == "ShortCurve(-15, 22)"
    assert repr(short_model(E)) == "ShortCurve(-395307, 373960422)"
    assert repr(E) == "WeierstrassCurve(1, 1, 1, -305, 7888)"
    assert repr(WeierstrassCurve(0, 0, 0, F(-1, 4), F(1, 8))) == \
        "WeierstrassCurve(0, 0, 0, -1/4, 1/8)"
    assert repr(PointQ(RANK1_11, F(5, 4), F(7, 8))) == "PointQ(5/4, 7/8)"
    assert repr(PointQ(RANK1_11)) == "PointQ(infinity)"
    assert repr(CM_TABLE[1]) == (
        "CMEntry(j=Fraction(54000, 1), field_disc=3, order_index=2, "
        "model=ShortCurve(-15, 22))")
    assert repr(classify(E, [11])) == (
        "Report(curve=WeierstrassCurve(1, 1, 1, -305, 7888), "
        "j=Fraction(-121, 1), cm=None, results=(ImageResult(prime=11, "
        "label='11.H1.1', status='proven', witness_t=None, certificates=(), "
        "possible=(), note=''),))")
