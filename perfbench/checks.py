"""Output checks for the modimage benchmark, run after the timed region.

Every check returns a list of error strings; an operation with any error
counts as failed. Two oracles are independent of the code under test:
the traces of Frobenius are counted here from the curve equation, and the
labels expected by construction come from the corpus. Only the subgroup
behind a label is taken from the program, and its elements are
enumerated with `gl2` (through `Subgroup`, which spans the generators).
"""

import json
import math
import re
from fractions import Fraction

from corpus import DEFAULT_PRIMES, discriminant

STATUSES = ("proven", "conditional(BPR-conjecture)")

# Good primes p <= FINGERPRINT_BOUND are checked for every non-GL2 verdict.
FINGERPRINT_BOUND = 400


def _primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


_PRIMES = _primes_up_to(FINGERPRINT_BOUND)


def integral_invariants(curve):
    """[a1, ..., a6] as integers after the scaling (x, y) -> (u^2 x, u^3 y)
    with u the lcm of the denominators."""
    a = [Fraction(x) for x in curve]
    u = 1
    for x in a:
        u = math.lcm(u, x.denominator)
    return [int(x * u ** w) for x, w in zip(a, (1, 2, 3, 4, 6))]


def frobenius_traces(curve):
    """{p: a_p} for the primes p <= FINGERPRINT_BOUND of good reduction of
    the integral model, by counting points on the curve equation."""
    a1, a2, a3, a4, a6 = integral_invariants(curve)
    disc = discriminant(a1, a2, a3, a4, a6)
    out = {}
    for p in _PRIMES:
        if disc % p == 0:
            continue
        if p == 2:
            count = 1 + sum(
                (y * y + a1 * x * y + a3 * y
                 - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0
                for x in (0, 1) for y in (0, 1))
            out[p] = p + 1 - count
            continue
        # y^2 + a1 xy + a3 y = x^3 + ... has 1 + chi(rhs) points above x,
        # with rhs = (a1 x + a3)^2 + 4 (x^3 + a2 x^2 + a4 x + a6)
        chi = [-1] * p
        chi[0] = 0
        for y in range(1, p):
            chi[y * y % p] = 1
        total = 0
        for x in range(p):
            rhs = (a1 * x + a3) ** 2 + 4 * (((x + a2) * x + a4) * x + a6)
            total += chi[rhs % p]
        out[p] = -total
    return out


class Fingerprints:
    """(trace, det) pairs of the subgroup behind each verdict label,
    enumerated once per label; a_p tables cached per curve."""

    def __init__(self, group_from_label):
        self._group_from_label = group_from_label
        self._pairs = {}
        self._traces = {}

    def pairs(self, l, label):
        if label not in self._pairs:
            G = self._group_from_label(l, label)
            self._pairs[label] = frozenset((m.trace() % l, m.det() % l)
                                           for m in G.elements)
        return self._pairs[label]

    def traces(self, curve):
        key = tuple(curve)
        if key not in self._traces:
            self._traces[key] = frobenius_traces(curve)
        return self._traces[key]


def check_verdicts(op, verdicts, fingerprints):
    """Check [(l, label, status)] for one curve: the default primes in
    order, known statuses, the labels expected by construction (proven),
    and Frobenius-fingerprint soundness of every non-GL2 label: for good
    p <= FINGERPRINT_BOUND with p != l, (a_p mod l, p mod l) must be the
    (trace, det) of some element of the labelled group."""
    errors = []
    got = {l: (label, status) for l, label, status in verdicts}
    if tuple(l for l, _, _ in verdicts) != DEFAULT_PRIMES:
        errors.append(f"primes {[l for l, _, _ in verdicts]}")
    for l, want in op["expect"].items():
        if got.get(l) != (want, "proven"):
            errors.append(f"l = {l}: got {got.get(l)}, expected {want}")
    for l, label, status in verdicts:
        if status not in STATUSES:
            errors.append(f"l = {l}: unknown status {status!r}")
        if label == "GL2":
            continue
        try:
            pairs = fingerprints.pairs(l, label)
        except ValueError as exc:
            errors.append(f"l = {l}: label {label!r}: {exc}")
            continue
        for p, a in fingerprints.traces(op["curve"]).items():
            if p != l and (a % l, p % l) not in pairs:
                errors.append(f"l = {l}: {label} excludes Frobenius at "
                              f"p = {p}, (a_p, p) = ({a}, {p}) mod {l}")
                break
    return errors


def check_cli_json(op, code, text, fingerprints):
    """Check one `classify --format json` run: exit 0, output that
    re-dumps byte for byte, the input curve echoed, and the verdicts."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    errors = []
    if json.dumps(doc, indent=2) + "\n" != text:
        errors.append("JSON output does not re-dump byte for byte")
    if doc.get("curve") != op["curve"]:
        errors.append(f"curve echoed as {doc.get('curve')}")
    verdicts = [(im["prime"], im["label"], im["status"])
                for im in doc.get("images", ())]
    return errors + check_verdicts(op, verdicts, fingerprints)


_PASSED = re.compile(r"(\d+)/(\d+) checks passed")


def check_verify_tables(code, stdout):
    """`verify-tables` must exit 0 and report every check passed."""
    lines = stdout.strip().splitlines()
    m = _PASSED.fullmatch(lines[-1]) if lines else None
    errors = [] if code == 0 else [f"exit code {code}"]
    if m is None or m.group(1) != m.group(2) or int(m.group(2)) == 0:
        errors.append(f"summary line {lines[-1] if lines else ''!r}")
    errors += [line for line in lines if line.startswith("FAIL")]
    return errors
