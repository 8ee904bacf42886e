"""Command line interface.

Subcommands:

* ``classify``: report the mod-l image type of a curve at each requested
  prime, as text or as exact JSON (all rationals serialized "p/q").
* ``verify-tables``: re-derive every identity the embedded tables assert
  and exit 2 if any fails; ``--emit`` dumps the raw constants instead.
* ``group``: print order, index and generators of a labeled subgroup.
* ``ap``: print a trace of Frobenius at a prime of good reduction.
* ``twist-set``: print the twist discriminants a congruence scan up to a
  given bound cannot eliminate.

Exit codes: 0 on success, 1 on bad input, 2 on verification failure.
Subcommands raise; ``run`` is the one place that turns an ``InputError``
or a library ``ValueError`` into a single ``modimage: error:`` line on
stderr and exit 1. Every library failure is a ``ValueError`` worded
where it is raised, so ``run`` prints it as it stands.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .classifier import (
    DEFAULT_FROBENIUS_BOUND,
    MAX_SCAN_BOUND,
    classify,
    classify_from_j,
    twist_set,
)
from .ec import ShortCurve, WeierstrassCurve, ap, integral_model
from .exactmath import (MAX_LITERAL_DIGITS, MAX_PRIME, LiteralTooLong,
                        _echo, is_probable_prime, to_fraction)
from .polyq import INFINITY
from .tables import MAX_GROUP_PRIME, emit_text, group_from_label, verify_all


# limits on the size arguments: primes_up_to(N) allocates O(N) memory,
# ap(M, p) and factor(n, N) take O(p) and O(N) steps, a primality test
# of a prime with thousands of digits takes seconds, and a literal may
# have as many digits as int() reads from a string (the library's
# MAX_LITERAL_DIGITS, which to_fraction checks on a rational and
# _int_list here on an integer). Each limit is checked before any test
# of primality; the prime limit is the library's own MAX_PRIME, and the
# group --prime limit its MAX_GROUP_PRIME, and the --r and
# --frobenius-bound limit its MAX_SCAN_BOUND, each checked here to name the
# flag (ap refuses a larger p itself, classify a larger l,
# group_from_label a larger group prime and twist_set a larger r). The
# height limit on j and on twist-set's discriminant is the library's own
# MAX_HEIGHT_DIGITS, checked by the library alone.
_MAX_FACTOR_BOUND = 10 ** 7


class InputError(Exception):
    """Bad command line input found by the CLI itself; exit code 1."""


def _bounded(flag: str, n: int, limit: int) -> int:
    if not 0 <= n <= limit:
        raise InputError(f"{flag} must be between 0 and {limit}")
    return n


def _at_most(flag: str, n: int, limit: int) -> int:
    if n > limit:
        raise InputError(f"{flag} must be at most {limit}")
    return n


def _rational(text: str) -> Fraction:
    try:
        return to_fraction(text)
    except LiteralTooLong as exc:
        raise InputError(str(exc))
    except ValueError:
        raise InputError(f"malformed rational {_echo(text.strip())}")


def _rational_list(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise InputError(f"{what} needs {n} comma-separated rationals, "
                         f"got {len(parts)}")
    return [_rational(p) for p in parts]


def _int_list(text: str):
    out = []
    for part in map(str.strip, text.split(",")):
        if sum(map(str.isdigit, part)) > MAX_LITERAL_DIGITS:
            raise InputError(f"an integer must be at most "
                             f"{MAX_LITERAL_DIGITS} digits long")
        try:
            out.append(int(part))
        except ValueError:
            raise InputError(f"malformed integer {_echo(part)}")
    return out


def _parse_model(ns):
    """Build the curve model from --curve or --short, or None."""
    if ns.curve is not None and ns.short is not None:
        raise InputError("give only one of --curve and --short")
    if ns.curve is not None:
        return WeierstrassCurve(*_rational_list(ns.curve, 5, "--curve"))
    if ns.short is not None:
        return ShortCurve(*_rational_list(ns.short, 2, "--short")).to_long()
    return None


def _require_model(ns):
    E = _parse_model(ns)
    if E is None:
        raise InputError("a curve model is required (--curve or --short)")
    return E


def _fmt_q(x) -> str:
    return "infinity" if x is INFINITY else str(x)


def _json_list(items, indent: int) -> str:
    """The JSON list of items, each already written and indented, with
    its closing bracket at indent; [] when there are none."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def _json_q(x) -> str:
    return json.dumps(_fmt_q(x))


def _certificate_json(c) -> str:
    return f"""        {{
          "kind": {json.dumps(c.kind)},
          "p": {c.p},
          "trace": {c.trace},
          "det": {c.det}
        }}"""


def _image_json(r) -> str:
    witness = "null" if r.witness_t is None else _json_q(r.witness_t)
    certificates = _json_list([_certificate_json(c)
                               for c in r.certificates], 6)
    possible = _json_list(["        " + json.dumps(label)
                           for label in r.possible], 6)
    return f"""    {{
      "prime": {r.prime},
      "label": {json.dumps(r.label)},
      "status": {json.dumps(r.status)},
      "witness_t": {witness},
      "certificates": {certificates},
      "possible": {possible},
      "note": {json.dumps(r.note)}
    }}"""


def report_json(report) -> str:
    """The JSON text of a classification report, as json.dumps with
    indent=2 writes it; "curve" is report.curve, null for a report from
    j alone.

    All rationals appear as strings so nothing is rounded; the layout is
    stable so that parse + re-dump reproduces the bytes exactly. The text
    is filled into fixed templates, one per level of the document, and
    not dumped from a dict; every string goes through json.dumps."""
    curve = "null" if report.curve is None else _json_list(
        ["    " + _json_q(a) for a in report.curve.a_invariants()], 2)
    cm = "null" if report.cm is None else f"""{{
    "j": {_json_q(report.cm.j)},
    "field_disc": {report.cm.field_disc},
    "order_index": {report.cm.order_index}
  }}"""
    images = _json_list([_image_json(r) for r in report.results], 2)
    exceptional = _json_list(["    " + str(p)
                              for p in report.exceptional_primes], 2)
    return f"""{{
  "curve": {curve},
  "j": {_json_q(report.j)},
  "cm": {cm},
  "images": {images},
  "exceptional_primes": {exceptional}
}}"""


def _print_text_report(report):
    if report.curve is not None:
        print("curve: " + ",".join(map(_fmt_q, report.curve.a_invariants())))
    print("j = " + _fmt_q(report.j))
    if report.cm is None:
        print("cm: no")
    else:
        print(f"cm: yes (field discriminant -{report.cm.field_disc}, "
              f"order index {report.cm.order_index})")
    for r in report.results:
        line = f"l = {r.prime}: {r.label}  [{r.status}]"
        if r.witness_t is not None:
            line += f"  t = {_fmt_q(r.witness_t)}"
        if r.certificates:
            ruled = " ".join(f"{c.kind}@{c.p}" for c in r.certificates)
            line += f"  ruled out: {ruled}"
        if r.possible:
            line += "  possible: " + ",".join(r.possible)
        if r.note:
            line += f"  ({r.note})"
        print(line)
    exc = report.exceptional_primes
    print("exceptional primes: " +
          (", ".join(str(p) for p in exc) if exc else "none"))


def cmd_classify(ns) -> int:
    model = _parse_model(ns)
    if model is not None and ns.j is not None:
        raise InputError("give either a curve model or --j, not both")
    primes = None if ns.primes is None else _int_list(ns.primes)
    if primes is not None:
        _at_most("--primes entries", max(primes), MAX_PRIME)
    bound = _bounded("--frobenius-bound", ns.frobenius_bound,
                     MAX_SCAN_BOUND)
    if model is not None:
        report = classify(model, primes, frobenius_bound=bound)
    elif ns.j is not None:
        report = classify_from_j(_rational(ns.j), primes,
                                 frobenius_bound=bound)
    else:
        raise InputError("give a curve (--curve or --short) or --j")
    if ns.format == "json":
        print(report_json(report))
    else:
        _print_text_report(report)
    return 0


def cmd_verify_tables(ns) -> int:
    if ns.emit:
        print(emit_text(), end="")
        return 0
    results = verify_all()
    failures = [(name, detail) for name, ok, detail in results if not ok]
    for name, detail in failures:
        msg = f"FAIL {name}"
        if detail:
            msg += f": {detail}"
        print(msg)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 2 if failures else 0


def cmd_group(ns) -> int:
    l = _at_most("--prime", ns.prime, MAX_GROUP_PRIME)
    g = group_from_label(l, ns.label)
    inv = g.invariants()
    print(f"label: {g.label}")
    print(f"order: {inv.order}")
    print(f"index: {inv.index}")
    print(f"det surjective: {'yes' if inv.det_is_full else 'no'}")
    print(f"contains -I: {'yes' if inv.has_minus_i else 'no'}")
    print("generators: " + " ".join(str(m) for m in g.generators))
    return 0


def cmd_ap(ns) -> int:
    E = _require_model(ns)
    p = _at_most("--p", ns.p, MAX_PRIME)
    if not is_probable_prime(p):
        raise InputError(f"p = {p} is not a prime")
    M, _ = integral_model(E)
    print(ap(M, p))
    return 0


def cmd_twist_set(ns) -> int:
    E = _require_model(ns)
    l = _at_most("--prime", ns.prime, MAX_PRIME)
    r = _bounded("--r", ns.r, MAX_SCAN_BOUND)
    factor_bound = _bounded("--factor-bound", ns.factor_bound,
                            _MAX_FACTOR_BOUND)
    ds = twist_set(E, l, r, factor_bound=factor_bound)
    print(" ".join(str(d) for d in sorted(ds)))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    verification failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_model_args(p, with_j=False):
    p.add_argument("--curve", metavar="a1,a2,a3,a4,a6",
                   help="long Weierstrass coefficients")
    p.add_argument("--short", metavar="A,B",
                   help="short Weierstrass coefficients")
    if with_j:
        p.add_argument("--j", metavar="J",
                       help="classify by j-invariant alone")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="modimage",
                  description="mod-l Galois image classification for "
                              "elliptic curves over Q")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("classify", help="classify the mod-l images")
    _add_model_args(p, with_j=True)
    p.add_argument("--primes", metavar="L1,L2,...",
                   help="primes to classify at (default 2,3,5,7,11,13,17,37)")
    p.add_argument("--frobenius-bound", type=int,
                   default=DEFAULT_FROBENIUS_BOUND, metavar="N",
                   help="scan Frobenius traces at good p <= N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify-tables",
                       help="re-check every identity in the tables")
    p.add_argument("--emit", action="store_true",
                   help="dump the table constants instead of verifying")
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("group", help="print a labeled subgroup")
    p.add_argument("--prime", type=int, required=True, metavar="L")
    p.add_argument("--label", required=True, metavar="NAME")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("ap", help="print a trace of Frobenius")
    _add_model_args(p)
    p.add_argument("--p", type=int, required=True, metavar="P",
                   help="a prime of good reduction")
    p.set_defaults(func=cmd_ap)

    p = sub.add_parser("twist-set", help="print surviving twist candidates")
    _add_model_args(p)
    p.add_argument("--prime", type=int, required=True, metavar="L")
    p.add_argument("--r", type=int, required=True, metavar="R",
                   help="check congruences at good p <= R, p = 1 mod L")
    p.add_argument("--factor-bound", type=int, default=10**6, metavar="N",
                   help="trial division bound for the discriminant")
    p.set_defaults(func=cmd_twist_set)
    return top


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of run(), built on its first call and not at import, so
    that importing the module stays cheap; parse_args keeps no state in
    it."""
    return build_parser()


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return ns.func(ns)
    except (InputError, ValueError) as exc:
        print(f"modimage: error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
