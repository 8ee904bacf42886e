"""Span recorder for the modimage benchmark's traced runs.

`Recorder.install()` wraps, from outside, every public function of the
seven modules and re-binds the wrapper in every module namespace that
holds the function: `rational_roots`, for one, is bound in `polyq`,
`classifier` and `tables`, and a namespace left out would silently miss
its calls. Functions in a module find each other through the module
globals, so calls inside a module are seen too. Methods are not wrapped.
`uninstall()` puts every original back.

Spans stay in memory as (id, parent id, name, start, end, outermost,
value) tuples and are written to a file when the run ends. `outermost`
is false for a call made while another call of the same function is
open, so inclusive times do not count nested calls twice; `value` is a
per-function observation of the result (see OBSERVE).

    python3 perfbench/spans.py OUT.jsonl verify-tables

runs the `modimage` command line with tracing on and writes its spans to
OUT.jsonl; it exits with the command's exit code.
"""

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("exactmath", "polyq", "gl2", "ec", "tables", "classifier", "cli")

# span name suffixes taken from an argument: the prime l
TAGS = {
    "classifier.classify_prime_noncm":
        lambda args, kwargs: f".l{args[2] if len(args) > 2 else kwargs['l']}",
    "tables.prime_table":
        lambda args, kwargs: f".l{args[0] if args else kwargs['l']}",
}

# observations of a result, summed per function
OBSERVE = {
    "polyq.poly_gcd": lambda g: int(g.degree >= 1),
    "polyq.rational_roots": lambda roots: int(bool(roots)),
    "gl2.span": len,
}

# parent spans that tell the two uses of rational_roots apart
_COVER_WALK = ("classifier.classify_prime_noncm",)
_NONSPLIT11 = ("classifier.nonsplit11_test", "tables.nonsplit11_contains")

NONCM_PRIMES = (2, 3, 5, 7, 11, 13, 17, 37)
TABLE_PRIMES = (2, 3, 5, 7, 11, 13)

# (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER = (
    ("polyq.poly_gcd.calls", "count", "lower"),
    ("polyq.poly_gcd.s", "s", "lower"),
    ("polyq.poly_gcd.nontrivial_ratio", "ratio", "higher"),
    ("polyq.rational_roots.calls", "count", "lower"),
    ("polyq.rational_roots.s", "s", "lower"),
    ("polyq.rational_roots.hit_ratio", "ratio", "higher"),
    ("polyq.rational_roots.cover_walk.s", "s", "lower"),
    ("polyq.rational_roots.cover_walk.self_s", "s", "lower"),
    ("polyq.rational_roots.nonsplit11.s", "s", "lower"),
    ("polyq.rational_roots.nonsplit11.self_s", "s", "lower"),
    ("polyq.rational_roots.other.self_s", "s", "lower"),
    ("classifier.nonsplit11_test.calls", "count", "lower"),
    ("classifier.nonsplit11_test.s", "s", "lower"),
) + tuple(
    (f"classifier.classify_prime_noncm.l{l}.self_s", "s", "lower")
    for l in NONCM_PRIMES
) + (
    ("classifier.frobenius_noncontainment.calls", "count", "lower"),
    ("classifier.frobenius_noncontainment.s", "s", "lower"),
    ("ec.ap.calls", "count", "lower"),
    ("ec.ap.s", "s", "lower"),
    ("ec.integral_model.calls", "count", "lower"),
    ("exactmath.primes_up_to.calls", "count", "lower"),
    ("exactmath.primes_up_to.s", "s", "lower"),
    ("ec.twist_test.calls", "count", "lower"),
    ("ec.twist_test.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.report_to_dict.s", "s", "lower"),
    ("polyq.compose.calls", "count", "lower"),
    ("polyq.compose.s", "s", "lower"),
    ("gl2.span.calls", "count", "lower"),
    ("gl2.span.s", "s", "lower"),
    ("gl2.span.elements", "count", "lower"),
    ("tables.verify_all.s", "s", "lower"),
    ("tables.nonsplit11_contains.s", "s", "lower"),
    ("tables.prime_table.build_s", "s", "lower"),
    ("tables.nonsplit11.build_s", "s", "lower"),
    ("classifier.classify_cm.calls", "count", "lower"),
    ("exactmath.is_probable_prime.calls", "count", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.ops_per_s", "1/s", "higher"),
)


class Recorder:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = defaultdict(int)
        self._ids = itertools.count(1)
        self._patched = []

    def _wrap(self, name, fn):
        tag = TAGS.get(name)
        observe = OBSERVE.get(name)
        spans, stack, open_calls, ids = (self.spans, self._stack, self._open,
                                         self._ids)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name + tag(args, kwargs) if tag else name
            sid = next(ids)
            parent = stack[-1] if stack else 0
            outermost = open_calls[name] == 0
            open_calls[name] += 1
            stack.append(sid)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    value = observe(result)
                return result
            finally:
                end = clock()
                stack.pop()
                open_calls[name] -= 1
                spans.append((sid, parent, full, start, end, outermost,
                              value))

        return wrapper

    def install(self):
        """Wrap every public function of the seven modules wherever it is
        bound. Returns self."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        modules = [importlib.import_module(f"modimage.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self):
        """Put back every function install() replaced."""
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    @property
    def patched(self):
        """(module name, attribute) pairs currently wrapped."""
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]

    def write(self, path, header):
        """Write a header line and then one JSON list per span."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def read_spans(path):
    """The spans of a file written by Recorder.write."""
    with open(path) as f:
        f.readline()  # the header
        return [tuple(json.loads(line)) for line in f]


def _base(name):
    for base in TAGS:
        if name.startswith(base + "."):
            return base
    return name


def _child_seconds(spans):
    """{span id: summed duration of its direct children}."""
    children = defaultdict(float)
    for _, parent, _, start, end, _, _ in spans:
        children[parent] += end - start
    return children


def summarize(spans):
    """Per span name: calls, inclusive seconds of outermost calls, self
    seconds (duration minus direct children), summed values, and the
    duration of the first call."""
    children = _child_seconds(spans)
    stats = {}
    for sid, _, name, start, end, outermost, value in spans:
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "value": 0, "first_s": end - start})
        st["calls"] += 1
        if outermost:
            st["s"] += end - start
        st["self_s"] += end - start - children[sid]
        if value is not None:
            st["value"] += value
    return stats


def _rational_roots_by_parent(spans):
    """Inclusive and self seconds of rational_roots per caller group."""
    names = {span[0]: _base(span[2]) for span in spans}
    children = _child_seconds(spans)
    out = defaultdict(float)
    for sid, parent, name, start, end, _, _ in spans:
        if name != "polyq.rational_roots":
            continue
        caller = names.get(parent)
        group = ("cover_walk" if caller in _COVER_WALK else
                 "nonsplit11" if caller in _NONSPLIT11 else "other")
        out[f"{group}.s"] += end - start
        out[f"{group}.self_s"] += end - start - children[sid]
    return out


def layer_metrics(spans, ops, wall):
    """The PER_LAYER metrics, as {name: value}, from the spans of one
    traced run that completed `ops` operations in `wall` seconds."""
    stats = summarize(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "first_s": 0.0}

    def get(name):
        return stats.get(name, zero)

    def ratio(name):
        st = get(name)
        return st["value"] / st["calls"] if st["calls"] else 0.0

    split = _rational_roots_by_parent(spans)
    values = {
        "polyq.poly_gcd.nontrivial_ratio": ratio("polyq.poly_gcd"),
        "polyq.rational_roots.hit_ratio": ratio("polyq.rational_roots"),
        "gl2.span.elements": get("gl2.span")["value"],
        "tables.prime_table.build_s": sum(
            get(f"tables.prime_table.l{l}")["first_s"] for l in TABLE_PRIMES),
        "tables.nonsplit11.build_s": get("tables.nonsplit11")["first_s"],
        "trace.ops": ops,
        "trace.ops_per_s": ops / wall if wall > 0 else 0.0,
    }
    for key in ("cover_walk.s", "cover_walk.self_s", "nonsplit11.s",
                "nonsplit11.self_s", "other.self_s"):
        values[f"polyq.rational_roots.{key}"] = split[key]
    for name, _, _ in PER_LAYER:
        if name not in values:
            base, field = name.rsplit(".", 1)
            values[name] = get(base)[field]
    return values


def main(argv):
    """Run the command line traced; see the module docstring."""
    out, args = argv[0], argv[1:]
    import modimage.cli
    recorder = Recorder().install()
    try:
        code = modimage.cli.run(args)
    finally:
        recorder.uninstall()
        recorder.write(out, {"argv": args})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
