#!/usr/bin/env python3
"""modimage benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload box --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from anywhere; the program is imported from the `src` directory next
to `perfbench`. Workloads (see BENCHMARK.json for why each was chosen):

  box     library `classify(E)` at the default primes over the anchors
          (criterion-3 curves and the 13 CM models) and a seeded box of
          small-coefficient curves;
  family  `cli.run(["classify", "--curve=...", "--format", "json"])`,
          in process, over family members at seeded parameters and their
          twists by l*;
  verify  cold `python -m modimage.cli verify-tables` subprocesses.

With --trace 0 the run sets up the program in fresh processes to time
set-up, then sends operations one after another until --seconds have
passed, and prints the end-to-end metrics. Every timing is scaled to a
reference CPU speed by a calibration probe timed next to it (see
`probe_seconds`), and the run and its children are kept on one CPU, so
that the figures follow the program and not the shared host's speed of
the moment; the wall-clock figures are on the `detail` line. With
--trace 1 it instead runs exactly one pass of the stream (set-up
included) with every public function wrapped, writes the spans to
perfbench/out/, and prints the per-layer metrics; a fixed amount of work
makes every count repeat. Every output is checked after the timed
region; an operation that raises, exits non-zero or gives a wrong
verdict counts as failed. `--workload all` runs every workload both ways
and prints one table, with the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 5          # fresh-process set-ups per run; the median counts
SUBPROCESS_TIMEOUT = 60    # one set-up probe or verify-tables run

# The calibration probe's time at the reference speed: about its time on a
# 2-vCPU Xeon at 2.0 GHz under Python 3.11 when that host is quiet, so
# that scaled timings read close to wall times there.
REFERENCE_PROBE_S = 0.025
PROBE_ROUNDS = 1500

# (name, unit, better) of every end-to-end metric an untraced run reports
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# set-up in a fresh process: import, then the first prime_table(l) for
# every table prime and the nonsplit-11 criterion
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import modimage.cli
from modimage.tables import nonsplit11, prime_table
for l in (2, 3, 5, 7, 11, 13):
    prime_table(l)
nonsplit11()
print(time.perf_counter() - t0, modimage.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU, the CPU
    the calibration probes run on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # the probes then follow less well
        pass


def probe_seconds():
    """Wall time of a fixed loop of Fraction arithmetic on numbers of up
    to 40 digits, the kind of work the program does.

    The shared host's speed drifts by up to a factor of two over tens of
    seconds, and runs of the same code then spread past any useful bound.
    An operation timed between two probes is scaled by
    REFERENCE_PROBE_S / (their mean): its time at the reference speed. A
    change to the program moves that figure as it moves the wall time,
    since the probe runs none of the program's code."""
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, PROBE_ROUNDS):
        x = (x * x + Fraction(i, 7)) / (x + 1)
        x = Fraction(x.numerator % 10 ** 40 + 1, x.denominator % 10 ** 40 + 1)
    return time.perf_counter() - t0


def scaled(seconds, probe_before, probe_after):
    """`seconds` timed between two probes, at the reference speed."""
    return seconds * 2 * REFERENCE_PROBE_S / (probe_before + probe_after)


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path
                                                    if path else ""))


def _from_src(filename):
    return Path(filename).resolve().is_relative_to(SRC)


def load_program():
    """Import the program from SRC, and nowhere else."""
    if not (SRC / "modimage" / "__init__.py").is_file():
        raise BenchError(f"no modimage sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import modimage.classifier
    import modimage.cli
    import modimage.ec
    import modimage.tables
    if not _from_src(modimage.__file__):
        raise BenchError(f"modimage imported from {modimage.__file__}")
    return modimage


def build_tables(modimage):
    for l in spans.TABLE_PRIMES:
        modimage.tables.prime_table(l)
    modimage.tables.nonsplit11()


def run_child(argv, timeout=SUBPROCESS_TIMEOUT):
    """Run a Python subprocess in ROOT; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout


def setup_seconds():
    """Median set-up time over SETUP_RUNS fresh processes, after one
    discarded process that fills the bytecode cache, as (scaled, wall)."""
    times, walls = [], []
    before = probe_seconds()
    for k in range(SETUP_RUNS + 1):
        code, out = run_child(["-c", SETUP_PROBE])
        after = probe_seconds()
        fields = out.split()
        if code != 0 or len(fields) != 2 or not _from_src(fields[1]):
            raise BenchError(f"set-up probe failed: exit {code}, {out!r}")
        if k:
            walls.append(float(fields[0]))
            times.append(scaled(walls[-1], before, after))
        before = after
    return statistics.median(times), statistics.median(walls)


# --- operations --------------------------------------------------------------

def make_runner(workload, modimage, trace_dir=None):
    """run(op) -> output, for the untraced run (trace_dir None) or with
    verify's child processes writing spans under trace_dir."""
    if workload == "box":
        def run(op):
            curve = modimage.ec.WeierstrassCurve(*map(Fraction, op["curve"]))
            return modimage.classifier.classify(curve)
    elif workload == "family":
        def run(op):
            argv = ["classify", "--curve=" + ",".join(op["curve"]),
                    "--format", "json"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = modimage.cli.run(argv)
            return code, buf.getvalue()
    else:
        counter = itertools.count()

        def run(op):
            if trace_dir is None:
                return run_child(["-m", "modimage.cli"] + op["argv"])
            path = trace_dir / f"verify-child-{next(counter)}.jsonl"
            code, out = run_child([str(HERE / "spans.py"), str(path)]
                                  + op["argv"])
            return code, out, path
    return run


def check_op(workload, op, output, fingerprints):
    if workload == "box":
        verdicts = [(r.prime, r.label, r.status) for r in output.results]
        return checks.check_verdicts(op, verdicts, fingerprints)
    if workload == "family":
        return checks.check_cli_json(op, *output, fingerprints)
    return checks.check_verify_tables(*output[:2])


def closed_loop(ops, run, seconds=None, calibrate=False):
    """Send each operation after the previous one completes, until the
    operations run out or `seconds` have passed. Returns the records
    (op, latency, output, error, scaled latency) and the wall time; with
    `calibrate`, a probe runs between operations and the scaled latency
    is the latency at the reference speed, else it is None."""
    records = []
    start = time.perf_counter()
    before = probe_seconds() if calibrate else None
    for op in ops:
        t0 = time.perf_counter()
        if seconds is not None and t0 - start >= seconds:
            break
        output, error = None, None
        try:
            output = run(op)
        except Exception as exc:  # counted as a failed operation
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        at_reference = None
        if calibrate:
            after = probe_seconds()
            at_reference = scaled(latency, before, after)
            before = after
        records.append((op, latency, output, error, at_reference))
    return records, time.perf_counter() - start


def check_records(workload, records, modimage):
    """Error strings per failed record, as {index: [errors]}."""
    fingerprints = checks.Fingerprints(modimage.tables.group_from_label)
    failed = {}
    for i, (op, _, output, error, _) in enumerate(records):
        errors = [error] if error else check_op(workload, op, output,
                                                fingerprints)
        if errors:
            failed[i] = errors
    return failed


def tail(latencies):
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it. When no sample above the median has ten beyond
    it (21 samples or fewer), the second-highest sample: the maximum of a
    dozen samples is one stray reading of the host."""
    s = sorted(latencies)
    n = len(s)
    if n == 1:
        return s[0], 100, n
    if n <= 21:
        return s[-2], 100 * (n - 1) // n, n
    return s[n - 11], 100 * (n - 10) // n, n


def pass_seconds(workload, records):
    """Summed latency of the first pass of the stream, or None when the
    run did not complete one: the same work in traced and untraced runs."""
    n = corpus.pass_length(workload)
    return sum(r[1] for r in records[:n]) if len(records) >= n else None


# --- one run -----------------------------------------------------------------

def untraced(workload, seed, seconds, modimage):
    setup, setup_wall = setup_seconds()
    if workload != "verify":
        build_tables(modimage)
    records, wall = closed_loop(corpus.stream(workload, seed),
                                make_runner(workload, modimage), seconds,
                                calibrate=True)
    who = resource.RUSAGE_CHILDREN if workload == "verify" \
        else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    failed = check_records(workload, records, modimage)
    latencies = [r[4] for r in records]
    walls = [r[1] for r in records]
    tail_s, pct, n = tail(latencies)
    values = {
        "setup_s": setup,
        "ops_per_s": len(records) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "peak_rss_mb": peak_mb,
    }
    detail = {"wall_s": wall, "tail_percentile": pct,
              "tail_samples": n, "pass_s": pass_seconds(workload, records),
              "wall_clock": {
                  "setup_s": setup_wall,
                  "ops_per_s": len(records) / sum(walls),
                  "latency_p50_s": statistics.median(walls),
                  "latency_tail_s": tail(walls)[0]},
              "host_speed": statistics.median(r[4] / r[1] for r in records)}
    return values, END_TO_END, len(records), failed, detail


def traced(workload, seed, modimage):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    ops = list(itertools.islice(corpus.stream(workload, seed),
                                corpus.pass_length(workload)))
    recorder = spans.Recorder()
    if workload == "verify":
        records, wall = closed_loop(ops, make_runner(workload, modimage, OUT))
        for _, _, output, _, _ in records:
            if output is not None and output[2].exists():
                recorder.spans += spans.read_spans(output[2])
                output[2].unlink()
    else:
        recorder.install()
        try:
            build_tables(modimage)
            records, wall = closed_loop(ops, make_runner(workload, modimage))
        finally:
            recorder.uninstall()
    recorder.write(path, {"workload": workload, "seed": seed,
                          "ops": len(records), "wall_s": wall})
    failed = check_records(workload, records, modimage)
    values = spans.layer_metrics(recorder.spans, len(records), wall)
    detail = {"wall_s": wall, "spans": len(recorder.spans),
              "trace_file": str(path.relative_to(ROOT)),
              "pass_s": pass_seconds(workload, records)}
    return values, spans.PER_LAYER, len(records), failed, detail


def run_one(workload, seed, seconds, tracing):
    modimage = load_program()
    pin_to_one_cpu()
    if tracing:
        values, spec, attempted, failed, detail = traced(workload, seed,
                                                         modimage)
    else:
        values, spec, attempted, failed, detail = untraced(
            workload, seed, seconds, modimage)
    detail.update(workload=workload, seed=seed, trace=int(tracing),
                  attempted=attempted, failed=len(failed),
                  error_ratio=len(failed) / attempted)
    for name, unit, _ in spec:
        print(f"{workload:7s} {name:48s} {values[name]:.6g} {unit}")
    for i, errors in list(failed.items())[:10]:
        print(f"failed op {i}: {'; '.join(errors[:3])}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spec},
    }))


# --- every workload ----------------------------------------------------------

def run_all(seed, seconds):
    """Each workload untraced and traced, in fresh processes, as a table."""
    results = {}
    for workload in corpus.WORKLOADS:
        for tracing in (0, 1):
            code, out = run_child([str(HERE / "run.py"), "--workload",
                                   workload, "--seed", str(seed), "--seconds",
                                   str(seconds), "--trace", str(tracing)],
                                  timeout=600)
            lines = out.strip().splitlines()
            if code != 0 or len(lines) < 2:
                raise BenchError(f"{workload} --trace {tracing}: exit {code}")
            detail = json.loads(lines[-2].removeprefix("detail "))
            results[workload, tracing] = (json.loads(lines[-1]), detail)
    for workload in corpus.WORKLOADS:
        result, detail = results[workload, 0]
        traced_result, traced_detail = results[workload, 1]
        m = result["metrics"]
        print(f"{workload}: {detail['attempted']} operations, "
              f"error_ratio {detail['error_ratio']:g} "
              f"({detail['failed']}/{detail['attempted']}), traced run "
              f"{traced_detail['failed']}/{traced_detail['attempted']} failed")
        for name, unit, _ in END_TO_END:
            wall = detail["wall_clock"].get(name)
            print(f"  {name:16s} {m[name]['value']:12.6g} {unit}"
                  + (f" ({wall:.6g} wall clock)" if wall else ""))
        print(f"  host speed {detail['host_speed']:.3g} x the reference")
        print(f"  latency_tail_s is p{detail['tail_percentile']} of "
              f"{detail['tail_samples']} samples")
        fast = m["ops_per_s"]["value"]
        slow = traced_result["metrics"]["trace.ops_per_s"]["value"]
        print(f"  ops_per_s {fast:.4g} untraced, {slow:.4g} traced "
              f"(trace.ops_per_s, one pass)")
        if detail["pass_s"]:
            print(f"  tracing overhead on the first pass: "
                  f"{traced_detail['pass_s']:.4g} s traced, "
                  f"{detail['pass_s']:.4g} s untraced "
                  f"(x{traced_detail['pass_s'] / detail['pass_s']:.2f})")
    print(json.dumps({f"{w}/trace{t}": r for (w, t), (r, _) in
                      results.items()}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=corpus.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    try:
        if ns.workload == "all":
            run_all(ns.seed, ns.seconds)
        else:
            run_one(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
