#!/usr/bin/env python3
"""Self-tests of the modimage benchmark (standard library only).

    python3 perfbench/selftest.py

Checks that the corpus repeats for a seed, that the tracer restores every
function it wraps and changes no output, that every per-layer count
repeats across two traced runs, that the output checks reject wrong
answers, that BENCHMARK.json matches the metrics run.py prints, and
that run.py fails without the program. The traced runs take a few
minutes.
"""

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

import checks
import corpus
import run
import spans

modimage = run.load_program()


def first(workload, seed, n):
    return list(itertools.islice(corpus.stream(workload, seed), n))


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        for workload in corpus.WORKLOADS:
            n = 2 * corpus.pass_length(workload)
            self.assertEqual(first(workload, 5, n), first(workload, 5, n))

    def test_seeds_differ(self):
        for workload in ("box", "family"):
            n = corpus.pass_length(workload)
            self.assertNotEqual(first(workload, 5, n), first(workload, 6, n))

    def test_families_match_tables(self):
        for label, lstar, h1, h2, A, B in corpus.FAMILIES:
            l = abs(lstar)
            table = modimage.tables.prime_table(l)
            entry, = (e for e in table.entries if e.label == label)
            self.assertEqual(table.twist, lstar)
            self.assertEqual([s for s, _ in entry.subs], [h1, h2])
            self.assertEqual(entry.family[0].coeffs, tuple(map(Fraction, A)))
            self.assertEqual(entry.family[1].coeffs, tuple(map(Fraction, B)))

    def test_family_parameters_give_construction_labels(self):
        """Each usable parameter gives the d = 1 label at l; an excluded
        one gives the label of the earlier entry its j lies under."""
        for family in corpus.FAMILIES:
            label, lstar, h1 = family[:3]
            for t in corpus.FAMILY_PARAMETERS:
                ab = corpus.family_curve(family, t)
                if ab is None:
                    continue
                E = modimage.ec.WeierstrassCurve(0, 0, 0, *ab)
                got = modimage.classifier.classify(E, [abs(lstar)])
                want = corpus.FAMILY_EXCLUDED.get((label, t), h1)
                self.assertEqual(got.results[0].label, want, (label, t))

    def test_cm_labels_follow_the_split_inert_rule(self):
        for (A, B), labels in corpus.CM_MODELS:
            j = Fraction(6912 * A ** 3, 4 * A ** 3 + 27 * B ** 2)
            D = modimage.tables.cm_entry(j).field_disc
            for l, label in zip(corpus.DEFAULT_PRIMES, labels.split()):
                if l == 2 or D % l == 0 or j == 0:
                    continue
                split = pow(-D % l, (l - 1) // 2, l) == 1
                self.assertEqual(label, f"{l}.Ns" if split else f"{l}.Nns")


class ChecksTest(unittest.TestCase):
    def setUp(self):
        self.fp = checks.Fingerprints(modimage.tables.group_from_label)

    def test_traces_match_the_program(self):
        curve = ["1", "1", "1", "-305", "7888"]
        E = modimage.ec.WeierstrassCurve(*map(Fraction, curve))
        for p, a in checks.frobenius_traces(curve).items():
            self.assertEqual(a, modimage.ec.ap(E, p), p)

    def test_wrong_answers_are_rejected(self):
        op = next(op for op in corpus.anchors()
                  if op["kind"] == "criterion3")  # 11.H1.1 at l = 11
        good = [(l, "11.H1.1" if l == 11 else "GL2", "proven")
                for l in corpus.DEFAULT_PRIMES]
        self.assertEqual(checks.check_verdicts(op, good, self.fp), [])
        wrong = [(l, "11.H2.1" if l == 11 else "GL2", "proven")
                 for l in corpus.DEFAULT_PRIMES]
        self.assertTrue(checks.check_verdicts(op, wrong, self.fp))
        # a Borel label at 5 for a curve with surjective mod-5 image
        borel = [(l, "5.G8" if l == 5 else lab, s) for l, lab, s in good]
        self.assertTrue(checks.check_verdicts(op, borel, self.fp))

    def test_json_must_redump(self):
        op = first("family", 1, 1)[0]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = modimage.cli.run(["classify", "--curve=" + ",".join(
                op["curve"]), "--format", "json"])
        text = out.getvalue()
        self.assertEqual(checks.check_cli_json(op, code, text, self.fp), [])
        compact = json.dumps(json.loads(text)) + "\n"
        self.assertTrue(checks.check_cli_json(op, code, compact, self.fp))

    def test_verify_summary(self):
        self.assertEqual(checks.check_verify_tables(0, "162/162 checks "
                                                       "passed\n"), [])
        self.assertTrue(checks.check_verify_tables(2, "FAIL x\n"
                                                      "161/162 checks "
                                                      "passed\n"))


class TracerTest(unittest.TestCase):
    def test_restored_and_output_unchanged(self):
        modules = [getattr(modimage, m) for m in spans.LAYERS]
        before = [dict(vars(m)) for m in modules]
        make = run.make_runner
        box, family = make("box", modimage), make("family", modimage)
        box_op, family_op = first("box", 2, 1)[0], first("family", 2, 1)[0]
        plain = (box(box_op), family(family_op))
        recorder = spans.Recorder().install()
        try:
            wrapped = set(recorder.patched)
            for mod in ("polyq", "classifier", "tables"):
                self.assertIn((f"modimage.{mod}", "rational_roots"), wrapped)
            self.assertIn(("modimage.classifier", "ap"), wrapped)
            self.assertIn(("modimage.classifier", "prime_table"), wrapped)
            traced = (box(box_op), family(family_op))
        finally:
            recorder.uninstall()
        for m, old in zip(modules, before):
            for attr, obj in old.items():
                self.assertIs(vars(m)[attr], obj, f"{m.__name__}.{attr}")
        self.assertEqual(plain, traced)
        names = {name for _, _, name, *_ in recorder.spans}
        self.assertIn("polyq.rational_roots", names)
        self.assertIn("classifier.classify_prime_noncm.l13", names)

    def test_counts_repeat_across_traced_runs(self):
        for workload in corpus.WORKLOADS:
            counts = []
            for _ in range(2):
                result = run_benchmark(workload, 3, trace=1)
                self.assertTrue(result["correct"], workload)
                counts.append({k: v["value"] for k, v in
                               result["metrics"].items()
                               if v["unit"] == "count"})
            self.assertEqual(counts[0], counts[1], workload)
            self.assertGreater(counts[0]["polyq.poly_gcd.calls"], 0)


class RunTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         corpus.WORKLOADS)
        for key, spec in (("end_to_end", run.END_TO_END),
                          ("per_layer", spans.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"], m["better"])
                              for m in bench[key]], [tuple(s) for s in spec])

    def test_fails_without_the_program(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "box",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_scaled_to_reference_speed(self):
        ref = run.REFERENCE_PROBE_S
        self.assertAlmostEqual(run.scaled(3.0, ref, ref), 3.0)
        # probes twice as slow as the reference: the host ran at half speed
        self.assertAlmostEqual(run.scaled(3.0, ref, 3 * ref), 1.5)
        records, _ = run.closed_loop([1, 2], lambda op: op, calibrate=True)
        self.assertEqual([r[2] for r in records], [1, 2])
        self.assertTrue(all(r[4] > 0 for r in records))

    def test_tail(self):
        self.assertEqual(run.tail([3.0]), (3.0, 100, 1))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (2.0, 66, 3))
        values = [float(i) for i in range(40)]
        self.assertEqual(run.tail(values), (29.0, 75, 40))


def run_benchmark(workload, seed, trace, seconds=5):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=run.ROOT, capture_output=True, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    unittest.main()
