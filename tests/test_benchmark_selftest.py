"""The fast cases of the benchmark's own self-test (perfbench/selftest.py).

They check that the corpus, the output checks, the tracer's bindings and
BENCHMARK.json still fit the program, so a change that breaks what the
benchmark relies on fails here and not only when the benchmark runs. The
traced runs (minutes) and the case that writes under perfbench/out/ are
left to the full self-test.
"""

import os
import subprocess
import sys

FAST = ("CorpusTest", "ChecksTest",
        "TracerTest.test_restored_and_output_unchanged",
        "RunTest.test_benchmark_json_matches_run_py",
        "RunTest.test_scaled_to_reference_speed", "RunTest.test_tail")


def test_fast_benchmark_selftest_cases_pass():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py"), *FAST],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Ran 13 tests" in proc.stderr
