"""Run the decoding-identity tests once per OpenBLAS kernel core and print a
kernel x test table of which pass.

    PYTHONPATH=src python tests/kernel_sweep.py

numpy's bundled OpenBLAS is a DYNAMIC_ARCH build: it picks a kernel core
for the CPU at load time, and ``OPENBLAS_CORETYPE`` makes it run another.
Each core here gets its own child pytest process with that variable set.
The tests compare a query decoded on one row with the same query on
several rows, or at one batch shape with another, so they hold only on a
core whose products round the same at those shapes.  The sweep is a
report, not a gate: it exits 0 whatever the table shows.  Its file name
keeps pytest from collecting it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CORES = ("SkylakeX", "Haswell", "Sandybridge")

TESTS = (
    "tests/test_acceptance.py::test_criterion_6_beam_properties",
    "tests/test_decoding.py::TestGreedy::test_beam_one_equals_greedy_exactly",
    "tests/test_decoding.py::TestBeamSearch::test_top_beam_at_least_greedy",
    "tests/test_decoding.py::TestBeamSearch::test_matches_brute_force_enumeration",
    "tests/test_decoding.py::TestBeamSearch::test_larger_beam_never_scores_lower",
    "tests/test_decoding.py::TestBatchedBeamSearch"
    "::test_greedy_and_greedy_batch_match_an_argmax_reference",
    "tests/test_decoding.py::TestBatchedBeamSearch::test_each_query_matches_its_own_search",
)


def run_core(core: str) -> dict:
    """Outcome (``PASSED``, ``FAILED`` or ``ERROR``) of each test id, with its
    parameters, under ``OPENBLAS_CORETYPE=core``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                           *TESTS], cwd=ROOT, env=env, capture_output=True, text=True)
    outcomes = {}
    for line in done.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR") and rest.startswith("tests/"):
            outcomes[rest.split(" - ")[0]] = word
    if not outcomes:
        print(f"{core}: no test ran (exit {done.returncode})\n{done.stdout[-2000:]}"
              f"{done.stderr[-2000:]}")
    return outcomes


def main() -> int:
    results = {core: run_core(core) for core in CORES}
    tests = sorted({test for outcomes in results.values() for test in outcomes})
    width = max((len(test.split("::", 1)[1]) for test in tests), default=4)
    print(f"{'test':<{width}}  " + "  ".join(f"{core:<11}" for core in CORES))
    for test in tests:
        print(f"{test.split('::', 1)[1]:<{width}}  "
              + "  ".join(f"{results[core].get(test, '-').lower():<11}" for core in CORES))
    for core in CORES:
        passed = sum(outcome == "PASSED" for outcome in results[core].values())
        print(f"{core}: {passed} of {len(results[core])} pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
