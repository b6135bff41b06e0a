import os

# BLAS runs on one thread, as in perfbench/run.py, set before numpy first
# loads it. Multi-threaded OpenBLAS rounds some larger products differently,
# so the numbers the tests see would depend on the core count, and its worker
# threads spin while they wait: on a 2-core VM with a second process busy, a
# stage-2 training run took 97 s at the default two threads and 21 s at one.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dast_lab.synth import SyntheticSpec, make_study  # noqa: E402

_ACCEPTANCE_RESULTS = []


def make_samples(n, seed=0, image_size=16, finding_probs=None, negated_prob=0.3):
    """In-memory synthetic studies for fixtures that skip the on-disk format."""
    spec = SyntheticSpec(
        n_studies=n, image_size=image_size, seed=seed,
        finding_probs=finding_probs if finding_probs is not None else [0.3] * 14,
        negated_mention_prob=negated_prob,
    )
    rng = np.random.default_rng(seed)
    return [make_study(spec, rng, f"synth{i:05d}") for i in range(n)]


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, outcome in _ACCEPTANCE_RESULTS:
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"  [{status}] {name}")
