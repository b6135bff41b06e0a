#!/usr/bin/env python3
"""Benchmark runner for dast-lab.

    python3 perfbench/run.py --workload stage1 --seed 1 --seconds 10 --trace 0

Runs one workload (``stage1``, ``report`` or ``retrieval``; see
workloads.py) in this process, against the sources under ``src/`` of the
checkout, with BLAS held to one thread. The seed makes the inputs; the
program only sees the generated files.

``--trace 0`` sets up three times (the median is ``setup_s``), then runs
the timed chain once with a stopwatch on the few entry points its rates are
built from, and prints the end-to-end metrics of BENCHMARK.json. The chain
is a fixed amount of work, longer than ``--seconds`` (about 20 s on stage1
and retrieval and 50 s on report on a 2-core VM), which is recorded but not
used. ``--trace 1`` sets up once, runs the timed chain once plain
and once with every layer's entry points wrapped (spans.py), and prints the
per-layer metrics. Either way the workload's named metrics are printed
first, the full result with its environment goes to ``.perfbench_out/``,
and the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when any correctness check failed, and 2
when the checkout holds no ``src/dast_lab``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
CLI_COMMANDS = ("gen-data", "train-stage1", "build-index", "train-stage2", "generate",
                "evaluate")

UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio",
    "s1_samples_per_s": "1/s", "s1_macro_f1": "ratio", "s1_macro_auroc": "ratio",
    "s2_steps_per_s": "1/s", "reports_per_s": "1/s", "gen_tokens_per_s": "1/s",
    "gen_tokens": "count",
    "bleu_4": "score", "clinical_macro_f1": "ratio", "query_p50_ms": "ms",
    "query_p90_ms": "ms", "queries_per_s": "1/s", "index_records_per_s": "1/s",
    "top1_score": "score", "heldout_token_prob": "ratio",
}


class CheckFailed(Exception):
    """A correctness check failed in a way that stops the workload."""


class Run:
    """Counts attempted and failed operations and drives dast_lab.cli in-process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = None

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def fail(self, what):
        self.check(False, what)
        raise CheckFailed(what)

    def cli(self, *argv):
        from dast_lab.cli import main

        argv = [str(a) for a in argv]
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        with redirect_stdout(io.StringIO()), span:
            code = main(argv)
        if not self.check(code == 0, f"dast-lab {' '.join(argv)} exited {code}"):
            raise CheckFailed(argv[0])


# -- digests -----------------------------------------------------------------------


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root, pattern="**/*"):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).glob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def source_fingerprint():
    """Digest of the program and benchmark sources: one key per commit."""
    return hashlib.sha256((tree_digest(SRC, "**/*.py")
                           + tree_digest(BENCH, "*.py")).encode()).hexdigest()


def check_against_store(run, workload, seed, digests):
    """Runs of one source tree at one seed must give identical outputs."""
    store = OUT / "digests" / f"{workload}-seed{seed}.json"
    key = source_fingerprint()
    if store.exists():
        known = json.loads(store.read_text())
        if known["fingerprint"] == key:
            run.check(known["digests"] == digests,
                      f"outputs match earlier runs of these sources at seed {seed}")
            return
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"fingerprint": key, "digests": digests}, indent=1) + "\n")


# -- environment ------------------------------------------------------------------


def environment(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_labels(data_dir):
    labels = {}
    for split in ("train", "val", "test"):
        for line in (data_dir / f"{split}.jsonl").read_text().splitlines():
            row = json.loads(line)
            labels[row["study_id"]] = row["labels"]
    return labels


# -- the two kinds of run -----------------------------------------------------------


def output_digests(workload, d):
    return {name: sha256_file(d / name) for name in workload.outputs}


def plain_run(run, workload, base, args):
    setup_s, setup_digests = [], []
    for i in range(SETUP_REPEATS):
        d = base / f"setup{i}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.setup(run, d, args.seed)
        setup_s.append(time.perf_counter() - t0)
        setup_digests.append(tree_digest(d))
        if i:
            shutil.rmtree(d)
    run.check(len(set(setup_digests)) == 1, "set-up outputs identical across repeats")
    d = base / "setup0"

    t0 = time.perf_counter()
    state = workload.rep(run, d, args.seed, stopwatch=True)
    wall = time.perf_counter() - t0
    named = {"setup_s": statistics.median(setup_s), "wall_s": wall,
             "peak_rss_mb": peak_rss_mb(),
             **workload.finish(run, d, state, stopwatch=True)}
    digests = {"setup": setup_digests[0], **output_digests(workload, d)}
    check_against_store(run, workload.name, args.seed, digests)

    phase1, phase2, quality = workload.headline
    metrics = {"setup_s": named["setup_s"], "peak_rss_mb": named["peak_rss_mb"],
               "phase1_per_s": named[phase1], "phase2_per_s": named[phase2],
               "quality": named[quality]}
    detail = {"setup_s_each": setup_s, "digests": digests,
              "headline": dict(zip(("phase1_per_s", "phase2_per_s", "quality"),
                                   workload.headline))}
    return named, metrics, detail


def traced_run(run, workload, base, args):
    from spans import Tracer, instrument

    tracer, labels = Tracer(), {}
    d = base / "setup0"
    d.mkdir(parents=True)

    def traced(name, fn):
        instrument(tracer, labels)
        run.tracer = tracer
        try:
            with tracer.span(name):
                return fn()
        finally:
            tracer.unwrap_all()
            run.tracer = None

    traced("run.setup", lambda: workload.setup(run, d, args.seed))
    setup_digest = tree_digest(d)
    labels.update(load_labels(d / "data"))
    tracer.counts.clear()  # counters cover the timed part only

    t0 = time.perf_counter()
    workload.rep(run, d, args.seed, stopwatch=False)  # checked through its digests
    plain_wall = time.perf_counter() - t0
    plain_digests = output_digests(workload, d)
    t0 = time.perf_counter()
    state = traced("run.timed", lambda: workload.rep(run, d, args.seed, stopwatch=False))
    traced_wall = time.perf_counter() - t0
    workload.finish(run, d, state, stopwatch=False)
    digests = output_digests(workload, d)
    run.check(digests == plain_digests, "traced outputs match untraced outputs")
    check_against_store(run, workload.name, args.seed, {"setup": setup_digest, **digests})

    tracer.write(OUT / f"{workload.name}-seed{args.seed}.spans.jsonl")
    per = layer_metrics(tracer, traced_wall, plain_wall)
    return per, {"spans": tracer.summary(), "counts": dict(tracer.counts)}


def layer_metrics(tracer, traced_wall, plain_wall):
    summary = tracer.summary()
    counts = tracer.counts
    per = {}
    for name, row in summary.items():
        per[f"{name}.s"] = row["self_s"]
        per[f"{name}.calls"] = row["calls"]
    cli_total = 0.0
    for cmd in CLI_COMMANDS:
        total = summary.get(f"cli.{cmd}", {}).get("total_s", 0.0)
        per[f"cli.{cmd}.s"] = total  # span duration: the commands add up to the wall
        cli_total += total
    wall = sum(summary[n]["total_s"] for n in ("run.setup", "run.timed"))
    per["trace.wall_s"] = wall
    per["trace.runner_s"] = wall - cli_total
    per["trace.overhead_ratio"] = traced_wall / plain_wall

    for key, value in counts.items():
        if key.startswith("tensor.graph_nodes."):
            per[key] = value
    steps = counts["tensor.graph_steps"]
    per["tensor.graph_nodes_per_step"] = counts["tensor.graph_nodes"] / steps if steps else 0.0
    per["dmsr.records_scored"] = counts["dmsr.records_scored"]
    base = counts["dmsr.label_match_base"]
    per["dmsr.label_match_base"] = base
    per["dmsr.label_match_ratio"] = counts["dmsr.label_match"] / base if base else 0.0
    reports = summary.get("generator.generate", {}).get("calls", 0)
    per["generator.generate.tokens"] = counts["generator.generate.tokens"]
    per["generator.sequence_logits.rows"] = counts["generator.sequence_logits.rows"]
    per["generator.max_len_ratio"] = (counts["generator.generate.max_len"] / reports
                                      if reports else 0.0)
    return per


# -- entry point ------------------------------------------------------------------


def emit(run, metrics, units, named=None):
    for key, value in (named or {}).items():
        print(f"{key:<24} {value:>16.6f} {UNITS.get(key, '')}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": units[k]} for k in units},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dast_lab" / "cli.py").is_file():
        print(f"perfbench: no dast_lab sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy first loads BLAS
    sys.path.insert(0, str(SRC))
    import dast_lab.cli  # noqa: F401  (imported before anything is timed)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    run = Run()
    base = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    named, metrics, detail = {}, {}, {}
    try:
        if args.trace:
            metrics, detail = traced_run(run, workload, base, args)
        else:
            named, metrics, detail = plain_run(run, workload, base, args)
    except CheckFailed:
        pass
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    if named:
        named["failed_ratio"] = run.failed / run.attempted
    result = {"workload": workload.name, "params": workload.params,
              "why": " ".join(workload.__doc__.split()), "environment": environment(args),
              "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
              "named": named, "metrics": metrics, **detail}
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    emit(run, metrics, units, named)
    return 0 if run.failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
