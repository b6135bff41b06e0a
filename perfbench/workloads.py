"""The three benchmark workloads.

Each workload has a set-up (untimed inputs: data and upstream checkpoints),
a timed chain of ``dast-lab`` commands and in-process calls, and correctness
checks that run outside the timed region. Shapes follow
``scripts/run_ablations.py``: 32x32 images, patch 4 (64 tokens), channels 32,
depth 2, decoder width 64, batch 64 in stage 1 and 8 in stage 2.

Throughputs come from unit times, not from phase walls. On a shared 2-core
VM the same code runs up to 2x faster in spells that last from
milliseconds to tens of seconds, and stalls now and then; a wall, a median
or a fastest unit depends on how much of a run the spells cover. Most runs
spend over a tenth of their time at the slower speed, and stalls hit far
fewer than a tenth of the units, so each unit of work counts at the 90th
percentile of its times: a training step at the 90th-percentile step of
its optimizer, and each exemplar build, save, load, query and report
decode at the 90th percentile of its repeats. Stages repeat in rounds so
that the units of one metric are spread over the chain.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from spans import Tracer

STAGE1_BASE = {"base_lr": 3e-3, "batch_size": 64, "channels": 32, "depth": 2,
               "tau": 1.0}
# max_report_len 64 rather than 128: some seeds' decoders loop to the cap,
# and 64 still clears the longest reference report (51 words)
STAGE2_BASE = {"base_lr": 3e-3, "batch_size": 8, "channels": 32, "depth": 2,
               "decoder_width": 64, "max_positions": 384, "max_report_len": 64}


class Phase:
    """Wall time of one timed phase, and every call of the entry points it
    watched: ``calls[attr]`` lists (start, end, first argument) per call."""

    def __init__(self):
        self.calls = defaultdict(list)
        self.start = self.end = None

    @property
    def wall(self):
        return self.end - self.start


@contextmanager
def timed(watch=(), stopwatch=True):
    """Time a phase; with the stopwatch on, stamp each call of the watched
    (owner, attr) entry points through ``Tracer.wrap``. The stopwatch is off
    in traced repetitions, where the tracer wraps the same names."""
    phase, wrapper = Phase(), Tracer()
    for owner, attr in watch if stopwatch else ():
        calls, starts = phase.calls[attr], []
        wrapper.wrap(owner, attr,
                     before=lambda args, kwargs, starts=starts: starts.append(time.perf_counter()),
                     after=lambda args, kwargs, out, starts=starts, calls=calls: calls.append(
                         (starts.pop(), time.perf_counter(), args[0] if args else None)))
    phase.start = time.perf_counter()
    try:
        yield phase
    finally:
        phase.end = time.perf_counter()
        wrapper.unwrap_all()


def expect_calls(run, phase, attr, n):
    calls = phase.calls[attr]
    if len(calls) != n:
        run.fail(f"stopwatch saw {len(calls)} {attr} calls, expected {n}")
    run.check(True, f"stopwatch saw every {attr} call")
    return calls


QUANTILE = 0.9


def unit_sum(units):
    """Each unit of work at the QUANTILE of its times over the repeats
    (rows), summed."""
    return float(np.quantile(units, QUANTILE, axis=0).sum())


def banded_sum(units, bands=10):
    """Like unit_sum for units of similar work (rows: repeats, columns:
    positions). Each band of consecutive positions counts as its width times
    the QUANTILE of all its times, which takes the quantile over hundreds of
    times rather than a few repeats; a cost that grows with the position
    still shows, band by band."""
    return float(sum(band.shape[1] * np.quantile(band, QUANTILE)
                     for band in np.array_split(np.asarray(units), bands, axis=1)))


def stepped_wall(run, phase, steps):
    """The phase wall with each optimizer step's time replaced by the QUANTILE
    of the steps of the same optimizer. A step runs from one AdamW.step call to the
    next, so the lead-in (data, model set-up, stage-2 cache preparation), the
    phase-A/phase-B boundary and the checkpoint save stay as measured."""
    calls = expect_calls(run, phase, "step", steps)
    gaps = defaultdict(list)
    for (t0, _, opt0), (t1, _, opt1) in zip(calls, calls[1:]):
        if opt0 is opt1:
            gaps[id(opt0)].append(t1 - t0)
    return phase.wall - sum(sum(g) - len(g) * np.quantile(g, QUANTILE) for g in gaps.values())


def write_config(path, values, seed):
    lines = [f"{k} = {v}" for k, v in values.items()] + [f"seed = {seed}"]
    path.write_text("\n".join(lines) + "\n")


def gen_data(run, d, n, seed):
    run.cli("gen-data", "--n", n, "--seed", seed, "--out", d / "data")


def stage1_config(d, params, seed):
    write_config(d / "stage1.cfg", {**STAGE1_BASE, "total_steps": params["s1_steps"],
                                    "warmup_steps": params["s1_warmup"]}, seed)


def train_stage1(run, d):
    run.cli("train-stage1", "--data", d / "data", "--config", d / "stage1.cfg",
            "--out-ckpt", d / "stage1.ckpt")


def build_index(run, d):
    run.cli("build-index", "--data", d / "data", "--ckpt", d / "stage1.ckpt",
            "--out-index", d / "train.dmsr")


def optimizer_step():
    from dast_lab import pipeline
    return pipeline.AdamW, "step"


class IndexBuilds:
    """build-index then dmsr.load, repeated. With the stopwatch on it keeps,
    for each build, the time of one exemplar's forward and insert (up to the
    end of its add_exemplar call), of the save and of the load."""

    def __init__(self):
        self.written, self.units, self.saves, self.loads = set(), [], [], []

    def build(self, run, d, builds, stopwatch):
        """`builds` more builds (one in traced runs); returns the index as loaded."""
        from dast_lab import cli, dmsr

        watch = ((cli, "build_index"), (dmsr, "add_exemplar"), (dmsr, "save"))
        for _ in range(builds if stopwatch else 1):
            with timed(watch, stopwatch) as phase:
                build_index(run, d)
            self.written.add((d / "train.dmsr").read_bytes())
            t0 = time.perf_counter()
            index = dmsr.load(d / "train.dmsr")
            self.loads.append(time.perf_counter() - t0)
            if stopwatch:
                (start, _, _), = expect_calls(run, phase, "build_index", 1)
                inserts = expect_calls(run, phase, "add_exemplar", len(index))
                (save_start, save_end, _), = expect_calls(run, phase, "save", 1)
                self.units.append(np.diff([start] + [end for _, end, _ in inserts]))
                self.saves.append(save_end - save_start)
        run.check(len(self.written) == 1, "repeated build-index commands write identical indexes")
        return index

    def seconds(self):
        """Seconds to build, save and load the index, each piece at the
        QUANTILE of its times over the builds."""
        return banded_sum(self.units) + unit_sum(self.saves) + unit_sum(self.loads)


def check_index_roundtrip(run, d):
    """The written index loads, saves and loads back equal and byte-identical."""
    from dast_lab import dmsr

    first = dmsr.load(d / "train.dmsr")
    dmsr.save(first, d / "roundtrip.dmsr")
    again = dmsr.load(d / "roundtrip.dmsr")
    same_bytes = (d / "train.dmsr").read_bytes() == (d / "roundtrip.dmsr").read_bytes()
    run.check(first == again and same_bytes, "index save -> load round trip")
    (d / "roundtrip.dmsr").unlink()


def macro_auroc(model, samples):
    """Mean over categories (with both classes present) of P(pos logit > neg logit)."""
    logits = np.array([model.forward(s)[3].data for s in samples])
    labels = np.array([s.labels for s in samples])
    scores = []
    for d in range(labels.shape[1]):
        pos, neg = logits[labels[:, d] == 1, d], logits[labels[:, d] == 0, d]
        if len(pos) and len(neg):
            diff = pos[:, None] - neg[None, :]
            scores.append(np.mean(diff > 0) + 0.5 * np.mean(diff == 0))
    return float(np.mean(scores))


def heldout_token_prob(d, split):
    """exp(-mean NLL per target token) of the stage-2 model, teacher-forced,
    over the studies of a split, with the prompts generation would build.

    Built from public functions only, so that refactoring pipeline's private
    training helpers cannot break the benchmark."""
    from dast_lab import dmsr
    from dast_lab.dvaf import project
    from dast_lab.generator import assemble_prompt, lm_loss, tokenize
    from dast_lab.pipeline import load_checkpoint, stage2_from_arrays
    from dast_lab.synth import load_split

    model = stage2_from_arrays(load_checkpoint(d / "stage2.ckpt"))
    index = dmsr.load(d / "train.dmsr")
    nll, tokens = 0.0, 0
    for s in load_split(d / "data", split):
        v_const, z_bar, logits = model.visual_sequence(s)
        retrieved = model.retrieved_text(index, z_bar, logits, exclude_id=s.study_id)
        target = tokenize(s.report, model.vocab)
        prompt = assemble_prompt(model.decoder, model.vocab, retrieved,
                                 project(v_const, model.fusion), target)
        total, _ = lm_loss(model.decoder, prompt)
        nll += total.item()
        tokens += len(prompt.target_ids)
    return math.exp(-nll / tokens)


class Stage1:
    """Timed: two rounds of train-stage1 -> build-index and load (six
    times). The decoder never runs and the index is never queried, so this
    bypasses generator and dmsr-query changes."""

    name = "stage1"
    # The machine has fast spells of a few seconds. Two rounds put the index
    # builds in two windows ten seconds apart, so that one spell cannot cover
    # all of them; both rounds write the same checkpoint and index.
    params = {"n_studies": 500, "s1_steps": 50, "s1_warmup": 5, "rounds": 2,
              "index_builds": 6}
    outputs = ("stage1.ckpt", "train.dmsr")
    # macro-F1 stays 0 until the heads fire, which takes hundreds of steps;
    # AUROC ranks the logits and moves from the first steps on.
    headline = ("s1_samples_per_s", "index_records_per_s", "s1_macro_auroc")

    def setup(self, run, d, seed):
        gen_data(run, d, self.params["n_studies"], seed)
        stage1_config(d, self.params, seed)

    def rep(self, run, d, seed, stopwatch):
        trains, checkpoints, builds = [], set(), IndexBuilds()
        for _ in range(self.params["rounds"] if stopwatch else 1):
            with timed([optimizer_step()], stopwatch) as train:
                train_stage1(run, d)
            trains.append(train)
            checkpoints.add((d / "stage1.ckpt").read_bytes())
            index = builds.build(run, d, self.params["index_builds"], stopwatch)
        run.check(len(checkpoints) == 1,
                  "repeated train-stage1 commands write identical checkpoints")
        return trains, len(index), builds

    def finish(self, run, d, state, stopwatch):
        from dast_lab.pipeline import load_checkpoint, stage1_from_arrays, stage1_macro_f1
        from dast_lab.synth import load_split

        trains, n_index, builds = state
        check_index_roundtrip(run, d)
        model = stage1_from_arrays(load_checkpoint(d / "stage1.ckpt"))
        test = load_split(d / "data", "test")
        values = {"s1_macro_f1": stage1_macro_f1(model, test),
                  "s1_macro_auroc": macro_auroc(model, test)}
        if stopwatch:
            steps = self.params["s1_steps"]
            values["s1_samples_per_s"] = (len(trains) * steps * STAGE1_BASE["batch_size"]
                                          / sum(stepped_wall(run, t, steps) for t in trains))
            values["index_records_per_s"] = n_index / builds.seconds()
        return values


class Report:
    """Timed: train-stage2 (phase A, phase B) -> generate (twice) ->
    evaluate, with DVAF and DMSR on. Decoder training and greedy decoding
    dominate."""

    name = "report"
    params = {"n_studies": 300, "s1_steps": 10, "s1_warmup": 5,
              "pretrain_steps": 250, "pretrain_lr": 5e-3, "s2_steps": 20,
              "s2_warmup": 5, "n_reports": 16, "generate_repeats": 2}
    outputs = ("stage2.ckpt", "reports.jsonl", "metrics.json")
    headline = ("s2_steps_per_s", "gen_tokens_per_s", "heldout_token_prob")

    def setup(self, run, d, seed):
        p = self.params
        gen_data(run, d, p["n_studies"], seed)
        stage1_config(d, p, seed)
        train_stage1(run, d)
        build_index(run, d)
        test = (d / "data" / "test.jsonl").read_text().splitlines()
        rng = np.random.default_rng(seed)
        pick = sorted(rng.choice(len(test), p["n_reports"], replace=False))
        (d / "data" / "subset.jsonl").write_text("".join(test[i] + "\n" for i in pick))
        write_config(d / "stage2.cfg", {
            **STAGE2_BASE, "decoder_pretrain_steps": p["pretrain_steps"],
            "decoder_pretrain_lr": p["pretrain_lr"], "total_steps": p["s2_steps"],
            "warmup_steps": p["s2_warmup"]}, seed)

    def rep(self, run, d, seed, stopwatch):
        from dast_lab import pipeline

        with timed([optimizer_step()], stopwatch) as train:
            run.cli("train-stage2", "--data", d / "data", "--stage1-ckpt", d / "stage1.ckpt",
                    "--index", d / "train.dmsr", "--config", d / "stage2.cfg",
                    "--out-ckpt", d / "stage2.ckpt")
        # a report's decode runs from its visual_sequence call to the end of
        # its generate call
        watch = ((pipeline.Stage2Model, "visual_sequence"), (pipeline, "generate"))
        decodes, outputs = [], set()
        for _ in range(self.params["generate_repeats"] if stopwatch else 1):
            with timed(watch, stopwatch) as phase:
                run.cli("generate", "--data-split", d / "data" / "subset.jsonl",
                        "--ckpt", d / "stage2.ckpt", "--index", d / "train.dmsr",
                        "--out", d / "reports.jsonl")
            decodes.append(phase)
            outputs.add((d / "reports.jsonl").read_bytes())
        run.check(len(outputs) == 1, "repeated generate commands write identical reports")
        run.cli("evaluate", "--hyp", d / "reports.jsonl", "--ref", d / "data",
                "--out", d / "metrics.json")
        return train, decodes

    def finish(self, run, d, state, stopwatch):
        p = self.params
        train, decodes = state
        wanted = {json.loads(line)["study_id"]
                  for line in (d / "data" / "subset.jsonl").read_text().splitlines()}
        rows = [json.loads(line) for line in (d / "reports.jsonl").read_text().splitlines()]
        got = {r["study_id"]: r["hypothesis"] for r in rows}
        run.check(set(got) == wanted and len(rows) == len(wanted),
                  "reports.jsonl has one row per requested study")
        for sid in sorted(wanted):
            run.check(bool(got.get(sid, "").strip()), f"non-empty report for {sid}")
        try:
            scores = json.loads((d / "metrics.json").read_text())
            bleu, clinical = scores["bleu_4"], scores["clinical"]["macro"]["f1"]
        except (ValueError, KeyError) as exc:
            run.fail(f"metrics.json does not parse: {exc!r}")
        run.check(True, "metrics.json parses")
        tokens = sum(len(text.split()) for text in got.values())
        values = {"gen_tokens": tokens, "bleu_4": bleu, "clinical_macro_f1": clinical,
                  "heldout_token_prob": heldout_token_prob(d, "test")}
        if stopwatch:
            n = len(rows)
            decode_s = unit_sum([
                np.subtract([e for _, e, _ in expect_calls(run, ph, "generate", n)],
                            [s for s, _, _ in expect_calls(run, ph, "visual_sequence", n)])
                for ph in decodes])
            steps = p["pretrain_steps"] + p["s2_steps"]
            values["s2_steps_per_s"] = steps / stepped_wall(run, train, steps)
            values["reports_per_s"] = n / decode_s
            values["gen_tokens_per_s"] = tokens / decode_s
        return values


class Retrieval:
    """Timed: five rounds of build-index over 1,400 exemplars and load, each
    followed by 60 leave-one-out top-5 queries on a seeded sample of the
    stored exemplars. Spreading the queries over the chain keeps one fast
    spell of the machine from covering all of them."""

    name = "retrieval"
    params = {"n_studies": 2000, "s1_steps": 5, "s1_warmup": 2, "rounds": 5,
              "n_queries": 300, "k": 5}
    outputs = ("train.dmsr", "queries.json")
    headline = ("index_records_per_s", "queries_per_s", "top1_score")

    def setup(self, run, d, seed):
        gen_data(run, d, self.params["n_studies"], seed)
        stage1_config(d, self.params, seed)
        train_stage1(run, d)

    def rep(self, run, d, seed, stopwatch):
        from dast_lab import dmsr

        p = self.params
        rounds = p["rounds"] if stopwatch else 1
        builds, records, results, latencies = IndexBuilds(), [], [], []
        for i in range(rounds):
            index = builds.build(run, d, 1, stopwatch)
            if not records:
                rng = np.random.default_rng(seed)
                records = [index.records[j] for j in rng.choice(len(index), p["n_queries"],
                                                                replace=False)]
            for r in records[i * len(records) // rounds:(i + 1) * len(records) // rounds]:
                t0 = time.perf_counter()
                results.append(dmsr.query(index, r.z_bar, r.logits, k=p["k"],
                                          exclude_id=r.study_id))
                latencies.append(time.perf_counter() - t0)
        (d / "queries.json").write_text(json.dumps(
            [[r.study_id, got] for r, got in zip(records, results)]) + "\n")
        return index, builds, records, results, latencies

    def finish(self, run, d, state, stopwatch):
        from dast_lab import dmsr

        index, builds, records, results, latencies = state
        for r, got in zip(records, results):
            want = dmsr.brute_force_oracle(index, r.z_bar, r.logits, k=self.params["k"],
                                           exclude_id=r.study_id)
            run.check(got == want, f"query for {r.study_id} equals brute_force_oracle")
        check_index_roundtrip(run, d)
        values = {"top1_score": float(np.mean([got[0][1] for got in results]))}
        if stopwatch:
            ms = 1e3 * np.asarray(latencies)
            values["index_records_per_s"] = len(index) / builds.seconds()
            values["queries_per_s"] = 1e3 / float(np.quantile(ms, QUANTILE))
            values["query_p50_ms"] = float(np.median(ms))
            values["query_p90_ms"] = float(np.percentile(ms, 90))  # 30 samples beyond it
        return values


WORKLOADS = {w.name: w for w in (Stage1(), Report(), Retrieval())}
