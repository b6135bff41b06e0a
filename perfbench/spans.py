"""Span tracing of dast_lab from outside the package.

The tracer replaces module and class attributes with timing wrappers, under
the name each caller looks up: ``pipeline`` binds ``encode``, ``backward``,
``lm_loss`` and others at import, so the wrapper goes on ``pipeline.encode``
and not on ``encoder.encode``. Spans (name, start, end, parent) stay in
memory and are written to a JSONL sidecar when the run ends. Counters are
taken at the same boundaries, from the arguments and results of the wrapped
calls, so every count is exact.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or None]
        self.stack = []
        self.counts = Counter()
        self._patched = []

    # -- spans -------------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, owner, attr, name=None, before=None, after=None):
        """Replace owner.attr with a wrapper until unwrap_all().

        The wrapper records a span when given a name. before(args, kwargs)
        runs outside the span, after(args, kwargs, result) after it.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if name is None:
                out = fn(*args, **kwargs)
            else:
                idx = self._enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def unwrap_all(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- summaries -------------------------------------------------------------------

    def summary(self):
        """name -> {"calls", "total_s", "self_s"}; self time excludes child spans."""
        child_ns = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def instrument(tracer, labels_by_id):
    """Wrap the public entry points of every dast_lab layer.

    labels_by_id maps study ids of the generated dataset to their label
    vectors; it scores retrieved exemplars for dmsr.label_match_ratio.
    """
    from dast_lab import cli, dmsr, generator, pipeline, synth, tensor

    counts = tracer.counts

    def count_graph(args, _):
        with tracer.span("trace.graph_record"):
            record = tensor.computation_record(args[0])
        counts["tensor.graph_steps"] += 1
        counts["tensor.graph_nodes"] += len(record)
        for op, _, _ in record:
            counts[f"tensor.graph_nodes.{op}"] += 1

    def count_query(args, kwargs, result):
        index, exclude_id = args[0], kwargs.get("exclude_id")
        counts["dmsr.records_scored"] += sum(r.study_id != exclude_id for r in index.records)
        truth = labels_by_id.get(exclude_id)
        if truth is not None:
            for sid, _ in result:
                counts["dmsr.label_match_base"] += 1
                counts["dmsr.label_match"] += labels_by_id[sid] == truth

    def count_logit_rows(args, _, __):
        if tracer.inside("generator.generate"):
            counts["generator.sequence_logits.rows"] += args[1].data.shape[0]

    def count_report(args, _, text):
        n_tokens = len(text.split())
        counts["generator.generate.tokens"] += n_tokens
        counts["generator.generate.max_len"] += n_tokens >= args[4]

    table = [
        (cli, "gen_dataset", "synth.gen_dataset"),
        (cli, "load_split", "synth.load_split"),
        (synth, "load_split", "synth.load_split"),
        (cli, "load_checkpoint", "pipeline.load_checkpoint"),
        (cli, "save_checkpoint", "pipeline.save_checkpoint"),
        (cli, "run_stage1", "pipeline.run_stage1"),
        (cli, "run_stage2", "pipeline.run_stage2"),
        (cli, "build_index", "pipeline.build_index"),
        (cli, "generate_reports", "pipeline.generate_reports"),
        (pipeline.AdamW, "step", "pipeline.AdamW.step"),
        (pipeline.Stage2Model, "visual_sequence", "pipeline.visual_sequence"),
        (pipeline, "encode", "encoder.encode"),
        (pipeline, "refine_dasts", "stage1.refine_dasts"),
        (pipeline, "classify", "stage1.classify"),
        (pipeline, "stage1_loss", "stage1.stage1_loss"),
        (pipeline, "dvaf_pool", "dvaf.dvaf_pool"),
        (pipeline, "gate_fuse", "dvaf.gate_fuse"),
        (pipeline, "project", "dvaf.project"),
        (pipeline, "assemble_prompt", "generator.assemble_prompt"),
        (pipeline, "lm_loss", "generator.lm_loss"),
        (dmsr, "add_exemplar", "dmsr.add_exemplar"),
        (dmsr, "save", "dmsr.save"),
        (dmsr, "load", "dmsr.load"),
        (cli, "nlg_report", "metrics.nlg_report"),
        (cli, "extract_labels", "metrics.extract_labels"),
        (cli, "clinical_prf", "metrics.clinical_prf"),
    ]
    for owner, attr, name in table:
        tracer.wrap(owner, attr, name)
    tracer.wrap(pipeline, "backward", "tensor.backward", before=count_graph)
    tracer.wrap(dmsr, "query", "dmsr.query", after=count_query)
    # counted without a span, so decoder time stays in lm_loss and generate
    tracer.wrap(generator, "sequence_logits", after=count_logit_rows)
    tracer.wrap(pipeline, "generate", "generator.generate", after=count_report)
