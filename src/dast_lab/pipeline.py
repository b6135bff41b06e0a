"""Training orchestration: AdamW, warmup+cosine schedule, both stages,
checkpoint persistence, and the ablation switches.

Stage 1 trains the encoder, disease tokens, and classifier heads. Stage 2
first pretrains the small decoder on the prompt layout (its stand-in for
being a pretrained language model), then freezes everything except the
projection matrix and its layer-norm affine and optimizes the language
modeling loss, optionally with retrieved exemplar prompts. One loop,
`_train`, runs every optimizer step of stage 1 and of both stage-2 phases.

Each model holds the resolved config of its stage as `cfg`: `Stage1Config`
(encoder, DASTs, tau) or `Stage2Config` (DVAF, DMSR, lambda, decoder), which
share the optimizer, schedule and seed fields. A checkpoint is one `store`
container (magic b"DLCKPT5"): its named float64 tensors plus one "meta" dict
in the JSON header with the model kind ("stage1" or "stage2") and that
config; a stage-2 checkpoint adds its stage-1 model's config ("stage1") and
the vocabulary ("vocab"). Loading builds the model through its own `init`
from those configs and fills every `named()` tensor, with shape and
finiteness checks.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dmsr, store
from .dvaf import FusionParams, build_visual_sequence, dvaf_pool, gate_fuse, project
from .encoder import EncoderParams, encode, pool_mean
from .generator import (
    SPECIAL_TOKENS,
    DecoderParams,
    Vocabulary,
    apply_freeze,
    assemble_prompt,
    generate,
    lm_loss,
    stage2_freeze_mask,
    tokenize,
)
from .metrics import _prf
from .stage1 import DastBank, HashTextEncoder, classify, refine_dasts, stage1_loss
from .tensor import NonFiniteError, Tensor, backward, no_grad

CKPT_MAGIC = b"DLCKPT5"
# Decoder pretraining (phase A) draws each study's exemplar from its top
# PHASE_A_EXEMPLARS hits at every step, so that copying the nearest neighbour
# does not pay (see run_stage2); 5 is the k of the README's `query-index --k 5`.
PHASE_A_EXEMPLARS = 5


class CheckpointError(ValueError):
    """Corrupt or mismatched checkpoint file."""


# -- configuration -----------------------------------------------------------------


@dataclass
class _SharedConfig:
    """Optimizer, schedule and seed: the settings both stages take."""
    base_lr: float = 1e-4
    warmup_steps: int = 500
    total_steps: int = 2000
    batch_size: int = 8
    seed: int = 0
    weight_decay: float = 0.01

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError("warmup_steps must lie in [0, total_steps]")
        self._at_least(1, "batch_size", "total_steps")
        self._at_least(0, "weight_decay")

    def _at_least(self, bound, *names):
        for name in names:
            if getattr(self, name) < bound:
                raise ValueError(f"{name} must be >= {bound}, got {getattr(self, name)}")


@dataclass
class Stage1Config(_SharedConfig):
    """Stage 1: the scan encoder, the DAST refinement and the contrastive tau."""
    tau: float = 0.07
    channels: int = 32
    patch_size: int = 4
    depth: int = 2
    refine_depth: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        self._at_least(1, "channels", "patch_size", "depth", "refine_depth")


@dataclass
class Stage2Config(_SharedConfig):
    """Stage 2: the DVAF and DMSR switches, lambda, and the decoder's training and limits."""
    use_dast_dvaf: bool = True
    use_dmsr: bool = True
    lambda_: float = 0.5
    decoder_width: int = 64
    decoder_blocks: int = 2
    decoder_ff_mult: int = 4
    decoder_pretrain_steps: int = 600
    decoder_pretrain_lr: float = 2e-3
    max_positions: int = 512
    max_report_len: int = 128
    early_stop_loss: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.decoder_pretrain_lr <= 0:
            raise ValueError("decoder_pretrain_lr must be positive")
        self._at_least(0, "lambda_", "decoder_pretrain_steps")
        self._at_least(1, "decoder_width", "decoder_blocks", "decoder_ff_mult",
                       "max_positions", "max_report_len")


_KEY_ALIASES = {"lambda": "lambda_"}


def parse_config_file(path):
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {lineno}: '{raw}' (expected key=value)")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(key, value, kind):
    if not isinstance(value, str):
        return value
    try:
        return _BOOLEANS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ValueError(f"config key '{key}': expected {kind.__name__}, "
                         f"got '{value}'") from None


def make_config(cls, config_path=None, overrides=None, inherited=None):
    """A `cls` config from an optional key=value file plus explicit overrides.

    Unknown keys and values that do not parse are fatal and name the key. A
    key naming a field of `inherited`, the stage-1 config a stage-2 run builds
    on, must repeat that field's value, and is not stored.
    """
    defaults = asdict(cls())
    inherited = asdict(inherited) if inherited else {}
    kwargs = {}
    merged = parse_config_file(config_path) if config_path else {}
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    for key, value in merged.items():
        name = _KEY_ALIASES.get(key, key)
        if name in defaults:
            kwargs[name] = _coerce(key, value, type(defaults[name]))
        elif name in inherited:
            want = inherited[name]
            if _coerce(key, value, type(want)) != want:
                raise ValueError(f"config key '{key}' = {value} disagrees with the "
                                 f"stage-1 checkpoint's {want}")
        else:
            raise ValueError(f"unknown config key '{key}' for {cls.__name__}")
    return cls(**kwargs)


def lr_at(step, cfg):
    """Linear ramp to base_lr over the warmup, then cosine decay to zero."""
    if step < 0 or step > cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    if step < cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    if span == 0:
        return cfg.base_lr
    progress = (step - cfg.warmup_steps) / span
    return cfg.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# -- optimizer ---------------------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay Adam; state exists only for trainable parameters."""

    def __init__(self, named_params, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.params = {n: t for n, t in named_params.items() if t.requires_grad}
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = {n: np.zeros_like(t.data) for n, t in self.params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in self.params.items()}
        self.t = 0

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def step(self, lr):
        grads = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
            grads[name] = g
        t = self.t + 1
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        updates = {}
        for name, p in self.params.items():
            g = grads[name]
            m = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            with np.errstate(all="ignore"):  # a non-finite result raises below
                value = p.data - lr * (m / c1 / (np.sqrt(v / c2) + self.eps)
                                       + self.weight_decay * p.data)
            # the tensor core checks no op that only moves values, so every
            # parameter must stay finite
            if not np.all(np.isfinite(value)):
                raise NonFiniteError(f"update at lr {lr} makes parameter '{name}' non-finite")
            updates[name] = m, v, value
        self.t = t
        for name, (m, v, value) in updates.items():
            self.m[name], self.v[name] = m, v
            self.params[name].data = value


# -- checkpoint persistence -----------------------------------------------------------


def save_checkpoint(path, arrays):
    """Write named arrays plus an optional "meta" entry, a JSON-able dict."""
    store.write(path, CKPT_MAGIC, {k: v for k, v in arrays.items() if k == "meta"},
                {k: v for k, v in arrays.items() if k != "meta"})


def load_checkpoint(path):
    header, arrays = store.read(path, CKPT_MAGIC, CheckpointError)
    return {**arrays, **header}


def _tensor_arrays(model):
    return {name: t.data for name, t in model.named().items()}


def _load_model(arrays, kind, build):
    """Build a model of `kind` through `build(meta)` from the checkpoint's
    meta, then fill every named() tensor from the arrays, frozen."""
    meta = arrays.get("meta")
    found = meta.get("kind") if isinstance(meta, dict) else None
    if found != kind:
        raise CheckpointError(f"expected a {kind} checkpoint, got {found or 'no model kind'}")
    try:
        model = build(meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad {kind} settings: {exc}") from exc
    for name, t in model.named().items():
        if name not in arrays:
            raise CheckpointError(f"missing tensor '{name}'")
        value = np.array(arrays[name], dtype=np.float64)
        if value.shape != t.data.shape:
            raise CheckpointError(f"tensor '{name}' has shape {value.shape}, "
                                  f"expected {t.data.shape}")
        if not np.all(np.isfinite(value)):
            raise CheckpointError(f"non-finite values in tensor '{name}'")
        t.data = value
        t.requires_grad = False
    return model


# -- stage 1 -----------------------------------------------------------------------


@dataclass
class Stage1Model:
    encoder: EncoderParams
    bank: DastBank
    text_encoder: HashTextEncoder
    cfg: Stage1Config

    @staticmethod
    def init(rng, cfg):
        return Stage1Model(
            EncoderParams.init(rng, cfg.patch_size, cfg.channels, cfg.depth),
            DastBank.init(rng, cfg.channels),
            HashTextEncoder(cfg.channels),
            cfg,
        )

    def named(self):
        return {**self.encoder.named(), **self.bank.named()}

    def forward(self, studies):
        """z (N, C), z̄ (C,), refined (14, C) and logits (14,) of one study;
        a list of studies gives them with a leading batch axis, as one graph."""
        if isinstance(studies, list):
            pixels = np.stack([s.pixels for s in studies])
        else:
            pixels = studies.pixels
        z = encode(pixels, self.encoder)
        refined = refine_dasts(self.bank, z, depth=self.cfg.refine_depth)
        logits = classify(refined, self.bank)
        return z, pool_mean(z), refined, logits

    def predict(self, sample):
        _, _, _, logits = self.forward(sample)
        return (1.0 / (1.0 + np.exp(-logits.data)) > 0.5).astype(int)


def stage1_arrays(model):
    return {**_tensor_arrays(model), "meta": {"kind": "stage1", "config": asdict(model.cfg)}}


def stage1_from_arrays(arrays):
    return _load_model(arrays, "stage1", lambda meta: Stage1Model.init(
        np.random.default_rng(0), Stage1Config(**meta["config"])))


class _BatchSchedule:
    """Seeded epoch-reshuffled batch index stream."""

    def __init__(self, n, batch_size, rng):
        if n == 0:
            raise ValueError("the train split is empty: no studies to draw batches from")
        self.n, self.batch_size, self.rng = n, batch_size, rng
        self.queue = deque()

    def next(self):
        while len(self.queue) < self.batch_size:
            self.queue.extend(self.rng.permutation(self.n).tolist())
        return [self.queue.popleft() for _ in range(self.batch_size)]


def _train(opt, steps, lr_of, loss_of, stop=None, log_path=None):
    """The one optimizer loop: up to `steps` steps of `opt`; returns the log.

    Step `step` (from 1) builds `loss, parts = loss_of()`, runs `backward`
    and `opt.step(lr_of(step))`, and logs {"step", "lr", "loss", **parts}.
    The loop ends after a step for which `stop(step)` is true; the log goes
    to `log_path` as JSON lines when one is given.

    Each step holds Python's cyclic garbage collector off, then restores the
    caller's state: its tape is thousands of objects that live until
    `backward`, which the collector would scan again and again, though they
    form no cycles (`backward` releases the tape, reference counting frees it).
    """
    log = []
    for step in range(1, steps + 1):
        lr = lr_of(step)
        enabled = gc.isenabled()
        gc.disable()
        try:
            loss, parts = loss_of()
            opt.zero_grad()
            backward(loss)
            opt.step(lr)
        finally:
            if enabled:
                gc.enable()
        log.append({"step": step, "lr": lr, "loss": loss.item(), **parts})
        if stop is not None and stop(step):
            break
    if log_path:
        Path(log_path).write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in log))
    return log


def run_stage1(cfg, samples, log_path=None):
    """Optimize classification + alignment; returns (model, per-step log).

    Each step is one graph over the batch (`Stage1Model.forward` of a
    list), with the bits of a graph of per-sample forwards.
    """
    rng = np.random.default_rng(cfg.seed)
    model = Stage1Model.init(rng, cfg)
    schedule = _BatchSchedule(len(samples), cfg.batch_size, rng)
    texts = np.stack([model.text_encoder.encode(s.report).data for s in samples])
    outputs = None

    def loss_of():
        nonlocal outputs
        rows = schedule.next()
        batch = [samples[i] for i in rows]
        # The previous step's outputs are freed only here, once this step's
        # arrays lie above them. Freed at the end of their own step, they let
        # malloc hand the top of the heap back to the system, and every step
        # faulted it in again (batch 64 of 32x32 images on a 2-core VM: 4x
        # the page faults, 25% slower steps).
        outputs = model.forward(batch)
        _, pooled, _, logits = outputs
        return stage1_loss(pooled, Tensor(texts[rows]), logits,
                           [s.labels for s in batch], cfg.tau)

    log = _train(AdamW(model.named(), weight_decay=cfg.weight_decay), cfg.total_steps,
                 lambda step: lr_at(step, cfg), loss_of, log_path=log_path)
    return model, log


def macro_f1(pred_rows, true_rows):
    """Binary multilabel macro-F1 with the zero-denominator-is-zero convention."""
    pred = np.asarray(pred_rows) == 1
    true = np.asarray(true_rows) == 1
    counts = zip(np.sum(pred & true, axis=0), np.sum(pred & ~true, axis=0),
                 np.sum(~pred & true, axis=0))
    return float(np.mean([_prf(int(tp), int(fp), int(fn))[2] for tp, fp, fn in counts]))


def stage1_macro_f1(model, samples):
    pred = [model.predict(s) for s in samples]
    true = [s.labels for s in samples]
    return macro_f1(pred, true)


# -- exemplar index over a trained stage-1 model ----------------------------------------


def build_index(model, samples):
    index = dmsr.ExemplarIndex(width=model.encoder.channels,
                               stage1_sha256=store.sha256(_tensor_arrays(model)))
    for s in samples:
        _, z_bar, _, logits = model.forward(s)
        dmsr.add_exemplar(index, dmsr.ExemplarRecord(
            s.study_id, z_bar.data.copy(), logits.data.copy(), s.report))
    return index


# -- stage 2 ------------------------------------------------------------------------


def parameter_checksums(named_params):
    """SHA-256 of each tensor's raw bytes; bit-exact change detection."""
    return {name: hashlib.sha256(t.data.tobytes()).hexdigest()
            for name, t in named_params.items()}


@dataclass
class Stage2Model:
    stage1: Stage1Model
    fusion: FusionParams
    decoder: DecoderParams
    vocab: Vocabulary
    cfg: Stage2Config
    # checksums of every parameter at the phase-A/phase-B boundary
    boundary_checksums: dict = field(default_factory=dict)

    def named(self):
        return {**self.stage1.named(), **self.fusion.named(), **self.decoder.named()}

    def visual_sequence(self, sample):
        """Constant (grad-free) visual sequence V for one study."""
        z, z_bar, _, logits = self.stage1.forward(sample)
        if self.cfg.use_dast_dvaf:
            p = dvaf_pool(self.stage1.bank.tokens, z, self.fusion)
            f = gate_fuse(p, z_bar, self.fusion)
            v = build_visual_sequence(z, f)
        else:
            v = z
        return Tensor(v.data), z_bar.data.copy(), logits.data.copy()

    def retrieved_text(self, index, z_bar, logits, exclude_id):
        if not self.cfg.use_dmsr:
            return ""
        return dmsr.retrieve_report(index, z_bar, logits, lam=self.cfg.lambda_,
                                    exclude_id=exclude_id)


def _stage2_model(cfg, stage1, vocab, rng):
    """The one Stage-2 constructor, for training and for loading."""
    fusion = FusionParams(rng, stage1.encoder.channels, cfg.decoder_width)
    decoder = DecoderParams.init(rng, len(vocab), cfg.decoder_width, cfg.max_positions,
                                 cfg.decoder_blocks, cfg.decoder_ff_mult)
    return Stage2Model(stage1, fusion, decoder, vocab, cfg)


def _check_index(model, index):
    """With retrieval on, the index must come from the model's own stage-1 arrays."""
    if not model.cfg.use_dmsr:
        return
    digest = store.sha256(_tensor_arrays(model.stage1))
    if index.stage1_sha256 != digest:
        raise dmsr.StaleIndexError(
            f"stale index: built from stage-1 arrays {index.stage1_sha256[:12] or '(unknown)'}, "
            f"which does not match this model's stage-1 arrays {digest[:12]}; "
            "rebuild it with build-index from the same stage-1 checkpoint")


@dataclass
class _StudyCache:
    study_id: str
    v_const: Tensor
    target: object
    # (study_id, report) of the top PHASE_A_EXEMPLARS hits, best first; empty
    # with retrieval off
    pool: list

    def exemplar(self, draw=None):
        """The top-1 exemplar text, or with `draw` (a Generator) a uniform
        pick from the pool; "" with retrieval off."""
        if not self.pool:
            return ""
        return self.pool[0 if draw is None else draw.integers(len(self.pool))][1]


def _prepare_caches(model, samples, index):
    """One index query per study, for its top PHASE_A_EXEMPLARS exemplars."""
    reports = {r.study_id: r.report for r in index.records} if model.cfg.use_dmsr else {}
    caches = []
    for s in samples:
        v_const, z_bar, logits = model.visual_sequence(s)
        pool = []
        if model.cfg.use_dmsr:
            hits = dmsr.query(index, z_bar, logits, lam=model.cfg.lambda_,
                              k=PHASE_A_EXEMPLARS, exclude_id=s.study_id)
            pool = [(study_id, reports[study_id]) for study_id, _ in hits]
        caches.append(_StudyCache(s.study_id, v_const, tokenize(s.report, model.vocab),
                                  pool))
    return caches


def _batch_mean_loss(model, caches, draw=None):
    """Mean of the studies' per-token losses, added left to right."""
    terms = []
    for c in caches:
        v_proj = project(c.v_const, model.fusion)
        prompt = assemble_prompt(model.decoder, model.vocab, c.exemplar(draw), v_proj,
                                 c.target)
        terms.append(lm_loss(model.decoder, prompt)[1])
    return sum(terms[1:], terms[0]) * (1.0 / len(terms))


def mean_token_loss(model, caches):
    """Grad-free mean per-token loss over a set of cached studies."""
    with no_grad():
        return _batch_mean_loss(model, caches).item()


def run_stage2(cfg, samples, stage1_ckpt_arrays, index, log_path=None):
    """Decoder pretraining phase, then projection-only optimization.

    The pretraining phase runs the identical prompt layout with the decoder
    trainable so the frozen decoder knows how to read visual prefixes, the
    same way a production run would start from a language model that already
    understands its inputs. The stage-2 contract applies afterwards: only the
    projection matrix and its layer-norm affine receive updates.

    With retrieval on, each pretraining step shows every study in its batch
    one of that study's top PHASE_A_EXEMPLARS exemplars, drawn uniformly
    from a child stream of cfg.seed (the batch order does not move); phase
    B, its early-stop check and generation use the top-1.
    """
    if cfg.use_dmsr and index is None:
        raise ValueError("stage 2 with retrieval enabled requires an exemplar index")
    rng = np.random.default_rng(cfg.seed)
    vocab = Vocabulary.from_corpus([s.report for s in samples])
    model = _stage2_model(cfg, stage1_from_arrays(stage1_ckpt_arrays), vocab, rng)
    _check_index(model, index)
    caches = _prepare_caches(model, samples, index)
    named = model.named()
    schedule = _BatchSchedule(len(caches), cfg.batch_size, rng)

    def batch_loss(draw=None):
        batch = [caches[i] for i in schedule.next()]
        return _batch_mean_loss(model, batch, draw), {}

    def stop(step):
        return (cfg.early_stop_loss > 0 and step % 50 == 0
                and mean_token_loss(model, caches) < cfg.early_stop_loss)

    # phase A: decoder (and initial projection) learn the prompt layout
    projection = stage2_freeze_mask(named)
    apply_freeze(named, {n: n.startswith("decoder/") or projection[n] for n in named})
    # exemplar draws: a child stream of cfg.seed, independent of rng's
    draw = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    _train(AdamW(named, weight_decay=cfg.weight_decay), cfg.decoder_pretrain_steps,
           lambda step: cfg.decoder_pretrain_lr, lambda: batch_loss(draw))

    # phase B: the freeze contract proper
    apply_freeze(named, projection)
    model.boundary_checksums = parameter_checksums(named)
    log = _train(AdamW(named, weight_decay=cfg.weight_decay), cfg.total_steps,
                 lambda step: lr_at(step, cfg), batch_loss, stop, log_path)
    return model, log


def stage2_arrays(model):
    meta = {"kind": "stage2", "config": asdict(model.cfg),
            "stage1": asdict(model.stage1.cfg),
            "vocab": model.vocab.tokens[len(SPECIAL_TOKENS):]}
    return {**_tensor_arrays(model), "meta": meta}


def stage2_from_arrays(arrays):
    def build(meta):
        rng = np.random.default_rng(0)
        stage1 = Stage1Model.init(rng, Stage1Config(**meta["stage1"]))
        return _stage2_model(Stage2Config(**meta["config"]), stage1,
                             Vocabulary(meta["vocab"]), rng)
    return _load_model(arrays, "stage2", build)


def generate_reports(model, samples, index):
    """Greedy reports for every sample, sorted by study id."""
    _check_index(model, index)
    rows = []
    for s in sorted(samples, key=lambda x: x.study_id):
        v_const, z_bar, logits = model.visual_sequence(s)
        retrieved = model.retrieved_text(index, z_bar, logits, exclude_id=s.study_id)
        v_proj = project(v_const, model.fusion)
        text = generate(model.decoder, model.vocab, retrieved, v_proj,
                        model.cfg.max_report_len)
        rows.append({"study_id": s.study_id, "hypothesis": text})
    return rows
