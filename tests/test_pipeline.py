import gc
import hashlib
import json
import math
import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import make_samples
from dast_lab import dmsr, pipeline, store
from dast_lab.pipeline import (
    PHASE_A_EXEMPLARS,
    AdamW,
    CheckpointError,
    Stage1Config,
    Stage1Model,
    Stage2Config,
    WorkerError,
    build_index,
    generate_reports,
    load_checkpoint,
    lr_at,
    macro_f1,
    make_config,
    mean_token_loss,
    parameter_checksums,
    run_stage1,
    run_stage2,
    save_checkpoint,
    stage1_arrays,
    stage1_from_arrays,
    stage1_macro_f1,
    stage2_arrays,
    stage2_from_arrays,
    _BatchSchedule,
    _prepare_caches,
)
from dast_lab.encoder import patch_grid
from dast_lab.generator import assemble_prompt
from dast_lab.stage1 import loss_cls, loss_ctl, stage1_loss
from dast_lab.tensor import (
    NonFiniteError,
    Tensor,
    backward,
    concat,
    decay_scan,
    layer_norm,
    scaled_dot_attention,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- schedule -------------------------------------------------------------------


def test_lr_schedule_boundary_values():
    cfg = Stage1Config(total_steps=2000)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(500, cfg) == pytest.approx(1e-4, abs=1e-18)
    assert lr_at(2000, cfg) == 0.0
    mid = 500 + (2000 - 500) // 2
    assert lr_at(mid, cfg) == pytest.approx(5e-5, abs=1e-12)


def test_lr_schedule_continuous_at_warmup_boundary():
    cfg = Stage1Config(base_lr=3e-3, warmup_steps=100, total_steps=400)
    ramp_end = cfg.base_lr * 100 / cfg.warmup_steps
    cosine_start = cfg.base_lr * 0.5 * (1 + math.cos(0.0))
    assert abs(ramp_end - cosine_start) < 1e-12
    assert abs(lr_at(100, cfg) - cfg.base_lr) < 1e-12


def test_lr_schedule_monotone_warmup():
    cfg = Stage1Config(base_lr=1e-3, warmup_steps=10, total_steps=100)
    values = [lr_at(s, cfg) for s in range(11)]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(1e-3)


def test_lr_step_out_of_range():
    cfg = Stage1Config(total_steps=10, warmup_steps=2)
    with pytest.raises(ValueError):
        lr_at(11, cfg)


# -- optimizer -------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_noop():
    p = Tensor([1.5, -2.5], requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.0)
    before = p.data.copy()
    opt.step(1e-2)
    assert np.array_equal(p.data, before)


def test_adamw_single_step_closed_form():
    p = Tensor([2.0], requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step(0.1)
    # bias-corrected m_hat = 1, v_hat = 1 -> update = -lr / (1 + eps)
    expect = 2.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert abs(p.data[0] - expect) < 1e-15


def test_adamw_decoupled_weight_decay():
    p = Tensor([4.0], requires_grad=True)
    opt = AdamW({"p": p}, weight_decay=0.5)
    opt.step(0.1)  # no grad: pure decay
    assert abs(p.data[0] - (4.0 - 0.1 * 0.5 * 4.0)) < 1e-15


def test_adamw_ignores_frozen_params():
    frozen = Tensor([1.0], requires_grad=False)
    live = Tensor([1.0], requires_grad=True)
    opt = AdamW({"frozen": frozen, "live": live})
    assert set(opt.params) == {"live"}
    assert set(opt.m) == {"live"}  # no state for frozen parameters
    frozen.grad = np.array([100.0])  # spoofed
    live.grad = np.array([1.0])
    opt.step(0.1)
    assert frozen.data[0] == 1.0
    assert live.data[0] != 1.0


def test_adamw_nonfinite_grad_aborts_without_partial_update():
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([1.0], requires_grad=True)
    opt = AdamW({"a": a, "b": b}, weight_decay=0.0)
    a.grad = np.array([1.0])
    b.grad = np.array([np.nan])
    with pytest.raises(NonFiniteError, match="'b'"):
        opt.step(0.1)
    assert a.data[0] == 1.0 and b.data[0] == 1.0


def test_adamw_refuses_an_update_that_makes_a_parameter_non_finite():
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([100.0], requires_grad=True)
    opt = AdamW({"a": a, "b": b})
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    # a moves by about 1.01e308, still finite; b by about 2e308, which overflows
    with pytest.raises(NonFiniteError, match="'b'"):
        opt.step(1e308)
    assert a.data[0] == 1.0 and b.data[0] == 100.0 and opt.t == 0


# -- config ---------------------------------------------------------------------


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("base_lr = 0.001\nlambda = 0.25\nuse_dmsr = false\n# comment\n\n")
    cfg = make_config(Stage2Config, path, overrides={"total_steps": 50, "warmup_steps": 5})
    assert cfg.base_lr == 0.001
    assert cfg.lambda_ == 0.25
    assert cfg.use_dmsr is False
    assert cfg.total_steps == 50


def test_config_unknown_key_is_fatal(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("learning_rate=0.1\n")
    with pytest.raises(ValueError, match="learning_rate"):
        make_config(Stage1Config, path)


def test_config_malformed_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("base_lr 0.1\n")
    with pytest.raises(ValueError, match="key=value"):
        make_config(Stage1Config, path)


def test_config_validation():
    for cls in (Stage1Config, Stage2Config):  # the shared checks hold in both stages
        with pytest.raises(ValueError):
            cls(warmup_steps=100, total_steps=50)
        with pytest.raises(ValueError):
            cls(base_lr=0.0)


@pytest.mark.parametrize("key, value", [
    ("batch_size", "abc"), ("base_lr", "fast"), ("use_dmsr", "maybe"),
    *((key, "0") for key in ("channels", "depth", "patch_size", "refine_depth",
                             "decoder_width", "decoder_blocks", "decoder_ff_mult",
                             "max_positions", "max_report_len")),
    ("max_report_len", "-1"), ("decoder_pretrain_steps", "-1"),
    ("decoder_pretrain_lr", "-1e-3"), ("decoder_pretrain_lr", "0"), ("weight_decay", "-0.5"),
    *((key, "nan") for key in ("base_lr", "lambda_", "tau", "early_stop_loss")),
    ("base_lr", "inf"),
])
def test_bad_config_value_fails_naming_its_key(tmp_path, key, value):
    path = tmp_path / "cfg.txt"
    path.write_text(f"{key} = {value}\n")
    owners = [cls for cls in (Stage1Config, Stage2Config) if key in asdict(cls())]
    assert owners
    for cls in owners:  # a shared key fails in both stages
        with pytest.raises(ValueError, match=rf"\b{key}\b"):
            make_config(cls, path)


def test_batch_schedule_refuses_an_empty_split():
    with pytest.raises(ValueError, match="train split is empty"):
        _BatchSchedule(0, 4, rng())


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    arrays = {
        "a/weight": rng(1).normal(size=(3, 4)),
        "b/bias": rng(2).normal(size=7),
        "meta/scalar": np.array(3.25),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, arrays)
    back = load_checkpoint(path)
    assert set(back) == set(arrays)
    for k in arrays:
        assert np.asarray(arrays[k]).tobytes() == back[k].tobytes()
        assert np.asarray(arrays[k]).shape == back[k].shape


def test_checkpoint_magic_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"x": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0x55
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_and_trailing(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"x": np.ones((2, 2))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


# -- stage 1 ---------------------------------------------------------------------


SMOKE_CFG = dict(base_lr=2e-3, warmup_steps=20, total_steps=120, batch_size=16,
                 channels=16, depth=1, seed=7, tau=1.0)


def test_stage1_smoke_learns_planted_patterns():
    # desk-scale sanity only; the >= 0.95 bar is in the acceptance suite
    samples = make_samples(48, seed=3, image_size=32)
    cfg = Stage1Config(base_lr=2e-3, warmup_steps=20, total_steps=200, batch_size=32,
                       channels=32, depth=1, seed=7, tau=1.0)
    model, log = run_stage1(cfg, samples)
    assert stage1_macro_f1(model, samples) >= 0.6
    assert len(log) == 200
    for rec in log[:20]:
        assert rec["lr"] == lr_at(rec["step"], cfg)
        assert abs(rec["loss"] - (rec["loss_cls"] + rec["loss_ctl"])) < 1e-9


def test_training_keeps_the_collector_out_of_its_steps_and_restores_it():
    samples = make_samples(16, seed=5)
    cfg = Stage1Config(**{**SMOKE_CFG, "total_steps": 4, "warmup_steps": 1,
                          "batch_size": 8})
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(count)
    try:
        run_stage1(cfg, samples)
        assert gc.isenabled()
        # a step's tape would cost a few collections; between steps one may run
        assert len(collections) <= cfg.total_steps
        gc.disable()
        run_stage1(cfg, samples)
        assert not gc.isenabled()
    finally:
        gc.callbacks.remove(count)
        gc.enable()


def test_stage1_deterministic_across_runs():
    samples = make_samples(16, seed=5)
    cfg = Stage1Config(**{**SMOKE_CFG, "total_steps": 25, "warmup_steps": 5})
    _, log_a = run_stage1(cfg, samples)
    _, log_b = run_stage1(cfg, samples)
    assert [r["loss"] for r in log_a] == [r["loss"] for r in log_b]


def _per_sample_forward(model, pixels):
    """z̄ and logits of one study from 2-d primitives: the graph that stage 1
    built per sample before it took a batch axis."""
    enc, bank = model.encoder, model.bank
    z = Tensor(patch_grid(pixels, enc.patch_size)) @ enc.w_embed
    for b in enc.blocks:
        x = layer_norm(z)
        h = decay_scan(b.decay_raw.sigmoid(), x @ b.w_in.transpose())
        z = z + (h @ b.w_out.transpose() + b.skip * x)
    refined = bank.tokens
    for _ in range(model.cfg.refine_depth):
        attended, _ = scaled_dot_attention(refined, z, z)
        refined = layer_norm(refined + attended)
    return z.mean(axis=0), (refined * bank.head_w).sum(axis=1) + bank.head_b


def _per_sample_loss(model, batch, tau):
    """Per-sample forwards, an add chain of loss_cls terms, concat + loss_ctl."""
    pooled, cls = [], None
    for s in batch:
        z_bar, logits = _per_sample_forward(model, s.pixels)
        term = loss_cls(logits, s.labels)
        cls = term if cls is None else cls + term
        pooled.append(z_bar.reshape(1, -1))
    texts = [model.text_encoder.encode(s.report).reshape(1, -1) for s in batch]
    return cls * (1.0 / len(batch)) + loss_ctl(concat(pooled), concat(texts), tau)


@pytest.mark.parametrize("batch_size", [1, 3, 8])
@pytest.mark.parametrize("depth,refine_depth", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_batched_step_has_the_bits_of_the_per_sample_graph(batch_size, depth, refine_depth):
    cfg = Stage1Config(channels=8, depth=depth, refine_depth=refine_depth, seed=4, tau=0.5)
    model = Stage1Model.init(rng(4), cfg)
    # train a few steps first, so that every parameter is away from its init
    run = run_stage1(Stage1Config(**{**asdict(cfg), "total_steps": 3, "warmup_steps": 0,
                                     "base_lr": 3e-2, "batch_size": 8}),
                     make_samples(12, seed=6))[0]
    for name, t in model.named().items():
        t.data = run.named()[name].data.copy()
    batch = make_samples(batch_size, seed=8)
    params = model.named()

    expect = _per_sample_loss(model, batch, cfg.tau)
    backward(expect)
    want = {n: t.grad for n, t in params.items()}
    for t in params.values():
        t.zero_grad()
    outputs = model.forward(batch)
    _, pooled, _, logits = outputs
    texts = Tensor(np.stack([model.text_encoder.encode(s.report).data for s in batch]))
    total, _ = stage1_loss(pooled, texts, logits, [s.labels for s in batch], cfg.tau)
    backward(total)

    assert total.item() == expect.item()
    for name, t in params.items():
        assert np.array_equal(t.grad, want[name]), name
    # a study's forward on its own gives the bits of its row in the batch
    for i, s in enumerate(batch):
        for whole, one in zip(outputs, model.forward(s)):
            assert np.array_equal(whole.data[i], one.data)


# SHA-256 of the trained stage-1 arrays and of the step log, per refine depth,
# as written by the per-sample graph stage 1 trained with before its batch axis
GOLDEN_STAGE1 = {
    1: ("819088eff062d5e8d0f117b1cccfc45f86b2cda1c7de80affefafeefd1c4df97",
        "73464e6d92ddf6ca7c069658c969ade6de0a79c1fd32c11e670e9401c7fa54a1"),
    2: ("350a6b781d662b2b43a6d33108a61ed9cfe42faae277f2adfbd18de3fe3540af",
        "575282bf29e0312408a03a6949f50cd99ebb71a863a67171cced133bfb16f6e3"),
}


@pytest.mark.parametrize("refine_depth", sorted(GOLDEN_STAGE1))
def test_stage1_training_writes_its_golden_bits(refine_depth):
    cfg = Stage1Config(base_lr=3e-3, warmup_steps=2, total_steps=6, batch_size=8,
                       channels=8, depth=2, refine_depth=refine_depth, seed=7, tau=1.0)
    model, log = run_stage1(cfg, make_samples(20, seed=7, image_size=16))
    arrays = {n: t.data for n, t in model.named().items()}
    log_digest = hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest()
    assert (store.sha256(arrays), log_digest) == GOLDEN_STAGE1[refine_depth]


def test_stage1_checkpoint_roundtrip_preserves_forward():
    samples = make_samples(8, seed=9)
    cfg = Stage1Config(**{**SMOKE_CFG, "total_steps": 10, "warmup_steps": 2})
    model, _ = run_stage1(cfg, samples)
    back = stage1_from_arrays(stage1_arrays(model))
    for s in samples[:3]:
        _, zb1, _, lg1 = model.forward(s)
        _, zb2, _, lg2 = back.forward(s)
        assert np.array_equal(zb1.data, zb2.data)
        assert np.array_equal(lg1.data, lg2.data)
    assert all(not t.requires_grad for t in back.named().values())


def test_text_encoder_not_in_optimizer_state():
    samples = make_samples(8, seed=11)
    cfg = Stage1Config(**{**SMOKE_CFG, "total_steps": 5, "warmup_steps": 1})
    model, _ = run_stage1(cfg, samples)
    opt = AdamW(model.named())
    assert not any("text" in name for name in opt.params)


def test_macro_f1_conventions():
    assert macro_f1([[1] + [0] * 13], [[1] + [0] * 13]) == pytest.approx(1 / 14)
    assert macro_f1([[0] * 14], [[1] + [0] * 13]) == 0.0


# -- index building ------------------------------------------------------------------


def test_build_index_over_train_split():
    samples = make_samples(12, seed=13)
    cfg = Stage1Config(**{**SMOKE_CFG, "total_steps": 10, "warmup_steps": 2})
    model, _ = run_stage1(cfg, samples)
    index = build_index(model, samples)
    assert len(index) == 12
    assert index.width == 16
    _, z_bar, _, logits = model.forward(samples[0])
    from dast_lab.dmsr import query
    top = query(index, z_bar.data, logits.data, lam=1.0, k=1)
    assert top[0][0] == samples[0].study_id  # finds itself without exclusion


# -- stage 2 -----------------------------------------------------------------------


STAGE2_CFG = dict(base_lr=3e-3, warmup_steps=10, total_steps=60, batch_size=4,
                  seed=21, decoder_width=24, decoder_pretrain_steps=80,
                  decoder_pretrain_lr=2e-3, max_positions=256)


@pytest.fixture(scope="module")
def stage2_setup():
    samples = make_samples(6, seed=17, finding_probs=[0.25] * 14, negated_prob=0.15)
    cfg1 = Stage1Config(**{**SMOKE_CFG, "total_steps": 40})
    s1_model, _ = run_stage1(cfg1, samples)
    arrays = stage1_arrays(s1_model)
    index = build_index(s1_model, samples)
    cfg2 = Stage2Config(**STAGE2_CFG)
    model, log = run_stage2(cfg2, samples, arrays, index)
    return samples, arrays, index, model, log


def test_stage2_trains_below_uniform_baseline(stage2_setup):
    samples, _, index, model, log = stage2_setup
    caches = _prepare_caches(model, samples, index)
    final = mean_token_loss(model, caches)
    assert final < 2.0  # untrained decoder sits near ln(vocab) ~ 3.7
    assert [r["step"] for r in log] == list(range(1, len(log) + 1))


def test_mean_token_loss_restores_trainability_when_it_raises(stage2_setup):
    samples, _, index, model, _ = stage2_setup
    cache = _prepare_caches(model, samples[:1], index)[0]
    too_long = replace(cache, target=replace(
        cache.target, ids=cache.target.ids * model.cfg.max_positions))
    before = {n: t.requires_grad for n, t in model.named().items()}
    assert any(before.values())
    with pytest.raises(ValueError, match="exceeds maximum"):
        mean_token_loss(model, [too_long])
    assert {n: t.requires_grad for n, t in model.named().items()} == before


def test_phase_a_pool_starts_with_the_top1_exemplar(stage2_setup):
    samples, _, index, model, _ = stage2_setup
    caches = _prepare_caches(model, samples, index)
    for s, cache in zip(samples, caches):
        _, z_bar, logits = model.visual_sequence(s)
        top1 = dmsr.retrieve_report(index, z_bar, logits, lam=model.cfg.lambda_,
                                    exclude_id=s.study_id)
        assert cache.pool[0][1] == cache.exemplar() == top1
        ids = [study_id for study_id, _ in cache.pool]
        assert len(set(ids)) == len(ids) <= PHASE_A_EXEMPLARS
        assert s.study_id not in ids


def test_stage2_with_retrieval_is_deterministic(stage2_setup):
    samples, arrays, index, model, log = stage2_setup
    assert model.cfg.use_dmsr
    again, log_again = run_stage2(Stage2Config(**STAGE2_CFG), samples, arrays, index)
    assert log_again == log
    first, second = model.named(), again.named()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name].data.tobytes() == second[name].data.tobytes(), name


def test_stage2_freeze_contract(stage2_setup):
    _, arrays, _, model, _ = stage2_setup
    named = model.named()
    after = parameter_checksums(named)
    changed = {n for n in after if after[n] != model.boundary_checksums[n]}
    assert changed == {"dvaf/w_proj", "dvaf/proj_gamma", "dvaf/proj_beta"}
    # encoder and disease tokens also bit-equal to the stage-1 checkpoint itself
    for name in arrays:
        if name.startswith(("encoder/", "dast/")):
            assert arrays[name].tobytes() == named[name].data.tobytes()


def test_stage2_restores_a_disabled_collector(stage2_setup):
    samples, arrays, index, _, _ = stage2_setup
    cfg = Stage2Config(**{**STAGE2_CFG, "decoder_pretrain_steps": 2, "total_steps": 2,
                          "warmup_steps": 1})
    gc.disable()
    try:
        run_stage2(cfg, samples, arrays, index)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_stage2_requires_index_when_retrieval_enabled(stage2_setup):
    samples, arrays, _, _, _ = stage2_setup
    cfg = Stage2Config(**{**STAGE2_CFG, "total_steps": 1, "warmup_steps": 0,
                      "decoder_pretrain_steps": 1})
    with pytest.raises(ValueError, match="index"):
        run_stage2(cfg, samples, arrays, None)


def test_stage2_baseline_mode_uses_patch_tokens_only(stage2_setup):
    samples, arrays, index, _, _ = stage2_setup
    cfg = Stage2Config(**{**STAGE2_CFG, "total_steps": 2, "warmup_steps": 0,
                      "decoder_pretrain_steps": 2,
                      "use_dast_dvaf": False, "use_dmsr": False})
    model, _ = run_stage2(cfg, samples, arrays, None)
    v, _, _ = model.visual_sequence(samples[0])
    n_patches = (16 // 4) ** 2
    assert v.data.shape[0] == n_patches  # no fusion row appended


def test_stage2_fusion_row_appended_when_enabled(stage2_setup):
    _, _, index, model, _ = stage2_setup
    samples = make_samples(2, seed=23)
    v, _, _ = model.visual_sequence(samples[0])
    assert v.data.shape[0] == (16 // 4) ** 2 + 1


def test_stage2_checkpoint_roundtrip_generation_identical(stage2_setup, tmp_path):
    samples, _, index, model, _ = stage2_setup
    path = tmp_path / "stage2.ckpt"
    save_checkpoint(path, stage2_arrays(model))
    back = stage2_from_arrays(load_checkpoint(path))
    a = generate_reports(model, samples[:3], index)
    b = generate_reports(back, samples[:3], index)
    assert a == b
    assert [r["study_id"] for r in a] == sorted(r["study_id"] for r in a)


# Length and SHA-256 of the phase-B log, SHA-256 of the trained stage-2 arrays
# and of the decoded rows, with DVAF and DMSR on, per early-stop loss: at 0
# all 100 phase-B steps run; 100.0 lies above the loss, so the first check
# (after step 50) stops the run
GOLDEN_STAGE2 = {
    0.0: (100, "90d73e4796413f4a928fcae6950f167319315eb9fcead801631b2a436fae1874",
          "14167806e5ddf2391aaf41cc857264173465cfbeea96b23cd7e38a07b1df7465",
          "a7b54df584b1226f38111e08c085b606dc946b0d39cd7c923e4d915694165d6c"),
    100.0: (50, "d75f5a487dcd18a73cd8d095c70f9509af1cca65fdf7c723b3579d1644562701",
            "911f95507876b84895c15885d2ede8ef3598c4761a2aea4929f42282ac7fd584",
            "a7b54df584b1226f38111e08c085b606dc946b0d39cd7c923e4d915694165d6c"),
}


@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("early_stop_loss", sorted(GOLDEN_STAGE2))
def test_stage2_training_writes_its_golden_bits(early_stop_loss, processes, monkeypatch):
    # two processes split each batch of 2 one study each; the bits stay the same
    monkeypatch.setattr(pipeline, "_stage2_processes", lambda: processes)
    samples = make_samples(6, seed=29, image_size=16)
    cfg1 = Stage1Config(base_lr=3e-3, warmup_steps=2, total_steps=6, batch_size=4,
                        channels=8, depth=1, seed=31, tau=1.0)
    stage1, _ = run_stage1(cfg1, samples)
    index = build_index(stage1, samples)
    cfg = Stage2Config(base_lr=3e-3, warmup_steps=10, total_steps=100, batch_size=2,
                       seed=37, decoder_width=24, decoder_blocks=1,
                       decoder_pretrain_steps=80, decoder_pretrain_lr=5e-3,
                       max_positions=192, max_report_len=24,
                       early_stop_loss=early_stop_loss)
    assert cfg.use_dast_dvaf and cfg.use_dmsr
    model, log = run_stage2(cfg, samples, stage1_arrays(stage1), index)
    rows = generate_reports(model, samples, index)
    arrays = {n: t.data for n, t in model.named().items()}
    digest = [hashlib.sha256(json.dumps(x, sort_keys=True).encode()).hexdigest()
              for x in (log, rows)]
    assert (len(log), store.sha256(arrays), *digest) == GOLDEN_STAGE2[early_stop_loss]


def test_stage2_deterministic(stage2_setup):
    samples, arrays, index, _, _ = stage2_setup
    cfg = Stage2Config(**{**STAGE2_CFG, "total_steps": 8, "warmup_steps": 2,
                      "decoder_pretrain_steps": 10})
    _, log_a = run_stage2(cfg, samples, arrays, index)
    _, log_b = run_stage2(cfg, samples, arrays, index)
    assert [r["loss"] for r in log_a] == [r["loss"] for r in log_b]


# -- the stage-2 step worker ----------------------------------------------------------


SHORT_STAGE2 = {**STAGE2_CFG, "decoder_pretrain_steps": 3, "total_steps": 3,
                "warmup_steps": 1}


@contextmanager
def _within(seconds):
    """Fail with TimeoutError rather than hang past `seconds`."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _in_worker_only(monkeypatch, action):
    """Patch lm_loss so that it runs `action()` first in any process but this one."""
    parent, real = os.getpid(), pipeline.lm_loss

    def lm_loss(*args):
        if os.getpid() != parent:
            action()
        return real(*args)
    monkeypatch.setattr(pipeline, "lm_loss", lm_loss)


def test_stage2_two_processes_give_the_bits_of_one(stage2_setup, monkeypatch):
    # batch 5: the worker builds studies 0-1 and this process 2-4, so both
    # halves add several studies' contributions to each parameter
    samples, arrays, index, _, _ = stage2_setup
    cfg = Stage2Config(**{**SHORT_STAGE2, "batch_size": 5})
    runs = []
    for processes in (1, 2):
        monkeypatch.setattr(pipeline, "_stage2_processes", lambda p=processes: p)
        model, log = run_stage2(cfg, samples, arrays, index)
        runs.append((store.sha256({n: t.data for n, t in model.named().items()}),
                     model.boundary_checksums, log))
    assert runs[0] == runs[1]


def test_stage2_worker_exception_reaches_the_caller(stage2_setup, monkeypatch):
    samples, arrays, index, _, _ = stage2_setup
    monkeypatch.setattr(pipeline, "_stage2_processes", lambda: 2)

    def fail():
        raise ZeroDivisionError("raised in the worker's half")
    _in_worker_only(monkeypatch, fail)
    with _within(60), pytest.raises(ZeroDivisionError, match="^raised in the worker's half$") \
            as raised:
        run_stage2(Stage2Config(**SHORT_STAGE2), samples, arrays, index)
    assert isinstance(raised.value.__cause__, WorkerError)
    assert "in fail" in str(raised.value.__cause__)  # the worker's traceback
    assert multiprocessing.active_children() == []


def test_stage2_killed_worker_is_named_without_a_hang(stage2_setup, monkeypatch):
    samples, arrays, index, _, _ = stage2_setup
    monkeypatch.setattr(pipeline, "_stage2_processes", lambda: 2)
    _in_worker_only(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    start = time.monotonic()
    with _within(60), pytest.raises(WorkerError, match="stage2-step-worker .*died"):
        run_stage2(Stage2Config(**SHORT_STAGE2), samples, arrays, index)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("processes", [1, 2])
def test_stage2_leaves_no_process_behind(stage2_setup, monkeypatch, processes):
    samples, arrays, index, _, _ = stage2_setup
    monkeypatch.setattr(pipeline, "_stage2_processes", lambda: processes)
    forked = []
    real = pipeline._StepWorker.__init__

    def init(self, *args):
        real(self, *args)
        forked.append(self.proc.pid)
    monkeypatch.setattr(pipeline._StepWorker, "__init__", init)
    _, log = run_stage2(Stage2Config(**SHORT_STAGE2), samples, arrays, index)
    assert len(log) == SHORT_STAGE2["total_steps"]
    assert len(forked) == (2 if processes == 2 else 0)  # one per phase
    assert multiprocessing.active_children() == []


def test_stage2_forks_no_worker_beside_another_thread():
    # a fork copies no other thread, nor a lock that thread holds
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert pipeline._stage2_processes() == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


def test_stage2_refuses_an_over_long_prompt_before_any_step(stage2_setup, monkeypatch):
    samples, arrays, index, model, _ = stage2_setup
    lengths = {}
    for c in _prepare_caches(model, samples, index):
        v_proj = pipeline.project(c.v_const, model.fusion)
        for exemplar_id, text in c.pool:
            prompt = assemble_prompt(model.decoder, model.vocab, text, v_proj, c.target)
            lengths[c.study_id, exemplar_id] = prompt.embeddings.data.shape[0]
    longest = max(lengths.values())
    steps = []
    monkeypatch.setattr(AdamW, "step", lambda self, lr: steps.append(lr))
    cfg = Stage2Config(**{**SHORT_STAGE2, "max_positions": longest - 1})
    with pytest.raises(ValueError) as raised:
        run_stage2(cfg, samples, arrays, index)
    assert steps == []
    message = str(raised.value)
    assert f"length {longest}," in message
    assert any(f"study {study_id}:" in message and f"exemplar {exemplar_id} " in message
               for (study_id, exemplar_id), n in lengths.items() if n == longest)
    # at the longest length itself, every prompt fits
    cfg = Stage2Config(**{**SHORT_STAGE2, "max_positions": longest})
    _prepare_caches(pipeline._stage2_model(cfg, model.stage1, model.vocab, rng(0)),
                    samples, index)
