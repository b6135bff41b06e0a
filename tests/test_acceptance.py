"""Acceptance suite: one test per criterion, each printed in the run summary.

The heavyweight fixtures (stage-1 learnability, stage-2 memorization, the
ablation ordering, end-to-end determinism) live here; the per-module suites
stay fast.
"""

import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import make_samples
from test_metrics import cider_oracle
from dast_lab import dmsr
from dast_lab.cli import main as cli_main
from dast_lab.dvaf import FusionParams, attn_pool
from dast_lab.encoder import EncoderParams, ImageSample, SsmBlockParams, selective_scan
from dast_lab.generator import Vocabulary, DecoderParams, apply_freeze, normalize_text, \
    stage2_freeze_mask, tokenize, assemble_prompt, lm_loss
from dast_lab.metrics import Corpus, bleu_n, cider, rouge_l
from dast_lab.pipeline import (
    Stage1Model,
    Stage1Config,
    Stage2Config,
    Stage2Model,
    _prepare_caches,
    build_index,
    generate_reports,
    load_checkpoint,
    lr_at,
    mean_token_loss,
    parameter_checksums,
    run_stage1,
    run_stage2,
    save_checkpoint,
    stage1_arrays,
    stage1_macro_f1,
)
from dast_lab.stage1 import refine_dasts, stage1_loss
from dast_lab.synth import SyntheticSpec, gen_dataset, load_split
from dast_lab.tensor import Tensor, grad_check, scaled_dot_attention, softmax
from dast_lab.dvaf import dvaf_pool, project


def rng(seed=0):
    return np.random.default_rng(seed)


def tiny_8x8_samples(n=2, seed=101):
    r = rng(seed)
    out = []
    reports = ["there is pleural effusion .", "no consolidation seen today ."]
    for i in range(n):
        out.append(ImageSample(pixels=r.uniform(0, 1, (8, 8)), study_id=f"tiny{i}",
                               labels=r.integers(0, 2, 14).tolist(),
                               report=reports[i % len(reports)]))
    return out


# -- criterion 1: gradient fidelity ------------------------------------------------


def test_c01_gradient_fidelity_stage1_and_stage2():
    samples = tiny_8x8_samples()
    cfg = Stage1Config(channels=8, depth=1, patch_size=4, seed=3,
                       total_steps=1, warmup_steps=0, tau=0.07)
    model = Stage1Model.init(rng(3), cfg)
    texts = [model.text_encoder.encode(s.report) for s in samples]
    tensors = list(model.named().values())

    def stage1_objective(_):
        pooled, logits = [], []
        for s in samples:
            _, z_bar, _, lg = model.forward(s)
            pooled.append(z_bar)
            logits.append(lg)
        total, _ = stage1_loss(pooled, texts, logits, [s.labels for s in samples], cfg.tau)
        return total

    t0 = time.time()
    err1 = grad_check(stage1_objective, tensors)
    dt1 = time.time() - t0
    assert err1 < 1e-4, f"stage-1 grad check error {err1}"
    assert dt1 < 60.0

    # stage-2: full LM loss on a 5-token report, every trainable parameter
    for t in model.named().values():
        t.requires_grad = False
    r = rng(5)
    vocab = Vocabulary.from_corpus(["there is pleural effusion ."])
    fusion = FusionParams(r, 8, 12)
    decoder = DecoderParams.init(r, len(vocab), 12, 48, n_blocks=2, ff_mult=2)
    m2 = Stage2Model(model, fusion, decoder, vocab, Stage2Config(use_dmsr=False))
    v_const, _, _ = m2.visual_sequence(samples[0])
    target = tokenize("there is pleural effusion", vocab)
    assert len(target.interior) + 1 == 5  # five predicted tokens incl. EOS

    trainable = {**{n: t for n, t in decoder.named().items()},
                 "dvaf/w_proj": fusion.w_proj, "dvaf/proj_gamma": fusion.proj_gamma,
                 "dvaf/proj_beta": fusion.proj_beta}

    def stage2_objective(_):
        v_proj = project(v_const, fusion)
        prompt = assemble_prompt(decoder, vocab, "no consolidation .", v_proj, target)
        return lm_loss(decoder, prompt)[0]

    t0 = time.time()
    err2 = grad_check(stage2_objective, list(trainable.values()))
    dt2 = time.time() - t0
    assert err2 < 1e-4, f"stage-2 grad check error {err2}"
    assert dt2 < 60.0


# -- criterion 2: attention correctness ----------------------------------------------


def np_softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def test_c02_attention_rows_and_oracles():
    r = rng(7)
    for trial in range(100):
        q_n, k_n, c = r.integers(1, 9), r.integers(1, 9), r.integers(1, 9)
        scale = 10.0 ** r.integers(0, 4)  # up to magnitude 1e3
        q = Tensor(r.normal(size=(q_n, c)) * scale)
        k = Tensor(r.normal(size=(k_n, c)) * scale)
        v = Tensor(r.normal(size=(k_n, c)))
        _, w = scaled_dot_attention(q, k, v)
        assert np.max(np.abs(w.data.sum(axis=1) - 1.0)) < 1e-9

    for trial in range(25):
        c = 8
        dasts = r.normal(size=(14, c))
        z = r.normal(size=(r.integers(2, 12), c))
        # cross-attention oracle (query tokens over patches, residual + LN)
        scores = dasts @ z.T / math.sqrt(c)
        attn = np_softmax(scores, 1) @ z
        pre = dasts + attn
        mu = pre.mean(axis=1, keepdims=True)
        var = ((pre - mu) ** 2).mean(axis=1, keepdims=True)
        expect = (pre - mu) / np.sqrt(var + 1e-5)

        class _Bank:
            tokens = Tensor(dasts)
        got = refine_dasts(_Bank, Tensor(z))
        assert np.max(np.abs(got.data - expect)) < 1e-10

        # self-attention oracle over the 14 rows
        sa_in = Tensor(expect)
        out, weights = scaled_dot_attention(sa_in, sa_in, sa_in)
        e_scores = expect @ expect.T / math.sqrt(c)
        e_w = np_softmax(e_scores, 1)
        assert np.max(np.abs(weights.data - e_w)) < 1e-10
        assert np.max(np.abs(out.data - e_w @ expect)) < 1e-10

        # attention-pool oracle
        query = r.normal(size=c)
        pooled, pw = attn_pool(Tensor(expect), Tensor(query))
        scores_p = expect @ query / math.sqrt(c)
        w_p = np_softmax(scores_p[None, :], 1)[0]
        assert np.max(np.abs(pw.data.reshape(-1) - w_p)) < 1e-10
        assert np.max(np.abs(pooled.data - w_p @ expect)) < 1e-10


# -- criterion 3: retrieval exactness -------------------------------------------------


def test_c03_dmsr_query_equals_oracle():
    r = rng(11)
    for trial in range(200):
        width = int(r.integers(3, 12))
        index = dmsr.ExemplarIndex(width=width)
        for i in range(50):
            dmsr.add_exemplar(index, dmsr.ExemplarRecord(
                f"s{i}", r.normal(size=width), r.normal(size=14), f"r{i}"))
        z = r.normal(size=width)
        logits = r.normal(size=14)
        lam = float(r.uniform(0, 2))
        k = int(r.integers(1, 11))
        exclude = f"s{r.integers(0, 50)}" if r.random() < 0.5 else None
        got = dmsr.query(index, z, logits, lam=lam, k=k, exclude_id=exclude)
        want = dmsr.brute_force_oracle(index, z, logits, lam=lam, k=k, exclude_id=exclude)
        assert got == want  # identical ranking, scores, tie handling

    index = dmsr.ExemplarIndex(width=5)
    for i in range(30):
        dmsr.add_exemplar(index, dmsr.ExemplarRecord(
            f"s{i}", r.normal(size=5), r.normal(size=14), "x"))
    z, logits = r.normal(size=5), r.normal(size=14)
    lam0 = dmsr.query(index, z, logits, lam=0.0, k=30)
    visual = sorted(((rec.study_id, float(np.dot(z, rec.z_bar)
                      / (np.linalg.norm(z) * np.linalg.norm(rec.z_bar))))
                     for rec in index.records), key=lambda t: -t[1])
    assert [s for s, _ in lam0] == [s for s, _ in visual]

    # dominance: A beats B on both terms, so A wins at every lambda
    dom = dmsr.ExemplarIndex(width=3)
    dmsr.add_exemplar(dom, dmsr.ExemplarRecord(
        "A", np.array([1.0, 0.05, 0.0]), np.concatenate([[1.0, 0.1], np.zeros(12)]), "a"))
    dmsr.add_exemplar(dom, dmsr.ExemplarRecord(
        "B", np.array([1.0, 0.9, 0.0]), np.concatenate([[1.0, 0.8], np.zeros(12)]), "b"))
    q_vec = np.array([1.0, 0.0, 0.0])
    q_log = np.concatenate([[1.0], np.zeros(13)])
    for lam in (0.0, 0.1, 0.5, 1.0, 4.0, 25.0):
        assert dmsr.query(dom, q_vec, q_log, lam=lam, k=1)[0][0] == "A"


# -- criterion 4: freeze contract -----------------------------------------------------


def test_c04_freeze_contract_over_100_steps():
    samples = make_samples(8, seed=41, image_size=16, finding_probs=[0.25] * 14)
    cfg1 = Stage1Config(base_lr=2e-3, warmup_steps=8, total_steps=40, batch_size=8,
                        channels=16, depth=1, seed=41, tau=1.0)
    s1, _ = run_stage1(cfg1, samples)
    arrays = stage1_arrays(s1)
    index = build_index(s1, samples)
    cfg2 = Stage2Config(base_lr=3e-3, warmup_steps=10, total_steps=100, batch_size=4,
                        seed=41, decoder_width=24, decoder_pretrain_steps=60,
                        decoder_pretrain_lr=2e-3, max_positions=256)
    model, log = run_stage2(cfg2, samples, arrays, index)
    assert len(log) == 100
    after = parameter_checksums(model.named())
    changed = {n for n, digest in after.items()
               if digest != model.boundary_checksums[n]}
    assert changed == {"dvaf/w_proj", "dvaf/proj_gamma", "dvaf/proj_beta"}
    named = model.named()
    for name, value in arrays.items():
        if name.startswith(("encoder/", "dast/")):
            assert value.tobytes() == named[name].data.tobytes()


# -- criterion 5: stage-1 learnability -------------------------------------------------


@pytest.mark.slow
def test_c05_stage1_learnability(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=200, image_size=32, seed=0), tmp_path)
    train = load_split(tmp_path, "train")
    heldout = load_split(tmp_path, "test")
    cfg = Stage1Config(base_lr=3e-3, warmup_steps=40, total_steps=300, batch_size=64,
                       channels=32, depth=2, seed=0, tau=1.0)
    t0 = time.time()
    model, _ = run_stage1(cfg, train)
    elapsed = time.time() - t0
    train_f1 = stage1_macro_f1(model, train)
    heldout_f1 = stage1_macro_f1(model, heldout)
    assert elapsed < 300.0, f"stage-1 run took {elapsed:.0f}s"
    assert train_f1 >= 0.95, f"train macro-F1 {train_f1:.3f}"
    assert heldout_f1 >= 0.85, f"held-out macro-F1 {heldout_f1:.3f}"


# -- criterion 6: stage-2 memorization -------------------------------------------------


@pytest.mark.slow
def test_c06_stage2_memorization():
    samples = make_samples(10, seed=31, image_size=32, finding_probs=[0.3] * 14,
                           negated_prob=0.3)
    cfg1 = Stage1Config(base_lr=3e-3, warmup_steps=20, total_steps=100, batch_size=10,
                        channels=32, depth=2, seed=31, tau=1.0)
    s1, _ = run_stage1(cfg1, samples)
    arrays = stage1_arrays(s1)
    index = build_index(s1, samples)
    cfg2 = Stage2Config(base_lr=3e-3, warmup_steps=50, total_steps=2000, batch_size=10,
                        seed=31, decoder_width=64, decoder_pretrain_steps=1200,
                        decoder_pretrain_lr=2e-3, max_positions=384, early_stop_loss=0.02)
    model, log = run_stage2(cfg2, samples, arrays, index)
    assert len(log) <= 2000
    caches = _prepare_caches(model, samples, index)
    final = mean_token_loss(model, caches)
    assert final < 0.05, f"mean per-token loss {final:.4f}"
    rows = generate_reports(model, samples, index)
    expected = {s.study_id: normalize_text(s.report) for s in samples}
    for row in rows:
        assert row["hypothesis"] == expected[row["study_id"]], row["study_id"]


# -- criterion 7: ablation ordering ----------------------------------------------------


def _ablation_bleu(train, test, arrays, index, use_fusion, use_retrieval):
    cfg2 = Stage2Config(base_lr=3e-3, warmup_steps=30, total_steps=300, batch_size=8,
                        seed=13, decoder_width=64, decoder_pretrain_steps=500,
                        decoder_pretrain_lr=2e-3, max_positions=384,
                        use_dast_dvaf=use_fusion, use_dmsr=use_retrieval)
    model, _ = run_stage2(cfg2, train, arrays, index if use_retrieval else None)
    rows = generate_reports(model, test, index if use_retrieval else None)
    refs = {s.study_id: s.report for s in test}
    corpus = Corpus([(r["study_id"], r["hypothesis"], refs[r["study_id"]]) for r in rows])
    return bleu_n(corpus, 4)


@pytest.fixture(scope="module")
def ablation_scores(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    gen_dataset(SyntheticSpec(n_studies=500, image_size=32, seed=13), root)
    train = load_split(root, "train")
    test = load_split(root, "test")
    cfg1 = Stage1Config(base_lr=3e-3, warmup_steps=40, total_steps=300, batch_size=64,
                        channels=32, depth=2, seed=13, tau=1.0)
    s1, _ = run_stage1(cfg1, train)
    arrays = stage1_arrays(s1)
    index = build_index(s1, train)
    arms = {"baseline": (False, False), "mid": (True, False), "full": (True, True)}
    # The three arms share nothing after stage 1, so each trains in its own
    # process. The workers inherit the one-thread BLAS setting of conftest.py
    # through the environment, so every arm computes what it would in sequence.
    with ProcessPoolExecutor(len(arms), mp_context=multiprocessing.get_context("spawn")) as pool:
        runs = {name: pool.submit(_ablation_bleu, train, test, arrays, index, *flags)
                for name, flags in arms.items()}
        return {name: run.result() for name, run in runs.items()}


@pytest.mark.slow
def test_c07_ablation_ordering(ablation_scores):
    s = ablation_scores
    # documented tolerance of 0.005 on the inequality involving the middle
    # configuration; the retrieval gain is required outright
    assert s["baseline"] <= s["mid"] + 0.005, f"{s}"
    assert s["mid"] <= s["full"], f"{s}"


# -- criterion 8: metric fixtures ------------------------------------------------------


def test_c08_metric_fixtures():
    c = Corpus([("s0", "a b c d", "a b c d e")])
    assert abs(bleu_n(c, 1) - math.exp(1 - 5 / 4)) < 1e-6

    c = Corpus([("s0", "a c d", "a b c d")])
    assert abs(rouge_l(c) - 2 * 1.0 * 0.75 / 1.75) < 1e-6

    same = Corpus([("s0", "a b c d e", "a b c d e"), ("s1", "f g h i", "f g h i")])
    assert bleu_n(same, 4) == 1.0

    pairs = [("the heart is enlarged today", "the heart is enlarged today"),
             ("lungs are clear bilaterally", "lungs appear clear bilaterally"),
             ("a small basal opacity persists", "small basal opacity has resolved")]
    corpus = Corpus([(f"s{i}", h, r) for i, (h, r) in enumerate(pairs)])
    assert abs(cider(corpus) - cider_oracle(pairs)) < 1e-9


# -- criterion 9: learning-rate schedule ----------------------------------------------


def test_c09_schedule_boundaries():
    cfg = Stage1Config()  # base_lr 1e-4, warmup 500, total 2000
    assert lr_at(0, cfg) == 0.0
    assert abs(lr_at(500, cfg) - 1e-4) < 1e-18
    assert lr_at(cfg.total_steps, cfg) == 0.0
    ramp_side = cfg.base_lr * cfg.warmup_steps / cfg.warmup_steps
    cosine_side = cfg.base_lr * 0.5 * (1 + math.cos(0.0))
    assert abs(ramp_side - cosine_side) < 1e-12


# -- criterion 10: persistence ---------------------------------------------------------


def test_c10_persistence_roundtrips_and_corruption(tmp_path):
    r = rng(53)
    index = dmsr.ExemplarIndex(width=6)
    for i in range(5):
        dmsr.add_exemplar(index, dmsr.ExemplarRecord(
            f"s{i}", r.normal(size=6), r.normal(size=14), f"report {i}"))
    ipath = tmp_path / "x.dmsr"
    dmsr.save(index, ipath)
    back = dmsr.load(ipath)
    assert back == index
    for a, b in zip(index.records, back.records):
        assert a.z_bar.tobytes() == b.z_bar.tobytes()
        assert a.logits.tobytes() == b.logits.tobytes()

    arrays = {"w": r.normal(size=(3, 5)), "b": r.normal(size=4), "s": np.array(2.5)}
    cpath = tmp_path / "x.ckpt"
    save_checkpoint(cpath, arrays)
    loaded = load_checkpoint(cpath)
    for k in arrays:
        assert np.asarray(arrays[k]).tobytes() == loaded[k].tobytes()

    for path, loader, error in ((ipath, dmsr.load, dmsr.IndexFormatError),
                                (cpath, load_checkpoint, Exception)):
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / f"bad_{path.name}"
        bad.write_bytes(bytes(blob))
        with pytest.raises(error):
            loader(bad)


# -- criterion 11: linear-time scan ----------------------------------------------------


def test_c11_selective_scan_linear_time():
    r = rng(59)
    params = SsmBlockParams(r, 32)
    timings = {}
    for n in (64, 128, 256, 512):
        tokens = Tensor(r.normal(size=(n, 32)))
        selective_scan(tokens, params)  # warm-up
        best = math.inf
        for _ in range(15):
            t0 = time.perf_counter()
            selective_scan(tokens, params)
            best = min(best, time.perf_counter() - t0)
        timings[n] = best
    for small, large in ((64, 128), (128, 256), (256, 512)):
        ratio = timings[large] / timings[small]
        assert 1.5 <= ratio <= 2.5, f"N {small}->{large} time ratio {ratio:.2f} ({timings})"


# -- criterion 12: end-to-end determinism ----------------------------------------------


PIPE_S1 = """
base_lr = 2e-3
warmup_steps = 10
total_steps = 60
batch_size = 16
channels = 16
depth = 1
seed = 11
tau = 1.0
"""

PIPE_S2 = """
base_lr = 3e-3
warmup_steps = 5
total_steps = 40
batch_size = 4
channels = 16
depth = 1
seed = 11
decoder_width = 24
decoder_pretrain_steps = 80
decoder_pretrain_lr = 2e-3
max_positions = 256
"""


def _full_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    data = root / "data"
    (root / "s1.cfg").write_text(PIPE_S1)
    (root / "s2.cfg").write_text(PIPE_S2)
    commands = [
        ["gen-data", "--n", "50", "--image-size", "16", "--patch-size", "4",
         "--seed", "5", "--out", str(data)],
        ["train-stage1", "--data", str(data), "--config", str(root / "s1.cfg"),
         "--out-ckpt", str(root / "s1.ckpt")],
        ["build-index", "--data", str(data), "--ckpt", str(root / "s1.ckpt"),
         "--out-index", str(root / "train.dmsr")],
        ["train-stage2", "--data", str(data), "--stage1-ckpt", str(root / "s1.ckpt"),
         "--index", str(root / "train.dmsr"), "--config", str(root / "s2.cfg"),
         "--out-ckpt", str(root / "s2.ckpt")],
        ["generate", "--data-split", str(data / "test.jsonl"),
         "--ckpt", str(root / "s2.ckpt"), "--index", str(root / "train.dmsr"),
         "--out", str(root / "reports.jsonl")],
        ["evaluate", "--hyp", str(root / "reports.jsonl"), "--ref", str(data),
         "--out", str(root / "metrics.json")],
    ]
    for argv in commands:
        assert cli_main(argv) == 0, argv
    return (root / "reports.jsonl").read_bytes(), (root / "metrics.json").read_bytes()


@pytest.mark.slow
def test_c12_full_pipeline_byte_identical(tmp_path):
    reports_a, metrics_a = _full_pipeline(tmp_path / "run1")
    reports_b, metrics_b = _full_pipeline(tmp_path / "run2")
    assert reports_a == reports_b
    assert metrics_a == metrics_b
    metrics = json.loads(metrics_a)
    for key in ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l", "cider", "clinical"):
        assert key in metrics
