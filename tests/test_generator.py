import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dast_lab import generator
from dast_lab.generator import (
    BOS,
    EOS,
    SEP,
    DecoderParams,
    Vocabulary,
    apply_freeze,
    assemble_prompt,
    decoder_hidden,
    detokenize,
    generate,
    lm_loss,
    normalize_text,
    sequence_logits,
    split_words,
    stage2_freeze_mask,
    token_cross_entropy,
    tokenize,
)
from dast_lab.tensor import Tensor, backward, gather_rows, grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


REPORTS = [
    "The chest is clear. No pleural effusion.",
    "There is cardiomegaly. Support device in place.",
    "Mild pulmonary edema, without consolidation.",
]


def vocab():
    return Vocabulary.from_corpus(REPORTS)


def tiny_decoder(v, width=12, seed=0, max_positions=64, n_blocks=2):
    return DecoderParams.init(rng(seed), len(v), width, max_positions, n_blocks=n_blocks)


def sharp_decoder(v, scale=20.0, **kwargs):
    """A tiny decoder with larger weights: less uniform logits, earlier EOS."""
    d = tiny_decoder(v, **kwargs)
    for t in d.named().values():
        t.data *= scale
    return d


# -- tokenizer ------------------------------------------------------------------


def test_tokenize_splits_words_and_punctuation():
    v = vocab()
    seq = tokenize("No acute disease.", v)
    assert [v.tokens[i] if i >= 5 else "<unk>" for i in seq.interior] \
        == ["no", "<unk>", "<unk>", "."]
    v2 = Vocabulary.from_corpus(["no acute disease ."])
    seq2 = tokenize("No acute disease.", v2)
    assert [v2.tokens[i] for i in seq2.interior] == ["no", "acute", "disease", "."]


def test_tokenize_empty_string():
    seq = tokenize("", vocab())
    assert seq.ids == [BOS, EOS]


def test_roundtrip_normalized_equality():
    v = vocab()
    for text in REPORTS * 3:
        seq = tokenize(text, v)
        assert normalize_text(detokenize(seq, v)) == normalize_text(text)


def test_vocab_specials_are_dense_and_distinct():
    v = vocab()
    assert v.tokens[:5] == ["<pad>", "<bos>", "<eos>", "<sep>", "<unk>"]
    assert len(set(v.tokens)) == len(v.tokens)


# -- prompt assembly -------------------------------------------------------------


def test_empty_retrieved_layout_starts_with_sep():
    v = vocab()
    d = tiny_decoder(v)
    v_proj = Tensor(rng(1).normal(size=(3, 12)))
    prompt = assemble_prompt(d, v, "", v_proj, tokenize("the chest is clear .", v))
    expect_first = d.tok_emb.data[SEP] + d.pos_emb.data[0]
    assert np.allclose(prompt.embeddings.data[0], expect_first)
    assert prompt.n_prefix == 3


def test_prefix_row_count_matches_visual_rows():
    v = vocab()
    d = tiny_decoder(v)
    prompt = assemble_prompt(d, v, "no pleural effusion .",
                             Tensor(rng(2).normal(size=(3, 12))),
                             tokenize("cardiomegaly .", v))
    assert prompt.n_prefix == 3


def test_loss_positions_cover_target_exactly():
    v = vocab()
    d = tiny_decoder(v)
    target = tokenize("there is cardiomegaly .", v)
    prompt = assemble_prompt(d, v, "the chest is clear .",
                             Tensor(rng(3).normal(size=(2, 12))), target)
    t = len(target.interior) + 1  # includes the EOS prediction
    assert len(prompt.target_ids) == t
    assert len(prompt.loss_positions) == t
    assert prompt.loss_positions[-1] == prompt.embeddings.data.shape[0] - 1


def test_overlong_sequence_rejected():
    v = vocab()
    d = tiny_decoder(v, max_positions=8)
    with pytest.raises(ValueError, match="exceeds"):
        assemble_prompt(d, v, "the chest is clear . no pleural effusion .",
                        Tensor(rng(4).normal(size=(4, 12))),
                        tokenize("cardiomegaly .", v))


def test_positions_do_not_depend_on_exemplar_length():
    v = vocab()
    d = tiny_decoder(v, seed=13)
    v_proj = Tensor(rng(14).normal(size=(3, 12)))
    target = tokenize("there is cardiomegaly .", v)
    base = assemble_prompt(d, v, "", v_proj, target).embeddings.data
    # no exemplar: row i takes position i, bit for bit as before
    rows = np.concatenate([d.tok_emb.data[[SEP]], (v_proj @ d.w_prefix).data,
                           d.tok_emb.data[target.ids[:-1]]])
    assert np.array_equal(base, rows + d.pos_emb.data[:len(rows)])
    for exemplar in ("cardiomegaly .", "the chest is clear . no pleural effusion ."):
        r_ids = [v.id(t) for t in split_words(exemplar)]
        k = len(r_ids)
        emb = assemble_prompt(d, v, exemplar, v_proj, target).embeddings.data
        # SEP, the visual rows, BOS and the target keep their embeddings
        assert np.array_equal(emb[k:], base)
        # the exemplar takes the last k slots of the position table
        assert np.array_equal(emb[:k], d.tok_emb.data[r_ids] + d.pos_emb.data[-k:])


# -- language modeling loss --------------------------------------------------------


def test_uniform_logits_loss_is_log_vocab():
    words = [f"w{i}" for i in range(11)]  # 11 + 5 specials = 16
    v = Vocabulary(words)
    assert len(v) == 16
    d = tiny_decoder(v)
    d.tok_emb = Tensor(np.zeros((16, 12)), requires_grad=True)  # logits all zero
    prompt = assemble_prompt(d, v, "", Tensor(rng(5).normal(size=(2, 12))),
                             tokenize("w0 w3 w5", v))
    total, mean = lm_loss(d, prompt)
    assert abs(mean.item() - math.log(16.0)) < 1e-9
    assert abs(total.item() - 4 * math.log(16.0)) < 1e-9


def test_oracle_logit_gives_zero_loss():
    logits = np.full((1, 8), -50.0)
    logits[0, 3] = 50.0
    ce = token_cross_entropy(Tensor(logits), np.array([3]))
    assert ce.item() < 1e-30


def test_lm_loss_grad_check_small():
    v = vocab()
    d = tiny_decoder(v, width=6, seed=7, n_blocks=1)
    v_proj = Tensor(rng(8).normal(size=(2, 6)))
    target = tokenize("no pleural effusion .", v)
    tensors = list(d.named().values())

    def f(_):
        prompt = assemble_prompt(d, v, "cardiomegaly .", v_proj, target)
        return lm_loss(d, prompt)[0]

    assert grad_check(f, tensors, eps=1e-5) < 1e-4


def test_causality_over_target_positions():
    v = vocab()
    d = tiny_decoder(v, seed=9)
    v_proj = Tensor(rng(10).normal(size=(3, 12)))
    a = assemble_prompt(d, v, "the chest is clear .", v_proj,
                        tokenize("there is cardiomegaly .", v))
    b = assemble_prompt(d, v, "the chest is clear .", v_proj,
                        tokenize("there is pneumonia !", v))
    la = sequence_logits(d, a.embeddings).data
    lb = sequence_logits(d, b.embeddings).data
    # identical up to and including the position of the diverging token
    first_diff = 2  # targets diverge at their third token
    upto = a.loss_positions[first_diff] + 1
    assert np.array_equal(la[:upto], lb[:upto])
    assert not np.allclose(la[upto:], lb[upto:])


def test_prefix_conditioning_reaches_logits():
    v = vocab()
    d = tiny_decoder(v, seed=11)
    target = tokenize("cardiomegaly .", v)
    p1 = assemble_prompt(d, v, "", Tensor(rng(12).normal(size=(2, 12))), target)
    p2 = assemble_prompt(d, v, "", Tensor(np.zeros((2, 12))), target)
    l1 = sequence_logits(d, p1.embeddings).data[p1.loss_positions]
    l2 = sequence_logits(d, p2.embeddings).data[p2.loss_positions]
    assert not np.allclose(l1, l2)


# -- generation -----------------------------------------------------------------------


def sgd_memorize(d, v, text, v_proj, steps=400, lr=0.05):
    tensors = [t for t in d.named().values()]
    target = tokenize(text, v)
    for _ in range(steps):
        for t in tensors:
            t.zero_grad()
        total, _ = lm_loss(d, assemble_prompt(d, v, "", v_proj, target))
        backward(total)
        for t in tensors:
            if t.grad is not None:
                t.data -= lr * t.grad
    return d


def test_generate_memorized_report_verbatim():
    v = vocab()
    d = tiny_decoder(v, width=16, seed=13)
    v_proj = Tensor(rng(14).normal(size=(2, 16)))
    text = "there is cardiomegaly . no pleural effusion ."
    sgd_memorize(d, v, text, v_proj)
    out = generate(d, v, "", v_proj, max_len=32)
    assert out == normalize_text(text)


def test_generate_max_len_zero_is_empty():
    v = vocab()
    d = tiny_decoder(v)
    assert generate(d, v, "", Tensor(rng(15).normal(size=(2, 12))), 0) == ""


def test_generate_deterministic():
    v = vocab()
    d = tiny_decoder(v, seed=16)
    v_proj = Tensor(rng(17).normal(size=(3, 12)))
    a = generate(d, v, "no pneumothorax .", v_proj, 20)
    b = generate(d, v, "no pneumothorax .", v_proj, 20)
    assert a == b


def full_recompute_generate(params, vocab, retrieved_text, v_proj, max_len):
    """Reference greedy decoder: reruns the whole sequence for every token."""
    r_ids = [vocab.id(t) for t in split_words(retrieved_text)] if retrieved_text else []
    prefix = (v_proj @ params.w_prefix).data
    out_ids = []
    while len(out_ids) < max_len:
        tail = [BOS] + out_ids
        total = len(r_ids) + 1 + prefix.shape[0] + len(tail)
        if total > params.max_positions:
            break
        emb_rows = np.concatenate([
            params.tok_emb.data[r_ids + [SEP]],
            prefix,
            params.tok_emb.data[tail],
        ], axis=0)
        positions = (np.arange(total) - len(r_ids)) % params.max_positions
        emb = Tensor(emb_rows + params.pos_emb.data[positions])
        logits = sequence_logits(params, emb).data[-1]
        nxt = int(np.argmax(logits))
        if nxt == EOS:
            break
        out_ids.append(nxt)
    return detokenize(out_ids, vocab)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), width=st.integers(8, 16), n_blocks=st.integers(1, 2),
       retrieved=st.lists(st.sampled_from(vocab().tokens[5:]), max_size=10),
       n_prefix=st.integers(1, 4), max_len=st.integers(0, 20),
       spare=st.integers(-2, 24), scale=st.sampled_from([1.0, 20.0]))
def test_generate_matches_full_recompute(seed, width, n_blocks, retrieved, n_prefix,
                                         max_len, spare, scale):
    v = vocab()
    head = len(retrieved) + 1 + n_prefix + 1
    max_positions = max(head + spare, 1)  # spare < max_len hits the cap mid-decode
    d = sharp_decoder(v, scale, width=width, seed=seed, max_positions=max_positions,
                      n_blocks=n_blocks)
    v_proj = Tensor(rng(seed + 1).normal(size=(n_prefix, width)))
    text = " ".join(retrieved)
    want = full_recompute_generate(d, v, text, v_proj, max_len)
    if head > max_positions:
        assert want == ""
        with pytest.raises(ValueError, match="exceeds"):
            generate(d, v, text, v_proj, max_len)
    else:
        assert generate(d, v, text, v_proj, max_len) == want


def test_generate_rejects_overlong_head():
    v = vocab()
    d = tiny_decoder(v, max_positions=8)
    # 5 retrieved words + SEP + 2 prefix rows + BOS = 9 rows
    with pytest.raises(ValueError,
                       match="assembled sequence length 9 exceeds maximum 8"):
        generate(d, v, "no pleural effusion . cardiomegaly",
                 Tensor(rng(18).normal(size=(2, 12))), 4)


def test_generate_runs_head_once_then_one_row_per_token(monkeypatch):
    v = vocab()
    d = sharp_decoder(v, seed=19, max_positions=40)
    rows = []
    record = rows.append
    inner = generator.sequence_logits

    def counting(params, embeddings, past=None, rows=None):
        record(embeddings.data.shape[0])
        return inner(params, embeddings, past=past, rows=rows)

    monkeypatch.setattr(generator, "sequence_logits", counting)
    out = generate(d, v, "the chest is clear .", Tensor(rng(20).normal(size=(3, 12))), 12)
    n_tokens = len(out.split())
    assert rows[0] == 5 + 1 + 3 + 1
    assert rows[1:] == [1] * (len(rows) - 1)
    assert len(rows) in (n_tokens, n_tokens + 1)  # + 1 when EOS ends the report


# -- key/value cache ---------------------------------------------------------------------


def cache_fixture(seed=21, rows=9):
    return sharp_decoder(vocab(), seed=seed), Tensor(rng(seed + 1).normal(size=(rows, 12)))


def test_empty_cache_is_bit_identical_to_no_cache():
    d, x = cache_fixture()
    past = [[None, None]] * len(d.blocks)
    assert np.array_equal(decoder_hidden(d, x, past=past).data, decoder_hidden(d, x).data)


def test_rows_one_at_a_time_match_full_pass():
    d, x = cache_fixture()
    full = decoder_hidden(d, x).data
    past = [[None, None] for _ in d.blocks]
    for i in range(x.data.shape[0]):
        row = decoder_hidden(d, Tensor(x.data[i:i + 1]), past=past).data
        assert np.abs(row - full[i:i + 1]).max() < 1e-9
    assert [k.data.shape[0] for k, _ in past] == [x.data.shape[0]] * len(d.blocks)
    assert [v.data.shape[0] for _, v in past] == [x.data.shape[0]] * len(d.blocks)


def test_split_at_any_point_matches_full_pass():
    d, x = cache_fixture()
    full = decoder_hidden(d, x).data
    s = x.data.shape[0]
    for m in range(1, s):
        past = [[None, None] for _ in d.blocks]
        first = decoder_hidden(d, Tensor(x.data[:m]), past=past).data
        rest = decoder_hidden(d, Tensor(x.data[m:]), past=past).data
        assert np.abs(np.concatenate([first, rest]) - full).max() < 1e-9
        assert all(k.data.shape[0] == s and v.data.shape[0] == s for k, v in past)


# -- row selection ----------------------------------------------------------------------


def selection_prompt(d):
    v = vocab()
    return assemble_prompt(d, v, "the chest is clear .", Tensor(rng(24).normal(size=(3, 12))),
                           tokenize("there is cardiomegaly . no effusion .", v))


@pytest.mark.parametrize("n_blocks", [1, 2])
@pytest.mark.parametrize("cached", [0, 4])
@pytest.mark.parametrize("which", ["loss", "last"])
def test_selected_rows_match_the_full_pass(n_blocks, cached, which):
    d = sharp_decoder(vocab(), seed=23, n_blocks=n_blocks)
    prompt = selection_prompt(d)
    x = prompt.embeddings.data
    r = prompt.loss_positions - cached if which == "loss" else np.array([-1])
    passes = []
    for rows in (None, r):
        past = None
        if cached:
            past = [[None, None] for _ in d.blocks]
            decoder_hidden(d, Tensor(x[:cached]), past=past)
        out = decoder_hidden(d, Tensor(x[cached:]), past=past, rows=rows).data
        passes.append((out, past))
    (full, full_past), (picked, picked_past) = passes
    assert picked.shape == (len(r), d.width)
    assert np.abs(picked - full[r]).max() < 1e-12
    if cached:  # the selecting pass still extends the cache by every row
        for (k, v), (k_ref, v_ref) in zip(picked_past, full_past):
            assert np.array_equal(k.data, k_ref.data) and np.array_equal(v.data, v_ref.data)


def test_lm_loss_matches_an_all_rows_reference():
    d = sharp_decoder(vocab(), seed=23)
    named = d.named()

    def all_rows(p):
        logits = gather_rows(sequence_logits(d, p.embeddings), p.loss_positions)
        return token_cross_entropy(logits, p.target_ids).sum()

    results = []
    for loss_of in (lambda p: lm_loss(d, p)[0], all_rows):
        for t in named.values():
            t.zero_grad()
        loss = loss_of(selection_prompt(d))
        backward(loss)
        results.append((loss.item(), {n: t.grad.copy() for n, t in named.items()}))
    (value, grads), (want, want_grads) = results
    assert abs(value - want) <= 1e-10 * abs(want)
    for name, g in want_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-10 * np.abs(g).max(), name


# -- freezing ---------------------------------------------------------------------------


def test_apply_freeze_sets_flags_and_validates():
    v = vocab()
    d = tiny_decoder(v)
    named = d.named()
    mask = {name: False for name in named}
    mask["decoder/tok_emb"] = True
    apply_freeze(named, mask)
    assert named["decoder/tok_emb"].requires_grad
    assert not named["decoder/pos_emb"].requires_grad
    with pytest.raises(ValueError, match="mask"):
        apply_freeze(named, {"decoder/tok_emb": True})


def test_stage2_mask_trains_projection_path_only():
    fake = {name: Tensor(np.zeros(1), requires_grad=True)
            for name in ["encoder/w_embed", "dast/tokens", "dvaf/w_proj",
                         "dvaf/proj_gamma", "dvaf/proj_beta", "decoder/tok_emb"]}
    mask = stage2_freeze_mask(fake)
    assert [n for n, t in sorted(mask.items()) if t] \
        == ["dvaf/proj_beta", "dvaf/proj_gamma", "dvaf/w_proj"]
