"""Report decoding: tokenizer, prompt assembly, tiny causal decoder, freezing.

The decoder input is laid out as [retrieved-report tokens, SEP, projected
visual rows, BOS, target tokens]; attention is causal over the whole
sequence, so every text position can see the visual prefix. The language
modeling loss covers exactly the target positions, and only the rows a
caller reads (the loss's target rows, or the row that picks the next token)
go through the last block's queries, attention output and feed-forward, the
final norm and the vocabulary projection. A tiny two-block decoder
stands behind the frozen-LM seam; after its pretraining phase it never
changes again.

Position ids count from the SEP: with k exemplar tokens, row i takes
position (i - k) % max_positions. SEP sits at position 0, the visual rows
at 1..n, then BOS and the target, whatever the exemplar's length; the
exemplar takes the last k slots of the table, which no other row uses since
a sequence never exceeds max_positions rows. With no exemplar the ids are
the row indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    Tensor,
    concat,
    gather_rows,
    layer_norm,
    logsumexp,
    scaled_dot_attention,
    take_per_row,
)

TOKEN_RE = re.compile(r"\w+|[^\w\s]")

PAD, BOS, EOS, SEP, UNK = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<sep>", "<unk>")


def split_words(text):
    return TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Dense token<->id maps; ids 0..4 are the special tokens."""

    def __init__(self, corpus_tokens):
        ordered = list(SPECIAL_TOKENS) + sorted(set(corpus_tokens) - set(SPECIAL_TOKENS))
        self.tokens = ordered
        self.ids = {t: i for i, t in enumerate(ordered)}
        if len(self.ids) != len(self.tokens):
            raise ValueError("vocabulary mapping is not bijective")

    @staticmethod
    def from_corpus(texts):
        seen = set()
        for t in texts:
            seen.update(split_words(t))
        return Vocabulary(seen)

    def __len__(self):
        return len(self.tokens)

    def id(self, token):
        return self.ids.get(token, UNK)


@dataclass
class TokenSequence:
    ids: list
    text: str = ""

    @property
    def interior(self):
        return self.ids[1:-1]


def tokenize(text, vocab):
    """Lowercase, split words and punctuation, wrap in BOS/EOS."""
    ids = [BOS] + [vocab.id(t) for t in split_words(text)] + [EOS]
    return TokenSequence(ids=ids, text=text)


def detokenize(seq, vocab):
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    return " ".join(vocab.tokens[i] for i in ids if i >= len(SPECIAL_TOKENS))


def normalize_text(text):
    """The equality notion for round-trips: lowercase, single-space tokens."""
    return " ".join(split_words(text))


# -- decoder -----------------------------------------------------------------------


@dataclass
class DecoderBlock:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor

    @staticmethod
    def init(rng, width, ff_mult):
        s = 0.02
        hidden = width * ff_mult
        return DecoderBlock(
            Tensor.randn(rng, (width, width), s, requires_grad=True),
            Tensor.randn(rng, (width, width), s, requires_grad=True),
            Tensor.randn(rng, (width, width), s, requires_grad=True),
            Tensor.randn(rng, (width, width), s, requires_grad=True),
            Tensor.randn(rng, (width, hidden), s, requires_grad=True),
            Tensor(np.zeros(hidden), requires_grad=True),
            Tensor.randn(rng, (hidden, width), s, requires_grad=True),
            Tensor(np.zeros(width), requires_grad=True),
        )

    def named(self, prefix):
        return {f"{prefix}/{k}": v for k, v in vars(self).items()}


@dataclass
class DecoderParams:
    width: int
    max_positions: int
    tok_emb: Tensor
    pos_emb: Tensor
    w_prefix: Tensor
    blocks: list = field(default_factory=list)

    @staticmethod
    def init(rng, vocab_size, width, max_positions, n_blocks=2, ff_mult=4):
        return DecoderParams(
            width, max_positions,
            Tensor.randn(rng, (vocab_size, width), 0.02, requires_grad=True),
            Tensor.randn(rng, (max_positions, width), 0.02, requires_grad=True),
            Tensor.randn(rng, (width, width), 0.02, requires_grad=True),
            [DecoderBlock.init(rng, width, ff_mult) for _ in range(n_blocks)],
        )

    def named(self):
        out = {"decoder/tok_emb": self.tok_emb, "decoder/pos_emb": self.pos_emb,
               "decoder/w_prefix": self.w_prefix}
        for i, b in enumerate(self.blocks):
            out.update(b.named(f"decoder/block{i}"))
        return out


_MASK_CACHE = {}


def _causal_mask(n, m):
    # additive mask for n new rows after m cached ones: 0 over the cached
    # columns and on and below the diagonal, large negative above it
    if (n, m) not in _MASK_CACHE:
        _MASK_CACHE[n, m] = Tensor(np.triu(np.full((n, m + n), -1e30), k=m + 1))
    return _MASK_CACHE[n, m]


def decoder_hidden(params, x, past=None, rows=None):
    """Run the causal blocks over an embedded sequence (S, width).

    past, if given, holds one [K, V] pair per block ([None, None] when
    empty): the keys and values of the rows before x, which x attends to.
    The call replaces each pair with one extended by x's own keys and values.

    rows, if given, are the indices of the rows whose output the caller
    reads; the result then has one row per index, in that order. Every block
    before the last needs all rows, and the last block still computes keys
    and values for all of them (later rows and the cache attend to those),
    but its queries, attention output, feed-forward and the final norm run
    on `rows` only.
    """
    n = x.data.shape[0]
    m = 0 if past is None or past[0][0] is None else past[0][0].data.shape[0]
    mask = _causal_mask(n, m) if n > 1 else None
    last = len(params.blocks) - 1
    for i, b in enumerate(params.blocks):
        h = layer_norm(x)
        k, v = h @ b.wk, h @ b.wv
        if m:
            k = concat([past[i][0], k], axis=0)
            v = concat([past[i][1], v], axis=0)
        if past is not None:
            past[i] = [k, v]
        if i == last and rows is not None:
            x, h = gather_rows(x, rows), gather_rows(h, rows)
            if mask is not None:
                mask = Tensor(mask.data[rows])
        att, _ = scaled_dot_attention(h @ b.wq, k, v, mask)
        x = x + att @ b.wo
        h2 = layer_norm(x)
        x = x + ((h2 @ b.ff_w1 + b.ff_b1).gelu() @ b.ff_w2 + b.ff_b2)
    return layer_norm(x)


def position_ids(rows, n_exemplar, max_positions):
    """Position ids of sequence rows after n_exemplar exemplar tokens."""
    return (np.asarray(rows) - n_exemplar) % max_positions


@dataclass
class AssembledPrompt:
    embeddings: Tensor
    target_ids: np.ndarray
    loss_positions: np.ndarray
    n_prefix: int
    n_exemplar: int


def assemble_prompt(params, vocab, retrieved_text, v_proj, target):
    """Build the decoder input [R_ret, SEP, prefix rows, BOS, target[:-1]].

    The final target token is prediction-only; logits at the trailing
    len(target) positions are scored against the full target (which ends
    in EOS). Row i of the sequence takes position id
    (i - len(R_ret)) % max_positions, so SEP, the prefix rows, BOS and the
    target sit at the same positions for every exemplar.
    """
    r_ids = [vocab.id(t) for t in split_words(retrieved_text)] if retrieved_text else []
    target_ids = np.asarray(list(target.interior) + [EOS], dtype=np.int64)
    input_tail = [BOS] + list(target_ids[:-1])
    prefix = v_proj @ params.w_prefix
    n_prefix = prefix.data.shape[0]
    total = len(r_ids) + 1 + n_prefix + len(input_tail)
    if total > params.max_positions:
        raise ValueError(f"assembled sequence length {total} exceeds "
                         f"maximum {params.max_positions}")
    emb = concat([
        gather_rows(params.tok_emb, r_ids + [SEP]),
        prefix,
        gather_rows(params.tok_emb, input_tail),
    ], axis=0)
    emb = emb + gather_rows(params.pos_emb,
                            position_ids(np.arange(total), len(r_ids), params.max_positions))
    loss_positions = np.arange(total - len(target_ids), total)
    return AssembledPrompt(emb, target_ids, loss_positions, n_prefix, len(r_ids))


def sequence_logits(params, embeddings, past=None, rows=None):
    """Vocabulary logits of the decoder's output rows (all, or `rows`)."""
    return decoder_hidden(params, embeddings, past, rows) @ params.tok_emb.transpose()


def token_cross_entropy(logits, target_ids):
    """Per-position -log P(target); logits (T, V)."""
    return logsumexp(logits, axis=1) - take_per_row(logits, target_ids)


def lm_loss(params, prompt):
    """(summed, mean-per-token) negative log likelihood over target positions."""
    if len(prompt.target_ids) == 0:
        raise ValueError("empty target sequence")
    logits = sequence_logits(params, prompt.embeddings, rows=prompt.loss_positions)
    ce = token_cross_entropy(logits, prompt.target_ids)
    total = ce.sum()
    return total, total * (1.0 / len(prompt.target_ids))


def generate(params, vocab, retrieved_text, v_proj, max_len):
    """Greedy decoding from BOS until EOS, max_len tokens or max_positions
    rows; ties take the lowest token id. Returns detokenized text.

    The head [R_ret, SEP, prefix rows, BOS] runs once, and its last block,
    final norm and vocabulary projection only for the BOS row; each later
    step runs only the newest token's row against the cached keys and values.
    """
    # an empty target leaves the input [R_ret, SEP, prefix rows, BOS]
    prompt = assemble_prompt(params, vocab, retrieved_text, v_proj, tokenize("", vocab))
    x = Tensor(prompt.embeddings.data)
    head = x.data.shape[0]
    tok, pos = params.tok_emb.data, params.pos_emb.data
    past = [[None, None] for _ in params.blocks]
    out_ids = []
    while len(out_ids) < max_len:
        logits = sequence_logits(params, x, past=past, rows=[-1]).data[0]
        nxt = int(np.argmax(logits))
        if nxt == EOS:
            break
        out_ids.append(nxt)
        row = head + len(out_ids) - 1
        if row >= params.max_positions:
            break
        x = Tensor(tok[[nxt]] + pos[position_ids([row], prompt.n_exemplar,
                                                 params.max_positions)])
    return detokenize(out_ids, vocab)


# -- freezing ------------------------------------------------------------------------


def apply_freeze(named_params, mask):
    """Set per-parameter trainability; mask keys must cover the params exactly."""
    if set(named_params) != set(mask):
        missing = set(named_params) ^ set(mask)
        raise ValueError(f"freeze mask does not match parameters: {sorted(missing)}")
    for name, tensor in named_params.items():
        tensor.requires_grad = bool(mask[name])


def stage2_freeze_mask(named_params):
    """Stage-2 contract: only the projection matrix and its layer-norm affine train."""
    trainable = {"dvaf/w_proj", "dvaf/proj_gamma", "dvaf/proj_beta"}
    return {name: name in trainable for name in named_params}
