"""Stage-1 learning: disease-token refinement, multi-label heads, alignment.

The 14 learnable disease tokens query the visual patch tokens by cross
attention; each refined token feeds its own classifier head. A symmetric
temperature-scaled contrastive objective aligns pooled visual features with
frozen bag-of-words text embeddings. The total objective is the plain sum of
the two parts.

A training step runs the whole batch as one graph over a leading batch axis;
each function here also takes one sample without it. In a batch the bank's
parameters enter through `tensor.expand`, so a batched step's loss and
gradients have the bits of a graph of per-sample forwards.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .encoder import INIT_SCALE
from .ontology import NUM_CATEGORIES
from .tensor import (
    Tensor,
    concat,
    expand,
    gather_rows,
    layer_norm,
    logsumexp,
    scaled_dot_attention,
    sum_rows,
    take_per_row,
)


class DastBank:
    """The 14 learnable disease tokens plus their independent classifier heads."""

    def __init__(self, tokens, head_w, head_b):
        self.tokens = tokens
        self.head_w = head_w
        self.head_b = head_b

    @staticmethod
    def init(rng, channels):
        return DastBank(
            Tensor.randn(rng, (NUM_CATEGORIES, channels), INIT_SCALE, requires_grad=True),
            Tensor.randn(rng, (NUM_CATEGORIES, channels), INIT_SCALE, requires_grad=True),
            Tensor(np.zeros(NUM_CATEGORIES), requires_grad=True),
        )

    def named(self):
        return {"dast/tokens": self.tokens, "dast/head_w": self.head_w,
                "dast/head_b": self.head_b}


def refine_dasts(bank, z, depth=1):
    """Cross-attend disease tokens over patch tokens; residual add + layer norm.

    z is (N, C), giving (14, C), or a (B, N, C) stack, giving (B, 14, C).
    Each sample reads the tokens twice, by the residual add and as the query,
    and a per-sample graph adds those gradients in the order add 0, query 0,
    add 1, query 1, ... So for a stack the tokens expand to 2B rows in that
    order, and each read takes its own rows.
    """
    refined = query = bank.tokens
    if z.data.ndim == 3:
        reads = expand(bank.tokens, 2 * z.shape[0])
        refined = gather_rows(reads, np.arange(0, len(reads.data), 2))
        query = gather_rows(reads, np.arange(1, len(reads.data), 2))
    for _ in range(depth):
        attended, _ = scaled_dot_attention(query, z, z)
        refined = query = layer_norm(refined + attended)
    return refined


def classify(refined, bank):
    """Per-category logit from its own refined token only: <refined_d, head_d> + b_d.

    (14, C) -> (14,); a (B, 14, C) stack gives (B, 14).
    """
    head_w, head_b = bank.head_w, bank.head_b
    if refined.data.ndim == 3:
        head_w, head_b = expand(head_w, len(refined.data)), expand(head_b, len(refined.data))
    return (refined * head_w).sum(axis=-1) + head_b


def loss_cls(logits, labels):
    """Mean binary cross-entropy over the 14 categories, stable at any magnitude.

    (14,) logits give a scalar; (B, 14) give each sample's mean, (B,).
    """
    y = Tensor(np.asarray(labels, dtype=np.float64))
    mag = logits.relu() + (-logits).relu()  # |x|
    per = logits.relu() - logits * y + ((-mag).exp() + 1.0).log()
    return per.mean(axis=-1)


class HashTextEncoder:
    """Frozen deterministic text embedding: hashed bag of words, L2-normalized.

    The table is seeded independently of every run seed, so the same text maps
    to the same vector in every build. Stands behind the text-encoder seam a
    pretrained language model could fill.
    """

    TABLE_SIZE = 4096
    _TABLE_SEED = 0x5EED

    def __init__(self, width):
        self.width = width
        rng = np.random.default_rng(self._TABLE_SEED)
        self.table = rng.normal(0.0, 1.0, (self.TABLE_SIZE, width))

    def _row(self, token):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little") % self.TABLE_SIZE

    def encode(self, text):
        tokens = text.lower().split()
        if not tokens:
            raise ValueError("cannot embed an empty report")
        vec = np.mean([self.table[self._row(t)] for t in tokens], axis=0)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError("degenerate zero-norm text embedding")
        return Tensor(vec / norm)


def _normalize_rows(x):
    norms = (x * x).sum(axis=1, keepdims=True) ** 0.5
    if np.any(norms.data == 0.0):
        raise ValueError("zero-norm vector in contrastive batch")
    return x * norms ** -1.0


def loss_ctl(visual, textual, tau):
    """Symmetric cross-entropy over temperature-scaled cosine similarities.

    visual, textual: (B, C). Row i of the similarity matrix is scored against
    target i, and likewise per column; the loss is the mean of both directions.
    """
    if tau <= 0:
        raise ValueError("temperature must be positive")
    b = visual.data.shape[0]
    sims = (_normalize_rows(visual) @ _normalize_rows(textual).transpose()) * (1.0 / tau)
    targets = np.arange(b)
    row_ce = (logsumexp(sims, axis=1) - take_per_row(sims, targets)).mean()
    col_ce = (logsumexp(sims.transpose(), axis=1) - take_per_row(sims.transpose(), targets)).mean()
    return 0.5 * row_ce + 0.5 * col_ce


def _stacked(rows):
    """A (B, ...) tensor as given, or a list of per-sample tensors stacked."""
    if isinstance(rows, Tensor):
        return rows
    return concat([r.reshape(1, -1) for r in rows], axis=0)


def stage1_loss(pooled_visuals, text_embeddings, logits, labels, tau):
    """Total objective: classification mean over the batch plus alignment loss.

    pooled_visuals and text_embeddings are (B, C), logits (B, 14) and labels
    B rows of 14; lists of per-sample tensors are stacked first. The B
    per-sample means add left to right (`sum_rows`), the order of a chain of
    adds; numpy's pairwise sum would change the logged loss.
    """
    logits = _stacked(logits)
    cls = sum_rows(loss_cls(logits, labels)) * (1.0 / logits.shape[0])
    ctl = loss_ctl(_stacked(pooled_visuals), _stacked(text_embeddings), tau)
    return cls + ctl, {"loss_cls": cls.item(), "loss_ctl": ctl.item()}
