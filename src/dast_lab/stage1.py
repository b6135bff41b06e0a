"""Stage-1 learning: disease-token refinement, multi-label heads, alignment.

The 14 learnable disease tokens query the visual patch tokens by cross
attention; each refined token feeds its own classifier head. A symmetric
temperature-scaled contrastive objective aligns pooled visual features with
frozen bag-of-words text embeddings. The total objective is the plain sum of
the two parts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .encoder import INIT_SCALE
from .ontology import NUM_CATEGORIES
from .tensor import (
    Tensor,
    concat,
    layer_norm,
    logsumexp,
    scaled_dot_attention,
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
    """Cross-attend disease tokens over patch tokens; residual add + layer norm."""
    refined = bank.tokens
    for _ in range(depth):
        attended, _ = scaled_dot_attention(refined, z, z)
        refined = layer_norm(refined + attended)
    return refined


def classify(refined, bank):
    """Per-category logit from its own refined token only: <refined_d, head_d> + b_d."""
    return (refined * bank.head_w).sum(axis=1) + bank.head_b


def loss_cls(logits, labels):
    """Mean binary cross-entropy over the 14 categories, stable at any magnitude."""
    y = Tensor(np.asarray(labels, dtype=np.float64))
    mag = logits.relu() + (-logits).relu()  # |x|
    per = logits.relu() - logits * y + ((-mag).exp() + 1.0).log()
    return per.mean()


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


def stage1_loss(pooled_visuals, text_embeddings, per_sample_logits, per_sample_labels, tau):
    """Total objective: classification mean over the batch plus alignment loss."""
    cls_terms = [loss_cls(lg, lb) for lg, lb in zip(per_sample_logits, per_sample_labels)]
    cls = cls_terms[0]
    for t in cls_terms[1:]:
        cls = cls + t
    cls = cls * (1.0 / len(cls_terms))
    vis = concat([v.reshape(1, -1) for v in pooled_visuals], axis=0)
    txt = concat([t.reshape(1, -1) for t in text_embeddings], axis=0)
    ctl = loss_ctl(vis, txt, tau)
    return cls + ctl, {"loss_cls": cls.item(), "loss_ctl": ctl.item()}
