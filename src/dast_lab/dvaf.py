"""Disease-visual fusion: attention cascade, gated fusion, decoder projection.

The cascade pools the 14 disease tokens into a single vector: cross-attention
over patch tokens, self-attention among the tokens, then a learned-query
attention pool. The pooled vector fuses with the mean patch token through a
linear gate, lands as the final row of the visual sequence, and the whole
sequence is projected into the decoder width. Only the projection matrix and
its layer-norm affine are ever trainable.
"""

from __future__ import annotations

import math

import numpy as np

from .encoder import INIT_SCALE
from .tensor import Tensor, concat, layer_norm, matmul, scaled_dot_attention, softmax


class FusionParams:
    """Cross/self attention projections, pool query, gate, decoder projection."""

    def __init__(self, rng, channels, decoder_width):
        c = channels
        self.wq_cross = Tensor.randn(rng, (c, c), INIT_SCALE)
        self.wk_cross = Tensor.randn(rng, (c, c), INIT_SCALE)
        self.wv_cross = Tensor.randn(rng, (c, c), INIT_SCALE)
        self.wq_self = Tensor.randn(rng, (c, c), INIT_SCALE)
        self.wk_self = Tensor.randn(rng, (c, c), INIT_SCALE)
        self.wv_self = Tensor.randn(rng, (c, c), INIT_SCALE)
        self.pool_query = Tensor.randn(rng, (c,), INIT_SCALE)
        # fixed linear gate, starts as the average of its two inputs
        self.w_gate = Tensor(np.concatenate([np.eye(c), np.eye(c)], axis=1) * 0.5)
        self.w_proj = Tensor.randn(rng, (c, decoder_width), INIT_SCALE, requires_grad=True)
        self.proj_gamma = Tensor(np.ones(decoder_width), requires_grad=True)
        self.proj_beta = Tensor(np.zeros(decoder_width), requires_grad=True)

    def named(self):
        return {
            "dvaf/wq_cross": self.wq_cross, "dvaf/wk_cross": self.wk_cross,
            "dvaf/wv_cross": self.wv_cross, "dvaf/wq_self": self.wq_self,
            "dvaf/wk_self": self.wk_self, "dvaf/wv_self": self.wv_self,
            "dvaf/pool_query": self.pool_query, "dvaf/w_gate": self.w_gate,
            "dvaf/w_proj": self.w_proj, "dvaf/proj_gamma": self.proj_gamma,
            "dvaf/proj_beta": self.proj_beta,
        }


def attn_pool(tokens, pool_query):
    """Weighted sum of rows, weights = softmax(<query, token> / sqrt(C))."""
    c = tokens.data.shape[1]
    scores = matmul(tokens, pool_query.reshape(-1, 1)) * (1.0 / math.sqrt(c))
    weights = softmax(scores, axis=0)
    return (tokens * weights).sum(axis=0), weights


def dvaf_pool(dasts, z, params):
    """Cross-attend over patches, self-attend among tokens, attention-pool."""
    q = dasts @ params.wq_cross
    attended, _ = scaled_dot_attention(q, z @ params.wk_cross, z @ params.wv_cross)
    u = layer_norm(dasts + attended)
    mixed, _ = scaled_dot_attention(u @ params.wq_self, u @ params.wk_self, u @ params.wv_self)
    s = layer_norm(u + mixed)
    pooled, _ = attn_pool(s, params.pool_query)
    return pooled


def gate_fuse(p, z_bar, params):
    """Fuse pooled disease vector with mean patch token: f = W_gate [p; z_bar],
    a plain linear map on the concatenation."""
    cat = concat([p.reshape(1, -1), z_bar.reshape(1, -1)], axis=1)
    return matmul(cat, params.w_gate.transpose()).reshape(-1)


def build_visual_sequence(z, f):
    """Append the fusion vector as the final row: V = [z_1..z_N, f]."""
    if z.data.shape[1] != f.data.shape[0]:
        raise ValueError("fusion vector width disagrees with patch tokens")
    return concat([z, f.reshape(1, -1)], axis=0)


def project(v, params):
    """Row-wise projection into decoder width followed by layer norm."""
    return layer_norm(v @ params.w_proj, params.proj_gamma, params.proj_beta)
