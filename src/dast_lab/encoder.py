"""Visual encoder: patch embedding + stacked linear-recurrence scan blocks.

Each block runs layer-norm, a per-channel decaying scan over the raster token
order, and a residual add. The scan gives linear cost in token count while
still mixing information across the whole sequence.

The encoder runs on a (B, H, W) stack of images as one graph. Each parameter
is expanded to one copy per sample (`tensor.expand`) where a per-sample
forward would make its first per-sample node: the decay before its sigmoid,
w_in and w_out before their transpose, skip as (B, 1, C). So every sample's
gradient is its own product and the batched graph has the bits of B separate
forwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ontology import NUM_CATEGORIES
from .tensor import Tensor, decay_scan, expand, layer_norm

INIT_SCALE = 0.02
DECAY_INIT = 0.9


@dataclass
class ImageSample:
    """One study: a single-channel image in [0,1] plus labels and report text."""

    pixels: np.ndarray
    study_id: str
    labels: list
    report: str

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2:
            raise ValueError(f"pixels must be H x W, got shape {self.pixels.shape}")
        if len(self.labels) != NUM_CATEGORIES:
            raise ValueError(f"expected {NUM_CATEGORIES} labels, got {len(self.labels)}")


class SsmBlockParams:
    """One scan block: per-channel decay in (0,1), in/out projections, skip scale.

    The decay is stored pre-squash (sigmoid reparameterization) so the open
    interval constraint holds for any raw value.
    """

    def __init__(self, rng, channels):
        raw = np.log(DECAY_INIT / (1.0 - DECAY_INIT))
        self.decay_raw = Tensor(np.full(channels, raw), requires_grad=True)
        self.w_in = Tensor.randn(rng, (channels, channels), INIT_SCALE, requires_grad=True)
        self.w_out = Tensor.randn(rng, (channels, channels), INIT_SCALE, requires_grad=True)
        self.skip = Tensor(np.ones(channels), requires_grad=True)

    def named(self, prefix):
        return {
            f"{prefix}/decay_raw": self.decay_raw,
            f"{prefix}/w_in": self.w_in,
            f"{prefix}/w_out": self.w_out,
            f"{prefix}/skip": self.skip,
        }


@dataclass
class EncoderParams:
    patch_size: int
    channels: int
    w_embed: Tensor
    blocks: list = field(default_factory=list)

    @staticmethod
    def init(rng, patch_size, channels, depth):
        if depth < 1:
            raise ValueError("encoder depth must be >= 1")
        w = Tensor.randn(rng, (patch_size * patch_size, channels), INIT_SCALE,
                         requires_grad=True)
        blocks = [SsmBlockParams(rng, channels) for _ in range(depth)]
        return EncoderParams(patch_size, channels, w, blocks)

    def named(self):
        out = {"encoder/w_embed": self.w_embed}
        for i, b in enumerate(self.blocks):
            out.update(b.named(f"encoder/block{i}"))
        return out


def patch_grid(pixels, patch_size):
    """Flatten non-overlapping patches in raster order: (H, W) -> (N, P*P),
    and a (B, H, W) stack -> (B, N, P*P)."""
    *lead, h, w = pixels.shape
    p = patch_size
    if h % p or w % p:
        raise ValueError(f"image {h}x{w} not divisible by patch size {p}")
    return (pixels.reshape(*lead, h // p, p, w // p, p)
            .swapaxes(-3, -2)
            .reshape(*lead, (h // p) * (w // p), p * p))


def patch_embed(pixels, patch_size, w_embed):
    """Linear embedding of flattened patches; no bias term. A (B, H, W) stack
    multiplies each sample by its own copy of w_embed."""
    patches = Tensor(patch_grid(pixels, patch_size))
    if pixels.ndim == 3:
        w_embed = expand(w_embed, pixels.shape[0])
    return patches @ w_embed


def selective_scan(tokens, params):
    """One scan pass: state h_i = a*h_{i-1} + W_in x_i, out = W_out h_i + skip*x_i.

    tokens is (N, C), or a (B, N, C) stack, where each sample gets its own
    copy of every parameter.
    """
    w_in, w_out, decay_raw, skip = params.w_in, params.w_out, params.decay_raw, params.skip
    if tokens.data.ndim == 3:
        b = tokens.shape[0]
        w_in, w_out, decay_raw = expand(w_in, b), expand(w_out, b), expand(decay_raw, b)
        skip = expand(skip, b).reshape(b, 1, -1)
    h = decay_scan(decay_raw.sigmoid(), tokens @ w_in.transpose())
    return h @ w_out.transpose() + skip * tokens


def encode(images, params):
    """Patch-embed then run every block: LN -> scan -> residual add.

    One study (an ImageSample or H x W pixels) gives (N, C) tokens; a
    (B, H, W) stack of pixels gives (B, N, C).
    """
    pixels = images.pixels if isinstance(images, ImageSample) else images
    z = patch_embed(pixels, params.patch_size, params.w_embed)
    for block in params.blocks:
        z = z + selective_scan(layer_norm(z), block)
    return z


def pool_mean(z):
    """Mean over the token axis: (N, C) -> (C,), (B, N, C) -> (B, C)."""
    if z.data.shape[-2] < 1:
        raise ValueError("pool_mean needs at least one token")
    return z.mean(axis=-2)
