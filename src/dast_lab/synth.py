"""Synthetic chest-study generator and on-disk dataset format.

Each of the 14 categories owns a planted geometric motif (one block of a 4x4
grid, filled at a category-specific intensity) and a sentence pair built from
the shared finding phrases. A study activates categories independently; its
report is the lead sentence plus, in fixed category order, a positive
sentence per active finding and (sometimes) a negated mention of an inactive
one. Labels, pixels, and text therefore stay mutually consistent and the
rule labeler can read back exactly what was planted.

On disk: per-split JSONL manifests ({study_id, image_path, labels, report})
plus raw little-endian float64 image blobs, one file per image; the image
shape (image_size x image_size) comes from dataset.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import ImageSample
from .ontology import CATEGORIES, FINDING_PHRASES, NUM_CATEGORIES

LEAD_SENTENCE = "The chest is clear."
_CUE_WORDS = ("No", "Without", "Negative for", "Free of")


@dataclass
class PatternSpec:
    category: str
    phrase: str
    block: tuple
    intensity: float
    positive_sentence: str
    negated_sentence: str


def default_pattern_table():
    table = []
    for d, (name, phrase) in enumerate(zip(CATEGORIES, FINDING_PHRASES)):
        cue = _CUE_WORDS[d % len(_CUE_WORDS)]
        table.append(PatternSpec(
            category=name,
            phrase=phrase,
            block=(d // 4, d % 4),
            intensity=0.55 + 0.03 * d,
            positive_sentence=f"There is {phrase}.",
            negated_sentence=f"{cue} {phrase}.",
        ))
    return table


@dataclass
class SyntheticSpec:
    n_studies: int
    image_size: int = 32
    patch_size: int = 4
    seed: int = 0
    # low negation noise keeps nearest-neighbor exemplar reports informative
    finding_probs: list = field(default_factory=lambda: [0.3] * NUM_CATEGORIES)
    negated_mention_prob: float = 0.1
    patterns: list = field(default_factory=default_pattern_table)

    def __post_init__(self):
        if len(self.patterns) != NUM_CATEGORIES or len(self.finding_probs) != NUM_CATEGORIES:
            raise ValueError(f"pattern table and probabilities need {NUM_CATEGORIES} entries")
        if any(not 0.0 <= p <= 1.0 for p in self.finding_probs):
            raise ValueError("finding probabilities must lie in [0, 1]")
        if self.image_size % 16:
            raise ValueError("image size must be divisible by 16 "
                             "(4x4 motif grid of 4x4-tiled blocks)")


def _walsh16():
    h = np.array([[1.0]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    return h


_WALSH = _walsh16()
_texture_cache = {}


def motif_texture(category_index, size):
    """Fixed per-category texture: a 4x4 Walsh tile repeated over the block.

    A flat fill would be invisible to scale-invariant normalization
    downstream and random textures are nearly collinear with each other;
    Walsh rows are exactly orthogonal, so the 14 motifs stay separable even
    after patch pooling. Values lie in {0.2, 1.0}.
    """
    key = (category_index, size)
    if key not in _texture_cache:
        tile = 0.6 + 0.4 * _WALSH[category_index + 1].reshape(4, 4)
        reps = size // 4
        _texture_cache[key] = np.tile(tile, (reps, reps))
    return _texture_cache[key]


def _paint(pixels, pattern, image_size, category_index):
    b = image_size // 4
    r, c = pattern.block
    pixels[r * b:(r + 1) * b, c * b:(c + 1) * b] = \
        pattern.intensity * motif_texture(category_index, b)


def make_study(spec, rng, study_id):
    """One consistent (pixels, labels, report) triple.

    The background is a flat per-study exposure level rather than pixel
    noise: token-wise normalization in the encoder would amplify arbitrary
    noise patches to unit scale and drown the planted motifs.
    """
    pixels = np.full((spec.image_size, spec.image_size),
                     rng.uniform(0.02, 0.12))
    labels = [int(rng.random() < p) for p in spec.finding_probs]
    sentences = [LEAD_SENTENCE]
    for d, pattern in enumerate(spec.patterns):
        if labels[d]:
            _paint(pixels, pattern, spec.image_size, d)
            sentences.append(pattern.positive_sentence)
        elif rng.random() < spec.negated_mention_prob:
            sentences.append(pattern.negated_sentence)
    return ImageSample(pixels=pixels, study_id=study_id, labels=labels,
                       report=" ".join(sentences))


def split_studies(n, rng):
    """Seeded 70/10/20 shuffle split; returns index lists."""
    order = rng.permutation(n)
    n_train = int(n * 0.7)
    n_val = int(n * 0.1)
    return (sorted(order[:n_train]), sorted(order[n_train:n_train + n_val]),
            sorted(order[n_train + n_val:]))


def gen_dataset(spec, out_dir):
    """Write images plus train/val/test manifests; fully determined by the seed."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    studies = [make_study(spec, rng, f"synth{i:05d}") for i in range(spec.n_studies)]
    train, val, test = split_studies(spec.n_studies, rng)

    for s in studies:
        blob = out / "images" / f"{s.study_id}.f64"
        blob.write_bytes(s.pixels.astype("<f8").tobytes())

    for name, indices in (("train", train), ("val", val), ("test", test)):
        lines = []
        for i in indices:
            s = studies[i]
            lines.append(json.dumps({
                "study_id": s.study_id,
                "image_path": f"images/{s.study_id}.f64",
                "labels": s.labels,
                "report": s.report,
            }, sort_keys=True))
        (out / f"{name}.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))

    info = {"n_studies": spec.n_studies, "image_size": spec.image_size,
            "patch_size": spec.patch_size, "seed": spec.seed,
            "categories": list(CATEGORIES)}
    (out / "dataset.json").write_text(json.dumps(info, sort_keys=True) + "\n")
    return studies


def load_split(data_dir, split):
    """Read one split manifest back into ImageSamples."""
    root = Path(data_dir)
    name = str(split)
    manifest = root / (name if name.endswith(".jsonl") else f"{name}.jsonl")
    if not manifest.exists():
        raise FileNotFoundError(f"missing manifest {manifest}")
    info = root / "dataset.json"
    if not info.exists():
        raise FileNotFoundError(f"missing dataset descriptor {info}")
    size = json.loads(info.read_text())["image_size"]
    samples = []
    for line in manifest.read_text().splitlines():
        row = json.loads(line)
        blob = (root / row["image_path"]).read_bytes()
        if len(blob) != 8 * size * size:
            raise ValueError(f"image blob size disagrees with dataset.json for {row['study_id']}")
        pixels = np.frombuffer(blob, dtype="<f8").reshape(size, size)
        samples.append(ImageSample(pixels=pixels.copy(), study_id=row["study_id"],
                                   labels=row["labels"], report=row["report"]))
    return samples


def load_manifest_path(path):
    """Load samples given a direct path to a split manifest file."""
    manifest = Path(path)
    return load_split(manifest.parent, manifest.name)
