"""Synthetic chest-study generator and on-disk dataset format.

Each of the 14 categories owns a planted geometric motif (one block of a 4x4
grid, filled at a category-specific intensity) and a sentence pair built from
the shared finding phrases. A study activates categories independently; its
report is the lead sentence plus, in fixed category order, a positive
sentence per active finding and (sometimes) a negated mention of an inactive
one. Labels, pixels, and text therefore stay mutually consistent and the
rule labeler can read back exactly what was planted.

On disk: per-split JSONL manifests ({study_id, images, labels, report}), a
dataset.json descriptor, and one image container per split (train.images,
val.images, test.images), each a `store` file with magic DLIMG1 whose header
lists the split's study ids in manifest order and whose one array `pixels`
is (n, image_size, image_size) float64, under a SHA-256 trailer. A row's
`images` names the container that holds its pixels, so a manifest built from
another split's lines still loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import store
from .encoder import ImageSample
from .ontology import CATEGORIES, FINDING_PHRASES, NUM_CATEGORIES

LEAD_SENTENCE = "The chest is clear."
IMAGES_MAGIC = b"DLIMG1"
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
_painted_cache = {}  # motif_texture scaled by a pattern's intensity


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
    key = (category_index, b, pattern.intensity)
    if key not in _painted_cache:
        _painted_cache[key] = pattern.intensity * motif_texture(category_index, b)
    pixels[r * b:(r + 1) * b, c * b:(c + 1) * b] = _painted_cache[key]


def make_study(spec, rng, study_id):
    """One consistent (pixels, labels, report) triple.

    The background is a flat per-study exposure level rather than pixel
    noise: token-wise normalization in the encoder would amplify arbitrary
    noise patches to unit scale and drown the planted motifs.
    """
    pixels = np.full((spec.image_size, spec.image_size),
                     rng.uniform(0.02, 0.12))
    # one draw per category, then one per inactive category in category
    # order: rng.random(n) gives the doubles of n rng.random() calls
    labels = [int(u < p) for u, p in zip(rng.random(NUM_CATEGORIES).tolist(),
                                         spec.finding_probs)]
    negated = iter(rng.random(labels.count(0)).tolist())
    sentences = [LEAD_SENTENCE]
    for d, pattern in enumerate(spec.patterns):
        if labels[d]:
            _paint(pixels, pattern, spec.image_size, d)
            sentences.append(pattern.positive_sentence)
        elif next(negated) < spec.negated_mention_prob:
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


class DatasetError(ValueError):
    """A manifest, image container or descriptor that does not fit the others."""


def gen_dataset(spec, out_dir):
    """Write the image containers plus train/val/test manifests; fully
    determined by the seed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    studies = [make_study(spec, rng, f"synth{i:05d}") for i in range(spec.n_studies)]
    train, val, test = split_studies(spec.n_studies, rng)

    size = spec.image_size
    for name, indices in (("train", train), ("val", val), ("test", test)):
        split = [studies[i] for i in indices]
        store.write(out / f"{name}.images", IMAGES_MAGIC,
                    {"study_ids": [s.study_id for s in split]},
                    {"pixels": np.reshape([s.pixels for s in split], (len(split), size, size))})
        lines = [json.dumps({"study_id": s.study_id, "images": f"{name}.images",
                             "labels": s.labels, "report": s.report}, sort_keys=True)
                 for s in split]
        (out / f"{name}.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))

    info = {"n_studies": spec.n_studies, "image_size": spec.image_size,
            "patch_size": spec.patch_size, "seed": spec.seed,
            "categories": list(CATEGORIES)}
    (out / "dataset.json").write_text(json.dumps(info, sort_keys=True) + "\n")
    return studies


def read_manifest(data_dir, split):
    """The rows of one split manifest (a split name or a .jsonl file name),
    without reading any image."""
    name = str(split)
    manifest = Path(data_dir) / (name if name.endswith(".jsonl") else f"{name}.jsonl")
    if not manifest.exists():
        raise FileNotFoundError(f"missing manifest {manifest}")
    return [json.loads(line) for line in manifest.read_text().splitlines()]


def _read_images(path, size):
    """({study_id: row index}, pixels) of one image container, its (H, W) checked."""
    meta, arrays = store.read(path, IMAGES_MAGIC, DatasetError)
    ids, pixels = meta.get("study_ids"), arrays.get("pixels")
    if not isinstance(ids, list) or pixels is None or pixels.ndim != 3 \
            or len(pixels) != len(ids):
        raise DatasetError(f"{path}: corrupt image container: no study_ids list "
                           f"matching a (n, H, W) pixels array")
    if pixels.shape[1:] != (size, size):
        raise DatasetError(f"{path} holds {pixels.shape[1]}x{pixels.shape[2]} images but "
                           f"dataset.json gives image_size {size}")
    return {sid: j for j, sid in enumerate(ids)}, pixels


def load_split(data_dir, split):
    """Read one split manifest back into ImageSamples. Each container the
    rows name is read once; a sample's pixels are a row of its one array."""
    root = Path(data_dir)
    rows = read_manifest(root, split)
    info = root / "dataset.json"
    if not info.exists():
        raise FileNotFoundError(f"missing dataset descriptor {info}")
    size = json.loads(info.read_text())["image_size"]
    containers, samples = {}, []
    for row in rows:
        if "images" not in row:
            raise DatasetError(f"study {row.get('study_id')} names no image container: "
                               f"the per-image layout (image_path) is no longer read; "
                               f"regenerate the dataset with gen-data")
        path = root / row["images"]
        if path not in containers:
            containers[path] = _read_images(path, size)
        index, pixels = containers[path]
        if row["study_id"] not in index:
            raise DatasetError(f"study {row['study_id']} is not in {path}")
        samples.append(ImageSample(pixels=pixels[index[row["study_id"]]],
                                   study_id=row["study_id"], labels=row["labels"],
                                   report=row["report"]))
    return samples


def load_manifest_path(path):
    """Load samples given a direct path to a split manifest file."""
    manifest = Path(path)
    return load_split(manifest.parent, manifest.name)
