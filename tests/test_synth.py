import json
from pathlib import Path

import numpy as np
import pytest

from dast_lab.metrics import Label, extract_labels
from dast_lab.ontology import CATEGORIES
from dast_lab.synth import (
    SyntheticSpec,
    default_pattern_table,
    gen_dataset,
    load_manifest_path,
    load_split,
    make_study,
    motif_texture,
    split_studies,
)


def test_generation_is_byte_deterministic(tmp_path):
    spec = SyntheticSpec(n_studies=10, seed=42)
    a, b = tmp_path / "a", tmp_path / "b"
    gen_dataset(spec, a)
    gen_dataset(spec, b)
    for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_active_pathology_present_in_pixels_and_report():
    spec = SyntheticSpec(n_studies=1, seed=7, finding_probs=[1.0] * 14,
                         negated_mention_prob=0.0)
    s = make_study(spec, np.random.default_rng(7), "s0")
    assert s.labels == [1] * 14
    block = spec.image_size // 4
    for d, pattern in enumerate(spec.patterns):
        r, c = pattern.block
        region = s.pixels[r * block:(r + 1) * block, c * block:(c + 1) * block]
        assert np.array_equal(region, pattern.intensity * motif_texture(d, block))
        assert pattern.positive_sentence in s.report
    labels = extract_labels(s.report)
    assert labels == [Label.POSITIVE] * 14


def test_zero_probability_spec_gives_normal_reports():
    spec = SyntheticSpec(n_studies=5, seed=3, finding_probs=[0.0] * 14,
                         negated_mention_prob=0.0)
    rng = np.random.default_rng(3)
    for i in range(5):
        s = make_study(spec, rng, f"s{i}")
        assert s.report == "The chest is clear."
        assert s.labels == [0] * 14


def test_negated_mentions_read_negative():
    spec = SyntheticSpec(n_studies=1, seed=11, finding_probs=[0.0] * 14,
                         negated_mention_prob=1.0)
    s = make_study(spec, np.random.default_rng(11), "s0")
    labels = extract_labels(s.report)
    assert labels == [Label.NEGATIVE] * 14


def test_split_sizes_and_disjointness():
    train, val, test = split_studies(100, np.random.default_rng(0))
    assert len(train) == 70 and len(val) == 10 and len(test) == 20
    assert set(train) | set(val) | set(test) == set(range(100))
    assert not (set(train) & set(val)) and not (set(train) & set(test))


def test_dataset_roundtrip(tmp_path):
    spec = SyntheticSpec(n_studies=12, seed=5)
    studies = gen_dataset(spec, tmp_path)
    by_id = {s.study_id: s for s in studies}
    loaded = []
    for split in ("train", "val", "test"):
        loaded.extend(load_split(tmp_path, split))
    assert len(loaded) == 12
    for s in loaded:
        orig = by_id[s.study_id]
        assert np.array_equal(s.pixels, orig.pixels)
        assert s.labels == orig.labels
        assert s.report == orig.report


def test_manifest_fields(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=4, seed=1), tmp_path)
    rows = [json.loads(line) for line in (tmp_path / "train.jsonl").read_text().splitlines()]
    for row in rows:
        assert set(row) == {"study_id", "image_path", "labels", "report"}
        assert len(row["labels"]) == 14
        assert (tmp_path / row["image_path"]).exists()


def test_load_manifest_path(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=8, seed=2), tmp_path)
    samples = load_manifest_path(tmp_path / "val.jsonl")
    assert len(samples) >= 0
    samples_t = load_manifest_path(tmp_path / "train.jsonl")
    assert all(s.pixels.shape == (32, 32) for s in samples_t)


def test_pattern_table_is_aligned_with_ontology():
    table = default_pattern_table()
    assert [p.category for p in table] == list(CATEGORIES)
    assert len({p.block for p in table}) == 14  # distinct motif locations
    assert len({round(p.intensity, 6) for p in table}) == 14


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_studies=1, finding_probs=[0.5] * 13)
    with pytest.raises(ValueError):
        SyntheticSpec(n_studies=1, finding_probs=[1.5] + [0.0] * 13)
    with pytest.raises(ValueError):
        SyntheticSpec(n_studies=1, image_size=30)


def test_missing_manifest_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_split(tmp_path, "train")


def test_truncated_image_blob_names_the_study(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=6, image_size=16, seed=2), tmp_path)
    row = json.loads((tmp_path / "train.jsonl").read_text().splitlines()[1])
    blob = tmp_path / row["image_path"]
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValueError, match=f"disagrees with dataset.json for {row['study_id']}"):
        load_split(tmp_path, "train")


def test_one_file_per_image(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=5, image_size=16, seed=3), tmp_path)
    assert sorted(p.suffix for p in (tmp_path / "images").iterdir()) == [".f64"] * 5


def test_missing_dataset_descriptor_is_named(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=5, image_size=16, seed=3), tmp_path)
    (tmp_path / "dataset.json").unlink()
    with pytest.raises(FileNotFoundError, match="dataset.json"):
        load_split(tmp_path, "train")
