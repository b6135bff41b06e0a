import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dast_lab import store
from dast_lab.metrics import Label, extract_labels
from dast_lab.ontology import CATEGORIES
from dast_lab.synth import (
    IMAGES_MAGIC,
    DatasetError,
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


def test_studies_and_split_keep_their_golden_bits():
    # recorded when make_study drew each uniform with its own rng.random() call
    h = hashlib.sha256()
    for probs, neg in (([0.3] * 14, 0.1), ([0.5, 0.0, 1.0, 0.2] * 3 + [0.7, 0.9], 0.6)):
        spec = SyntheticSpec(n_studies=40, seed=8, finding_probs=probs, negated_mention_prob=neg)
        rng = np.random.default_rng(8)
        for i in range(40):
            s = make_study(spec, rng, f"s{i}")
            h.update(s.pixels.tobytes())
            h.update(json.dumps([s.labels, s.report]).encode())
        h.update(json.dumps([list(map(int, part)) for part in split_studies(40, rng)]).encode())
    assert h.hexdigest() == "22f5c4ba9086fbd6e8e10e75de61d0f5dff7e82f24ca9b80d36847460c875d96"


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
    meta, _ = store.read(tmp_path / "train.images", IMAGES_MAGIC, DatasetError)
    assert meta["study_ids"] == [row["study_id"] for row in rows]
    for row in rows:
        assert set(row) == {"study_id", "images", "labels", "report"}
        assert len(row["labels"]) == 14
        assert row["images"] == "train.images"


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


@pytest.mark.parametrize("split", ["train", "val", "test"])
@pytest.mark.parametrize("damage", ["truncate", "flip_pixel"])
def test_damaged_container_fails_naming_the_file(tmp_path, damage, split):
    gen_dataset(SyntheticSpec(n_studies=20, image_size=16, seed=2), tmp_path)
    path = tmp_path / f"{split}.images"
    blob = bytearray(path.read_bytes())
    if damage == "truncate":
        del blob[-8:]
    else:
        blob[-33] ^= 0x01  # the last pixel's high byte, just before the checksum
    path.write_bytes(bytes(blob))
    what = "truncated" if damage == "truncate" else "checksum mismatch"
    with pytest.raises(DatasetError, match=f"{split}.images: {what}"):
        load_split(tmp_path, split)


@pytest.mark.parametrize("n", [1, 5, 2000])
def test_one_image_container_per_split(tmp_path, n):
    gen_dataset(SyntheticSpec(n_studies=n, image_size=16, seed=3), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dataset.json", "test.images", "test.jsonl", "train.images", "train.jsonl",
        "val.images", "val.jsonl"]


def test_subset_manifest_from_test_lines_loads_the_same_pixels(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=30, image_size=16, seed=4), tmp_path)
    lines = (tmp_path / "test.jsonl").read_text().splitlines()
    (tmp_path / "subset.jsonl").write_text(lines[4] + "\n" + lines[1] + "\n")
    test = {s.study_id: s for s in load_split(tmp_path, "test")}
    subset = load_manifest_path(tmp_path / "subset.jsonl")
    assert [s.study_id for s in subset] == [json.loads(lines[i])["study_id"] for i in (4, 1)]
    for s in subset:
        assert s.pixels.tobytes() == test[s.study_id].pixels.tobytes()
        assert (s.labels, s.report) == (test[s.study_id].labels, test[s.study_id].report)


def test_row_missing_from_its_container_names_study_and_file(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=10, image_size=16, seed=5), tmp_path)
    row = json.loads((tmp_path / "test.jsonl").read_text().splitlines()[0])
    row["images"] = "val.images"
    (tmp_path / "moved.jsonl").write_text(json.dumps(row) + "\n")
    with pytest.raises(DatasetError, match=f"study {row['study_id']} is not in .*val.images"):
        load_split(tmp_path, "moved")


def test_container_shape_disagreeing_with_descriptor_is_named(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=10, image_size=16, seed=6), tmp_path)
    info = json.loads((tmp_path / "dataset.json").read_text())
    (tmp_path / "dataset.json").write_text(json.dumps({**info, "image_size": 32}))
    with pytest.raises(DatasetError, match="16x16 images but dataset.json gives image_size 32"):
        load_split(tmp_path, "train")
    # a container from another writer: ids and pixels that do not pair up
    store.write(tmp_path / "train.images", IMAGES_MAGIC, {"study_ids": ["a"]},
                {"pixels": np.zeros((2, 16, 16))})
    with pytest.raises(DatasetError, match="train.images: corrupt image container"):
        load_split(tmp_path, "train")


def test_per_image_dataset_fails_naming_the_layout(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=10, image_size=16, seed=7), tmp_path)
    row = json.loads((tmp_path / "train.jsonl").read_text().splitlines()[0])
    del row["images"]
    row["image_path"] = f"images/{row['study_id']}.f64"
    (tmp_path / "old.jsonl").write_text(json.dumps(row) + "\n")
    with pytest.raises(DatasetError, match=f"study {row['study_id']} .*per-image layout"):
        load_split(tmp_path, "old")


def test_missing_dataset_descriptor_is_named(tmp_path):
    gen_dataset(SyntheticSpec(n_studies=5, image_size=16, seed=3), tmp_path)
    (tmp_path / "dataset.json").unlink()
    with pytest.raises(FileNotFoundError, match="dataset.json"):
        load_split(tmp_path, "train")
