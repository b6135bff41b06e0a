"""The one persistence layer: the container, model loading, provenance, fuzzing."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_samples
from dast_lab import dmsr, store
from dast_lab.pipeline import (
    CKPT_MAGIC,
    CheckpointError,
    Stage1Config,
    Stage1Model,
    Stage2Config,
    build_index,
    generate_reports,
    load_checkpoint,
    run_stage2,
    save_checkpoint,
    stage1_arrays,
    stage1_from_arrays,
    stage2_arrays,
    stage2_from_arrays,
)

S1 = dict(channels=8, depth=1, patch_size=4)
S2 = dict(total_steps=2, warmup_steps=0, batch_size=2, decoder_width=8, decoder_blocks=1,
          decoder_pretrain_steps=2, max_positions=128, seed=4)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    samples = make_samples(4, seed=3)
    s1 = Stage1Model.init(np.random.default_rng(1), Stage1Config(**S1))
    index = build_index(s1, samples)
    s2, _ = run_stage2(Stage2Config(**S2), samples, stage1_arrays(s1), index)
    save_checkpoint(root / "s1.ckpt", stage1_arrays(s1))
    save_checkpoint(root / "s2.ckpt", stage2_arrays(s2))
    dmsr.save(index, root / "train.dmsr")
    return root, samples, s1, s2, index


LOADERS = {
    "s1.ckpt": (lambda p: stage1_from_arrays(load_checkpoint(p)), CheckpointError, CKPT_MAGIC),
    "s2.ckpt": (lambda p: stage2_from_arrays(load_checkpoint(p)), CheckpointError, CKPT_MAGIC),
    "train.dmsr": (dmsr.load, dmsr.IndexFormatError, dmsr.MAGIC),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupt_files_raise_only_the_format_error(files, name, data):
    root = files[0]
    loader, error, magic = LOADERS[name]
    blob = (root / name).read_bytes()
    path = root / f"corrupt_{name}"
    if data.draw(st.booleans(), label="truncate"):
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")])
        with pytest.raises(error):
            loader(path)
        return
    # half the flips land in the magic, the length field or the JSON header
    head = len(magic) + 4 + struct.unpack_from("<I", blob, len(magic))[0]
    bit = data.draw(st.one_of(st.integers(0, 8 * head - 1),
                              st.integers(0, 8 * len(blob) - 1)), label="bit")
    bad = bytearray(blob)
    bad[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(bad))
    with pytest.raises(error):
        loader(path)


def test_checkpoints_round_trip_bit_exact_through_init(files):
    root, samples, s1, s2, _ = files
    back1 = stage1_from_arrays(load_checkpoint(root / "s1.ckpt"))
    back2 = stage2_from_arrays(load_checkpoint(root / "s2.ckpt"))
    for model, back in ((s1, back1), (s2, back2)):
        assert list(back.named()) == list(model.named())
        for name, t in back.named().items():
            assert t.data.tobytes() == model.named()[name].data.tobytes(), name
            assert not t.requires_grad
    assert back2.vocab.tokens == s2.vocab.tokens
    assert back1.cfg == s1.cfg == Stage1Config(**S1)
    assert back2.cfg == s2.cfg == Stage2Config(**S2)
    assert back2.stage1.cfg == s2.stage1.cfg == s1.cfg
    assert stage2_arrays(back2)["meta"] == stage2_arrays(s2)["meta"]


def test_rewrite_is_byte_identical_and_leaves_no_temp_file(files, tmp_path):
    root = files[0]
    save_checkpoint(tmp_path / "again.ckpt", load_checkpoint(root / "s2.ckpt"))
    dmsr.save(dmsr.load(root / "train.dmsr"), tmp_path / "again.dmsr")
    assert (tmp_path / "again.ckpt").read_bytes() == (root / "s2.ckpt").read_bytes()
    assert (tmp_path / "again.dmsr").read_bytes() == (root / "train.dmsr").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.ckpt", "again.dmsr"]


def test_old_format_files_fail_on_the_magic(tmp_path):
    old_ckpt, old_index = tmp_path / "old.ckpt", tmp_path / "old.dmsr"
    for ckpt_magic in (b"DLCKPT1", b"DLCKPT2", b"DLCKPT3", b"DLCKPT4"):
        old_ckpt.write_bytes(ckpt_magic + struct.pack("<I", 0))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(old_ckpt)
    for index_magic in (b"DMSR1\x00", b"DMSR2\x00"):
        old_index.write_bytes(index_magic + struct.pack("<II", 4, 0))
        with pytest.raises(dmsr.IndexFormatError, match="magic"):
            dmsr.load(old_index)


def test_flipped_data_bit_fails_the_checksum(files, tmp_path):
    blob = bytearray((files[0] / "s1.ckpt").read_bytes())
    blob[-40] ^= 1  # the last float's low byte, inside the data
    (tmp_path / "flip.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(tmp_path / "flip.ckpt")


def test_wrong_kind_shape_and_nonfinite_tensors_are_named(files):
    _, _, s1, s2, _ = files
    with pytest.raises(CheckpointError, match="expected a stage1 checkpoint, got stage2"):
        stage1_from_arrays(stage2_arrays(s2))
    with pytest.raises(CheckpointError, match="expected a stage2 checkpoint, got stage1"):
        stage2_from_arrays(stage1_arrays(s1))
    arrays = stage1_arrays(s1)
    arrays["dast/head_b"] = np.zeros(13)
    with pytest.raises(CheckpointError, match="'dast/head_b' has shape"):
        stage1_from_arrays(arrays)
    arrays["dast/head_b"] = np.full(14, np.nan)
    with pytest.raises(CheckpointError, match="non-finite values in tensor 'dast/head_b'"):
        stage1_from_arrays(arrays)
    del arrays["dast/head_b"]
    with pytest.raises(CheckpointError, match="missing tensor 'dast/head_b'"):
        stage1_from_arrays(arrays)


def test_index_from_other_stage1_arrays_is_refused(files):
    _, samples, s1, s2, index = files
    assert index.stage1_sha256 == store.sha256(
        {n: t.data for n, t in s2.stage1.named().items()})
    other = Stage1Model.init(np.random.default_rng(2), Stage1Config(**S1))
    stale = build_index(other, samples)
    assert stale.width == index.width and stale.stage1_sha256 != index.stage1_sha256
    with pytest.raises(dmsr.StaleIndexError, match="stale index"):
        generate_reports(s2, samples[:1], stale)
    with pytest.raises(dmsr.StaleIndexError, match="stale index"):
        run_stage2(Stage2Config(**S2), samples, stage1_arrays(s1), stale)


def test_index_rejects_nonfinite_vectors():
    index = dmsr.ExemplarIndex(width=3)
    with pytest.raises(ValueError, match="non-finite"):
        dmsr.add_exemplar(index, dmsr.ExemplarRecord("a", [1.0, np.inf, 0.0],
                                                     np.ones(14), "r"))
    assert len(index) == 0


def test_write_keeps_its_bytes_and_zero_d_arrays_round_trip_as_zero_d(tmp_path):
    arrays = {"w": np.arange(12.0).reshape(3, 4) / 7, "t": np.arange(6.0).reshape(2, 3).T,
              "s": np.array(3.25), "e": np.zeros((0, 5))}
    path = tmp_path / "golden.bin"
    store.write(path, b"DLTEST1", {"kind": "golden", "n": [1, 2]}, arrays)
    # the digest of the same call when write joined the whole body first
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "b6955b01508bc4070894b01648465ec26172f6647a1cbb6c3fd845d8416957ff"
    meta, back = store.read(path, b"DLTEST1", ValueError)
    assert meta == {"kind": "golden", "n": [1, 2]}
    for name, a in arrays.items():
        assert back[name].shape == a.shape and back[name].tobytes() == a.tobytes(), name
    assert back["s"].shape == () and back["s"].flags.writeable


def test_write_streams_and_read_holds_one_buffer(tmp_path):
    a = np.random.default_rng(0).normal(size=(256, 512))  # 1 MiB
    path = tmp_path / "big.bin"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        store.write(path, b"DLTEST1", {}, {"a": a})
        write_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _, back = store.read(path, b"DLTEST1", ValueError)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert write_peak < a.nbytes // 16  # no copy of the array or the body
    assert a.nbytes <= read_peak < a.nbytes * 17 // 16  # the one buffer the views share
    assert back["a"].tobytes() == a.tobytes()
