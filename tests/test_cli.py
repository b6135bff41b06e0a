import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dast_lab
from dast_lab.cli import main
from dast_lab.dmsr import brute_force_oracle, load as load_index
from dast_lab.pipeline import load_checkpoint


FAST_STAGE1 = """
base_lr = 2e-3
warmup_steps = 10
total_steps = 60
batch_size = 16
channels = 16
depth = 1
seed = 11
tau = 1.0
"""

FAST_STAGE2 = """
base_lr = 3e-3
warmup_steps = 5
total_steps = 30
batch_size = 4
channels = 16
depth = 1
seed = 11
decoder_width = 24
decoder_pretrain_steps = 60
decoder_pretrain_lr = 2e-3
max_positions = 256
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--n", "30", "--image-size", "16", "--patch-size", "4",
                 "--seed", "5", "--out", str(data)]) == 0
    (root / "s1.cfg").write_text(FAST_STAGE1)
    (root / "s2.cfg").write_text(FAST_STAGE2)
    assert main(["train-stage1", "--data", str(data), "--config", str(root / "s1.cfg"),
                 "--out-ckpt", str(root / "stage1.ckpt")]) == 0
    assert main(["build-index", "--data", str(data), "--ckpt", str(root / "stage1.ckpt"),
                 "--out-index", str(root / "train.dmsr")]) == 0
    assert main(["train-stage2", "--data", str(data),
                 "--stage1-ckpt", str(root / "stage1.ckpt"),
                 "--index", str(root / "train.dmsr"),
                 "--config", str(root / "s2.cfg"),
                 "--out-ckpt", str(root / "stage2.ckpt")]) == 0
    return root, data


def test_gen_data_outputs(workspace):
    _, data = workspace
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "dataset.json"):
        assert (data / name).exists()
    rows = [json.loads(x) for x in (data / "train.jsonl").read_text().splitlines()]
    assert len(rows) == 21  # 70% of 30


def test_training_artifacts_exist(workspace):
    root, _ = workspace
    assert (root / "stage1.ckpt").exists()
    assert (root / "stage1.ckpt.log.jsonl").exists()
    log = [json.loads(x) for x in (root / "stage1.ckpt.log.jsonl").read_text().splitlines()]
    assert {"step", "lr", "loss", "loss_cls", "loss_ctl"} <= set(log[0])
    assert (root / "stage2.ckpt").exists()


def test_generate_and_evaluate_roundtrip(workspace):
    root, data = workspace
    reports = root / "reports.jsonl"
    metrics = root / "metrics.json"
    assert main(["generate", "--data-split", str(data / "test.jsonl"),
                 "--ckpt", str(root / "stage2.ckpt"),
                 "--index", str(root / "train.dmsr"),
                 "--out", str(reports)]) == 0
    rows = [json.loads(x) for x in reports.read_text().splitlines()]
    assert len(rows) == 6  # 20% of 30
    assert [r["study_id"] for r in rows] == sorted(r["study_id"] for r in rows)
    assert main(["evaluate", "--hyp", str(reports), "--ref", str(data),
                 "--out", str(metrics)]) == 0
    out = json.loads(metrics.read_text())
    for key in ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l", "cider", "clinical"):
        assert key in out
    assert "macro" in out["clinical"] and "micro" in out["clinical"]


def test_evaluate_reads_the_manifests_alone(workspace, tmp_path):
    _, data = workspace
    refs = tmp_path / "refs"
    refs.mkdir()
    for name in ("train.jsonl", "val.jsonl", "test.jsonl"):  # no image container
        (refs / name).write_bytes((data / name).read_bytes())
    rows = [json.loads(x) for x in (data / "test.jsonl").read_text().splitlines()]
    (tmp_path / "hyp.jsonl").write_text("".join(
        json.dumps({"study_id": r["study_id"], "hypothesis": r["report"]}) + "\n"
        for r in rows))
    assert main(["evaluate", "--hyp", str(tmp_path / "hyp.jsonl"), "--ref", str(refs),
                 "--out", str(tmp_path / "metrics.json")]) == 0
    assert json.loads((tmp_path / "metrics.json").read_text())["bleu_4"] == 1.0


def test_evaluate_refuses_a_repeated_study_id(workspace, tmp_path, capsys):
    _, data = workspace
    rows = [json.loads(x) for x in (data / "test.jsonl").read_text().splitlines()]
    lines = [json.dumps({"study_id": r["study_id"], "hypothesis": r["report"]}) for r in rows]
    lines.append(json.dumps({"study_id": rows[1]["study_id"], "hypothesis": "other"}))
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(data),
                 "--out", str(tmp_path / "metrics.json")]) == 1
    err = capsys.readouterr().err
    assert f"repeated study id '{rows[1]['study_id']}'" in err and str(hyp) in err
    assert not (tmp_path / "metrics.json").exists()


def test_query_index_matches_oracle(workspace, capsys):
    root, _ = workspace
    index = load_index(root / "train.dmsr")
    target = index.records[0]
    assert main(["query-index", "--index", str(root / "train.dmsr"),
                 "--study-id", target.study_id, "--lambda", "0.5", "--k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = [(line.split("\t")[0], float(line.split("\t")[1])) for line in lines]
    expect = brute_force_oracle(index, target.z_bar, target.logits, lam=0.5, k=3,
                                exclude_id=target.study_id)
    assert [sid for sid, _ in got] == [sid for sid, _ in expect]
    for (_, a), (_, b) in zip(got, expect):
        assert abs(a - b) < 1e-12
    assert target.study_id not in [sid for sid, _ in got]


def test_unknown_config_key_fails_with_key_name(workspace, tmp_path, capsys):
    root, data = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate=0.1\n")
    code = main(["train-stage1", "--data", str(data), "--config", str(bad),
                 "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "learning_rate" in err and err.count("\n") == 1


def test_stage2_without_index_requires_no_dmsr_flag(workspace, tmp_path, capsys):
    root, data = workspace
    code = main(["train-stage2", "--data", str(data),
                 "--stage1-ckpt", str(root / "stage1.ckpt"),
                 "--config", str(root / "s2.cfg"),
                 "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert code == 1
    assert "--index" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DAST_LAB_SEED", "9")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--n", "6", "--image-size", "16", "--out", str(a)]) == 0
    assert main(["gen-data", "--n", "6", "--image-size", "16", "--seed", "9",
                 "--out", str(b)]) == 0
    assert (a / "train.jsonl").read_bytes() == (b / "train.jsonl").read_bytes()


def test_corrupt_checkpoint_fails_cleanly(workspace, tmp_path, capsys):
    root, data = workspace
    bad = tmp_path / "bad.ckpt"
    blob = bytearray((root / "stage1.ckpt").read_bytes())
    blob[0] ^= 0xFF
    bad.write_bytes(bytes(blob))
    code = main(["build-index", "--data", str(data), "--ckpt", str(bad),
                 "--out-index", str(tmp_path / "x.dmsr")])
    assert code == 1
    assert "magic" in capsys.readouterr().err


def test_stage2_refuses_index_built_from_another_stage1_checkpoint(workspace, tmp_path, capsys):
    root, data = workspace
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(FAST_STAGE1.replace("seed = 11", "seed = 12"))
    other = tmp_path / "other.ckpt"
    assert main(["train-stage1", "--data", str(data), "--config", str(other_cfg),
                 "--out-ckpt", str(other)]) == 0
    capsys.readouterr()
    code = main(["train-stage2", "--data", str(data), "--stage1-ckpt", str(other),
                 "--index", str(root / "train.dmsr"), "--config", str(root / "s2.cfg"),
                 "--out-ckpt", str(tmp_path / "x.ckpt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "stale index" in err and "does not match" in err
    assert not (tmp_path / "x.ckpt").exists()


def test_generate_names_the_wrong_checkpoint_kind(workspace, tmp_path, capsys):
    root, data = workspace
    code = main(["generate", "--data-split", str(data / "test.jsonl"),
                 "--ckpt", str(root / "stage1.ckpt"), "--index", str(root / "train.dmsr"),
                 "--out", str(tmp_path / "reports.jsonl")])
    assert code == 1
    assert "expected a stage2 checkpoint, got stage1" in capsys.readouterr().err


def test_checkpoints_store_the_resolved_config(tmp_path, monkeypatch):
    # no seed key and no patch_size key: DAST_LAB_SEED and dataset.json decide
    monkeypatch.setenv("DAST_LAB_SEED", "7")
    data = tmp_path / "data"
    assert main(["gen-data", "--n", "10", "--image-size", "16", "--patch-size", "8",
                 "--out", str(data)]) == 0
    schedule = "total_steps = 2\nwarmup_steps = 0\nbatch_size = 2\n"
    cfg1, cfg2 = tmp_path / "tiny1.cfg", tmp_path / "tiny2.cfg"
    cfg1.write_text(schedule + "channels = 8\ndepth = 1\n")
    cfg2.write_text(schedule + "decoder_width = 8\ndecoder_blocks = 1\n"
                    "decoder_pretrain_steps = 1\nmax_positions = 64\n")
    assert main(["train-stage1", "--data", str(data), "--config", str(cfg1),
                 "--out-ckpt", str(tmp_path / "s1.ckpt")]) == 0
    assert main(["train-stage2", "--data", str(data), "--stage1-ckpt", str(tmp_path / "s1.ckpt"),
                 "--no-dmsr", "--lambda", "0.25", "--config", str(cfg2),
                 "--out-ckpt", str(tmp_path / "s2.ckpt")]) == 0
    meta = load_checkpoint(tmp_path / "s2.ckpt")["meta"]
    assert meta["config"]["seed"] == meta["stage1"]["seed"] == 7
    assert (meta["stage1"]["patch_size"], meta["stage1"]["channels"]) == (8, 8)
    assert (meta["config"]["use_dmsr"], meta["config"]["lambda_"]) == (False, 0.25)
    assert not {"tau", "channels", "patch_size", "depth", "refine_depth"} & set(meta["config"])
    assert meta["stage1"] == load_checkpoint(tmp_path / "s1.ckpt")["meta"]["config"]


@pytest.mark.parametrize("command, key, value", [
    ("train-stage1", "decoder_width", "8"),
    ("train-stage2", "channels", "99"),  # the stage-1 checkpoint has 16
])
def test_config_key_the_stage_does_not_take_fails_naming_it(workspace, tmp_path, capsys,
                                                             command, key, value):
    # a stage-2 file may repeat a stage-1 key only with the checkpoint's value
    root, data = workspace
    base = FAST_STAGE1 if command == "train-stage1" else FAST_STAGE2
    (tmp_path / "bad.cfg").write_text(base + f"{key} = {value}\n")  # the last line wins
    stage2_args = ["--stage1-ckpt", str(root / "stage1.ckpt"),
                   "--index", str(root / "train.dmsr")]
    code = main([command, "--data", str(data), "--config", str(tmp_path / "bad.cfg"),
                 "--out-ckpt", str(tmp_path / "x.ckpt"),
                 *(stage2_args if command == "train-stage2" else [])])
    assert code == 1
    err = capsys.readouterr().err
    assert f"'{key}'" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


@pytest.mark.parametrize("command", ["gen-data", "train-stage1"])
def test_bad_env_seed_fails_naming_the_variable(workspace, tmp_path, monkeypatch, capsys,
                                                command):
    _, data = workspace
    monkeypatch.setenv("DAST_LAB_SEED", "abc")
    (tmp_path / "noseed.cfg").write_text(FAST_STAGE1.replace("seed = 11\n", ""))
    argv = {"gen-data": ["gen-data", "--n", "6", "--out", str(tmp_path / "d")],
            "train-stage1": ["train-stage1", "--data", str(data), "--config",
                             str(tmp_path / "noseed.cfg"), "--out-ckpt", str(tmp_path / "x.ckpt")]}
    assert main(argv[command]) == 1
    assert "DAST_LAB_SEED" in capsys.readouterr().err
    assert not (tmp_path / "d").exists() and not (tmp_path / "x.ckpt").exists()


def test_empty_train_split_fails_instead_of_hanging(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-data", "--n", "1", "--image-size", "16", "--out", str(data)]) == 0
    assert (data / "train.jsonl").read_text() == ""
    env = {**os.environ, "PYTHONPATH": str(Path(dast_lab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "dast_lab.cli", "train-stage1", "--data",
                           str(data), "--out-ckpt", str(tmp_path / "s1.ckpt")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "train split is empty" in done.stderr


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_pins_blas_to_one_thread_unless_set(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(dast_lab.__file__).parents[1])
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    code = "import os, dast_lab; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["1", preset or "1", "1"]


GOLDEN_DISK = {  # recorded with the per-image dataset layout: the pixels keep their bits
    "stage1.ckpt": "00340c949b2605202542ef1b2de3953235f2d8918b7c5c8d2ee4f97d00e5317e",
    "train.dmsr": "862cb137d3a1928846f27a9031b33c5a1cdcb217f3b3645258fb61e6a3b32976",
}


def test_disk_pipeline_writes_its_golden_bits(tmp_path):
    # gen-data -> train-stage1 -> build-index read the dataset back from disk
    data = tmp_path / "data"
    (tmp_path / "s1.cfg").write_text("total_steps = 6\nwarmup_steps = 2\nbatch_size = 8\n"
                                     "channels = 8\ndepth = 1\nseed = 3\n")
    assert main(["gen-data", "--n", "40", "--image-size", "16", "--seed", "4",
                 "--out", str(data)]) == 0
    assert main(["train-stage1", "--data", str(data), "--config", str(tmp_path / "s1.cfg"),
                 "--out-ckpt", str(tmp_path / "stage1.ckpt")]) == 0
    assert main(["build-index", "--data", str(data), "--ckpt", str(tmp_path / "stage1.ckpt"),
                 "--out-index", str(tmp_path / "train.dmsr")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_DISK}
    assert digests == GOLDEN_DISK
