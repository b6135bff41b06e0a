#!/usr/bin/env python3
"""End-to-end demo: synthetic data -> stage 1 -> index -> stage 2 -> reports -> metrics.

Everything goes through the CLI, so this doubles as a living usage example.

    python3 scripts/run_pipeline.py --workdir out/demo --n 80 --seed 3
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dast_lab.cli import main as dast_lab  # noqa: E402

STAGE1_CFG = """\
base_lr = 3e-3
warmup_steps = 40
total_steps = 300
batch_size = 64
channels = 32
depth = 2
tau = 1.0
"""

STAGE2_CFG = """\
base_lr = 3e-3
warmup_steps = 30
total_steps = 400
batch_size = 8
decoder_width = 64
decoder_pretrain_steps = 700
decoder_pretrain_lr = 2e-3
max_positions = 384
"""


def run(args):
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    data = work / "data"
    cfg1 = work / "stage1.cfg"
    cfg2 = work / "stage2.cfg"
    cfg1.write_text(STAGE1_CFG + f"seed = {args.seed}\n")
    cfg2.write_text(STAGE2_CFG + f"seed = {args.seed}\n")

    steps = [
        ["gen-data", "--n", str(args.n), "--seed", str(args.seed), "--out", str(data)],
        ["train-stage1", "--data", str(data), "--config", str(cfg1),
         "--out-ckpt", str(work / "stage1.ckpt")],
        ["build-index", "--data", str(data), "--ckpt", str(work / "stage1.ckpt"),
         "--out-index", str(work / "train.dmsr")],
        ["train-stage2", "--data", str(data), "--stage1-ckpt", str(work / "stage1.ckpt"),
         "--index", str(work / "train.dmsr"), "--config", str(cfg2),
         "--out-ckpt", str(work / "stage2.ckpt")],
        ["generate", "--data-split", str(data / "test.jsonl"),
         "--ckpt", str(work / "stage2.ckpt"), "--index", str(work / "train.dmsr"),
         "--out", str(work / "reports.jsonl")],
        ["evaluate", "--hyp", str(work / "reports.jsonl"), "--ref", str(data),
         "--out", str(work / "metrics.json")],
    ]
    for argv in steps:
        print("$ dast-lab " + " ".join(argv))
        code = dast_lab(argv)
        if code != 0:
            return code
    print(json.dumps(json.loads((work / "metrics.json").read_text()), indent=2)[:400])
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="out/demo")
    parser.add_argument("--n", type=int, default=80)
    parser.add_argument("--seed", type=int, default=3)
    sys.exit(run(parser.parse_args()))
