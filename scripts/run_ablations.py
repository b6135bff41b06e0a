#!/usr/bin/env python3
"""Component ablation: baseline / +fusion / +fusion+retrieval, one table.

Shares one dataset and one stage-1 checkpoint across the three stage-2
configurations, then scores each on the test split.

    python3 scripts/run_ablations.py --workdir out/ablation --n 500 --seed 13
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
total_steps = 300
batch_size = 8
decoder_width = 64
decoder_pretrain_steps = 500
decoder_pretrain_lr = 2e-3
max_positions = 384
"""

CONFIGS = [
    ("baseline", ["--no-dast-dvaf", "--no-dmsr"]),
    ("dast_dvaf", ["--no-dmsr"]),
    ("dast_dvaf_dmsr", []),
]


def run(args):
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    data = work / "data"
    (work / "stage1.cfg").write_text(STAGE1_CFG + f"seed = {args.seed}\n")
    (work / "stage2.cfg").write_text(STAGE2_CFG + f"seed = {args.seed}\n")

    base = [
        ["gen-data", "--n", str(args.n), "--seed", str(args.seed), "--out", str(data)],
        ["train-stage1", "--data", str(data), "--config", str(work / "stage1.cfg"),
         "--out-ckpt", str(work / "stage1.ckpt")],
        ["build-index", "--data", str(data), "--ckpt", str(work / "stage1.ckpt"),
         "--out-index", str(work / "train.dmsr")],
    ]
    for argv in base:
        print("$ dast-lab " + " ".join(argv))
        if dast_lab(argv) != 0:
            return 1

    results = {}
    for name, flags in CONFIGS:
        ckpt = work / f"stage2_{name}.ckpt"
        steps = [
            ["train-stage2", "--data", str(data), "--stage1-ckpt", str(work / "stage1.ckpt"),
             "--index", str(work / "train.dmsr"), "--config", str(work / "stage2.cfg"),
             "--out-ckpt", str(ckpt)] + flags,
            ["generate", "--data-split", str(data / "test.jsonl"), "--ckpt", str(ckpt),
             "--index", str(work / "train.dmsr"), "--out", str(work / f"reports_{name}.jsonl")],
            ["evaluate", "--hyp", str(work / f"reports_{name}.jsonl"), "--ref", str(data),
             "--out", str(work / f"metrics_{name}.json")],
        ]
        for argv in steps:
            print("$ dast-lab " + " ".join(argv))
            if dast_lab(argv) != 0:
                return 1
        results[name] = json.loads((work / f"metrics_{name}.json").read_text())

    print(f"\n{'config':<18} {'BLEU-4':>8} {'ROUGE-L':>8} {'CIDEr':>8} {'macro-F1':>9}")
    for name, _ in CONFIGS:
        m = results[name]
        print(f"{name:<18} {m['bleu_4']:>8.4f} {m['rouge_l']:>8.4f} "
              f"{m['cider']:>8.4f} {m['clinical']['macro']['f1']:>9.4f}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="out/ablation")
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--seed", type=int, default=13)
    sys.exit(run(parser.parse_args()))
