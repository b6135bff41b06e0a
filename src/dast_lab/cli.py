"""Command-line surface: dataset generation, training, retrieval, evaluation.

Every command exits 0 on success and nonzero with a one-line diagnostic on
stderr otherwise. All randomness flows from the seed (CLI flag or config
key), with the DAST_LAB_SEED environment variable as a fallback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import dmsr
from .metrics import Corpus, clinical_prf, extract_labels, nlg_report
from .pipeline import (
    Stage1Config,
    Stage2Config,
    build_index,
    generate_reports,
    load_checkpoint,
    make_config,
    parse_config_file,
    run_stage1,
    run_stage2,
    save_checkpoint,
    stage1_arrays,
    stage1_from_arrays,
    stage2_arrays,
    stage2_from_arrays,
)
from .synth import SyntheticSpec, gen_dataset, load_manifest_path, load_split, read_manifest


def _env_seed(default=None):
    """DAST_LAB_SEED as an int, or `default` when it is unset."""
    value = os.environ.get("DAST_LAB_SEED")
    try:
        return default if value is None else int(value)
    except ValueError:
        raise ValueError(f"DAST_LAB_SEED must be an integer, got '{value}'") from None


def _train_config(args, cls, extra=None, inherited=None):
    """Flag over config key over fallback (DAST_LAB_SEED, dataset.json), resolved once."""
    settings = {}
    info = Path(args.data) / "dataset.json"
    if cls is Stage1Config and info.exists():
        settings["patch_size"] = json.loads(info.read_text())["patch_size"]
    if args.config:
        settings.update(parse_config_file(args.config))
    if "seed" not in settings:  # the variable is read only when it is the fallback
        settings["seed"] = _env_seed()
    settings.update(extra or {})
    return make_config(cls, overrides=settings, inherited=inherited)


def cmd_gen_data(args):
    seed = args.seed if args.seed is not None else _env_seed(default=0)
    spec = SyntheticSpec(n_studies=args.n, image_size=args.image_size,
                         patch_size=args.patch_size, seed=seed)
    gen_dataset(spec, args.out)
    print(f"wrote {args.n} studies to {args.out}")
    return 0


def cmd_train_stage1(args):
    cfg = _train_config(args, Stage1Config)
    samples = load_split(args.data, "train")
    model, log = run_stage1(cfg, samples, log_path=f"{args.out_ckpt}.log.jsonl")
    save_checkpoint(args.out_ckpt, stage1_arrays(model))
    print(f"stage-1 checkpoint at {args.out_ckpt} "
          f"(final loss {log[-1]['loss']:.4f}, {len(samples)} studies)")
    return 0


def cmd_build_index(args):
    model = stage1_from_arrays(load_checkpoint(args.ckpt))
    samples = load_split(args.data, "train")
    index = build_index(model, samples)
    dmsr.save(index, args.out_index)
    print(f"indexed {len(index)} exemplars at {args.out_index}")
    return 0


def cmd_train_stage2(args):
    extra = {}
    if args.no_dast_dvaf:
        extra["use_dast_dvaf"] = False
    if args.no_dmsr:
        extra["use_dmsr"] = False
    if args.lambda_ is not None:
        extra["lambda_"] = args.lambda_
    arrays = load_checkpoint(args.stage1_ckpt)
    cfg = _train_config(args, Stage2Config, extra, inherited=stage1_from_arrays(arrays).cfg)
    if cfg.use_dmsr and not args.index:
        raise ValueError("--index is required unless --no-dmsr is set")
    samples = load_split(args.data, "train")
    index = dmsr.load(args.index) if args.index else None
    model, log = run_stage2(cfg, samples, arrays, index,
                            log_path=f"{args.out_ckpt}.log.jsonl")
    save_checkpoint(args.out_ckpt, stage2_arrays(model))
    final = log[-1]["loss"] if log else float("nan")
    print(f"stage-2 checkpoint at {args.out_ckpt} (final batch loss {final:.4f})")
    return 0


def cmd_generate(args):
    model = stage2_from_arrays(load_checkpoint(args.ckpt))
    if model.cfg.use_dmsr and not args.index:
        raise ValueError("checkpoint was trained with retrieval: --index is required")
    index = dmsr.load(args.index) if args.index else None
    samples = load_manifest_path(args.data_split)
    rows = generate_reports(model, samples, index)
    with open(args.out, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} reports to {args.out}")
    return 0


def _reference_reports(data_dir):
    """{study_id: report} from the manifests alone; no image is read."""
    refs = {}
    for split in ("train", "val", "test"):
        if (Path(data_dir) / f"{split}.jsonl").exists():
            refs.update((row["study_id"], row["report"])
                        for row in read_manifest(data_dir, split))
    return refs


def cmd_evaluate(args):
    hyps = {}
    for line in Path(args.hyp).read_text().splitlines():
        row = json.loads(line)
        if row["study_id"] in hyps:
            raise ValueError(f"repeated study id '{row['study_id']}' in {args.hyp}")
        hyps[row["study_id"]] = row["hypothesis"]
    if not hyps:
        raise ValueError(f"no hypotheses found in {args.hyp}")
    refs = _reference_reports(args.ref)
    missing = sorted(set(hyps) - set(refs))
    if missing:
        raise ValueError(f"study ids missing from reference data: {missing[:5]}")
    corpus = Corpus.from_maps(hyps, {sid: refs[sid] for sid in hyps})
    report = nlg_report(corpus)
    hyp_labels = {sid: extract_labels(text) for sid, text in hyps.items()}
    ref_labels = {sid: extract_labels(refs[sid]) for sid in hyps}
    report["clinical"] = clinical_prf(hyp_labels, ref_labels)
    Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"bleu4={report['bleu_4']:.4f} rougeL={report['rouge_l']:.4f} "
          f"cider={report['cider']:.4f} macroF1={report['clinical']['macro']['f1']:.4f}")
    return 0


def cmd_query_index(args):
    index = dmsr.load(args.index)
    record = next((r for r in index.records if r.study_id == args.study_id), None)
    if record is None:
        raise ValueError(f"study_id '{args.study_id}' not found in index")
    results = dmsr.query(index, record.z_bar, record.logits, lam=args.lambda_,
                         k=args.k, exclude_id=args.study_id)
    for sid, score in results:
        print(f"{sid}\t{score:.12f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dast-lab",
        description="disease-aware report generation lab: synthetic data, "
                    "two-stage training, retrieval, metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of studies")
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--patch-size", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-stage1", help="train encoder, disease tokens, heads")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out-ckpt", required=True)
    p.set_defaults(func=cmd_train_stage1)

    p = sub.add_parser("build-index", help="store train-split exemplars")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True, help="stage-1 checkpoint")
    p.add_argument("--out-index", required=True)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("train-stage2", help="train the projection path for generation")
    p.add_argument("--data", required=True)
    p.add_argument("--stage1-ckpt", required=True)
    p.add_argument("--index", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--no-dast-dvaf", action="store_true",
                   help="baseline ablation: patch tokens only")
    p.add_argument("--no-dmsr", action="store_true",
                   help="ablation: no retrieved exemplar prompt")
    p.add_argument("--lambda", dest="lambda_", type=float, default=None,
                   help="retrieval similarity balance")
    p.set_defaults(func=cmd_train_stage2)

    p = sub.add_parser("generate", help="greedy-decode reports for a split")
    p.add_argument("--data-split", required=True, help="path to a split manifest .jsonl")
    p.add_argument("--ckpt", required=True, help="stage-2 checkpoint")
    p.add_argument("--index", default=None)
    p.add_argument("--out", required=True, help="reports .jsonl output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score generated reports against references")
    p.add_argument("--hyp", required=True, help="reports .jsonl")
    p.add_argument("--ref", required=True, help="dataset directory with references")
    p.add_argument("--out", required=True, help="metrics .json output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("query-index", help="rank neighbors of a stored study")
    p.add_argument("--index", required=True)
    p.add_argument("--study-id", required=True)
    p.add_argument("--lambda", dest="lambda_", type=float, default=None)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_query_index)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
