"""Command-line pipeline: simulate, train, evaluate, diagnose, ablate.

Every command reads one JSON config (flags override file values), echoes
the fully resolved config into its output directory, and is byte-identical
on rerun with the same config and seed. Errors print as
``[module] ErrorName: message`` on stderr and the exit code is 0 only on
full success.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, load_config, write_resolved
from .errors import DiagnosticsError, IoError
from .evaluate import (
    VARIANT_NAMES,
    EvalReport,
    evaluate_predictions,
    featurize_splits,
    predict,
    predictions_to_csv,
    run_ablation,
    split,
)
from .graphs import TYPE_CLASSES
from .model import diagnose, load_checkpoint, recording_to_graph, save_checkpoint, train
from .simulate import generate_catalog, load_catalog, read_recording_csv, save_catalog

def _say(args, message: str, stream=None):
    if not args.quiet:
        print(message, file=stream or sys.stdout)


def _overrides(args) -> dict:
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "dataset", None):
        overrides["paths.dataset_dir"] = args.dataset
    if getattr(args, "checkpoint", None):
        overrides["paths.checkpoint"] = args.checkpoint
    if args.out:
        key = "paths.dataset_dir" if args.command == "simulate" else "paths.out_dir"
        overrides[key] = args.out
    return overrides


def _ensure_parent(path: Path):
    if not path.parent.exists():
        raise IoError(f"parent directory does not exist: {path.parent}")


def _out_dir(config: RunConfig) -> Path:
    """The output directory, whose parent must exist.

    Commands create it only once their inputs have loaded, so a command that
    fails on a missing input leaves no directory behind.
    """
    out = Path(config.out_dir)
    _ensure_parent(out)
    return out


def _checkpoint_path(config: RunConfig) -> Path:
    """A bare file name (no path separator) lives under out_dir; any other path is used as given.

    ``./model.bin`` is not bare: it names the file in the working directory.
    """
    path = Path(config.checkpoint)
    return Path(config.out_dir) / path if path.name == config.checkpoint else path


def _load_checkpoint(config: RunConfig):
    path = _checkpoint_path(config)
    if not path.is_file():
        raise IoError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def cmd_simulate(args) -> int:
    config = load_config(args.config, _overrides(args))
    out = Path(config.dataset_dir)
    _ensure_parent(out)

    recordings = []
    for r in range(config.replicates):
        for rec in generate_catalog(config.machine, config.simulate_seed(r), config.noise_snr_db):
            if config.replicates > 1:
                rec.name = f"{rec.name}-rep{r}"
            recordings.append(rec)

    save_catalog(recordings, out, config.machine, config.seed, config.noise_snr_db)
    write_resolved(config, out)

    counts: dict[str, int] = {}
    for rec in recordings:
        counts[rec.label.name()] = counts.get(rec.label.name(), 0) + 1
    for name in sorted(counts):
        _say(args, f"{name}: {counts[name]}")
    _say(args, f"wrote {len(recordings)} recordings to {out}")
    return 0


def _load_dataset(config: RunConfig):
    dataset_dir = Path(config.dataset_dir)
    if not (dataset_dir / "manifest.json").is_file():
        raise IoError(f"no manifest.json under dataset directory: {dataset_dir}")
    return load_catalog(dataset_dir)


def cmd_train(args) -> int:
    config = load_config(args.config, _overrides(args))
    out = _out_dir(config)
    checkpoint_path = _checkpoint_path(config)
    # A checkpoint in out_dir itself is written after out_dir is created.
    if checkpoint_path.parent.absolute() != out.absolute():
        _ensure_parent(checkpoint_path)

    recordings, machine, _ = _load_dataset(config)
    out.mkdir(exist_ok=True)
    train_recs, val_recs, _ = split(recordings, config.ratios, seed=config.split_seed())
    # The checkpoint pins the rate the dataset was sampled at, not the config's.
    pipeline = replace(
        config.pipeline(include_frequency=config.model.ablation != "no_freq_features"),
        sample_rate=machine.sample_rate,
    )
    train_g, val_g, standardizer = featurize_splits((train_recs, val_recs), pipeline)
    _say(args, f"training on {len(train_g)} graphs, validating on {len(val_g)}")

    state, log = train(train_g, config.model, val_dataset=val_g)
    save_checkpoint(checkpoint_path, state, config.model, pipeline, standardizer)

    log_lines = ["epoch,train_loss,val_accuracy"]
    for entry in log:
        val = entry.get("val_accuracy")
        log_lines.append(
            f"{entry['epoch']},{repr(entry['train_loss'])},{'' if val is None else repr(val)}"
        )
    (out / "training_log.csv").write_text("\n".join(log_lines) + "\n")
    write_resolved(config, out)

    if log:
        _say(args, f"final train loss {log[-1]['train_loss']:.4f}")
    _say(args, f"checkpoint written to {checkpoint_path}")
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config, _overrides(args))
    out = _out_dir(config)
    state, model_config, pipeline, standardizer = _load_checkpoint(config)
    recordings, _, _ = _load_dataset(config)
    splits = split(recordings, config.ratios, seed=config.split_seed())
    test_recs = splits[2]

    graphs = [recording_to_graph(rec, pipeline, standardizer) for rec in test_recs]
    out.mkdir(exist_ok=True)

    variant = VARIANT_NAMES[model_config.ablation]
    predictions = predict(graphs, state, model_config)
    rows = evaluate_predictions(
        predictions, variant, include_severity=model_config.ablation != "no_severity"
    )
    report = EvalReport(
        rows=rows,
        split_sizes=(len(splits[0]), len(splits[1]), len(splits[2])),
        seed=config.seed,
    )
    (out / "report.txt").write_text(report.to_text())
    (out / "report.csv").write_text(report.to_csv())
    (out / "predictions.csv").write_text(predictions_to_csv(predictions))
    write_resolved(config, out)
    _say(args, report.to_text().rstrip())
    return 0


def cmd_diagnose(args) -> int:
    config = load_config(args.config, _overrides(args))
    state, model_config, pipeline, standardizer = _load_checkpoint(config)

    recording = read_recording_csv(args.recording)
    result = diagnose(recording, state, model_config, pipeline, standardizer)

    document = {
        "anomaly_probability": result.anomaly_probability,
        "severity_score": result.severity_score,
        "type_distribution": {
            cls: float(p) for cls, p in zip(TYPE_CLASSES, result.type_distribution)
        },
        "decision": result.predicted_type if result.is_anomalous else "healthy",
    }
    # Stdout carries exactly the JSON document; notes go to stderr.
    _say(args, f"diagnosing {recording.name} ({recording.n_samples} samples)", stream=sys.stderr)
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config, _overrides(args))
    out = _out_dir(config)
    recordings, _, _ = _load_dataset(config)
    out.mkdir(exist_ok=True)

    report = run_ablation(
        recordings,
        config.model,
        config.pipeline(),
        ratios=config.ratios,
        split_seed=config.split_seed(),
    )

    diffs = {
        VARIANT_NAMES[ablation]: {"model.ablation": ablation}
        for ablation in VARIANT_NAMES
        if ablation != "full"
    }
    report.header_lines.append(f"config diff vs GNN-ASE: {json.dumps(diffs, sort_keys=True)}")

    (out / "report.txt").write_text(report.to_text())
    (out / "report.csv").write_text(report.to_csv())
    (out / "config_diffs.json").write_text(json.dumps(diffs, indent=2, sort_keys=True) + "\n")
    for variant, preds in report.predictions.items():
        filename = f"predictions_{variant.replace('@', '_at_')}.csv"
        (out / filename).write_text(predictions_to_csv(preds))
    write_resolved(config, out)
    _say(args, report.to_text().rstrip())
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "diagnose": cmd_diagnose,
    "ablate": cmd_ablate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnnase",
        description="Fault diagnosis for three-phase induction machines: "
        "synthesize recordings, train the graph model, evaluate, diagnose, ablate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("simulate", help="write the synthetic fault catalog")
    common(p)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    common(p)
    p.add_argument("--dataset", help="dataset directory (overrides paths.dataset_dir)")
    p.add_argument("--checkpoint", help="checkpoint output path")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--dataset", help="dataset directory")
    p.add_argument("--checkpoint", help="checkpoint path")

    p = sub.add_parser("diagnose", help="diagnose one recording CSV")
    common(p)
    p.add_argument("recording", help="recording CSV file")
    p.add_argument("--checkpoint", help="checkpoint path")

    p = sub.add_parser("ablate", help="train and compare the ablation variants")
    common(p)
    p.add_argument("--dataset", help="dataset directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except DiagnosticsError as err:
        print(f"[{err.module}] {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"[cli] IoError: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
