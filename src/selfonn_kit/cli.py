"""Command-line driver for the whole pipeline.

Grammar:
    selfonn-kit <synth|split|train|crossval|eval|params|bench>
                [--config FILE] [--q N] [--seed N] [--epochs N] [--batch N]
                [--lr X] [--folds all|i] [--out DIR] ...

Settings resolve with precedence flag > config file > built-in default.
The config file is INI-style `key = value` under [run], [model], [train],
[synth] and [bench] sections; the full schema is in the README.

Randomness: one root seed (--seed) fans out to independent streams via
SeedSequence([root, stream, ...context]), with stream tags INIT=0 for
weight initialization, BATCH=1 for shuffling, SYNTH=2 for image
generation, BENCH=3 for benchmark inputs. Repeated runs with the same
seed and inputs write byte-identical artifacts.

Set SELFONN_LOG=debug|info|warning|quiet to control progress chatter on
stderr; reports always go to stdout and the output directory.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import (CLASS_NAMES, ManifestError, PgmError, load_dataset,
                   load_pgm16, read_manifest, stratified_ordered_kfold,
                   make_cv_splits, write_fold_plan)
from .model import (ConfigError, Model, ModelConfig, WeightFileError,
                    build_model, load_weights, param_count, save_weights)
from .metrics import (aggregate_folds, bench_inference, confusion,
                      format_confusion, format_metric_table, metric_report)
from .synth import SynthConfig, pixel_to_temperature, synth_generate
from .training import DivergenceError, TrainConfig, evaluate, fit

log = logging.getLogger("selfonn_kit")

EXIT_OK = 0
EXIT_USAGE = 1      # bad flags or configuration values
EXIT_DATA = 2       # unreadable manifest, image, or fold layout
EXIT_DIVERGED = 3   # training produced non-finite numbers
EXIT_WEIGHTS = 4    # weight file unreadable or incompatible
EXIT_IO = 5         # filesystem failure

STREAM_INIT = 0
STREAM_BATCH = 1
STREAM_SYNTH = 2
STREAM_BENCH = 3


class UsageError(ValueError):
    """Bad command line or config file contents."""


def derive_seed(root: int, *context: int) -> int:
    """Collapse (root, stream, ...) into one independent integer seed."""
    return int(np.random.SeedSequence([root, *context]).generate_state(1)[0])


@dataclass
class RunConfig:
    """Fully resolved settings for one command invocation."""

    manifest: str | None = None
    out: str = "runs"
    seed: int = 0
    k: int = 5
    fold_selector: str = "all"
    normalization: str = "image"      # "image" or "dataset" min/max
    half_resolution: bool = False
    q_order: int = 1
    filters: tuple[int, ...] = (8, 8, 8)
    kernels: tuple[int, ...] = (5, 3, 2)
    dense_units: int = 32
    input_height: int = 256
    input_width: int = 320
    epochs: int = 300
    batch: int = 16
    lr: float = 1e-3
    per_class: int = 300
    synth_height: int = 128
    synth_width: int = 160
    weights: str | None = None
    bench_images: int = 3
    bench_warmup: int = 1
    bench_repeats: int = 3

    def validate(self) -> None:
        if not 1 <= self.q_order <= 10:
            raise UsageError(f"q must lie in 1..10, got {self.q_order}")
        if self.normalization not in ("image", "dataset"):
            raise UsageError(
                f"normalization must be 'image' or 'dataset', got "
                f"{self.normalization!r}")
        if self.k < 2:
            raise UsageError(f"need at least 2 folds, got k={self.k}")
        if self.fold_selector != "all":
            try:
                idx = int(self.fold_selector)
            except ValueError:
                raise UsageError(
                    f"--folds takes 'all' or an index, got {self.fold_selector!r}")
            if not 0 <= idx < self.k:
                raise UsageError(f"fold {idx} outside 0..{self.k - 1}")
        if len(self.filters) != len(self.kernels):
            raise UsageError(
                f"{len(self.filters)} filter counts vs {len(self.kernels)} "
                "kernel sizes")
        # The synth grid floor is SynthConfig's; a negative seed would only
        # fail inside SeedSequence, after the output directory exists.
        for name, value, least in (("seed", self.seed, 0),
                                   ("epochs", self.epochs, 1),
                                   ("batch", self.batch, 1),
                                   ("per-class", self.per_class, 1),
                                   ("height", self.synth_height, 8),
                                   ("width", self.synth_width, 8),
                                   ("bench-images", self.bench_images, 1),
                                   ("runs", self.bench_repeats, 1),
                                   ("warmup", self.bench_warmup, 0)):
            if value < least:
                raise UsageError(f"--{name} must be >= {least}, got {value}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise UsageError(f"--lr must be a positive number, got {self.lr}")


def _parse_int_tuple(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}")
    if not values:
        raise UsageError(f"{what} is empty")
    return values


# (section, key) -> (RunConfig field, converter)
_FILE_SCHEMA = {
    ("run", "manifest"): ("manifest", str),
    ("run", "out"): ("out", str),
    ("run", "seed"): ("seed", int),
    ("run", "k"): ("k", int),
    ("run", "folds"): ("fold_selector", str),
    ("run", "normalization"): ("normalization", str),
    ("run", "half_resolution"): ("half_resolution", None),  # boolean
    ("model", "q"): ("q_order", int),
    ("model", "filters"): ("filters", lambda s: _parse_int_tuple(s, "filters")),
    ("model", "kernels"): ("kernels", lambda s: _parse_int_tuple(s, "kernels")),
    ("model", "dense"): ("dense_units", int),
    ("model", "input_height"): ("input_height", int),
    ("model", "input_width"): ("input_width", int),
    ("train", "epochs"): ("epochs", int),
    ("train", "batch"): ("batch", int),
    ("train", "lr"): ("lr", float),
    ("synth", "per_class"): ("per_class", int),
    ("synth", "height"): ("synth_height", int),
    ("synth", "width"): ("synth_width", int),
    ("eval", "weights"): ("weights", str),
    ("bench", "images"): ("bench_images", int),
    ("bench", "warmup"): ("bench_warmup", int),
    ("bench", "repeats"): ("bench_repeats", int),
}


def read_config_file(path) -> dict[str, object]:
    """Parse an INI config into RunConfig field overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"malformed config file {path}: {exc}") from exc
    overrides: dict[str, object] = {}
    known = {f.name for f in fields(RunConfig)}
    for section in parser.sections():
        for key in parser[section]:
            field_conv = _FILE_SCHEMA.get((section, key))
            if field_conv is None:
                raise UsageError(
                    f"unknown config entry [{section}] {key} in {path}")
            field, conv = field_conv
            assert field in known
            raw = parser[section][key]
            try:
                if conv is None:
                    overrides[field] = parser[section].getboolean(key)
                else:
                    overrides[field] = conv(raw)
            except (ValueError, UsageError) as exc:
                raise UsageError(
                    f"bad value for [{section}] {key} in {path}: {exc}") from exc
    return overrides


# argparse dest -> RunConfig field; values arrive already converted
_FLAG_FIELDS = {
    "manifest": "manifest",
    "out": "out",
    "seed": "seed",
    "k": "k",
    "folds": "fold_selector",
    "normalization": "normalization",
    "half": "half_resolution",
    "q": "q_order",
    "filters": "filters",
    "kernels": "kernels",
    "dense": "dense_units",
    "input_height": "input_height",
    "input_width": "input_width",
    "epochs": "epochs",
    "batch": "batch",
    "lr": "lr",
    "per_class": "per_class",
    "height": "synth_height",
    "width": "synth_width",
    "weights": "weights",
    "bench_images": "bench_images",
    "warmup": "bench_warmup",
    "runs": "bench_repeats",
}


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, then the config file, then explicit flags."""
    cfg = RunConfig()
    if args.config:
        for field, value in read_config_file(args.config).items():
            setattr(cfg, field, value)
    for dest, field in _FLAG_FIELDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            if dest in ("filters", "kernels"):
                value = _parse_int_tuple(value, dest)
            setattr(cfg, field, value)
    cfg.validate()
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="INI settings file")
    common.add_argument("--manifest", metavar="PATH", help="dataset manifest")
    common.add_argument("--out", metavar="DIR", help="artifact directory")
    common.add_argument("--seed", type=int, help="root random seed")
    common.add_argument("--q", type=int, help="polynomial order Q")
    common.add_argument("--k", type=int, help="number of folds")
    common.add_argument("--folds", metavar="all|i", help="fold selection")
    common.add_argument("--epochs", type=int, help="epoch budget")
    common.add_argument("--batch", type=int, help="batch size")
    common.add_argument("--lr", type=float, help="initial learning rate")
    common.add_argument("--normalization", choices=("image", "dataset"),
                        help="min/max scope for pixel scaling")
    common.add_argument("--half", action="store_const", const=True,
                        help="halve image resolution when loading")
    common.add_argument("--filters", metavar="A,B,C", help="filters per block")
    common.add_argument("--kernels", metavar="A,B,C", help="kernel size per block")
    common.add_argument("--dense", type=int, help="hidden dense units")
    common.add_argument("--input-height", dest="input_height", type=int,
                        help="input rows when no data is loaded")
    common.add_argument("--input-width", dest="input_width", type=int,
                        help="input columns when no data is loaded")

    parser = _Parser(prog="selfonn-kit",
                     description="Thermal fault diagnosis with polynomial "
                                 "convolutional networks")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", parents=[common],
                       help="generate the synthetic thermal corpus")
    p.add_argument("--per-class", dest="per_class", type=int,
                   help="images per class")
    p.add_argument("--height", type=int, help="generated image rows")
    p.add_argument("--width", type=int, help="generated image columns")

    sub.add_parser("split", parents=[common],
                   help="plan stratified folds over a manifest")
    sub.add_parser("train", parents=[common],
                   help="train one cross-validation round")
    sub.add_parser("crossval", parents=[common],
                   help="train and aggregate every round")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate saved weights on a fold or manifest")
    p.add_argument("--weights", metavar="PATH", help="weight file to load")

    sub.add_parser("params", parents=[common],
                   help="print trainable-parameter counts for Q=1..5")

    p = sub.add_parser("bench", parents=[common],
                       help="time inference across polynomial orders")
    p.add_argument("--bench-images", dest="bench_images", type=int,
                   help="random images per timing pass")
    p.add_argument("--warmup", type=int, help="untimed warmup passes")
    p.add_argument("--runs", type=int, help="timed passes")
    return parser


def _fmt(x: float) -> str:
    """Repr-stable float formatting for deterministic artifacts."""
    return format(float(x), ".17g")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_manifest(cfg: RunConfig) -> str:
    if not cfg.manifest:
        raise UsageError("this command needs --manifest (or [run] manifest)")
    return cfg.manifest


def _model_config(cfg: RunConfig, input_shape: tuple[int, int, int],
                  q_order: int | None = None) -> ModelConfig:
    return ModelConfig(q_order=q_order or cfg.q_order,
                       input_shape=input_shape,
                       block_filters=cfg.filters,
                       kernel_sizes=cfg.kernels,
                       dense_units=cfg.dense_units,
                       classes=len(CLASS_NAMES))


def fold_summary_table(plan, labels) -> str:
    """Class-by-fold sample counts in the usual cross-validation layout."""
    labels = np.asarray(labels)
    width = max(max(len(n) for n in CLASS_NAMES), len("total"))
    cell = max(6, len(str(len(labels))))
    head = f"{'class':<{width}}  " + "  ".join(
        f"{f'fold{f}':>{cell}}" for f in range(plan.k)) + f"  {'total':>{cell}}"
    lines = [head]
    for ci, name in enumerate(CLASS_NAMES):
        counts = [int(np.sum(labels[list(fold)] == ci)) for fold in plan.folds]
        lines.append(f"{name:<{width}}  "
                     + "  ".join(f"{c:>{cell}}" for c in counts)
                     + f"  {sum(counts):>{cell}}")
    sizes = [len(fold) for fold in plan.folds]
    lines.append(f"{'total':<{width}}  "
                 + "  ".join(f"{s:>{cell}}" for s in sizes)
                 + f"  {sum(sizes):>{cell}}")
    return "\n".join(lines)


def write_epoch_log(history, path) -> None:
    """Tab-separated epoch trace; no wall-clock fields, so reruns match."""
    lines = ["epoch\ttrain_loss\tval_loss\tval_accuracy\tlearning_rate\tlr_reduced"]
    for r in history:
        lines.append(f"{r.epoch}\t{_fmt(r.train_loss)}\t{_fmt(r.val_loss)}\t"
                     f"{_fmt(r.val_accuracy)}\t{_fmt(r.learning_rate)}\t"
                     f"{int(r.lr_reduced)}")
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_synth(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    sc = SynthConfig(per_class=cfg.per_class, height=cfg.synth_height,
                     width=cfg.synth_width,
                     seed=derive_seed(cfg.seed, STREAM_SYNTH))
    manifest = synth_generate(out, sc)
    log.info("wrote %d images under %s", 3 * sc.per_class, out)
    records = read_manifest(manifest)
    lines = [f"images per class: {sc.per_class}",
             f"grid: {sc.height}x{sc.width}",
             f"root seed: {cfg.seed}", ""]
    lines.append(f"{'class':<14}  {'count':>5}  {'mean C':>8}  {'std C':>8}  "
                 f"{'min C':>8}  {'max C':>8}")
    for name in CLASS_NAMES:
        temps = [pixel_to_temperature(load_pgm16(out / r.path).pixels)
                 for r in records if r.class_name == name]
        means = [t.mean() for t in temps]
        stds = [t.std() for t in temps]
        lo = min(t.min() for t in temps)
        hi = max(t.max() for t in temps)
        lines.append(f"{name:<14}  {len(temps):>5}  {np.mean(means):>8.2f}  "
                     f"{np.mean(stds):>8.2f}  {lo:>8.2f}  {hi:>8.2f}")
    report = "\n".join(lines) + "\n"
    (out / "synth_report.txt").write_text(report)
    print(f"manifest: {manifest}")
    print(report, end="")
    return EXIT_OK


def cmd_split(cfg: RunConfig, args) -> int:
    records = read_manifest(_require_manifest(cfg))
    labels = [r.label for r in records]
    plan = stratified_ordered_kfold(labels, cfg.k)
    out = _out_dir(cfg)
    write_fold_plan(plan, out / "fold_plan.json")
    table = fold_summary_table(plan, labels)
    (out / "fold_summary.txt").write_text(table + "\n")
    print(table)
    return EXIT_OK


def _fold_paths(out: Path, q: int, fold: int) -> dict[str, Path]:
    stem = f"q{q}_fold{fold}"
    return {"weights": out / f"{stem}.sonn",
            "epochs": out / f"{stem}_epochs.tsv",
            "report": out / f"{stem}_report.txt"}


def _train_fold(cfg: RunConfig, dataset, splits, fold: int, out: Path):
    """Fit one cross-validation round and write its three artifacts."""
    split = splits[fold]
    train_x, train_y = dataset.subset(split.train_indices)
    val_x, val_y = dataset.subset(split.val_indices)
    test_x, test_y = dataset.subset(split.test_indices)
    mc = _model_config(cfg, tuple(dataset.images[0].shape))
    model = build_model(mc, derive_seed(cfg.seed, STREAM_INIT, cfg.q_order, fold))
    tc = TrainConfig(learning_rate=cfg.lr, batch_size=cfg.batch,
                     max_epochs=cfg.epochs,
                     seed=derive_seed(cfg.seed, STREAM_BATCH, cfg.q_order, fold))
    log.info("fold %d: %d train / %d val / %d test samples, %d parameters",
             fold, len(train_x), len(val_x), len(test_x), model.n_params)
    result = fit(model, train_x, train_y, val_x, val_y, tc,
                 on_epoch=lambda r: log.info(
                     "fold %d epoch %d: train %.4f val %.4f acc %.4f lr %.2g",
                     fold, r.epoch, r.train_loss, r.val_loss,
                     r.val_accuracy, r.learning_rate))
    test_loss, test_acc, preds = evaluate(model, test_x, test_y)
    report = metric_report(confusion(test_y, preds, len(CLASS_NAMES)))

    paths = _fold_paths(out, cfg.q_order, fold)
    save_weights(model, paths["weights"])
    write_epoch_log(result.history, paths["epochs"])
    body = [f"test_fold {split.test_fold}",
            f"val_fold {split.val_fold}",
            f"epochs_run {len(result.history)}",
            f"best_epoch {result.best_epoch}",
            f"best_val_loss {_fmt(result.best_val_loss)}",
            f"stopped_early {int(result.stopped_early)}",
            f"test_loss {_fmt(test_loss)}", "",
            format_confusion(report.matrix, CLASS_NAMES), "",
            format_metric_table(report, CLASS_NAMES)]
    paths["report"].write_text("\n".join(body) + "\n")
    return report, result


def _load_split_data(cfg: RunConfig):
    dataset = load_dataset(_require_manifest(cfg),
                           half_resolution=cfg.half_resolution,
                           shared_bounds=cfg.normalization == "dataset")
    plan = stratified_ordered_kfold(dataset.labels, cfg.k)
    return dataset, make_cv_splits(plan), plan


def cmd_train(cfg: RunConfig, args) -> int:
    dataset, splits, _ = _load_split_data(cfg)
    fold = 0 if cfg.fold_selector == "all" else int(cfg.fold_selector)
    out = _out_dir(cfg)
    report, result = _train_fold(cfg, dataset, splits, fold, out)
    print(f"fold {fold}: {len(result.history)} epochs, "
          f"test accuracy {report.accuracy:.6f}")
    print(format_metric_table(report, CLASS_NAMES))
    return EXIT_OK


def cmd_crossval(cfg: RunConfig, args) -> int:
    dataset, splits, _ = _load_split_data(cfg)
    out = _out_dir(cfg)
    reports = []
    for fold in range(cfg.k):
        report, _ = _train_fold(cfg, dataset, splits, fold, out)
        reports.append(report)
        print(f"fold {fold}: test accuracy {report.accuracy:.6f}")
    agg = aggregate_folds(reports)
    recalls = [r.weighted_recall for r in reports]
    lines = [f"q {cfg.q_order}",
             f"folds {agg.n_folds}",
             f"accuracy_mean {_fmt(agg.accuracy_mean)}",
             f"accuracy_std {_fmt(agg.accuracy_std)}",
             f"weighted_recall_mean {_fmt(float(np.mean(recalls)))}",
             f"macro_f1_mean {_fmt(agg.macro_f1_mean)}",
             f"macro_f1_std {_fmt(agg.macro_f1_std)}",
             f"pooled_accuracy {_fmt(agg.pooled_accuracy)}", "",
             "pooled confusion:",
             format_confusion(agg.pooled, CLASS_NAMES)]
    text = "\n".join(lines) + "\n"
    (out / f"q{cfg.q_order}_aggregate.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    if not cfg.weights:
        raise UsageError("eval needs --weights (or [eval] weights)")
    model = load_weights(cfg.weights)
    dataset, splits, _ = _load_split_data(cfg)
    data_shape = tuple(dataset.images[0].shape)
    if model.config.input_shape != data_shape:
        raise WeightFileError(
            f"weights expect input {model.config.input_shape}, data is "
            f"{data_shape}")
    if cfg.fold_selector == "all":
        images, labels = dataset.images, dataset.labels
        scope = "manifest"
    else:
        fold = int(cfg.fold_selector)
        images, labels = dataset.subset(splits[fold].test_indices)
        scope = f"test fold {fold}"
    loss, acc, preds = evaluate(model, images, labels)
    report = metric_report(confusion(labels, preds, len(CLASS_NAMES)))
    print(f"evaluating {len(images)} samples ({scope})")
    print(f"loss {_fmt(loss)}")
    print(format_confusion(report.matrix, CLASS_NAMES))
    print(format_metric_table(report, CLASS_NAMES))
    return EXIT_OK


def cmd_params(cfg: RunConfig, args) -> int:
    shape = (1, cfg.input_height, cfg.input_width)
    print("q  parameters")
    for q in range(1, 6):
        n = param_count(_model_config(cfg, shape, q_order=q))
        print(f"{q}  {n}")
    return EXIT_OK


def cmd_bench(cfg: RunConfig, args) -> int:
    shape = (1, cfg.input_height, cfg.input_width)
    rng = np.random.default_rng(derive_seed(cfg.seed, STREAM_BENCH))
    images = [rng.random(shape) for _ in range(cfg.bench_images)]
    qs = [args.q] if getattr(args, "q", None) else [1, 2, 3, 4, 5]
    print(f"{cfg.bench_images} images per pass, {cfg.bench_warmup} warmup, "
          f"{cfg.bench_repeats} timed passes")
    print("q  mean_ms  std_ms  min_ms  max_ms")
    for q in qs:
        model = build_model(_model_config(cfg, shape, q_order=q),
                            derive_seed(cfg.seed, STREAM_INIT, q, 0))
        rep = bench_inference(model, images, warmup=cfg.bench_warmup,
                              repeats=cfg.bench_repeats)
        mean, std, lo, hi = (1e3 * v for v in rep.per_image_stats())
        print(f"{q}  {mean:.3f}  {std:.3f}  {lo:.3f}  {hi:.3f}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "split": cmd_split,
    "train": cmd_train,
    "crossval": cmd_crossval,
    "eval": cmd_eval,
    "params": cmd_params,
    "bench": cmd_bench,
}

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING, "quiet": logging.ERROR}


def _setup_logging() -> None:
    name = os.environ.get("SELFONN_LOG", "warning").strip().lower()
    logging.basicConfig(level=_LOG_LEVELS.get(name, logging.WARNING),
                        format="%(levelname)s %(message)s", stream=sys.stderr)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        cfg = build_run_config(args)
        return COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except WeightFileError as exc:
        print(f"weight file error: {exc}", file=sys.stderr)
        return EXIT_WEIGHTS
    except (ManifestError, PgmError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
