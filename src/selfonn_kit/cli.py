"""Command-line driver for the whole pipeline.

Grammar:
    selfonn-kit <synth|split|train|crossval|eval|params|bench>
                [--config FILE] [--q N] [--seed N] [--epochs N] [--batch N]
                [--lr X] [--folds all|i] [--out DIR] ...

Settings resolve with precedence flag > config file > built-in default.
The config file is INI-style `key = value` under [run], [model], [train],
[synth], [eval] and [bench] sections. SETTINGS describes every setting once:
its field, default, INI entry, flag, commands, parser, bound and help.

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
from dataclasses import field, make_dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import (CLASS_NAMES, CvSplit, Dataset, ManifestError, PgmError,
                   load_dataset, load_pgm16, read_manifest,
                   stratified_ordered_kfold, make_cv_splits, write_fold_plan)
from .model import (ConfigError, Model, ModelConfig, WeightFileError,
                    build_model, load_weights, param_count, save_weights)
from .metrics import (MetricReport, aggregate_folds, bench_inference,
                      confusion, format_confusion, format_metric_table,
                      metric_report)
from .synth import SynthConfig, pixel_to_temperature, synth_generate
from .training import DivergenceError, FitResult, TrainConfig, evaluate, fit

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


class FoldRun(NamedTuple):
    """One trained cross-validation round and its test-fold scores."""

    model: Model
    result: FitResult
    test_loss: float
    test_accuracy: float
    test_labels: np.ndarray
    predictions: np.ndarray


def train_fold(config: ModelConfig, dataset: Dataset, split: CvSplit,
               seed: int, *, epochs: int, batch: int, lr: float) -> FoldRun:
    """Train on one CvSplit, keep the best validation epoch, score the test fold.

    Weights come from derive_seed(seed, STREAM_INIT, q, fold) and the batch
    shuffle from derive_seed(seed, STREAM_BATCH, q, fold), with q the
    config's order and fold the split's test fold, so a (seed, q, fold)
    triple always trains the same bits.
    """
    fold, q = split.test_fold, config.q_order
    train_x, train_y = dataset.subset(split.train_indices)
    val_x, val_y = dataset.subset(split.val_indices)
    test_x, test_y = dataset.subset(split.test_indices)
    model = build_model(config, derive_seed(seed, STREAM_INIT, q, fold))
    tc = TrainConfig(learning_rate=lr, batch_size=batch, max_epochs=epochs,
                     seed=derive_seed(seed, STREAM_BATCH, q, fold))
    log.info("fold %d: %d train / %d val / %d test samples, %d parameters",
             fold, len(train_x), len(val_x), len(test_x), model.n_params)
    result = fit(model, train_x, train_y, val_x, val_y, tc,
                 on_epoch=lambda r: log.info(
                     "fold %d epoch %d: train %.4f val %.4f acc %.4f lr %.2g",
                     fold, r.epoch, r.train_loss, r.val_loss,
                     r.val_accuracy, r.learning_rate))
    test_loss, test_acc, preds = evaluate(model, test_x, test_y)
    return FoldRun(model, result, test_loss, test_acc, test_y, preds)


def paired_cv_study(config: ModelConfig, dataset: Dataset,
                    splits: list[CvSplit], seeds, orders, *,
                    epochs: int, batch: int,
                    lr: float) -> dict[tuple[int, int], list[float]]:
    """Per-fold test accuracies for every (seed, q) pair.

    Every seed trains one model per order on the same splits; config gives
    the architecture, its q_order is replaced by each order in turn. Within
    a seed the orders differ only in q, so per-seed differences isolate the
    effect of the order.
    """
    return {(seed, q): [train_fold(replace(config, q_order=q), dataset, split,
                                   seed, epochs=epochs, batch=batch,
                                   lr=lr).test_accuracy
                        for split in splits]
            for seed in seeds for q in orders}


class Setting(NamedTuple):
    """One run setting, described once for every place that needs it.

    The RunConfig field and its default, the INI entry ([section] key), the
    command-line flag, the commands that take the flag (None: every
    command), the parser turning the INI or flag text into a value, the
    lower bound (None: no bound; for a tuple, on each entry) and the help.
    """

    field: str
    default: object
    section: str
    key: str
    flag: str
    commands: tuple[str, ...] | None
    parse: Callable[[str], object]
    least: int | None
    help: str


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
        if values:
            return values
    except ValueError:
        pass
    raise ValueError(f"need comma-separated integers, got {text!r}")


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_normalization(text: str) -> str:
    if text not in ("image", "dataset"):
        raise ValueError(f"must be 'image' or 'dataset', got {text!r}")
    return text


# The synth grid floor of 8 is SynthConfig's; a negative seed would only
# fail inside SeedSequence, after the output directory exists.
SETTINGS = (
    Setting("manifest", None, "run", "manifest", "--manifest", None, str,
            None, "dataset manifest"),
    Setting("out", "runs", "run", "out", "--out", None, str, None,
            "artifact directory"),
    Setting("seed", 0, "run", "seed", "--seed", None, int, 0,
            "root random seed"),
    Setting("k", 5, "run", "k", "--k", None, int, 2, "number of folds"),
    Setting("fold_selector", "all", "run", "folds", "--folds", None, str,
            None, "fold selection: all or an index"),
    Setting("normalization", "image", "run", "normalization",
            "--normalization", None, _parse_normalization, None,
            "min/max scope for pixel scaling: image or dataset"),
    Setting("half_resolution", False, "run", "half_resolution", "--half",
            None, _parse_bool, None, "halve image resolution when loading"),
    Setting("q_order", 1, "model", "q", "--q", None, int, None,
            "polynomial order Q, 1..10"),
    Setting("filters", (8, 8, 8), "model", "filters", "--filters", None,
            _parse_int_tuple, 1, "filters per block, comma-separated"),
    Setting("kernels", (5, 3, 2), "model", "kernels", "--kernels", None,
            _parse_int_tuple, 1, "kernel size per block, comma-separated"),
    Setting("dense_units", 32, "model", "dense", "--dense", None, int, 1,
            "hidden dense units"),
    Setting("input_height", 256, "model", "input_height", "--input-height",
            None, int, None, "input rows when no data is loaded"),
    Setting("input_width", 320, "model", "input_width", "--input-width",
            None, int, None, "input columns when no data is loaded"),
    Setting("epochs", 300, "train", "epochs", "--epochs", None, int, 1,
            "epoch budget"),
    Setting("batch", 16, "train", "batch", "--batch", None, int, 1,
            "batch size"),
    Setting("lr", 1e-3, "train", "lr", "--lr", None, float, None,
            "initial learning rate"),
    Setting("per_class", 300, "synth", "per_class", "--per-class",
            ("synth",), int, 1, "images per class"),
    Setting("synth_height", 128, "synth", "height", "--height", ("synth",),
            int, 8, "generated image rows"),
    Setting("synth_width", 160, "synth", "width", "--width", ("synth",),
            int, 8, "generated image columns"),
    Setting("weights", None, "eval", "weights", "--weights", ("eval",), str,
            None, "weight file to load"),
    Setting("bench_images", 3, "bench", "images", "--bench-images",
            ("bench",), int, 1, "random images per timing pass"),
    Setting("bench_warmup", 1, "bench", "warmup", "--warmup", ("bench",),
            int, 0, "untimed warmup passes"),
    Setting("bench_repeats", 3, "bench", "repeats", "--runs", ("bench",),
            int, 1, "timed passes"),
)


def _validate(cfg) -> None:
    for s in SETTINGS:
        if s.least is None:
            continue
        value = getattr(cfg, s.field)
        for v in value if isinstance(value, tuple) else (value,):
            if v < s.least:
                raise UsageError(f"{s.flag} must be >= {s.least}, got {v}")
    if not 1 <= cfg.q_order <= 10:
        raise UsageError(f"q must lie in 1..10, got {cfg.q_order}")
    if cfg.fold_selector != "all":
        try:
            idx = int(cfg.fold_selector)
        except ValueError:
            raise UsageError(
                f"--folds takes 'all' or an index, got {cfg.fold_selector!r}")
        if not 0 <= idx < cfg.k:
            raise UsageError(f"fold {idx} outside 0..{cfg.k - 1}")
    if len(cfg.filters) != len(cfg.kernels):
        raise UsageError(
            f"{len(cfg.filters)} filter counts vs {len(cfg.kernels)} "
            "kernel sizes")
    if not (math.isfinite(cfg.lr) and cfg.lr > 0):
        raise UsageError(f"--lr must be a positive number, got {cfg.lr}")


RunConfig = make_dataclass(
    "RunConfig",
    [(s.field, object, field(default=s.default)) for s in SETTINGS]
    # the fields a config file or a flag set, as opposed to defaults
    + [("given", frozenset, field(default=frozenset()))],
    namespace={"__doc__": "Fully resolved settings for one command "
                          "invocation, one field per SETTINGS row.",
               "validate": _validate})


def _convert(s: Setting, text: str, where: str) -> object:
    try:
        return s.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad value for {where}: {exc}") from exc


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
    entries = {(s.section, s.key): s for s in SETTINGS}
    overrides: dict[str, object] = {}
    for section in parser.sections():
        for key, text in parser[section].items():
            s = entries.get((section, key))
            if s is None:
                raise UsageError(
                    f"unknown config entry [{section}] {key} in {path}")
            overrides[s.field] = _convert(s, text,
                                          f"[{section}] {key} in {path}")
    return overrides


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, then the config file, then explicit flags."""
    values = read_config_file(args.config) if args.config else {}
    for s in SETTINGS:
        text = getattr(args, s.field, None)
        if text is not None:
            values[s.field] = _convert(s, text, s.flag)
    cfg = RunConfig(**values, given=frozenset(values))
    cfg.validate()
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selfonn-kit",
                     description="Thermal fault diagnosis with polynomial "
                                 "convolutional networks")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", metavar="FILE", help="INI settings file")
        for s in SETTINGS:
            if s.commands is None or name in s.commands:
                # a bare --half reads like "yes" in the INI file
                kind = ({"action": "store_const", "const": "yes"}
                        if s.parse is _parse_bool
                        else {"metavar": s.key.upper()})
                p.add_argument(s.flag, dest=s.field, help=s.help, **kind)
    return parser


def _fmt(x: float) -> str:
    """Repr-stable float formatting for deterministic artifacts."""
    return format(float(x), ".17g")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(cfg: RunConfig) -> str:
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


def cmd_synth(cfg: RunConfig) -> int:
    """generate the synthetic thermal corpus"""
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


def cmd_split(cfg: RunConfig) -> int:
    """plan stratified folds over a manifest"""
    records = read_manifest(_manifest(cfg))
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


def _train_and_write(cfg: RunConfig, config: ModelConfig, dataset: Dataset,
                     split: CvSplit, out: Path) -> tuple[FoldRun, MetricReport]:
    """train_fold with the run's settings, then write the round's artifacts.

    Writes the weights, the epoch log and the test report, and returns the
    run with its test-fold metric report.
    """
    run = train_fold(config, dataset, split, cfg.seed, epochs=cfg.epochs,
                     batch=cfg.batch, lr=cfg.lr)
    paths = _fold_paths(out, run.model.config.q_order, split.test_fold)
    save_weights(run.model, paths["weights"])
    write_epoch_log(run.result.history, paths["epochs"])
    report = metric_report(confusion(run.test_labels, run.predictions,
                                     len(CLASS_NAMES)))
    body = [f"test_fold {split.test_fold}",
            f"val_fold {split.val_fold}",
            f"epochs_run {len(run.result.history)}",
            f"best_epoch {run.result.best_epoch}",
            f"best_val_loss {_fmt(run.result.best_val_loss)}",
            f"stopped_early {int(run.result.stopped_early)}",
            f"test_loss {_fmt(run.test_loss)}", "",
            format_confusion(report.matrix, CLASS_NAMES), "",
            format_metric_table(report, CLASS_NAMES)]
    paths["report"].write_text("\n".join(body) + "\n")
    return run, report


def _load_split_data(cfg: RunConfig):
    dataset = load_dataset(_manifest(cfg),
                           half_resolution=cfg.half_resolution,
                           shared_bounds=cfg.normalization == "dataset")
    plan = stratified_ordered_kfold(dataset.labels, cfg.k)
    return dataset, make_cv_splits(plan)


def cmd_train(cfg: RunConfig) -> int:
    """train one cross-validation round"""
    dataset, splits = _load_split_data(cfg)
    # the architecture is checked against the images before --out exists
    config = _model_config(cfg, tuple(dataset.images[0].shape))
    split = splits[0 if cfg.fold_selector == "all" else int(cfg.fold_selector)]
    out = _out_dir(cfg)
    run, report = _train_and_write(cfg, config, dataset, split, out)
    print(f"fold {split.test_fold}: {len(run.result.history)} epochs, "
          f"test accuracy {report.accuracy:.6f}")
    print(format_metric_table(report, CLASS_NAMES))
    return EXIT_OK


def cmd_crossval(cfg: RunConfig) -> int:
    """train and aggregate every round"""
    dataset, splits = _load_split_data(cfg)
    config = _model_config(cfg, tuple(dataset.images[0].shape))
    out = _out_dir(cfg)
    reports = []
    for split in splits:
        _, report = _train_and_write(cfg, config, dataset, split, out)
        reports.append(report)
        print(f"fold {split.test_fold}: test accuracy {report.accuracy:.6f}")
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


def cmd_eval(cfg: RunConfig) -> int:
    """evaluate saved weights on a fold or manifest"""
    if not cfg.weights:
        raise UsageError("eval needs --weights (or [eval] weights)")
    model = load_weights(cfg.weights)
    dataset, splits = _load_split_data(cfg)
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


def cmd_params(cfg: RunConfig) -> int:
    """print trainable-parameter counts for Q=1..5"""
    shape = (1, cfg.input_height, cfg.input_width)
    print("q  parameters")
    for q in range(1, 6):
        n = param_count(_model_config(cfg, shape, q_order=q))
        print(f"{q}  {n}")
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    """time inference across polynomial orders"""
    shape = (1, cfg.input_height, cfg.input_width)
    rng = np.random.default_rng(derive_seed(cfg.seed, STREAM_BENCH))
    images = [rng.random(shape) for _ in range(cfg.bench_images)]
    qs = [cfg.q_order] if "q_order" in cfg.given else [1, 2, 3, 4, 5]
    print(f"{cfg.bench_images} images per pass, {cfg.bench_warmup} warmup, "
          f"{cfg.bench_repeats} timed passes")
    print("q  mean_ms  std_ms  min_ms  max_ms")
    models = [build_model(_model_config(cfg, shape, q_order=q),
                          derive_seed(cfg.seed, STREAM_INIT, q, 0))
              for q in qs]
    per_image_ms = 1e3 * bench_inference(models, images,
                                         warmup=cfg.bench_warmup,
                                         repeats=cfg.bench_repeats)
    for q, ms in zip(qs, per_image_ms):
        print(f"{q}  {ms.mean():.3f}  {ms.std():.3f}  {ms.min():.3f}  "
              f"{ms.max():.3f}")
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
        return COMMANDS[args.command](cfg)
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
