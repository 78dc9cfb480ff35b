"""Command-line driver for the whole pipeline.

Grammar:
    selfonn-kit <synth|split|train|crossval|eval|params|bench>
                [--config FILE] [flags of the settings the command reads]

Settings resolve with precedence flag > config file > built-in default.
The config file is INI-style `key = value` under [run], [model], [train],
[synth] and [eval] sections; it may set any entry, and every value is
checked whichever command runs. SETTINGS describes every setting once:
its field, default, INI entry, flag, readers, parser, check and help.

Randomness: one root seed (--seed) fans out to independent streams via
SeedSequence([root, stream, ...context]), with stream tags INIT=0 for
weight initialization, BATCH=1 for shuffling, SYNTH=2 for image
generation, BENCH=3 for benchmark inputs (always from root 0). Repeated
runs with the same seed and inputs write byte-identical artifacts.

Set SELFONN_LOG=debug|info|warning|quiet to control progress chatter on
stderr; reports always go to stdout and the output directory.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
from dataclasses import astuple, field, fields, make_dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import (CLASS_NAMES, CvSplit, Dataset, ManifestError, PgmError,
                   load_dataset, load_pgm16, read_manifest,
                   stratified_ordered_kfold, make_cv_splits)
from .model import (ConfigError, Model, ModelConfig, WeightFileError,
                    build_model, load_weights, param_count, save_weights)
from .metrics import (ConfusionMatrix, MetricReport, bench_inference,
                      confusion, metric_report)
from .synth import SynthConfig, pixel_to_temperature, synth_generate
from .training import (DivergenceError, EpochRecord, FitResult, TrainConfig,
                       evaluate, fit)

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


def score(model: Model, images, labels) -> tuple[float, MetricReport]:
    """Mean loss and the metric report of a model on labelled images."""
    loss, _, preds = evaluate(model, images, labels)
    return loss, metric_report(confusion(labels, preds, len(CLASS_NAMES)))


def train_fold(config: ModelConfig, dataset: Dataset, split: CvSplit,
               seed: int, *, epochs: int, batch: int, lr: float,
               out: Path | None = None) -> tuple[FitResult, MetricReport]:
    """Train on one CvSplit, keep the best validation epoch, score the test fold.

    Weights come from derive_seed(seed, STREAM_INIT, q, fold) and the batch
    shuffle from derive_seed(seed, STREAM_BATCH, q, fold), with q the
    config's order and fold the split's test fold, so a (seed, q, fold)
    triple always trains the same bits. Given an out directory, writes
    q{Q}_fold{i}.sonn, then _epochs.tsv, then _report.txt there.
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
    test_loss, report = score(model, test_x, test_y)
    if out is not None:
        stem = Path(out) / f"q{q}_fold{fold}"
        save_weights(model, f"{stem}.sonn")
        write_epoch_log(result.history, f"{stem}_epochs.tsv")
        body = [f"test_fold {fold}", f"val_fold {split.val_fold}",
                f"epochs_run {len(result.history)}",
                f"best_epoch {result.best_epoch}",
                f"best_val_loss {_fmt(result.history[result.best_epoch].val_loss)}",
                f"stopped_early {int(result.stopped_early)}",
                f"test_loss {_fmt(test_loss)}", "",
                _confusion_table(report.matrix), "", _metric_table(report)]
        _write_text(f"{stem}_report.txt", body)
    return result, report


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
                                   lr=lr)[1].accuracy
                        for split in splits]
            for seed in seeds for q in orders}


class Setting(NamedTuple):
    """One run setting, described once for every place that needs it.

    The RunConfig field and its default (None: every command that reads the
    field needs it), the INI entry ([section] key), the command-line flag,
    the commands that read the field (only they take the flag), the parser
    turning the INI or flag text into a value, the check (None, or the phrase
    a parsed value or tuple entry breaks, else False) and the help.
    """

    field: str
    default: object
    section: str
    key: str
    flag: str
    commands: tuple[str, ...]
    parse: Callable[[str], object]
    check: Callable[[object], str | bool] | None
    help: str


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"need comma-separated integers, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_folds(text: str) -> str | int:
    if text != "all" and not text.isdecimal():
        raise ValueError(f"takes 'all' or an index, got {text!r}")
    return text if text == "all" else int(text)


def _least(n: int) -> Callable[[object], str | bool]:
    return lambda v: v < n and f"be >= {n}"


def _parse_normalization(text: str) -> str:
    if text not in ("image", "dataset"):
        raise ValueError(f"must be 'image' or 'dataset', got {text!r}")
    return text


# Readers: the commands that train, that load and split a data set, that
# build a network from the model settings, and that size one without data.
FIT = ("train", "crossval")
LOADS = (*FIT, "eval")
BUILDS = (*FIT, "params", "bench")
SIZES = ("params", "bench")

# The synth grid floor of 8 is SynthConfig's; a negative seed would only
# fail inside SeedSequence, after the output directory exists.
SETTINGS = (
    Setting("manifest", None, "run", "manifest", "--manifest",
            ("split", *LOADS), str, None, "dataset manifest"),
    Setting("out", "runs", "run", "out", "--out", ("synth", "split", *FIT),
            str, lambda v: not v and "name a directory", "artifact directory"),
    Setting("seed", 0, "run", "seed", "--seed", ("synth", *FIT),
            int, _least(0), "root random seed"),
    Setting("k", 5, "run", "k", "--k", ("split", *LOADS), int, _least(2),
            "number of folds"),
    Setting("fold_selector", "all", "run", "folds", "--folds", ("train", "eval"),
            _parse_folds, None, "fold selection: all or an index"),
    Setting("normalization", "image", "run", "normalization",
            "--normalization", LOADS, _parse_normalization, None,
            "min/max scope for pixel scaling: image or dataset"),
    Setting("half_resolution", False, "run", "half_resolution", "--half",
            LOADS, _parse_bool, None, "halve image resolution when loading"),
    Setting("q_order", ModelConfig.q_order, "model", "q", "--q", FIT,
            int, lambda v: not 1 <= v <= 10 and "be in 1..10",
            "polynomial order Q, 1..10"),
    Setting("filters", ModelConfig.block_filters, "model", "filters", "--filters",
            BUILDS, _parse_int_tuple, _least(1), "filters per block, comma-separated"),
    Setting("kernels", ModelConfig.kernel_sizes, "model", "kernels", "--kernels", BUILDS,
            _parse_int_tuple, _least(1), "kernel size per block, comma-separated"),
    Setting("dense_units", ModelConfig.dense_units, "model", "dense",
            "--dense", BUILDS, int, _least(1), "hidden dense units"),
    Setting("input_height", ModelConfig.input_shape[1], "model", "input_height",
            "--input-height", SIZES, int, None, "input rows when no data is loaded"),
    Setting("input_width", ModelConfig.input_shape[2], "model", "input_width",
            "--input-width", SIZES, int, None, "input columns when no data is loaded"),
    Setting("epochs", TrainConfig.max_epochs, "train", "epochs", "--epochs",
            FIT, int, _least(1), "epoch budget"),
    Setting("batch", TrainConfig.batch_size, "train", "batch", "--batch",
            FIT, int, _least(1), "batch size"),
    Setting("lr", TrainConfig.learning_rate, "train", "lr", "--lr", FIT, float,
            lambda v: not 0 < v < float("inf") and "be a positive number",
            "initial learning rate"),
    Setting("per_class", SynthConfig.per_class, "synth", "per_class",
            "--per-class", ("synth",), int, _least(1), "images per class"),
    Setting("synth_height", SynthConfig.height, "synth", "height",
            "--height", ("synth",), int, _least(8), "generated image rows"),
    Setting("synth_width", SynthConfig.width, "synth", "width", "--width",
            ("synth",), int, _least(8), "generated image columns"),
    Setting("weights", None, "eval", "weights", "--weights", ("eval",), str,
            None, "weight file to load"),
)


def _validate(cfg, command: str) -> None:
    for s in SETTINGS:
        if s.default is None and command in s.commands and not getattr(cfg, s.field):
            raise UsageError(f"{command} needs {s.flag} (or [{s.section}] {s.key})")
    if cfg.fold_selector != "all" and cfg.fold_selector >= cfg.k:
        raise UsageError(f"fold {cfg.fold_selector} outside 0..{cfg.k - 1}")
    if len(cfg.filters) != len(cfg.kernels):
        raise UsageError(
            f"{len(cfg.filters)} filter counts vs {len(cfg.kernels)} "
            "kernel sizes")
    if command in LOADS and cfg.k < 3:
        # each round needs distinct test and validation folds and one to train on
        raise UsageError(f"--k must be >= 3 to train or evaluate, got {cfg.k}")


RunConfig = make_dataclass(
    "RunConfig",
    [(s.field, object, field(default=s.default)) for s in SETTINGS],
    namespace={"__doc__": "Fully resolved settings for one command "
                          "invocation, one field per SETTINGS row.",
               "validate": _validate})


def _convert(s: Setting, text: str, where: str) -> object:
    try:
        value = s.parse(text)
    except ValueError as exc:
        raise UsageError(f"bad value for {where}: {exc}") from exc
    for v in value if isinstance(value, tuple) else (value,):
        if s.check and (broken := s.check(v)):
            raise UsageError(f"{where} must {broken}, got {v!r}")
    return value


def read_config_file(path) -> dict[str, object]:
    """Parse plain INI ('%' literal, [DEFAULT] not special) into field overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
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
    cfg = RunConfig(**values)
    cfg.validate(args.command)
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
            if name in s.commands:
                # a bare --half reads like "yes" in the INI file
                kind = ({"action": "store_const", "const": "yes"}
                        if s.parse is _parse_bool
                        else {"metavar": s.key.upper()})
                p.add_argument(s.flag, dest=s.field, help=s.help, **kind)
    return parser


def _fmt(x) -> str:
    """Repr-stable formatting for deterministic artifacts: an integer or
    bool as its digits, anything else as a float to 17 significant digits."""
    return f"{x:d}" if isinstance(x, int) else format(float(x), ".17g")


def _write_text(path, lines) -> str:
    """Write `lines` as newline-terminated UTF-8 text; return the text."""
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _model_config(cfg: RunConfig, input_shape: tuple[int, int, int],
                  q_order: int | None = None) -> ModelConfig:
    return ModelConfig(q_order=q_order or cfg.q_order,
                       input_shape=input_shape,
                       block_filters=cfg.filters,
                       kernel_sizes=cfg.kernels,
                       dense_units=cfg.dense_units,
                       classes=len(CLASS_NAMES))


_NAME_WIDTH = max(map(len, CLASS_NAMES))


def _confusion_table(matrix: ConfusionMatrix) -> str:
    """Fixed-width counts, true classes down the side, predictions across."""
    width = max(_NAME_WIDTH, len(str(int(matrix.counts.max()))), 5)
    head = " " * (width + 2) + " ".join(f"{n:>{width}}" for n in CLASS_NAMES)
    rows = (f"{name:>{width}}  " + " ".join(f"{int(v):>{width}}" for v in row)
            for name, row in zip(CLASS_NAMES, matrix.counts))
    return "\n".join([head, *rows])


def _metric_table(report: MetricReport) -> str:
    """Per-class precision/recall/F1/support, the macro and weighted rows,
    then the accuracy."""
    width = max(_NAME_WIDTH, len("weighted"))
    total = report.matrix.total
    rows = [*zip(CLASS_NAMES, report.precision, report.recall, report.f1,
                 report.matrix.support),
            ("macro", report.macro_precision, report.macro_recall,
             report.macro_f1, total),
            ("weighted", report.weighted_precision, report.weighted_recall,
             report.weighted_f1, total)]
    return "\n".join([f"{'':{width}}  precision  recall      f1     support",
                      *(f"{n:>{width}}     {p:.4f}  {r:.4f}  {f:.4f}  {s:10d}"
                        for n, p, r, f, s in rows),
                      f"accuracy {report.accuracy:.6f}"])


def fold_summary_table(plan, labels) -> str:
    """Class-by-fold sample counts in the usual cross-validation layout."""
    labels = np.asarray(labels)
    width = max(_NAME_WIDTH, len("total"))
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
    """Tab-separated epoch trace, one column per EpochRecord field."""
    _write_text(path, ["\t".join(f.name for f in fields(EpochRecord)),
                       *("\t".join(map(_fmt, astuple(r))) for r in history)])


def cmd_synth(cfg: RunConfig) -> int:
    """generate the synthetic thermal corpus"""
    out = _out_dir(cfg)
    sc = SynthConfig(per_class=cfg.per_class, height=cfg.synth_height,
                     width=cfg.synth_width,
                     seed=derive_seed(cfg.seed, STREAM_SYNTH))
    manifest = synth_generate(out, sc)
    log.info("wrote %d images under %s", len(CLASS_NAMES) * sc.per_class, out)
    records = read_manifest(manifest)
    lines = [f"images per class: {sc.per_class}",
             f"grid: {sc.height}x{sc.width}",
             f"root seed: {cfg.seed}", ""]
    lines.append(f"{'class':<14}  {'count':>5}  {'mean C':>8}  {'std C':>8}  "
                 f"{'min C':>8}  {'max C':>8}")
    # one (mean, std, min, max) row per image, not a class of whole maps
    stats = {name: [] for name in CLASS_NAMES}
    for r in records:
        t = pixel_to_temperature(load_pgm16(out / r.path).pixels)
        stats[r.class_name].append((t.mean(), t.std(), t.min(), t.max()))
    for name in CLASS_NAMES:
        means, stds, lo, hi = zip(*stats[name])
        lines.append(f"{name:<14}  {len(means):>5}  {np.mean(means):>8.2f}  "
                     f"{np.mean(stds):>8.2f}  {min(lo):>8.2f}  {max(hi):>8.2f}")
    report = _write_text(out / "synth_report.txt", lines)
    print(f"manifest: {manifest}")
    print(report, end="")
    return EXIT_OK


def cmd_split(cfg: RunConfig) -> int:
    """plan stratified folds over a manifest"""
    records = read_manifest(cfg.manifest)
    labels = [r.label for r in records]
    plan = stratified_ordered_kfold(labels, cfg.k)
    out = _out_dir(cfg)
    doc = {"k": plan.k, "folds": [list(f) for f in plan.folds]}
    _write_text(out / "fold_plan.json", [json.dumps(doc, indent=1)])
    print(_write_text(out / "fold_summary.txt", [fold_summary_table(plan, labels)]),
          end="")
    return EXIT_OK


def _load_split_data(cfg: RunConfig):
    dataset = load_dataset(cfg.manifest,
                           half_resolution=cfg.half_resolution,
                           shared_bounds=cfg.normalization == "dataset")
    plan = stratified_ordered_kfold(dataset.labels, cfg.k)
    return dataset, make_cv_splits(plan)


def cmd_train(cfg: RunConfig) -> int:
    """train one cross-validation round"""
    dataset, splits = _load_split_data(cfg)
    # the architecture is checked against the images before --out exists
    config = _model_config(cfg, tuple(dataset.images[0].shape))
    split = splits[0 if cfg.fold_selector == "all" else cfg.fold_selector]
    result, report = train_fold(config, dataset, split, cfg.seed,
                                epochs=cfg.epochs, batch=cfg.batch,
                                lr=cfg.lr, out=_out_dir(cfg))
    print(f"fold {split.test_fold}: {len(result.history)} epochs, "
          f"test accuracy {report.accuracy:.6f}")
    print(_metric_table(report))
    return EXIT_OK


def cmd_crossval(cfg: RunConfig) -> int:
    """train and aggregate every round"""
    dataset, splits = _load_split_data(cfg)
    config = _model_config(cfg, tuple(dataset.images[0].shape))
    out = _out_dir(cfg)
    reports = []
    for split in splits:
        _, report = train_fold(config, dataset, split, cfg.seed,
                               epochs=cfg.epochs, batch=cfg.batch, lr=cfg.lr,
                               out=out)
        reports.append(report)
        print(f"fold {split.test_fold}: test accuracy {report.accuracy:.6f}")
    # population std over the rounds; pooled rates from the summed counts
    accs = [r.accuracy for r in reports]
    f1s = [r.macro_f1 for r in reports]
    pooled = metric_report(ConfusionMatrix(sum(r.matrix.counts for r in reports)))
    lines = [f"q {cfg.q_order}",
             f"folds {len(reports)}",
             f"accuracy_mean {_fmt(np.mean(accs))}",
             f"accuracy_std {_fmt(np.std(accs))}",
             # weighted recall equals accuracy in every report
             f"weighted_recall_mean {_fmt(np.mean(accs))}",
             f"macro_f1_mean {_fmt(np.mean(f1s))}",
             f"macro_f1_std {_fmt(np.std(f1s))}",
             f"pooled_accuracy {_fmt(pooled.accuracy)}", "",
             "pooled confusion:",
             _confusion_table(pooled.matrix)]
    print(_write_text(out / f"q{cfg.q_order}_aggregate.txt", lines), end="")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    """evaluate saved weights on a fold or manifest"""
    model = load_weights(cfg.weights)
    dataset, splits = _load_split_data(cfg)
    stored = (model.config.input_shape, model.config.classes)
    wanted = (tuple(dataset.images[0].shape), len(CLASS_NAMES))
    if stored != wanted:
        raise WeightFileError(
            f"weights expect input {stored[0]} with {stored[1]} classes, "
            f"data is {wanted[0]} with {wanted[1]} classes")
    if cfg.fold_selector == "all":
        images, labels = dataset.images, dataset.labels
        scope = "manifest"
    else:
        images, labels = dataset.subset(splits[cfg.fold_selector].test_indices)
        scope = f"test fold {cfg.fold_selector}"
    loss, report = score(model, images, labels)
    print(f"evaluating {len(images)} samples ({scope})")
    print(f"loss {_fmt(loss)}")
    print(_confusion_table(report.matrix))
    print(_metric_table(report))
    return EXIT_OK


def cmd_params(cfg: RunConfig) -> int:
    """print trainable-parameter counts for Q=1..5"""
    shape = (1, cfg.input_height, cfg.input_width)
    rows = [f"{q}  {param_count(_model_config(cfg, shape, q_order=q))}"
            for q in range(1, 6)]
    print("\n".join(["q  parameters", *rows]))
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    """time inference for Q=1..5 on two random images, criterion 10's protocol"""
    shape = (1, cfg.input_height, cfg.input_width)
    models = [build_model(_model_config(cfg, shape, q_order=q),
                          derive_seed(0, STREAM_INIT, q, 0))
              for q in range(1, 6)]
    images = np.random.default_rng(derive_seed(0, STREAM_BENCH)).random((2, *shape))
    per_image_ms = 1e3 * bench_inference(models, images)
    print(f"{len(images)} images per pass, 1 warmup, "
          f"{per_image_ms.shape[1]} timed passes")
    print("q  mean_ms  std_ms  min_ms  max_ms")
    for q, ms in enumerate(per_image_ms, 1):
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

# What main prints on stderr and returns for each failure, matched in row
# order: a row's class must come before any base class of it.
FAILURES = (
    (UsageError, "usage error", EXIT_USAGE),
    (ConfigError, "configuration error", EXIT_USAGE),
    (DivergenceError, "training diverged", EXIT_DIVERGED),
    (WeightFileError, "weight file error", EXIT_WEIGHTS),
    (ManifestError, "data error", EXIT_DATA),
    (PgmError, "data error", EXIT_DATA),
    (OSError, "i/o error", EXIT_IO),
    (ValueError, "error", EXIT_DATA),
)

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
    except tuple(kind for kind, _, _ in FAILURES) as exc:
        label, code = next((label, code) for kind, label, code in FAILURES
                           if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
