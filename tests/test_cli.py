import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from selfonn_kit import cli
from selfonn_kit.data import load_dataset, make_cv_splits, stratified_ordered_kfold
from selfonn_kit.model import ModelConfig, build_model, load_weights, save_weights
from selfonn_kit.training import TrainConfig, evaluate, fit

TINY_MODEL = ["--filters", "2", "--kernels", "3", "--dense", "4"]


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Small generated corpus shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("corpus")
    code = cli.main(["synth", "--out", str(root), "--per-class", "10",
                     "--height", "16", "--width", "16", "--seed", "5"])
    assert code == cli.EXIT_OK
    return root / "manifest.tsv"


# Every subcommand's flags as the parser listed them before the settings
# table existed; the table must reproduce them exactly.
COMMON_FLAGS = ["--help", "--config", "--manifest", "--out", "--seed", "--q",
                "--k", "--folds", "--epochs", "--batch", "--lr",
                "--normalization", "--half", "--filters", "--kernels",
                "--dense", "--input-height", "--input-width"]
HELP_FLAGS = {"synth": ["--per-class", "--height", "--width"],
              "split": [], "train": [], "crossval": [],
              "eval": ["--weights"], "params": [],
              "bench": ["--bench-images", "--warmup", "--runs"]}


def run(argv):
    return cli.main([str(a) for a in argv])


class TestSeedStreams:
    def test_streams_are_independent(self):
        base = cli.derive_seed(0, cli.STREAM_INIT, 1, 0)
        assert base == cli.derive_seed(0, cli.STREAM_INIT, 1, 0)
        assert base != cli.derive_seed(0, cli.STREAM_BATCH, 1, 0)
        assert base != cli.derive_seed(0, cli.STREAM_INIT, 2, 0)
        assert base != cli.derive_seed(1, cli.STREAM_INIT, 1, 0)


class TestConfigResolution:
    def parse(self, argv):
        return cli.build_parser().parse_args(argv)

    def test_defaults(self):
        cfg = cli.build_run_config(self.parse(["train"]))
        assert cfg.epochs == 300
        assert cfg.q_order == 1
        assert cfg.filters == (8, 8, 8)

    def test_file_overrides_default(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7\n[model]\nq = 3\n")
        cfg = cli.build_run_config(self.parse(["train", "--config", str(ini)]))
        assert cfg.epochs == 7
        assert cfg.q_order == 3

    def test_flag_overrides_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7\nlr = 0.5\n")
        cfg = cli.build_run_config(
            self.parse(["train", "--config", str(ini), "--epochs", "2"]))
        assert cfg.epochs == 2
        assert cfg.lr == 0.5

    def test_full_schema_round_trip(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nmanifest = m.tsv\nout = art\nseed = 9\nk = 4\n"
            "folds = 2\nnormalization = dataset\nhalf_resolution = yes\n"
            "[model]\nq = 2\nfilters = 4, 4\nkernels = 3, 2\ndense = 8\n"
            "input_height = 64\ninput_width = 80\n"
            "[train]\nepochs = 11\nbatch = 8\nlr = 0.01\n"
            "[synth]\nper_class = 5\nheight = 32\nwidth = 40\n"
            "[eval]\nweights = w.sonn\n"
            "[bench]\nimages = 2\nwarmup = 0\nrepeats = 2\n")
        cfg = cli.build_run_config(self.parse(["train", "--config", str(ini)]))
        assert cfg.manifest == "m.tsv"
        assert cfg.k == 4
        assert cfg.fold_selector == "2"
        assert cfg.normalization == "dataset"
        assert cfg.half_resolution is True
        assert cfg.filters == (4, 4)
        assert cfg.kernels == (3, 2)
        assert cfg.input_height == 64
        assert cfg.weights == "w.sonn"
        assert cfg.bench_repeats == 2

    def test_inline_comments(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7  # short run\n")
        cfg = cli.build_run_config(self.parse(["train", "--config", str(ini)]))
        assert cfg.epochs == 7

    def test_unknown_entry_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepcohs = 7\n")
        with pytest.raises(cli.UsageError, match="epcohs"):
            cli.read_config_file(ini)

    def test_bad_value_names_entry(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = soon\n")
        with pytest.raises(cli.UsageError, match=r"\[train\] epochs"):
            cli.read_config_file(ini)

    def test_validation_catches_bad_fold_selector(self):
        with pytest.raises(cli.UsageError, match="outside"):
            cli.build_run_config(self.parse(["train", "--folds", "9"]))
        with pytest.raises(cli.UsageError, match="'all' or an index"):
            cli.build_run_config(self.parse(["train", "--folds", "first"]))

    def test_validation_catches_mismatched_blocks(self):
        with pytest.raises(cli.UsageError, match="kernel"):
            cli.build_run_config(self.parse(
                ["train", "--filters", "4,4", "--kernels", "3"]))

    def test_readme_config_sets_every_setting(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        ini = tmp_path / "readme.ini"
        ini.write_text(block)
        assert set(cli.read_config_file(ini)) == {s.field for s in cli.SETTINGS}
        cli.build_run_config(self.parse(["train", "--config", str(ini)]))

    @pytest.mark.parametrize("command", HELP_FLAGS)
    def test_help_lists_each_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out,
                            flags=re.MULTILINE)
        assert sorted(listed) == sorted(COMMON_FLAGS + HELP_FLAGS[command])


class TestExitCodes:
    def test_no_command(self, capsys):
        assert run([]) == cli.EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run(["params", "--frobnicate"]) == cli.EXIT_USAGE

    def test_malformed_config_file(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("epochs = 7\n")  # key before any section header
        assert run(["params", "--config", ini]) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_missing_manifest_flag(self, capsys):
        assert run(["split"]) == cli.EXIT_USAGE

    def test_missing_manifest_file(self, tmp_path, capsys):
        assert run(["split", "--manifest", tmp_path / "ghost.tsv",
                    "--out", tmp_path]) == cli.EXIT_IO

    def test_bad_manifest_contents(self, tmp_path, capsys):
        bad = tmp_path / "m.tsv"
        bad.write_text("a.pgm\tunknown_condition\n")
        assert run(["split", "--manifest", bad,
                    "--out", tmp_path]) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_impossible_architecture(self, tmp_path, capsys):
        # a 5x5 kernel cannot survive three halvings of a 16-pixel row
        assert run(["params", "--input-height", "16",
                    "--input-width", "16"]) == cli.EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "crossval"])
    def test_too_deep_for_images_rejected_before_out(self, command, corpus,
                                                      tmp_path, capsys):
        # the default 5,3,2 kernels die in block 3 of a 16x16 image
        out = tmp_path / "out"
        assert run([command, "--manifest", corpus, "--out", out,
                    "--k", "2"]) == cli.EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--batch", "0"], ["train", "--epochs", "0"],
        ["train", "--lr", "-1"], ["train", "--lr", "nan"],
        ["synth", "--per-class", "0"], ["synth", "--seed", "-1"],
        ["synth", "--height", "4"], ["bench", "--runs", "0"],
        ["bench", "--bench-images", "0"], ["bench", "--warmup", "-1"],
        ["train", "--dense", "0"], ["train", "--filters", "4,0,4"],
        ["train", "--kernels", "5,0,2"]],
        ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
    def test_bad_setting_rejected_before_data(self, argv, tmp_path, capsys):
        # The manifest does not exist: reading it would exit with EXIT_IO.
        out = tmp_path / "out"
        assert run([*argv, "--manifest", tmp_path / "ghost.tsv",
                    "--out", out]) == cli.EXIT_USAGE
        assert f"{argv[1]} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_without_weights(self, corpus, capsys):
        assert run(["eval", "--manifest", corpus]) == cli.EXIT_USAGE

    def test_eval_weight_shape_mismatch(self, corpus, tmp_path, capsys):
        other = ModelConfig(q_order=1, input_shape=(1, 12, 12),
                            block_filters=(2,), kernel_sizes=(3,),
                            dense_units=4, classes=3)
        path = tmp_path / "other.sonn"
        save_weights(build_model(other, rng_seed=0), path)
        assert run(["eval", "--manifest", corpus, "--weights", path,
                    *TINY_MODEL]) == cli.EXIT_WEIGHTS
        assert "weight file error" in capsys.readouterr().err

    def test_eval_weights_not_a_weight_file(self, corpus, tmp_path, capsys):
        path = tmp_path / "junk.sonn"
        path.write_bytes(b"not a weight file")
        assert run(["eval", "--manifest", corpus,
                    "--weights", path]) == cli.EXIT_WEIGHTS


class TestParams:
    def test_reference_counts(self, capsys):
        assert run(["params"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["q", "parameters"]
        assert [l.split() for l in lines[1:]] == [
            ["1", "293027"], ["2", "294083"], ["3", "295139"],
            ["4", "296195"], ["5", "297251"]]

    def test_counts_follow_flags(self, capsys):
        assert run(["params", "--input-height", "16", "--input-width", "16",
                    *TINY_MODEL]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        # one block of 2 filters, 3x3 kernels: 18 kernel weights and 2
        # biases per order, plus dense 98*4+4 and output 4*3+3 = 411
        assert lines[1].split() == ["1", "431"]
        assert lines[2].split() == ["2", "451"]


class TestSynthAndSplit:
    def test_synth_artifacts(self, corpus, capsys):
        root = corpus.parent
        assert corpus.exists()
        report = (root / "synth_report.txt").read_text()
        assert "images per class: 10" in report
        assert "grid: 16x16" in report
        for name in ("healthy", "misalignment", "broken_rotor"):
            assert name in report
            assert (root / name / "00009.pgm").exists()

    def test_split_summary(self, corpus, tmp_path, capsys):
        out = tmp_path / "plan"
        assert run(["split", "--manifest", corpus, "--out", out]) == cli.EXIT_OK
        table = capsys.readouterr().out
        assert (out / "fold_plan.json").exists()
        assert (out / "fold_summary.txt").read_text().strip() == table.strip()
        rows = [line.split() for line in table.strip().splitlines()]
        assert rows[0][:2] == ["class", "fold0"]
        assert rows[1][0] == "healthy" and rows[1][1:] == ["2"] * 5 + ["10"]
        assert rows[4][0] == "total" and rows[4][-1] == "30"

    def test_split_k_flag(self, corpus, tmp_path, capsys):
        out = tmp_path / "plan"
        assert run(["split", "--manifest", corpus, "--out", out,
                    "--k", "2"]) == cli.EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[1].split() == ["healthy", "5", "5", "10"]


class TestTrainEvalPipeline:
    def train_args(self, corpus, out, extra=()):
        return ["train", "--manifest", corpus, "--out", out, *TINY_MODEL,
                "--epochs", "2", "--batch", "4", "--seed", "3", *extra]

    def test_train_writes_artifacts(self, corpus, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(self.train_args(corpus, out)) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "fold 0: 2 epochs" in stdout
        assert "accuracy" in stdout
        assert (out / "q1_fold0.sonn").exists()
        report = (out / "q1_fold0_report.txt").read_text()
        assert "test_fold 0" in report and "val_fold 1" in report
        assert "epochs_run 2" in report
        log = (out / "q1_fold0_epochs.tsv").read_text().splitlines()
        assert log[0].split("\t") == ["epoch", "train_loss", "val_loss",
                                      "val_accuracy", "learning_rate",
                                      "lr_reduced"]
        assert len(log) == 3

    def test_fold_selector(self, corpus, tmp_path):
        out = tmp_path / "runs"
        assert run(self.train_args(corpus, out,
                                   ["--folds", "2"])) == cli.EXIT_OK
        assert (out / "q1_fold2.sonn").exists()
        report = (out / "q1_fold2_report.txt").read_text()
        assert "test_fold 2" in report and "val_fold 3" in report

    def test_reruns_are_byte_identical(self, corpus, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(self.train_args(corpus, out_a)) == cli.EXIT_OK
        assert run(self.train_args(corpus, out_b)) == cli.EXIT_OK
        for name in ("q1_fold0.sonn", "q1_fold0_epochs.tsv",
                     "q1_fold0_report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_weights(self, corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(self.train_args(corpus, out_a))
        argv = self.train_args(corpus, out_b)
        argv[argv.index("--seed") + 1] = "4"
        run(argv)
        assert ((out_a / "q1_fold0.sonn").read_bytes()
                != (out_b / "q1_fold0.sonn").read_bytes())

    def test_eval_saved_weights_on_test_fold(self, corpus, tmp_path, capsys):
        out = tmp_path / "runs"
        run(self.train_args(corpus, out))
        capsys.readouterr()
        assert run(["eval", "--manifest", corpus, "--out", out, *TINY_MODEL,
                    "--weights", out / "q1_fold0.sonn",
                    "--folds", "0"]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "evaluating 6 samples (test fold 0)" in stdout
        assert "accuracy" in stdout

    def test_eval_whole_manifest(self, corpus, tmp_path, capsys):
        out = tmp_path / "runs"
        run(self.train_args(corpus, out))
        capsys.readouterr()
        assert run(["eval", "--manifest", corpus, "--out", out, *TINY_MODEL,
                    "--weights", out / "q1_fold0.sonn"]) == cli.EXIT_OK
        assert "evaluating 30 samples (manifest)" in capsys.readouterr().out

    def test_crossval_aggregate(self, corpus, tmp_path, capsys):
        out = tmp_path / "cv"
        assert run(["crossval", "--manifest", corpus, "--out", out,
                    *TINY_MODEL, "--epochs", "1", "--batch", "4",
                    "--q", "2", "--seed", "3"]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        for fold in range(5):
            assert (out / f"q2_fold{fold}.sonn").exists()
        agg = (out / "q2_aggregate.txt").read_text()
        assert agg.splitlines()[0] == "q 2"
        assert "folds 5" in agg
        assert "accuracy_mean" in agg and "pooled_accuracy" in agg
        assert "pooled confusion:" in agg
        assert agg in stdout


class TestSharedFoldPath:
    """crossval, paired_cv_study and a loop written here train the same bits.

    The loop seeds each fold as the package promises, from derive_seed(seed,
    STREAM_INIT or STREAM_BATCH, q, fold), so it pins that contract without
    going through train_fold.
    """

    def test_three_sources_agree(self, tmp_path, capsys):
        corpus, cv = tmp_path / "corpus", tmp_path / "cv"
        seed, q, k = 4, 2, 3
        assert run(["synth", "--out", corpus, "--per-class", "6",
                    "--height", "32", "--width", "40", "--seed", "1"]) == 0
        manifest = corpus / "manifest.tsv"
        capsys.readouterr()
        assert run(["crossval", "--manifest", manifest, "--out", cv,
                    "--filters", "2,2", "--kernels", "3,2", "--dense", "4",
                    "--k", k, "--epochs", "1", "--batch", "4", "--q", q,
                    "--seed", seed]) == cli.EXIT_OK
        printed = re.findall(r"^fold \d: test accuracy (\S+)$",
                             capsys.readouterr().out, flags=re.MULTILINE)

        dataset = load_dataset(manifest)
        splits = make_cv_splits(stratified_ordered_kfold(dataset.labels, k))
        config = ModelConfig(input_shape=dataset.images[0].shape,
                             block_filters=(2, 2), kernel_sizes=(3, 2),
                             dense_units=4)
        study = cli.paired_cv_study(config, dataset, splits, [seed], [q],
                                    epochs=1, batch=4, lr=1e-3)

        explicit = []
        for fold, split in enumerate(splits):
            model = build_model(replace(config, q_order=q), cli.derive_seed(
                seed, cli.STREAM_INIT, q, fold))
            fit(model, *dataset.subset(split.train_indices),
                *dataset.subset(split.val_indices),
                TrainConfig(learning_rate=1e-3, batch_size=4, max_epochs=1,
                            seed=cli.derive_seed(seed, cli.STREAM_BATCH, q,
                                                 fold)))
            explicit.append(
                evaluate(model, *dataset.subset(split.test_indices))[1])
            saved = load_weights(cv / f"q{q}_fold{fold}.sonn")
            assert np.array_equal(saved.flat, model.flat)

        assert study == {(seed, q): explicit}
        assert printed == [f"{acc:.6f}" for acc in explicit]


class TestBenchCommand:
    def test_output_table(self, capsys):
        assert run(["bench", "--input-height", "12", "--input-width", "12",
                    "--filters", "2", "--kernels", "3", "--dense", "2",
                    "--q", "2", "--bench-images", "2", "--warmup", "1",
                    "--runs", "3"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "2 images per pass, 1 warmup, 3 timed passes"
        assert lines[1].split() == ["q", "mean_ms", "std_ms", "min_ms",
                                    "max_ms"]
        assert len(lines) == 3  # --q restricts the sweep to one order
        cells = lines[2].split()
        assert cells[0] == "2"
        assert float(cells[1]) > 0

    def test_sweeps_all_orders_by_default(self, capsys):
        assert run(["bench", "--input-height", "10", "--input-width", "10",
                    "--filters", "1", "--kernels", "2", "--dense", "2",
                    "--bench-images", "1", "--warmup", "0",
                    "--runs", "1"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["1", "2", "3",
                                                           "4", "5"]

    def test_config_file_q_restricts_sweep(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nq = 2\n")
        assert run(["bench", "--config", ini, "--input-height", "10",
                    "--input-width", "10", "--filters", "1", "--kernels", "2",
                    "--dense", "2", "--bench-images", "1", "--warmup", "0",
                    "--runs", "1"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["2"]


class TestLogging:
    def test_env_selects_level(self, monkeypatch):
        for name, level in (("debug", logging.DEBUG), ("info", logging.INFO),
                            ("quiet", logging.ERROR)):
            monkeypatch.setenv("SELFONN_LOG", name)
            logging.root.handlers.clear()
            cli._setup_logging()
            assert logging.root.level == level

    def test_unknown_level_falls_back(self, monkeypatch):
        monkeypatch.setenv("SELFONN_LOG", "chatty")
        logging.root.handlers.clear()
        cli._setup_logging()
        assert logging.root.level == logging.WARNING


class TestConsoleScript:
    def test_installed_entry_point(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "selfonn_kit", "params"],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "293027" in proc.stdout
