import contextlib
import io
import json
import logging
import os
import pickle
import re
import shlex
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfonn_kit import cli
from selfonn_kit.data import (ManifestError, PgmError, load_dataset,
                              make_cv_splits, stratified_ordered_kfold)
from selfonn_kit.metrics import ConfusionMatrix, metric_report
from selfonn_kit.model import (ConfigError, ConsistencyError, ModelConfig,
                               WeightFileError, build_model, load_weights,
                               save_weights)
from selfonn_kit.ops import DimensionError
from selfonn_kit.training import (DivergenceError, EpochRecord, TrainConfig,
                                  evaluate, fit)

TINY_MODEL = ["--filters", "2", "--kernels", "3", "--dense", "4"]


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Small generated corpus shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("corpus")
    code = cli.main(["synth", "--out", str(root), "--per-class", "10",
                     "--height", "16", "--width", "16", "--seed", "5"])
    assert code == cli.EXIT_OK
    return root / "manifest.tsv"


# Every subcommand's flags besides --help and --config: exactly the
# settings the command reads, 51 command-flag pairs in all.
CROSSVAL_FLAGS = ["--manifest", "--out", "--seed", "--k", "--normalization",
                  "--half", "--q", "--filters", "--kernels", "--dense",
                  "--epochs", "--batch", "--lr"]
HELP_FLAGS = {"synth": ["--out", "--seed", "--per-class", "--height",
                        "--width"],
              "split": ["--manifest", "--out", "--k"],
              "train": [*CROSSVAL_FLAGS, "--folds"], "crossval": CROSSVAL_FLAGS,
              "eval": ["--manifest", "--k", "--folds", "--normalization",
                       "--half", "--weights"],
              "params": ["--filters", "--kernels", "--dense",
                         "--input-height", "--input-width"]}
# bench reads exactly the settings params reads, so test_help_lists_each_flag
# checks that both --help texts list the same flags.
HELP_FLAGS["bench"] = HELP_FLAGS["params"]


def run(argv):
    return cli.main([str(a) for a in argv])


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
     1.7976931348623157e308, -1.7976931348623157e308])

# What main prints and returns when a command raises each kind of failure:
# the exception class, the stderr label and the exit code.
FAILURE_ROWS = [
    (cli.UsageError, "usage error", 1),
    (ConfigError, "configuration error", 1),
    (DivergenceError, "training diverged", 3),
    (WeightFileError, "weight file error", 4),
    (ManifestError, "data error", 2),
    (PgmError, "data error", 2),
    (FileNotFoundError, "i/o error", 5),
    (ValueError, "error", 2),
    (DimensionError, "error", 2),
]


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
        cfg = cli.build_run_config(self.parse(["train", "--manifest", "m.tsv"]))
        assert cfg.epochs == 300
        assert cfg.q_order == 1
        assert cfg.filters == (8, 8, 8)

    def test_file_overrides_default(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7\n[model]\nq = 3\n")
        cfg = cli.build_run_config(self.parse(["train", "--config", str(ini),
                                               "--manifest", "m.tsv"]))
        assert cfg.epochs == 7
        assert cfg.q_order == 3

    def test_flag_overrides_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7\nlr = 0.5\n")
        cfg = cli.build_run_config(
            self.parse(["train", "--config", str(ini), "--epochs", "2",
                        "--manifest", "m.tsv"]))
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
            "[eval]\nweights = w.sonn\n")
        cfg = cli.build_run_config(self.parse(["train", "--config", str(ini)]))
        assert cfg.manifest == "m.tsv"
        assert cfg.k == 4
        assert cfg.fold_selector == 2
        assert cfg.normalization == "dataset"
        assert cfg.half_resolution is True
        assert cfg.filters == (4, 4)
        assert cfg.kernels == (3, 2)
        assert cfg.input_height == 64
        assert cfg.weights == "w.sonn"

    def test_inline_comments(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 7  # short run\n")
        cfg = cli.build_run_config(self.parse(["train", "--config", str(ini),
                                               "--manifest", "m.tsv"]))
        assert cfg.epochs == 7

    def test_unknown_entry_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepcohs = 7\n")
        with pytest.raises(cli.UsageError, match="epcohs"):
            cli.read_config_file(ini)

    def test_percent_is_literal(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nmanifest = data/50%/manifest.tsv\n"
                       "out = %(out)s\n")
        assert cli.read_config_file(ini) == {
            "manifest": "data/50%/manifest.tsv", "out": "%(out)s"}

    def test_bad_value_names_entry(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = soon\n")
        with pytest.raises(cli.UsageError, match=r"\[train\] epochs"):
            cli.read_config_file(ini)

    def test_empty_list_entry_in_file_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nfilters = 8, 8,\n")
        with pytest.raises(cli.UsageError,
                           match=r"bad value for \[model\] filters"):
            cli.read_config_file(ini)

    def test_validation_catches_bad_fold_selector(self):
        with pytest.raises(cli.UsageError, match="outside"):
            cli.build_run_config(self.parse(["train", "--folds", "9",
                                             "--manifest", "m.tsv"]))
        with pytest.raises(cli.UsageError, match="'all' or an index"):
            cli.build_run_config(self.parse(["train", "--folds", "first"]))

    def test_folds_parses_to_an_index(self):
        cfg = cli.build_run_config(self.parse(
            ["eval", "--manifest", "m.tsv", "--weights", "w.sonn",
             "--folds", "02"]))
        assert cfg.fold_selector == 2
        with pytest.raises(cli.UsageError, match="bad value for --folds"):
            cli.build_run_config(self.parse(["eval", "--folds", "-1"]))

    def test_byte_order_mark_skipped(self, tmp_path):
        plain = tmp_path / "plain.ini"
        plain.write_text("[run]\nk = 4\n[model]\ndense = 4\n")
        marked = tmp_path / "marked.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert cli.read_config_file(marked) == cli.read_config_file(plain)

    def test_validation_catches_mismatched_blocks(self):
        with pytest.raises(cli.UsageError, match="kernel"):
            cli.build_run_config(self.parse(
                ["train", "--filters", "4,4", "--kernels", "3",
                 "--manifest", "m.tsv"]))

    def test_readme_config_sets_every_setting(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        ini = tmp_path / "readme.ini"
        ini.write_text(block)
        assert set(cli.read_config_file(ini)) == {s.field for s in cli.SETTINGS}
        cli.build_run_config(self.parse(["train", "--config", str(ini)]))

    def test_readme_library_example_runs(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        library = readme.split("## Library use\n", 1)[1]
        block = library.split("```python\n", 1)[1].split("```", 1)[0]
        namespace: dict = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["grads"].shape == namespace["model"].flat.shape

    @pytest.mark.parametrize("command", HELP_FLAGS)
    def test_help_lists_each_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out,
                            flags=re.MULTILINE)
        assert sorted(listed) == sorted(["--help", "--config",
                                         *HELP_FLAGS[command]])

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        blocks = readme.split("```")[1::2]
        lines = [line for block in blocks
                 for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("selfonn-kit ")]
        assert len(lines) >= 6
        for line in lines:
            cli.build_run_config(self.parse(shlex.split(line)[1:]))


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

    def test_config_file_not_utf8(self, tmp_path, capsys):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes("[model]\n# café\ndense = 4\n".encode("latin-1"))
        assert run(["params", "--config", ini]) == cli.EXIT_USAGE
        assert "malformed config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command,needed", [
        (command, s) for s in cli.SETTINGS if s.default is None
        for command in s.commands], ids=lambda v: getattr(v, "flag", v))
    def test_required_setting_missing(self, command, needed, tmp_path, capsys):
        # The other required paths are ghosts: reading one would exit with
        # EXIT_IO.
        out = tmp_path / "out"
        argv = [command]
        for s in cli.SETTINGS:
            if command not in s.commands or s is needed:
                continue
            if s.default is None:
                argv += [s.flag, tmp_path / "ghost"]
            elif s.flag == "--out":
                argv += [s.flag, out]
        assert run(argv) == cli.EXIT_USAGE
        assert f"{command} needs {needed.flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_file_entry_checked_under_flag(self, tmp_path, capsys):
        ini = tmp_path / "b.ini"
        ini.write_text("[train]\nbatch = 0\n")
        assert run(["train", "--config", ini, "--batch", "4",
                    "--manifest", tmp_path / "ghost.tsv"]) == cli.EXIT_USAGE
        assert "[train] batch in" in capsys.readouterr().err

    def test_bad_q_and_lr_entries_checked_under_flags(self, tmp_path, capsys):
        ini = tmp_path / "f.ini"
        ini.write_text("[train]\nlr = -1\n[model]\nq = 11\n")
        out = tmp_path / "out"
        assert run(["train", "--config", ini, "--lr", "0.1", "--q", "2",
                    "--manifest", tmp_path / "ghost.tsv",
                    "--out", out]) == cli.EXIT_USAGE
        assert "[train] lr in" in capsys.readouterr().err
        assert not out.exists()
        ini.write_text("[model]\nq = 11\n")
        assert run(["params", "--config", ini]) == cli.EXIT_USAGE
        assert (f"[model] q in {ini} must be in 1..10, got 11"
                in capsys.readouterr().err)

    def test_percent_in_manifest_reaches_filesystem(self, tmp_path, capsys):
        ini = tmp_path / "p.ini"
        ini.write_text("[run]\nmanifest = data/50%/manifest.tsv\n")
        assert run(["split", "--config", ini,
                    "--out", tmp_path / "out"]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error") and "data/50%/manifest.tsv" in err

    def test_default_section_is_an_unknown_section(self, tmp_path, capsys):
        ini = tmp_path / "d.ini"
        ini.write_text("[DEFAULT]\nseed = 3\n")
        assert run(["params", "--config", ini]) == cli.EXIT_USAGE
        assert "unknown config entry [DEFAULT] seed" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["run", "model", "train", "synth", "eval", "bench",
                         "DEFAULT", "extra"]),
        st.sampled_from(sorted({s.key for s in cli.SETTINGS})
                        + ["junk", "Q", "lr2", "é"]),
        st.text("%():=;#,.- 0123456789abelnsy éßЖ漢", max_size=12)),
        max_size=8))
    def test_no_config_text_escapes_main(self, entries):
        text = "".join(f"[{section}]\n{key} = {value}\n"
                       for section, key, value in entries)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            ini = Path(tmp) / "fuzz.ini"
            ini.write_text(text, encoding="utf-8")
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["params", "--config", str(ini)])
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE)
        if code == cli.EXIT_USAGE:
            assert err.getvalue().startswith(("usage error:",
                                              "configuration error:"))

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["params", "--config", tmp_path / "ghost.ini"]) == cli.EXIT_USAGE
        assert "cannot read config file" in capsys.readouterr().err

    def test_other_value_errors_exit_2(self, corpus, tmp_path, capsys):
        # the catch-all: 31 folds of the 30-image corpus
        out = tmp_path / "out"
        assert run(["crossval", "--manifest", corpus, "--out", out,
                    *TINY_MODEL, "--k", "31"]) == cli.EXIT_DATA
        assert (capsys.readouterr().err
                == "error: need at least 31 samples, got 30\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind,label,code", FAILURE_ROWS,
                             ids=[kind.__name__ for kind, _, _ in FAILURE_ROWS])
    def test_failure_label_and_code(self, kind, label, code, monkeypatch,
                                    capsys):
        def fail(cfg):
            raise kind("what went wrong")

        monkeypatch.setitem(cli.COMMANDS, "params", fail)
        assert run(["params"]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{label}: what went wrong\n"
        assert captured.out == ""

    def test_failure_outside_the_rows_propagates(self, monkeypatch):
        def fail(cfg):
            raise ConsistencyError("forward cache does not match this model")

        monkeypatch.setitem(cli.COMMANDS, "params", fail)
        with pytest.raises(ConsistencyError, match="forward cache"):
            run(["params"])

    # 1.7e308: Adam's first step moves every weight by about lr, so the
    # forward overflows; numpy's overflow warnings must not end the run
    # first, even where warnings are errors. 1e307 trains with finite
    # losses and first overflows in the validation pass.
    @pytest.mark.parametrize("command,lr,message", [
        ("train", "1.7e308", ""), ("crossval", "1.7e308", ""),
        ("train", "1e307", "non-finite validation loss at epoch 0")],
        ids=["train", "crossval", "train-validation"])
    def test_divergence_exits_3(self, command, lr, message, corpus, tmp_path,
                                capsys):
        assert run([command, "--manifest", corpus, "--out", tmp_path / "out",
                    "--k", "3", *TINY_MODEL, "--epochs", "3", "--batch", "4",
                    "--lr", lr]) == cli.EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("training diverged") and message in err

    def test_saturated_run_exits_0(self, corpus, tmp_path, capsys):
        # tanh saturates and every loss stays finite: not a divergence
        assert run(["train", "--manifest", corpus, "--out", tmp_path / "out",
                    "--k", "3", *TINY_MODEL, "--epochs", "1", "--batch", "4",
                    "--lr", "4e306"]) == cli.EXIT_OK

    def test_bad_boolean_entry(self, tmp_path, capsys):
        ini = tmp_path / "b.ini"
        ini.write_text("[run]\nhalf_resolution = maybe\n")
        assert run(["params", "--config", ini]) == cli.EXIT_USAGE
        assert "not a boolean: 'maybe'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("text,message", [
        (b"healthy/00000.pgm\thealthy\xff\n", "is not UTF-8"),
        (b"healthy/00000.pgm\t\n", "empty path or class")],
        ids=["not_utf8", "empty_class"])
    def test_bad_manifest_text(self, text, message, tmp_path, capsys):
        bad = tmp_path / "m.tsv"
        bad.write_bytes(text)
        assert run(["split", "--manifest", bad,
                    "--out", tmp_path]) == cli.EXIT_DATA
        assert message in capsys.readouterr().err

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
                    "--k", "3"]) == cli.EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--batch", "0"], ["train", "--epochs", "0"],
        ["train", "--lr", "-1"], ["train", "--lr", "nan"],
        ["train", "--lr", "0"], ["train", "--lr", "inf"], ["train", "--q", "11"],
        ["synth", "--per-class", "0"], ["synth", "--seed", "-1"],
        ["synth", "--height", "4"], ["train", "--dense", "0"],
        ["train", "--filters", "4,0,4"], ["train", "--kernels", "5,0,2"],
        ["train", "--k", "2"],
        ["crossval", "--k", "2"],
        ["eval", "--k", "2", "--weights", "ghost.sonn"]],
        ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
    def test_bad_setting_rejected_before_data(self, argv, tmp_path, capsys):
        # The manifest does not exist: reading it would exit with EXIT_IO.
        out = tmp_path / "out"
        takes = {s.flag for s in cli.SETTINGS if argv[0] in s.commands}
        for flag, value in (("--manifest", tmp_path / "ghost.tsv"),
                            ("--out", out)):
            if flag in takes:
                argv = [*argv, flag, value]
        assert run(argv) == cli.EXIT_USAGE
        assert f"{argv[1]} must be" in capsys.readouterr().err
        assert not out.exists()

    # Path("") is the working directory: an unset variable passed as --out
    # must not scatter artifacts there.
    @pytest.mark.parametrize("argv", [
        ["synth", "--out", ""],
        ["split", "--manifest", "ghost.tsv", "--out", ""],
        ["train", "--manifest", "ghost.tsv", "--out", ""],
        ["split", "--manifest", "ghost.tsv", "--config", "INI"]],
        ids=["synth", "split", "train", "ini"])
    def test_empty_out_rejected(self, argv, tmp_path, monkeypatch, capsys):
        ini = tmp_path / "f.ini"
        ini.write_text("[run]\nout =\n", encoding="utf-8")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run([ini if a == "INI" else a for a in argv]) == cli.EXIT_USAGE
        assert "must name a directory" in capsys.readouterr().err
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["eval", "--manifest", "ghost.tsv", "--weights", "ghost.sonn",
         "--q", "3"],
        ["eval", "--manifest", "ghost.tsv", "--weights", "ghost.sonn",
         "--out", "D"],
        ["params", "--q", "3"],
        ["synth", "--out", "D", "--per-class", "1", "--height", "8",
         "--width", "8", "--epochs", "2"],
        ["split", "--manifest", "ghost.tsv", "--seed", "1"],
        ["crossval", "--folds", "1"],
        ["bench", "--input-height", "10", "--input-width", "10",
         "--filters", "1", "--kernels", "2", "--dense", "2",
         "--manifest", "m.tsv"],
        # bench times one fixed protocol: no flag may change it
        ["bench", "--runs", "3"], ["bench", "--warmup", "1"],
        ["bench", "--bench-images", "2"], ["bench", "--q", "2"],
        ["bench", "--seed", "1"]],
        ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_unread_flag_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "D"
        assert run([out if a == "D" else a for a in argv]) == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--filters", "4,,4"),
                                            ("--kernels", "5,3,"),
                                            ("--normalization", "global")])
    def test_empty_list_entry_rejected(self, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["train", "--manifest", tmp_path / "ghost.tsv",
                    "--out", out, flag, value]) == cli.EXIT_USAGE
        assert f"bad value for {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_size_beyond_weight_file_rejected_before_out(self, corpus,
                                                          tmp_path, capsys):
        # .sonn headers store the sizes as 16-bit fields
        assert run(["params", "--dense", "70000"]) == cli.EXIT_USAGE
        out = tmp_path / "out"
        assert run(["train", "--manifest", corpus, "--out", out, "--k", "3",
                    "--filters", "2", "--kernels", "3",
                    "--dense", "70000"]) == cli.EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["params", "--input-height", "6", "--input-width", "6"],
        ["params", "--input-height", "-3"],
        ["bench", "--input-height", "6", "--input-width", "6"],
        ["bench", "--input-height", "-3"]],
        ids=lambda argv: f"{argv[0]}{argv[2]}")
    def test_bad_size_fails_before_any_output(self, argv, capsys):
        assert run(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err

    def test_eval_without_weights(self, corpus, capsys):
        assert run(["eval", "--manifest", corpus]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("side,classes", [(12, 3), (16, 2), (16, 4)],
                             ids=["12x12", "2classes", "4classes"])
    def test_eval_weight_shape_mismatch(self, side, classes, corpus,
                                        tmp_path, capsys):
        # the corpus is 16x16 with three classes
        other = ModelConfig(q_order=1, input_shape=(1, side, side),
                            block_filters=(2,), kernel_sizes=(3,),
                            dense_units=4, classes=classes)
        path = tmp_path / "other.sonn"
        save_weights(build_model(other, rng_seed=0), path)
        assert run(["eval", "--manifest", corpus,
                    "--weights", path]) == cli.EXIT_WEIGHTS
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

    def test_fold_plan_file(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        classes = ["healthy"] * 3 + ["misalignment"] * 2
        manifest.write_text("".join(f"{i}.pgm\t{c}\n" for i, c in enumerate(classes)),
                            encoding="utf-8")
        assert run(["split", "--manifest", manifest, "--out", tmp_path / "o",
                    "--k", "2"]) == cli.EXIT_OK
        text = (tmp_path / "o" / "fold_plan.json").read_bytes().decode("utf-8")
        plan = stratified_ordered_kfold([0, 0, 0, 1, 1], 2)
        assert json.loads(text) == {"k": 2, "folds": [list(f) for f in plan.folds]}
        assert text == ('{\n "k": 2,\n "folds": [\n  [\n   0,\n   1,\n   3\n  ],\n'
                        '  [\n   2,\n   4\n  ]\n ]\n}\n')

    def test_split_k_flag(self, corpus, tmp_path, capsys):
        out = tmp_path / "plan"
        assert run(["split", "--manifest", corpus, "--out", out,
                    "--k", "2"]) == cli.EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[1].split() == ["healthy", "5", "5", "10"]

    def test_split_reads_utf8_manifest_in_c_locale(self, corpus, tmp_path):
        manifest = tmp_path / "m.tsv"
        lines = corpus.read_text(encoding="utf-8").splitlines()
        manifest.write_text("".join(f"café/{line}\n" for line in lines),
                            encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run(
            [sys.executable, "-m", "selfonn_kit", "split", "--manifest",
             str(manifest), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_train_opens_utf8_image_paths_in_c_locale(self, corpus, tmp_path):
        # café/ beside the manifest links to the corpus directory
        (tmp_path / "café").symlink_to(corpus.parent, target_is_directory=True)
        manifest = tmp_path / "m.tsv"
        lines = corpus.read_text(encoding="utf-8").splitlines()
        manifest.write_text("".join(f"café/{line}\n" for line in lines),
                            encoding="utf-8")
        argv = ["train", "--manifest", manifest, *TINY_MODEL, "--epochs", "1",
                "--k", "3", "--seed", "3"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run(
            [sys.executable, "-m", "selfonn_kit",
             *map(str, argv), "--out", str(tmp_path / "c")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert run([*argv, "--out", tmp_path / "utf8"]) == cli.EXIT_OK
        assert ((tmp_path / "c" / "q1_fold0.sonn").read_bytes()
                == (tmp_path / "utf8" / "q1_fold0.sonn").read_bytes())


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

    # Finite doubles, subnormals, -0.0 and +-DBL_MAX among them, come back
    # bit for bit; the epoch and lr_reduced as the digits of int(value).
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(
        EpochRecord, epoch=st.integers(0, 10**6), train_loss=FINITE,
        val_loss=FINITE, val_accuracy=FINITE, learning_rate=FINITE,
        lr_reduced=st.booleans()), max_size=5))
    def test_epoch_log_round_trip(self, history):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "epochs.tsv"
            cli.write_epoch_log(history, path)
            text = path.read_bytes().decode("utf-8")
        header, *rows = [line.split("\t") for line in text.split("\n")[:-1]]
        assert text.endswith("\n") and len(rows) == len(history)
        assert header == [f.name for f in fields(EpochRecord)]
        for record, row in zip(history, rows):
            values = [getattr(record, name) for name in header]
            assert len(row) == len(values)
            for cell, value in zip(row, values):
                if isinstance(value, float):
                    assert float(cell).hex() == value.hex()
                else:
                    assert cell == str(int(value))

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
        assert run(["eval", "--manifest", corpus,
                    "--weights", out / "q1_fold0.sonn",
                    "--folds", "0"]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "evaluating 6 samples (test fold 0)" in stdout
        assert "accuracy" in stdout

    def test_eval_whole_manifest(self, corpus, tmp_path, capsys):
        out = tmp_path / "runs"
        run(self.train_args(corpus, out))
        capsys.readouterr()
        assert run(["eval", "--manifest", corpus,
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


class TestCrossvalAggregate:
    """The aggregate derives from the rounds' reports alone."""

    MATRICES = ([[3, 1, 0], [0, 3, 0], [0, 1, 2]],
                [[4, 0, 0], [0, 3, 0], [0, 0, 3]],
                [[2, 1, 1], [1, 2, 0], [0, 1, 2]])

    def test_spreads_and_pooled_table(self, corpus, tmp_path, monkeypatch,
                                      capsys):
        reports = iter(metric_report(ConfusionMatrix(np.array(rows, np.int64)))
                       for rows in self.MATRICES)
        monkeypatch.setattr(cli, "train_fold",
                            lambda *args, **kwargs: (None, next(reports)))
        out = tmp_path / "cv"
        assert run(["crossval", "--manifest", corpus, "--out", out,
                    "--k", "3", *TINY_MODEL]) == cli.EXIT_OK
        head, table = (out / "q1_aggregate.txt").read_text().split(
            "\npooled confusion:\n")
        values = {key: float(v) for key, v in
                  (line.split() for line in head.splitlines() if line)}
        # per-class F1 of each round, worked by hand; spreads are population std
        f1 = [(6 / 7 + 3 / 4 + 4 / 5) / 3, 1.0, (4 / 7 + 4 / 7 + 2 / 3) / 3]
        f1_mean = sum(f1) / 3
        assert f1 == pytest.approx([0.80238, 1.0, 0.60317], abs=5e-6)
        assert values == pytest.approx({
            "q": 1, "folds": 3, "accuracy_mean": 0.8,
            "accuracy_std": (0.08 / 3) ** 0.5, "weighted_recall_mean": 0.8,
            "macro_f1_mean": f1_mean,
            "macro_f1_std": (sum((x - f1_mean) ** 2 for x in f1) / 3) ** 0.5,
            "pooled_accuracy": 24 / 30})
        assert table.splitlines()[1].split() == ["healthy", "9", "2", "1"]
        assert "fold 2: test accuracy 0.600000" in capsys.readouterr().out

    def test_config_with_folds_serves_crossval(self, corpus, tmp_path, capsys):
        # crossval trains every round and ignores [run] folds, an entry
        # that train and eval read
        ini = tmp_path / "f.ini"
        ini.write_text(f"[run]\nmanifest = {corpus}\nk = 3\nfolds = 1\n"
                       "[model]\nfilters = 2\nkernels = 3\ndense = 4\n"
                       "[train]\nepochs = 1\n")
        assert run(["train", "--config", ini, "--out", tmp_path / "A"]) == cli.EXIT_OK
        assert (tmp_path / "A" / "q1_fold1.sonn").exists()
        assert run(["crossval", "--config", ini,
                    "--out", tmp_path / "B"]) == cli.EXIT_OK
        assert (tmp_path / "B" / "q1_aggregate.txt").exists()


def report_with(count):
    """A 3-class report whose healthy diagonal is `count`; broken_rotor is
    never predicted, so its precision, recall and F1 read 0.0000."""
    return metric_report(ConfusionMatrix(np.array(
        [[count, 4, 0], [7, 250, 0], [3, 1, 0]], dtype=np.int64)))


class TestReportTables:
    """Exact text of the confusion and metric tables. The expected strings
    are what metrics.format_confusion and format_metric_table wrote for the
    same reports before the renderers moved into cli. A 7-digit count
    keeps the class-name width; a 13-digit one widens the columns."""

    @pytest.mark.parametrize("count,expected", [
        (1234567,
         "                   healthy misalignment broken_rotor\n"
         "     healthy       1234567            4            0\n"
         "misalignment             7          250            0\n"
         "broken_rotor             3            1            0"),
        (1234567890123,
         "                     healthy  misalignment  broken_rotor\n"
         "      healthy  1234567890123             4             0\n"
         " misalignment              7           250             0\n"
         " broken_rotor              3             1             0")],
        ids=["seven_digits", "thirteen_digits"])
    def test_confusion_table(self, count, expected):
        assert cli._confusion_table(report_with(count).matrix) == expected

    @pytest.mark.parametrize("count,expected", [
        (1234567,
         "              precision  recall      f1     support\n"
         "     healthy     1.0000  1.0000  1.0000     1234571\n"
         "misalignment     0.9804  0.9728  0.9766         257\n"
         "broken_rotor     0.0000  0.0000  0.0000           4\n"
         "       macro     0.6601  0.6576  0.6589     1234832\n"
         "    weighted     1.0000  1.0000  1.0000     1234832\n"
         "accuracy 0.999988"),
        (1234567890123,
         "              precision  recall      f1     support\n"
         "     healthy     1.0000  1.0000  1.0000  1234567890127\n"
         "misalignment     0.9804  0.9728  0.9766         257\n"
         "broken_rotor     0.0000  0.0000  0.0000           4\n"
         "       macro     0.6601  0.6576  0.6589  1234567890388\n"
         "    weighted     1.0000  1.0000  1.0000  1234567890388\n"
         "accuracy 1.000000")],
        ids=["seven_digits", "thirteen_digits"])
    def test_metric_table(self, count, expected):
        assert cli._metric_table(report_with(count)) == expected


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


class TestRoundResult:
    def test_pickled_result_compares_equal(self, corpus):
        # a round's (FitResult, MetricReport) survives a process boundary
        dataset = load_dataset(corpus)
        split = make_cv_splits(stratified_ordered_kfold(dataset.labels, 3))[0]
        config = ModelConfig(input_shape=dataset.images[0].shape, q_order=3,
                             block_filters=(2,), kernel_sizes=(3,),
                             dense_units=4)
        result = cli.train_fold(config, dataset, split, 2, epochs=2, batch=4,
                                lr=1e-3)
        assert pickle.loads(pickle.dumps(result)) == result


class TestRoundReport:
    def test_report_rebuilt_from_saved_weights(self, corpus, tmp_path, capsys):
        # eval of a round's saved weights on its test fold reprints the
        # round's report: the loss bit for bit, then the same two tables
        out, data = tmp_path / "cv", ["--manifest", corpus, "--k", "3"]
        assert run(["crossval", *data, "--out", out, *TINY_MODEL,
                    "--epochs", "1", "--batch", "4", "--q", "2",
                    "--seed", "6"]) == cli.EXIT_OK
        for fold in range(3):
            head, matrix, table = (out / f"q2_fold{fold}_report.txt"
                                   ).read_text().split("\n\n")
            capsys.readouterr()
            assert run(["eval", *data, "--folds", fold, "--weights",
                        out / f"q2_fold{fold}.sonn"]) == cli.EXIT_OK
            printed = capsys.readouterr().out.split("\n", 2)
            assert printed[1] == "loss " + head.split("test_loss ")[1]
            assert printed[2] == matrix + "\n" + table


class TestBenchCommand:
    TINY = ["--input-height", "10", "--input-width", "10", "--filters", "1",
            "--kernels", "2", "--dense", "2"]

    def test_output_table(self, capsys):
        assert run(["bench", *self.TINY]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "2 images per pass, 1 warmup, 24 timed passes"
        assert lines[1].split() == ["q", "mean_ms", "std_ms", "min_ms",
                                    "max_ms"]
        assert all(float(line.split()[1]) > 0 for line in lines[2:])

    def test_sweeps_all_orders_by_default(self, capsys):
        assert run(["bench", *self.TINY]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["1", "2", "3",
                                                           "4", "5"]

    def test_config_file_q_leaves_the_sweep_whole(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nq = 3\n")
        assert run(["bench", "--config", ini, *self.TINY]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["1", "2", "3",
                                                           "4", "5"]

    @pytest.mark.parametrize("key", ["images", "warmup", "repeats"])
    def test_bench_section_rejected(self, key, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[bench]\n{key} = 5\n")
        assert run(["bench", "--config", ini, *self.TINY]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown config entry [bench] {key}" in captured.err


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
