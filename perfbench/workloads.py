"""The benchmark's workloads: inputs from a seed, a closed loop of calls, checks.

Each workload builds its inputs from the seed alone (`setup`), then runs one
unit of work per `step` on a closed loop: the next call starts when the
previous one returns. Every step times two streams of calls, A and B, and
checks their outputs; `finish` runs the checks that are too slow to repeat
per step. The package receives only the generated inputs and the data
layer's outputs, passed through untouched, and is reached only through the
entry points the `selfonn-kit` CLI uses. A workload is built on a kit: the
package under test, or the frozen seed copy that run.py interleaves with it
as the speed reference.

    workload    stream A                        stream B
    desk_train  one epoch of training.fit       training.evaluate on 18 test
                                                images of that fold
    full_infer  one 256x320 frame, Q=1          one 256x320 frame, Q=3
    corpus_io   data.load_dataset, whole corpus write_pgm16 per image, then the load
"""

from __future__ import annotations

import importlib
import importlib.util
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import numpy as np

from selfonn_kit import cli

KIT_MODULES = ("data", "metrics", "model", "synth", "training")


def load_kit(package: str) -> SimpleNamespace:
    """The modules a workload calls, taken from `package`.

    `selfonn_kit` is the package under test; `seed_kit` is the frozen copy
    that serves as the speed reference (see run.py). Calls go through the
    module attributes, so a traced run sees its wrappers.
    """
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}")
                              for name in KIT_MODULES})


@dataclass
class Tally:
    """Timings and outcomes of one measured phase."""

    a_ms: list[float] = field(default_factory=list)   # per stream-A call
    b_ms: list[float] = field(default_factory=list)   # per stream-B call
    b_wall_ms: list[float] = field(default_factory=list)  # wall time, corpus_io only
    a_items: int = 0          # samples / frames / images handled by stream A
    b_items: int = 0
    steps: int = 0
    attempted: int = 0        # calls made plus checks run
    failed: int = 0           # calls that raised plus checks that failed
    failures: list[str] = field(default_factory=list)

    def calls(self, n: int) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


# Every timing is process CPU time (user + system). The process runs one
# thread (BLAS is pinned to one), so on a dedicated host this equals wall
# time; it leaves out the turns the other worker of an untraced run has
# (see run.py), and on a shared VM the time the hypervisor gives the vCPU
# to other guests. With 14% steal, full-scale Q=1 frames read p90 58 ms wall
# against 38 ms CPU, while p50 differed by 1%.
clock = process_time


def _timed(fn, *args, **kwargs):
    start = clock()
    result = fn(*args, **kwargs)
    return result, clock() - start


class Workload:
    """Shared parts: the kit whose functions a workload calls.

    `seed_medians` holds what the seed copy measured on the calibration host
    (see run.py): median set-up seconds and median stream A and B
    milliseconds per call, in the two-worker runs of a 2-vCPU Xeon VM.
    Timings are reported at that host speed.
    """

    seed_medians: dict[str, float]
    setups = 5                # set-ups per run, each kit; the median is reported

    def __init__(self, kit: SimpleNamespace, root: Path):
        self.kit = kit
        self.root = root

    def finish(self, st, tally: Tally) -> None:
        pass

    @staticmethod
    def meet() -> None:
        """In an untraced run, wait here until the other worker gets here too.

        Set by run.py; a no-op otherwise. Workloads meet before each timed
        call, so the package and the seed copy make the same call within
        one turn of each other.
        """


class DeskTrain(Workload):
    """Criterion-6 / `crossval` shape: one cross-validation fold per step.

    Synthetic 128x160 corpus halved to 64x80, filters 4,4,4, kernels 5,3,2,
    dense 16, Q=2, batch 16, three epochs. Early stopping needs five stalled
    epochs, so it cannot shorten a three-epoch fit: the work per fold is fixed.
    The trained net then evaluates its test fold `eval_passes` times, in
    chunks: one pass is what `crossval` does, the others only give stream B
    enough samples to be steady.
    """

    name = "desk_train"
    stream_a = "one fit epoch: 540 train samples + 180 validation forwards"
    stream_b = "evaluate on one chunk of 18 test images (10 passes over the test fold)"
    aliases = {"a_items_per_s": "train_samples_per_s",
               "b_items_per_s": "eval_images_per_s",
               "a_ms_p50": "epoch_ms_p50", "a_ms_p90": "epoch_ms_p90",
               "b_ms_p50": "eval_chunk_ms_p50", "b_ms_p90": "eval_chunk_ms_p90"}
    min_steps = 1             # folds per run
    seed_medians = {"setup_s": 4.3, "a_ms": 3600.0, "b_ms": 37.0}
    setups = 2                # a set-up renders, writes and loads 900 images
    per_class = 300
    folds = 5
    q_order = 2
    epochs = 3
    eval_chunk = 18           # 10 timed evaluate calls per 180-image test fold
    eval_passes = 10          # 100 B samples per fold, so p90 has 10 beyond it
    # Chance is 1/3 and criterion 6 expects ~0.95 mean accuracy after three
    # epochs; a fold below this floor means training is broken.
    accuracy_floor = 0.6

    def trace_steps(self, seconds: int) -> int:
        return max(1, seconds // 20)

    def setup(self, seed: int, workdir: Path):
        kit = self.kit
        manifest = kit.synth.synth_generate(
            workdir / "corpus",
            kit.synth.SynthConfig(per_class=self.per_class, height=128, width=160,
                                  seed=seed))
        dataset = kit.data.load_dataset(manifest, half_resolution=True)
        splits = kit.data.make_cv_splits(
            kit.data.stratified_ordered_kfold(dataset.labels, self.folds))
        config = kit.model.ModelConfig(q_order=self.q_order,
                                       input_shape=tuple(dataset.images[0].shape),
                                       block_filters=(4, 4, 4), kernel_sizes=(5, 3, 2),
                                       dense_units=16, classes=len(kit.data.CLASS_NAMES))
        return {"seed": seed, "dataset": dataset, "splits": splits,
                "config": config, "next": 0}

    def step(self, st, tally: Tally) -> None:
        kit = self.kit
        fold = st["next"] % self.folds
        st["next"] += 1
        split, dataset, seed = st["splits"][fold], st["dataset"], st["seed"]
        train_x, train_y = dataset.subset(split.train_indices)
        val_x, val_y = dataset.subset(split.val_indices)
        test_x, test_y = dataset.subset(split.test_indices)
        net = kit.model.build_model(
            st["config"], cli.derive_seed(seed, cli.STREAM_INIT, self.q_order, fold))
        tc = kit.training.TrainConfig(
            max_epochs=self.epochs,
            seed=cli.derive_seed(seed, cli.STREAM_BATCH, self.q_order, fold))

        def epoch_done(record):
            marks.append(clock())
            self.meet()                  # both kits start each epoch together

        marks = [clock()]                # fit start, then the end of each epoch
        result = kit.training.fit(net, train_x, train_y, val_x, val_y, tc,
                                  on_epoch=epoch_done)
        # The test fold is evaluated in fixed chunks, so B has ten samples
        # per pass instead of one; the work is the same as one call. The
        # kits meet before each chunk, so chunk i of one is timed right
        # beside chunk i of the other.
        passes = []
        for _ in range(self.eval_passes):
            losses, preds = [], []
            for lo in range(0, len(test_y), self.eval_chunk):
                self.meet()
                (loss, _, chunk_preds), seconds = _timed(
                    kit.training.evaluate, net, test_x[lo:lo + self.eval_chunk],
                    test_y[lo:lo + self.eval_chunk])
                tally.calls(1)
                tally.b_ms.append(1e3 * seconds)
                losses.append(loss * len(chunk_preds))
                preds.append(chunk_preds)
            passes.append((sum(losses) / len(test_y), np.concatenate(preds)))
        test_loss, preds = passes[0]
        accuracy = float(np.mean(preds == test_y))
        report = kit.metrics.metric_report(
            kit.metrics.confusion(test_y, preds, len(kit.data.CLASS_NAMES)))
        tally.calls(3)

        tally.a_ms.extend(1e3 * (b - a) for a, b in zip(marks, marks[1:]))
        tally.a_items += len(result.history) * len(train_y)
        tally.b_items += len(test_y) * self.eval_passes

        tally.check(len(result.history) == self.epochs,
                    f"fold {fold}: {len(result.history)} epochs, expected {self.epochs}")
        losses = [v for r in result.history for v in (r.train_loss, r.val_loss)]
        tally.check(bool(np.all(np.isfinite(losses + [test_loss]))),
                    f"fold {fold}: non-finite loss")
        tally.check(accuracy >= self.accuracy_floor,
                    f"fold {fold}: test accuracy {accuracy:.4f} < {self.accuracy_floor}")
        tally.check(report.accuracy == accuracy,
                    f"fold {fold}: report accuracy {report.accuracy} != {accuracy}")
        tally.check(all(loss == test_loss and np.array_equal(p, preds)
                        for loss, p in passes[1:]),
                    f"fold {fold}: evaluate gave other results on a repeat pass")


def _load_reference(path: Path):
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = reference      # dataclasses look their module up
    spec.loader.exec_module(reference)
    return reference


def _plain_params(reference, net):
    return reference.PlainCnnParams(
        kernels=[b.kernels[0] for b in net.blocks],
        conv_biases=[b.biases[0] for b in net.blocks],
        hidden_w=net.hidden.weights, hidden_b=net.hidden.bias,
        out_w=net.output.weights, out_b=net.output.bias)


class FullInfer(Workload):
    """Default full-scale network (256x320, filters 8,8,8), forward only.

    One image per `model_forward` call; Q=1 and Q=3 alternate round-robin
    over a few distinct inputs, rendered by the synthetic generator at full
    size and min-max normalized as the data layer does, so the maps are as
    smooth as real thermal frames. Every call's logits must be finite and
    equal to the first logits that order produced for that input. At the
    end, Q=1 logits must equal the plain-CNN composition in
    tests/reference.py bit for bit, and a small net of each order must give
    the logits of the reference's loop kernels (`conv2d_valid_loops`,
    `maxpool2x2_loops`) summed over the powers, so a wrong conv, pool,
    tanh, dense or power stack fails the run.
    """

    name = "full_infer"
    stream_a = "model_forward, one 256x320 frame, Q=1"
    stream_b = "model_forward, one 256x320 frame, Q=3"
    aliases = {"a_ms_p50": "infer_q1_ms_p50", "a_ms_p90": "infer_q1_ms_p90",
               "b_ms_p50": "infer_q3_ms_p50", "b_ms_p90": "infer_q3_ms_p90",
               "a_items_per_s": "infer_q1_images_per_s",
               "b_items_per_s": "infer_q3_images_per_s"}
    min_steps = 100           # p90 then has >= 10 samples beyond it
    seed_medians = {"setup_s": 0.19, "a_ms": 48.0, "b_ms": 82.0}
    orders = (1, 3)
    n_inputs = 4
    n_reference = 2
    # Small enough for the reference's pure-Python loops; same kernel sizes.
    oracle_config = dict(input_shape=(1, 24, 28), block_filters=(3, 3, 3),
                         kernel_sizes=(5, 3, 2), dense_units=8, classes=3)

    def trace_steps(self, seconds: int) -> int:
        return max(10, 5 * seconds)

    def setup(self, seed: int, workdir: Path):
        kit = self.kit
        _, height, width = kit.model.ModelConfig().input_shape
        frames = kit.synth.SynthConfig(per_class=self.n_inputs, height=height,
                                       width=width, seed=seed)
        names = kit.data.CLASS_NAMES
        inputs = [kit.data.normalize_minmax(
                      kit.synth.render_image(names[i % len(names)], frames, i))[None]
                  for i in range(self.n_inputs)]
        nets = {q: kit.model.build_model(kit.model.ModelConfig(q_order=q),
                                         cli.derive_seed(seed, cli.STREAM_INIT, q, 0))
                for q in self.orders}
        for net in nets.values():       # settle one-time costs before timing
            kit.model.model_forward(net, inputs[0])
        return {"seed": seed, "inputs": inputs, "nets": nets, "next": 0,
                "seen": {q: [None] * self.n_inputs for q in self.orders}}

    def step(self, st, tally: Tally) -> None:
        i = st["next"] % self.n_inputs
        st["next"] += 1
        x = st["inputs"][i]
        for q, times in zip(self.orders, (tally.a_ms, tally.b_ms)):
            self.meet()
            (logits, _), seconds = _timed(self.kit.model.model_forward, st["nets"][q], x)
            tally.calls(1)
            times.append(1e3 * seconds)
            seen = st["seen"][q]
            if seen[i] is None:
                seen[i] = logits
                tally.check(bool(np.all(np.isfinite(logits))),
                            f"Q={q} input {i}: non-finite logits")
            else:
                tally.check(np.array_equal(logits, seen[i]),
                            f"Q={q} input {i}: logits changed on a repeat call")
        tally.a_items += 1
        tally.b_items += 1

    def finish(self, st, tally: Tally) -> None:
        kit, reference_path = self.kit, self.root / "tests" / "reference.py"
        if not reference_path.is_file():
            tally.fail(f"reference oracle {reference_path.name} is missing")
            return
        reference = _load_reference(reference_path)
        net = st["nets"][1]
        params = _plain_params(reference, net)
        for i, x in enumerate(st["inputs"][:self.n_reference]):
            logits, _ = kit.model.model_forward(net, x)
            expected, _ = reference.plain_cnn_forward(params, x)
            tally.check(np.array_equal(logits, expected),
                        f"Q=1 input {i}: logits differ from the plain-CNN reference")
        _, h, w = self.oracle_config["input_shape"]
        for q in self.orders:
            small = kit.model.build_model(
                kit.model.ModelConfig(q_order=q, **self.oracle_config),
                cli.derive_seed(st["seed"], cli.STREAM_INIT, q, 1))
            rng = np.random.default_rng(cli.derive_seed(st["seed"], cli.STREAM_INIT, q, 2))
            for bias in [b.biases for b in small.blocks] + [small.hidden.bias,
                                                            small.output.bias]:
                bias[...] = rng.uniform(-0.2, 0.2, bias.shape)   # init leaves them 0
            for i, x in enumerate(st["inputs"][:self.n_reference]):
                top, left = 40 + 60 * i, 50 + 70 * i     # a window of the frame
                crop = np.ascontiguousarray(x[:, top:top + h, left:left + w])
                logits, _ = kit.model.model_forward(small, crop)
                expected = _oracle_forward(reference, small, crop)
                tally.check(np.allclose(logits, expected, rtol=1e-9, atol=1e-12),
                            f"Q={q} small net, input {i}: logits differ from the "
                            "reference loop kernels")


def _oracle_forward(reference, net, x):
    """Logits of a generative net from the reference's loop kernels alone.

    Each block is sum_q conv(x**q, kernels[q]) + biases[q], then tanh and a
    2x2 max pool; the dense head is written out here with numpy.
    """
    cur = x
    for layer in net.blocks:
        pre = sum(reference.conv2d_valid_loops(cur ** (q + 1), layer.kernels[q],
                                               layer.biases[q])
                  for q in range(layer.q_order))
        cur, _ = reference.maxpool2x2_loops(np.tanh(pre))
    hidden = np.tanh(net.hidden.weights @ cur.reshape(-1) + net.hidden.bias)
    return net.output.weights @ hidden + net.output.bias


class CorpusIO(Workload):
    """Write a full-size 256x320 corpus as 16-bit PGMs, then load it back.

    The images are rendered once in setup. Each step writes every file anew
    (one `write_pgm16` call per image), then reads the corpus with
    `load_dataset(half_resolution=True)`. Stream A is the load, stream B the
    whole write-and-load round trip. Writes are not a stream of their own:
    on a shared 2-core VM with ext4 (mounted with discard) their run-to-run
    spread reached 0.2-0.45 against 0.02-0.07 for loads, so they are timed
    inside the round trip and reported as `write_images_per_s` in the
    human-readable lines only. The page cache cannot be dropped without
    privileges, so reads are warm-cache. Like every timing here the streams
    are CPU time, so time spent blocked on I/O is not in them; a traced run
    prints the wall time of each round trip beside them, not gated.
    """

    name = "corpus_io"
    stream_a = "data.load_dataset(half_resolution=True) of 48 images (warm cache)"
    stream_b = "round trip: data.write_pgm16 on each of 48 256x320 images, then the load"
    aliases = {"a_items_per_s": "load_images_per_s",
               "b_items_per_s": "roundtrip_images_per_s",
               "a_ms_p50": "load_corpus_ms_p50", "a_ms_p90": "load_corpus_ms_p90",
               "b_ms_p50": "roundtrip_corpus_ms_p50", "b_ms_p90": "roundtrip_corpus_ms_p90"}
    min_steps = 100           # p90 then has >= 10 samples beyond it
    seed_medians = {"setup_s": 0.32, "a_ms": 77.0, "b_ms": 91.0}
    n_images = 48

    def trace_steps(self, seconds: int) -> int:
        return max(2, 4 * seconds)

    def setup(self, seed: int, workdir: Path):
        kit = self.kit
        config = kit.synth.SynthConfig(per_class=self.n_images // len(kit.data.CLASS_NAMES),
                                       height=256, width=320, seed=seed)
        images, records = [], []
        for i in range(self.n_images):
            class_name = kit.data.CLASS_NAMES[i % len(kit.data.CLASS_NAMES)]
            images.append(kit.synth.render_image(class_name, config, i))
            records.append(kit.data.SampleRecord(f"{class_name}/{i:05d}.pgm", class_name))
        root = workdir / "corpus"
        for class_name in kit.data.CLASS_NAMES:
            (root / class_name).mkdir(parents=True, exist_ok=True)
        manifest = root / "manifest.tsv"
        kit.data.write_manifest(records, manifest)
        labels = np.array([r.label for r in records])
        paths = [root / r.path for r in records]
        return {"images": images, "paths": paths, "manifest": manifest,
                "labels": labels, "next": 0}

    def _round_trip(self, image, path: Path) -> bool:
        # Checked against the format itself, not the package's parser.
        raw = path.read_bytes()
        payload = image.pixels.astype(">u2").tobytes()
        header = raw[:len(raw) - len(payload)].split()
        return (raw.endswith(payload) and header == [
            b"P5", str(image.width).encode(), str(image.height).encode(), b"65535"])

    def step(self, st, tally: Tally) -> None:
        # Writes create new files, as a corpus export does. Overwriting in
        # place would make ext4 flush each truncated file on close and
        # discard its blocks, timing the disk instead of the writer.
        for path in st["paths"]:
            path.unlink(missing_ok=True)
        start, start_wall = clock(), perf_counter()
        for image, path in zip(st["images"], st["paths"]):
            self.kit.data.write_pgm16(image, path)
        written = clock()
        dataset = self.kit.data.load_dataset(st["manifest"], half_resolution=True)
        end, end_wall = clock(), perf_counter()
        tally.b_wall_ms.append(1e3 * (end_wall - start_wall))
        tally.calls(len(st["images"]) + 1)
        tally.a_ms.append(1e3 * (end - written))
        tally.a_items += len(dataset)
        tally.b_ms.append(1e3 * (end - start))
        tally.b_items += len(st["images"])

        # One image's file per step, rotating through the corpus.
        i = st["next"] % self.n_images
        st["next"] += 1
        tally.check(self._round_trip(st["images"][i], st["paths"][i]),
                    f"image {i}: written PGM does not round-trip byte-exact")
        tally.check(np.array_equal(dataset.labels, st["labels"]),
                    "loaded labels differ from the manifest")
        lo = min(float(np.min(x)) for x in dataset.images)
        hi = max(float(np.max(x)) for x in dataset.images)
        tally.check(len(dataset) == self.n_images and 0.0 <= lo and hi < 1.0,
                    f"normalized pixels span [{lo}, {hi}], expected within [0, 1)")

    def finish(self, st, tally: Tally) -> None:
        for i, (image, path) in enumerate(zip(st["images"], st["paths"])):
            tally.check(self._round_trip(image, path),
                        f"image {i}: written PGM does not round-trip byte-exact")


def make(name: str, kit: SimpleNamespace, root: Path) -> Workload:
    cls = {"desk_train": DeskTrain, "full_infer": FullInfer, "corpus_io": CorpusIO}[name]
    return cls(kit, root)


def clear(path: Path) -> None:
    """Remove a work directory, and its parent once no other run uses it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass
