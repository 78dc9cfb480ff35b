"""Release acceptance suite.

One test per numbered release criterion. Each prints a single PASS/FAIL
verdict line (bypassing capture so it lands in the terminal log) and then
asserts, so a red test and a FAIL line always travel together. Criterion 6
trains fifty small models and dominates the suite's runtime; everything
else finishes in seconds.
"""

import time

import numpy as np
import pytest

import reference as ref
from selfonn_kit import cli, ops
from selfonn_kit import data as d
from selfonn_kit import metrics as met
from selfonn_kit import model as sm
from selfonn_kit import synth as sy
from selfonn_kit.training import EarlyStopper, LrSchedule

FULL_SCALE_COUNTS = {1: 293027, 2: 294083, 3: 295139, 4: 296195, 5: 297251}

REFERENCE_FOLD_COUNTS = {
    "healthy": [449, 449, 449, 449, 448],
    "misalignment": [360, 360, 360, 359, 360],
    "broken_rotor": [322, 322, 322, 322, 322],
}

REFERENCE_CONFUSION = np.array([
    [1936, 203, 105],
    [20, 1779, 0],
    [0, 0, 1610],
], dtype=np.int64)


def verdict(capsys, number, description, passed, detail=""):
    line = f"{'PASS' if passed else 'FAIL'} criterion {number}: {description}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert passed, line


def test_criterion_01_parameter_counts(capsys):
    start = time.perf_counter()
    code = cli.main(["params"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    lines = out.strip().splitlines()
    table = {int(q): int(n) for q, n in (l.split() for l in lines[1:])}
    ok = (code == cli.EXIT_OK and lines[0].split() == ["q", "parameters"]
          and table == FULL_SCALE_COUNTS and elapsed < 1.0)
    verdict(capsys, 1,
            "full-scale parameter counts for orders 1..5 match the "
            "published table exactly",
            ok, f"{table}, {elapsed:.2f}s")


def test_criterion_02_fold_counts(capsys, tmp_path):
    totals = {"healthy": 2244, "misalignment": 1799, "broken_rotor": 1610}
    manifest = tmp_path / "manifest.tsv"
    d.write_manifest(
        [d.SampleRecord(f"{name}/{i:05d}.pgm", name)
         for name in d.CLASS_NAMES for i in range(totals[name])], manifest)
    start = time.perf_counter()
    code = cli.main(["split", "--manifest", str(manifest),
                     "--out", str(tmp_path / "plan")])
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    labels = [d.CLASS_NAMES.index(name)
              for name in d.CLASS_NAMES for _ in range(totals[name])]
    plan = d.stratified_ordered_kfold(labels, 5)
    got = {name: [sum(1 for i in fold if labels[i] == ci)
                  for fold in plan.folds]
           for ci, name in enumerate(d.CLASS_NAMES)}
    table = (tmp_path / "plan" / "fold_summary.txt").read_text()
    table_rows = {row.split()[0]: [int(v) for v in row.split()[1:6]]
                  for row in table.strip().splitlines()[1:4]}
    ok = (code == cli.EXIT_OK and got == REFERENCE_FOLD_COUNTS
          and table_rows == REFERENCE_FOLD_COUNTS and elapsed < 1.0)
    verdict(capsys, 2,
            "2244/1799/1610 manifest splits into the reference per-fold "
            "counts exactly",
            ok, f"{got}, {elapsed:.2f}s")


def _plain_params_from(model):
    return ref.PlainCnnParams(
        kernels=[b.kernels[0] for b in model.blocks],
        conv_biases=[b.biases[0] for b in model.blocks],
        hidden_w=model.hidden.weights, hidden_b=model.hidden.bias,
        out_w=model.output.weights, out_b=model.output.bias)


def test_criterion_03_first_order_reduction_bitwise(capsys):
    start = time.perf_counter()
    architectures = [
        sm.ModelConfig(1, (1, 10, 10), (2,), (3,), 4, 3),
        sm.ModelConfig(1, (1, 12, 14), (3, 2), (3, 2), 5, 3),
        sm.ModelConfig(1, (2, 11, 11), (2, 2), (2, 2), 3, 3),
        sm.ModelConfig(1, (1, 16, 16), (2, 2, 2), (3, 2, 2), 4, 3),
        sm.ModelConfig(1, (1, 9, 13), (4,), (4,), 6, 3),
    ]
    rng = np.random.default_rng(2024)
    cases = failures = 0

    for round_idx in range(20):
        for arch_idx, config in enumerate(architectures):
            model = sm.build_model(config, rng_seed=1000 * round_idx + arch_idx)
            plain = _plain_params_from(model)
            x = rng.standard_normal(config.input_shape)
            y = int(rng.integers(config.classes))

            logits, cache = sm.model_forward(model, x, train_mode=True)
            ref_logits, ref_cache = ref.plain_cnn_forward(plain, x)
            same = np.array_equal(logits, ref_logits)

            _, grad_logits = ops.cross_entropy_with_softmax(logits, y)
            grads, grad_input = sm.model_backward(model, cache, grad_logits)
            gview = sm.Model.from_flat(config, grads)
            ref_grads = ref.plain_cnn_backward(plain, ref_cache, grad_logits)
            for i, block in enumerate(gview.blocks):
                same &= np.array_equal(block.kernels[0], ref_grads["kernels"][i])
                same &= np.array_equal(block.biases[0],
                                       ref_grads["conv_biases"][i])
            same &= np.array_equal(gview.hidden.weights, ref_grads["hidden_w"])
            same &= np.array_equal(gview.hidden.bias, ref_grads["hidden_b"])
            same &= np.array_equal(gview.output.weights, ref_grads["out_w"])
            same &= np.array_equal(gview.output.bias, ref_grads["out_b"])
            same &= np.array_equal(grad_input, ref_grads["input"])

            cases += 1
            failures += not same

    # layer-level reduction on top of the full-model cases
    for i in range(25):
        case_rng = np.random.default_rng(31 + i)
        kernels = case_rng.standard_normal((1, 3, 2, 3, 3))
        biases = case_rng.standard_normal((1, 3))
        x = case_rng.standard_normal((2, 8, 9))
        layer_out = sm.selfonn_forward(sm.SelfOnnLayerParams(kernels, biases), x)
        conv_out = ops.conv2d_valid(x, kernels[0], biases[0])
        cases += 1
        failures += not np.array_equal(layer_out, conv_out)

    elapsed = time.perf_counter() - start
    ok = failures == 0 and cases >= 100 and elapsed < 60.0
    verdict(capsys, 3,
            "order-1 forward and gradients match an independent plain "
            "convolutional network bitwise",
            ok, f"{cases} cases, {failures} mismatches, {elapsed:.1f}s")


@pytest.mark.parametrize("q_order", [2, 3])
def test_criterion_04_finite_difference_gradients(capsys, q_order):
    start = time.perf_counter()
    config = sm.ModelConfig(q_order=q_order, input_shape=(1, 16, 16),
                            block_filters=(2, 2, 2), kernel_sizes=(3, 2, 2),
                            dense_units=4, classes=3)
    model = sm.build_model(config, rng_seed=5)
    rng = np.random.default_rng(17)
    x = 0.6 * rng.standard_normal(config.input_shape)
    y = 1

    logits, cache = sm.model_forward(model, x, train_mode=True)
    _, grad_logits = ops.cross_entropy_with_softmax(logits, y)
    grads, grad_input = sm.model_backward(model, cache, grad_logits)

    def loss():
        out, _ = sm.model_forward(model, x)
        return ops.cross_entropy_with_softmax(out, y)[0]

    worst = 0.0
    for idx in range(model.n_params):
        numeric = ref.central_difference(loss, model.flat, idx)
        worst = max(worst, ref.relative_error(grads[idx], numeric))
    flat_x = x.reshape(-1)
    flat_gx = grad_input.reshape(-1)
    for idx in range(flat_x.size):
        numeric = ref.central_difference(loss, flat_x, idx)
        worst = max(worst, ref.relative_error(flat_gx[idx], numeric))

    elapsed = time.perf_counter() - start
    checked = model.n_params + flat_x.size
    ok = worst < 1e-4 and elapsed < 300.0
    verdict(capsys, 4,
            f"all {checked} parameter and input gradients at order "
            f"{q_order} match central differences within 1e-4",
            ok, f"max rel err {worst:.3g}, {elapsed:.1f}s")


def test_criterion_05_metrics_oracle(capsys):
    start = time.perf_counter()
    report = met.metric_report(met.ConfusionMatrix(REFERENCE_CONFUSION))
    exact = report.accuracy == 5325 / 5653
    rounded = abs(report.accuracy - 0.942) < 5e-4

    rng = np.random.default_rng(99)
    identity_holds = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        counts = rng.integers(0, 400, size=(n, n)).astype(np.int64)
        if counts.sum() == 0:
            counts[0, 0] = 1
        r = met.metric_report(met.ConfusionMatrix(counts))
        identity_holds &= r.weighted_recall == r.accuracy

    elapsed = time.perf_counter() - start
    ok = exact and rounded and identity_holds and elapsed < 10.0
    verdict(capsys, 5,
            "reference confusion matrix scores 5325/5653 and weighted "
            "recall equals accuracy on 1000 random matrices",
            ok, f"accuracy {report.accuracy:.10f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_06_desk_scale_learning(capsys, tmp_path):
    start = time.perf_counter()
    manifest = sy.synth_generate(
        tmp_path / "corpus",
        sy.SynthConfig(per_class=300, height=128, width=160, seed=11))
    dataset = d.load_dataset(manifest, half_resolution=True)
    assert dataset.images[0].shape == (1, 64, 80)
    splits = d.make_cv_splits(d.stratified_ordered_kfold(dataset.labels, 5))

    config = sm.ModelConfig(q_order=1, input_shape=(1, 64, 80),
                            block_filters=(4, 4, 4),
                            kernel_sizes=(5, 3, 2),
                            dense_units=16, classes=3)
    seeds = [0, 1, 2, 3, 4]
    fold_accs = cli.paired_cv_study(config, dataset, splits, seeds, [1, 2],
                                    epochs=3, batch=16, lr=1e-3)
    acc_q1 = {s: float(np.mean(fold_accs[(s, 1)])) for s in seeds}
    acc_q2 = {s: float(np.mean(fold_accs[(s, 2)])) for s in seeds}
    mean_q1 = float(np.mean(list(acc_q1.values())))
    mean_q2 = float(np.mean(list(acc_q2.values())))
    wins = sum(acc_q2[s] >= acc_q1[s] for s in seeds)

    elapsed = time.perf_counter() - start
    ok = mean_q1 >= 0.95 and mean_q2 >= 0.95 and wins >= 3 and elapsed < 1800.0
    verdict(capsys, 6,
            "five-fold cross-validation on the synthetic corpus reaches "
            "mean accuracy >= 0.95 and order 2 >= order 1 in >= 3 of 5 "
            "paired seeds",
            ok, f"q1 {mean_q1:.4f}, q2 {mean_q2:.4f}, wins {wins}/5, "
                f"{elapsed:.0f}s")


def test_criterion_07_training_protocol_traces(capsys):
    start = time.perf_counter()
    ok = True

    # four equal losses: three stalls, then one halving
    sched = LrSchedule(learning_rate=1e-3)
    flags = [sched.update(1.0) for _ in range(4)]
    ok &= flags == [False, False, False, True]
    ok &= sched.learning_rate == 5e-4

    # an improvement resets the stall counter: the three stalls that
    # trigger the cut are counted from the 0.9, not from the start
    sched = LrSchedule(learning_rate=1e-3)
    trace = [sched.update(v) for v in (1.0, 0.9, 0.95, 0.95, 0.95, 0.95)]
    ok &= trace == [False, False, False, False, True, False]
    ok &= sched.learning_rate == 5e-4

    # repeated plateaus walk the rate down to the exact floor and park there
    sched = LrSchedule(learning_rate=1e-3)
    reductions = []
    for _ in range(40):
        if sched.update(1.0):
            reductions.append(sched.learning_rate)
    ok &= reductions == [5e-4, 2.5e-4, 1.25e-4, 6.25e-5, 5e-5]
    ok &= sched.learning_rate == 5e-5

    # a reduction from just above the floor clamps to it exactly
    sched = LrSchedule(learning_rate=8e-5)
    for _ in range(4):
        sched.update(1.0)
    ok &= sched.learning_rate == 5e-5

    # early stop after exactly five non-improving epochs, with best restore
    config = sm.ModelConfig(1, (1, 8, 8), (1,), (3,), 2, 3)
    model = sm.build_model(config, rng_seed=0)
    stopper = EarlyStopper()
    stops = [stopper.update(0.5, model, 0)]
    snapshot = model.flatten()
    model.flat += 1.0  # later weights must not leak into the snapshot
    stops += [stopper.update(0.5, model, e) for e in range(1, 6)]
    ok &= stops == [False, False, False, False, False, True]
    ok &= stopper.best_epoch == 0
    stopper.restore(model)
    ok &= np.array_equal(model.flat, snapshot)

    # improvements postpone the stop
    stopper = EarlyStopper()
    losses = [0.5, 0.4, 0.4, 0.4, 0.4, 0.3, 0.3, 0.3, 0.3, 0.3]
    stops = [stopper.update(v, model, e) for e, v in enumerate(losses)]
    ok &= stops == [False] * 10
    ok &= stopper.update(0.3, model, 10) is True

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    verdict(capsys, 7,
            "plateau schedule and early stopping follow the hand-traced "
            "sequences with an exact 5e-5 floor",
            ok, f"{elapsed:.2f}s")


def test_criterion_08_training_determinism(capsys, tmp_path):
    start = time.perf_counter()
    code = cli.main(["synth", "--out", str(tmp_path / "corpus"),
                     "--per-class", "10", "--height", "32", "--width", "40",
                     "--seed", "5"])
    assert code == cli.EXIT_OK
    manifest = tmp_path / "corpus" / "manifest.tsv"

    def train(out):
        return cli.main(["train", "--manifest", str(manifest), "--out",
                         str(out), "--half", "--filters", "2,2",
                         "--kernels", "3,2", "--dense", "4", "--epochs", "3",
                         "--batch", "4", "--seed", "7"])

    codes = [train(tmp_path / "a"), train(tmp_path / "b")]
    capsys.readouterr()
    same = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("q1_fold0.sonn", "q1_fold0_epochs.tsv",
                     "q1_fold0_report.txt"))
    elapsed = time.perf_counter() - start
    ok = codes == [cli.EXIT_OK, cli.EXIT_OK] and same and elapsed < 600.0
    verdict(capsys, 8,
            "two identically seeded training runs write byte-identical "
            "weights and epoch logs",
            ok, f"{elapsed:.1f}s")


def test_criterion_09_preprocessing_properties(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(12)
    ok = True

    for _ in range(100):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        pixels = rng.integers(0, 65536, size=(h, w)).astype(np.uint16)
        image = d.ThermalImage(pixels)

        out = d.normalize_minmax(image)
        ok &= bool(np.all(out >= 0.0) and np.all(out < 1.0))
        if pixels.max() > pixels.min():
            ok &= out.min() == 0.0

        raw = d.pgm16_bytes(image)
        ok &= d.pgm16_bytes(d.parse_pgm16(raw)) == raw

    ok &= bool(np.all(d.normalize_minmax(
        d.ThermalImage(np.full((5, 7), 300, dtype=np.uint16))) == 0.0))

    for _ in range(100):
        h2, w2 = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        pixels = rng.integers(0, 65536, size=(2 * h2, 2 * w2)).astype(np.uint16)
        half = d.resize_half(d.ThermalImage(pixels))
        ok &= abs(float(half.pixels.mean()) - float(pixels.mean())) <= 0.5

    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    verdict(capsys, 9,
            "normalization stays in [0,1) with min at 0, constants map to "
            "zero, PGM round-trips byte-exact, halving preserves the mean "
            "within 0.5",
            ok, f"{elapsed:.1f}s")


def test_criterion_10_benchmark_ordering(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    images = [rng.random((1, 256, 320)) for _ in range(2)]
    models = [sm.build_model(sm.ModelConfig(q_order=q), rng_seed=q)
              for q in range(1, 6)]
    # one untimed pass per order settles one-time process costs (BLAS
    # threads, allocator growth); then 24 rounds time one pass of every
    # order in turn, so slow system phases hit every order equally instead
    # of inflating whichever was timed during them
    per_image = met.bench_inference(models, images, warmup=1, repeats=24)
    means = [float(series.mean()) for series in per_image]
    non_decreasing = all(means[i] <= means[i + 1] for i in range(4))
    elapsed = time.perf_counter() - start
    ok = non_decreasing and elapsed < 300.0
    verdict(capsys, 10,
            "mean inference time on the full-scale input never decreases "
            "from order 1 to 5",
            ok, "ms/image " + ", ".join(f"{1e3 * v:.2f}" for v in means)
                + f", {elapsed:.1f}s")
