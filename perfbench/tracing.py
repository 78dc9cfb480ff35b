"""Per-layer spans around the package's public functions, from outside it.

`Tracer.install()` replaces each listed function with a timing wrapper in
its defining module *and* in every package module that imported it by
name (``training.model_forward``, ``cli.load_dataset``, ...), so internal
calls are seen no matter how the callee is reached. `uninstall()` puts the
originals back. A listed name that no longer exists is reported as absent
instead of failing, so refactors inside the package do not break the trace.

Each wrapped call is a span. Spans nest on one stack (the package is
single-threaded); a span's self time is its duration minus the time its
child spans cover. Only per-name aggregates are kept: call count and self
seconds. Alongside them the tracer derives a few work counts from
the argument and result shapes (GFLOP, bytes of im2col patch matrices,
pool index maps, power stacks and resident dataset images).
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "selfonn_kit"

# (module, function) pairs wrapped in a traced run, grouped by layer.
TRACED = (
    ("ops", "conv2d_valid"),
    ("ops", "maxpool2x2"),
    ("ops", "tanh_forward"),
    ("ops", "dense_forward"),
    ("ops", "conv2d_backward_weights"),
    ("ops", "conv2d_backward_input"),
    ("ops", "maxpool2x2_backward"),
    ("ops", "tanh_backward"),
    ("ops", "dense_backward"),
    ("ops", "cross_entropy_with_softmax"),
    ("model", "power_stack"),
    ("model", "selfonn_forward"),
    ("model", "selfonn_backward"),
    ("model", "model_forward"),
    ("model", "model_backward"),
    ("training", "fit"),
    ("training", "evaluate"),
    ("training", "adam_step"),
    ("data", "load_dataset"),
    ("data", "read_manifest"),
    ("data", "load_pgm16"),
    ("data", "parse_pgm16"),
    ("data", "resize_half"),
    ("data", "normalize_minmax"),
    ("data", "pgm16_bytes"),
    ("data", "write_pgm16"),
    ("synth", "render_image"),
    ("metrics", "confusion"),
    ("metrics", "metric_report"),
)

# Counts computed from array shapes, not measured: (name, unit, divisor).
# They accumulate as exact integers (FLOPs, bytes) and are scaled on output.
COMPUTED = (
    ("ops.conv2d.gflop", "GFLOP", 1e9),
    ("ops.im2col.bytes", "bytes", 1),
    ("ops.maxpool2x2.index_bytes", "bytes", 1),
    ("model.power_stack.bytes", "bytes", 1),
    ("data.dataset.bytes", "bytes", 1),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_forward(counts, args, kwargs, out):
    # out [..., Cout, H', W'] from kernels [Cout, Cin, Kh, Kw]
    kernels = _arg(args, kwargs, 1, "kernels")
    patch = kernels[0].size                      # Cin*Kh*Kw
    counts["ops.conv2d.gflop"] += 2 * out.size * patch
    counts["ops.im2col.bytes"] += out.size // kernels.shape[0] * patch * out.itemsize


def _conv_weights(counts, args, kwargs, grad_w):
    grad_out = _arg(args, kwargs, 1, "grad_out")
    patch = grad_w[0].size
    counts["ops.conv2d.gflop"] += 2 * grad_out.size * patch
    counts["ops.im2col.bytes"] += (grad_out.size // grad_w.shape[0] * patch
                                   * grad_w.itemsize)


def _conv_input(counts, args, kwargs, grad_x):
    kernels = _arg(args, kwargs, 0, "kernels")
    grad_out = _arg(args, kwargs, 1, "grad_out")
    counts["ops.conv2d.gflop"] += 2 * grad_out.size * kernels[0].size


def _pool(counts, args, kwargs, result):
    # Only a pool that returns an index map alongside the pooled values
    # materializes one.
    if isinstance(result, tuple) and len(result) > 1:
        counts["ops.maxpool2x2.index_bytes"] += getattr(result[1], "nbytes", 0)


def _power_stack(counts, args, kwargs, stack):
    counts["model.power_stack.bytes"] += stack.nbytes


def _dataset(counts, args, kwargs, dataset):
    images = dataset.images
    held = getattr(images, "nbytes", None)
    if held is None:
        held = sum(im.nbytes for im in images)
    counts["data.dataset.bytes"] = max(counts["data.dataset.bytes"], held)


SHAPE_COUNTERS = {
    "ops.conv2d_valid": _conv_forward,
    "ops.conv2d_backward_weights": _conv_weights,
    "ops.conv2d_backward_input": _conv_input,
    "ops.maxpool2x2": _pool,
    "model.power_stack": _power_stack,
    "data.load_dataset": _dataset,
}


class Tracer:
    """Wraps TRACED functions; aggregates calls and self seconds per name."""

    def __init__(self):
        self.calls = {f"{m}.{f}": 0 for m, f in TRACED}
        self.self_s = {name: 0.0 for name in self.calls}
        self.counts = {name: 0 for name, _, _ in COMPUTED}
        self.absent: list[str] = []
        self.uncomputed = 0           # shape counters that could not read a shape
        self._stack: list[float] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = SHAPE_COUNTERS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.uncomputed += 1
            return result

        return traced

    def install(self) -> None:
        found = []
        for module_name, func_name in TRACED:
            name = f"{module_name}.{func_name}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                home = None
            original = getattr(home, func_name, None)
            if callable(original):
                found.append((name, original))
            else:
                self.absent.append(name)
        modules = [mod for key, mod in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, original in found:
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.calls:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name, unit, divisor in COMPUTED:
            out[name] = (self.counts[name] / divisor, unit)
        out["trace.absent_functions"] = (len(self.absent), "count")
        return out
