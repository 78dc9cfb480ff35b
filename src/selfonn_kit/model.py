"""Generative-neuron layers and the three-block thermal classifier.

A generative layer carries Q kernel banks and per-order biases; its output
is ``sum_q conv2d_valid(input**q, kernels[q], biases[q])``, so order Q=1
collapses to a plain convolution bit-for-bit. The classifier is a fixed
stack of such blocks (each followed by 2x2 max pooling, then tanh on the
pooled map), a hidden dense layer with tanh, and a linear output layer.

Forward and backward passes take one image ``[C, H, W]`` or a batch
``[N, C, H, W]`` through the same code. A batch runs each layer once for all
samples, with per-sample GEMMs, and adds the per-sample parameter gradients
to the gradient buffer one sample at a time, so the result is bitwise the
running total of one-image passes. The model keeps a training pass's maps
and writes the next training pass of the same input shape into them; an
inference pass drops them and frees its own maps once read. So a training
cache stays valid until its backward pass or the model's next pass.

All parameters live in one flat float64 buffer; the per-layer arrays are
reshaped views into it, which keeps optimizer updates, snapshots and the
weight-file format trivially consistent.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ops
from .ops import DimensionError, Tensor


class ConfigError(ValueError):
    """Model configuration cannot produce a valid layer chain."""


class WeightFileError(ValueError):
    """A weight file is malformed, truncated, extended or does not fit."""


class ConsistencyError(RuntimeError):
    """A forward cache does not match the model, or a backward pass used it."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs. The defaults are the full-scale 256x320 network."""

    q_order: int = 1
    input_shape: tuple[int, int, int] = (1, 256, 320)   # channels, height, width
    block_filters: tuple[int, ...] = (8, 8, 8)
    kernel_sizes: tuple[int, ...] = (5, 3, 2)
    dense_units: int = 32
    classes: int = 3

    def __post_init__(self):
        if self.q_order < 1:
            raise ConfigError(f"q_order must be >= 1, got {self.q_order}")
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ConfigError(f"bad input shape {self.input_shape}")
        if len(self.block_filters) != len(self.kernel_sizes):
            raise ConfigError("block_filters and kernel_sizes must align")
        if not self.block_filters:
            raise ConfigError("need at least one block")
        if min(self.block_filters) < 1 or min(self.kernel_sizes) < 1:
            raise ConfigError("filter counts and kernel sizes must be >= 1")
        if self.dense_units < 1 or self.classes < 2:
            raise ConfigError("need dense_units >= 1 and classes >= 2")
        sizes = (self.q_order, *self.input_shape, len(self.block_filters),
                 *self.block_filters, *self.kernel_sizes, self.dense_units, self.classes)
        if max(sizes) > 0xFFFF:  # the 16-bit fields of a .sonn header
            raise ConfigError(f"size {max(sizes)} above 65535 cannot be stored")
        feature_map_chain(self)  # fail fast if the spatial chain dies


def feature_map_chain(config: ModelConfig) -> list[tuple[int, int, int]]:
    """[C,H,W] after each conv+pool block, ending at the flatten input."""
    c, h, w = config.input_shape
    chain = []
    for filters, k in zip(config.block_filters, config.kernel_sizes):
        if h < k or w < k:
            raise ConfigError(f"{h}x{w} map too small for a {k}x{k} kernel")
        h, w = h - k + 1, w - k + 1
        if h < 2 or w < 2:
            raise ConfigError(f"{h}x{w} map too small to 2x2-pool")
        h, w = h // 2, w // 2
        c = filters
        chain.append((c, h, w))
    return chain


def _shapes(config: ModelConfig) -> list[tuple[int, ...]]:
    """Each parameter array's shape in flat (= weight-file) order: per block
    the kernels (Q, Cout, Cin, K, K) and biases (Q, Cout), then the hidden
    weights and bias, then the output weights and bias."""
    q, cin = config.q_order, config.input_shape[0]
    shapes: list[tuple[int, ...]] = []
    for filters, k in zip(config.block_filters, config.kernel_sizes):
        shapes += [(q, filters, cin, k, k), (q, filters)]
        cin = filters
    c, h, w = feature_map_chain(config)[-1]
    shapes += [(config.dense_units, c * h * w), (config.dense_units,),
               (config.classes, config.dense_units), (config.classes,)]
    return shapes


def param_count(config: ModelConfig) -> int:
    """Trainable-parameter count (kernels + per-q biases + head)."""
    return sum(math.prod(shape) for shape in _shapes(config))


class SelfOnnLayerParams(NamedTuple):
    """One generative layer: kernels[q,o,c,r,t] and per-order biases[q,o]."""

    kernels: Tensor  # (Q, Cout, Cin, Kh, Kw)
    biases: Tensor   # (Q, Cout)

    @property
    def q_order(self) -> int:
        return self.kernels.shape[0]


class DenseParams(NamedTuple):
    weights: Tensor  # (U, D)
    bias: Tensor     # (U,)


@dataclass
class Model:
    """Layer stack plus the flat parameter buffer the layer arrays view into.

    `kept_maps` holds the last training pass's input shape, block maps and
    input-adjoint paddings, and the one cache a backward pass may still use;
    only model_forward and model_backward touch it.
    """

    config: ModelConfig
    flat: Tensor
    blocks: list[SelfOnnLayerParams]
    hidden: DenseParams
    output: DenseParams
    kept_maps: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_flat(cls, config: ModelConfig, flat: Tensor) -> "Model":
        """Wrap a flat vector; layer params become views into it."""
        shapes = _shapes(config)
        sizes = [math.prod(shape) for shape in shapes]
        if flat.shape != (sum(sizes),):
            raise DimensionError(
                f"flat vector has shape {tuple(flat.shape)}, config needs ({sum(sizes)},)")
        views = [part.reshape(shape) for part, shape
                 in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
        blocks = [SelfOnnLayerParams(*views[i:i + 2])
                  for i in range(0, len(views) - 4, 2)]
        return cls(config, flat, blocks, DenseParams(*views[-4:-2]),
                   DenseParams(*views[-2:]))

    def flatten(self) -> Tensor:
        """Copy of the flat parameter vector."""
        return self.flat.copy()

    def load_flat(self, vec: Tensor) -> None:
        """Copy a flat vector into the buffer; all layer views update."""
        np.copyto(self.flat, vec)

    @property
    def n_params(self) -> int:
        return self.flat.size


def build_model(config: ModelConfig, rng_seed: int) -> Model:
    """Deterministically initialized model.

    Kernel banks get Glorot-uniform draws with fan_in = Cin*Kh*Kw*Q (the
    effective fan-in once all Q power terms contribute) and
    fan_out = Cout*Kh*Kw; all biases start at zero. Same seed, same bits.
    """
    flat = np.zeros(param_count(config))
    model = Model.from_flat(config, flat)
    rng = np.random.default_rng(rng_seed)
    for layer in model.blocks:
        q, cout, cin, kh, kw = layer.kernels.shape
        limit = np.sqrt(6.0 / (cin * kh * kw * q + cout * kh * kw))
        layer.kernels[...] = rng.uniform(-limit, limit, size=layer.kernels.shape)
    for dense in (model.hidden, model.output):
        u, d = dense.weights.shape
        limit = np.sqrt(6.0 / (u + d))
        dense.weights[...] = rng.uniform(-limit, limit, size=(u, d))
    return model


def power_stack(x: Tensor, q_order: int, out: Tensor | None = None) -> Tensor:
    """Channel-stacked powers [x, x**2, ..., x**Q] of shape (..., Q*Cin, H, W).

    Built by repeated multiplication and computed once per forward pass, so
    forward and backward see numerically identical power maps. Channel
    block q (zero-based) holds x**(q+1). Written into `out` when given.
    """
    cin = x.shape[-3]
    stack = np.empty((*x.shape[:-3], q_order * cin, *x.shape[-2:])) if out is None else out
    stack[..., :cin, :, :] = x
    for q in range(1, q_order):
        np.multiply(stack[..., (q - 1) * cin:q * cin, :, :], x,
                    out=stack[..., q * cin:(q + 1) * cin, :, :])
    return stack


def add_in_order(total, per_sample: Tensor):
    """`total` plus each sample's term of `per_sample`, added in sample order.

    An array `total` is updated in place; a scalar one is returned anew.
    This is exactly a running total over one-sample passes; a numpy
    reduction over the sample axis may pair the terms otherwise (it does
    for losses, and for a gradient `total` with a single element).
    """
    for term in per_sample.reshape(-1, *np.shape(total)):
        total += term
    return total


def _merged_kernels(layer: SelfOnnLayerParams) -> Tensor:
    """(Cout, Q*Cin, Kh, Kw) view of the bank matching power_stack channels."""
    q, cout, cin, kh, kw = layer.kernels.shape
    return layer.kernels.transpose(1, 0, 2, 3, 4).reshape(cout, q * cin, kh, kw)


def selfonn_forward(layer: SelfOnnLayerParams, stack: Tensor,
                    out: Tensor | None = None) -> Tensor:
    """Generative-layer forward: sum over q of conv(x**q, kernels[q]) + biases.

    `stack` is the input's power_stack. All Q terms run as one convolution
    over the channel-stacked powers; at Q=1 the stack equals x and this is
    exactly conv2d_valid(x, kernels[0], biases[0]), bit for bit.
    """
    return ops.conv2d_valid(stack, _merged_kernels(layer),
                            layer.biases.sum(axis=0), out=out)


def selfonn_backward(layer: SelfOnnLayerParams, stack: Tensor, grad_out: Tensor,
                     input_grad: bool = True,
                     padded: Tensor | None = None) -> tuple[Tensor, Tensor, Tensor | None]:
    """Backward through a generative layer given its forward power stack.

    `stack` is [..., Q*Cin, H, W] and `grad_out` [..., Cout, H', W'] with the
    same leading dimensions. Returns (grad_kernels, grad_biases, grad_input),
    each per sample: [..., Q, Cout, Cin, Kh, Kw], [..., Q, Cout] and the
    input's shape. One weight-adjoint call over the whole stack gives every
    power map's kernel gradient; every per-q bias sees the same summed
    grad_out. The input gradient, None unless `input_grad`, is one
    input-adjoint call with the merged bank (padding into `padded`) followed
    by the power rule, grad_input = sum_q q * x**(q-1) * adjoint_q, the q=1
    term added directly since its factor is one.
    """
    q_order, cout, cin, kh, kw = layer.kernels.shape
    lead = stack.shape[:-3]
    gw = ops.conv2d_backward_weights(stack, grad_out)
    grad_kernels = gw.reshape(*lead, cout, q_order, cin, kh, kw).swapaxes(-5, -4)
    gb = grad_out.sum(axis=(-2, -1))
    grad_biases = np.broadcast_to(gb[..., None, :], (*lead, q_order, cout))
    if not input_grad:
        return grad_kernels, grad_biases, None
    gin_all = ops.conv2d_backward_input(_merged_kernels(layer), grad_out, padded)
    grad_input = gin_all[..., :cin, :, :]
    for q in range(1, q_order):
        grad_input = grad_input + (q + 1) * stack[..., (q - 1) * cin:q * cin, :, :] \
            * gin_all[..., q * cin:(q + 1) * cin, :, :]
    return grad_kernels, grad_biases, grad_input


class BlockCache(NamedTuple):
    stack: Tensor             # channel-stacked input powers fed to the layer
    pre: Tensor               # layer output before the pool (the pool backward routes from it)
    activated: Tensor         # tanh of the pooled map, the next block's input


@dataclass
class ForwardCache:
    config: ModelConfig       # the configuration of the pass that made it
    blocks: list[BlockCache]  # the model's kept maps, which backward overwrites
    flat_input: Tensor        # flattened final pooled map
    hidden_activated: Tensor


def model_forward(model: Model, x: Tensor,
                  train_mode: bool = False) -> tuple[Tensor, ForwardCache | None]:
    """Forward pass to raw logits; caches intermediates when training.

    `x` is one image [C,H,W], giving (K,) logits, or a batch [N,C,H,W],
    giving (N,K); each sample's logits are bitwise those it gets alone.
    A training pass writes each block's power stack, pre-activation and
    pooled map into those the model kept from its previous training pass of
    the same input shape, and keeps them; an inference pass drops them.
    """
    cfg = model.config
    if x.ndim < 3 or tuple(x.shape[-3:]) != cfg.input_shape:
        raise DimensionError(
            f"input shape {tuple(x.shape)} vs configured {cfg.input_shape}")
    kept = model.kept_maps
    if not train_mode or kept.get("shape") != x.shape:
        kept.clear()
    blocks = kept.get("blocks") or [BlockCache(None, None, None)] * len(model.blocks)
    cur = x
    for i, layer in enumerate(model.blocks):
        stack = power_stack(cur, layer.q_order, out=blocks[i].stack)
        pre = selfonn_forward(layer, stack, out=blocks[i].pre)
        stack = stack if train_mode else None  # inference frees maps once read
        cur = ops.maxpool2x2(pre, out=blocks[i].activated)  # tanh is monotonic: pool first
        ops.tanh_forward(cur, out=cur)
        if train_mode:
            blocks[i] = BlockCache(stack, pre, cur)
        del pre
    flat_in = cur.reshape(*cur.shape[:-3], -1)
    hidden_act = ops.dense_forward(flat_in, model.hidden.weights, model.hidden.bias)
    ops.tanh_forward(hidden_act, out=hidden_act)
    logits = ops.dense_forward(hidden_act, model.output.weights, model.output.bias)
    cache = ForwardCache(cfg, blocks, flat_in, hidden_act) if train_mode else None
    if train_mode:
        kept.update(shape=x.shape, blocks=blocks, cache=cache)
    return logits, cache


def model_backward(model: Model, cache: ForwardCache, grad_logits: Tensor,
                   input_grad: bool = True,
                   grads: Tensor | None = None) -> tuple[Tensor, Tensor | None]:
    """Backward pass from dL/dlogits, (K,) for one image or (N,K) for a batch.

    Returns (flat_grads, grad_input). flat_grads is the parameter gradient
    aligned with the model's flat view: each sample's gradient is added, in
    sample order, to `grads` (in place) or to a new zero buffer, so several
    passes can share one running total. grad_input is the gradient w.r.t.
    the network input, shaped like that input, or None when `input_grad` is
    False (training never uses it). The cache must be that of the model's
    latest pass, a training pass; the pass consumes it, overwriting the
    cached maps with their gradients. The model also keeps each input
    adjoint's padding.
    """
    if cache is None or cache.config != model.config:
        raise ConsistencyError("forward cache does not match this model")
    kept = model.kept_maps
    if kept.get("cache") is not cache:
        raise ConsistencyError("forward cache was already used by a backward "
                               "pass, or the model has run a pass since")
    del kept["cache"]
    if grads is None:
        grads = np.zeros_like(model.flat)
    gview = Model.from_flat(model.config, grads)  # same layout as the model

    g_hidden_act, gw, gb = ops.dense_backward(
        cache.hidden_activated, model.output.weights, grad_logits)
    add_in_order(gview.output.weights, gw)
    add_in_order(gview.output.bias, gb)

    g_hidden_pre = ops.tanh_backward(cache.hidden_activated, g_hidden_act,
                                     out=cache.hidden_activated)
    g_flat, gw, gb = ops.dense_backward(
        cache.flat_input, model.hidden.weights, g_hidden_pre)
    add_in_order(gview.hidden.weights, gw)
    add_in_order(gview.hidden.bias, gb)

    g = g_flat.reshape(cache.blocks[-1].activated.shape)
    for i in range(len(model.blocks) - 1, -1, -1):
        stack, pre, act = cache.blocks[i]
        g_pre = ops.maxpool2x2_backward(ops.tanh_backward(act, g, out=act), pre,
                                        out=pre)
        need = input_grad or i > 0
        if need and ("padded", i) not in kept:  # border zeroed once
            k = model.config.kernel_sizes[i]
            kept["padded", i] = np.zeros(
                (*g_pre.shape[:-2], *(n + 2 * k - 2 for n in g_pre.shape[-2:])))
        gk, gb, g = selfonn_backward(model.blocks[i], stack, g_pre, need,
                                     kept.get(("padded", i)))
        add_in_order(gview.blocks[i].kernels, gk)
        add_in_order(gview.blocks[i].biases, gb)
    return grads, g


# Weight-file format (all little-endian):
#   offset 0   4 bytes  magic "SONN"
#   offset 4   u16      format version (currently 1)
#   offset 6   u16      q_order
#   offset 8   u16 x 3  input channels, height, width
#   offset 14  u16      number of blocks B
#   then       u16 x B  block filter counts
#   then       u16 x B  kernel sizes
#   then       u16 x 2  dense units, classes
#   then       u64      parameter count N
#   then       f64 x N  parameters in flat-view order (see _shapes)
# and nothing follows the parameters.
_MAGIC = b"SONN"
_VERSION = 1
_FIXED = "<4sHHHHHH"   # magic through B


def _header(n_blocks: int) -> struct.Struct:
    """The whole header of a file with `n_blocks` blocks."""
    return struct.Struct(f"{_FIXED}{n_blocks}H{n_blocks}HHHQ")


def save_weights(model: Model, path) -> None:
    """Write the model to `path`."""
    cfg = model.config
    b = len(cfg.block_filters)
    header = _header(b).pack(_MAGIC, _VERSION, cfg.q_order, *cfg.input_shape, b,
                             *cfg.block_filters, *cfg.kernel_sizes,
                             cfg.dense_units, cfg.classes, model.n_params)
    Path(path).write_bytes(header + model.flat.astype("<f8").tobytes())


def load_weights(path) -> Model:
    """Read a weight file; any defect raises WeightFileError."""
    raw = Path(path).read_bytes()
    fixed = struct.calcsize(_FIXED)
    if len(raw) < fixed:
        raise WeightFileError(
            f"file ends inside fixed header: wanted {fixed} bytes, got {len(raw)}")
    magic, version, q_order, c, h, w, b = struct.unpack_from(_FIXED, raw)
    if magic != _MAGIC:
        raise WeightFileError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise WeightFileError(f"unsupported format version {version}")
    header = _header(b)
    if len(raw) < header.size:
        raise WeightFileError(
            f"file ends inside config block: wanted {header.size - fixed} "
            f"bytes, got {len(raw) - fixed}")
    fields = header.unpack_from(raw)
    filters, kernels = fields[7:7 + b], fields[7 + b:-3]
    dense_units, classes, n_params = fields[-3:]
    try:
        stored = ModelConfig(q_order=q_order, input_shape=(c, h, w),
                             block_filters=filters, kernel_sizes=kernels,
                             dense_units=dense_units, classes=classes)
    except ConfigError as exc:
        raise WeightFileError(f"stored configuration is invalid: {exc}") from exc
    if n_params != param_count(stored):
        raise WeightFileError(
            f"header declares {n_params} parameters, configuration needs "
            f"{param_count(stored)}")
    have, need = len(raw) - header.size, 8 * n_params
    if have < need:
        raise WeightFileError(
            f"file ends inside parameter payload: wanted {need} bytes, got {have}")
    if have > need:
        raise WeightFileError(
            f"{have - need} trailing bytes after parameter payload ending at "
            f"byte {header.size + need}")
    flat = np.frombuffer(raw, dtype="<f8", offset=header.size).astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise WeightFileError("parameter payload contains non-finite values")
    return Model.from_flat(stored, flat)
