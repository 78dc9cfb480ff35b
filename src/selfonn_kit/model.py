"""Generative-neuron layers and the three-block thermal classifier.

A generative layer carries Q kernel banks and per-order biases; its output
is ``sum_q conv2d_valid(input**q, kernels[q], biases[q])``, so order Q=1
collapses to a plain convolution bit-for-bit. The classifier is a fixed
stack of such blocks (each followed by tanh and 2x2 max pooling), a hidden
dense layer with tanh, and a linear output layer.

Forward and backward passes take one image ``[C, H, W]`` or a batch
``[N, C, H, W]`` through the same code. A batch runs each layer once for all
samples, with per-sample GEMMs, and adds the per-sample parameter gradients
to the gradient buffer one sample at a time, so the result is bitwise the
running total of one-image passes.

All parameters live in one flat float64 buffer; the per-layer arrays are
reshaped views into it, which keeps optimizer updates, snapshots and the
weight-file format trivially consistent.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import ops
from .ops import ConsistencyError, DimensionError, Tensor


class ConfigError(ValueError):
    """Model configuration cannot produce a valid layer chain."""


class WeightFileError(ValueError):
    """Base class for weight-file load failures."""


class WeightHeaderError(WeightFileError):
    """Bad magic, unsupported version, or malformed header."""


class WeightTruncatedError(WeightFileError):
    """File ends before the declared payload."""


class WeightConfigMismatch(WeightFileError):
    """Stored configuration differs from the expected one."""


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


@dataclass
class SelfOnnLayerParams:
    """One generative layer: kernels[q,o,c,r,t] and per-order biases[q,o]."""

    kernels: Tensor  # (Q, Cout, Cin, Kh, Kw)
    biases: Tensor   # (Q, Cout)

    def __post_init__(self):
        if self.kernels.ndim != 5 or self.biases.ndim != 2:
            raise DimensionError(
                f"kernels must be 5-D and biases 2-D, got "
                f"{tuple(self.kernels.shape)} and {tuple(self.biases.shape)}")
        if self.kernels.shape[0] != self.biases.shape[0] \
                or self.kernels.shape[1] != self.biases.shape[1]:
            raise DimensionError(
                f"kernels {tuple(self.kernels.shape)} and biases "
                f"{tuple(self.biases.shape)} disagree on Q or Cout")

    @property
    def q_order(self) -> int:
        return self.kernels.shape[0]


@dataclass
class DenseParams:
    weights: Tensor  # (U, D)
    bias: Tensor     # (U,)

    def __post_init__(self):
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise DimensionError(
                f"dense weights {tuple(self.weights.shape)} and bias "
                f"{tuple(self.bias.shape)} do not fit")


@dataclass
class Model:
    """Layer stack plus the flat parameter buffer the layer arrays view into."""

    config: ModelConfig
    flat: Tensor
    blocks: list[SelfOnnLayerParams]
    hidden: DenseParams
    output: DenseParams

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
        if vec.shape != self.flat.shape:
            raise DimensionError(
                f"flat vector shape {tuple(vec.shape)} vs model {tuple(self.flat.shape)}")
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


def power_stack(x: Tensor, q_order: int) -> Tensor:
    """Channel-stacked powers [x, x**2, ..., x**Q] of shape (..., Q*Cin, H, W).

    Built by repeated multiplication and computed once per forward pass, so
    forward and backward see numerically identical power maps. Channel
    block q (zero-based) holds x**(q+1).
    """
    cin = x.shape[-3]
    stack = np.empty((*x.shape[:-3], q_order * cin, *x.shape[-2:]))
    stack[..., :cin, :, :] = x
    for q in range(1, q_order):
        np.multiply(stack[..., (q - 1) * cin:q * cin, :, :], x,
                    out=stack[..., q * cin:(q + 1) * cin, :, :])
    return stack


def _accumulate(total: Tensor, per_sample: Tensor) -> None:
    """Add per-sample gradients to `total` in place, one sample at a time.

    This is exactly a running total over one-sample passes; a numpy
    reduction over the sample axis may pair the terms otherwise (it does
    when `total` has a single element).
    """
    for g in per_sample.reshape(-1, *total.shape):
        total += g


def _merged_kernels(layer: SelfOnnLayerParams) -> Tensor:
    """(Cout, Q*Cin, Kh, Kw) view of the bank matching power_stack channels."""
    q, cout, cin, kh, kw = layer.kernels.shape
    return layer.kernels.transpose(1, 0, 2, 3, 4).reshape(cout, q * cin, kh, kw)


def selfonn_forward(layer: SelfOnnLayerParams, x: Tensor,
                    stack: Tensor | None = None) -> Tensor:
    """Generative-layer forward: sum over q of conv(x**q, kernels[q]) + biases.

    All Q terms run as one convolution over the channel-stacked powers; at
    Q=1 this is exactly conv2d_valid(x, kernels[0], biases[0]), bit for bit.
    """
    if stack is None:
        stack = power_stack(x, layer.q_order)
    return ops.conv2d_valid(stack, _merged_kernels(layer),
                            layer.biases.sum(axis=0))


def selfonn_backward(layer: SelfOnnLayerParams, stack: Tensor, grad_out: Tensor,
                     input_grad: bool = True) -> tuple[Tensor, Tensor, Tensor | None]:
    """Backward through a generative layer given its forward power stack.

    `stack` is [..., Q*Cin, H, W] and `grad_out` [..., Cout, H', W'] with the
    same leading dimensions. Returns (grad_kernels, grad_biases, grad_input),
    each per sample: [..., Q, Cout, Cin, Kh, Kw], [..., Q, Cout] and the
    input's shape. One weight-adjoint call over the whole stack gives every
    power map's kernel gradient; every per-q bias sees the same summed
    grad_out. The input gradient, None unless `input_grad`, is one
    input-adjoint call with the merged bank followed by the power rule,
    grad_input = sum_q q * x**(q-1) * adjoint_q, the q=1 term added
    directly since its factor is one.
    """
    q_order, cout, cin, kh, kw = layer.kernels.shape
    if stack.shape[-3] != q_order * cin:
        raise ConsistencyError(
            f"power stack has {stack.shape[-3]} channels, layer needs "
            f"{q_order} x {cin}")
    lead = stack.shape[:-3]
    gw = ops.conv2d_backward_weights(stack, grad_out)
    grad_kernels = gw.reshape(*lead, cout, q_order, cin, kh, kw).swapaxes(-5, -4)
    gb = grad_out.sum(axis=(-2, -1))
    grad_biases = np.broadcast_to(gb[..., None, :], (*lead, q_order, cout))
    if not input_grad:
        return grad_kernels, grad_biases, None
    gin_all = ops.conv2d_backward_input(_merged_kernels(layer), grad_out)
    grad_input = gin_all[..., :cin, :, :]
    for q in range(1, q_order):
        grad_input = grad_input + (q + 1) * stack[..., (q - 1) * cin:q * cin, :, :] \
            * gin_all[..., q * cin:(q + 1) * cin, :, :]
    return grad_kernels, grad_biases, grad_input


@dataclass
class BlockCache:
    stack: Tensor             # channel-stacked input powers fed to the layer
    activated: Tensor         # tanh output, pre-pool (the pool backward routes from it)


@dataclass
class ForwardCache:
    blocks: list[BlockCache | None]   # an entry is None once backward used it
    flat_input: Tensor        # flattened final pooled map
    hidden_activated: Tensor


def model_forward(model: Model, x: Tensor,
                  train_mode: bool = False) -> tuple[Tensor, ForwardCache | None]:
    """Forward pass to raw logits; caches intermediates when training.

    `x` is one image [C,H,W], giving (K,) logits, or a batch [N,C,H,W],
    giving (N,K); each sample's logits are bitwise those it gets alone.
    """
    cfg = model.config
    if x.ndim < 3 or tuple(x.shape[-3:]) != cfg.input_shape:
        raise DimensionError(
            f"input shape {tuple(x.shape)} vs configured {cfg.input_shape}")
    block_caches = []
    cur = x
    for layer in model.blocks:
        stack = power_stack(cur, layer.q_order)
        act = selfonn_forward(layer, cur, stack)
        ops.tanh_forward(act, out=act)
        cur = ops.maxpool2x2(act)
        if train_mode:
            block_caches.append(BlockCache(stack, act))
    flat_in = cur.reshape(*cur.shape[:-3], -1)
    hidden_act = ops.dense_forward(flat_in, model.hidden.weights, model.hidden.bias)
    ops.tanh_forward(hidden_act, out=hidden_act)
    logits = ops.dense_forward(hidden_act, model.output.weights, model.output.bias)
    cache = ForwardCache(block_caches, flat_in, hidden_act) if train_mode else None
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
    False (training never uses it). The pass consumes the cache: it
    overwrites the cached activations and releases each block's entry once
    done with it.
    """
    if cache is None or len(cache.blocks) != len(model.blocks):
        raise ConsistencyError("forward cache does not match this model")
    if any(bc is None for bc in cache.blocks):
        raise ConsistencyError("forward cache was already used by a backward pass")
    if grads is None:
        grads = np.zeros_like(model.flat)
    gview = Model.from_flat(model.config, grads)  # same layout as the model

    g_hidden_act, gw, gb = ops.dense_backward(
        cache.hidden_activated, model.output.weights, grad_logits)
    _accumulate(gview.output.weights, gw)
    _accumulate(gview.output.bias, gb)

    g_hidden_pre = ops.tanh_backward(cache.hidden_activated, g_hidden_act,
                                     out=cache.hidden_activated)
    g_flat, gw, gb = ops.dense_backward(
        cache.flat_input, model.hidden.weights, g_hidden_pre)
    _accumulate(gview.hidden.weights, gw)
    _accumulate(gview.hidden.bias, gb)

    g = g_flat.reshape(*g_flat.shape[:-1], *feature_map_chain(model.config)[-1])
    for i in range(len(model.blocks) - 1, -1, -1):
        bc = cache.blocks[i]
        cache.blocks[i] = None
        # The pool gradient is a temporary: freed before the conv adjoints run.
        g_pre = ops.tanh_backward(bc.activated, ops.maxpool2x2_backward(g, bc.activated),
                                  out=bc.activated)
        gk, gb, g = selfonn_backward(model.blocks[i], bc.stack, g_pre,
                                     input_grad=input_grad or i > 0)
        _accumulate(gview.blocks[i].kernels, gk)
        _accumulate(gview.blocks[i].biases, gb)
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
_MAGIC = b"SONN"
_VERSION = 1


def _pack_header(config: ModelConfig, n_params: int) -> bytes:
    b = len(config.block_filters)
    parts = [struct.pack("<4sHHHHH", _MAGIC, _VERSION, config.q_order,
                         *config.input_shape)]
    parts.append(struct.pack("<H", b))
    parts.append(struct.pack(f"<{b}H", *config.block_filters))
    parts.append(struct.pack(f"<{b}H", *config.kernel_sizes))
    parts.append(struct.pack("<HHQ", config.dense_units, config.classes, n_params))
    return b"".join(parts)


def save_weights(model: Model, destination) -> None:
    """Write the model to `destination` (path or binary file object)."""
    payload = _pack_header(model.config, model.n_params) \
        + model.flat.astype("<f8").tobytes()
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        with open(destination, "wb") as fh:
            fh.write(payload)


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise WeightTruncatedError(
            f"file ends inside {what}: wanted {n} bytes, got {len(data)}")
    return data


def load_weights(source, config: ModelConfig | None = None) -> Model:
    """Read a weight file; if `config` is given, the header must match it."""
    if hasattr(source, "read"):
        return _load_from(source, config)
    with open(source, "rb") as fh:
        return _load_from(fh, config)


def _load_from(fh, config: ModelConfig | None) -> Model:
    head = _read_exact(fh, 16, "fixed header")
    magic, version, q_order, c, h, w, n_blocks = struct.unpack("<4sHHHHHH", head)
    if magic != _MAGIC:
        raise WeightHeaderError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise WeightHeaderError(f"unsupported format version {version}")
    if n_blocks < 1:
        raise WeightHeaderError("header declares zero blocks")
    body = _read_exact(fh, 2 * n_blocks * 2 + 12, "config block")
    filters = struct.unpack_from(f"<{n_blocks}H", body, 0)
    kernels = struct.unpack_from(f"<{n_blocks}H", body, 2 * n_blocks)
    dense_units, classes, n_params = struct.unpack_from("<HHQ", body, 4 * n_blocks)
    try:
        stored = ModelConfig(q_order=q_order, input_shape=(c, h, w),
                             block_filters=filters, kernel_sizes=kernels,
                             dense_units=dense_units, classes=classes)
    except ConfigError as exc:
        raise WeightHeaderError(f"stored configuration is invalid: {exc}") from exc
    if n_params != param_count(stored):
        raise WeightHeaderError(
            f"header declares {n_params} parameters, configuration needs "
            f"{param_count(stored)}")
    if config is not None and stored != config:
        raise WeightConfigMismatch(
            f"stored configuration {stored} does not match expected {config}")
    raw = _read_exact(fh, 8 * n_params, "parameter payload")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise WeightFileError("parameter payload contains non-finite values")
    return Model.from_flat(stored, flat)
