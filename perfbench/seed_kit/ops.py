"""Dense-tensor kernels everything else composes.

Feature maps are float64 numpy arrays in channel-first ``[C, H, W]`` layout,
kernel banks are ``[Cout, Cin, Kh, Kw]``. Convolution is the unpadded
cross-correlation (no kernel flip); its two adjoints, 2x2 max pooling with
argmax tracking, the dense affine map, tanh, softmax and cross-entropy are
all pure functions with hand-derived backward passes. No autograd graph.

Both forward and backward convolutions run as one GEMM over an im2col
patch matrix; the input adjoint scatters its column product back with a
small col2im loop over kernel offsets.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Aliases for readability; everything is plain numpy underneath.
Tensor = np.ndarray
Shape = tuple[int, ...]
PoolIndices = np.ndarray  # int64 flat indices into the pooled input


class DimensionError(ValueError):
    """Shapes handed to an operation do not fit together."""


class ConsistencyError(RuntimeError):
    """Internal state (caches, pool indices) does not match its producer."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DimensionError(msg)


def as_tensor(data, shape: Shape | None = None) -> Tensor:
    """Coerce external input to a float64 tensor, rejecting NaN/Inf.

    Internal ops skip this check; it guards the boundaries (file loads,
    CLI inputs) where non-finite values must not enter the pipeline.
    """
    arr = np.asarray(data, dtype=np.float64)
    if shape is not None and tuple(arr.shape) != tuple(shape):
        raise DimensionError(f"expected shape {tuple(shape)}, got {tuple(arr.shape)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    return arr


def _im2col(x: Tensor, kh: int, kw: int) -> Tensor:
    """Patch matrix of shape (Cin*kh*kw, H'*W') for a [Cin,H,W] input."""
    cin = x.shape[0]
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (Cin, H', W', kh, kw)
    hp, wp = win.shape[1], win.shape[2]
    return win.transpose(0, 3, 4, 1, 2).reshape(cin * kh * kw, hp * wp)


def conv2d_valid(x: Tensor, kernels: Tensor, bias: Tensor | None = None) -> Tensor:
    """Valid cross-correlation of a [Cin,H,W] map with a [Cout,Cin,Kh,Kw] bank.

    out[o,m,n] = bias[o] + sum_{c,r,t} kernels[o,c,r,t] * x[c,m+r,n+t]

    No padding, no kernel flip; the output shrinks to [Cout, H-Kh+1, W-Kw+1].
    """
    _require(x.ndim == 3, f"input must be [Cin,H,W], got shape {tuple(x.shape)}")
    _require(kernels.ndim == 4,
             f"kernels must be [Cout,Cin,Kh,Kw], got shape {tuple(kernels.shape)}")
    cout, cin, kh, kw = kernels.shape
    _require(x.shape[0] == cin,
             f"channel mismatch: input {tuple(x.shape)} vs kernels {tuple(kernels.shape)}")
    _require(x.shape[1] >= kh and x.shape[2] >= kw,
             f"kernel {tuple(kernels.shape)} does not fit input {tuple(x.shape)}")
    hp = x.shape[1] - kh + 1
    wp = x.shape[2] - kw + 1
    cols = _im2col(x, kh, kw)
    out = (kernels.reshape(cout, cin * kh * kw) @ cols).reshape(cout, hp, wp)
    if bias is not None:
        _require(bias.shape == (cout,),
                 f"bias shape {tuple(bias.shape)} vs Cout={cout}")
        out += bias[:, None, None]
    return out


def conv2d_backward_weights(x: Tensor, grad_out: Tensor) -> Tensor:
    """Weight gradient of conv2d_valid; kernel extent inferred from the shapes.

    dW[o,c,r,t] = sum_{m,n} grad_out[o,m,n] * x[c,m+r,n+t]
    """
    _require(x.ndim == 3 and grad_out.ndim == 3,
             f"need [Cin,H,W] and [Cout,H',W'], got {tuple(x.shape)} and {tuple(grad_out.shape)}")
    cin, h, w = x.shape
    cout, hp, wp = grad_out.shape
    _require(hp <= h and wp <= w,
             f"output grad {tuple(grad_out.shape)} larger than input {tuple(x.shape)}")
    kh, kw = h - hp + 1, w - wp + 1
    cols = _im2col(x, kh, kw)  # (Cin*Kh*Kw, H'*W')
    flat = grad_out.reshape(cout, hp * wp) @ cols.T
    return flat.reshape(cout, cin, kh, kw)


def conv2d_backward_input(kernels: Tensor, grad_out: Tensor) -> Tensor:
    """Input gradient of conv2d_valid: full correlation with flipped kernels.

    dY[c,i,j] = sum over (o,r,t) with 0 <= i-r < H', 0 <= j-t < W' of
    kernels[o,c,r,t] * grad_out[o,i-r,j-t].
    """
    _require(kernels.ndim == 4 and grad_out.ndim == 3,
             f"need [Cout,Cin,Kh,Kw] and [Cout,H',W'], got "
             f"{tuple(kernels.shape)} and {tuple(grad_out.shape)}")
    cout, cin, kh, kw = kernels.shape
    _require(grad_out.shape[0] == cout,
             f"channel mismatch: kernels {tuple(kernels.shape)} vs grad {tuple(grad_out.shape)}")
    hp, wp = grad_out.shape[1], grad_out.shape[2]
    kmat = kernels.reshape(cout, cin * kh * kw)
    cols = (kmat.T @ grad_out.reshape(cout, hp * wp)).reshape(cin, kh, kw, hp, wp)
    grad_x = np.zeros((cin, hp + kh - 1, wp + kw - 1))
    for r in range(kh):
        for t in range(kw):
            grad_x[:, r:r + hp, t:t + wp] += cols[:, r, t]
    return grad_x


def elementwise_pow(t: Tensor, q: int) -> Tensor:
    """t**q by repeated multiplication; q must be a positive integer.

    q=0 is rejected: the polynomial expansion starts at the linear term,
    constant offsets are carried by biases instead.
    """
    if q < 1:
        raise ValueError(f"power must be a positive integer, got {q}")
    out = t.copy()
    for _ in range(q - 1):
        out = out * t
    return out


def tanh_forward(t: Tensor) -> Tensor:
    return np.tanh(t)


def tanh_backward(activated: Tensor, grad_out: Tensor) -> Tensor:
    """Chain rule through tanh given the *activated* values (not pre-activations)."""
    return grad_out * (1.0 - activated * activated)


def maxpool2x2(x: Tensor) -> tuple[Tensor, PoolIndices]:
    """Disjoint 2x2 stride-2 max pool; returns (pooled, flat argmax indices).

    A trailing odd row/column is dropped (floor semantics). Ties resolve to
    the smallest flat input index inside the window so the backward routing
    is deterministic.
    """
    _require(x.ndim == 3, f"input must be [C,H,W], got shape {tuple(x.shape)}")
    c, h, w = x.shape
    _require(h >= 2 and w >= 2, f"cannot 2x2-pool a {h}x{w} map")
    h2, w2 = h // 2, w // 2
    crop = x[:, :2 * h2, :2 * w2]
    cells = (crop[:, 0::2, 0::2], crop[:, 0::2, 1::2],
             crop[:, 1::2, 0::2], crop[:, 1::2, 1::2])
    # Later cells win only on strict >, so ties go to the smallest flat
    # input index within each window.
    pooled = cells[0].copy()
    local = np.zeros((c, h2, w2), dtype=np.int64)
    for pos in (1, 2, 3):
        better = cells[pos] > pooled
        np.copyto(pooled, cells[pos], where=better)
        local[better] = pos
    ci = np.arange(c)[:, None, None]
    rows = 2 * np.arange(h2)[None, :, None] + local // 2
    cols = 2 * np.arange(w2)[None, None, :] + local % 2
    indices = ci * (h * w) + rows * w + cols
    return pooled, indices


def maxpool2x2_backward(grad_out: Tensor, indices: PoolIndices,
                        input_shape: Shape) -> Tensor:
    """Scatter the pooled gradient back to the recorded argmax positions."""
    if grad_out.shape != indices.shape:
        raise ConsistencyError(
            f"pool gradient shape {tuple(grad_out.shape)} does not match "
            f"indices {tuple(indices.shape)}")
    n = int(np.prod(input_shape))
    flat_idx = indices.ravel()
    if flat_idx.size and (flat_idx.min() < 0 or flat_idx.max() >= n):
        raise ConsistencyError(
            f"pool indices fall outside an input of shape {tuple(input_shape)}")
    flat = np.zeros(n)
    flat[flat_idx] = grad_out.ravel()  # windows are disjoint, so indices are unique
    return flat.reshape(input_shape)


def dense_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map: out[u] = bias[u] + sum_d weights[u,d] * x[d]."""
    _require(x.ndim == 1 and weights.ndim == 2,
             f"need [D] and [U,D], got {tuple(x.shape)} and {tuple(weights.shape)}")
    u, d = weights.shape
    _require(x.shape[0] == d,
             f"input length {x.shape[0]} vs weights {tuple(weights.shape)}")
    _require(bias.shape == (u,), f"bias shape {tuple(bias.shape)} vs U={u}")
    return weights @ x + bias


def dense_backward(x: Tensor, weights: Tensor,
                   grad_out: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Adjoint of dense_forward: (grad_x, grad_weights, grad_bias)."""
    u, d = weights.shape
    _require(grad_out.shape == (u,),
             f"grad shape {tuple(grad_out.shape)} vs U={u}")
    _require(x.shape == (d,), f"input shape {tuple(x.shape)} vs D={d}")
    grad_x = weights.T @ grad_out
    grad_w = np.outer(grad_out, x)
    grad_b = grad_out.copy()
    return grad_x, grad_w, grad_b


def softmax(logits: Tensor) -> Tensor:
    """Max-shifted two-pass softmax over a 1-D logit vector (K >= 2)."""
    _require(logits.ndim == 1 and logits.shape[0] >= 2,
             f"need at least two logits, got shape {tuple(logits.shape)}")
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def cross_entropy_with_softmax(logits: Tensor, target_class: int) -> tuple[float, Tensor]:
    """Single-sample cross-entropy on raw logits.

    Returns (loss, dL/dlogits) with loss = -log softmax(logits)[target] and
    gradient softmax(logits) - onehot(target), both computed through the
    max-shifted log-sum-exp for stability. Batch losses are means over
    per-sample calls.
    """
    k = logits.shape[0]
    if not 0 <= target_class < k:
        raise ValueError(f"target class {target_class} outside [0, {k})")
    z = logits - logits.max()
    e = np.exp(z)
    s = e.sum()
    loss = float(np.log(s) - z[target_class])
    grad = e / s
    grad[target_class] -= 1.0
    return loss, grad
