"""Dense-tensor kernels everything else composes.

Feature maps are float64 numpy arrays in channel-first ``[..., C, H, W]``
layout: any leading dimensions (typically one batch axis ``N``) are carried
through, so a single image ``[C, H, W]`` and a batch ``[N, C, H, W]`` run
through the same code. Kernel banks are ``[Cout, Cin, Kh, Kw]``.
Convolution is the unpadded cross-correlation (no kernel flip); its two
adjoints, 2x2 max pooling (whose backward pass re-derives the max positions
from the pre-pool map), the dense affine map, tanh and softmax
cross-entropy are all pure functions with hand-derived backward passes. No
autograd graph.

Convolutions and their adjoints run as GEMMs over im2col patch matrices
built one band of output rows at a time for all samples at once, so they
stay cache-sized. Each band is a stacked ``np.matmul``, one BLAS call per
sample, so every sample's result is bitwise what it would be on its own.
The input adjoint is the forward convolution of the zero-padded output
gradient with the flipped bank; the weight adjoint adds up its bands in
order, with a band height set by the map width alone.

Shapes are checked at the model boundary, not here: ``ModelConfig`` fixes
every layer's map and kernel sizes and ``model_forward`` checks the input,
so these kernels take their arguments as given. Only the loss checks its
targets, which come from the data.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Alias for readability; everything is plain numpy underneath.
Tensor = np.ndarray

# Patch-matrix entries per forward-convolution band: 512 KiB of float64,
# which stays in L2 cache between the im2col copy and the GEMM reading it.
_BAND_ELEMENTS = 65536
# Band widths are whole multiples of this many output columns, the widest
# column unroll of the x86 OpenBLAS double GEMM kernels, so every column goes
# through the same micro-kernel as in one whole-map GEMM and banding does
# not change a bit of the result.
_BAND_COLUMNS = 8


class DimensionError(ValueError):
    """Shapes handed to an operation do not fit together."""


def _im2col(x: Tensor, kh: int, kw: int) -> Tensor:
    """Patch matrices (..., Cin*kh*kw, H'*W') for a [..., Cin, H, W] input."""
    *lead, cin, h, w = x.shape
    hp, wp = h - kh + 1, w - kw + 1
    row, col = x.strides[-2:]
    # (..., Cin, kh, kw, H', W') window view; the reshape copies it out.
    win = as_strided(x, (*lead, cin, kh, kw, hp, wp),
                     (*x.strides[:-2], row, col, row, col), writeable=False)
    return win.reshape(*lead, cin * kh * kw, hp * wp)


def _band_step(wp: int) -> int:
    """Fewest output rows of width `wp` that make whole _BAND_COLUMNS multiples."""
    return _BAND_COLUMNS // math.gcd(wp, _BAND_COLUMNS)


def _band_rows(patch: int, wp: int) -> int:
    """Output rows per forward band for a patch length and output width.

    `patch` is the patch length times the number of samples in the call. As
    many rows as keep the band's patch matrices, patch * rows*wp entries,
    within _BAND_ELEMENTS, rounded down to whole _band_step(wp) multiples;
    never fewer than one such multiple.
    """
    step = _band_step(wp)
    rows = _BAND_ELEMENTS // (patch * wp)
    return max(step, rows - rows % step)


def conv2d_valid(x: Tensor, kernels: Tensor, bias: Tensor | None = None) -> Tensor:
    """Valid cross-correlation of a [..., Cin, H, W] map with a [Cout,Cin,Kh,Kw] bank.

    out[...,o,m,n] = bias[o] + sum_{c,r,t} kernels[o,c,r,t] * x[...,c,m+r,n+t]

    No padding, no kernel flip; the output shrinks to [..., Cout, H-Kh+1,
    W-Kw+1]. Each band of output rows (see _band_rows, sized for all samples
    together) is one stacked matmul: a GEMM per sample, never one GEMM
    across samples, so a sample's output does not depend on its batch.
    """
    cout, cin, kh, kw = kernels.shape
    lead = x.shape[:-3]
    samples = x.reshape(-1, *x.shape[-3:])
    hp = x.shape[-2] - kh + 1
    wp = x.shape[-1] - kw + 1
    kmat = kernels.reshape(cout, cin * kh * kw)
    rows = _band_rows(samples.shape[0] * kmat.shape[1], wp)
    out = np.empty((samples.shape[0], cout, hp * wp))
    for r0 in range(0, hp, rows):
        r1 = min(r0 + rows, hp)
        np.matmul(kmat, _im2col(samples[:, :, r0:r1 + kh - 1], kh, kw),
                  out=out[:, :, r0 * wp:r1 * wp])
    out = out.reshape(*lead, cout, hp, wp)
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv2d_backward_weights(x: Tensor, grad_out: Tensor) -> Tensor:
    """Per-sample weight gradient of conv2d_valid, [..., Cout, Cin, Kh, Kw].

    dW[...,o,c,r,t] = sum_{m,n} grad_out[...,o,m,n] * x[...,c,m+r,n+t]

    The kernel extent comes from the shapes. Bands of _band_step(W') output
    rows are added in band order, each one stacked matmul (a GEMM per
    sample); the band height does not depend on the batch, nor do the bits.
    """
    *lead, cin, h, w = x.shape
    cout, hp, wp = grad_out.shape[-3:]
    kh, kw = h - hp + 1, w - wp + 1
    samples = x.reshape(-1, cin, h, w)
    grads = grad_out.reshape(-1, cout, hp * wp)
    rows = _band_step(wp)
    total = np.zeros((samples.shape[0], cout, cin * kh * kw))
    for r0 in range(0, hp, rows):
        r1 = min(r0 + rows, hp)
        cols = _im2col(samples[:, :, r0:r1 + kh - 1], kh, kw)
        total += np.matmul(grads[:, :, r0 * wp:r1 * wp], cols.swapaxes(-1, -2))
    return total.reshape(*lead, cout, cin, kh, kw)


def conv2d_backward_input(kernels: Tensor, grad_out: Tensor) -> Tensor:
    """Input gradient of conv2d_valid for a [..., Cout, H', W'] output gradient.

    dY[...,c,i,j] = sum over (o,r,t) with 0 <= i-r < H', 0 <= j-t < W' of
    kernels[o,c,r,t] * grad_out[...,o,i-r,j-t]: the valid convolution of
    grad_out, zero-padded by Kh-1 rows and Kw-1 columns on each side, with
    the flipped, transposed bank.
    """
    kh, kw = kernels.shape[-2:]
    pad = [(0, 0)] * (grad_out.ndim - 2) + [(kh - 1, kh - 1), (kw - 1, kw - 1)]
    return conv2d_valid(np.pad(grad_out, pad),
                        kernels[:, :, ::-1, ::-1].swapaxes(0, 1))


def tanh_forward(t: Tensor, out: Tensor | None = None) -> Tensor:
    """Elementwise tanh; pass out=t to overwrite the input in place."""
    return np.tanh(t, out=out)


def tanh_backward(activated: Tensor, grad_out: Tensor,
                  out: Tensor | None = None) -> Tensor:
    """Chain rule through tanh given the *activated* values (not pre-activations).

    grad_out * (1 - activated**2); pass out=activated to reuse that buffer
    once the activations are no longer needed.
    """
    deriv = np.multiply(activated, activated, out=out)
    np.subtract(1.0, deriv, out=deriv)
    return np.multiply(grad_out, deriv, out=deriv)


def _pool_cells(x: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The four cells of every 2x2 window as strided views, row-major order.

    A trailing odd row/column is left out (floor semantics).
    """
    h2, w2 = x.shape[-2] // 2, x.shape[-1] // 2
    return tuple(x[..., a:2 * h2:2, b:2 * w2:2] for a in (0, 1) for b in (0, 1))


def _pool_max(cells) -> Tensor:
    # np.maximum returns its second argument on ties, so the earlier cell
    # goes second: a tied window (+0.0 against -0.0) keeps its first cell's
    # value, as the loop oracle does.
    c0, c1, c2, c3 = cells
    return np.maximum(np.maximum(c3, c2), np.maximum(c1, c0))


def maxpool2x2(x: Tensor) -> Tensor:
    """Disjoint 2x2 stride-2 max pool of a [..., C, H, W] map; odd edges are dropped."""
    return _pool_max(_pool_cells(x))


def maxpool2x2_backward(grad_out: Tensor, x: Tensor) -> Tensor:
    """Route the pooled gradient back through maxpool2x2 of the map `x`.

    Within each window the first cell in row-major order that equals the
    window max receives the gradient, so ties route deterministically; every
    other cell, and any dropped odd edge, gets +0.0.
    """
    cells = _pool_cells(x)
    pooled = _pool_max(cells)
    grad = np.zeros_like(x)
    open_windows = np.ones(pooled.shape, dtype=bool)
    for cell, grad_cell in zip(cells, _pool_cells(grad)):
        hit = cell == pooled
        hit &= open_windows
        np.copyto(grad_cell, grad_out, where=hit)
        open_windows &= ~hit
    return grad


def _matvec(matrix: Tensor, x: Tensor) -> Tensor:
    """matrix @ x for each sample of x [..., D], as stacked matrix-vector products.

    Each sample's product is the one it gets alone; a single (N, D) @ (D, U)
    GEMM over the batch would round differently.
    """
    return np.matmul(matrix, x[..., None])[..., 0]


def dense_forward(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map: out[...,u] = bias[u] + sum_d weights[u,d] * x[...,d]."""
    return _matvec(weights, x) + bias


def dense_backward(x: Tensor, weights: Tensor,
                   grad_out: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """Adjoint of dense_forward: (grad_x, grad_weights, grad_bias) per sample.

    For [..., D] inputs the weight and bias gradients keep the leading
    dimensions, [..., U, D] and [..., U]; summing them is the caller's job.
    """
    grad_x = _matvec(weights.T, grad_out)
    grad_w = grad_out[..., :, None] * x[..., None, :]
    grad_b = grad_out.copy()
    return grad_x, grad_w, grad_b


def cross_entropy_with_softmax(logits: Tensor, target_class) -> tuple[float | Tensor, Tensor]:
    """Per-sample cross-entropy on raw [..., K] logits.

    Returns (loss, dL/dlogits) with loss = -log softmax(logits)[target] and
    gradient softmax(logits) - onehot(target), both computed through the
    max-shifted log-sum-exp for stability. `target_class` has the logits'
    leading shape; one sample (1-D logits, an int target) gives a float
    loss, a batch gives one loss per sample. Nothing is averaged here.
    """
    k = logits.shape[-1]
    target = np.asarray(target_class)
    if target.shape != logits.shape[:-1]:
        raise DimensionError(
            f"target shape {target.shape} vs logits {tuple(logits.shape)}")
    if np.any((target < 0) | (target >= k)):
        raise ValueError(f"target class {target_class} outside [0, {k})")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    pick = target[..., None]
    loss = (np.log(s) - np.take_along_axis(z, pick, axis=-1))[..., 0]
    grad = e / s
    np.put_along_axis(grad, pick, np.take_along_axis(grad, pick, axis=-1) - 1.0, axis=-1)
    return (float(loss) if loss.ndim == 0 else loss), grad
