"""Independent oracles the tests compare the package against.

Everything here is deliberately written the slow, obvious way: convolution
adjoints as explicit index loops, a plain convolutional classifier with its
own composition and cache layout, and a finite-difference probe. None of it
imports from selfonn_kit.model's layer code beyond the raw array kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from selfonn_kit import ops


def conv2d_valid_loops(x, kernels, bias=None):
    """Triple-loop valid cross-correlation."""
    cout, cin, kh, kw = kernels.shape
    hp = x.shape[1] - kh + 1
    wp = x.shape[2] - kw + 1
    out = np.zeros((cout, hp, wp))
    for o in range(cout):
        for m in range(hp):
            for n in range(wp):
                acc = 0.0
                for c in range(cin):
                    for r in range(kh):
                        for t in range(kw):
                            acc += kernels[o, c, r, t] * x[c, m + r, n + t]
                out[o, m, n] = acc + (0.0 if bias is None else bias[o])
    return out


def conv2d_backward_weights_loops(x, grad_out):
    cin, h, w = x.shape
    cout, hp, wp = grad_out.shape
    kh, kw = h - hp + 1, w - wp + 1
    grad = np.zeros((cout, cin, kh, kw))
    for o in range(cout):
        for c in range(cin):
            for r in range(kh):
                for t in range(kw):
                    grad[o, c, r, t] = np.sum(
                        grad_out[o] * x[c, r:r + hp, t:t + wp])
    return grad


def conv2d_backward_input_loops(kernels, grad_out):
    cout, cin, kh, kw = kernels.shape
    _, hp, wp = grad_out.shape
    grad = np.zeros((cin, hp + kh - 1, wp + kw - 1))
    for o in range(cout):
        for c in range(cin):
            for r in range(kh):
                for t in range(kw):
                    grad[c, r:r + hp, t:t + wp] += kernels[o, c, r, t] * grad_out[o]
    return grad


def maxpool2x2_loops(x):
    c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    pooled = np.zeros((c, h2, w2))
    indices = np.zeros((c, h2, w2), dtype=np.int64)
    for ci in range(c):
        for i in range(h2):
            for j in range(w2):
                best = -np.inf
                # a window with no cell above -inf routes to its first cell
                best_flat = ci * h * w + 2 * i * w + 2 * j
                for a in range(2):
                    for b in range(2):
                        v = x[ci, 2 * i + a, 2 * j + b]
                        if v > best:
                            best = v
                            best_flat = ci * h * w + (2 * i + a) * w + (2 * j + b)
                pooled[ci, i, j] = best
                indices[ci, i, j] = best_flat
    return pooled, indices


def elementwise_pow(t, q):
    """t**q by repeated multiplication; q must be a positive integer.

    The power-stack oracle: q=0 is rejected because the polynomial
    expansion starts at the linear term, constant offsets are carried by
    biases instead.
    """
    if q < 1:
        raise ValueError(f"power must be a positive integer, got {q}")
    out = t.copy()
    for _ in range(q - 1):
        out = out * t
    return out


def central_difference(f, buf, index, h=1e-5):
    """Two-sided difference of scalar f() under in-place mutation of buf."""
    old = buf[index]
    buf[index] = old + h
    fp = f()
    buf[index] = old - h
    fm = f()
    buf[index] = old
    return (fp - fm) / (2.0 * h)


def relative_error(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


@dataclass
class PlainCnnParams:
    """Weights of an ordinary conv-tanh-pool classifier."""

    kernels: list     # per block, [Cout, Cin, Kh, Kw]
    conv_biases: list  # per block, [Cout]
    hidden_w: np.ndarray
    hidden_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray


def plain_cnn_forward(params: PlainCnnParams, x):
    """Forward pass with this module's own cache layout."""
    block_caches = []
    cur = x
    for kern, cb in zip(params.kernels, params.conv_biases):
        pre = ops.conv2d_valid(cur, kern, cb)
        act = ops.tanh_forward(pre)
        pooled = ops.maxpool2x2(act)
        block_caches.append((cur, act, pooled.shape))
        cur = pooled
    flat = cur.reshape(-1)
    hidden_act = ops.tanh_forward(
        ops.dense_forward(flat, params.hidden_w, params.hidden_b))
    logits = ops.dense_forward(hidden_act, params.out_w, params.out_b)
    return logits, (block_caches, flat, hidden_act)


def plain_cnn_backward(params: PlainCnnParams, cache, grad_logits):
    """Gradients for every parameter plus the network input."""
    block_caches, flat, hidden_act = cache
    g_hidden, g_out_w, g_out_b = ops.dense_backward(
        hidden_act, params.out_w, grad_logits)
    g_hidden_pre = ops.tanh_backward(hidden_act, g_hidden)
    g_flat, g_hidden_w, g_hidden_b = ops.dense_backward(
        flat, params.hidden_w, g_hidden_pre)
    g = g_flat.reshape(block_caches[-1][2])
    g_kernels = [None] * len(params.kernels)
    g_conv_biases = [None] * len(params.kernels)
    for i in range(len(params.kernels) - 1, -1, -1):
        block_in, act, _ = block_caches[i]
        g_act = ops.maxpool2x2_backward(g, act)
        g_pre = ops.tanh_backward(act, g_act)
        g_kernels[i] = ops.conv2d_backward_weights(block_in, g_pre)
        g_conv_biases[i] = g_pre.sum(axis=(1, 2))
        g = ops.conv2d_backward_input(params.kernels[i], g_pre)
    return {
        "kernels": g_kernels,
        "conv_biases": g_conv_biases,
        "hidden_w": g_hidden_w,
        "hidden_b": g_hidden_b,
        "out_w": g_out_w,
        "out_b": g_out_b,
        "input": g,
    }
