"""Layer vocabulary: conv, max-pool, fully-connected, batchnorm, dropout, relu, softmax.

Each layer computes, allocates and views in its input's dtype, never casts
and widens no sum; ``LayerStack`` decides the dtype. Activations keep the
(N, C, H, W) shape until a fully-connected layer flattens them to
(N, features), but their memory may be channels-last (N, H, W, C): Conv2d
returns a view of its (N*H*W, C) GEMM rows and builds its input gradient
channels-last, ReLU and MaxPool2d keep the order they are given, and
BatchNorm reads a 4-d input as its channels-last rows and returns them. No layer
but the softmax caches its own output, so a ReLU may overwrite the fresh output of
the conv, max-pool, fc or batchnorm before it. In both
modes a conv unfolds and multiplies one cache-sized run of whole images at a
time. Each kind writes only its maths, ``_forward(x, train, rng) -> (y, cache)``
and ``_backward(dy, cache) -> dx``, and builds no cache in eval mode; ``Layer``
keeps a train-mode forward's cache and hands it to the next ``backward`` once,
so eval-mode forwards leave no state behind. The softmax's ``dy`` is the target
rows: it returns the fused softmax + cross-entropy gradient. A stack clears
``input_grad`` on its first layer, whose input gradient nothing reads, so a
leading conv or fc computes only its parameter gradients.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, StateError


def softmax(logits):
    """Row-wise softmax of a (N, K) array, shifted by the row max for stability."""
    z = np.asarray(logits)
    if z.ndim != 2:
        raise ShapeError(f"softmax expects a 2-d array, got shape {z.shape}")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class Layer:
    """Base layer: holds parameters, their gradients, and a forward cache."""

    kind = "?"
    # False on a stack's first layer: Conv2d and FullyConnected then skip the
    # input-gradient GEMM and their backward returns None.
    input_grad = True

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.cache = None

    def param_items(self):
        """Trainable arrays in a fixed order."""
        return list(self.params.items())

    def state_items(self):
        """All persistent arrays (trainable plus running statistics)."""
        return self.param_items()

    def forward(self, x, train, rng):
        """The layer's output; a train-mode call keeps the cache ``backward`` takes."""
        y, cache = self._forward(x, train, rng)
        if train:
            self.cache = cache
        return y

    def backward(self, dy):
        """The input gradient (None where ``input_grad`` is off); sets ``grads``.
        Takes the last train-mode forward's cache, so a second call raises."""
        cache, self.cache = self.cache, None
        if cache is None:
            raise StateError(f"{self.kind}: backward called without a train-mode forward")
        return self._backward(dy, cache)


# Most column bytes in one Conv2d run: few enough that its GEMM reads them from cache.
_COL_BYTES = 8 << 20


def _runs(n, image_bytes):
    """Split n images into equal (start, end) runs of at most ``_COL_BYTES``.

    A one-image run may exceed the cap. When n splits, equal runs (unlike full
    chunks and a remainder) each hold at least a quarter of the cap, so no GEMM
    gets small enough for a BLAS small-matrix kernel, which sums in another order.
    """
    parts = -(-n // max(1, _COL_BYTES // image_bytes))
    return [(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


def _im2col(x, k, pad, out=None):
    """Unfold k*k patches of an (N, C, H, W) array, zero-padded by pad, into rows.

    Returns cols of shape (N*oh*ow, k*k*C), in ``out`` (C-contiguous) if given: row
    (n*oh*ow + i*ow + j) holds the patch producing output pixel (i, j), and
    column (u*k*C + v*C + c) holds input channel c at kernel offset (u, v).
    The patches are gathered from a channels-last padded copy, so each run
    copied is C contiguous values; the copy is freed on return.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    win = sliding_window_view(xp, (k, k), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    cols = np.empty(win.shape, x.dtype) if out is None else out.reshape(win.shape)
    cols[...] = win
    return cols.reshape(-1, k * k * c)


class Conv2d(Layer):
    """2-d convolution (cross-correlation), stride 1, zero padding k//2.

    Weights are He-initialized: W ~ N(0, sqrt(2 / fan_in)) with
    fan_in = in_channels * k * k, biases start at zero. The weight keeps its
    (out, in, k, k) shape; the GEMMs read it as (out, k*k*in) rows in the
    column order of ``_im2col``. The forward pass therefore sums each output
    over (u, v, c) rather than (c, u, v): a conv with more than one input
    channel may differ in the last bits from versions that summed channel
    first (with one input channel, or k = 1, the two orders coincide). Reruns
    stay byte-identical. No backward sum runs along the column axis, so the
    gradients equal the channel-first formulation's bit for bit.

    Both modes unfold and multiply one run of ``_runs`` at a time. Eval mode
    holds one run's columns; train mode keeps the whole batch's for backward's
    one weight-gradient GEMM, and backward builds dx run by run. All bytes
    equal an unsplit conv's. Buffers take their operands' dtype.
    """

    kind = "c"

    def __init__(self, in_channels, out_channels, kernel, rng):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pad = kernel // 2
        fan_in = in_channels * kernel * kernel
        self.params["weight"] = rng.normal(
            0.0, np.sqrt(2.0 / fan_in), (out_channels, in_channels, kernel, kernel)
        )
        self.params["bias"] = np.zeros(out_channels)

    def _weight_rows(self):
        """The weight as (out, k*k*in) rows, columns in (u, v, c) order."""
        return self.params["weight"].transpose(0, 2, 3, 1).reshape(self.out_channels, -1)

    def _forward(self, x, train, rng):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"c: expected (N, {self.in_channels}, H, W), got shape {x.shape}")
        n, c, h, w = x.shape
        k, p = self.kernel, self.pad
        oh, ow = h + 2 * p - k + 1, w + 2 * p - k + 1
        w_rows = self._weight_rows().T
        y = np.empty((n * oh * ow, self.out_channels), dtype=np.result_type(x, w_rows))
        cols = np.empty((len(y), k * k * c), dtype=x.dtype) if train else None
        for s, e in _runs(n, oh * ow * k * k * c * x.itemsize):
            rows = slice(s * oh * ow, e * oh * ow)
            run = _im2col(x[s:e], k, p, out=cols[rows] if train else None)
            np.matmul(run, w_rows, out=y[rows])
            y[rows] += self.params["bias"]
            del run  # before the next run's columns are built
        y = y.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        return y, (cols, x.shape) if train else None

    def _backward(self, dy, cache):
        cols, (n, c, h, w_in) = cache
        k, p = self.kernel, self.pad
        oh, ow = dy.shape[2:]

        dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        dw = (dy_mat.T @ cols).reshape(self.out_channels, k, k, c)
        self.grads["weight"] = dw.transpose(0, 3, 1, 2)
        self.grads["bias"] = dy_mat.sum(axis=0)
        if not self.input_grad:
            return None

        # Scatter column gradients back to (padded) input pixels: with stride 1
        # each kernel offset (u, v) adds one shifted dense (run, oh, ow, c) slab,
        # in place of an index-based col2im. The buffer is channels-last like
        # the column rows, and the returned (N, C, H, W) view keeps that order.
        w_rows, m = self._weight_rows(), oh * ow
        dxp = np.zeros((n, h + 2 * p, w_in + 2 * p, c), dtype=np.result_type(dy, w_rows))
        for s, e in _runs(n, m * k * k * c * cols.itemsize):  # forward's runs
            dcols = (dy_mat[s * m : e * m] @ w_rows).reshape(e - s, oh, ow, k, k, c)
            for u in range(k):
                for v in range(k):
                    dxp[s:e, u : u + oh, v : v + ow] += dcols[:, :, :, u, v]
        return dxp[:, p : p + h, p : p + w_in].transpose(0, 3, 1, 2)


class MaxPool2d(Layer):
    """Max pooling with a square window and stride equal to the window.

    Trailing rows/columns that do not fill a window are ignored. The window is
    read as window**2 strided slabs x[:, :, u::window, v::window], one per
    offset (u, v) in row-major order. Train mode records, per output, the
    index of the first slab that holds the max, so backward routes every
    output gradient to exactly one input pixel (ties break to the first
    position in row-major window order). Backward builds dx in dy's dtype,
    copying dy's bits through the unsigned integer type of the same width.
    """

    kind = "mp"

    def __init__(self, window):
        super().__init__()
        self.window = window

    def _slabs(self, x):
        """The window**2 (N, C, H // window, W // window) views of x, row-major."""
        n, c, h, w = x.shape
        win = self.window
        oh, ow = h // win, w // win
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"mp: {win}x{win} window does not fit input of {h}x{w}"
            )
        return [
            x[:, :, u : oh * win : win, v : ow * win : win]
            for u in range(win)
            for v in range(win)
        ]

    def _forward(self, x, train, rng):
        slabs = self._slabs(x)
        out = slabs[0].copy(order="K")
        for slab in slabs[1:]:
            # maximum returns its second operand when both compare equal
            # (+0.0 against -0.0), so the earlier slab's value is kept.
            np.maximum(slab, out, out=out)
        return out, (self._first_max(slabs, out), x.shape) if train else None

    @staticmethod
    def _first_max(slabs, out):
        """Per output, the index of the first slab equal to its max."""
        # idx counts the slabs before the first match; the last slab needs no
        # test because a window that matched nowhere earlier matches there.
        missed = np.not_equal(slabs[0], out)
        idx = missed.astype(np.min_scalar_type(len(slabs) - 1))
        ne = np.empty_like(missed)
        for slab in slabs[1:-1]:
            missed &= np.not_equal(slab, out, out=ne)
            idx += missed
        return idx

    def _backward(self, dy, cache):
        idx, x_shape = cache
        # idx has the input's memory order, so dx gets it too
        dx = np.zeros_like(idx, dtype=dy.dtype, shape=x_shape)
        # Select on the bit patterns: dy's bits times 1 or 0 give dy or +0.0
        # exactly, and run far faster than a masked copy.
        bits = dy.view(f"u{dy.itemsize}")
        hit = np.empty_like(idx, dtype=bool)
        for k, slab in enumerate(self._slabs(dx)):
            np.multiply(bits, np.equal(idx, k, out=hit), out=slab.view(bits.dtype))
        return dx


class FullyConnected(Layer):
    """Affine layer y = flatten(x) @ W + b with He-initialized W (in, out)."""

    kind = "fc"

    def __init__(self, in_features, out_features, rng):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.params["weight"] = rng.normal(
            0.0, np.sqrt(2.0 / in_features), (in_features, out_features)
        )
        self.params["bias"] = np.zeros(out_features)

    def _forward(self, x, train, rng):
        xf = x.reshape(x.shape[0], -1)
        if xf.shape[1] != self.in_features:
            raise ShapeError(
                f"fc: expected {self.in_features} input features, got {xf.shape[1]}"
            )
        y = xf @ self.params["weight"] + self.params["bias"]
        return y, (xf, x.shape) if train else None

    def _backward(self, dy, cache):
        xf, x_shape = cache
        self.grads["weight"] = xf.T @ dy
        self.grads["bias"] = dy.sum(axis=0)
        if not self.input_grad:
            return None
        return (dy @ self.params["weight"].T).reshape(x_shape)


class ReLU(Layer):
    """max(x, 0), implicit after each conv (past the max-pools right after it)
    and fc. The stack sets ``in_place`` where nothing else reads x, to overwrite it."""

    kind = "relu"
    in_place = False

    def _forward(self, x, train, rng):
        mask = x > 0 if train else None
        return np.maximum(x, 0.0, out=x if self.in_place else None), mask

    def _backward(self, dy, mask):
        return dy * mask


class BatchNorm(Layer):
    """Per-channel batch normalization with affine gamma/beta.

    x_hat = (x - mu) / sqrt(var + eps), y = gamma * x_hat + beta.
    Statistics are taken over (N, H, W) for 4-d inputs and over N for 2-d
    inputs, using the biased variance. A 4-d input is read as its (N*H*W, C)
    channels-last rows, so its bits do not depend on its memory layout, and
    the output is an (N, C, H, W) view of channels-last rows. Running
    statistics are tracked with momentum 0.9 and used verbatim in eval mode.
    """

    kind = "bn"
    eps = 1e-5
    momentum = 0.9

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
        self.params["gamma"] = np.ones(channels)
        self.params["beta"] = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def state_items(self):
        return self.param_items() + [
            ("running_mean", self.running_mean),
            ("running_var", self.running_var),
        ]

    def _forward(self, x, train, rng):
        if x.ndim not in (2, 4):
            raise ShapeError(f"bn: expected 2-d or 4-d input, got shape {x.shape}")
        if x.shape[1] != self.channels:
            raise ShapeError(f"bn: expected {self.channels} channels, got {x.shape[1]}")
        rows = self._rows(x)
        if train:
            mu = rows.mean(axis=0)
            var = rows.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mu, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (rows - mu) * inv_std
        y = self._unrows(self.params["gamma"] * xhat + self.params["beta"], x.shape)
        return y, (xhat, inv_std, x.shape) if train else None

    def _backward(self, dy, cache):
        xhat, inv_std, shape = cache
        dy = self._rows(dy)
        m = dy.shape[0]
        dgamma = (dy * xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        self.grads["gamma"] = dgamma
        self.grads["beta"] = dbeta
        dx = self.params["gamma"] * inv_std * (dy - dbeta / m - xhat * dgamma / m)
        return self._unrows(dx, shape)

    def _rows(self, x):
        """(N*H*W, C) rows of a 4-d input: a view if channels-last, else a C-order copy."""
        return x.transpose(0, 2, 3, 1).reshape(-1, self.channels) if x.ndim == 4 else x

    @staticmethod
    def _unrows(rows, shape):
        """A 4-d shape's (N, C, H, W) view of channels-last rows; 2-d rows as they are."""
        n, c, *hw = shape
        return rows.reshape(n, *hw, c).transpose(0, 3, 1, 2) if hw else rows


class Dropout(Layer):
    """Inverted dropout: train keeps each unit with prob 1-p and scales by 1/(1-p); eval is the identity."""

    kind = "d"

    def __init__(self, p):
        super().__init__()
        self.p = p

    def _forward(self, x, train, rng):
        if not train:
            return x, None
        mask = rng.random(x.shape) >= self.p
        return x * mask / (1.0 - self.p), mask

    def _backward(self, dy, mask):
        return dy * mask / (1.0 - self.p)


class Softmax(Layer):
    """Final layer: flattens, then row-wise softmax to class probabilities. Its
    backward takes target rows and returns the fused softmax + mean
    cross-entropy gradient, (probs - targets) / N, in its input's shape."""

    kind = "s"

    def _forward(self, x, train, rng):
        probs = softmax(x.reshape(x.shape[0], -1))
        return probs, (probs, x.shape) if train else None

    def _backward(self, targets, cache):
        probs, x_shape = cache
        if targets.shape != probs.shape:
            raise ShapeError(f"targets {targets.shape} do not match output {probs.shape}")
        return ((probs - targets) / targets.shape[0]).reshape(x_shape)
