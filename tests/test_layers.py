import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillnet.errors import ShapeError, StateError
from distillnet.layers import (
    _COL_BYTES,
    BatchNorm,
    Conv2d,
    Dropout,
    FullyConnected,
    MaxPool2d,
    ReLU,
    _im2col,
    _runs,
    softmax,
)
from distillnet import network
from distillnet.network import parse_arch

from numpy.lib.stride_tricks import sliding_window_view

from gradcheck import away_from_zero, check_layer, distinct_grid, max_rel_err, numeric_grad


def test_softmax_frozen_values():
    # softmax([1, 2, 3]) computed independently: e^1, e^2, e^3 normalized
    out = softmax(np.array([[1.0, 2.0, 3.0]]))[0]
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    assert np.allclose(out, expected, atol=1e-6)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_shift_invariance_and_stability():
    z = np.random.default_rng(0).normal(size=(5, 7))
    assert np.allclose(softmax(z), softmax(z + 123.0), atol=1e-12)
    # huge logits must not overflow
    big = softmax(np.array([[1000.0, 1000.0, 0.0]]))
    assert np.isfinite(big).all()
    assert big[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_softmax_rejects_non_2d():
    with pytest.raises(ShapeError):
        softmax(np.zeros(3))
    with pytest.raises(ShapeError):
        softmax(np.zeros((2, 3, 4)))


def test_conv_shape_and_padding():
    rng = np.random.default_rng(0)
    conv = Conv2d(2, 5, 3, rng)
    y = conv.forward(np.ones((4, 2, 8, 8)), False, rng)
    assert y.shape == (4, 5, 8, 8)  # 3x3 with pad 1 preserves spatial dims
    conv5 = Conv2d(1, 3, 5, rng)
    y5 = conv5.forward(np.ones((2, 1, 9, 9)), False, rng)
    assert y5.shape == (2, 3, 9, 9)


def test_conv_matches_naive_convolution():
    rng = np.random.default_rng(3)
    conv = Conv2d(2, 3, 3, rng)
    x = rng.normal(size=(2, 2, 5, 5))
    y = conv.forward(x, False, rng)
    w, b = conv.params["weight"], conv.params["bias"]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for n in (0, 1):
        for o in range(3):
            for i in range(5):
                for j in range(5):
                    ref = (xp[n, :, i : i + 3, j : j + 3] * w[o]).sum() + b[o]
                    assert y[n, o, i, j] == pytest.approx(ref, rel=1e-12)


def test_conv_gradients_match_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        conv = Conv2d(2, 3, 3, rng)
        x = rng.normal(size=(2, 2, 5, 5))
        assert check_layer(conv, x, seed=100 + seed) < 1e-4


def test_conv_even_kernel_grows_output():
    rng = np.random.default_rng(0)
    conv = Conv2d(1, 2, 2, rng)  # pad 2//2 = 1, output h + 2 - 2 + 1 = h + 1
    y = conv.forward(np.zeros((1, 1, 4, 4)), False, rng)
    assert y.shape == (1, 2, 5, 5)


def test_maxpool_forward_values_and_flooring():
    pool = MaxPool2d(2)
    x = np.arange(36, dtype=np.float64).reshape(1, 1, 6, 6)
    rng = np.random.default_rng(0)
    y = pool.forward(x, False, rng)
    assert y.shape == (1, 1, 3, 3)
    assert y[0, 0, 0, 0] == 7.0  # max of rows 0-1, cols 0-1
    assert y[0, 0, 2, 2] == 35.0
    # odd input: trailing row/column is dropped
    x7 = np.arange(49, dtype=np.float64).reshape(1, 1, 7, 7)
    y7 = pool.forward(x7, False, rng)
    assert y7.shape == (1, 1, 3, 3)
    assert y7[0, 0, 2, 2] == 40.0  # never sees row/col 6


def test_maxpool_below_1x1_raises():
    pool = MaxPool2d(4)
    with pytest.raises(ShapeError):
        pool.forward(np.zeros((1, 1, 2, 2)), False, np.random.default_rng(0))


def test_maxpool_backward_routes_to_single_argmax():
    pool = MaxPool2d(2)
    x = distinct_grid((2, 3, 6, 6), seed=1)
    rng = np.random.default_rng(0)
    pool.forward(x, True, rng)
    dy = np.random.default_rng(2).normal(size=(2, 3, 3, 3))
    dx = pool.backward(dy)
    # each output gradient lands on exactly one input pixel
    assert int((dx != 0).sum()) == dy.size
    # and the total mass is conserved exactly
    assert math.fsum(dx.ravel().tolist()) == pytest.approx(
        math.fsum(dy.ravel().tolist()), abs=1e-12
    )
    # every nonzero entry sits at its window's argmax
    for n in range(2):
        for c in range(3):
            for i in range(3):
                for j in range(3):
                    window = x[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    d_window = dx[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    flat = np.flatnonzero(d_window)
                    assert flat.size == 1
                    assert flat[0] == window.argmax()


def test_maxpool_tie_breaks_to_first_position():
    pool = MaxPool2d(2)
    x = np.ones((1, 1, 2, 2))
    pool.forward(x, True, np.random.default_rng(0))
    dx = pool.backward(np.full((1, 1, 1, 1), 5.0))
    assert dx[0, 0, 0, 0] == 5.0
    assert dx.sum() == 5.0


def test_maxpool_gradients_match_finite_differences():
    for seed in range(5):
        pool = MaxPool2d(2)
        x = distinct_grid((2, 2, 6, 6), seed=seed)
        assert check_layer(pool, x, seed=200 + seed) < 1e-4


# ---------------------------------------------------------------------------
# Oracles: the gather-based max-pool and the channels-first conv columns and
# scatter that the strided kernels replaced. The kernels must agree with them
# bit for bit, signed zeros included, whatever the memory order of their
# inputs; only the conv forward, which now sums in (u, v, c) order, is held
# to a tolerance (bit for bit where the two orders coincide).


def _ref_maxpool_forward(x, win):
    n, c, h, w = x.shape
    oh, ow = h // win, w // win
    xc = x[:, :, : oh * win, : ow * win]
    flat = xc.reshape(n, c, oh, win, ow, win).transpose(0, 1, 2, 4, 3, 5)
    flat = flat.reshape(n, c, oh, ow, win * win)
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def _ref_maxpool_backward(idx, dy, x_shape, win):
    n, c, h, w = x_shape
    oh, ow = idx.shape[2:]
    buf = np.zeros((n, c, oh, ow, win * win))
    np.put_along_axis(buf, idx[..., None], dy[..., None], axis=-1)
    buf = buf.reshape(n, c, oh, ow, win, win).transpose(0, 1, 2, 4, 3, 5)
    dx = np.zeros((n, c, h, w))
    dx[:, :, : oh * win, : ow * win] = buf.reshape(n, c, oh * win, ow * win)
    return dx


def _ref_im2col(x, k, pad):
    """Columns in (c, u, v) order, gathered from a channels-first padded copy."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = h + 2 * pad - k + 1
    ow = w + 2 * pad - k + 1
    win = sliding_window_view(x, (k, k), axis=(2, 3))  # (n, c, oh, ow, k, k)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * k * k)
    return np.ascontiguousarray(cols), oh, ow


def _ref_conv_forward(conv, x):
    cols, oh, ow = _ref_im2col(x, conv.kernel, conv.pad)
    y = cols @ conv.params["weight"].reshape(conv.out_channels, -1).T + conv.params["bias"]
    return y.reshape(x.shape[0], oh, ow, conv.out_channels).transpose(0, 3, 1, 2)


def _ref_conv_backward(conv, x, dy):
    n, c, h, w_in = x.shape
    k, p = conv.kernel, conv.pad
    cols, oh, ow = _ref_im2col(x, k, p)
    w_mat = conv.params["weight"].reshape(conv.out_channels, -1)
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)
    dw = (dy_mat.T @ cols).reshape(conv.params["weight"].shape)
    db = dy_mat.sum(axis=0)
    dcols = (dy_mat @ w_mat).reshape(n, oh, ow, c, k, k).transpose(0, 3, 4, 5, 1, 2)
    dxp = np.zeros((n, c, h + 2 * p, w_in + 2 * p))
    for u in range(k):
        for v in range(k):
            dxp[:, :, u : u + oh, v : v + ow] += dcols[:, :, u, v]
    return dxp[:, :, p : p + h, p : p + w_in], dw, db


def _assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # logical order, so layout-blind


def _channels_last(a):
    """The (N, C, H, W) view of a channels-last copy, as Conv2d.forward emits."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _signed_zeros(rng, shape):
    """Values with many exact ties: -0.0 and 0.0 mixed with a few positives."""
    x = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    hot = rng.random(shape) < 0.2
    x[hot] = rng.integers(1, 3, size=int(hot.sum()))
    return x


def _late_max(rng, shape):
    """A 17x17 window whose max ties at flat positions 287 and 288, past uint8."""
    x = rng.integers(0, 50, size=shape) * 1.0
    x[:, :, 16, 15:17] = 99.0
    x[:, :, :, 17] = 1000.0  # trailing column, outside every window
    return x


_POOL_CASES = {
    # name: (shape, window, input maker)
    "channels_last": ((4, 6, 8, 8), 2, lambda r, s: _channels_last(r.normal(size=s))),
    "quantized_ties": ((3, 4, 6, 6), 2, lambda r, s: r.integers(0, 3, size=s).astype(float)),
    "signed_zeros": ((3, 5, 8, 6), 2, lambda r, s: _channels_last(_signed_zeros(r, s))),
    "window3_trailing": ((2, 3, 8, 7), 3, lambda r, s: _channels_last(r.integers(0, 4, size=s) * 1.0)),
    "batch1": ((1, 3, 5, 5), 2, lambda r, s: r.normal(size=s)),
    "window17_wide_index": ((2, 2, 17, 18), 17, lambda r, s: _late_max(r, s)),
}


@pytest.mark.parametrize("case", sorted(_POOL_CASES))
def test_maxpool_matches_oracle_bytes(case):
    shape, win, make = _POOL_CASES[case]
    rng = np.random.default_rng(sorted(_POOL_CASES).index(case))
    x = make(rng, shape)
    want_y, want_idx = _ref_maxpool_forward(x, win)
    dy = np.where(rng.random(want_y.shape) < 0.3, -0.0, rng.normal(size=want_y.shape))
    want_dx = _ref_maxpool_backward(want_idx, dy, x.shape, win)

    pool = MaxPool2d(win)
    _assert_same_bytes(pool.forward(x, False, rng), want_y)
    _assert_same_bytes(pool.forward(x, True, rng), want_y)
    # one of the two dy orders differs from the indices' and is copied into
    # theirs first; either way dx has the oracle's bytes and x's memory order
    for dy_in in (dy, _channels_last(dy)):
        pool.forward(x, True, rng)
        dx = pool.backward(dy_in)
        _assert_same_bytes(dx, want_dx)
        assert np.argsort(dx.strides).tolist() == np.argsort(x.strides).tolist()


def test_relu_backward_builds_dx_in_its_inputs_memory_order():
    # an fc hands a channels-first gradient to the ReLU after a pool whose
    # output is channels-last: dx comes back channels-last, with dy * mask's bits
    rng = np.random.default_rng(13)
    x = _channels_last(rng.normal(size=(2, 3, 4, 5)))
    dy = rng.normal(size=x.shape)
    relu = ReLU()
    relu.forward(x, True, rng)
    dx = relu.backward(dy)
    _assert_same_bytes(dx, dy * (x > 0))
    assert dx.strides == np.empty_like(x).strides


def test_maxpool_keeps_first_signed_zero():
    # the windows tie at zero; the first position's sign wins, as with argmax
    x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]], [[[0.0, -0.0], [-0.0, 0.0]]]])
    y = MaxPool2d(2).forward(x, False, np.random.default_rng(0))
    assert np.signbit(y).ravel().tolist() == [True, False]


_CONV_CASES = {
    # name: (x shape, out channels, kernel, x and dy are channels-last)
    "channels_last_k3": ((4, 3, 7, 6), 5, 3, True),
    "image_input_k3": ((3, 2, 6, 6), 4, 3, False),
    "even_kernel": ((2, 3, 5, 5), 4, 2, True),
    "k1_no_pad": ((2, 4, 4, 3), 3, 1, True),
    "k5": ((2, 2, 7, 7), 3, 5, False),
    "batch1": ((1, 3, 6, 5), 4, 3, True),
    "one_channel_k3": ((3, 1, 6, 7), 4, 3, False),
    # 15 x 1024 x 288 float64 columns, past _COL_BYTES: both modes run the
    # batch as 5 runs of 3 images
    "over_cap_k3": ((15, 32, 32, 32), 4, 3, True),
}


def _conv_case(case):
    """(conv with a random bias, input x, rng) for one _CONV_CASES entry."""
    shape, cout, k, channels_last = _CONV_CASES[case]
    rng = np.random.default_rng(10 + sorted(_CONV_CASES).index(case))
    conv = Conv2d(shape[1], cout, k, rng)
    conv.params["bias"] = rng.normal(size=cout)
    x = _signed_zeros(rng, shape) + rng.integers(0, 2, size=shape) * rng.normal(size=shape)
    if channels_last:
        x = _channels_last(x)
    return conv, x, rng


@pytest.mark.parametrize("case", sorted(_CONV_CASES))
def test_conv_forward_matches_channel_major_reference(case):
    conv, x, rng = _conv_case(case)
    want = _ref_conv_forward(conv, x)
    for train in (False, True):
        got = conv.forward(x, train, rng)
        if x.shape[1] == 1 or conv.kernel == 1:
            _assert_same_bytes(got, want)  # the two column orders coincide
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", sorted(_CONV_CASES))
def test_conv_backward_matches_oracle_bytes(case):
    conv, x, rng = _conv_case(case)
    y = conv.forward(x, True, rng)
    assert len(conv.cache[0]) == y.size // conv.out_channels  # every output pixel
    # upstream ReLU backward: dy * mask turns masked negatives into -0.0
    dy = rng.normal(size=y.shape) * (rng.random(y.shape) < 0.6)
    if _CONV_CASES[case][3]:
        dy = _channels_last(dy)
    assert np.signbit(dy[dy == 0]).any()
    want_dx, want_dw, want_db = _ref_conv_backward(conv, x, dy)

    got_dx = conv.backward(dy)
    _assert_same_bytes(got_dx, want_dx)
    _assert_same_bytes(conv.grads["weight"], want_dw)
    _assert_same_bytes(conv.grads["bias"], want_db)


def test_over_cap_case_exceeds_the_column_cap():
    shape, _, k, _ = _CONV_CASES["over_cap_k3"]
    n, c, h, w = shape
    assert n * h * w * k * k * c * 8 > _COL_BYTES


def _one_shot_conv(conv, x):
    """The whole batch's columns in one GEMM: an unchunked Conv2d.forward."""
    n, _, h, w = x.shape
    k, p = conv.kernel, conv.pad
    oh, ow = h + 2 * p - k + 1, w + 2 * p - k + 1
    y = _im2col(x, k, p) @ conv._weight_rows().T + conv.params["bias"]
    return y.reshape(n, oh, ow, conv.out_channels).transpose(0, 3, 1, 2)


_CHUNK_CASES = {
    # name: (x shape, out channels, kernel, x is channels-last); chunk is the
    # number of images whose float64 columns fit in _COL_BYTES (8 MB)
    "below_one_chunk": ((5, 32, 16, 16), 32, 3, True),  # chunk 14: one run
    "uneven_runs": ((33, 32, 16, 16), 32, 3, True),  # chunk 14: runs of 11
    # chunk 14: runs of 7 and 8, never a lone image, whose 256 x 4 GEMM
    # may take a BLAS small-matrix kernel that sums in another order
    "one_past_chunk": ((15, 32, 16, 16), 4, 3, True),
    "image_over_cap": ((2, 32, 64, 64), 4, 3, True),  # chunk 1
    "k1": ((18, 256, 16, 16), 8, 1, True),  # chunk 16: runs of 9
    "k5": ((6, 8, 32, 32), 8, 5, False),  # chunk 5: runs of 3
    "one_channel": ((10, 1, 128, 128), 8, 3, False),  # chunk 7: runs of 5
}


@pytest.mark.parametrize("case", sorted(_CHUNK_CASES))
def test_conv_eval_chunks_match_one_shot_gemm_bytes(case):
    shape, cout, k, channels_last = _CHUNK_CASES[case]
    rng = np.random.default_rng(sorted(_CHUNK_CASES).index(case))
    conv = Conv2d(shape[1], cout, k, rng)
    conv.params["bias"] = rng.normal(size=cout)
    x = rng.normal(size=shape)
    if channels_last:
        x = _channels_last(x)
    got = conv.forward(x, False, rng)
    _assert_same_bytes(got, _one_shot_conv(conv, x))
    assert got.transpose(0, 2, 3, 1).flags.c_contiguous  # channels-last rows


def _one_shot_conv_backward(conv, x, dy):
    """dx, dW and db from the whole batch's columns: an unsplit Conv2d.backward."""
    n, c, h, w = x.shape
    k, p = conv.kernel, conv.pad
    oh, ow = h + 2 * p - k + 1, w + 2 * p - k + 1
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)
    dw = (dy_mat.T @ _im2col(x, k, p)).reshape(conv.out_channels, k, k, c)
    dcols = (dy_mat @ conv._weight_rows()).reshape(n, oh, ow, k, k, c)
    dxp = np.zeros((n, h + 2 * p, w + 2 * p, c))
    for u in range(k):
        for v in range(k):
            dxp[:, u : u + oh, v : v + ow] += dcols[:, :, :, u, v]
    dx = dxp[:, p : p + h, p : p + w].transpose(0, 3, 1, 2)
    return dx, dw.transpose(0, 3, 1, 2), dy_mat.sum(axis=0)


_TRAIN_RUN_CASES = {
    # name: (x shape, out channels, kernel, x and dy are channels-last);
    # chunk as in _CHUNK_CASES
    "four_out_channels": ((30, 32, 16, 16), 4, 3, True),  # chunk 14: runs of 10
    "k1": ((40, 256, 16, 16), 8, 1, True),  # chunk 16: runs of 13 and 14
    "k5": ((12, 8, 32, 32), 8, 5, False),  # chunk 5: runs of 4
    "uneven_batch": ((25, 16, 24, 24), 8, 3, True),  # chunk 12: runs of 8 and 9
}


@pytest.mark.parametrize("case", sorted(_TRAIN_RUN_CASES))
def test_conv_train_runs_match_one_shot_bytes(case):
    shape, cout, k, channels_last = _TRAIN_RUN_CASES[case]
    rng = np.random.default_rng(20 + sorted(_TRAIN_RUN_CASES).index(case))
    conv = Conv2d(shape[1], cout, k, rng)
    conv.params["bias"] = rng.normal(size=cout)
    x = _signed_zeros(rng, shape) + rng.integers(0, 2, size=shape) * rng.normal(size=shape)
    dy_shape = (shape[0], cout) + shape[2:]
    dy = rng.normal(size=dy_shape) * (rng.random(dy_shape) < 0.6)
    if channels_last:
        x, dy = _channels_last(x), _channels_last(dy)
    assert len(_runs(shape[0], shape[2] * shape[3] * k * k * shape[1] * 8)) >= 3

    _assert_same_bytes(conv.forward(x, True, rng), _one_shot_conv(conv, x))
    want_dx, want_dw, want_db = _one_shot_conv_backward(conv, x, dy)
    _assert_same_bytes(conv.backward(dy), want_dx)
    _assert_same_bytes(conv.grads["weight"], want_dw)
    _assert_same_bytes(conv.grads["bias"], want_db)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 5000), st.integers(1, 3 * _COL_BYTES))
def test_runs_are_equal_whole_image_runs_within_the_cap(n, image_bytes):
    runs = _runs(n, image_bytes)
    assert runs[0][0] == 0 and runs[-1][1] == n
    assert all(end == start for (_, end), (start, _) in zip(runs, runs[1:]))
    sizes = [e - s for s, e in runs]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    for size in sizes:
        if size > 1:
            assert size * image_bytes <= _COL_BYTES
        if len(runs) > 1:  # no lone small remainder, not even of one image
            assert 4 * size * image_bytes >= _COL_BYTES


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("shape", [(2, 5, 6, 6), (2, 1, 6, 6), (3, 6, 6), (2, 3, 6, 6, 1)])
def test_conv_rejects_wrong_channels_or_rank(shape, train):
    conv = Conv2d(3, 4, 3, np.random.default_rng(0))
    with pytest.raises(ShapeError, match=re.escape(f"expected (N, 3, H, W), got shape {shape}")):
        conv.forward(np.zeros(shape), train, np.random.default_rng(0))
    assert conv.cache is None  # raised before anything was built


def test_conv_eval_memory_is_bounded():
    # one-shot columns of this forward are 256 x 1024 x 288 float64 (604 MB)
    rng = np.random.default_rng(0)
    conv = Conv2d(32, 32, 3, rng)
    x = rng.normal(size=(256, 32, 32, 32))
    tracemalloc.start()
    try:
        conv.forward(x, False, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 << 20, f"eval conv forward peaked at {peak / 2**20:.0f} MB"


def test_stack_predict_matches_train_forward_bytes(monkeypatch):
    # every conv after the first splits these 300 images into several runs
    monkeypatch.setattr(network, "EVAL_BATCH", 300)
    stack = parse_arch("c^2-mp-c^2-mp-c^2-mp-fc^2-s", (3, 16, 16), 10, seed=3)
    x = np.random.default_rng(4).normal(size=(300, 3, 16, 16))
    want = stack.predict(x)
    stack.set_mode("train")
    _assert_same_bytes(stack.forward(x), want)


def test_fc_forward_matches_matmul_and_flattens():
    rng = np.random.default_rng(0)
    fc = FullyConnected(12, 5, rng)
    x = rng.normal(size=(3, 3, 2, 2))
    y = fc.forward(x, False, rng)
    ref = x.reshape(3, 12) @ fc.params["weight"] + fc.params["bias"]
    assert np.allclose(y, ref, atol=1e-12)


def test_fc_feature_mismatch_raises():
    fc = FullyConnected(12, 5, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        fc.forward(np.zeros((2, 13)), False, np.random.default_rng(0))


def test_fc_gradients_match_finite_differences():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        fc = FullyConnected(12, 5, rng)
        x = rng.normal(size=(3, 12))
        assert check_layer(fc, x, seed=300 + seed) < 1e-4


def test_fc_backward_restores_input_shape():
    rng = np.random.default_rng(0)
    fc = FullyConnected(12, 5, rng)
    x = rng.normal(size=(3, 3, 2, 2))
    fc.forward(x, True, rng)
    dx = fc.backward(np.ones((3, 5)))
    assert dx.shape == x.shape


def test_relu_forward_and_gradient():
    relu = ReLU()
    x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
    rng = np.random.default_rng(0)
    assert np.array_equal(relu.forward(x, False, rng), [[0.0, 0.0, 0.0, 0.5, 2.0]])
    for seed in range(5):
        x = away_from_zero(np.random.default_rng(seed).normal(size=(3, 4, 4)))
        assert check_layer(ReLU(), x, seed=400 + seed) < 1e-4


def test_batchnorm_train_normalizes_batch():
    bn = BatchNorm(3)
    rng = np.random.default_rng(0)
    x = rng.normal(loc=5.0, scale=4.0, size=(16, 3, 6, 6))
    y = bn.forward(x, True, rng)
    mean = y.mean(axis=(0, 2, 3))
    var = y.var(axis=(0, 2, 3))
    assert np.abs(mean).max() < 1e-6
    assert np.allclose(var, 1.0, atol=1e-4)


def test_batchnorm_running_stats_and_eval_mode():
    bn = BatchNorm(2)
    rng = np.random.default_rng(1)
    x = rng.normal(loc=2.0, scale=3.0, size=(8, 2, 4, 4))
    expect_mean = np.zeros(2)
    expect_var = np.ones(2)
    for _ in range(3):
        bn.forward(x, True, rng)
        expect_mean = 0.9 * expect_mean + 0.1 * x.mean(axis=(0, 2, 3))
        expect_var = 0.9 * expect_var + 0.1 * x.var(axis=(0, 2, 3))
    assert np.allclose(bn.running_mean, expect_mean, atol=1e-12)
    assert np.allclose(bn.running_var, expect_var, atol=1e-12)
    # eval uses the running stats, not the batch stats
    y = bn.forward(x, False, rng)
    ref = (x - bn.running_mean.reshape(1, 2, 1, 1)) / np.sqrt(
        bn.running_var.reshape(1, 2, 1, 1) + 1e-5
    )
    assert np.allclose(y, ref, atol=1e-12)


def test_batchnorm_2d_input():
    bn = BatchNorm(5)
    rng = np.random.default_rng(2)
    x = rng.normal(loc=-1.0, scale=2.0, size=(32, 5))
    y = bn.forward(x, True, rng)
    assert np.abs(y.mean(axis=0)).max() < 1e-6
    assert np.allclose(y.var(axis=0), 1.0, atol=1e-4)


def test_batchnorm_gradients_match_finite_differences():
    for seed in range(5):
        bn4 = BatchNorm(3)
        x4 = np.random.default_rng(seed).normal(size=(4, 3, 3, 3))
        assert check_layer(bn4, x4, seed=500 + seed) < 1e-4
        bn2 = BatchNorm(6)
        x2 = np.random.default_rng(seed + 50).normal(size=(7, 6))
        assert check_layer(bn2, x2, seed=550 + seed) < 1e-4


def _channels_last(a):
    """The same values as ``a``, held in (N, H, W, C) memory as a conv returns them."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("shape", [(32, 16, 14, 14), (64, 32, 7, 7), (8, 6, 5, 5)])
def test_batchnorm_bits_do_not_depend_on_memory_layout(shape):
    # equal values as an NCHW array and as a channels-last view give equal
    # bits in every output, running statistic and gradient, train and eval
    rng = np.random.default_rng(11)
    x = rng.normal(loc=1.5, scale=2.0, size=shape)
    dy = rng.normal(size=shape)
    runs = []
    for layout in (np.ascontiguousarray, _channels_last):
        bn = BatchNorm(shape[1])
        y = bn.forward(layout(x), True, rng)
        dx = bn.backward(layout(dy))
        y_eval = bn.forward(layout(x), False, rng)
        runs.append([y, bn.running_mean, bn.running_var, dx,
                     bn.grads["gamma"], bn.grads["beta"], y_eval])
    for nchw, channels_last in zip(*runs):
        assert nchw.tobytes() == channels_last.tobytes()


def test_dropout_eval_is_identity():
    drop = Dropout(0.5)
    x = np.random.default_rng(0).normal(size=(4, 5, 5))
    assert np.array_equal(drop.forward(x, False, np.random.default_rng(1)), x)


def test_dropout_train_statistics_and_scaling():
    p = 0.3
    drop = Dropout(p)
    x = np.ones((1, 100, 100))
    y = drop.forward(x, True, np.random.default_rng(7))
    kept = y != 0
    # survivors are scaled by exactly 1/(1-p)
    assert np.allclose(y[kept], 1.0 / (1.0 - p), atol=1e-12)
    # keep rate is binomial around 1-p: 4 sigma on n=10000
    n = x.size
    rate = kept.sum() / n
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(rate - (1 - p)) < 4 * sigma
    # expectation is preserved
    assert y.mean() == pytest.approx(1.0, abs=5 * sigma / (1 - p))


def test_dropout_zero_p_keeps_everything():
    drop = Dropout(0.0)
    x = np.random.default_rng(0).normal(size=(3, 4))
    y = drop.forward(x, True, np.random.default_rng(1))
    assert np.allclose(y, x, atol=1e-12)


def test_dropout_gradients_match_finite_differences():
    for seed in range(5):
        drop = Dropout(0.4)
        x = np.random.default_rng(seed).normal(size=(3, 5, 5))
        assert check_layer(drop, x, seed=600 + seed) < 1e-4


def test_backward_before_forward_raises():
    layers = [
        Conv2d(1, 2, 3, np.random.default_rng(0)),
        MaxPool2d(2),
        FullyConnected(4, 2, np.random.default_rng(0)),
        ReLU(),
        BatchNorm(2),
        Dropout(0.5),
    ]
    for layer in layers:
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 2)))


def test_eval_forward_leaves_no_cache():
    conv = Conv2d(1, 2, 3, np.random.default_rng(0))
    conv.forward(np.zeros((1, 1, 4, 4)), False, np.random.default_rng(0))
    with pytest.raises(StateError):
        conv.backward(np.zeros((1, 2, 4, 4)))


_BACKWARD_KINDS = {
    "c": lambda rng: Conv2d(3, 4, 3, rng),
    "mp": lambda rng: MaxPool2d(2),
    "fc": lambda rng: FullyConnected(48, 5, rng),
    "relu": lambda rng: ReLU(),
    "bn": lambda rng: BatchNorm(3),
    "d": lambda rng: Dropout(0.5),
}


@pytest.mark.parametrize("kind", sorted(_BACKWARD_KINDS))
def test_backward_takes_the_train_forward_cache_once(kind):
    # Layer keeps the last train-mode forward's cache: an eval forward on other
    # input in between changes no byte of dx or of the gradients, and the
    # cache is handed over once, so a second backward raises
    rng = np.random.default_rng(3)
    layer = _BACKWARD_KINDS[kind](rng)
    x, other = rng.normal(size=(2, 2, 3, 4, 4))
    dy = rng.normal(size=layer.forward(x, True, np.random.default_rng(5)).shape)

    def run(eval_between):
        layer.forward(x, True, np.random.default_rng(5))  # same dropout mask
        if eval_between:
            layer.forward(other, False, np.random.default_rng(6))
        dx = layer.backward(dy)
        with pytest.raises(StateError):
            layer.backward(dy)
        return [dx] + [layer.grads[name] for name, _ in layer.param_items()]

    direct, interleaved = run(False), run(True)
    for got, want in zip(interleaved, direct):
        _assert_same_bytes(got, want)


def test_softmax_cross_entropy_fused_gradient():
    # d(mean CE)/d(logits) = (softmax(z) - target) / N, checked against FD
    from distillnet.training import cross_entropy

    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(4, 7))
        t_logits = rng.normal(size=(4, 7))
        target = softmax(t_logits)  # generic soft target rows

        analytic = (softmax(z) - target) / z.shape[0]

        def loss():
            return cross_entropy(softmax(z), target)

        assert max_rel_err(analytic, numeric_grad(loss, z)) < 1e-6
