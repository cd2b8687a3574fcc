"""The dtype contract: a stack computes in its parameters' dtype, every layer
follows the dtype it is given, and float64 is written out only at the named
wide sites."""

import ast
from pathlib import Path

import numpy as np

import distillnet
from distillnet.data import one_hot_rows
from distillnet.network import parse_arch

# every layer kind: conv, implicit relu, max-pool, batchnorm, fc, dropout, softmax
ARCH = "c(3,4)-mp-bn-fc(8)-d(0.25)-fc-s"


def _cast_state(stack, dtype):
    """Cast every state array of a stack, running statistics included."""
    for layer in stack.layers:
        for name, arr in layer.state_items():
            if name in layer.params:
                layer.params[name] = arr.astype(dtype)
            else:
                setattr(layer, name, arr.astype(dtype))


def _record(stack):
    """Wrap each layer so its forward outputs and input gradients are kept."""
    outs, in_grads = [], []
    for layer in stack.layers:
        def forward(x, train, rng, _f=layer.forward):
            outs.append(_f(x, train, rng))
            return outs[-1]

        def backward(dy, _b=layer.backward):
            dx = _b(dy)
            if dx is not None:  # the first layer computes no input gradient
                in_grads.append(dx)
            return dx

        layer.forward, layer.backward = forward, backward
    return outs, in_grads


def _run(dtype):
    """(layer outputs, input grads, parameter grads, eval probabilities) of
    one train step and one predict; the inputs are float64 either way."""
    rng = np.random.default_rng(5)
    images = rng.uniform(0.0, 1.0, (6, 2, 8, 8))
    targets = one_hot_rows(np.arange(6) % 3, 3)
    stack = parse_arch(ARCH, (2, 8, 8), 3, seed=0)
    _cast_state(stack, dtype)
    outs, in_grads = _record(stack)
    stack.rng = np.random.default_rng(1)  # same dropout mask for both dtypes
    stack.forward(images)
    param_grads = stack.backward(targets)
    probs = stack.predict(images)
    return outs, in_grads, param_grads, probs


def test_float32_stack_stays_float32_and_tracks_float64():
    ref = _run(np.float64)
    got = _run(np.float32)
    kinds = ("layer outputs", "input gradients", "parameter gradients")
    for kind, ref_arrays, arrays in zip(kinds, ref, got):
        assert len(arrays) == len(ref_arrays) > 0, kind
        for i, (a, r) in enumerate(zip(arrays, ref_arrays)):
            assert r.dtype == np.float64, (kind, i)
            assert a.dtype == np.float32, (kind, i, a.dtype)
            atol = 1e-5 * max(float(np.abs(r).max()), 1e-12)
            np.testing.assert_allclose(a, r, rtol=1e-4, atol=atol, err_msg=f"{kind} {i}")
    assert got[3].dtype == np.float32
    np.testing.assert_allclose(got[3], ref[3], rtol=1e-4, atol=1e-6)


def test_stack_dtype_is_its_parameters_dtype():
    stack = parse_arch(ARCH, (2, 8, 8), 3, seed=0)
    assert stack.dtype == np.float64  # He init
    # images of any dtype are cast once, by the stack
    probs = stack.predict(np.zeros((2, 2, 8, 8), dtype=np.float32))
    assert probs.dtype == np.float64
    _cast_state(stack, np.float32)
    assert stack.dtype == np.float32
    assert stack.predict(np.zeros((2, 2, 8, 8))).dtype == np.float32
    # a stack without parameters computes in numpy's default float
    assert parse_arch("s", (3, 1, 1), 3).dtype == np.float64


# Every place src/ names float64 or its bit view uint64, by enclosing
# function, each kept wide on purpose: the loss, the distribution sum checks,
# the soft-label checksum (defined over the float64 payload) and the one
# place images get their dtype.
WIDE_SITES = sorted([
    ("data.py", "LabeledImageSet.__init__"),
    ("pipeline.py", "image_payload_checksum"),
    ("pipeline.py", "load_soft_labels"),
    ("training.py", "cross_entropy"),
    ("training.py", "cross_entropy"),
    ("training.py", "invalid_distribution_row"),
])
_WIDE_NAMES = {"float64", "uint64"}
_WIDE_STRINGS = {"float64", "uint64", "f8", "<f8", "u8", "<u8"}


def _wide_references(path):
    """(file name, enclosing qualified name) per float64/uint64 reference."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr in _WIDE_NAMES
                    or isinstance(child, ast.Constant) and child.value in _WIDE_STRINGS):
                found.append((path.name, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_float64_is_named_only_at_the_wide_sites():
    src = Path(distillnet.__file__).parent
    found = sorted(ref for path in sorted(src.glob("*.py")) for ref in _wide_references(path))
    assert found == WIDE_SITES
