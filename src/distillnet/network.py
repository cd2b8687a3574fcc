"""Architecture strings and the LayerStack they instantiate.

Grammar (case-sensitive, no whitespace):

    spec := unit ("-" unit)*
    unit := (kind args? | "(" spec ")") pow?
    args := "(" num ("," num)* ")"
    pow  := "^" int

``_KINDS`` is where each kind (``c``, ``mp``, ``fc``, ``bn``, ``d``,
``relu``, ``s``) and its arguments are declared: how many it takes at most
and the rule they keep.

Examples: ``c-mp-c-mp-fc^2-s``, ``c^2-mp-c^2-mp-c^2-mp-fc^2-s``,
``(c-bn-d)^9-fc-bn-d-s``, ``c(5,16)-mp(3)-fc(64)-d(0.3)-s``.

Defaults when a token carries no arguments:

* ``c``  - 3x3 kernel, stride 1, zero padding k//2 (shape-preserving for odd
  kernels; an even kernel grows each spatial dim by one), out_channels =
  32 * 2**(number of pooling layers already placed).
* ``mp`` - 2x2 window, stride = window; trailing rows/columns that do not fill
  a window are dropped.
* ``fc`` - 128 units, or num_classes units for the last fc of the stack.
* ``d``  - drop probability 0.5.

A ReLU is inserted implicitly after every ``c`` and after every ``fc`` except
the final one (the fc feeding softmax), unless the author already wrote an
explicit ``relu`` as the following token. A conv's goes after the ``mp``
tokens right after it, so it reads only the pooled values: relu(max(w)) ==
max(relu(w)) bit for bit, and neither layer holds state. A ReLU after a ``c``,
``mp``, ``fc`` or ``bn`` writes in place. Every spec ends with exactly one ``s``.

A spec expands to at most ``_MAX_TOKENS`` tokens, nests "(...)" at most
``_MAX_DEPTH`` deep and writes no integer longer than ``_MAX_DIGITS`` digits;
past a bound it is a ``ParseError``, raised before the expansion is built. A
stack holds at most ``_MAX_WEIGHTS`` values in its layers; a conv, fc or bn
that would pass it is a ``ShapeError``. One walk over the shapes alone runs
every fit check and that bound, and counts those values: ``arch_size`` returns
the count and makes no layer, ``parse_arch`` makes none until the walk passes.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import re
import sys
import threading
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import ParseError, ShapeError, ValidationError
from .layers import BatchNorm, Conv2d, Dropout, FullyConnected, MaxPool2d, ReLU, Softmax

EVAL_BATCH = 32  # rows in every eval-mode forward of LayerStack.predict
_THREAD_MIN = 256  # values per image below which predict keeps to one thread
_QUOTE = 40  # characters of the arch string a ParseError quotes around its place
_MAX_TOKENS = 1000
_MAX_DEPTH = 32
_MAX_DIGITS = 9
_MAX_WEIGHTS = 10**8  # values a stack's layers may hold: weights, biases, bn statistics

_KINDS = {  # kind: (most arguments, the rule its arguments keep)
    "c": (2, "takes (kernel[, out_channels]) positive integers"),
    "mp": (1, "takes one positive integer argument"),
    "fc": (1, "takes one positive integer argument"),
    "d": (1, "takes one drop probability in [0, 1)"),
    "bn": (0, "takes no arguments"),
    "relu": (0, "takes no arguments"),
    "s": (0, "takes no arguments"),
}
_NUM = r"(?:\d+\.\d*|\.\d+|\d+)"
_ATOM = re.compile(rf"([a-z]+)(?:\(({_NUM}(?:,{_NUM})*)\))?")
_POW = re.compile(r"\^(\d*)")


@dataclass(frozen=True)
class Token:
    """One expanded architecture token: a layer kind plus its explicit args."""

    kind: str
    args: tuple = ()


def _fmt_token(tok):
    if not tok.args:
        return tok.kind
    nums = (str(a) if isinstance(a, int) else np.format_float_positional(a, trim="-")
            for a in tok.args)
    return f"{tok.kind}({','.join(nums)})"


def render_tokens(tokens):
    """Canonical string for a token list: runs of equal tokens collapse to ^n."""
    runs = ((tok, sum(1 for _ in run)) for tok, run in groupby(tokens))
    return "-".join(_fmt_token(tok) + (f"^{n}" if n > 1 else "") for tok, n in runs)


def _excerpt(text, i):
    """``text`` quoted in a ``_QUOTE``-character window around position ``i``."""
    lo = max(0, min(i - _QUOTE // 2, len(text) - _QUOTE))
    cut = "..." if lo + _QUOTE < len(text) else ""
    return ("..." if lo else "") + repr(text[lo : lo + _QUOTE]) + cut


def _fail(text, i, msg):
    raise ParseError(f"{msg} (char {i + 1} of {_excerpt(text, i)})")


def _int(text, i, digits):
    if len(digits) > _MAX_DIGITS:
        _fail(text, i, f"a number has more than {_MAX_DIGITS} digits")
    return int(digits)


def _spec(text, i, depth=0):
    """Read ``unit ("-" unit)*`` from ``text[i:]``; returns (tokens, end)."""
    tokens = []
    while True:
        if text.startswith("(", i):
            if depth == _MAX_DEPTH:
                _fail(text, i, f"groups nest deeper than {_MAX_DEPTH}")
            unit, i = _spec(text, i + 1, depth + 1)
            if not text.startswith(")", i):
                _fail(text, i, "expected ')'")
            i += 1
        else:
            m = _ATOM.match(text, i)
            if not m:
                _fail(text, i, "expected a layer token")
            kind, nums = m.groups()
            if kind not in _KINDS:
                # every letter before i belongs to an atom already read
                n = len(re.findall("[a-z]+", text[:i])) + 1
                _fail(text, i, f"unknown layer token {_excerpt(kind, 0)} at token {n}")
            if text.startswith("(", m.end()):
                _fail(text, m.end(), f"{kind}: expected numbers in (...)")
            args = () if nums is None else tuple(
                float(num[0]) if "." in num[0] else _int(text, m.start(2) + num.start(), num[0])
                for num in re.finditer(_NUM, nums))
            most, rule = _KINDS[kind]
            if len(args) > most or not all(
                0 <= a < 1 if kind == "d" else isinstance(a, int) and a >= 1 for a in args
            ):
                _fail(text, i, f"{kind}: {rule}")
            unit, i = [Token(kind, args)], m.end()
        m = _POW.match(text, i)
        reps = _int(text, i + 1, m[1] or "0") if m else 1
        if reps < 1:
            _fail(text, i + 1, "expected a repeat count >= 1 after '^'")
        if len(tokens) + len(unit) * reps > _MAX_TOKENS:
            _fail(text, i, f"expands to more than {_MAX_TOKENS} tokens")
        tokens += unit * reps
        i = m.end() if m else i
        if not text.startswith("-", i):
            return tokens, i
        i += 1


def parse_tokens(spec):
    """Expand an architecture string into its flat token list."""
    tokens, end = _spec(spec, 0)
    if end != len(spec):
        _fail(spec, end, f"unexpected {spec[end]!r}")
    if sum(t.kind == "s" for t in tokens) != 1 or tokens[-1].kind != "s":
        raise ParseError(
            f"architecture must end with exactly one trailing 's': {_excerpt(spec, len(spec))}"
        )
    return tokens


def _hold(held, size, i, tok):
    """``held + size``, the values a stack holds once token ``i`` adds its
    layer; past ``_MAX_WEIGHTS`` a ShapeError, before any layer is made."""
    if held + size > _MAX_WEIGHTS:
        raise ShapeError(f"{_fmt_token(tok)} (token {i + 1}): the stack would hold"
                         f" {held + size:,} weights, more than {_MAX_WEIGHTS:,}")
    return held + size


def _walk(spec, input_shape, num_classes, rng):
    """(tokens, makers, held): ``spec``'s tokens, one zero-argument maker per
    layer in stack order, and the values the layers will hold. Every check runs
    here, so nothing is made before all have passed. ``shape`` is the (channels,
    h, w) of each token's input until an fc, then (features,)."""
    shape = tuple(int(d) for d in input_shape)
    if len(shape) != 3 or min(shape) < 1:
        raise ValidationError(f"input_shape must be 3 positive dims, got {input_shape}")
    if num_classes < 1:
        raise ValidationError(f"num_classes must be positive, got {num_classes}")
    tokens, makers = parse_tokens(spec), []
    pools = held = 0
    due = False
    last_fc = max((i for i, t in enumerate(tokens) if t.kind == "fc"), default=None)
    for i, tok in enumerate(tokens[:-1]):
        kind, args = tok.kind, tok.args
        if kind in ("c", "mp") and len(shape) == 1:
            raise ShapeError(f"{kind}: cannot follow a fully-connected layer")
        if kind == "c":
            k = args[0] if args else 3
            cout = args[1] if len(args) == 2 else 32 * 2**pools
            held = _hold(held, cout * (shape[0] * k * k + 1), i, tok)
            makers.append(functools.partial(Conv2d, shape[0], cout, k, rng))
            # pad k//2 keeps h for an odd kernel and grows it by one for an even
            shape = (cout, shape[1] + 1 - k % 2, shape[2] + 1 - k % 2)
        elif kind == "mp":
            win = args[0] if args else 2
            if min(shape[1:]) < win:
                raise ShapeError(
                    f"mp: {win}x{win} window would pool {shape[1]}x{shape[2]} below 1x1"
                )
            makers.append(functools.partial(MaxPool2d, win))
            shape = (shape[0], shape[1] // win, shape[2] // win)
            pools += 1
        elif kind == "fc":
            units = args[0] if args else (num_classes if i == last_fc else 128)
            held = _hold(held, units * (math.prod(shape) + 1), i, tok)
            makers.append(functools.partial(FullyConnected, math.prod(shape), units, rng))
            shape = (units,)
        elif kind == "bn":
            held = _hold(held, 4 * shape[0], i, tok)
            makers.append(functools.partial(BatchNorm, shape[0]))
        elif kind == "d":
            makers.append(functools.partial(Dropout, float(args[0]) if args else 0.5))
        elif kind == "relu":
            makers.append(ReLU)
        if kind != "mp":  # implicit activation after conv and every fc but the last
            due = (kind == "c" or kind == "fc" and i != last_fc) and tokens[i + 1].kind != "relu"
        if due and tokens[i + 1].kind != "mp":  # a conv's waits past its max-pools
            makers.append(ReLU)
    if math.prod(shape) != num_classes:
        raise ShapeError(
            f"s: softmax input has {math.prod(shape)} features but num_classes is "
            f"{num_classes}; the layer before s must give num_classes values"
        )
    return tokens, makers + [Softmax], held


@functools.cache
def _blas_threads():
    """numpy's bundled OpenBLAS thread-count (getter, setter), found once.

    None where there is one core or no such library: ``predict`` then runs
    its batches, and ``train_step`` its halves, on the calling thread alone,
    with the same bytes, and this says so once on stderr.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cores or 1) < 2:
        why = "one core"
    else:
        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else ():
            if "openblas" in name:
                lib = ctypes.CDLL(os.path.join(libs, name))
                get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
                put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
                if get is not None and put is not None:
                    put.argtypes = [ctypes.c_int]
                    return get, put
        why = "numpy's OpenBLAS thread setter not found"
    print(f"distillnet: predict batches and train halves run on one thread ({why})",
          file=sys.stderr)
    return None


@functools.cache
def _keep_freed_memory():
    """Fix glibc's malloc settings, once: blocks of up to 32 MB come from the
    heap, up to 128 MB of free heap top stays mapped, and every thread that
    allocates from here on shares the one heap. ``_run_batches`` calls it, so
    it holds for every predict block and train half. glibc starts both
    thresholds at 128 KB and raises them to the largest block the process has
    freed from its own mmap, and twice that; a block over the one is mapped
    anew each time, and free heap over the other goes back to the kernel, so
    the next block or call faulted the same memory in again: 3,967 minor
    faults per warmed 50-image predict of ``c^2-mp-fc^2-s`` on 3x32x32, where
    the fixed settings make 3-8, and about 8,000 faults and 20-30 ms of system
    time per split mnist mentor step (2-core VM, numpy 2.4.6, OpenBLAS). On
    one heap a worker reuses the blocks the caller freed, where its own heap
    held its peak beside the caller's (+3.4 MB on the mnist train-student
    verb); the heap's free top then reaches past 64 MB, the most glibc's own
    rule keeps. No-op without glibc's ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX


def _run_batches(fn, batches, image_values):
    """``[fn(b) for b in batches]``, on the engine's one thread budget and
    glibc's fixed malloc settings (``_keep_freed_memory``).

    ``predict`` runs its eval blocks here and ``train_step`` its two halves.
    Batch ``i`` runs on thread ``i % 2``, the caller or one worker, while
    BLAS is held at one thread, so worker threads times BLAS threads never
    exceed the cores. With one batch, one core, no OpenBLAS to hold, or
    images under ``_THREAD_MIN`` values, the caller runs every batch and
    BLAS is left as it is: small images' batches are short numpy calls that
    mostly hold the GIL, so two threads would trade it back and forth (a
    1x8x8 stack's 400-image test pass ran slower on two). Either way each
    batch runs the same calls on the same shapes, and OpenBLAS splits a GEMM
    over its output, not its sums, so the bytes do not depend on the path.
    An error in the worker is raised here after it ends.
    """
    _keep_freed_memory()
    blas = _blas_threads() if len(batches) > 1 and image_values >= _THREAD_MIN else None
    if blas is None:
        return [fn(b) for b in batches]
    out, failed = [None] * len(batches), []

    def run(first):
        for i in range(first, len(batches), 2):
            out[i] = fn(batches[i])

    def work():
        try:
            run(1)
        except BaseException as exc:  # re-raised on the calling thread
            failed.append(exc)

    get, put = blas
    old = get()
    put(1)
    worker = threading.Thread(target=work)
    try:
        worker.start()
        try:
            run(0)
        finally:
            worker.join()
    finally:
        put(old)
    if failed:
        raise failed[0]
    return out


def _copy(obj, **state):
    """A shallow copy of ``obj`` with ``state`` set, without the callables
    patched on the instance (a spy on ``forward`` calls the original)."""
    new = object.__new__(type(obj))
    new.__dict__.update({k: v for k, v in vars(obj).items() if not callable(v)}, **state)
    return new


class LayerStack:
    """A sequential network built from an architecture string.

    The stack owns its layers, the canonical string of the tokens it was
    built from (``arch``), a train/eval mode flag, and the RNG that
    train-mode dropout draws from. It clears its first layer's
    ``input_grad``, since nothing reads that layer's input gradient.
    """

    def __init__(self, layers, tokens, input_shape, num_classes):
        self.layers = layers
        layers[0].input_grad = False
        self.input_shape = tuple(int(d) for d in input_shape)
        self.num_classes = num_classes
        self.arch = render_tokens(tokens)
        self.mode = "train"
        self.rng = np.random.default_rng(0)

    def set_mode(self, mode):
        if mode not in ("train", "eval"):
            raise ValidationError(f"unknown stack mode {mode!r}")
        self.mode = mode

    @property
    def dtype(self):
        """The parameters' dtype (float64, from He init): ``forward`` casts the
        images and ``backward`` the targets to it, the engine's only casts."""
        return np.result_type(*self.parameters(), 1.0)  # float64 if none

    def _check_batch(self, shape):
        """A ShapeError unless ``shape`` is that of one or more input images."""
        if len(shape) != 4 or shape[1:] != self.input_shape:
            raise ShapeError(
                f"expected batch of shape (N, {', '.join(map(str, self.input_shape))}), "
                f"got {shape}"
            )
        if shape[0] < 1:
            raise ShapeError("empty batch")

    def forward(self, x):
        """Run the stack; returns (N, num_classes) class probabilities."""
        x = np.asarray(x, dtype=self.dtype)
        self._check_batch(x.shape)
        train = self.mode == "train"
        for layer in self.layers:
            x = layer.forward(x, train, self.rng)
        return x

    def predict(self, images):
        """Eval-mode (N, num_classes) probabilities, in blocks of ``EVAL_BATCH`` rows.

        Every block runs exactly ``EVAL_BATCH`` rows: the last is zero-padded
        in the stack's dtype, and the output is sliced back to N rows. Each
        layer reads a row apart from the others in its block (BLAS sums each
        output over its own row and column only), and every block has the one
        shape, so a row's bytes depend on its image alone: not on N, on its
        place in the images, or on the thread, BLAS thread or core count.
        ``_run_batches`` runs the blocks, on two threads where it can. Layers
        keep no eval-mode state, so two blocks can run side by side and a
        pending train step's caches stay for its ``backward``. The stack's
        previous mode is restored, also on error.
        """
        self._check_batch(np.shape(images))
        n = len(images)
        blocks = [images[s : s + EVAL_BATCH] for s in range(0, n, EVAL_BATCH)]
        last = np.zeros((EVAL_BATCH, *self.input_shape), self.dtype)
        last[: len(blocks[-1])] = blocks[-1]
        blocks[-1] = last
        prev = self.mode
        self.set_mode("eval")
        try:
            out = _run_batches(self.forward, blocks, math.prod(self.input_shape))
            return np.concatenate(out)[:n]
        finally:
            self.set_mode(prev)

    def train_step(self, images, targets):
        """One ``forward`` and ``backward``; returns the probabilities, and
        the layers hold the gradients (``gradients()``).

        A batch of two or more rows splits into rows [0, n//2) and [n//2, n)
        when the stack is in train mode, has a conv and no bn or d, and its
        images hold at least ``_THREAD_MIN`` values. ``_run_batches`` runs
        the halves, on two threads where it can. Each half runs ``forward``
        and ``backward`` on its own copy of the stack (``_half``), whose
        softmax divides by n, and the layers' gradients are the halves'
        summed, first half + second half. Whether a batch splits depends on
        the arch, the image shape and n alone, never on the cores, and each
        half's bytes do not depend on its thread (see ``_run_batches``), so
        neither do the step's. bn would take per-half statistics and d would
        draw its masks in thread order, so those stacks stay whole; so do
        fc-only stacks and small images, which ran slower split.
        """
        n, kinds = len(images), {layer.kind for layer in self.layers}
        if (n < 2 or self.mode != "train" or "c" not in kinds or kinds & {"bn", "d"}
                or math.prod(self.input_shape) < _THREAD_MIN):
            probs = self.forward(images)
            self.backward(targets)
            return probs

        for layer in self.layers:  # the last step's, freed before the halves make theirs
            layer.grads = {}

        def run(rows):
            half = self._half(n)
            probs = half.forward(images[rows])
            half.backward(targets[rows])
            return probs, half.layers

        (first, ones), (second, twos) = _run_batches(
            run, [slice(0, n // 2), slice(n // 2, n)], math.prod(self.input_shape))
        for layer, one, two in zip(self.layers, ones, twos):
            for name, grad in one.grads.items():
                grad += two.grads.pop(name)  # in place: a third copy would raise the peak
            layer.grads = one.grads
        return np.concatenate([first, second])

    def _half(self, batch_rows):
        """A stack on shallow copies of the layers, for one half of a
        ``batch_rows``-row train step: each copy has its own ``cache`` and
        ``grads`` and shares the parameters, and the softmax divides by
        ``batch_rows``."""
        half = _copy(self, layers=[_copy(layer, cache=None, grads={}) for layer in self.layers])
        half.layers[-1].batch_rows = batch_rows
        return half

    def backward(self, targets):
        """Gradient of mean cross-entropy against ``targets`` w.r.t. every parameter.

        Runs every layer's backward in reverse on its last train-mode
        forward's cache, starting from the softmax's on the targets. A
        ``ShapeError`` there uses up its cache, so a retry raises
        ``StateError``. Returns one gradient per parameter, as ``parameters()``.
        """
        grad = np.asarray(targets, dtype=self.dtype)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return self.gradients()

    def parameters(self):
        return [arr for layer in self.layers for _, arr in layer.param_items()]

    def gradients(self):
        return [layer.grads[name] for layer in self.layers for name, _ in layer.param_items()]

    def state_items(self):
        """All persistent arrays (parameters + batchnorm running stats), named."""
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.state_items():
                out.append((f"{i}.{layer.kind}.{name}", arr))
        return out

    def num_parameters(self):
        return sum(p.size for p in self.parameters())


def arch_size(spec, input_shape, num_classes):
    """The values ``parse_arch`` would hold in its layers (the sizes of its
    ``state_items``), with its refusals, by the same walk; makes no layer."""
    return _walk(spec, input_shape, num_classes, None)[2]


def parse_arch(spec, input_shape, num_classes, seed=0):
    """Parse an architecture string and instantiate it for the given shapes.

    Parameters are He-initialized from ``np.random.default_rng(seed)``, layer
    by layer in stack order, so equal (spec, shapes, seed) always yields
    bit-identical stacks. ``seed=None`` draws nothing and leaves the weights
    unset, for a caller that fills every state array, as a checkpoint load does.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    tokens, makers, _ = _walk(spec, input_shape, num_classes, rng)
    layers = [make() for make in makers]
    for prev, relu in zip(layers, layers[1:]):  # outputs that no caller or cache reads
        if relu.kind == "relu":
            relu.in_place = prev.kind in ("c", "mp", "fc", "bn")
    return LayerStack(layers, tokens, input_shape, num_classes)
