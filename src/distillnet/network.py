"""Architecture strings and the LayerStack they instantiate.

Grammar (case-sensitive, no whitespace):

    spec := unit ("-" unit)*
    unit := atom | "(" spec ")" pow? | atom pow
    atom := "c" args? | "mp" args? | "fc" args? | "bn" | "d" args? | "relu" | "s"
    pow  := "^" int

Examples: ``c-mp-c-mp-fc^2-s``, ``c^2-mp-c^2-mp-c^2-mp-fc^2-s``,
``(c-bn-d)^9-fc-bn-d-s``, ``c(5,16)-mp(3)-fc(64)-d(0.3)-s``.

Defaults when a token carries no arguments:

* ``c``  - 3x3 kernel, stride 1, zero padding k//2 (shape-preserving for odd
  kernels; an even kernel grows each spatial dim by one), out_channels =
  32 * 2**(number of pooling layers already placed).
* ``mp`` - 2x2 window, stride = window; trailing rows/columns that do not fill
  a window are dropped.
* ``fc`` - 128 units; the last fc of the stack always has num_classes units.
* ``d``  - drop probability 0.5.

A ReLU is inserted implicitly after every ``c`` and after every ``fc`` except
the final one (the fc feeding softmax), unless the author already wrote an
explicit ``relu`` as the following token. Every spec ends with exactly one
``s``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError, StateError, ValidationError
from .layers import BatchNorm, Conv2d, Dropout, FullyConnected, MaxPool2d, ReLU, Softmax

_ATOMS = {"c", "mp", "fc", "bn", "d", "relu", "s"}
_NUM_RE = re.compile(r"\d+\.\d*|\.\d+|\d+")


@dataclass(frozen=True)
class Token:
    """One expanded architecture token: a layer kind plus its explicit args."""

    kind: str
    args: tuple = ()


def _fmt_num(a):
    return str(a) if isinstance(a, int) else np.format_float_positional(a, trim="-")


def _fmt_token(tok):
    if not tok.args:
        return tok.kind
    return f"{tok.kind}({','.join(_fmt_num(a) for a in tok.args)})"


def render_tokens(tokens):
    """Canonical string for a token list: runs of equal tokens collapse to ^n."""
    parts = []
    i = 0
    while i < len(tokens):
        j = i
        while j < len(tokens) and tokens[j] == tokens[i]:
            j += 1
        run = j - i
        parts.append(_fmt_token(tokens[i]) + (f"^{run}" if run > 1 else ""))
        i = j
    return "-".join(parts)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.i = 0
        self.atom_no = 0

    def _fail(self, msg, pos=None):
        pos = self.i if pos is None else pos
        raise ParseError(f"{msg} (char {pos + 1} of {self.text!r})")

    def _peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self):
        if not self.text:
            raise ParseError("empty architecture string")
        tokens = self._spec()
        if self.i != len(self.text):
            self._fail(f"unexpected {self.text[self.i]!r}")
        return tokens

    def _spec(self):
        tokens = self._unit()
        while self._peek() == "-":
            self.i += 1
            tokens.extend(self._unit())
        return tokens

    def _unit(self):
        if self._peek() == "(":
            self.i += 1
            inner = self._spec()
            if self._peek() != ")":
                self._fail("expected ')'")
            self.i += 1
            return inner * self._pow()
        tok = self._atom()
        return [tok] * self._pow()

    def _pow(self):
        if self._peek() != "^":
            return 1
        self.i += 1
        start = self.i
        m = re.match(r"\d+", self.text[self.i :])
        if not m:
            self._fail("expected an integer repeat count after '^'")
        self.i += m.end()
        n = int(m.group(0))
        if n < 1:
            self._fail("repeat count must be >= 1", start)
        return n

    def _atom(self):
        start = self.i
        m = re.match(r"[a-z]+", self.text[self.i :])
        if not m:
            self._fail("expected a layer token")
        name = m.group(0)
        self.i += m.end()
        self.atom_no += 1
        if name not in _ATOMS:
            raise ParseError(
                f"unknown layer token {name!r} at token {self.atom_no} "
                f"(char {start + 1} of {self.text!r})"
            )
        args = ()
        if self._peek() == "(":
            args = self._args()
        self._check_args(name, args, start)
        return Token(name, args)

    def _args(self):
        self.i += 1  # consume "("
        vals = [self._num()]
        while self._peek() == ",":
            self.i += 1
            vals.append(self._num())
        if self._peek() != ")":
            self._fail("expected ')' after argument list")
        self.i += 1
        return tuple(vals)

    def _num(self):
        m = _NUM_RE.match(self.text, self.i)
        if not m:
            self._fail("expected a number")
        self.i = m.end()
        text = m.group(0)
        return float(text) if "." in text else int(text)

    def _check_args(self, name, args, start):
        def fail(msg):
            self._fail(f"{name}: {msg}", start)

        if name == "c":
            if len(args) > 2 or not all(isinstance(a, int) and a >= 1 for a in args):
                fail("takes (kernel[, out_channels]) positive integers")
        elif name in ("mp", "fc"):
            if len(args) > 1 or not all(isinstance(a, int) and a >= 1 for a in args):
                fail("takes one positive integer argument")
        elif name == "d":
            if len(args) > 1:
                fail("takes one probability argument")
            if args and not 0 <= float(args[0]) < 1:
                fail("drop probability must be in [0, 1)")
        elif args:
            fail("takes no arguments")


def parse_tokens(spec):
    """Expand an architecture string into its flat token list."""
    tokens = _Parser(spec).parse()
    if sum(t.kind == "s" for t in tokens) != 1 or tokens[-1].kind != "s":
        raise ParseError(
            f"architecture must end with exactly one trailing 's': {spec!r}"
        )
    return tokens


def _build_layers(tokens, input_shape, num_classes, rng):
    layers = []
    spatial = tuple(input_shape)  # (channels, h, w) until flattened by fc
    flat = None
    pools_seen = 0
    fc_idx = [i for i, t in enumerate(tokens) if t.kind == "fc"]
    last_fc = fc_idx[-1] if fc_idx else None

    for i, tok in enumerate(tokens[:-1]):
        if tok.kind == "c":
            if flat is not None:
                raise ShapeError("c: convolution cannot follow a fully-connected layer")
            cin, h, w = spatial
            k = tok.args[0] if tok.args else 3
            cout = tok.args[1] if len(tok.args) == 2 else 32 * 2**pools_seen
            pad = k // 2
            oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
            if oh < 1 or ow < 1:
                raise ShapeError(f"c: {k}x{k} kernel does not fit {h}x{w} input")
            layers.append(Conv2d(cin, cout, k, rng))
            spatial = (cout, oh, ow)
        elif tok.kind == "mp":
            if flat is not None:
                raise ShapeError("mp: pooling cannot follow a fully-connected layer")
            cin, h, w = spatial
            win = tok.args[0] if tok.args else 2
            if h // win < 1 or w // win < 1:
                raise ShapeError(
                    f"mp: {win}x{win} window would pool {h}x{w} below 1x1"
                )
            layers.append(MaxPool2d(win))
            spatial = (cin, h // win, w // win)
            pools_seen += 1
        elif tok.kind == "fc":
            features = flat if flat is not None else int(np.prod(spatial))
            if i == last_fc:
                units = num_classes
                if tok.args and tok.args[0] != num_classes:
                    raise ShapeError(
                        f"fc: final fc must have num_classes={num_classes} units, "
                        f"got {tok.args[0]}"
                    )
            else:
                units = tok.args[0] if tok.args else 128
            layers.append(FullyConnected(features, units, rng))
            flat, spatial = units, None
        elif tok.kind == "bn":
            channels = spatial[0] if flat is None else flat
            layers.append(BatchNorm(channels))
        elif tok.kind == "d":
            layers.append(Dropout(float(tok.args[0]) if tok.args else 0.5))
        elif tok.kind == "relu":
            layers.append(ReLU())
        # implicit activation after conv and after every fc but the last
        wants_relu = tok.kind == "c" or (tok.kind == "fc" and i != last_fc)
        if wants_relu and tokens[i + 1].kind != "relu":
            layers.append(ReLU())

    features = flat if flat is not None else int(np.prod(spatial))
    if features != num_classes:
        raise ShapeError(
            f"s: softmax input has {features} features but num_classes is "
            f"{num_classes}; end the spec with an fc"
        )
    layers.append(Softmax())
    return layers


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
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.arch = render_tokens(tokens)
        self.mode = "train"
        self.rng = np.random.default_rng(0)
        self._probs = None  # the last train-mode output, until backward reads it

    def set_mode(self, mode):
        if mode not in ("train", "eval"):
            raise ValidationError(f"unknown stack mode {mode!r}")
        self.mode = mode
        if mode == "eval":
            self._probs = None

    @property
    def dtype(self):
        """The parameters' dtype (float64, from He init): ``forward`` casts the
        images and ``backward`` the targets to it, the engine's only casts."""
        return np.result_type(*self.parameters(), 1.0)  # float64 if none

    def forward(self, x):
        """Run the stack; returns (N, num_classes) class probabilities."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"expected batch of shape (N, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}"
            )
        if x.shape[0] < 1:
            raise ShapeError("empty batch")
        train = self.mode == "train"
        for layer in self.layers:
            x = layer.forward(x, train, self.rng)
        if train:
            self._probs = x
        return x

    def predict(self, images, batch_size=256):
        """Eval-mode (N, num_classes) probabilities, ``batch_size`` rows at a time.

        The stack's previous mode is restored afterwards, also on error.
        """
        if len(images) == 0:
            raise ShapeError("empty batch")
        prev = self.mode
        self.set_mode("eval")
        try:
            return np.concatenate(
                [self.forward(images[s : s + batch_size])
                 for s in range(0, len(images), batch_size)]
            )
        finally:
            self.set_mode(prev)

    def backward(self, targets):
        """Gradient of mean cross-entropy w.r.t. every parameter.

        Starts from d(loss)/d(logits) = (probs - targets) / N, which is the
        exact gradient of mean cross-entropy through the final softmax, and
        propagates it through the remaining layers in reverse. Returns one
        gradient array per parameter, aligned with ``parameters()``.
        """
        if self.mode != "train" or self._probs is None:
            raise StateError("backward requires a preceding train-mode forward")
        targets = np.asarray(targets, dtype=self.dtype)
        if targets.shape != self._probs.shape:
            raise ShapeError(
                f"targets shape {targets.shape} does not match output "
                f"shape {self._probs.shape}"
            )
        grad = (self._probs - targets) / targets.shape[0]
        for layer in reversed(self.layers[:-1]):
            grad = layer.backward(grad)
        self._probs = None
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


def parse_arch(spec, input_shape, num_classes, seed=0):
    """Parse an architecture string and instantiate it for the given shapes.

    Parameters are He-initialized from ``np.random.default_rng(seed)``, layer
    by layer in stack order, so equal (spec, shapes, seed) always yields
    bit-identical stacks.
    """
    if len(input_shape) != 3 or any(int(d) < 1 for d in input_shape):
        raise ValidationError(f"input_shape must be 3 positive dims, got {input_shape}")
    if num_classes < 1:
        raise ValidationError(f"num_classes must be positive, got {num_classes}")
    tokens = parse_tokens(spec)
    rng = np.random.default_rng(seed)
    layers = _build_layers(tokens, tuple(int(d) for d in input_shape), num_classes, rng)
    return LayerStack(layers, tokens, tuple(int(d) for d in input_shape), num_classes)
