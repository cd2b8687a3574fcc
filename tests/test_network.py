import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from distillnet.errors import DistillError, ParseError, ShapeError, StateError, ValidationError
from distillnet import layers, network
from distillnet.network import Token, arch_size, parse_arch, parse_tokens, render_tokens


def kinds(spec):
    return [t.kind for t in parse_tokens(spec)]


def test_expansion_basic():
    assert kinds("c-mp-c-mp-fc^2-s") == ["c", "mp", "c", "mp", "fc", "fc", "s"]
    assert kinds("c^2-mp-c^2-mp-c^2-mp-fc^2-s") == [
        "c", "c", "mp", "c", "c", "mp", "c", "c", "mp", "fc", "fc", "s",
    ]
    assert kinds("fc-s") == ["fc", "s"]


def test_expansion_grouped_power():
    toks = parse_tokens("(c-bn-d)^9-fc-bn-d-s")
    assert len(toks) == 31
    assert [t.kind for t in toks[:6]] == ["c", "bn", "d", "c", "bn", "d"]
    assert [t.kind for t in toks[-4:]] == ["fc", "bn", "d", "s"]


def test_expansion_nested_groups():
    assert kinds("((c-bn)^2-mp)^2-fc-s") == [
        "c", "bn", "c", "bn", "mp", "c", "bn", "c", "bn", "mp", "fc", "s",
    ]


def test_args_are_parsed():
    toks = parse_tokens("c(5,16)-mp(3)-fc(64)-d(0.3)-s")
    assert toks[0] == Token("c", (5, 16))
    assert toks[1] == Token("mp", (3,))
    assert toks[2] == Token("fc", (64,))
    assert toks[3] == Token("d", (0.3,))
    assert toks[4] == Token("s")


def test_power_applies_to_args_token():
    toks = parse_tokens("c(3,8)^2-fc-s")
    assert toks[0] == toks[1] == Token("c", (3, 8))


def test_unknown_token_reports_ordinal_and_position():
    with pytest.raises(ParseError) as err:
        parse_tokens("c-mp-xq-s")
    msg = str(err.value)
    assert "xq" in msg
    assert "token 3" in msg
    assert "char 6" in msg


def test_parse_errors():
    for bad in (
        "",
        "c-mp",          # no trailing s
        "s-c-fc-s",      # s not only at the end
        "c--s",          # empty unit
        "c-mp-fc-s-",    # trailing dash
        "c^0-fc-s",      # repeat below 1
        "c^-fc-s",       # missing repeat count
        "(c-mp-fc-s",    # unclosed group
        "c(-fc-s",       # unclosed args
        "C-fc-s",        # case-sensitive
        "c -fc-s",       # whitespace is not part of the grammar
        "fc(0)-fc-s",    # zero width
        "d(1.0)-fc-s",   # p must be < 1
        "bn(2)-fc-s",    # bn takes no args
        "relu(1)-fc-s",  # relu takes no args
        "c(3,4,5)-fc-s", # too many conv args
        "mp(2,2)-fc-s",  # too many pool args
        "fc^2",          # still no trailing s
    ):
        with pytest.raises(ParseError):
            parse_tokens(bad)


def test_render_parse_round_trip():
    for spec in (
        "c-mp-c-mp-fc^2-s",
        "c^2-mp-c^2-mp-c^2-mp-fc^2-s",
        "(c-bn-d)^9-fc-bn-d-s",
        "c(5,16)-mp(3)-fc(64)-d(0.3)-s",
        "fc-s",
        "c-relu-mp-fc-s",
        "c(3,8)^3-mp-fc(32)^2-fc-s",
        # floats that a 6-significant-digit rendering breaks
        "fc-d(0.00001)-fc-s",
        "fc-d(0.999999999)-fc-s",
        "fc-d(0.1234567)-fc-s",
    ):
        toks = parse_tokens(spec)
        rendered = render_tokens(toks)
        assert parse_tokens(rendered) == toks
        # rendering is a fixed point
        assert render_tokens(parse_tokens(rendered)) == rendered


def _units(body, small):
    """One spec unit: an atom or a parenthesised body, maybe with ^n; ``small``
    draws the kernels, windows and widths."""
    small = small.map(str)
    prob = st.from_regex(r"0?\.[0-9]{1,17}|0\.?", fullmatch=True)
    atom = st.one_of(
        st.tuples(small, st.sampled_from(["", ",8"])).map(lambda a: f"c({a[0]}{a[1]})"),
        st.sampled_from(["c", "mp", "fc", "bn", "d", "relu"]),
        small.map(lambda a: f"mp({a})"),
        small.map(lambda a: f"fc({a})"),
        prob.map(lambda a: f"d({a})"),
    )
    unit = atom | body.map(lambda b: f"({b})")
    power = st.sampled_from(["", "^1", "^2", "^3"])
    return st.tuples(unit, power).map("".join)


def _spec_body(small):
    return st.recursive(
        _units(st.nothing(), small),
        lambda body: st.lists(_units(body, small), min_size=1, max_size=4).map("-".join),
        max_leaves=8,
    )


_SPEC_BODY = _spec_body(st.integers(1, 64))


@settings(max_examples=200, deadline=None, database=None)
@given(_SPEC_BODY.map(lambda body: f"{body}-s"))
def test_render_parse_round_trip_property(spec):
    toks = parse_tokens(spec)
    rendered = render_tokens(toks)
    assert parse_tokens(rendered) == toks
    assert render_tokens(parse_tokens(rendered)) == rendered


# every character the grammar uses, plus a stray one
_ARCH_CHARS = "cmpfbndrelus0123456789.,()-^" + " "


@settings(max_examples=500, deadline=None, database=None)
@given(st.text(_ARCH_CHARS, max_size=24))
def test_parse_tokens_returns_tokens_or_raises_parse_error(text):
    # no string is skipped: "(c^99)^99..." passes the parser's token bound and
    # is refused before it is expanded
    try:
        toks = parse_tokens(text)
    except ParseError:
        return
    assert parse_tokens(render_tokens(toks)) == toks


@settings(max_examples=200, deadline=None, database=None)
@given(
    _spec_body(st.integers(1, 5)),
    st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
    st.integers(2, 5),
)
def test_shape_walk_agrees_with_the_layers(body, input_shape, classes):
    # the builder's shape for each token must be what the layer outputs, or
    # the appended fc's matmul breaks; default conv widths double per pool,
    # so few pools and tokens keep the weights small
    spec = f"{body}-fc-s"
    kinds = [t.kind for t in parse_tokens(spec)]
    assume(kinds.count("mp") <= 3 and len(kinds) <= 30)
    try:
        stack = parse_arch(spec, input_shape, classes, seed=0)
    except ShapeError:
        return
    stack.set_mode("eval")
    assert stack.forward(np.zeros((2, *input_shape))).shape == (2, classes)


def _outcome(fn):
    """fn()'s value, or the type and message of the DistillError it raises."""
    try:
        return fn()
    except DistillError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(_spec_body(st.integers(1, 5)).map(lambda body: f"{body}-s"),
              _spec_body(st.integers(1, 5)).map(lambda body: f"{body}-fc-s"),
              st.text(_ARCH_CHARS, max_size=16)),
    st.tuples(st.sampled_from([1, 2, 3, 0]), st.integers(1, 9), st.integers(1, 9)),
    st.sampled_from([2, 3, 5, 10, 0]),
    st.sampled_from([network._MAX_WEIGHTS, network._MAX_WEIGHTS, 2000, 200]),
)
def test_arch_size_is_what_parse_arch_holds_or_its_refusal(spec, input_shape, classes, bound):
    # the walk alone gives the stack's state_items size, and every refusal of
    # the builder - parse, input, fit and weight bound - with the same message
    assume(spec.count("mp") <= 3 and len(spec) <= 60)
    with mock.patch.object(network, "_MAX_WEIGHTS", bound):
        held = _outcome(lambda: sum(
            arr.size for _, arr in parse_arch(spec, input_shape, classes).state_items()))
        assert _outcome(lambda: arch_size(spec, input_shape, classes)) == held


def _count_layers(monkeypatch):
    """The list every layer made from now on appends its kind to."""
    made, init = [], layers.Layer.__init__

    def counting(self):
        made.append(self.kind)
        init(self)

    monkeypatch.setattr(layers.Layer, "__init__", counting)
    return made


@pytest.mark.parametrize("spec", ["c-mp-c-mp-fc(5)-s", "c-mp-fc(7)-bn-d-s", "c-fc-fc-mp-s"])
def test_an_arch_refused_at_its_last_token_makes_no_layer(monkeypatch, spec):
    # a final fc of the wrong width and a pool after an fc are refused at
    # the last tokens, after every layer's token has been walked, yet no
    # layer is made before the whole walk has passed
    made = _count_layers(monkeypatch)
    with pytest.raises(ShapeError):
        parse_arch(spec, (1, 8, 8), 10)
    assert made == []
    parse_arch("c-mp-fc-s", (1, 8, 8), 10)
    assert made == ["c", "mp", "relu", "fc", "s"]


def test_arch_size_makes_no_layer(monkeypatch):
    made = _count_layers(monkeypatch)
    size = arch_size("c^2-mp-c^2-mp-fc^2-s", (3, 32, 32), 10)
    assert made == []
    stack = parse_arch("c^2-mp-c^2-mp-fc^2-s", (3, 32, 32), 10)
    assert size == sum(arr.size for _, arr in stack.state_items())


def test_render_collapses_runs():
    assert render_tokens(parse_tokens("c-c-mp-fc-fc-s")) == "c^2-mp-fc^2-s"
    # tokens with different args do not collapse
    assert render_tokens(parse_tokens("fc(64)-fc(32)-fc-s")) == "fc(64)-fc(32)-fc-s"


def test_stack_shapes_and_default_channels():
    stack = parse_arch("c-mp-c-mp-fc^2-s", (1, 28, 28), 10, seed=0)
    convs = [l for l in stack.layers if l.kind == "c"]
    assert convs[0].out_channels == 32    # before any pooling
    assert convs[1].out_channels == 64    # after one pool: 32 * 2**1
    fcs = [l for l in stack.layers if l.kind == "fc"]
    assert fcs[0].in_features == 64 * 7 * 7   # 28 -> 14 -> 7
    assert fcs[0].out_features == 128
    assert fcs[1].out_features == 10      # final fc is forced to num_classes
    y = stack.forward(np.zeros((2, 1, 28, 28)))
    assert y.shape == (2, 10)


def test_channel_default_doubles_per_pool():
    stack = parse_arch("c^2-mp-c^2-mp-c^2-mp-fc^2-s", (3, 32, 32), 10, seed=0)
    out_channels = [l.out_channels for l in stack.layers if l.kind == "c"]
    assert out_channels == [32, 32, 64, 64, 128, 128]


def test_implicit_relu_placement():
    # a conv's relu goes past the max-pools right after it; the final fc
    # (feeding softmax) gets no implicit relu
    for spec, kinds in [
        ("c-mp-fc^2-s", ["c", "mp", "relu", "fc", "relu", "fc", "s"]),
        ("c-mp-mp-fc-s", ["c", "mp", "mp", "relu", "fc", "s"]),
    ]:
        stack = parse_arch(spec, (1, 8, 8), 4, seed=0)
        assert [l.kind for l in stack.layers] == kinds, spec


def test_explicit_relu_suppresses_implicit():
    stack = parse_arch("c-relu-mp-fc-relu-fc-s", (1, 8, 8), 4, seed=0)
    layer_kinds = [l.kind for l in stack.layers]
    assert layer_kinds == ["c", "relu", "mp", "fc", "relu", "fc", "s"]


# Each case's layers in the old relu-then-pool order, as indices into the new
# order's layers: every conv's ReLU moved back in front of its max-pools.
_RELU_FIRST = [
    ("c-mp-fc-s", (1, 6, 6), [0, 2, 1, 3, 4]),
    ("c-mp-mp-fc-s", (1, 8, 8), [0, 3, 1, 2, 4, 5]),
    ("c(3,2)-mp(3)-fc-s", (2, 7, 8), [0, 2, 1, 3, 4]),  # a trailing row and columns
    ("c^2-mp-fc-s", (1, 5, 5), [0, 1, 2, 4, 3, 5, 6]),
]
# many exact zeros of both signs: with non-positive biases these give conv
# outputs that tie within a window and windows with no positive value
_PIXEL = st.sampled_from([-2.0, -0.5, -0.0, -0.0, 0.0, 0.0, 0.0, 0.5, 1.5])
_BIAS = st.sampled_from([-1.0, -0.25, -0.0, 0.0, 0.25])


@pytest.mark.parametrize("spec, shape, old", _RELU_FIRST)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_pooling_before_the_relu_keeps_every_byte(spec, shape, old, data):
    # relu(max(w)) == max(relu(w)): the new order gives the old order's
    # probabilities, parameter gradients and predictions byte for byte
    new = parse_arch(spec, shape, 3, seed=0)
    layers = [parse_arch(spec, shape, 3, seed=0).layers[i] for i in old]
    for relu in (l for l in layers if l.kind == "relu"):
        relu.in_place = False  # as every ReLU was before
    ref = network.LayerStack(layers, parse_tokens(spec), shape, 3)
    kinds = [l.kind for l in layers]
    assert all(kinds[i + 1] == "relu" for i, kind in enumerate(kinds) if kind == "c")
    for a, b in zip(*([l for l in s.layers if l.kind == "c"] for s in (new, ref))):
        a.params["bias"][:] = b.params["bias"][:] = data.draw(
            st.lists(_BIAS, min_size=a.out_channels, max_size=a.out_channels))
    size = 3 * shape[0] * shape[1] * shape[2]
    x = np.array(data.draw(st.lists(_PIXEL, min_size=size, max_size=size))).reshape(3, *shape)
    targets = np.eye(3)[[0, 1, 2]]
    got = [new.forward(x).tobytes()] + [g.tobytes() for g in new.backward(targets)]
    want = [ref.forward(x).tobytes()] + [g.tobytes() for g in ref.backward(targets)]
    assert got == want
    assert new.predict(x).tobytes() == ref.predict(x).tobytes()


def test_relus_after_a_fresh_output_write_in_place():
    stack = parse_arch("c-mp-fc^2-s", (1, 8, 8), 4, seed=0)
    assert [l.in_place for l in stack.layers if l.kind == "relu"] == [True, True]
    stack = parse_arch("relu-c-bn-relu-fc-s", (1, 8, 8), 4, seed=0)
    assert [l.in_place for l in stack.layers if l.kind == "relu"] == [False, True, True]


@pytest.mark.parametrize("spec", ["relu-fc-s", "d-relu-fc-s", "d(0.5)-relu-c(3,2)-mp-fc-s"])
def test_a_relu_leaves_the_callers_images_alone(spec):
    # the images reach these ReLUs uncopied: LayerStack.forward's asarray
    # keeps float64 images, and eval-mode dropout passes them through
    stack = parse_arch(spec, (1, 6, 6), 3, seed=0)
    x = np.random.default_rng(2).normal(size=(4, 1, 6, 6))
    before = x.tobytes()
    stack.forward(x)
    stack.predict(x)
    assert x.tobytes() == before


def test_final_fc_width_conflict_raises():
    with pytest.raises(ShapeError):
        parse_arch("fc(32)-s", (1, 6, 6), 4, seed=0)
    # explicit arg matching num_classes is allowed
    stack = parse_arch("fc(4)-s", (1, 6, 6), 4, seed=0)
    assert stack.layers[0].out_features == 4


@pytest.mark.parametrize("spec", ["fc(64)-s", "fc(64)-bn-d-s"])
def test_final_fc_of_the_wrong_width_is_refused_by_the_softmax_check(spec):
    # only bn, d and relu can stand between the last fc and s, and none of
    # them changes the width, so the softmax input check covers the final fc
    with pytest.raises(ShapeError, match="^s: softmax input has 64 features"):
        parse_arch(spec, (1, 6, 6), 10, seed=0)


def test_softmax_without_fc_needs_matching_features():
    with pytest.raises(ShapeError):
        parse_arch("c-mp-s", (1, 8, 8), 10, seed=0)


@pytest.mark.parametrize("spec", ["fc(999999999)-s", "fc(999999999)-fc-s"])
def test_a_stack_too_large_to_hold_is_refused_before_it_allocates(spec):
    # 65e9 weights (520 GB) at the first fc: refused before its matrix is made
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match=r"^fc\(999999999\) \(token 1\): the stack"
                                             r" would hold 64,999,999,935 weights"):
            parse_arch(spec, (1, 8, 8), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"refusing {spec} peaked at {peak} bytes"


def test_the_weight_bound_counts_every_value_the_layers_hold(monkeypatch):
    # conv and fc weights and biases, and bn's scale, shift and running
    # statistics: a bound of exactly that many builds, one less is refused at
    # the last layer that holds any
    spec = "c(3,4)-bn-mp-fc(8)-bn-fc-s"
    held = sum(arr.size for _, arr in parse_arch(spec, (2, 6, 6), 3).state_items())
    monkeypatch.setattr(network, "_MAX_WEIGHTS", held)
    assert parse_arch(spec, (2, 6, 6), 3).num_parameters() < held
    monkeypatch.setattr(network, "_MAX_WEIGHTS", held - 1)
    with pytest.raises(ShapeError, match=f"^fc \\(token 6\\): the stack would hold {held:,}"):
        parse_arch(spec, (2, 6, 6), 3)


def test_conv_after_fc_raises():
    with pytest.raises(ShapeError):
        parse_arch("fc(16)-c-fc-s", (1, 8, 8), 4, seed=0)
    with pytest.raises(ShapeError):
        parse_arch("fc(16)-mp-fc-s", (1, 8, 8), 4, seed=0)


def test_pooling_below_1x1_raises_at_instantiation():
    parse_tokens("c-mp(4)-fc-s")  # grammatically fine
    with pytest.raises(ShapeError):
        parse_arch("c-mp(4)-fc-s", (1, 2, 2), 4, seed=0)
    with pytest.raises(ShapeError):
        parse_arch("c-mp-mp-mp-fc-s", (1, 6, 6), 4, seed=0)  # 6 -> 3 -> 1 -> 0


def test_large_kernels_fit_thanks_to_padding():
    # pad = k//2 makes the output h (odd k) or h+1 (even k), so even a kernel
    # wider than the input instantiates and runs
    stack = parse_arch("c(9,2)-fc-s", (1, 3, 3), 4, seed=0)
    y = stack.forward(np.zeros((1, 1, 3, 3)))
    assert y.shape == (1, 4)
    assert stack.layers[0].forward(np.zeros((1, 1, 3, 3)), False, None).shape == (1, 2, 3, 3)


def test_same_seed_same_stack():
    a = parse_arch("c-mp-fc^2-s", (1, 8, 8), 4, seed=11)
    b = parse_arch("c-mp-fc^2-s", (1, 8, 8), 4, seed=11)
    for (na, pa), (nb, pb) in zip(a.state_items(), b.state_items()):
        assert na == nb
        assert np.array_equal(pa, pb)
    c = parse_arch("c-mp-fc^2-s", (1, 8, 8), 4, seed=12)
    assert any(
        not np.array_equal(pa, pc)
        for (_, pa), (_, pc) in zip(a.state_items(), c.state_items())
    )


def test_he_init_statistics():
    stack = parse_arch("fc(4096)-fc-s", (1, 32, 32), 10, seed=0)
    w = stack.layers[0].params["weight"]  # (1024, 4096) draws
    std_expect = np.sqrt(2.0 / 1024)
    assert abs(w.mean()) < 3 * std_expect / np.sqrt(w.size)
    assert w.std() == pytest.approx(std_expect, rel=0.01)
    assert np.array_equal(stack.layers[0].params["bias"], np.zeros(4096))


def test_forward_output_is_distribution():
    stack = parse_arch("c-mp-fc-s", (1, 8, 8), 5, seed=0)
    x = np.random.default_rng(0).random((6, 1, 8, 8))
    y = stack.forward(x)
    assert y.shape == (6, 5)
    assert np.all(y > 0)
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)


def test_zero_weight_final_fc_gives_uniform_rows():
    stack = parse_arch("fc-s", (1, 4, 4), 8, seed=0)
    stack.layers[0].params["weight"][...] = 0.0
    stack.layers[0].params["bias"][...] = 0.0
    y = stack.forward(np.random.default_rng(0).random((3, 1, 4, 4)))
    assert np.allclose(y, 1.0 / 8, atol=1e-12)


def test_eval_forward_deterministic_and_batch_independent():
    stack = parse_arch("c-mp-fc(32)-d(0.5)-fc-s", (1, 8, 8), 4, seed=5)
    stack.set_mode("eval")
    x = np.random.default_rng(1).random((10, 1, 8, 8))
    a = stack.forward(x)
    b = stack.forward(x)
    assert np.array_equal(a, b)  # dropout must be inert in eval
    # row i must not depend on what else is in the batch (no bn here)
    single = np.concatenate([stack.forward(x[i : i + 1]) for i in range(10)])
    assert np.allclose(a, single, atol=1e-12)


def test_forward_shape_validation():
    stack = parse_arch("fc-s", (1, 4, 4), 3, seed=0)
    with pytest.raises(ShapeError):
        stack.forward(np.zeros((2, 1, 5, 5)))
    with pytest.raises(ShapeError):
        stack.forward(np.zeros((1, 4, 4)))
    with pytest.raises(ShapeError):
        stack.forward(np.zeros((0, 1, 4, 4)))


def test_backward_requires_train_forward():
    stack = parse_arch("fc-s", (1, 4, 4), 3, seed=0)
    targets = np.full((2, 3), 1 / 3)
    with pytest.raises(StateError):
        stack.backward(targets)
    stack.set_mode("eval")
    stack.forward(np.zeros((2, 1, 4, 4)))
    with pytest.raises(StateError):
        stack.backward(targets)
    stack.set_mode("train")
    stack.forward(np.zeros((2, 1, 4, 4)))
    stack.backward(targets)  # consumed
    with pytest.raises(StateError):
        stack.backward(targets)


def test_backward_target_shape_checked():
    stack = parse_arch("fc-s", (1, 4, 4), 3, seed=0)
    stack.forward(np.zeros((2, 1, 4, 4)))
    with pytest.raises(ShapeError):
        stack.backward(np.full((2, 4), 0.25))


def test_predict_between_train_forward_and_backward_keeps_the_step():
    # each layer, softmax included, owns its pending train-mode cache, so an
    # eval pass in between changes no byte of the step's gradients
    stack = parse_arch("c(3,4)-mp-fc(8)-bn-d(0.3)-fc-s", (1, 6, 6), 3, seed=2)
    x, other = np.random.default_rng(4).random((2, 5, 1, 6, 6))
    targets = np.eye(3)[[0, 1, 2, 0, 1]]

    def step(eval_between):
        stack.rng = np.random.default_rng(7)  # same dropout mask
        stack.forward(x)
        if eval_between:
            stack.predict(other)
        return [g.copy() for g in stack.backward(targets)]

    direct, interleaved = step(False), step(True)
    for got, want in zip(interleaved, direct):
        assert got.tobytes() == want.tobytes()


def test_stack_gradcheck_end_to_end():
    # one integration FD pass through conv, pool, bn, dropout and both fcs
    from gradcheck import max_rel_err, numeric_grad
    from distillnet.training import cross_entropy

    stack = parse_arch("c(3,2)-mp-fc(8)-bn-d(0.3)-fc-s", (1, 6, 6), 3, seed=4)
    x = np.random.default_rng(8).random((3, 1, 6, 6))
    targets = np.zeros((3, 3))
    targets[np.arange(3), [0, 1, 2]] = 1.0

    def loss():
        stack.rng = np.random.default_rng(99)  # freeze dropout masks
        stack.set_mode("train")
        return cross_entropy(stack.forward(x), targets)

    loss()
    analytic = [g.copy() for g in stack.backward(targets)]
    params = stack.parameters()
    for a, p in zip(analytic, params):
        assert max_rel_err(a, numeric_grad(loss, p)) < 1e-4


def test_stack_gradcheck_through_multichannel_convs():
    # the second conv unfolds a 3-channel channels-last activation and returns
    # its input gradient channels-last; the first conv computes no input
    # gradient, but its weight and bias gradients still match
    from gradcheck import max_rel_err, numeric_grad
    from distillnet.training import cross_entropy

    stack = parse_arch("c(3,3)-c(3,4)-mp-fc(8)-fc-s", (2, 6, 6), 3, seed=5)
    rng = np.random.default_rng(9)
    x = rng.random((3, 2, 6, 6))
    for layer in stack.layers:
        if "bias" in layer.params:  # zero biases put relu inputs on the kink
            layer.params["bias"][:] = rng.normal(0.0, 0.1, layer.params["bias"].shape)
    targets = np.eye(3)

    def loss():
        stack.set_mode("train")
        return cross_entropy(stack.forward(x), targets)

    first = stack.layers[0]
    returned = []
    backward = first.backward

    def spy(dy):
        returned.append(backward(dy))
        return returned[-1]

    first.backward = spy
    loss()
    analytic = [g.copy() for g in stack.backward(targets)]
    assert returned == [None]
    for a, p in zip(analytic, stack.parameters()):
        assert max_rel_err(a, numeric_grad(loss, p)) < 1e-4


def test_stack_gradcheck_softmax_after_a_pool():
    # a pool gives the softmax a (N, K, 1, 1) activation: the fused gradient
    # must come back in that shape, not as (N, K) rows
    from gradcheck import distinct_grid, max_rel_err, numeric_grad
    from distillnet.training import cross_entropy

    stack = parse_arch("c(3,3)-mp(4)-s", (1, 4, 4), 3, seed=6)
    stack.layers[0].params["bias"][:] = [0.1, -0.2, 0.3]  # off the relu kink
    x = distinct_grid((3, 1, 4, 4), seed=2) - 0.2
    targets = np.eye(3)

    def loss():
        return cross_entropy(stack.forward(x), targets)

    loss()
    analytic = [g.copy() for g in stack.backward(targets)]
    for a, p in zip(analytic, stack.parameters()):
        assert max_rel_err(a, numeric_grad(loss, p)) < 1e-4


_TRAIN_TOKEN = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda a: f"c({a[0]},{a[1]})"),
    st.integers(1, 6).map(lambda w: f"mp({w})"),
    st.integers(1, 4).map(lambda n: f"fc({n})"),
    st.sampled_from(["fc", "relu", "bn", "d(0.5)"]),
)


# most drawn archs do not end in num_classes values and are refused by the
# builder, so the filter health check is off
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(
    st.lists(_TRAIN_TOKEN, max_size=5),
    st.tuples(st.integers(1, 2), st.integers(1, 6), st.integers(1, 6)),
    st.integers(2, 3),
)
def test_every_built_stack_takes_a_train_step(tokens, input_shape, classes):
    # whatever layer feeds the softmax, one forward + backward gives each
    # parameter one finite gradient of its own shape
    try:
        stack = parse_arch("-".join(tokens + ["s"]), input_shape, classes, seed=0)
    except ShapeError:
        assume(False)
    rng = np.random.default_rng(1)
    stack.forward(rng.normal(size=(3, *input_shape)))
    grads = stack.backward(np.eye(classes)[[0, 1, 1]])
    params = stack.parameters()
    assert len(grads) == len(params)
    for g, p in zip(grads, params):
        assert g.shape == p.shape
        assert np.isfinite(g).all()


def test_parse_arch_validates_shape_and_classes():
    with pytest.raises(ValidationError):
        parse_arch("fc-s", (4, 4), 3, seed=0)
    with pytest.raises(ValidationError):
        parse_arch("fc-s", (1, 0, 4), 3, seed=0)
    with pytest.raises(ValidationError):
        parse_arch("fc-s", (1, 4, 4), 0, seed=0)


def test_set_mode_validates():
    stack = parse_arch("fc-s", (1, 4, 4), 3, seed=0)
    with pytest.raises(ValidationError):
        stack.set_mode("training")


def test_num_parameters_counts_every_array():
    stack = parse_arch("fc(16)-fc-s", (1, 4, 4), 3, seed=0)
    assert stack.num_parameters() == 16 * 16 + 16 + 16 * 3 + 3


def test_arch_attribute_is_canonical_render():
    stack = parse_arch("c-c-mp-fc-fc-s", (1, 8, 8), 4, seed=0)
    assert stack.arch == "c^2-mp-fc^2-s"


def test_predict_matches_batched_forward_bytes(monkeypatch):
    # 7 rows in batches of 3: the last batch is partial
    monkeypatch.setattr(network, "EVAL_BATCH", 3)
    stack = parse_arch("c(3,4)-mp-fc(8)-fc-s", (1, 6, 6), 3, seed=0)
    x = np.random.default_rng(0).uniform(size=(7, 1, 6, 6))
    stack.set_mode("eval")
    ref = np.concatenate([stack.forward(x[s : s + 3]) for s in range(0, 7, 3)])
    got = stack.predict(x)
    assert got.shape == (7, 3)
    assert got.tobytes() == ref.tobytes()


def test_predict_of_no_images_is_an_empty_batch():
    # as forward rejects an empty batch, predict of zero images raises the
    # same error rather than concatenating nothing
    stack = parse_arch("fc(8)-fc-s", (1, 4, 4), 3, seed=0)
    with pytest.raises(ShapeError, match="empty batch"):
        stack.predict(np.zeros((0, 1, 4, 4)))


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_predict_runs_eval_mode_and_restores_mode(mode, monkeypatch):
    monkeypatch.setattr(network, "EVAL_BATCH", 2)
    stack = parse_arch("fc(8)-d-fc-s", (1, 4, 4), 3, seed=0)
    x = np.random.default_rng(1).uniform(size=(5, 1, 4, 4))
    stack.set_mode("eval")
    ref = stack.forward(x)
    stack.set_mode(mode)
    assert stack.predict(x).tobytes() == ref.tobytes()  # no dropout
    assert stack.mode == mode
    with pytest.raises(ShapeError):
        stack.predict(np.zeros((2, 1, 5, 5)))
    assert stack.mode == mode


@pytest.fixture
def blas():
    """numpy's OpenBLAS thread-count (getter, setter); skips where predict
    has no second thread to run (one core, or no such library)."""
    found = network._blas_threads()
    if found is None:
        pytest.skip("predict runs on one thread here")
    return found


class _CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.fixture
def started(monkeypatch):
    """The number of threads predict starts, read after the call."""
    _CountingThread.started = 0
    monkeypatch.setattr(threading, "Thread", _CountingThread)
    return lambda: _CountingThread.started


@pytest.mark.parametrize("eval_batch", [None, 5])
@pytest.mark.parametrize("arch", ["c(3,8)-mp-c(3,8)-mp-fc(16)-fc-s", "fc(32)-fc(16)-fc-s"])
def test_threaded_predict_matches_the_sequential_path_bytes(
        arch, eval_batch, blas, started, monkeypatch):
    # 3 full batches and a 1-row tail: the worker takes batch 1, the caller
    # batches 0, 2 and the tail
    if eval_batch:
        monkeypatch.setattr(network, "EVAL_BATCH", eval_batch)
    n = 3 * network.EVAL_BATCH + 1
    stack = parse_arch(arch, (1, 16, 16), 5, seed=3)
    x = np.random.default_rng(4).normal(size=(n, 1, 16, 16))
    got = stack.predict(x)
    assert started() == 1
    monkeypatch.setattr(network, "_blas_threads", lambda: None)
    want = stack.predict(x)
    assert started() == 1  # the sequential path starts no thread
    assert got.shape == (n, 5)
    assert got.tobytes() == want.tobytes()


def test_predict_bytes_do_not_depend_on_the_blas_thread_count(blas, monkeypatch):
    # the sequential path leaves BLAS at the count it finds; each batch's
    # conv GEMMs are large enough for OpenBLAS to split over two threads
    get, put = blas
    monkeypatch.setattr(network, "_blas_threads", lambda: None)
    stack = parse_arch("c(3,16)-mp-c(3,16)-mp-fc(32)-fc-s", (1, 16, 16), 4, seed=5)
    x = np.random.default_rng(6).normal(size=(2 * network.EVAL_BATCH + 3, 1, 16, 16))
    old = get()
    try:
        put(1)
        one = stack.predict(x)
        put(2)
        two = stack.predict(x)
    finally:
        put(old)
    assert one.tobytes() == two.tobytes()


def test_an_error_in_the_worker_reaches_the_caller_and_everything_is_restored(
        blas, monkeypatch):
    get, _ = blas
    stack = parse_arch("fc(8)-fc-s", (1, 16, 16), 3, seed=0)
    stack.set_mode("train")
    forward, seen = stack.forward, []

    def failing_forward(x):
        seen.append(get())
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker batch failed")
        return forward(x)

    monkeypatch.setattr(stack, "forward", failing_forward)
    before = get()
    with pytest.raises(RuntimeError, match="worker batch failed"):
        stack.predict(np.zeros((2 * network.EVAL_BATCH + 1, 1, 16, 16)))
    assert seen and set(seen) == {1}  # BLAS held at one thread while they ran
    assert get() == before
    assert stack.mode == "train"


@pytest.mark.parametrize("n, shape", [
    (network.EVAL_BATCH, (1, 16, 16)),       # one batch
    (3 * network.EVAL_BATCH, (1, 15, 15)),   # images under _THREAD_MIN values
], ids=["one-batch", "small-images"])
def test_predict_starts_no_thread_for_one_batch_or_small_images(n, shape, started):
    stack = parse_arch("fc(8)-fc-s", shape, 3, seed=0)
    assert stack.predict(np.zeros((n, *shape))).shape == (n, 3)
    assert started() == 0


def test_parse_error_quotes_a_window_and_places_a_number_at_its_first_digit():
    # a 5,000-digit width: the message stays short and points at the number
    # (char 4), not at the token that holds it (char 1)
    spec = "fc(1" + "0" * 5000 + ")-fc-s"
    with pytest.raises(ParseError) as err:
        parse_tokens(spec)
    msg = str(err.value)
    assert len(msg) < 200
    assert "char 4 " in msg
    assert "'fc(1000" in msg
    with pytest.raises(ParseError) as err:
        parse_tokens("c-" + "x" * 5000 + "-s")
    assert len(str(err.value)) < 200 and "char 3 " in str(err.value)
