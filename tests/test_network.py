import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distillnet.errors import ParseError, ShapeError, StateError, ValidationError
from distillnet.network import Token, parse_arch, parse_tokens, render_tokens


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


def _units(body):
    """One spec unit: an atom or a parenthesised body, maybe with ^n."""
    small = st.integers(1, 64).map(str)
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


_SPEC_BODY = st.recursive(
    _units(st.nothing()),
    lambda body: st.lists(_units(body), min_size=1, max_size=4).map("-".join),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None, database=None)
@given(_SPEC_BODY.map(lambda body: f"{body}-s"))
def test_render_parse_round_trip_property(spec):
    toks = parse_tokens(spec)
    rendered = render_tokens(toks)
    assert parse_tokens(rendered) == toks
    assert render_tokens(parse_tokens(rendered)) == rendered


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
    stack = parse_arch("c-mp-fc^2-s", (1, 8, 8), 4, seed=0)
    assert [l.kind for l in stack.layers] == [
        "c", "relu", "mp", "fc", "relu", "fc", "s",
    ]
    # the final fc (feeding softmax) gets no implicit relu
    assert stack.layers[-2].kind == "fc"


def test_explicit_relu_suppresses_implicit():
    stack = parse_arch("c-relu-mp-fc-relu-fc-s", (1, 8, 8), 4, seed=0)
    layer_kinds = [l.kind for l in stack.layers]
    assert layer_kinds == ["c", "relu", "mp", "fc", "relu", "fc", "s"]


def test_final_fc_width_conflict_raises():
    with pytest.raises(ShapeError):
        parse_arch("fc(32)-s", (1, 6, 6), 4, seed=0)
    # explicit arg matching num_classes is allowed
    stack = parse_arch("fc(4)-s", (1, 6, 6), 4, seed=0)
    assert stack.layers[0].out_features == 4


def test_softmax_without_fc_needs_matching_features():
    with pytest.raises(ShapeError):
        parse_arch("c-mp-s", (1, 8, 8), 10, seed=0)


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


def test_predict_matches_batched_forward_bytes():
    # 7 rows in batches of 3: the last batch is partial
    stack = parse_arch("c(3,4)-mp-fc(8)-fc-s", (1, 6, 6), 3, seed=0)
    x = np.random.default_rng(0).uniform(size=(7, 1, 6, 6))
    stack.set_mode("eval")
    ref = np.concatenate([stack.forward(x[s : s + 3]) for s in range(0, 7, 3)])
    got = stack.predict(x, batch_size=3)
    assert got.shape == (7, 3)
    assert got.tobytes() == ref.tobytes()


def test_predict_of_no_images_is_an_empty_batch():
    # as forward rejects an empty batch, predict of zero images raises the
    # same error rather than concatenating nothing
    stack = parse_arch("fc(8)-fc-s", (1, 4, 4), 3, seed=0)
    with pytest.raises(ShapeError, match="empty batch"):
        stack.predict(np.zeros((0, 1, 4, 4)))


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_predict_runs_eval_mode_and_restores_mode(mode):
    stack = parse_arch("fc(8)-d-fc-s", (1, 4, 4), 3, seed=0)
    x = np.random.default_rng(1).uniform(size=(5, 1, 4, 4))
    stack.set_mode("eval")
    ref = stack.forward(x)
    stack.set_mode(mode)
    assert stack.predict(x, batch_size=2).tobytes() == ref.tobytes()  # no dropout
    assert stack.mode == mode
    with pytest.raises(ShapeError):
        stack.predict(np.zeros((2, 1, 5, 5)))
    assert stack.mode == mode

