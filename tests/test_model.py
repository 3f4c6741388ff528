import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from fmbff import blocks, engine
from fmbff.engine import (
    ParamStore,
    Tensor,
    backward,
    batch_norm,
    bilinear_resize,
    concat,
    conv2d,
    mul,
    relu,
    sigmoid,
    sum_,
)
from fmbff.errors import ConfigurationError, DimensionError
from fmbff.model import (
    SKIP_MODES,
    ModelConfig,
    build_model,
    encoder_forward,
    model_forward,
    predict_probs,
)
from fmbff.train import loss as train_loss
from raw_bits import dropped

model_mod = importlib.import_module("fmbff.model")


def tiny_config(**kw):
    base = dict(
        input_size=(16, 16),
        encoder_widths=(4, 4, 4, 4),
        decoder_widths=(2, 2, 2, 2),
        heads=2,
        shuffle_groups=2,
        seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_defaults_validate(self):
        ModelConfig().validate()

    def test_bad_input_size(self):
        with pytest.raises(ConfigurationError, match="input_size"):
            ModelConfig(input_size=(30, 64)).validate()

    def test_bad_heads(self):
        with pytest.raises(ConfigurationError, match="heads"):
            tiny_config(heads=3).validate()

    def test_bad_skip_mode(self):
        with pytest.raises(ConfigurationError, match="skip_mode"):
            tiny_config(skip_mode="bogus").validate()

    def test_skip_widths_cumulative(self):
        cfg = ModelConfig(encoder_widths=(16, 32, 64, 128))
        assert cfg.skip_widths() == [16, 48, 112, 240]


class TestEncoder:
    def test_stage_extents_and_skip_width(self):
        cfg = ModelConfig(encoder_widths=(16, 32, 64, 128))
        params = build_model(cfg)
        x = Tensor(np.random.default_rng(0).random((1, 3, 64, 64)).astype(np.float32))
        outputs, skips = encoder_forward(x, params, mode="train")
        assert [o.shape[2] for o in outputs] == [32, 16, 8, 4]
        assert skips[3].shape == (1, 240, 4, 4)

    def test_batch_extent_preserved(self):
        params = build_model(tiny_config())
        x = Tensor(np.random.default_rng(1).random((3, 3, 16, 16)).astype(np.float32))
        outputs, skips = encoder_forward(x, params, mode="train")
        assert all(o.shape[0] == 3 for o in outputs)
        assert all(s.shape[0] == 3 for s in skips)

    def test_gradient_reaches_input(self):
        params = build_model(tiny_config())
        x = Tensor(np.random.default_rng(2).random((1, 3, 16, 16)).astype(np.float32))
        _, skips = encoder_forward(x, params, mode="train")
        backward(sum_(skips[3]))
        assert x.grad is not None and np.abs(x.grad).max() > 0

    def test_wrong_channels(self):
        params = build_model(tiny_config())
        with pytest.raises(DimensionError):
            encoder_forward(Tensor(np.zeros((1, 4, 16, 16), dtype=np.float32)), params, "train")


class TestModelForward:
    def test_output_extents_and_range(self):
        params = build_model(tiny_config())
        x = Tensor(np.random.default_rng(3).random((2, 3, 16, 16)).astype(np.float32))
        trace = model_forward(x, params, mode="train", rng=np.random.default_rng(0))
        assert trace.f_out.shape == (2, 1, 16, 16)
        assert np.all(trace.f_out.data > 0) and np.all(trace.f_out.data < 1)

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_output_matches_input_extent(self, size):
        params = build_model(tiny_config(input_size=(size, size)))
        x = Tensor(np.random.default_rng(4).random((1, 3, size, size)).astype(np.float32))
        trace = model_forward(x, params, mode="train", rng=np.random.default_rng(0))
        assert trace.f_out.shape == (1, 1, size, size)

    def test_eval_deterministic(self):
        params = build_model(tiny_config())
        x = Tensor(np.random.default_rng(5).random((1, 3, 16, 16)).astype(np.float32))
        model_forward(x, params, mode="train", rng=np.random.default_rng(0))  # populate bn
        a = model_forward(x, params, mode="eval").f_out.data
        b = model_forward(x, params, mode="eval").f_out.data
        np.testing.assert_array_equal(a, b)

    def test_train_forward_holds_at_most_20_mib(self):
        """A default-width 32x32, batch-4 train forward holds at most 20 MiB
        of graph: FRM's resized, dropped and mask maps are never kept
        (25.5 MiB while they were, 17.5 MiB without them)."""
        params = build_model(ModelConfig(input_size=(32, 32)))
        x = Tensor(np.random.default_rng(7).random((4, 3, 32, 32)).astype(np.float32))
        tracemalloc.start()
        try:
            out = model_forward(x, params, mode="train", rng=np.random.default_rng(0)).f_out
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.shape == (4, 1, 32, 32)
        assert held <= 20 * 2**20, f"the forward holds {held / 2**20:.1f} MiB"

    def test_wrong_spatial_size(self):
        params = build_model(tiny_config())
        with pytest.raises(DimensionError):
            model_forward(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)), params, "eval")

    def test_no_dead_parameters(self):
        # 32x32 keeps the bottleneck at 2x2: at 1x1 the gap/gmp difference and
        # the one-token spatial softmax are exactly gradient-free by definition
        params = build_model(
            tiny_config(input_size=(32, 32), encoder_widths=(8, 8, 8, 8),
                        decoder_widths=(4, 4, 4, 4))
        )
        rng = np.random.default_rng(99)
        for i in range(3):
            x = Tensor(np.random.default_rng(10 + i).random((2, 3, 32, 32)).astype(np.float32))
            trace = model_forward(x, params, mode="train", rng=np.random.default_rng(i))
            w = rng.standard_normal(trace.f_out.shape)
            backward(sum_(mul(trace.f_out, w)))
        for name, t in params.store.items():
            assert t.grad is not None, f"no grad for {name}"
            assert np.abs(t.grad).max() > 0, f"all-zero grad for {name}"

    def test_backward_leaves_grads_on_leaves_only(self):
        params = build_model(tiny_config())
        x = Tensor(np.random.default_rng(7).random((2, 3, 16, 16)).astype(np.float32))
        trace = model_forward(x, params, mode="train", rng=np.random.default_rng(0))
        loss = sum_(trace.f_out)
        backward(loss)
        nodes, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        interior = [n for n in nodes if not n.is_leaf()]
        assert interior and all(n.grad is None for n in interior)
        for name, t in params.store.items():
            assert t.grad is not None, f"no grad for {name}"

    def test_leaf_grads_writeable_and_unshared(self):
        """After the release and the sweep, each leaf holds a gradient of its
        own: ``_accumulate`` never hands one array to two targets."""
        params = build_model(tiny_config())
        rng = np.random.default_rng(8)
        x = Tensor(rng.random((2, 3, 16, 16)).astype(np.float32))
        y = (rng.random((2, 1, 16, 16)) > 0.5).astype(np.float32)
        trace = model_forward(x, params, mode="train", rng=np.random.default_rng(0))
        backward(train_loss(trace.f_out, y))
        grads = [x.grad] + [t.grad for _, t in params.store.items()]
        assert all(g.flags.writeable for g in grads)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(grads, 2))

    def test_no_pass_through_nodes(self):
        """No graph node holds its parent's array as its own value: an
        identity op returns its input instead of wrapping it in a node."""
        params = build_model(tiny_config())
        rng = np.random.default_rng(9)
        x = Tensor(rng.random((2, 3, 16, 16)).astype(np.float32))
        y = (rng.random((2, 1, 16, 16)) > 0.5).astype(np.float32)
        trace = model_forward(x, params, mode="train", rng=np.random.default_rng(0))
        loss = train_loss(trace.f_out, y)
        passes, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                passes += [node for p in node._parents if node.data is p.data]
                stack.extend(node._parents)
        assert len(seen) > 1 and not passes, f"{len(passes)} pass-through nodes"

    def test_stage_matched_skip_mode(self):
        params = build_model(tiny_config(skip_mode="stage_matched"))
        x = Tensor(np.random.default_rng(6).random((1, 3, 16, 16)).astype(np.float32))
        trace = model_forward(x, params, mode="train", rng=np.random.default_rng(0))
        assert trace.f_out.shape == (1, 1, 16, 16)


def _raw_frm(x, params, mode, rng=None):
    """FRM from raw engine ops, as the architecture states it: resize (when
    it upsamples), dropout, depthwise conv, 1x1 conv, relu and batch norm,
    concatenated with the resize."""
    r = bilinear_resize(x, 2 * x.shape[2], 2 * x.shape[3]) if params.upsample else x
    t = conv2d(dropped(r, mode, rng), *params.dw, pad=1, groups=x.shape[1])
    t = batch_norm(relu(conv2d(t, *params.pw)), *params.bn, mode)
    return concat([t, r], axis=1)


def _reference_forward(f_in, params, mode, rng=None):
    """The decoder as the architecture states it, from raw engine ops: every
    block's identity concat is built at full size and read by proj_a and the
    head there, every FRM branch runs on its upsampled map, and BiFFM
    resizes the skip before it projects it (``biffm_forward``'s own resize of
    an already resized skip is the exact identity)."""
    cfg = params.config
    stage_outputs, skips = encoder_forward(f_in, params, mode)
    prev = blocks.vitm_forward(stage_outputs[3], params.vitm)
    for i, block in enumerate(params.decoder):
        u = _raw_frm(prev, block.frm_up, mode, rng)
        skip = bilinear_resize(skips[cfg.skip_index(i)], u.shape[2], u.shape[3])
        fused = blocks.biffm_forward(u, skip, block.biffm)
        prev = concat([_raw_frm(fused, block.frm_fuse, mode, rng), u], axis=1)
    return sigmoid(conv2d(prev, params.head_w, params.head_b))


def _widen(store, rng, spread):
    """Float64 parameters, each moved off its initial value by up to ``spread``."""
    for _, t in store.items():
        t.data = t.data.astype(np.float64) + rng.uniform(-spread, spread, t.shape)


def _assert_float64_match(forwards, leaves, out_atol):
    """Run each forward, then backward of its output weighted by a fixed
    random map; the first must match the second in values (to ``out_atol``)
    and in every leaf's gradient (to 1e-10 relative)."""
    results = []
    for forward in forwards:
        for t in leaves.values():
            t.grad = None
        out = forward()
        weight = np.random.default_rng(16).standard_normal(out.shape)
        values = out.data.copy()
        backward(sum_(mul(out, weight)))
        results.append((values, {name: t.grad for name, t in leaves.items()}))

    (got, got_grads), (want, want_grads) = results
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.abs(got - want).max() <= out_atol, np.abs(got - want).max()
    # A conv bias ahead of a train-mode batch norm has an exact gradient of 0,
    # so its rounding noise is measured against a floor: 1e-3 of the largest
    # gradient.
    floor = 1e-3 * max(np.abs(g).max() for g in want_grads.values())
    for name, g in want_grads.items():
        err = np.abs(got_grads[name] - g).max() / max(np.abs(g).max(), floor)
        assert err <= 1e-10, (name, err)


def _model_leaves(x, params):
    return {"input": x, **dict(params.store.items())}


@pytest.mark.parametrize("skip_mode", SKIP_MODES)
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_projections_before_upsampling_match_reference(mode, skip_mode):
    """model_forward runs the decoder's 1x1 projections at their inputs'
    size and resizes after, and in eval mode its upsampling FRM branches
    through their kernel taps; in float64 that matches the raw-op
    reference's outputs and every gradient to rounding."""
    params = build_model(tiny_config(input_size=(32, 48), decoder_widths=(4, 2, 2, 2),
                                     skip_mode=skip_mode))
    rng = np.random.default_rng(31)
    _widen(params.store, rng, 0.05)
    x = Tensor(rng.random((2, 3, 32, 48)), np.float64)
    model_forward(x, params, mode="train", rng=np.random.default_rng(0))  # BN statistics
    _assert_float64_match(
        [lambda: model_forward(x, params, mode, np.random.default_rng(5)).f_out,
         lambda: _reference_forward(x, params, mode, np.random.default_rng(5))],
        _model_leaves(x, params), out_atol=1e-12)


@pytest.mark.parametrize("extent", [(3, 5), (1, 1)])
def test_eval_frm_taps_match_raw_ops(extent):
    """An eval-mode upsampling FRM, run at its input's size through the
    kernel taps, gives the raw-op branch's outputs and every gradient, the
    input's included, in float64: on a non-square input and on 1x1 -> 2x2,
    where every output pixel reads the one input pixel."""
    store = ParamStore(17)
    params = blocks.FrmParams.build(store, "t", 3, 5, upsample=True)
    rng = np.random.default_rng(18)
    _widen(store, rng, 0.1)
    x = Tensor(rng.standard_normal((2, 3, *extent)), np.float64)
    blocks.frm_forward(x, params, "train", np.random.default_rng(0))  # BN statistics
    _assert_float64_match([lambda: blocks.frm_forward(x, params, "eval"),
                           lambda: _raw_frm(x, params, "eval")],
                          {"input": x, **dict(store.items())}, out_atol=1e-12)


@pytest.mark.parametrize("skip_mode", SKIP_MODES)
def test_eval_model_with_1x1_bottleneck_matches_raw_ops(skip_mode):
    """At 16x16 the bottleneck is 1x1, so dec1's FRM upsamples 1x1 -> 2x2;
    the eval-mode model still matches the raw-op reference in float64."""
    params = build_model(tiny_config(decoder_widths=(4, 2, 2, 2), skip_mode=skip_mode))
    rng = np.random.default_rng(32)
    _widen(params.store, rng, 0.05)
    x = Tensor(rng.random((2, 3, 16, 16)), np.float64)
    model_forward(x, params, mode="train", rng=np.random.default_rng(0))  # BN statistics
    _assert_float64_match([lambda: model_forward(x, params, "eval").f_out,
                           lambda: _reference_forward(x, params, "eval")],
                          _model_leaves(x, params), out_atol=1e-12)


@pytest.mark.parametrize("mode,expected", [
    ("train", {"dw_on_upsampled": 4, "last_prev_resized": 1}),
    ("eval", {"dw_on_upsampled": 0, "last_prev_resized": 0}),
])
def test_eval_frm_branches_skip_the_upsampled_map(monkeypatch, mode, expected):
    """Counted through wrapped ops: in eval mode no depthwise conv runs on an
    upsampled map and the last block never resizes its input ``prev``; in
    train mode dropout's mask needs both, once per decoder block, and
    ``dropout_depthwise`` upsamples the last block's ``prev`` itself."""
    counts = dict.fromkeys(expected, 0)
    upsampled, last_prev = [], []  # kept alive, so their ids stay unique

    def resize(x, out_h, out_w):
        out = engine.bilinear_resize(x, out_h, out_w)
        counts["last_prev_resized"] += any(x is p for p in last_prev)
        if out_h > x.shape[2] or out_w > x.shape[3]:
            upsampled.append(out)
        return out

    def drop_dw(x, w, b, rng, upsample):
        counts["dw_on_upsampled"] += upsample or any(x is u for u in upsampled)
        counts["last_prev_resized"] += upsample and any(x is p for p in last_prev)
        return engine.dropout_depthwise(x, w, b, rng, upsample)

    def conv(x, w, b=None, stride=1, pad=0, groups=1):
        counts["dw_on_upsampled"] += groups > 1 and any(x is u for u in upsampled)
        return engine.conv2d(x, w, b, stride, pad, groups)

    last_block = model_mod._last_block_and_head

    def last(prev, *args):
        last_prev.append(prev)
        return last_block(prev, *args)

    params = build_model(tiny_config())
    x = Tensor(np.random.default_rng(33).random((2, 3, 16, 16)).astype(np.float32))
    model_forward(x, params, "train", np.random.default_rng(0))  # BN statistics
    for module in (blocks, model_mod):
        monkeypatch.setattr(module, "bilinear_resize", resize)
    monkeypatch.setattr(blocks, "dropout_depthwise", drop_dw)
    monkeypatch.setattr(blocks, "conv2d", conv)
    monkeypatch.setattr(model_mod, "_last_block_and_head", last)
    out = model_forward(x, params, mode, np.random.default_rng(0)).f_out
    assert out.shape == (2, 1, 16, 16) and len(last_prev) == 1
    assert counts == expected


class TestPredictProbs:
    def test_mixed_extents_match_manual_path(self):
        params = build_model(tiny_config())
        x = Tensor(np.random.default_rng(0).random((2, 3, 16, 16)).astype(np.float32))
        model_forward(x, params, mode="train", rng=np.random.default_rng(0))  # BN stats
        rng = np.random.default_rng(8)
        on_size = rng.random((3, 16, 16)).astype(np.float32)
        off_size = rng.random((3, 24, 10)).astype(np.float32)

        probs = predict_probs(params, [on_size, off_size], batch_size=2)

        assert [p.shape for p in probs] == [(1, 16, 16), (1, 24, 10)]
        shrunk = bilinear_resize(Tensor(off_size[None]), 16, 16).data[0]
        out = model_forward(Tensor(np.stack([on_size, shrunk])), params, mode="eval").f_out
        # predict_probs runs under no_grad; the grad-mode path gives the same bytes.
        assert probs[0].tobytes() == out.data[0].tobytes()
        back = bilinear_resize(Tensor(out.data[1:]), 24, 10).data[0]
        assert probs[1].tobytes() == back.tobytes()

