import itertools

import numpy as np
import pytest

from fmbff import blocks
from fmbff.engine import Tensor, backward, bilinear_resize, concat, conv2d, mul, sigmoid, sum_
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


def _reference_forward(f_in, params, mode, rng=None):
    """The decoder as the architecture states it: every block's identity
    concat is built at full size and read by proj_a and the head there, and
    BiFFM resizes the skip before it projects it (``biffm_forward``'s own
    resize of an already resized skip is the exact identity)."""
    cfg = params.config
    stage_outputs, skips = encoder_forward(f_in, params, mode)
    prev = blocks.vitm_forward(stage_outputs[3], params.vitm)
    for i, block in enumerate(params.decoder):
        u = blocks.frm_forward(prev, block.frm_up, mode, rng)
        skip = bilinear_resize(skips[cfg.skip_index(i)], u.shape[2], u.shape[3])
        fused = blocks.biffm_forward(u, skip, block.biffm)
        prev = concat([blocks.frm_forward(fused, block.frm_fuse, mode, rng), u], axis=1)
    return sigmoid(conv2d(prev, params.head_w, params.head_b))


@pytest.mark.parametrize("skip_mode", SKIP_MODES)
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_projections_before_upsampling_match_reference(mode, skip_mode):
    """model_forward runs the decoder's 1x1 projections at their inputs'
    size and resizes after; in float64 that matches the reference's outputs
    and every gradient to rounding."""
    params = build_model(tiny_config(input_size=(32, 48), decoder_widths=(4, 2, 2, 2),
                                     skip_mode=skip_mode))
    rng = np.random.default_rng(31)
    for _, t in params.store.items():
        t.data = t.data.astype(np.float64) + rng.uniform(-0.05, 0.05, t.shape)
    x = Tensor(rng.random((2, 3, 32, 48)), np.float64)
    weight = rng.standard_normal((2, 1, 32, 48))
    model_forward(x, params, mode="train", rng=np.random.default_rng(0))  # BN statistics

    results = []
    for forward in (lambda: model_forward(x, params, mode, np.random.default_rng(5)).f_out,
                    lambda: _reference_forward(x, params, mode, np.random.default_rng(5))):
        x.grad = None
        for _, t in params.store.items():
            t.grad = None
        out = forward()
        values = out.data.copy()
        backward(sum_(mul(out, weight)))
        results.append((values, {"input": x.grad, **{n: t.grad for n, t in params.store.items()}}))

    (got, got_grads), (want, want_grads) = results
    assert got.dtype == np.float64 and np.abs(got - want).max() <= 1e-12
    # A conv bias ahead of a batch norm has an exact gradient of 0, so its
    # rounding noise is measured against a floor: 1e-3 of the largest gradient.
    floor = 1e-3 * max(np.abs(g).max() for g in want_grads.values())
    for name, g in want_grads.items():
        err = np.abs(got_grads[name] - g).max() / max(np.abs(g).max(), floor)
        assert err <= 1e-10, (name, err)


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

