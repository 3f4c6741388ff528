import numpy as np
import pytest

from fmbff import blocks
from fmbff.engine import (
    ParamStore,
    Tensor,
    backward,
    batch_norm,
    bilinear_resize,
    concat,
    conv2d,
    dropout,
    mul,
    relu,
    sum_,
)
from fmbff.errors import ConfigurationError, DimensionError
from fmbff.model import ModelConfig


def build_fmcab(channels=4, seed=0, **kw):
    store = ParamStore(seed)
    return store, blocks.FmcabParams.build(store, "t", channels, **kw)


class TestFmcab:
    def test_shape_contract(self):
        store, params = build_fmcab(8)
        x = Tensor(np.random.default_rng(0).standard_normal((1, 8, 16, 16)).astype(np.float32))
        assert blocks.fmcab_forward(x, params).shape == (1, 8, 16, 16)

    def test_zero_input_zero_output(self):
        store, params = build_fmcab(4)
        x = Tensor(np.zeros((1, 4, 6, 6), dtype=np.float32))
        out = blocks.fmcab_forward(x, params)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_p_exponent(self, p):
        # the rule is checked once, where the model config is validated
        with pytest.raises(ConfigurationError, match="p_exponent"):
            ModelConfig(p_exponent=p).validate()


def _zeros(c):
    return Tensor(np.zeros((1, c, 6, 6), dtype=np.float32))


def _biffm():
    return blocks.BiffmParams.build(ParamStore(0), "t", 4, 6, width=4)


def _vitm():
    return blocks.VitmParams.build(ParamStore(0), "t", 4, 36, heads=2)


# (test id, the check's name in the error, the width the block's weights
# hold, a call that feeds the checked input x)
CHANNEL_CHECKS = [
    ("fmcab", "fmcab_forward", 4, lambda x: blocks.fmcab_forward(x, build_fmcab(4)[1])),
    ("biffm_decoder", "biffm_forward decoder input", 4,
     lambda x: blocks.biffm_forward(x, _zeros(6), _biffm())),
    ("biffm_skip", "biffm_forward skip input", 6,
     lambda x: blocks.biffm_forward(_zeros(4), x, _biffm())),
    ("tsa", "tsa_forward", 4, lambda x: blocks.tsa_forward(x, _vitm())),
    ("gsa", "gsa_forward", 4, lambda x: blocks.gsa_forward(x, _vitm())),
    ("frm", "frm_forward", 4, lambda x: blocks.frm_forward(
        x, blocks.FrmParams.build(ParamStore(0), "t", 4, 2, upsample=True), "eval")),
]


@pytest.mark.parametrize("what,width,call", [c[1:] for c in CHANNEL_CHECKS],
                         ids=[c[0] for c in CHANNEL_CHECKS])
def test_channel_mismatch(what, width, call):
    # each block reads its input width from its first layer's weights
    with pytest.raises(DimensionError, match=f"^{what} expects {width} channels, got 5 "):
        call(_zeros(5))


class TestFocalModulation:
    def test_constant_input_gate_half(self):
        # spatially constant i2: GAP == GMP, so the descriptor is zero and a
        # zero-initialized gate bias gives sigmoid(0) = 0.5 everywhere
        store, params = build_fmcab(4)
        i2 = Tensor(np.broadcast_to(
            np.asarray([1.0, -2.0, 0.5, 3.0], dtype=np.float32)[None, :, None, None],
            (1, 4, 5, 5),
        ).copy())
        out = blocks.focal_modulation(i2, params)
        gamma_p = float(params.gamma.data) ** params.p_exponent
        np.testing.assert_allclose(out.data, gamma_p * 0.5 * i2.data, atol=1e-6)

    def test_gamma_zero_annihilates(self):
        store, params = build_fmcab(4)
        params.gamma.data = np.asarray(0.0, dtype=np.float32)
        i2 = Tensor(np.random.default_rng(1).standard_normal((2, 4, 3, 3)).astype(np.float32))
        np.testing.assert_array_equal(blocks.focal_modulation(i2, params).data, 0.0)

    def test_gate_range(self):
        store, params = build_fmcab(4)
        i2 = Tensor(np.random.default_rng(2).standard_normal((2, 4, 5, 5)).astype(np.float32) * 50)
        desc = blocks.focal_modulation(i2, params)
        # gate bounds imply |out| <= gamma^p * |i2|
        assert np.all(np.abs(desc.data) <= np.abs(float(params.gamma.data)) * np.abs(i2.data) + 1e-6)


class TestBiffm:
    def test_shape_contract(self):
        store = ParamStore(0)
        params = blocks.BiffmParams.build(store, "t", 16, 40, width=16)
        d = Tensor(np.random.default_rng(3).standard_normal((1, 16, 8, 8)).astype(np.float32))
        s = Tensor(np.random.default_rng(4).standard_normal((1, 40, 4, 4)).astype(np.float32))
        assert blocks.biffm_forward(d, s, params).shape == (1, 32, 8, 8)

    def test_gates_in_unit_interval(self):
        store = ParamStore(1)
        params = blocks.BiffmParams.build(store, "t", 4, 6, width=4)
        d = Tensor(np.random.default_rng(5).standard_normal((2, 4, 4, 4)).astype(np.float32))
        s = Tensor(np.random.default_rng(6).standard_normal((2, 6, 4, 4)).astype(np.float32))
        _, (g1, g2) = blocks.biffm_forward(d, s, params, return_gates=True)
        for g in (g1, g2):
            assert np.all(g.data > 0) and np.all(g.data < 1)

    def test_indivisible_shuffle(self):
        # the rule is checked once, where the model config is validated
        with pytest.raises(ConfigurationError, match="shuffle_groups: 4 does not divide 6"):
            ModelConfig(decoder_widths=(3, 3, 3, 3), shuffle_groups=4).validate()


class TestTsaGsa:
    def test_tsa_shape_and_rows(self):
        store = ParamStore(2)
        params = blocks.VitmParams.build(store, "t", 8, 16, heads=2)
        x = Tensor(np.random.default_rng(7).standard_normal((1, 8, 4, 4)).astype(np.float32))
        out, attn = blocks.tsa_forward(x, params, return_attn=True)
        assert out.shape == (1, 8, 4, 4)
        assert np.abs(attn.data.sum(axis=-1) - 1).max() < 1e-6

    def test_tsa_identity_weights_uniform(self):
        # single head, identity Q/K/V embeddings, constant input, zero
        # positional table: every similarity row is uniform 1/c
        store = ParamStore(3)
        c = 4
        params = blocks.VitmParams.build(store, "t", c, 9, heads=1)
        eye = np.eye(c, dtype=np.float32).reshape(c, c, 1, 1)
        for wt in (store["t.wq.w"], store["t.wk.w"], store["t.wv.w"]):
            wt.data = eye.copy()
        params.pos_embed.data = np.zeros((9, c), dtype=np.float32)
        x = Tensor(np.full((1, c, 3, 3), 2.0, dtype=np.float32))
        out, attn = blocks.tsa_forward(x, params, return_attn=True)
        np.testing.assert_allclose(attn.data, 1.0 / c, atol=1e-6)
        spatial_std = out.data.std(axis=(2, 3))
        assert spatial_std.max() < 1e-6

    def test_pos_embed_mismatch(self):
        store = ParamStore(4)
        params = blocks.VitmParams.build(store, "t", 4, 16, heads=2)
        x = Tensor(np.zeros((1, 4, 3, 3), dtype=np.float32))  # hw=9 != 16
        with pytest.raises(ConfigurationError):
            blocks.tsa_forward(x, params)

    def test_gsa_shape_rows_and_constant_input(self):
        store = ParamStore(5)
        params = blocks.VitmParams.build(store, "t", 8, 16, heads=2)
        x = Tensor(np.random.default_rng(8).standard_normal((1, 8, 4, 4)).astype(np.float32))
        out, attn = blocks.gsa_forward(x, params, return_attn=True)
        assert out.shape == (1, 8, 4, 4)
        assert np.abs(attn.data.sum(axis=-1) - 1).max() < 1e-6

        const = Tensor(np.full((1, 8, 4, 4), 1.5, dtype=np.float32))
        out_c, attn_c = blocks.gsa_forward(const, params, return_attn=True)
        np.testing.assert_allclose(attn_c.data, 1.0 / 16, atol=1e-6)
        assert out_c.data.std(axis=(2, 3)).max() < 1e-6


class TestVitm:
    def test_shape(self):
        store = ParamStore(6)
        params = blocks.VitmParams.build(store, "t", 16, 16, heads=4)
        x = Tensor(np.random.default_rng(9).standard_normal((1, 16, 4, 4)).astype(np.float32))
        assert blocks.vitm_forward(x, params).shape == (1, 16, 4, 4)

    def test_zero_fuse_is_identity(self):
        store = ParamStore(7)
        params = blocks.VitmParams.build(store, "t", 8, 16, heads=2)
        store["t.fuse_1x1.w"].data = np.zeros_like(store["t.fuse_1x1.w"].data)
        x = Tensor(np.random.default_rng(10).standard_normal((2, 8, 4, 4)).astype(np.float32))
        out = blocks.vitm_forward(x, params)
        np.testing.assert_array_equal(out.data, x.data)


class TestFrm:
    def test_shape_with_upsample(self):
        store = ParamStore(8)
        params = blocks.FrmParams.build(store, "t", 8, 16, upsample=True)
        x = Tensor(np.random.default_rng(11).standard_normal((1, 8, 4, 4)).astype(np.float32))
        out = blocks.frm_forward(x, params, mode="train", rng=np.random.default_rng(0))
        assert out.shape == (1, 24, 8, 8)

    def test_shape_without_upsample(self):
        store = ParamStore(9)
        params = blocks.FrmParams.build(store, "t", 8, 16, upsample=False)
        x = Tensor(np.random.default_rng(12).standard_normal((1, 8, 4, 4)).astype(np.float32))
        out = blocks.frm_forward(x, params, mode="train", rng=np.random.default_rng(0))
        assert out.shape == (1, 24, 4, 4)

    def test_eval_deterministic(self):
        store = ParamStore(10)
        params = blocks.FrmParams.build(store, "t", 4, 8, upsample=True)
        x = Tensor(np.random.default_rng(13).standard_normal((2, 4, 4, 4)).astype(np.float32))
        # populate running stats with one train pass first
        blocks.frm_forward(x, params, mode="train", rng=np.random.default_rng(0))
        a = blocks.frm_forward(x, params, mode="eval")
        b = blocks.frm_forward(x, params, mode="eval")
        np.testing.assert_array_equal(a.data, b.data)


def _frm_reference(x, params, mode, rng=None):
    """FRM from engine ops: the branch on one resize of ``x``, concatenated
    with a second, separate resize of ``x``."""
    h, w = x.shape[2:]
    if params.upsample:
        h, w = 2 * h, 2 * w
    t = dropout(bilinear_resize(x, h, w), mode, rng)
    t = conv2d(conv2d(t, *params.dw, pad=1, groups=x.shape[1]), *params.pw)
    t = batch_norm(relu(t), *params.bn, mode)
    return concat([t, bilinear_resize(x, h, w)], axis=1)


@pytest.mark.parametrize("upsample", [True, False])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_frm_matches_float64_reference(mode, upsample):
    """frm_forward's one shared resize gives the reference's outputs and
    every gradient, input and parameters, to rounding in float64."""
    store = ParamStore(14)
    params = blocks.FrmParams.build(store, "t", 3, 5, upsample=upsample)
    rng = np.random.default_rng(15)
    for _, t in store.items():
        t.data = t.data.astype(np.float64) + rng.uniform(-0.1, 0.1, t.shape)
    x = Tensor(rng.standard_normal((2, 3, 4, 6)), np.float64)
    blocks.frm_forward(x, params, "train", np.random.default_rng(0))  # BN statistics
    leaves = {"input": x, **dict(store.items())}

    results = []
    for forward in (blocks.frm_forward, _frm_reference):
        for t in leaves.values():
            t.grad = None
        out = forward(x, params, mode, np.random.default_rng(5))
        weight = np.random.default_rng(16).standard_normal(out.shape)
        values = out.data.copy()
        backward(sum_(mul(out, weight)))
        results.append((values, {name: t.grad for name, t in leaves.items()}))

    (got, got_grads), (want, want_grads) = results
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    for name, g in want_grads.items():
        err = np.abs(got_grads[name] - g).max() / np.abs(g).max()
        assert err <= 1e-10, (name, err)


def test_randomized_config_sweep_shapes():
    """Block forwards obey channel/spatial contracts across random configs."""
    rng = np.random.default_rng(99)
    for _ in range(5):
        c = int(rng.choice([4, 8, 12]))
        h = int(rng.choice([3, 4, 6]))
        store = ParamStore(int(rng.integers(1 << 16)))
        fmcab = blocks.FmcabParams.build(store, "f", c)
        vitm = blocks.VitmParams.build(store, "v", c, h * h, heads=2)
        x = Tensor(rng.standard_normal((2, c, h, h)).astype(np.float32))
        assert blocks.fmcab_forward(x, fmcab).shape == (2, c, h, h)
        assert blocks.vitm_forward(x, vitm).shape == (2, c, h, h)
