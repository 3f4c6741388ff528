"""Parameterized forward passes for the four architecture blocks.

Each block is a plain dataclass of leaf tensors registered in a ParamStore
(so the optimizer and checkpointing see every weight) plus a pure forward
function.  Channel contracts:

  * FMCAB keeps N x C x H x W unchanged.
  * BiFFM fuses a decoder map (N x Cd x H x W) with a skip (any size) into
    N x 2*width x H x W, where ``width`` is the entry projection width.
  * ViTM keeps the bottleneck shape unchanged (residual).
  * FRM maps N x Cin x H x W to N x (Cout + Cin) x H' x W', doubling the
    spatial extents when ``upsample`` is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import (
    BatchNormState,
    ParamStore,
    Tensor,
    add,
    batch_norm,
    bilinear_resize,
    channel_shuffle,
    concat,
    conv2d,
    dropout,
    dws_conv3x3,
    gelu,
    global_max_pool,
    layer_norm,
    matmul,
    mean_,
    mul,
    permute,
    pow_,
    relu,
    reshape,
    sigmoid,
    softmax,
    sub,
)
from .errors import ConfigurationError, DimensionError


def _gap(x):  # global average pool
    return mean_(x, axis=(2, 3), keepdims=True)


def _check_channels(x, expected, what):
    if x.shape[1] != expected:
        raise DimensionError(
            f"{what} expects {expected} channels, got {x.shape[1]} (axis 1)"
        )


# ---------------------------------------------------------------------------
# FMCAB


@dataclass
class FmcabParams:
    channels: int
    p_exponent: float
    ln_scale: Tensor
    ln_shift: Tensor
    conv3a_w: Tensor
    conv3a_b: Tensor
    conv1a_w: Tensor
    conv1a_b: Tensor
    se_reduce_w: Tensor
    se_reduce_b: Tensor
    se_expand_w: Tensor
    se_expand_b: Tensor
    fm_gate_w: Tensor
    fm_gate_b: Tensor
    branch_conv3_w: Tensor
    branch_conv3_b: Tensor
    branch_ln_scale: Tensor
    branch_ln_shift: Tensor
    branch_conv1_w: Tensor
    branch_conv1_b: Tensor
    gamma: Tensor
    alpha: Tensor

    @classmethod
    def build(cls, store: ParamStore, prefix, channels, reduction=4, p_exponent=1.0):
        if not (math.isfinite(p_exponent) and p_exponent > 0):
            raise ConfigurationError(f"p_exponent must be a finite value > 0, got {p_exponent}")
        c = channels
        r = max(c // reduction, 1)
        p = prefix
        return cls(
            channels=c,
            p_exponent=float(p_exponent),
            ln_scale=store.ones(f"{p}.ln.scale", (c,)),
            ln_shift=store.zeros(f"{p}.ln.shift", (c,)),
            conv3a_w=store.conv_weight(f"{p}.conv3a.w", c, c, 3, 3),
            conv3a_b=store.zeros(f"{p}.conv3a.b", (c,)),
            conv1a_w=store.conv_weight(f"{p}.conv1a.w", c, c, 1, 1),
            conv1a_b=store.zeros(f"{p}.conv1a.b", (c,)),
            se_reduce_w=store.conv_weight(f"{p}.se_reduce.w", r, c, 1, 1),
            se_reduce_b=store.zeros(f"{p}.se_reduce.b", (r,)),
            se_expand_w=store.conv_weight(f"{p}.se_expand.w", c, r, 1, 1),
            se_expand_b=store.zeros(f"{p}.se_expand.b", (c,)),
            fm_gate_w=store.conv_weight(f"{p}.fm_gate.w", c, c, 1, 1),
            fm_gate_b=store.zeros(f"{p}.fm_gate.b", (c,)),
            branch_conv3_w=store.conv_weight(f"{p}.branch_conv3.w", c, c, 3, 3),
            branch_conv3_b=store.zeros(f"{p}.branch_conv3.b", (c,)),
            branch_ln_scale=store.ones(f"{p}.branch_ln.scale", (c,)),
            branch_ln_shift=store.zeros(f"{p}.branch_ln.shift", (c,)),
            branch_conv1_w=store.conv_weight(f"{p}.branch_conv1.w", c, c, 1, 1),
            branch_conv1_b=store.zeros(f"{p}.branch_conv1.b", (c,)),
            gamma=store.scalar(f"{p}.gamma", 1.0),
            # GAP <= GMP per channel, so the gap/gmp difference is nonpositive;
            # a negative modulation factor keeps the gate's relu (and with it
            # alpha's own gradient) alive at initialization.
            alpha=store.scalar(f"{p}.alpha", -1.0),
        )


def focal_modulation(i2, params):
    """Gate i2 by the alpha-scaled gap/gmp descriptor difference, times gamma^p."""
    desc = mul(sub(_gap(i2), global_max_pool(i2)), params.alpha)
    gate = sigmoid(conv2d(relu(desc), params.fm_gate_w, params.fm_gate_b))
    return mul(pow_(params.gamma, params.p_exponent), mul(gate, i2))


def fmcab_forward(f_in, params):
    _check_channels(f_in, params.channels, "fmcab_forward")
    i1 = relu(
        conv2d(
            conv2d(
                layer_norm(f_in, params.ln_scale, params.ln_shift),
                params.conv3a_w,
                params.conv3a_b,
                pad=1,
            ),
            params.conv1a_w,
            params.conv1a_b,
        )
    )
    squeezed = relu(conv2d(i1, params.se_reduce_w, params.se_reduce_b))
    descriptor = relu(_gap(squeezed))
    se_gate = sigmoid(conv2d(descriptor, params.se_expand_w, params.se_expand_b))
    i2 = mul(se_gate, i1)

    branch3 = layer_norm(
        conv2d(f_in, params.branch_conv3_w, params.branch_conv3_b, pad=1),
        params.branch_ln_scale,
        params.branch_ln_shift,
    )
    branch1 = conv2d(gelu(f_in), params.branch_conv1_w, params.branch_conv1_b)
    return add(add(add(focal_modulation(i2, params), branch3), branch1), i1)


# ---------------------------------------------------------------------------
# BiFFM


@dataclass
class BiffmParams:
    in_channels_d: int
    in_channels_s: int
    width: int
    shuffle_groups: int
    proj_a_w: Tensor
    proj_a_b: Tensor
    proj_b_w: Tensor
    proj_b_b: Tensor
    gap1x1_a_w: Tensor
    gap1x1_a_b: Tensor
    gap1x1_b_w: Tensor
    gap1x1_b_b: Tensor
    path1_1x1_w: Tensor
    path1_1x1_b: Tensor
    path1_3x1_w: Tensor
    path1_3x1_b: Tensor
    path1_1x3_w: Tensor
    path1_1x3_b: Tensor
    path2_in_1x1_w: Tensor
    path2_in_1x1_b: Tensor
    path2_out_1x1_w: Tensor
    path2_out_1x1_b: Tensor

    @classmethod
    def build(cls, store, prefix, cd, cs, width=None, shuffle_groups=4):
        c = cd if width is None else width
        if (2 * c) % shuffle_groups != 0:
            raise ConfigurationError(
                f"shuffle_groups={shuffle_groups} does not divide {2 * c} channels"
            )
        p = prefix
        return cls(
            in_channels_d=cd,
            in_channels_s=cs,
            width=c,
            shuffle_groups=shuffle_groups,
            proj_a_w=store.conv_weight(f"{p}.proj_a.w", c, cd, 1, 1),
            proj_a_b=store.zeros(f"{p}.proj_a.b", (c,)),
            proj_b_w=store.conv_weight(f"{p}.proj_b.w", c, cs, 1, 1),
            proj_b_b=store.zeros(f"{p}.proj_b.b", (c,)),
            gap1x1_a_w=store.conv_weight(f"{p}.gap1x1_a.w", c, c, 1, 1),
            gap1x1_a_b=store.zeros(f"{p}.gap1x1_a.b", (c,)),
            gap1x1_b_w=store.conv_weight(f"{p}.gap1x1_b.w", c, c, 1, 1),
            gap1x1_b_b=store.zeros(f"{p}.gap1x1_b.b", (c,)),
            # small positive bias on the gate paths: their relus sit behind
            # nonnegative pooled descriptors, and zero bias leaves whole gate
            # layers dead at init with coin-flip probability at small widths
            path1_1x1_w=store.conv_weight(f"{p}.path1_1x1.w", c, 2 * c, 1, 1),
            path1_1x1_b=store.full(f"{p}.path1_1x1.b", (c,), 0.01),
            path1_3x1_w=store.conv_weight(f"{p}.path1_3x1.w", c, c, 3, 1),
            path1_3x1_b=store.full(f"{p}.path1_3x1.b", (c,), 0.01),
            path1_1x3_w=store.conv_weight(f"{p}.path1_1x3.w", c, c, 1, 3),
            path1_1x3_b=store.full(f"{p}.path1_1x3.b", (c,), 0.01),
            path2_in_1x1_w=store.conv_weight(f"{p}.path2_in_1x1.w", 2 * c, 2 * c, 1, 1),
            path2_in_1x1_b=store.full(f"{p}.path2_in_1x1.b", (2 * c,), 0.01),
            path2_out_1x1_w=store.conv_weight(f"{p}.path2_out_1x1.w", c, 2 * c, 1, 1),
            path2_out_1x1_b=store.zeros(f"{p}.path2_out_1x1.b", (c,)),
        )

    @property
    def out_channels(self):
        return 2 * self.width


def biffm_forward(d, s, params, return_gates=False):
    """Dual-path gated fusion of a decoder map with a (resized) skip map."""
    _check_channels(d, params.in_channels_d, "biffm_forward decoder input")
    _check_channels(s, params.in_channels_s, "biffm_forward skip input")
    h, w = d.shape[2], d.shape[3]

    pd = conv2d(d, params.proj_a_w, params.proj_a_b)
    ps = conv2d(bilinear_resize(s, h, w), params.proj_b_w, params.proj_b_b)

    x1 = _gap(pd)
    x2 = _gap(ps)
    x = concat(
        [
            relu(conv2d(x1, params.gap1x1_a_w, params.gap1x1_a_b)),
            relu(conv2d(x2, params.gap1x1_b_w, params.gap1x1_b_b)),
        ],
        axis=1,
    )

    t1 = relu(conv2d(x, params.path1_1x1_w, params.path1_1x1_b))
    t1 = relu(conv2d(t1, params.path1_3x1_w, params.path1_3x1_b, pad=(1, 0)))
    t1 = conv2d(t1, params.path1_1x3_w, params.path1_1x3_b, pad=(0, 1))
    gate1 = sigmoid(relu(t1))

    t2 = relu(conv2d(x, params.path2_in_1x1_w, params.path2_in_1x1_b))
    t2 = channel_shuffle(t2, params.shuffle_groups)
    gate2 = sigmoid(relu(conv2d(t2, params.path2_out_1x1_w, params.path2_out_1x1_b)))

    fused = concat([mul(mul(gate1, pd), ps), mul(mul(gate2, pd), ps)], axis=1)
    if return_gates:
        return fused, (gate1, gate2)
    return fused


# ---------------------------------------------------------------------------
# ViTM (TSA + GSA bottleneck)


@dataclass
class VitmParams:
    channels: int
    heads: int
    spatial_hw: int
    wq_w: Tensor
    wq_b: Tensor
    wk_w: Tensor
    wk_b: Tensor
    wv_w: Tensor
    wv_b: Tensor
    pos_embed: Tensor
    gsa_embed_c_w: Tensor
    gsa_embed_c_b: Tensor
    gsa_embed_half_w: Tensor
    gsa_embed_half_b: Tensor
    fuse_1x1_w: Tensor
    fuse_1x1_b: Tensor

    @classmethod
    def build(cls, store, prefix, channels, spatial_hw, heads=4):
        c = channels
        if c % heads != 0:
            raise ConfigurationError(f"heads={heads} does not divide {c} channels")
        if c % 2 != 0:
            raise ConfigurationError(f"channel width must be even, got {c}")
        p = prefix
        return cls(
            channels=c,
            heads=heads,
            spatial_hw=spatial_hw,
            wq_w=store.conv_weight(f"{p}.wq.w", c, c, 1, 1),
            wq_b=store.zeros(f"{p}.wq.b", (c,)),
            wk_w=store.conv_weight(f"{p}.wk.w", c, c, 1, 1),
            wk_b=store.zeros(f"{p}.wk.b", (c,)),
            wv_w=store.conv_weight(f"{p}.wv.w", c, c, 1, 1),
            wv_b=store.zeros(f"{p}.wv.b", (c,)),
            pos_embed=store.matrix(f"{p}.pos_embed", spatial_hw, c, scale=0.02),
            gsa_embed_c_w=store.conv_weight(f"{p}.gsa_embed_c.w", c, c, 1, 1),
            gsa_embed_c_b=store.zeros(f"{p}.gsa_embed_c.b", (c,)),
            gsa_embed_half_w=store.conv_weight(f"{p}.gsa_embed_half.w", c // 2, c, 1, 1),
            gsa_embed_half_b=store.zeros(f"{p}.gsa_embed_half.b", (c // 2,)),
            fuse_1x1_w=store.conv_weight(f"{p}.fuse_1x1.w", c, 2 * c, 1, 1),
            fuse_1x1_b=store.zeros(f"{p}.fuse_1x1.b", (c,)),
        )


def tsa_forward(f_in, params, return_attn=False):
    """Channel self-attention over position-encoded tokens (c x c similarity)."""
    _check_channels(f_in, params.channels, "tsa_forward")
    n, c, h, w = f_in.shape
    hw = h * w
    if params.pos_embed.shape != (hw, c):
        raise ConfigurationError(
            f"pos_embed extent {params.pos_embed.shape} != ({hw}, {c})"
        )
    heads = params.heads
    ch = c // heads

    tokens = add(permute(reshape(f_in, (n, c, hw)), (0, 2, 1)), params.pos_embed)
    xmap = reshape(permute(tokens, (0, 2, 1)), (n, c, h, w))
    q = conv2d(xmap, params.wq_w, params.wq_b)
    k = conv2d(xmap, params.wk_w, params.wk_b)
    v = conv2d(xmap, params.wv_w, params.wv_b)

    qh = permute(reshape(q, (n, heads, ch, hw)), (0, 1, 3, 2))  # tokens x channels
    kh = reshape(k, (n, heads, ch, hw))
    vh = reshape(v, (n, heads, ch, hw))
    scores = mul(matmul(kh, qh), 1.0 / math.sqrt(ch))
    attn = softmax(scores, axis=-1)  # (n, heads, ch, ch)
    out = reshape(matmul(attn, vh), (n, c, h, w))
    if return_attn:
        return out, attn
    return out


def gsa_forward(f_in, params, return_attn=False):
    """Spatial self-attention with an (h*w) x (h*w) position-similarity map."""
    _check_channels(f_in, params.channels, "gsa_forward")
    n, c, h, w = f_in.shape
    hw = h * w
    c2 = c // 2

    fc = conv2d(f_in, params.gsa_embed_c_w, params.gsa_embed_c_b)
    fh = conv2d(f_in, params.gsa_embed_half_w, params.gsa_embed_half_b)
    f1 = permute(reshape(fh, (n, c2, hw)), (0, 2, 1))
    f2 = reshape(fh, (n, c2, hw))
    attn = softmax(mul(matmul(f1, f2), 1.0 / math.sqrt(c2)), axis=-1)  # (n, hw, hw)
    out = matmul(attn, permute(reshape(fc, (n, c, hw)), (0, 2, 1)))
    out = reshape(permute(out, (0, 2, 1)), (n, c, h, w))
    if return_attn:
        return out, attn
    return out


def vitm_forward(f_in, params):
    """Fuse TSA and GSA branches with a 1x1 conv and add the residual."""
    fused = conv2d(
        concat([tsa_forward(f_in, params), gsa_forward(f_in, params)], axis=1),
        params.fuse_1x1_w,
        params.fuse_1x1_b,
    )
    return add(fused, f_in)


# ---------------------------------------------------------------------------
# FRM


@dataclass
class FrmParams:
    in_channels: int
    branch_channels: int
    upsample: bool
    drop_p: float
    dw_w: Tensor
    dw_b: Tensor
    pw_w: Tensor
    pw_b: Tensor
    bn_scale: Tensor
    bn_shift: Tensor
    bn_state: BatchNormState

    @classmethod
    def build(cls, store, prefix, cin, cout, upsample, drop_p=0.5):
        p = prefix
        return cls(
            in_channels=cin,
            branch_channels=cout,
            upsample=upsample,
            drop_p=drop_p,
            dw_w=store.conv_weight(f"{p}.dw.w", cin, 1, 3, 3),
            dw_b=store.zeros(f"{p}.dw.b", (cin,)),
            pw_w=store.conv_weight(f"{p}.pw.w", cout, cin, 1, 1),
            pw_b=store.zeros(f"{p}.pw.b", (cout,)),
            bn_scale=store.ones(f"{p}.bn.scale", (cout,)),
            bn_shift=store.zeros(f"{p}.bn.shift", (cout,)),
            bn_state=BatchNormState(cout),
        )

    @property
    def out_channels(self):
        return self.branch_channels + self.in_channels


def frm_forward(x, params, mode="train", rng=None):
    _check_channels(x, params.in_channels, "frm_forward")
    h, w = x.shape[2], x.shape[3]
    if params.upsample:
        oh, ow = 2 * h, 2 * w
        t = bilinear_resize(x, oh, ow)
    else:
        oh, ow = h, w
        t = x
    t = dropout(t, params.drop_p, mode, rng)
    t = dws_conv3x3(t, params.dw_w, params.dw_b, params.pw_w, params.pw_b)
    t = relu(t)
    t = batch_norm(t, params.bn_scale, params.bn_shift, params.bn_state, mode)
    identity = bilinear_resize(x, oh, ow)
    return concat([t, identity], axis=1)
