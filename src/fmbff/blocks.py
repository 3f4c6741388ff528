"""Parameterized forward passes for the four architecture blocks.

Each block is a plain dataclass that holds its layers and its
hyperparameters, nothing else.  Every layer is registered in a ParamStore (so
the optimizer and checkpointing see every weight): a conv field is a
(weight, bias) pair, a norm field a (scale, shift) pair and a batch-norm field
adds its running statistics.  Channel counts are not stored: they are read
from the weights' shapes.  A pure forward function goes with each block.
``ModelConfig.validate`` checks the hyperparameters' rules (p, heads, shuffle
groups); ``build`` takes them as given.  Channel contracts:

  * FMCAB keeps N x C x H x W unchanged.
  * BiFFM fuses a decoder map (N x Cd x H x W) with a skip (any size) into
    N x 2*width x H x W, where ``width`` is the entry projections' width.
  * ViTM keeps the bottleneck shape unchanged (residual).
  * FRM maps N x Cin x H x W to N x (Cout + Cin) x H' x W', doubling the
    spatial extents when ``upsample`` is set: ``frm_branch``'s Cout channels,
    then the input, resized once for both, as its identity.

A 1x1 conv commutes with an align-corners bilinear resize (it mixes channels,
the resize mixes pixels with rows that sum to 1), so BiFFM projects its skip
at the skip's own size and resizes the ``width``-channel result.  The model's
last decoder block uses the same identity on FRM's identity channels.

In eval mode an upsampling FRM branch never builds its upsampled map.
Dropout is then the identity, so before relu and batch norm the branch is
``pw(dw(resize(x)))``, three linear maps.  With K the depthwise kernel
(Cin x 3 x 3), P the pointwise weight (Cout x Cin) and R_i the resize
matrix with its rows shifted by tap offset i - 1 (zero rows where the tap
falls in the padding), it equals

    sum_ij R_i^h (sum_c P[o,c] K[c,i,j] x_c) (R_j^w)^T + P b_dw + b_pw:

one 1x1 conv from Cin to 9 Cout channels at x's own size, then one
resample by the stacked shifted matrices.  It is exact because each tap
reads the upsampled map at a shifted row and column, which is the shifted
rows of the resize applied to x, and because the depthwise bias is added
after the zero padding, so it reaches every output pixel unchanged.  Train
mode cannot use it: dropout's per-pixel mask at the output size sits
between the resize and the depthwise conv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import (
    ParamStore,
    Tensor,
    _resample,
    _tap_weights,
    add,
    batch_norm,
    bilinear_resize,
    channel_shuffle,
    concat,
    conv2d,
    dropout,
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
    return mean_(x, axis=(2, 3))


def _check_channels(x, conv, what):
    """Check that ``x`` has the input width of ``conv``, a (weight, bias) pair."""
    expected = conv[0].shape[1]
    if x.shape[1] != expected:
        raise DimensionError(
            f"{what} expects {expected} channels, got {x.shape[1]} (axis 1)"
        )


# ---------------------------------------------------------------------------
# FMCAB


@dataclass
class FmcabParams:
    p_exponent: float
    ln: tuple
    conv3a: tuple
    conv1a: tuple
    se_reduce: tuple
    se_expand: tuple
    fm_gate: tuple
    branch_conv3: tuple
    branch_ln: tuple
    branch_conv1: tuple
    gamma: Tensor
    alpha: Tensor

    @classmethod
    def build(cls, store: ParamStore, prefix, channels, reduction=4, p_exponent=1.0):
        c = channels
        r = max(c // reduction, 1)
        p = prefix
        return cls(
            p_exponent=float(p_exponent),
            ln=store.norm(f"{p}.ln", c),
            conv3a=store.conv(f"{p}.conv3a", c, c, 3, 3),
            conv1a=store.conv(f"{p}.conv1a", c, c, 1, 1),
            se_reduce=store.conv(f"{p}.se_reduce", r, c, 1, 1),
            se_expand=store.conv(f"{p}.se_expand", c, r, 1, 1),
            fm_gate=store.conv(f"{p}.fm_gate", c, c, 1, 1),
            branch_conv3=store.conv(f"{p}.branch_conv3", c, c, 3, 3),
            branch_ln=store.norm(f"{p}.branch_ln", c),
            branch_conv1=store.conv(f"{p}.branch_conv1", c, c, 1, 1),
            gamma=store.full(f"{p}.gamma", (), 1.0),
            # GAP <= GMP per channel, so the gap/gmp difference is nonpositive;
            # a negative modulation factor keeps the gate's relu (and with it
            # alpha's own gradient) alive at initialization.
            alpha=store.full(f"{p}.alpha", (), -1.0),
        )


def focal_modulation(i2, params):
    """Gate i2 by the alpha-scaled gap/gmp descriptor difference, times gamma^p."""
    desc = mul(sub(_gap(i2), global_max_pool(i2)), params.alpha)
    gate = sigmoid(conv2d(relu(desc), *params.fm_gate))
    return mul(pow_(params.gamma, params.p_exponent), mul(gate, i2))


def fmcab_forward(f_in, params):
    _check_channels(f_in, params.conv3a, "fmcab_forward")
    i1 = relu(
        conv2d(conv2d(layer_norm(f_in, *params.ln), *params.conv3a, pad=1), *params.conv1a)
    )
    squeezed = relu(conv2d(i1, *params.se_reduce))
    descriptor = relu(_gap(squeezed))
    se_gate = sigmoid(conv2d(descriptor, *params.se_expand))
    i2 = mul(se_gate, i1)

    branch3 = layer_norm(conv2d(f_in, *params.branch_conv3, pad=1), *params.branch_ln)
    branch1 = conv2d(gelu(f_in), *params.branch_conv1)
    return add(add(add(focal_modulation(i2, params), branch3), branch1), i1)


# ---------------------------------------------------------------------------
# BiFFM


@dataclass
class BiffmParams:
    shuffle_groups: int
    proj_a: tuple
    proj_b: tuple
    gap1x1_a: tuple
    gap1x1_b: tuple
    path1_1x1: tuple
    path1_3x1: tuple
    path1_1x3: tuple
    path2_in_1x1: tuple
    path2_out_1x1: tuple

    @classmethod
    def build(cls, store, prefix, cd, cs, width, shuffle_groups=4):
        c = width
        p = prefix
        return cls(
            shuffle_groups=shuffle_groups,
            proj_a=store.conv(f"{p}.proj_a", c, cd, 1, 1),
            proj_b=store.conv(f"{p}.proj_b", c, cs, 1, 1),
            gap1x1_a=store.conv(f"{p}.gap1x1_a", c, c, 1, 1),
            gap1x1_b=store.conv(f"{p}.gap1x1_b", c, c, 1, 1),
            # small positive bias on the gate paths: their relus sit behind
            # nonnegative pooled descriptors, and zero bias leaves whole gate
            # layers dead at init with coin-flip probability at small widths
            path1_1x1=store.conv(f"{p}.path1_1x1", c, 2 * c, 1, 1, bias=0.01),
            path1_3x1=store.conv(f"{p}.path1_3x1", c, c, 3, 1, bias=0.01),
            path1_1x3=store.conv(f"{p}.path1_1x3", c, c, 1, 3, bias=0.01),
            path2_in_1x1=store.conv(f"{p}.path2_in_1x1", 2 * c, 2 * c, 1, 1, bias=0.01),
            path2_out_1x1=store.conv(f"{p}.path2_out_1x1", c, 2 * c, 1, 1),
        )

    @property
    def out_channels(self):
        return 2 * self.proj_a[0].shape[0]


def biffm_forward(d, s, params, return_gates=False):
    """Dual-path gated fusion of a decoder map with a (resized) skip map."""
    _check_channels(d, params.proj_a, "biffm_forward decoder input")
    return biffm_fuse(conv2d(d, *params.proj_a), s, params, return_gates)


def biffm_fuse(pd, s, params, return_gates=False):
    """BiFFM after its decoder projection: ``pd`` is ``proj_a`` of the decoder
    map (N x width x H x W), ``s`` the skip map at any size.

    The skip is projected at its own size and the ``width``-channel result
    resized to H x W: a 1x1 conv commutes with the resize.
    """
    _check_channels(s, params.proj_b, "biffm_forward skip input")
    ps = bilinear_resize(conv2d(s, *params.proj_b), pd.shape[2], pd.shape[3])

    x1 = _gap(pd)
    x2 = _gap(ps)
    x = concat(
        [relu(conv2d(x1, *params.gap1x1_a)), relu(conv2d(x2, *params.gap1x1_b))], axis=1
    )

    t1 = relu(conv2d(x, *params.path1_1x1))
    t1 = relu(conv2d(t1, *params.path1_3x1, pad=(1, 0)))
    t1 = conv2d(t1, *params.path1_1x3, pad=(0, 1))
    gate1 = sigmoid(relu(t1))

    t2 = relu(conv2d(x, *params.path2_in_1x1))
    t2 = channel_shuffle(t2, params.shuffle_groups)
    gate2 = sigmoid(relu(conv2d(t2, *params.path2_out_1x1)))

    fused = concat([mul(mul(gate1, pd), ps), mul(mul(gate2, pd), ps)], axis=1)
    if return_gates:
        return fused, (gate1, gate2)
    return fused


# ---------------------------------------------------------------------------
# ViTM (TSA + GSA bottleneck)


@dataclass
class VitmParams:
    heads: int
    wq: tuple
    wk: tuple
    wv: tuple
    pos_embed: Tensor
    gsa_embed_c: tuple
    gsa_embed_half: tuple
    fuse_1x1: tuple

    @classmethod
    def build(cls, store, prefix, channels, spatial_hw, heads=4):
        c = channels
        p = prefix
        return cls(
            heads=heads,
            wq=store.conv(f"{p}.wq", c, c, 1, 1),
            wk=store.conv(f"{p}.wk", c, c, 1, 1),
            wv=store.conv(f"{p}.wv", c, c, 1, 1),
            pos_embed=store.matrix(f"{p}.pos_embed", spatial_hw, c, scale=0.02),
            gsa_embed_c=store.conv(f"{p}.gsa_embed_c", c, c, 1, 1),
            gsa_embed_half=store.conv(f"{p}.gsa_embed_half", c // 2, c, 1, 1),
            fuse_1x1=store.conv(f"{p}.fuse_1x1", c, 2 * c, 1, 1),
        )


def tsa_forward(f_in, params, return_attn=False):
    """Channel self-attention over position-encoded tokens (c x c similarity)."""
    _check_channels(f_in, params.wq, "tsa_forward")
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
    q = conv2d(xmap, *params.wq)
    k = conv2d(xmap, *params.wk)
    v = conv2d(xmap, *params.wv)

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
    _check_channels(f_in, params.gsa_embed_c, "gsa_forward")
    n, c, h, w = f_in.shape
    hw = h * w
    c2 = c // 2

    fc = conv2d(f_in, *params.gsa_embed_c)
    fh = conv2d(f_in, *params.gsa_embed_half)
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
        *params.fuse_1x1,
    )
    return add(fused, f_in)


# ---------------------------------------------------------------------------
# FRM


@dataclass
class FrmParams:
    upsample: bool
    dw: tuple
    pw: tuple
    bn: tuple

    @classmethod
    def build(cls, store, prefix, cin, cout, upsample):
        p = prefix
        return cls(
            upsample=upsample,
            dw=store.conv(f"{p}.dw", cin, 1, 3, 3),
            pw=store.conv(f"{p}.pw", cout, cin, 1, 1),
            bn=store.bn(f"{p}.bn", cout),
        )

    @property
    def out_channels(self):
        return sum(self.pw[0].shape[:2])  # branch width + input width


def _upsample(x):
    return bilinear_resize(x, 2 * x.shape[2], 2 * x.shape[3])


def _upsampled_separable_conv(x, params):
    """``pw(dw(upsample(x)))`` run at x's size through the depthwise taps
    (the identity is in the module docstring): the inner sums are one 1x1
    conv from Cin to 9 Cout channels, laid out as (N, Cout, 3h, 3w) blocks
    of taps, and the outer sum is one resample by the stacked shifted
    resize matrices; ``P b_dw + b_pw`` is added last."""
    n, cin, h, w = x.shape
    (kd, bd), (kp, bp) = params.dw, params.pw
    cout = kp.shape[0]
    taps = mul(reshape(kp, (cout, 1, 1, cin)), permute(kd, (1, 2, 3, 0)))
    z = conv2d(x, reshape(taps, (9 * cout, cin, 1, 1)))
    z = reshape(permute(reshape(z, (n, cout, 3, 3, h, w)), (0, 1, 2, 4, 3, 5)),
                (n, cout, 3 * h, 3 * w))
    dtype = x.data.dtype
    z = _resample(z, _tap_weights(h, 2 * h, dtype), _tap_weights(w, 2 * w, dtype))
    return add(z, conv2d(reshape(bd, (1, cin, 1, 1)), kp, bp))


def frm_branch(x, params, mode, rng=None, resized=None):
    """FRM's branch, N x Cin x H x W to N x Cout x H' x W': dropout at rate
    1/2 on the (upsampled) input, depthwise-separable conv, relu and batch
    norm.  ``resized`` is x's upsample when the caller has already built it.

    In eval mode dropout is the identity, so an upsampling branch runs at
    x's size (``_upsampled_separable_conv``) and never builds the upsampled
    map.  Train mode cannot: dropout's per-pixel mask at the output size
    sits between the resize and the depthwise conv.
    """
    if params.upsample and mode == "eval":
        t = _upsampled_separable_conv(x, params)
    else:
        if params.upsample:
            x = _upsample(x) if resized is None else resized
        t = dropout(x, mode, rng)
        t = conv2d(conv2d(t, *params.dw, pad=1, groups=x.shape[1]), *params.pw)
    return batch_norm(relu(t), *params.bn, mode)


def frm_forward(x, params, mode, rng=None):
    """The branch concatenated with its own (upsampled) input, the identity;
    a train-mode branch reads that one upsample."""
    _check_channels(x, params.pw, "frm_forward")
    r = _upsample(x) if params.upsample else x
    return concat([frm_branch(x, params, mode, rng, r), r], axis=1)
