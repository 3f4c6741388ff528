"""Full network assembly: toy encoder, aggregated skips, ViTM bottleneck,
FRM/BiFFM decoder, and the sigmoid mask head.

The encoder is a plain 4-stage convolutional stand-in with the stage
interface the architecture needs (feature maps at strides 2, 4, 8, 16).
Skip n concatenates the FMCAB-processed stage output with the max-pooled
previous skip, so skip widths are cumulative over the encoder widths.

Each decoder block concatenates its reconstruction with its frm_up output
(same extents, so no resize), which holds the block input, upsampled once,
as identity channels, so the widest maps reach full resolution.  A 1x1 conv
mixes channels and an align-corners bilinear resize mixes pixels with rows
that sum to 1, so in exact arithmetic ``conv1x1(resize(x)) ==
resize(conv1x1(x))``, bias included.  In dec1-3 the identity channels feed
the next block's dropout and depthwise conv, which do not commute with the
resize, so they are built in full.  After the last block only 1x1 convs
read them (``biffm.proj_a`` and the head), so there their share is computed
at the block input's size and resized after.

In eval mode every block's frm_up branch also runs at its input's size,
through its kernel taps (see ``blocks``): its depthwise and pointwise convs
and the resize are linear once dropout is the identity, so the last block
never resizes its input at all, and dec1-3 resize theirs only for the
identity channels.  In exact arithmetic the outputs are those of the
upsample-first branch; in float32 they move by rounding (about 1e-7).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import blocks
from .engine import (
    ParamStore,
    Tensor,
    add,
    batch_norm,
    bilinear_resize,
    channel_slice,
    concat,
    conv2d,
    max_pool2x2,
    no_grad,
    relu,
    sigmoid,
)
from .errors import ConfigurationError, DimensionError

# Where decoder block i takes its skip from; a checkpoint stores the index.
SKIP_MODES = ("literal_s4", "stage_matched")
# Largest seed a checkpoint's float64 entry holds exactly.
MAX_SEED = 2**53


@dataclass
class ModelConfig:
    in_channels: int = 3
    input_size: tuple = (64, 64)
    # Sized for a single desk-class core: the decoder identity concats make
    # channel counts cumulative, so wide defaults blow past memory fast.
    encoder_widths: tuple = (8, 16, 32, 64)
    decoder_widths: tuple = (16, 8, 8, 8)
    heads: int = 4
    fmcab_reduction: int = 4
    p_exponent: float = 1.0
    shuffle_groups: int = 4
    skip_mode: str = "literal_s4"
    seed: int = 0

    def validate(self):
        size = self.input_size
        if len(size) != 2 or not all(isinstance(v, int) and v >= 16 and v % 16 == 0
                                     for v in size):
            raise ConfigurationError(
                f"input_size: {size} must be two positive multiples of 16 "
                "(four stride-2 stages)"
            )
        for name in ("encoder_widths", "decoder_widths"):
            widths = getattr(self, name)
            if len(widths) != 4 or any(v <= 0 for v in widths):
                raise ConfigurationError(f"{name}: need 4 positive widths, got {widths}")
        if self.in_channels < 1:
            raise ConfigurationError(f"in_channels: must be positive, got {self.in_channels}")
        # checked before any of them divides a width below
        for name in ("heads", "fmcab_reduction", "shuffle_groups"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name}: must be an integer >= 1, got {value!r}")
        c4 = self.encoder_widths[3]
        if c4 % self.heads != 0:
            raise ConfigurationError(f"heads: {self.heads} does not divide bottleneck width {c4}")
        if c4 % 2 != 0:
            raise ConfigurationError(f"encoder_widths: bottleneck width {c4} must be even")
        for wd in self.decoder_widths:
            if (2 * wd) % self.shuffle_groups != 0:
                raise ConfigurationError(
                    f"shuffle_groups: {self.shuffle_groups} does not divide {2 * wd}"
                )
        if self.skip_mode not in SKIP_MODES:
            raise ConfigurationError(f"skip_mode: unknown value {self.skip_mode!r}")
        if not (math.isfinite(self.p_exponent) and self.p_exponent > 0):
            raise ConfigurationError(f"p_exponent: must be finite and > 0, got {self.p_exponent}")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= MAX_SEED:
            raise ConfigurationError(f"seed: must be an integer in 0..2**53, got {self.seed!r}")

    @property
    def bottleneck_size(self):
        return (self.input_size[0] // 16, self.input_size[1] // 16)

    def skip_widths(self):
        return list(itertools.accumulate(self.encoder_widths))

    def skip_index(self, i):
        """Which aggregated skip decoder block ``i`` (0-based) fuses."""
        return 3 if self.skip_mode == "literal_s4" else 3 - i


@dataclass
class EncoderStageParams:
    conv1: tuple
    bn1: tuple
    conv2: tuple
    bn2: tuple
    fmcab: blocks.FmcabParams


@dataclass
class DecoderBlockParams:
    frm_up: blocks.FrmParams
    biffm: blocks.BiffmParams
    frm_fuse: blocks.FrmParams


@dataclass
class ModelParams:
    config: ModelConfig
    store: ParamStore
    stages: list
    vitm: blocks.VitmParams
    decoder: list
    head_w: Tensor
    head_b: Tensor

    @property
    def bn_states(self):
        """Batch-norm running statistics by layer name, in build order."""
        return self.store.bn_states


@dataclass
class ForwardTrace:
    f_out: Tensor


def build_model(config: ModelConfig) -> ModelParams:
    config.validate()
    store = ParamStore(config.seed)

    stages = []
    cin = config.in_channels
    for i, cout in enumerate(config.encoder_widths):
        p = f"enc{i + 1}"
        stage = EncoderStageParams(
            conv1=store.conv(f"{p}.conv1", cout, cin, 3, 3),
            bn1=store.bn(f"{p}.bn1", cout),
            conv2=store.conv(f"{p}.conv2", cout, cout, 3, 3),
            bn2=store.bn(f"{p}.bn2", cout),
            fmcab=blocks.FmcabParams.build(
                store,
                f"{p}.fmcab",
                cout,
                reduction=config.fmcab_reduction,
                p_exponent=config.p_exponent,
            ),
        )
        stages.append(stage)
        cin = cout

    bh, bw = config.bottleneck_size
    vitm = blocks.VitmParams.build(
        store, "vitm", config.encoder_widths[3], bh * bw, heads=config.heads
    )

    skip_widths = config.skip_widths()
    decoder = []
    prev = config.encoder_widths[3]
    for i, cout in enumerate(config.decoder_widths):
        p = f"dec{i + 1}"
        skip_c = skip_widths[config.skip_index(i)]
        frm_up = blocks.FrmParams.build(store, f"{p}.frm_up", prev, cout, upsample=True)
        u_channels = frm_up.out_channels
        biffm = blocks.BiffmParams.build(
            store,
            f"{p}.biffm",
            u_channels,
            skip_c,
            width=cout,
            shuffle_groups=config.shuffle_groups,
        )
        frm_fuse = blocks.FrmParams.build(
            store, f"{p}.frm_fuse", biffm.out_channels, cout, upsample=False
        )
        decoder.append(DecoderBlockParams(frm_up, biffm, frm_fuse))
        prev = frm_fuse.out_channels + u_channels

    head_w, head_b = store.conv("head", 1, prev, 1, 1)

    return ModelParams(
        config=config,
        store=store,
        stages=stages,
        vitm=vitm,
        decoder=decoder,
        head_w=head_w,
        head_b=head_b,
    )


def _stage_forward(x, stage, mode):
    t = relu(batch_norm(conv2d(x, *stage.conv1, pad=1), *stage.bn1, mode))
    t = relu(batch_norm(conv2d(t, *stage.conv2, pad=1), *stage.bn2, mode))
    return max_pool2x2(t)


def encoder_forward(f_in, params, mode):
    """Run the four stages; returns (stage outputs, aggregated skips)."""
    cfg = params.config
    if f_in.ndim != 4 or f_in.shape[1] != cfg.in_channels:
        raise DimensionError(
            f"encoder input must be Nx{cfg.in_channels}xHxW, got {f_in.shape}"
        )
    outputs = []
    skips = []
    t = f_in
    for i, stage in enumerate(params.stages):
        t = _stage_forward(t, stage, mode)
        outputs.append(t)
        attended = blocks.fmcab_forward(t, stage.fmcab)
        if i == 0:
            skips.append(attended)
        else:
            skips.append(concat([attended, max_pool2x2(skips[-1])], axis=1))
    return outputs, skips


def model_forward(f_in, params, mode, rng=None) -> ForwardTrace:
    cfg = params.config
    h, w = cfg.input_size
    if f_in.shape[2] != h or f_in.shape[3] != w:
        raise DimensionError(
            f"input spatial size {f_in.shape[2]}x{f_in.shape[3]} != configured {h}x{w}"
        )
    stage_outputs, skips = encoder_forward(f_in, params, mode)
    f_enc = blocks.vitm_forward(stage_outputs[3], params.vitm)

    *inner, last = params.decoder
    prev = f_enc
    for i, block in enumerate(inner):
        u = blocks.frm_forward(prev, block.frm_up, mode, rng)
        fused = blocks.biffm_forward(u, skips[cfg.skip_index(i)], block.biffm)
        prev = concat([blocks.frm_forward(fused, block.frm_fuse, mode, rng), u], axis=1)

    skip = skips[cfg.skip_index(len(inner))]
    return ForwardTrace(f_out=_last_block_and_head(prev, skip, last, params, mode, rng))


def _last_block_and_head(prev, skip, block, params, mode, rng):
    """The last decoder block and the sigmoid head, without the block's
    frm_up identity ``resize(prev)``.

    Only 1x1 convs read those channels: ``proj_a`` directly and the head
    through the block output.  Their share of both is computed at prev's
    size, and its width + 1 channels are resized in place of prev's.
    The branch takes prev itself: it upsamples prev in train mode and runs
    at prev's size in eval mode.
    """
    branch = blocks.frm_branch(prev, block.frm_up, mode, rng)
    nb = branch.shape[1]
    wa, ba = block.biffm.proj_a
    wh, width = params.head_w, wa.shape[0]
    nh = block.frm_fuse.out_channels + nb  # head inputs ahead of the identity
    shares = conv2d(prev, concat([channel_slice(wa, nb, wa.shape[1]),
                                  channel_slice(wh, nh, wh.shape[1])], axis=0))
    shares = bilinear_resize(shares, branch.shape[2], branch.shape[3])
    pd = add(conv2d(branch, channel_slice(wa, 0, nb), ba), channel_slice(shares, 0, width))
    fused = blocks.biffm_fuse(pd, skip, block.biffm)
    reconstructed = blocks.frm_forward(fused, block.frm_fuse, mode, rng)
    logits = conv2d(concat([reconstructed, branch], axis=1), channel_slice(wh, 0, nh),
                    params.head_b)
    return sigmoid(add(logits, channel_slice(shares, width, width + 1)))


def predict_probs(params, images, batch_size):
    """Eval-mode probability maps, one 1xHxW map per 3xHxW image.

    Images may have any extent: each one that differs from
    ``config.input_size`` is resized to it, the network runs in batches of
    ``batch_size``, and each map is resized back to its own image's extent.
    The resizes and the batches run under ``no_grad``.
    """
    h, w = params.config.input_size
    with no_grad():
        resized = [bilinear_resize(Tensor(image[None]), h, w).data[0] for image in images]
        probs = []
        for start in range(0, len(resized), batch_size):
            x = Tensor(np.stack(resized[start : start + batch_size]))
            probs.extend(model_forward(x, params, mode="eval").f_out.data)
        return [
            bilinear_resize(Tensor(prob[None]), *image.shape[1:]).data[0]
            for image, prob in zip(images, probs)
        ]
