"""Reference dropout masks for the tests, built bit by bit from the raw-word
layout that ``engine.dropout_depthwise`` documents."""

import numpy as np

from fmbff.engine import mul


def raw_bit_mask(rng, shape):
    """Element e is kept when bit e % 64 of raw word e // 64 of ``rng``'s bit
    generator is set; draws ceil(n / 64) words."""
    n = int(np.prod(shape))
    words = rng.bit_generator.random_raw(-(-n // 64))
    e = np.arange(n)
    bits = (words[e // 64] >> (e % 64).astype(np.uint64)) & np.uint64(1)
    return bits.astype(bool).reshape(shape)


def dropped(x, mode, rng=None):
    """Dropout at rate 1/2 from public ops: ``x * mask * 2`` in train mode,
    ``x`` itself in eval mode."""
    if mode == "eval":
        return x
    return mul(x, raw_bit_mask(rng, x.shape) * x.dtype.type(2))
