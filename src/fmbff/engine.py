"""Dense tensor value type with reverse-mode differentiation.

Layout convention for image-like data is N x C x H x W.  Every operation
returns a fresh Tensor whose backward closure scatters gradients into its
inputs, bar an identity (a same-size resize, dropout in eval mode), which
returns its input; ``backward(loss)`` runs the whole reverse sweep and frees
each interior gradient once its closure has consumed it, so only leaves hold
``.grad`` afterwards and a step's memory is bounded by what the rest of the
sweep still needs.  Closures keep compact state (bool masks rather than
float ones) for the same reason, and a gradient that a closure computes
afresh becomes its input's ``.grad`` without a copy; only a view of the
gradient being propagated (a pass-through, a slice, a broadcast) is copied.

Forward values live only as long as a closure reads them.  A closure
captures exactly the arrays it reads, and that capture is the only record
of what its backward needs.  ``backward()`` first replaces the value of every
interior node but the loss with a read-only NaN view of the same shape and
type; an array a closure captured stays alive through the closure, and every
other one is freed, so the sweep's gradients reuse that memory and a step
peaks at its forward graph.  After ``backward()``, only leaves and the loss
hold values.

Importing the module fixes one allocator policy for the process: glibc's
mmap threshold at 32 MiB and its trim threshold at 1 GiB (``_keep_heap``).
A step frees its whole forward graph, and at glibc's dynamic thresholds
that freed memory went back to the kernel, so the next step and every eval
batch faulted it in again (5,700-9,800 minor faults a step at 64x64, batch
8; about 10 with the policy).  It is a constant, not an option; it does
nothing off glibc or when the environment sets either threshold.

Element types: a leaf is float32 unless its creator names another type
(gradient checks name float64); every op takes its output type from its
inputs, and a constant operand (a scalar or plain array) takes the type of
the tensor it meets.

Inside ``with no_grad():`` ops record no graph: each result keeps no parents
and no backward closure, so the arrays only a backward pass would read are
freed at once.  ``model.predict_probs`` runs its resizes and batches under
it, and ``gradcheck`` its perturbed and repeated evaluations, none of which
is ever differentiated.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os

import numpy as np

from .errors import ConfigurationError, DimensionError, StateError, UsageError

NORM_EPS = 1e-5  # variance offset of both normalizations
# Working set of one chunk of the depthwise conv's blocked loop: small enough
# to stay in a core's L2 cache while the loop makes several passes.
_CACHE_BYTES = 256 * 1024
# Elements per ufunc buffer inside the depthwise conv, every norm's channel
# affine and eval-mode batch norm's standardization.  NumPy runs a ufunc whose
# operands do not flatten to one loop (a row-strided slice times one weight per
# row, a map times a (1, C, 1, 1) broadcast) through buffers of this size; at
# the default 8192 the buffers outgrow L1, and on rows shorter than that
# (planes of 16x16 and below at batch 8) the depthwise multiply ran 2-3x slower.
_UFUNC_BUFSIZE = 1024


def _keep_heap():
    """Set the allocator policy that the module docstring describes.

    Setting either threshold switches glibc's dynamic thresholds off, so both
    are set: with the trim threshold alone, every array over 128 KiB would be
    mapped afresh each step.  Skipped where libc has no ``mallopt`` and where
    the environment sets either threshold, so glibc's own tunables still win.
    """
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if ("MALLOC_TRIM_THRESHOLD_" in os.environ or "MALLOC_MMAP_THRESHOLD_" in os.environ
            or "malloc.trim_threshold" in tunables or "malloc.mmap_threshold" in tunables):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no process-wide libc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_heap()

_recording = True  # whether ops record parents and backward closures


class no_grad:
    """Context manager under which ops record no graph.

    A result built inside keeps no parents and no backward closure, so
    ``backward()`` on it raises ``UsageError``.  Blocks nest, and each
    restores the setting it found on exit, also when its body raises.
    """

    def __enter__(self):
        global _recording
        self._outer = _recording
        _recording = False

    def __exit__(self, *exc_info):
        global _recording
        _recording = self._outer


class Tensor:
    """A dense N-d array with an optional gradient and producing-op record."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, dtype=None):
        self.data = np.asarray(data, dtype=dtype or np.float32)
        self.grad = None
        self._parents = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data, parents, backward):
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _recording:
            out._parents = [p for p in parents if isinstance(p, Tensor)]
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def is_leaf(self):
        return self._backward is None

    def item(self):
        if self.size != 1:
            raise UsageError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        kind = "leaf" if self.is_leaf() else "op"
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, {kind})"


def _accumulate(t, g):
    # A first gradient that a closure computed afresh becomes ``t.grad`` as it
    # is.  Anything else is copied: a view or a broadcast would send later BLAS
    # calls and reductions down other paths and change the low bits, and
    # ``backward()`` marks the gradient it propagates read-only, so a
    # pass-through's ``g`` (and every view of it) is copied rather than shared
    # by two tensors.  A closure never hands one fresh array to two targets.
    if t.grad is not None:
        t.grad += g
    elif (g.flags.c_contiguous and g.flags.writeable and g.dtype == t.data.dtype
          and g.shape == t.shape):
        t.grad = g
    else:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)


def _unbroadcast(g, shape):
    """Sum a broadcasted gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _as_array(x, other):
    """``x``'s array; a constant takes the element type of its operand ``other``."""
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=other.dtype)


@functools.lru_cache(maxsize=None)
def _nan_scalar(dtype):
    nan = np.full((), np.nan, dtype=dtype)
    nan.flags.writeable = False
    return nan


def _released(a):
    """A read-only, zero-stride NaN array of ``a``'s shape and type: it keeps
    ``.shape`` and ``.dtype`` working and holds no memory of its own."""
    return np.ndarray(a.shape, a.dtype, buffer=_nan_scalar(a.dtype), strides=(0,) * a.ndim)


def backward(loss):
    """Accumulate the gradient of a scalar loss into every reachable leaf.

    Before the sweep, the value of every interior node (every node with a
    backward closure) but the loss is released: its ``.data`` becomes a
    read-only NaN view of the same shape and type.  Each closure captured
    the arrays it reads, so only the arrays no closure holds are freed, the
    sweep's gradients reuse that memory, and repeated calls keep
    accumulating into leaves.  Afterwards only leaves and the loss hold
    values, and only leaves hold ``.grad``: each interior node's gradient is
    released as soon as its backward closure has consumed it.
    """
    if not isinstance(loss, Tensor) or loss._backward is None:
        raise UsageError("backward() requires a non-leaf Tensor produced by an op")
    if loss.size != 1:
        raise UsageError(f"backward() requires a scalar loss, got shape {loss.shape}")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    for node in topo:
        if node._backward is not None:
            node.grad = None
            if node is not loss:
                node.data = _released(node.data)

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node.grad.flags.writeable = False  # see ``_accumulate``
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _binary(a, b, fwd, bwd_a, bwd_b, reads_operands):
    """``bwd_a`` / ``bwd_b`` map (g, a's array, b's array) to each operand's
    gradient; unless ``reads_operands``, the closure keeps only their shapes."""
    ad, bd = _as_array(a, b), _as_array(b, a)
    try:
        data = fwd(ad, bd)
    except ValueError as exc:
        raise DimensionError(f"shapes {ad.shape} and {bd.shape} do not broadcast") from exc
    sa, sb = ad.shape, bd.shape
    if not reads_operands:
        ad = bd = None

    def back(g):
        if isinstance(a, Tensor):
            _accumulate(a, _unbroadcast(bwd_a(g, ad, bd), sa))
        if isinstance(b, Tensor):
            _accumulate(b, _unbroadcast(bwd_b(g, ad, bd), sb))

    return Tensor._from_op(data, (a, b), back)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, False)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g, False)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x, True)


def pow_(x, p):
    """Elementwise x**p for a fixed float exponent."""
    xd = x.data

    def back(g):
        _accumulate(x, g * p * xd ** (p - 1.0))

    return Tensor._from_op(xd ** p, (x,), back)


def log(x):
    xd = x.data
    return Tensor._from_op(np.log(xd), (x,), lambda g: _accumulate(x, g / xd))


def clip(x, lo, hi):
    data = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)
    return Tensor._from_op(data, (x,), lambda g: _accumulate(x, g * inside))


def sum_(x):
    """Sum of every element, as a 0-d tensor."""
    data = np.asarray(x.data.sum())
    return Tensor._from_op(data, (x,), lambda g: _accumulate(x, np.broadcast_to(g, x.shape)))


def mean_(x, axis=None):
    """Mean over every element, or over the tuple ``axis``, whose axes are
    kept at size 1."""
    n = x.size if axis is None else math.prod(x.shape[a] for a in axis)
    data = x.data.mean(axis=axis, keepdims=axis is not None)

    def back(g):
        _accumulate(x, np.broadcast_to(np.asarray(g) / n, x.shape))

    return Tensor._from_op(np.asarray(data), (x,), back)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape[-1]} vs {b.shape[-2]}"
        )
    ad, bd = a.data, b.data

    def back(g):
        _accumulate(a, _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape))
        _accumulate(b, _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape))

    return Tensor._from_op(np.matmul(ad, bd), (a, b), back)


# ---------------------------------------------------------------------------
# convolution


def _pair(v):
    return (v, v) if isinstance(v, int) else tuple(v)


def conv2d(x, w, b=None, stride=1, pad=0, groups=1):
    """2-D convolution (cross-correlation) with zero padding.

    ``groups`` is 1 (dense) or ``Cin == Cout`` (depthwise); other grouped
    convs raise ``ConfigurationError``.  Two lowerings serve every kernel,
    stride and padding, and neither builds a full im2col buffer: both read
    kernel taps as shifted slices of a flat padded buffer.  A dense conv is
    one batched GEMM per tap (``_conv_gemm``); a depthwise conv is one
    per-channel multiply-add per tap, over chunks of channels that stay in
    cache (``_conv_depthwise``).
    """
    if x.ndim != 4:
        raise DimensionError(f"conv2d input must be 4-D, got shape {x.shape}")
    if w.ndim != 4:
        raise DimensionError(f"conv2d weight must be 4-D, got shape {w.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    if sh < 1 or sw < 1:
        raise ConfigurationError(f"stride={stride} must be at least 1")
    if ph < 0 or pw < 0:
        raise ConfigurationError(f"pad={pad} must not be negative")
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    if groups != 1 and not groups == cin == cout:
        raise ConfigurationError(
            f"groups={groups} must be 1 or, for a depthwise conv, equal in-channels {cin} "
            f"and out-channels {cout}"
        )
    if cg != cin // groups:
        raise DimensionError(
            f"weight channel axis is {cg}, expected {cin // groups} (= Cin/groups)"
        )
    if b is not None and b.shape != (cout,):
        raise DimensionError(f"bias shape {b.shape} != ({cout},)")
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise DimensionError(
            f"spatial output extent would be {ho}x{wo} for input {h}x{wd}"
        )

    # Each lowering returns its output and a function g -> (dx, dw).
    lowering = _conv_gemm if groups == 1 else _conv_depthwise
    out, grads = lowering(x.data, w.data, sh, sw, ph, pw, ho, wo)
    if b is not None:
        out += b.data[None, :, None, None]

    def back(g):
        if b is not None:
            _accumulate(b, g.sum(axis=(0, 2, 3)))
        dx, dw = grads(g)
        _accumulate(w, dw)
        _accumulate(x, dx)

    parents = (x, w) if b is None else (x, w, b)
    return Tensor._from_op(out, parents, back)


class _small_ufunc_buffers:
    """Context manager: ufunc buffers of ``_UFUNC_BUFSIZE`` elements inside,
    the size it found restored on exit.  Elementwise results do not depend
    on it."""

    def __enter__(self):
        self._outer = np.setbufsize(_UFUNC_BUFSIZE)

    def __exit__(self, *exc_info):
        np.setbufsize(self._outer)


def _conv_depthwise(x, w, sh, sw, ph, pw, ho, wo):
    """Depthwise conv as per-channel multiply-adds of shifted slices.

    Channel ``c``'s N padded planes lie end to end in one row of a flat
    buffer, ``(C, N*Hp*Wp + tail)``.  On that row's stride-1 grid, tap
    ``t = (i, j)`` reads the slice that starts at ``i*Wp + j``, so the grid is
    ``sum_t w[c, t] * slice_t``; grid rows that straddle two planes, and what
    a stride skips, are computed and dropped.  dx is the scatter-add of
    ``w[c, t] * dgrid`` into the same slices, and ``dw[c, t]`` the dot product
    of ``dgrid[c]`` with slice ``t``.  Channels go in chunks of about
    ``_CACHE_BYTES``, padded afresh in each pass, so a chunk's rows stay in
    cache across the taps and no padded copy of ``x`` outlives the call.
    """
    n, c, h, wd = x.shape
    kh, kw = w.shape[2:]
    hp, wp = h + 2 * ph, wd + 2 * pw
    span = n * hp * wp
    shifts = [i * wp + j for i in range(kh) for j in range(kw)]
    taps = w.reshape(c, kh * kw)
    m = max(1, min(c, _CACHE_BYTES // (span * x.itemsize)))
    chunks = [(lo, min(m, c - lo)) for lo in range(0, c, m)]

    def planes(a, k):  # the first k rows of a chunk buffer as (k, N, Hp, Wp)
        return a[:k, :span].reshape(k, n, hp, wp)

    def load(pad, lo, k):
        planes(pad, k)[:, :, ph : ph + h, pw : pw + wd] = x[:, lo : lo + k].transpose(1, 0, 2, 3)

    picked = np.s_[:, :, : ho * sh : sh, : wo * sw : sw]
    pad = np.zeros((m, span + shifts[-1]), dtype=x.dtype)
    grid = np.empty((m, span), dtype=x.dtype)
    tmp = np.empty_like(grid)
    out = np.empty((n, c, ho, wo), dtype=x.dtype)
    with _small_ufunc_buffers():
        for lo, k in chunks:
            load(pad, lo, k)
            np.multiply(pad[:k, :span], taps[lo : lo + k, :1], out=grid[:k])
            for t in range(1, kh * kw):
                s = shifts[t]
                np.multiply(pad[:k, s : s + span], taps[lo : lo + k, t : t + 1], out=tmp[:k])
                grid[:k] += tmp[:k]
            out[:, lo : lo + k] = planes(grid, k)[picked].transpose(1, 0, 2, 3)

    def grads(g):
        dx = np.empty(x.shape, dtype=x.dtype)
        dw = np.empty((c, kh * kw), dtype=w.dtype)
        pad = np.zeros((m, span + shifts[-1]), dtype=x.dtype)
        dgrid = np.zeros((m, span), dtype=x.dtype)  # zero off the output pixels
        dpad = np.empty_like(pad)
        tmp = np.empty_like(dgrid)
        with _small_ufunc_buffers():
            for lo, k in chunks:
                load(pad, lo, k)
                planes(dgrid, k)[picked] = g[:, lo : lo + k].transpose(1, 0, 2, 3)
                dg = dgrid[:k]
                np.multiply(dg, taps[lo : lo + k, :1], out=dpad[:k, :span])
                dpad[:k, span:] = 0
                for t, s in enumerate(shifts):
                    if t:
                        np.multiply(dg, taps[lo : lo + k, t : t + 1], out=tmp[:k])
                        dpad[:k, s : s + span] += tmp[:k]
                    dw[lo : lo + k, t] = np.matmul(dg[:, None], pad[:k, s : s + span, None])[:, 0, 0]
                dx[:, lo : lo + k] = planes(dpad, k)[:, :, ph : ph + h, pw : pw + wd].transpose(1, 0, 2, 3)
        return dx, dw.reshape(w.shape)

    return out, grads


def _conv_gemm(x, w, sh, sw, ph, pw, ho, wo):
    """Dense conv as one batched GEMM per kernel tap (implicit GEMM).

    ``x`` is padded once into ``flat``, ``(N, Cin, Hp*Wp + kw - 1)``.  On the
    stride-1 grid ``(N, Cout, Ho1*Wp)``, tap ``t = (i, j)`` reads the slice of
    ``flat`` that starts at ``i*Wp + j``, so each tap is ``w_ij @ slice`` on a
    view.  The grid's columns that straddle the padding, and what a stride
    skips, are computed and dropped.  A 1x1 conv with no padding is a single
    GEMM on a view of ``x``.
    """
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hp, wp = h + 2 * ph, wd + 2 * pw
    span = (hp - kh + 1) * wp
    view = kh == kw == 1 and ph == pw == 0
    if view:
        flat = x.reshape(n, cin, span)
    else:
        flat = np.zeros((n, cin, hp * wp + kw - 1), dtype=x.dtype)
        flat[:, :, : hp * wp].reshape(n, cin, hp, wp)[:, :, ph : ph + h, pw : pw + wd] = x
    taps = w.transpose(2, 3, 0, 1).reshape(kh * kw, cout, cin)
    grid = np.matmul(taps[0], flat[:, :, :span])
    for t in range(1, kh * kw):
        s = t // kw * wp + t % kw
        grid += np.matmul(taps[t], flat[:, :, s : s + span])
    exact = span == ho * wo  # the grid holds only output pixels
    out = grid.reshape(n, cout, ho, wo) if exact else np.ascontiguousarray(
        grid.reshape(n, cout, -1, wp)[:, :, : ho * sh : sh, : wo * sw : sw])

    def grads(g):
        g1 = g.reshape(n, cout, span) if exact else np.zeros((n, cout, span), g.dtype)
        if not exact:
            g1.reshape(n, cout, -1, wp)[:, :, : ho * sh : sh, : wo * sw : sw] = g
        if kh * kw > 1:
            dflat = np.zeros_like(flat)
        elif cout == 1:
            # A K = 1 GEMM: the broadcast product gives the same bits, faster.
            dflat = taps[0].T[None] * g1
        else:
            dflat = np.matmul(taps[0].T, g1)
        dw = np.empty((cout, cin, kh * kw), dtype=w.dtype)
        for t in range(kh * kw):
            s = t // kw * wp + t % kw
            if kh * kw > 1:
                dflat[:, :, s : s + span] += np.matmul(taps[t].T, g1)
            dw[:, :, t] = np.matmul(g1, flat[:, :, s : s + span].swapaxes(1, 2)).sum(axis=0)
        dx = dflat[:, :, : hp * wp].reshape(n, cin, hp, wp)[:, :, ph : ph + h, pw : pw + wd]
        return dx, dw.reshape(w.shape)

    return out, grads


# ---------------------------------------------------------------------------
# pooling


# The four stride-2 views of a 2x2 pool's input, one per window element in
# row-major order.
_WINDOW_VIEWS = tuple(np.s_[:, :, i::2, j::2] for i in range(2) for j in range(2))


def max_pool2x2(x):
    """2x2 stride-2 max pool; odd extents are right/bottom padded with -inf.

    The forward walks the four stride-2 views of the map in the order (0,0),
    (0,1), (1,0), (1,1) and keeps each window's first maximum, as ``argmax``
    does: a later element replaces the running one only where it is greater,
    or is NaN where the running one is not.  A replacement copies the
    element's bits, ``out ^= (v ^ out) * take`` on the unsigned integers of
    the same width, so the value keeps its sign of zero and its NaN payload
    (``np.maximum`` may return either of two equal operands), and no element
    takes a branch (a masked copy on an unpredictable mask ran 4x slower).
    The three bool masks of replacements route the backward: the window's
    last replacement, or its first element if none, receives ``g``.
    """
    n, c, h, w = x.shape
    if h == 0 or w == 0:
        raise DimensionError("max_pool2x2 on empty spatial extent")
    xp = x.data
    if h % 2 or w % 2:
        xp = np.pad(xp, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)), constant_values=-np.inf)
    hp, wp = xp.shape[2], xp.shape[3]
    bits = np.dtype(f"u{xp.itemsize}")
    out = xp[_WINDOW_VIEWS[0]].copy()
    xp_bits, out_bits = xp.view(bits), out.view(bits)
    takes = []
    for view in _WINDOW_VIEWS[1:]:
        take = np.less_equal(xp[view], out)  # false where greater or either is NaN
        np.logical_not(take, out=take)
        take &= out == out  # a NaN already chosen stays
        diff = xp_bits[view] ^ out_bits
        diff *= take
        out_bits ^= diff
        takes.append(take)

    def back(g):
        t1, t2, t3 = takes
        later = t2 | t3
        chosen = (~(t1 | later), t1 & ~later, t2 & ~t3, t3)
        gp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        for view, mask in zip(_WINDOW_VIEWS, chosen):
            np.multiply(g.view(bits), mask, out=gp.view(bits)[view])  # g's bits or +0
        _accumulate(x, gp[:, :, :h, :w])

    return Tensor._from_op(out, (x,), back)


def global_max_pool(x):
    n, c, h, w = x.shape
    if h == 0 or w == 0:
        raise DimensionError("global_max_pool on empty spatial extent")
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1).reshape(n, c, 1, 1)

    def back(g):
        gf = np.zeros((n, c, h * w), dtype=g.dtype)
        np.put_along_axis(gf, idx[..., None], g.reshape(n, c, 1), axis=-1)
        _accumulate(x, gf.reshape(n, c, h, w))

    return Tensor._from_op(out, (x,), back)


# ---------------------------------------------------------------------------
# resampling


@functools.lru_cache(maxsize=64)
def _linear_weights(n_in, n_out, dtype):
    """Align-corners interpolation matrix of shape (n_out, n_in).

    Cached, so every caller shares one read-only array per key.
    """
    mat = np.zeros((n_out, n_in), dtype=dtype)
    if n_out > 1 and n_in > 1:
        pos = np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)
    else:
        pos = np.zeros(n_out, dtype=np.float64)
    lo = np.floor(pos).astype(int)
    lo = np.minimum(lo, n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (pos - lo).astype(dtype)
    rows = np.arange(n_out)
    np.add.at(mat, (rows, lo), 1 - frac)
    np.add.at(mat, (rows, hi), frac)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=64)
def _tap_weights(n_in, n_out, dtype):
    """The align-corners matrix shifted by each tap of a 3-tap, pad-1 conv
    that runs after it, blocks side by side: shape (n_out, 3 * n_in).

    Block i's row y is the resize's row y + i - 1, or zero where that row
    falls in the padding, so ``wh @ stack([z0, z1, z2]) == sum_i R_i @ z_i``.
    Cached and read-only like ``_linear_weights``.
    """
    padded = np.pad(_linear_weights(n_in, n_out, dtype), ((1, 1), (0, 0)))
    mat = np.concatenate([padded[i : i + n_out] for i in range(3)], axis=1)
    mat.flags.writeable = False
    return mat


def _resample(x, wh, ww):
    """``wh @ x @ ww.T`` over the last two axes: a linear resample by a row
    matrix and a column matrix, shared by ``bilinear_resize`` and FRM's
    eval-mode tap lowering.  Private, so a traced run counts one op per
    resize."""
    out = np.matmul(np.matmul(wh, x.data), ww.T)

    def back(g):
        _accumulate(x, np.matmul(np.matmul(wh.T, g), ww))

    return Tensor._from_op(out, (x,), back)


def bilinear_resize(x, out_h, out_w):
    """Align-corners bilinear resampling; a same-size resize returns ``x``."""
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"target extents must be >= 1, got {out_h}x{out_w}")
    n, c, h, w = x.shape
    if (out_h, out_w) == (h, w):
        return x
    dtype = x.data.dtype
    return _resample(x, _linear_weights(h, out_h, dtype), _linear_weights(w, out_w, dtype))


# ---------------------------------------------------------------------------
# normalization


class BatchNormState:
    """Running mean/variance for eval-mode batch normalization."""

    MOMENTUM = 0.1

    def __init__(self, channels):
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.count = 0

    def update(self, mean, var):
        if self.count == 0:
            self.running_mean = np.asarray(mean, dtype=np.float64).copy()
            self.running_var = np.asarray(var, dtype=np.float64).copy()
        else:
            m = self.MOMENTUM
            self.running_mean = (1 - m) * self.running_mean + m * mean
            self.running_var = (1 - m) * self.running_var + m * var
        self.count += 1


def _affine(y, scale, shift):
    """``y * scale + shift`` per channel as one op, the affine that ends every
    norm; its passes and gradients are ``add(mul(y, s), b)``'s, bit for bit."""
    yd = y.data
    s, b = scale.data.reshape(1, -1, 1, 1), shift.data.reshape(1, -1, 1, 1)
    with _small_ufunc_buffers():
        out = yd * s
        out += b

    def back(g):
        _accumulate(shift, _unbroadcast(g, s.shape).reshape(shift.shape))
        _accumulate(scale, _unbroadcast(g * yd, s.shape).reshape(scale.shape))
        _accumulate(y, g * s)

    return Tensor._from_op(out, (y, scale, shift), back)


def _standardize(x, axes, eps):
    """Centre ``x`` over ``axes`` and divide by sqrt(var + eps); returns (y, mu, var)."""
    mu = mean_(x, axis=axes)
    xc = sub(x, mu)
    var = mean_(mul(xc, xc), axis=axes)
    return mul(xc, pow_(add(var, float(eps)), -0.5)), mu, var


def _running_standardize(x, state):
    """``(x - running mean) / sqrt(running var + eps)`` per channel, as one op."""
    rm = state.running_mean.astype(x.data.dtype).reshape(1, -1, 1, 1)
    rs = (1.0 / np.sqrt(state.running_var + NORM_EPS)).astype(x.data.dtype).reshape(1, -1, 1, 1)
    with _small_ufunc_buffers():
        y = x.data - rm
        y *= rs
    return Tensor._from_op(y, (x,), lambda g: _accumulate(x, g * rs))


def layer_norm(x, scale, shift):
    """Normalize over C,H,W per sample, then apply the channel affine."""
    y, _, _ = _standardize(x, (1, 2, 3), NORM_EPS)
    return _affine(y, scale, shift)


def batch_norm(x, scale, shift, state, mode):
    """Normalize over N,H,W per channel; eval mode uses running statistics."""
    if mode == "train":
        y, mu, var = _standardize(x, (0, 2, 3), NORM_EPS)
        state.update(mu.data.reshape(-1), var.data.reshape(-1))
    elif mode == "eval":
        if state.count == 0:
            raise StateError("eval-mode batch norm before any training batch")
        y = _running_standardize(x, state)
    else:
        raise ConfigurationError(f"unknown mode {mode!r}")
    return _affine(y, scale, shift)


# ---------------------------------------------------------------------------
# activations and softmax

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def relu(x):
    mask = x.data > 0
    return Tensor._from_op(x.data * mask, (x,), lambda g: _accumulate(x, g * mask))


def sigmoid(x):
    # expit-style stable evaluation: exp(-|x|) never overflows
    e = np.exp(-np.abs(x.data))
    data = (np.where(x.data >= 0, 1.0, e) / (1.0 + e)).astype(x.data.dtype)
    # keep outputs strictly inside (0, 1) even when the exp saturates
    tiny = np.finfo(data.dtype).tiny
    eps1 = np.float64(1.0) - np.finfo(data.dtype).epsneg
    data = np.clip(data, tiny, eps1.astype(data.dtype))

    def back(g):
        _accumulate(x, g * data * (1.0 - data))

    return Tensor._from_op(data, (x,), back)


# erf(x) / x as a series in x**2, highest power first: 2/sqrt(pi) * (-1)**n /
# (n! (2n + 1)) for n = 0..18.  On |x| < 1 the first omitted term is below
# 3e-19, under half an ulp of erf(x) / x.
_ERF_TAYLOR = [
    2.0 / math.sqrt(math.pi) * (-1) ** n / (math.factorial(n) * (2 * n + 1))
    for n in range(18, -1, -1)
]
# erfc(x) = exp(-x**2) * P(x) / Q(x) on 1 <= x < 6, highest power first; the
# coefficients are _erfc_coeff_P / _erfc_coeff_Q of mpmath (mpmath/math2.py).
_ERFC_P = [
    0.00044560259661560421715, 0.0063065951710717791934, 0.045459713768411264339,
    0.20924776504163751585, 0.66275911699770787537, 1.4695509105618423961,
    2.2280433377390253297, 2.1275306946297962644, 1.0000000161203922312,
]
_ERFC_Q = [
    0.00078981003831980423513, 0.011178148899483545902, 0.080970149639040548613,
    0.37647108453729465912, 1.2146026030046904138, 2.7845640601891186528,
    4.4971472894498014205, 4.9019435608903239131, 3.2559100272784894318,
    1.0,
]


def _horner(coeffs, z):
    p = z * coeffs[0]
    p += coeffs[1]
    for c in coeffs[2:]:
        p *= z
        p += c
    return p


def _erf(x):
    """Elementwise erf, evaluated in float64 and returned in ``x``'s dtype.

    Within 2 ulp of the exact value in float64.  Float32 input is widened,
    evaluated and rounded back, as SciPy's float32 erf loop does.  The sign
    comes from ``copysign``, so -0.0 stays -0.0; NaN passes through and
    |x| >= 6 gives +-1, which is erf to double precision.
    """
    a = np.abs(x, dtype=np.float64)
    out = np.ones_like(a)
    small = a < 1.0
    mid = ~(small | (a >= 6.0))  # NaN lands here and propagates
    t = a[small]
    series = _horner(_ERF_TAYLOR, t * t)
    series *= t
    out[small] = series
    t = a[mid]
    tail = np.exp(-t * t)
    tail *= _horner(_ERFC_P, t)
    tail /= _horner(_ERFC_Q, t)
    out[mid] = 1.0 - tail
    return np.copysign(out, x).astype(x.dtype, copy=False)


def gelu(x):
    """Exact Gaussian-CDF GeLU: x * Phi(x), Phi(x) = (1 + erf(x / sqrt 2)) / 2.

    ``_erf`` computes erf in NumPy: a Taylor series below 1, mpmath's
    rational erfc approximation from 1 to 6, and +-1 beyond.  Float32
    results are bitwise those of the former SciPy erf path; float64 ones may
    differ from it in the last bits.
    """
    xd = x.data
    phi_cdf = 0.5 * (1.0 + _erf(xd / _SQRT2))

    def back(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * xd * xd)
        _accumulate(x, g * (phi_cdf + xd * pdf))

    return Tensor._from_op((xd * phi_cdf).astype(xd.dtype), (x,), back)


def softmax(x, axis):
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(x, data * (g - dot))

    return Tensor._from_op(data, (x,), back)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x, shape):
    data = x.data.reshape(shape)
    return Tensor._from_op(data, (x,), lambda g: _accumulate(x, g.reshape(x.shape)))


def permute(x, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = x.data.transpose(axes)
    return Tensor._from_op(
        data, (x,), lambda g: _accumulate(x, g.transpose(inverse))
    )


def concat(tensors, axis):
    tensors = list(tensors)
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise DimensionError(
            f"concat shapes {[t.shape for t in tensors]} disagree off axis {axis}"
        ) from exc
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return Tensor._from_op(data, tensors, back)


def channel_slice(x, start, stop):
    """Channels ``start:stop`` (axis 1) of ``x``, as a contiguous copy; a
    weight of shape (O, C, kh, kw) is read in input-channel ranges."""
    if not 0 <= start < stop <= x.shape[1]:
        raise DimensionError(f"channel range {start}:{stop} outside 0:{x.shape[1]}")
    shape = x.shape

    def back(g):
        dx = np.zeros(shape, dtype=g.dtype)
        dx[:, start:stop] = g
        _accumulate(x, dx)

    return Tensor._from_op(np.ascontiguousarray(x.data[:, start:stop]), (x,), back)


def channel_shuffle(x, groups):
    """Permute channels: index i moves to (i mod g) * (C/g) + i // g."""
    c = x.shape[1]
    if groups < 1 or c % groups != 0:
        raise ConfigurationError(f"groups={groups} is not a positive divisor of {c} channels")
    dest = (np.arange(c) % groups) * (c // groups) + np.arange(c) // groups
    src = np.argsort(dest)
    data = x.data[:, src]

    def back(g):
        _accumulate(x, g[:, dest])

    return Tensor._from_op(np.ascontiguousarray(data), (x,), back)


def dropout(x, mode, rng=None):
    """Inverted dropout at rate 1/2, deterministic under a fixed rng; eval mode returns ``x``.

    Element e of the flat array is kept, and doubled, when bit e mod 64 of raw
    word e div 64 of ``rng``'s bit generator is set: one fair bit per element.
    The words are read little-endian, so the mask does not depend on the
    host's byte order, and a call advances the generator by exactly
    ceil(n / 64) words, so a copy advanced by e div 64 words yields element
    e's bit.  The closure holds the bool mask, one byte per element.
    """
    if mode == "eval":
        return x
    if mode != "train":
        raise ConfigurationError(f"unknown mode {mode!r}")
    if rng is None:
        raise UsageError("train-mode dropout requires an rng")
    n = x.data.size
    words = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    keep = np.unpackbits(words.view(np.uint8), count=n, bitorder="little")
    keep = keep.view(bool).reshape(x.shape)
    two = x.data.dtype.type(2)
    return Tensor._from_op(x.data * keep * two, (x,), lambda g: _accumulate(x, g * keep * two))


# ---------------------------------------------------------------------------
# parameter store


class ParamStore:
    """Ordered, named collection of leaf tensors plus the batch-norm running
    statistics; together the unit of checkpointing.

    ``conv``, ``norm`` and ``bn`` register one layer each.  Initialization is
    fan-in-scaled uniform for convolution weights, a constant (zero unless
    given) for biases, zeros for shifts and ones for normalization scales;
    the draws come from a generator seeded with ``rng_seed`` so builds are
    reproducible.  Arrays it registers become float32 leaves.
    """

    def __init__(self, rng_seed):
        self._rng = np.random.default_rng(int(rng_seed))
        self._entries = {}
        self.bn_states = {}

    def add(self, name, data):
        if name in self._entries:
            raise UsageError(f"duplicate parameter name {name!r}")
        t = self._entries[name] = Tensor(data)
        return t

    def conv(self, name, cout, cin_g, kh, kw, bias=0.0):
        """Register ``name.w`` then ``name.b`` (filled with ``bias``); returns (w, b)."""
        bound = 1.0 / math.sqrt(cin_g * kh * kw)
        w = self._new(f"{name}.w", (cout, cin_g, kh, kw),
                      lambda shape: self._rng.uniform(-bound, bound, size=shape))
        return w, self.full(f"{name}.b", (cout,), bias)

    def norm(self, name, c):
        """Register ``name.scale`` (ones) and ``name.shift`` (zeros); returns both."""
        return self.full(f"{name}.scale", (c,), 1.0), self.full(f"{name}.shift", (c,), 0.0)

    def bn(self, name, c):
        """A ``norm`` layer plus its running statistics in ``bn_states[name]``;
        returns (scale, shift, state)."""
        scale, shift = self.norm(name, c)
        state = self.bn_states[name] = BatchNormState(c)
        return scale, shift, state

    def full(self, name, shape, value):
        return self._new(name, shape, lambda shape: np.full(shape, value))

    def matrix(self, name, rows, cols, scale):
        return self._new(name, (rows, cols),
                         lambda shape: self._rng.uniform(-scale, scale, size=shape))

    def _new(self, name, shape, make):
        """Register ``make(shape)`` as ``name``.  Shapes come from the model
        config, so one NumPy cannot represent or allocate is a config error."""
        try:
            data = make(shape)
        except (ValueError, MemoryError) as exc:
            raise ConfigurationError(f"parameter {name!r} of shape {shape}: {exc}") from None
        return self.add(name, data)

    def __getitem__(self, name):
        return self._entries[name]

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def copy_values(self):
        return {name: t.data.copy() for name, t in self._entries.items()}

    def load_values(self, values):
        for name, t in self._entries.items():
            if name not in values:
                raise UsageError(f"missing value for parameter {name!r}")
            arr = np.asarray(values[name])
            if arr.shape != t.data.shape:
                raise DimensionError(
                    f"parameter {name!r} shape {arr.shape} != {t.data.shape}"
                )
            t.data = arr.astype(t.data.dtype)
