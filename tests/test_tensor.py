import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fmbff.engine import (
    _CACHE_BYTES,
    _accumulate,
    _erf,
    _linear_weights,
    _standardize,
    NORM_EPS,
    BatchNormState,
    ParamStore,
    Tensor,
    add,
    backward,
    batch_norm,
    bilinear_resize,
    channel_shuffle,
    channel_slice,
    clip,
    concat,
    conv2d,
    dropout,
    gelu,
    global_max_pool,
    layer_norm,
    log,
    matmul,
    max_pool2x2,
    mean_,
    mul,
    no_grad,
    permute,
    pow_,
    relu,
    reshape,
    sigmoid,
    softmax,
    sub,
    sum_,
)
from fmbff.errors import (
    ConfigurationError,
    DimensionError,
    StateError,
    UsageError,
)
from fmbff import blocks, gradcheck
from fmbff.gradcheck import _gradient_errors, finite_diff_check


def gap(x):
    """Global average pool, the form the blocks use."""
    return mean_(x, axis=(2, 3))


def t4(data):
    return Tensor(np.asarray(data, dtype=np.float32).reshape(1, 1, 2, 2))


class TestConv2d:
    def test_1x1_affine(self):
        x = t4([[1, 2], [3, 4]])
        w = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
        b = Tensor(np.array([1.0], dtype=np.float32))
        out = conv2d(x, w, b)
        np.testing.assert_allclose(out.data[0, 0], [[3, 5], [7, 9]])

    def test_3x3_ones_pad1(self):
        x = t4([[1, 2], [3, 4]])
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, w, pad=1)
        np.testing.assert_allclose(out.data[0, 0], [[10, 10], [10, 10]])

    def test_identity_kernel(self):
        x = t4([[1, 2], [3, 4]])
        k = np.zeros((1, 1, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(k), pad=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_naive_oracle(self):
        # quadruple-loop reference on random 1x3x5x5 inputs
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
            w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
            b = rng.standard_normal(2).astype(np.float32)
            out = conv2d(Tensor(x), Tensor(w), Tensor(b), pad=1).data
            xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            ref = np.zeros_like(out)
            for co in range(2):
                for i in range(5):
                    for j in range(5):
                        ref[0, co, i, j] = (
                            xp[0, :, i : i + 3, j : j + 3] * w[co]
                        ).sum() + b[co]
            np.testing.assert_allclose(out, ref, atol=1e-6, rtol=1e-5)

    @pytest.mark.parametrize("kwargs, name", [
        ({"stride": 0}, "stride=0"),
        ({"stride": (1, 0)}, r"stride=\(1, 0\)"),
        ({"pad": -1}, "pad=-1"),
        ({"pad": (0, -1)}, r"pad=\(0, -1\)"),
    ])
    def test_stride_and_pad_rejected(self, kwargs, name):
        x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ConfigurationError, match=name):
            conv2d(x, w, **kwargs)

    def test_group_errors(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ConfigurationError):
            conv2d(x, w, groups=2)
        with pytest.raises(DimensionError):
            conv2d(x, Tensor(np.zeros((2, 2, 1, 1), dtype=np.float32)))
        # grouped but not depthwise: 2 groups over 4 channels
        with pytest.raises(ConfigurationError):
            conv2d(
                Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32)),
                Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32)),
                groups=2,
            )


def _naive_conv(x, w, b, stride, pad, groups):
    """Float64 loop reference: one window dot product per output pixel."""
    (sh, sw), (ph, pw) = stride, pad
    n, cin, h, wd = x.shape
    cout, cg, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, cout, ho, wo))
    for co in range(cout):
        c0 = (co // (cout // groups)) * cg
        for r in range(ho):
            for q in range(wo):
                window = xp[:, c0 : c0 + cg, r * sh : r * sh + kh, q * sw : q * sw + kw]
                out[:, co, r, q] = (window * w[co]).sum(axis=(1, 2, 3)) + b[co]
    return out


# (name, x shape, weight shape, stride, pad, groups); dense and depthwise
# cases cover both lowerings, including strided and over-padded convs that
# the model itself never runs.
KERNEL_CLASS_CASES = [
    ("1x1", (2, 3, 4, 5), (4, 3, 1, 1), (1, 1), (0, 0), 1),
    ("1x1_pooled", (2, 3, 1, 1), (4, 3, 1, 1), (1, 1), (0, 0), 1),
    ("1x1_permuted", "permuted", (4, 3, 1, 1), (1, 1), (0, 0), 1),
    ("1x1_pad1", (2, 3, 4, 5), (4, 3, 1, 1), (1, 1), (1, 1), 1),
    ("3x3_pad1", (2, 3, 5, 6), (4, 3, 3, 3), (1, 1), (1, 1), 1),
    ("3x1_pooled", (2, 3, 1, 1), (3, 3, 3, 1), (1, 1), (1, 0), 1),
    ("1x3_pooled", (2, 3, 1, 1), (3, 3, 1, 3), (1, 1), (0, 1), 1),
    ("3x3_stride2", (2, 3, 7, 6), (4, 3, 3, 3), (2, 2), (1, 1), 1),
    ("5x3_pad3", (1, 2, 4, 5), (3, 2, 5, 3), (1, 1), (3, 3), 1),
    ("2x2_stride2x1", (2, 3, 5, 6), (4, 3, 2, 2), (2, 1), (0, 0), 1),
    ("dw_stride1", (2, 3, 5, 6), (3, 1, 3, 3), (1, 1), (1, 1), 3),
    ("dw_stride2", (2, 3, 5, 6), (3, 1, 3, 3), (2, 2), (1, 1), 3),
    ("dw_stride2x1", (2, 3, 5, 6), (3, 1, 3, 3), (2, 1), (1, 1), 3),
    ("dw_pad0", (2, 3, 5, 6), (3, 1, 3, 3), (1, 1), (0, 0), 3),
    ("dw_pad0x2", (2, 3, 5, 6), (3, 1, 3, 3), (1, 1), (0, 2), 3),
    ("dw_pad3", (1, 2, 4, 5), (2, 1, 3, 3), (1, 1), (3, 3), 2),
    ("dw_5x3", (2, 3, 6, 5), (3, 1, 5, 3), (1, 1), (2, 1), 3),
    # rows of 16 * 15 * 15 float64 values: channel chunks of 9, 9 and 2
    ("dw_chunks", (16, 20, 1, 1), (20, 1, 3, 3), (2, 1), (7, 7), 20),
]


@pytest.mark.parametrize(
    "name,xshape,wshape,stride,pad,groups", KERNEL_CLASS_CASES, ids=[c[0] for c in KERNEL_CLASS_CASES]
)
def test_conv_kernel_classes(name, xshape, wshape, stride, pad, groups):
    """Dense and depthwise lowerings match a float64 loop and finite differences."""
    rng = np.random.default_rng(len(name))
    if xshape == "permuted":
        # tsa_forward's layout: (n, h*w, c) tokens viewed as an (n, c, h, w) map
        x = Tensor(rng.standard_normal((2, 20, 3)), np.float64)
        as_map = lambda t: reshape(permute(t, (0, 2, 1)), (2, 3, 4, 5))
        assert not as_map(x).data.flags.c_contiguous
    else:
        x = Tensor(rng.standard_normal(xshape), np.float64)
        as_map = lambda t: t
    w = Tensor(rng.standard_normal(wshape), np.float64)
    b = Tensor(rng.standard_normal(wshape[0]), np.float64)
    out = conv2d(as_map(x), w, b, stride=stride, pad=pad, groups=groups)
    ref = _naive_conv(as_map(x).data, w.data, b.data, stride, pad, groups)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    probe = rng.standard_normal(ref.shape)
    leaves = {"x": x, "w": w, "b": b}
    for slot, leaf in leaves.items():
        def f(t, slot=slot):
            a = dict(leaves, **{slot: t})
            y = conv2d(as_map(a["x"]), a["w"], a["b"], stride, pad, groups)
            return sum_(mul(y, probe))
        assert finite_diff_check(f, leaf) < 1e-6, slot


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_1x1_is_one_gemm(dtype):
    """A 1x1 conv's output and gradients are bytewise those of a single matmul
    on a view of ``x``, and its forward makes no copy of ``x``.  With one
    output channel (the head) dx is computed as a broadcast product, which
    must match the matmul's bytes too."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 16, 16, 16)).astype(dtype)
    x3 = x.reshape(3, 16, 256)
    for cout in (2, 1):
        w = rng.standard_normal((cout, 16, 1, 1)).astype(dtype)
        g = rng.standard_normal((3, cout, 16, 16)).astype(dtype)
        xt, wt = Tensor(x, dtype), Tensor(w, dtype)
        tracemalloc.start()
        out = conv2d(xt, wt)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < x.nbytes // 2, peak
        out._backward(g)
        w2, g3 = w.reshape(cout, 16), g.reshape(3, cout, 256)
        assert out.data.tobytes() == np.matmul(w2, x3).tobytes()
        assert xt.grad.tobytes() == np.matmul(w2.T, g3).tobytes()
        assert wt.grad.tobytes() == np.matmul(g3, x3.swapaxes(1, 2)).sum(axis=0).tobytes()


class TestDwsConv:
    def test_identity(self):
        x = Tensor(np.random.default_rng(1).random((1, 2, 4, 4)).astype(np.float32))
        dw = np.zeros((2, 1, 3, 3), dtype=np.float32)
        dw[:, 0, 1, 1] = 1.0
        pw = np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1)
        out = conv2d(conv2d(x, Tensor(dw), pad=1, groups=2), Tensor(pw))
        np.testing.assert_allclose(out.data, x.data, atol=1e-7)

    def test_constant_interior(self):
        c = 3.0
        x = Tensor(np.full((1, 1, 5, 5), c, dtype=np.float32))
        dw = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        mid = conv2d(x, dw, stride=1, pad=1, groups=1)
        assert mid.data[0, 0, 2, 2] == pytest.approx(9 * c)

    def test_two_step_equivalence(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)).astype(np.float32))
        dw = Tensor(rng.standard_normal((3, 1, 3, 3)).astype(np.float32))
        db = Tensor(rng.standard_normal(3).astype(np.float32))
        pw = Tensor(rng.standard_normal((5, 3, 1, 1)).astype(np.float32))
        pb = Tensor(rng.standard_normal(5).astype(np.float32))
        two_step = conv2d(conv2d(x, dw, db, pad=1, groups=3), pw, pb)
        # one dense 3x3 conv with the factored kernel pw[o, c] * dw[c, i, j]
        kernel = pw.data[:, :, 0, 0, None, None] * dw.data[None, :, 0]
        bias = pw.data[:, :, 0, 0] @ db.data + pb.data
        dense = conv2d(x, Tensor(kernel), Tensor(bias), pad=1)
        np.testing.assert_allclose(two_step.data, dense.data, rtol=1e-5, atol=1e-5)


class TestPooling:
    def test_global_avg(self):
        assert gap(t4([[1, 2], [3, 4]])).data.reshape(()) == 2.5

    def test_global_max(self):
        assert global_max_pool(t4([[1, 2], [3, 4]])).data.reshape(()) == 4

    def test_constant_avg(self):
        x = Tensor(np.full((2, 3, 4, 4), 5.0, dtype=np.float32))
        np.testing.assert_array_equal(gap(x).data, np.full((2, 3, 1, 1), 5.0))

    def test_max2x2_odd_padding(self):
        x = Tensor(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
        out = max_pool2x2(x)
        np.testing.assert_array_equal(out.data[0, 0], [[4, 5], [7, 8]])

    def test_max_tie_break_first_index(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
        out = max_pool2x2(x)
        backward(sum_(out))
        grad = x.grad[0, 0]
        assert grad[0, 0] == 1.0 and grad.sum() == 1.0

    def test_max2x2_odd_edge_of_neg_inf(self):
        # the odd column's pad must not beat a real -inf: it pools to -inf
        # and takes the gradient
        x = Tensor(np.asarray([1.0, 2.0, -np.inf], dtype=np.float32).reshape(1, 1, 1, 3))
        out = max_pool2x2(x)
        np.testing.assert_array_equal(out.data.ravel(), [2.0, -np.inf])
        backward(sum_(mul(out, Tensor(np.asarray([3.0, 5.0], dtype=np.float32).reshape(1, 1, 1, 2)))))
        np.testing.assert_array_equal(x.grad.ravel(), [0.0, 3.0, 5.0])


class TestBilinearResize:
    def test_constant(self):
        x = Tensor(np.full((1, 2, 3, 3), 7.0, dtype=np.float32))
        np.testing.assert_allclose(bilinear_resize(x, 5, 7).data, 7.0, atol=1e-6)

    def test_corners_preserved(self):
        x = t4([[1, 2], [3, 4]])
        out = bilinear_resize(x, 4, 4).data[0, 0]
        assert (out[0, 0], out[0, 3], out[3, 0], out[3, 3]) == (1, 2, 3, 4)

    def test_linear_row(self):
        x = Tensor(np.asarray([1.0, 3.0], dtype=np.float32).reshape(1, 1, 1, 2))
        out = bilinear_resize(x, 1, 3)
        np.testing.assert_allclose(out.data[0, 0, 0], [1, 2, 3], atol=1e-6)

    def test_same_size_identity(self):
        # the input itself comes back: no graph node, an exact gradient
        rng = np.random.default_rng(3)
        x = Tensor(rng.random((2, 3, 5, 6)).astype(np.float32))
        upstream = rng.standard_normal((2, 3, 5, 6)).astype(np.float32)
        out = bilinear_resize(x, 5, 6)
        assert out is x
        backward(sum_(mul(out, upstream)))
        np.testing.assert_array_equal(x.grad, upstream)

    def test_cached_weights_read_only(self):
        """Every resize shares one cached matrix per key; a caller cannot
        write to it, so a repeated resize gives the same bytes."""
        x = Tensor(np.random.default_rng(4).random((1, 2, 3, 5)).astype(np.float32))
        first = bilinear_resize(x, 7, 4).data
        mat = _linear_weights(3, 7, x.dtype)
        assert _linear_weights(3, 7, x.dtype) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 2.0
        assert bilinear_resize(x, 7, 4).data.tobytes() == first.tobytes()


def _loop_resize(x, out_h, out_w):
    """Align-corners bilinear resampling, one output pixel at a time."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w))
    for i in range(out_h):
        sy = i * (h - 1) / (out_h - 1) if out_h > 1 else 0.0
        y0 = int(sy)
        y1, fy = min(y0 + 1, h - 1), sy - y0
        for j in range(out_w):
            sx = j * (w - 1) / (out_w - 1) if out_w > 1 else 0.0
            x0 = int(sx)
            x1, fx = min(x0 + 1, w - 1), sx - x0
            out[:, :, i, j] = ((1 - fy) * ((1 - fx) * x[:, :, y0, x0] + fx * x[:, :, y0, x1])
                               + fy * ((1 - fx) * x[:, :, y1, x0] + fx * x[:, :, y1, x1]))
    return out


def _loop_max(x, g, windows):
    """Max over each window of an N x C plane and its gradient, in ``x``'s
    type: the window's first maximum in row-major order (a NaN, if any) is
    the value and receives ``g``."""
    out, dx = np.zeros(g.shape, x.dtype), np.zeros(x.shape, x.dtype)
    for (i, j), (rows, cols) in windows:
        for a, b in itertools.product(range(x.shape[0]), range(x.shape[1])):
            win = x[a, b, rows, cols]
            r, q = np.unravel_index(np.argmax(win), win.shape)
            out[a, b, i, j] = win[r, q]
            dx[a, b, rows.start + r, cols.start + q] += g[a, b, i, j]
    return out, dx


SWEEP_SEED = 20261


def test_resize_and_pool_sweep_against_loops():
    """Seeded differential sweep in float64: ``bilinear_resize`` against a
    per-pixel loop, its backward as the adjoint (<R x, g> = <x, R^T g>), and
    both max pools, forward and gradient, against loops.  Extents run 1-9;
    every tenth resize keeps its size."""
    rng = np.random.default_rng(SWEEP_SEED)
    for case in range(300):
        where = f"seed {SWEEP_SEED} case {case}"
        n, c, h, w = (int(v) for v in rng.integers(1, [4, 4, 10, 10]))
        out_h, out_w = (h, w) if case % 10 == 0 else (int(v) for v in rng.integers(1, 10, 2))
        data = rng.standard_normal((n, c, h, w))

        x = Tensor(data, np.float64)
        out = bilinear_resize(x, out_h, out_w)
        want = _loop_resize(data, out_h, out_w)
        assert out.shape == want.shape, where
        assert np.abs(out.data - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), where
        g = rng.standard_normal(want.shape)
        backward(sum_(mul(out, g)))
        lhs, rhs = np.vdot(want, g), np.vdot(data, x.grad)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(want * g).sum()), where

        ho, wo = (h + 1) // 2, (w + 1) // 2
        windows = [((i, j), (slice(2 * i, min(2 * i + 2, h)), slice(2 * j, min(2 * j + 2, w))))
                   for i in range(ho) for j in range(wo)]
        g = rng.standard_normal((n, c, ho, wo))
        x = Tensor(data, np.float64)
        out = max_pool2x2(x)
        got = out.data.copy()  # backward() releases it
        backward(sum_(mul(out, g)))
        want, dx = _loop_max(data, g, windows)
        assert np.array_equal(got, want) and np.array_equal(x.grad, dx), where

        g = rng.standard_normal((n, c, 1, 1))
        x = Tensor(data, np.float64)
        out = global_max_pool(x)
        got = out.data.copy()  # backward() releases it
        backward(sum_(mul(out, g)))
        want, dx = _loop_max(data, g, [((0, 0), (slice(0, h), slice(0, w)))])
        assert np.array_equal(got, want) and np.array_equal(x.grad, dx), where


POOL_BYTES_SEED = 20271


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_bytes_on_ties_zeros_nan_inf(dtype):
    """Seeded byte-level cases of ``max_pool2x2`` against ``_loop_max``, at
    odd and even extents: values drawn from a few, so windows tie, hold
    both signs of zero (as relu emits), NaN and -inf.  Values and gradients
    are compared as bytes, which see a zero's sign and a NaN's payload."""
    rng = np.random.default_rng(POOL_BYTES_SEED)
    nan = np.frombuffer(np.asarray([0x7FC00001], np.uint32).tobytes(), np.float32)[0]
    choices = np.asarray([-0.0, 0.0, -1.0, 1.0, 2.0, np.nan, -nan, -np.inf], dtype=dtype)
    for case in range(60):
        where = f"seed {POOL_BYTES_SEED} case {case}"
        n, c, h, w = (int(v) for v in rng.integers(1, [3, 3, 8, 8]))
        data = choices[rng.choice(len(choices), (n, c, h, w), p=[.3, .3, .1, .1, .05, .05, .05, .05])]
        ho, wo = (h + 1) // 2, (w + 1) // 2
        windows = [((i, j), (slice(2 * i, min(2 * i + 2, h)), slice(2 * j, min(2 * j + 2, w))))
                   for i in range(ho) for j in range(wo)]
        g = rng.standard_normal((n, c, ho, wo)).astype(dtype)
        x = Tensor(data, dtype)
        out = max_pool2x2(x)
        got = out.data.copy()  # backward() releases it
        backward(sum_(mul(out, g)))
        want, dx = _loop_max(data, g, windows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), where
        assert x.grad.dtype == dx.dtype and x.grad.tobytes() == dx.tobytes(), where


# Input layouts of the conv sweep: (shape of the base array for a given
# N x C x H x W, the N x C x H x W view of it).
CONV_LAYOUTS = [
    (lambda n, c, h, w: (n, c, h, w), lambda a: a),
    (lambda n, c, h, w: (n, h, w, c), lambda a: a.transpose(0, 3, 1, 2)),
    (lambda n, c, h, w: (n, c + 1, 2 * h, w + 2), lambda a: a[:, 1:, ::2, 1:-1]),
]


def _chunked_depthwise_shape(rng, kh, kw, ph, pw):
    """N, C, H, W of a float64 depthwise conv whose channels run over several
    cache-sized chunks, the last one partial."""
    m = int(rng.integers(2, 5))  # channels per chunk
    c = m * int(rng.integers(1, 3)) + int(rng.integers(1, m))
    n = int(rng.integers(4, 9))
    wp = int(rng.integers(max(kw, 2 * pw + 1), 60))
    # the fewest padded rows whose N planes outgrow a chunk of m + 1 channels
    hp = -(-(_CACHE_BYTES // (8 * (m + 1)) + 1) // (n * wp))
    return n, c, hp - 2 * ph, wp - 2 * pw


def test_conv_sweep_against_naive():
    """Seeded differential sweep of ``conv2d`` against ``_naive_conv``.

    Kernels of 1-5 per axis, stride 1-3, pad 0-3, dense or depthwise, on
    contiguous, permuted and sliced inputs; every sixth case is a depthwise
    conv whose channels cross the lowering's chunk boundary, with a partial
    last chunk.  Inputs hold float32 values, so one float64 oracle serves
    both types: float64 output within 1e-12, float32 output within the
    rounding bound of its reduction, (L + 1) * eps * (|x| conv |w| + |b|)
    for L = Cin/groups * kh * kw.  dx, dw and db are each checked along one
    random direction by central differences, exact up to rounding because
    the conv is linear in each operand.
    """
    rng = np.random.default_rng(SWEEP_SEED)
    eps32 = float(np.finfo(np.float32).eps)
    for case in range(300):
        where = f"seed {SWEEP_SEED} case {case}"
        kh, kw = (int(v) for v in rng.integers(1, 6, 2))
        ph, pw = (int(v) for v in rng.integers(0, 4, 2))
        if case % 6 == 0:
            sh, sw = (int(v) for v in rng.integers(2, 4, 2))
            n, c, h, w = _chunked_depthwise_shape(rng, kh, kw, ph, pw)
            m = _CACHE_BYTES // (n * (h + 2 * ph) * (w + 2 * pw) * 8)
            assert 1 < m < c and c % m, where
            depthwise = True
        else:
            sh, sw = (int(v) for v in rng.integers(1, 4, 2))
            n, c = (int(v) for v in rng.integers(1, [4, 7]))
            h = int(rng.integers(max(1, kh - 2 * ph), kh + 7))
            w = int(rng.integers(max(1, kw - 2 * pw), kw + 7))
            depthwise = rng.random() < 0.5
        groups, cout = (c, c) if depthwise else (1, int(rng.integers(1, 6)))
        base_shape, view = CONV_LAYOUTS[case % 3]
        base = rng.standard_normal(base_shape(n, c, h, w)).astype(np.float32)
        x64, x32 = view(base.astype(np.float64)), view(base)
        w64 = rng.standard_normal((cout, c // groups, kh, kw)).astype(np.float32).astype(np.float64)
        b64 = rng.standard_normal(cout).astype(np.float32).astype(np.float64)
        args = {"stride": (sh, sw), "pad": (ph, pw), "groups": groups}

        ref = _naive_conv(x64, w64, b64, (sh, sw), (ph, pw), groups)
        x, wt, b = (Tensor(a, np.float64) for a in (x64, w64, b64))
        out = conv2d(x, wt, b, **args)
        assert out.shape == ref.shape, where
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12, err_msg=where)

        got = conv2d(*(Tensor(a) for a in (x32, w64, b64)), **args).data  # float32 leaves
        mag = conv2d(*(Tensor(np.abs(a), np.float64) for a in (x64, w64, b64)), **args).data
        reduction = (c // groups) * kh * kw
        assert got.dtype == np.float32, where
        assert (np.abs(got - ref) <= (reduction + 1) * eps32 * mag).all(), where

        probe = rng.standard_normal(ref.shape)
        backward(sum_(mul(out, probe)))
        values, grads = [x64, w64, b64], [x.grad, wt.grad, b.grad]
        scale = np.abs(probe).sum() * (1.0 + np.abs(ref).max())
        for k, name in enumerate(("dx", "dw", "db")):
            d = rng.standard_normal(values[k].shape)
            sides = []
            for sign in (1.0, -1.0):
                moved = [v + sign * d if i == k else v for i, v in enumerate(values)]
                with no_grad():
                    y = conv2d(*(Tensor(v, np.float64) for v in moved), **args).data
                sides.append(np.vdot(y, probe))
            err = abs((sides[0] - sides[1]) / 2 - np.vdot(grads[k], d))
            assert err <= 1e-10 * scale, (where, name, err)


class TestNormalize:
    def test_constant_zero(self):
        x = Tensor(np.full((2, 3, 4, 4), 9.0, dtype=np.float32))
        scale = Tensor(np.ones(3, dtype=np.float32))
        shift = Tensor(np.zeros(3, dtype=np.float32))
        np.testing.assert_allclose(layer_norm(x, scale, shift).data, 0.0, atol=1e-3)

    def test_two_value_standardization(self):
        x = Tensor(np.asarray([1.0, 3.0], dtype=np.float64).reshape(1, 1, 1, 2))
        scale = Tensor(np.ones(1, dtype=np.float64))
        shift = Tensor(np.zeros(1, dtype=np.float64))
        out = layer_norm(x, scale, shift)
        # mean 2 and variance 1, offset by the variance epsilon
        np.testing.assert_allclose(
            out.data.ravel(), np.array([-1, 1]) / math.sqrt(1 + NORM_EPS), rtol=1e-6
        )

    def test_batch_norm_train_mean(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)).astype(np.float32))
        state = BatchNormState(3)
        out = batch_norm(
            x, Tensor(np.ones(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32)),
            state, "train",
        )
        assert np.abs(out.data.mean(axis=(0, 2, 3))).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, axes", [
        ((2, 3, 4, 5), None),
        ((3, 1, 2, 6), None),  # C = 1
        ((1, 2, 1, 1), None),  # the map is as small as the broadcasts
        ((2, 5, 4, 3), (0, 3, 1, 2)),  # a permuted, non-contiguous input
    ])
    def test_eval_batch_norm_equals_composite(self, dtype, shape, axes):
        """Eval-mode and train-mode batch norm and layer norm each end in one
        channel-affine node over (standardized input, scale, shift), and eval
        mode standardizes in one node over x.  Each norm's output, gradients
        and running statistics equal, byte for byte, a composite of public
        ops, and the ufunc buffer size is left as it was found."""
        rng = np.random.default_rng(27)
        base = rng.standard_normal(shape).astype(dtype)
        data = base if axes is None else base.transpose(axes)
        c = data.shape[1]
        stats = rng.standard_normal(c), rng.random(c) + 0.5
        params = rng.standard_normal((2, c)).astype(dtype)
        g = rng.standard_normal(data.shape).astype(dtype)

        def run(norm):
            x, scale, shift = Tensor(data, dtype), Tensor(params[0], dtype), Tensor(params[1], dtype)
            state = BatchNormState(c)  # each side starts from the same statistics
            state.update(*stats)
            out = norm(x, scale, shift, state)
            got = out.data.copy()  # backward() releases it
            backward(sum_(mul(out, g)))
            arrays = [got, x.grad, scale.grad, shift.grad, state.running_mean, state.running_var]
            return (out, x, scale, shift), arrays

        def affine(y, scale, shift):
            return add(mul(y, reshape(scale, (1, -1, 1, 1))), reshape(shift, (1, -1, 1, 1)))

        def eval_composite(x, scale, shift, state):
            rm = state.running_mean.astype(dtype).reshape(1, -1, 1, 1)
            rs = (1.0 / np.sqrt(state.running_var + NORM_EPS)).astype(dtype).reshape(1, -1, 1, 1)
            return affine(mul(sub(x, rm), rs), scale, shift)

        def train_composite(x, scale, shift, state):
            y, mu, var = _standardize(x, (0, 2, 3), NORM_EPS)
            state.update(mu.data.reshape(-1), var.data.reshape(-1))
            return affine(y, scale, shift)

        def layer_composite(x, scale, shift, state):
            return affine(_standardize(x, (1, 2, 3), NORM_EPS)[0], scale, shift)

        cases = [
            ("eval", lambda x, s, b, st: batch_norm(x, s, b, st, "eval"), eval_composite),
            ("train", lambda x, s, b, st: batch_norm(x, s, b, st, "train"), train_composite),
            ("layer", lambda x, s, b, st: layer_norm(x, s, b), layer_composite),
        ]
        bufsize = np.getbufsize()
        for name, norm, composite in cases:
            (out, x, scale, shift), got = run(norm)
            assert np.getbufsize() == bufsize, name
            y, out_scale, out_shift = out._parents
            assert out_scale is scale and out_shift is shift and not y.is_leaf(), name
            if name == "eval":
                assert len(y._parents) == 1 and y._parents[0] is x
            _, want = run(composite)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    def test_eval_without_stats(self):
        x = Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32))
        state = BatchNormState(2)
        with pytest.raises(StateError):
            batch_norm(
                x, Tensor(np.ones(2, dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32)),
                state, "eval",
            )


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(Tensor(np.zeros(1))).data[0] == 0.5

    def test_relu(self):
        out = relu(Tensor(np.asarray([-2.0, 3.0])))
        np.testing.assert_array_equal(out.data, [0, 3])

    def test_gelu_zero(self):
        assert gelu(Tensor(np.zeros(1))).data[0] == 0.0

    @staticmethod
    def assert_erf_within_3ulp(x):
        ref = np.array([math.erf(v) for v in x])
        out = _erf(x)
        assert out.dtype == np.float64
        bad = np.abs(out - ref) > 3 * np.spacing(np.abs(ref))
        assert not bad.any(), (x[bad][:5], out[bad][:5], ref[bad][:5])

    def test_erf_float64_sample(self):
        self.assert_erf_within_3ulp(np.random.default_rng(23).uniform(-8.0, 8.0, 200_000))

    def test_erf_float64_branch_edges(self):
        edges = np.array([1.0, 6.0])
        x = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 10.0)])
        self.assert_erf_within_3ulp(np.concatenate([x, -x]))

    def test_erf_float64_tiny_to_one(self):
        x = np.logspace(-300, 0, 3001)
        self.assert_erf_within_3ulp(np.concatenate([x, -x]))

    def test_erf_float32_matches_rounded_double(self):
        x = np.random.default_rng(29).uniform(-7.0, 7.0, 10**6).astype(np.float32)
        out = _erf(x)
        assert out.dtype == np.float32
        ref = np.array([math.erf(v) for v in x.tolist()], dtype=np.float32)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_erf_special_values(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 40 * tiny], dtype=dtype)
        out = _erf(x)
        assert out.dtype == dtype
        np.testing.assert_array_equal(np.signbit(out[:4]), [False, True, False, True])
        np.testing.assert_array_equal(out[:4], [0.0, 0.0, 1.0, -1.0])
        assert np.isnan(out[4])
        ref = np.array([math.erf(v) for v in x[5:].tolist()], dtype=dtype)
        assert out[5:].tobytes() == ref.tobytes()
        assert out[5] > 0 and out[6] < 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_three_exp_form(self, dtype):
        # one exp(-|x|) gives the bits of evaluating it once per branch term
        tiny = np.finfo(dtype).smallest_subnormal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 745.0, -745.0]
        rng = np.random.default_rng(31)
        x = np.concatenate([rng.standard_normal(10**6) * 30, special]).astype(dtype)
        a = np.abs(x)
        ref = np.where(
            x >= 0, 1.0 / (1.0 + np.exp(-a)), np.exp(-a) / (1.0 + np.exp(-a))
        ).astype(dtype)
        upper = (np.float64(1.0) - np.finfo(dtype).epsneg).astype(dtype)
        ref = np.clip(ref, np.finfo(dtype).tiny, upper)
        out = sigmoid(Tensor(x, dtype=dtype)).data
        assert out.dtype == dtype
        assert out.tobytes() == ref.tobytes()

    def test_sigmoid_range(self):
        x = Tensor(np.asarray([-1000.0, -5.0, 5.0, 1000.0]))
        out = sigmoid(x).data
        assert np.all(out > 0) and np.all(out < 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op,float_mask",
        [
            (relu, lambda d: (d > 0).astype(d.dtype)),
            (lambda t: clip(t, -0.5, 0.7), lambda d: ((d >= -0.5) & (d <= 0.7)).astype(d.dtype)),
        ],
        ids=["relu", "clip"],
    )
    def test_mask_gradient_bitwise(self, op, float_mask, dtype):
        """The bool masks the closures keep give the float-mask gradient exactly."""
        rng = np.random.default_rng(17)
        data = rng.standard_normal((3, 4, 5)).astype(dtype)
        data.flat[:3] = [-0.0, 0.0, 0.7]
        x = Tensor(data, dtype=dtype)
        w = rng.standard_normal(data.shape).astype(dtype)
        backward(sum_(mul(op(x), Tensor(w, dtype=dtype))))
        assert x.grad.dtype == data.dtype
        assert x.grad.tobytes() == (w * float_mask(data)).tobytes()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(Tensor(np.zeros(2)), 0).data, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax(Tensor(np.asarray([0.0, np.log(3.0)])), 0)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-7)

    def test_shift_invariance(self):
        out = softmax(Tensor(np.asarray([1000.0, 1000.0])), 0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])
        assert np.all(np.isfinite(out.data))

    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(5).standard_normal((4, 7)))
        assert np.abs(softmax(x, -1).data.sum(axis=-1) - 1).max() < 1e-6


class TestElementwiseMatmul:
    def test_identities(self):
        a = Tensor(np.random.default_rng(6).random((1, 3, 2, 2)).astype(np.float32))
        np.testing.assert_array_equal(add(a, 0.0).data, a.data)
        ones = Tensor(np.ones((1, 3, 1, 1), dtype=np.float32))
        np.testing.assert_array_equal(mul(a, ones).data, a.data)
        np.testing.assert_array_equal(
            mul(Tensor(np.asarray([1.0, 2.0])), Tensor(np.asarray([3.0, 4.0]))).data,
            [3, 8],
        )

    def test_broadcast_grad_sums(self):
        a = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
        v = Tensor(np.ones((1, 2, 1, 1), dtype=np.float32))
        backward(sum_(mul(a, v)))
        np.testing.assert_array_equal(v.grad, np.full((1, 2, 1, 1), 9.0))

    def test_matmul(self):
        a = Tensor(np.asarray([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.asarray([[1.0], [1.0]]))
        np.testing.assert_array_equal(matmul(a, b).data, [[3], [7]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(matmul(eye, a).data, a.data)
        with pytest.raises(DimensionError):
            matmul(a, Tensor(np.zeros((3, 2))))


class TestRearrange:
    def test_channel_shuffle_mapping(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 4, 1, 1))
        out = channel_shuffle(x, 2)
        np.testing.assert_array_equal(out.data.ravel(), [0, 2, 1, 3])

    def test_channel_shuffle_involution_g2_c4(self):
        x = Tensor(np.random.default_rng(7).random((1, 4, 2, 2)).astype(np.float32))
        np.testing.assert_array_equal(channel_shuffle(channel_shuffle(x, 2), 2).data, x.data)

    @pytest.mark.parametrize("groups", [0, -1, -4])
    def test_channel_shuffle_rejects_nonpositive_groups(self, groups):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 4, 1, 1))
        with pytest.raises(ConfigurationError, match=f"groups={groups} "):
            channel_shuffle(x, groups)

    def test_channel_shuffle_bijection(self):
        x = Tensor(np.random.default_rng(8).random((1, 12, 2, 2)).astype(np.float32))
        out = channel_shuffle(x, 3)
        assert sorted(out.data.ravel().tolist()) == sorted(x.data.ravel().tolist())

    def test_channel_slice_values_and_range(self):
        x = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2))
        out = channel_slice(x, 1, 3)
        np.testing.assert_array_equal(out.data, x.data[:, 1:3])
        assert out.data.flags.c_contiguous
        for start, stop in ((0, 0), (2, 1), (-1, 2), (1, 4)):
            with pytest.raises(DimensionError, match="channel range"):
                channel_slice(x, start, stop)

    def test_concat_extents(self):
        a = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        b = Tensor(np.zeros((1, 5, 4, 4), dtype=np.float32))
        assert concat([a, b], axis=1).shape == (1, 8, 4, 4)
        with pytest.raises(DimensionError):
            concat([a, Tensor(np.zeros((1, 5, 3, 4), dtype=np.float32))], axis=1)

    def test_concat_axis_out_of_range(self):
        a = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        with pytest.raises(DimensionError, match="disagree off axis 4"):
            concat([a, a], axis=4)

    def test_reshape_permute_roundtrip(self):
        x = Tensor(np.random.default_rng(9).random((2, 3, 4, 5)).astype(np.float32))
        y = permute(reshape(x, (2, 3, 20)), (0, 2, 1))
        assert y.shape == (2, 20, 3)
        backward(sum_(y))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(np.random.default_rng(10).random((1, 2, 3, 3)).astype(np.float32))
        assert dropout(x, "eval") is x

    def test_scaling_contract(self):
        x = Tensor(np.full((1, 1, 10, 10), 3.0, dtype=np.float32))
        out = dropout(x, "train", np.random.default_rng(0)).data
        assert set(np.unique(out).tolist()) <= {0.0, 6.0}

    def test_mask_is_raw_bits_and_seekable(self):
        """Element e is kept, and doubled, when bit e % 64 of raw word e // 64
        is set, for output and gradient alike; the call consumes exactly
        ceil(n / 64) words; a generator advanced by e // 64 words yields
        element e's bit.  1050 elements end in a partial word.

        This pins the RNG stream: a mask drawn any other way changes which
        units a seed drops and must update this test.
        """
        shape = (3, 5, 10, 7)
        n = math.prod(shape)
        words = -(-n // 64)
        rng = np.random.default_rng(22)
        data = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal(shape).astype(np.float32)
        drawn = np.random.default_rng(9)
        ref = np.random.default_rng(9).bit_generator
        raw = ref.random_raw(words)
        mask = np.array([(int(raw[e // 64]) >> (e % 64)) & 1 for e in range(n)], dtype=bool)
        mask = mask.reshape(shape)
        x = Tensor(data)
        out = dropout(x, "train", drawn)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == (data * mask * np.float32(2)).tobytes()
        assert drawn.bit_generator.state == ref.state
        backward(sum_(mul(out, w)))
        assert x.grad.tobytes() == (w * mask * np.float32(2)).tobytes()
        for e in (0, 63, 64, n - 1):
            seek = np.random.default_rng(9).bit_generator
            seek.advance(e // 64)
            bit = (int(seek.random_raw()) >> (e % 64)) & 1
            assert bit == mask.reshape(-1)[e], e

    def test_missing_rng(self):
        with pytest.raises(UsageError):
            dropout(Tensor(np.zeros(1)), "train")


class TestBackward:
    def test_sum_grad_ones(self):
        x = Tensor(np.random.default_rng(11).random((3, 4)))
        backward(sum_(x))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_quadratic(self):
        x = Tensor(np.asarray([1.0, -2.0, 3.0]))
        backward(sum_(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_usage_errors(self):
        x = Tensor(np.zeros(3))
        with pytest.raises(UsageError):
            backward(x)  # leaf
        with pytest.raises(UsageError):
            backward(add(x, x))  # non-scalar

    def test_double_consumption_sums(self):
        x = Tensor(np.random.default_rng(12).standard_normal(5), np.float64)
        f = lambda t: sum_(add(mul(t, t), mul(t, 2.0)))
        assert finite_diff_check(f, x) < 1e-8

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones(3))
        loss = sum_(mul(x, x))
        backward(loss)
        backward(loss)
        np.testing.assert_allclose(x.grad, 4 * np.ones(3))

    def test_interior_grads_released_during_sweep(self):
        """Peak memory of a sweep stays near one gradient, not one per node."""
        x = Tensor(np.random.default_rng(19).standard_normal(2**18).astype(np.float32))
        t = x  # 1 MiB leaf
        for _ in range(32):
            t = relu(add(mul(t, 1.5), 0.25))
        loss = sum_(t)
        tracemalloc.start()
        try:
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"backward peaked at {peak / 2**20:.1f} MiB"
        assert x.grad is not None and t.grad is None and loss.grad is None


class TestGradientHandoff:
    """``_accumulate`` keeps a gradient that a closure computed afresh and
    copies one that shares memory with the gradient being propagated."""

    @pytest.mark.parametrize("op", [add, sub])
    def test_operands_hold_separate_grads(self, op):
        rng = np.random.default_rng(40)
        a, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
        backward(sum_(mul(op(a, b), rng.standard_normal((3, 4)))))
        assert not np.shares_memory(a.grad, b.grad)

    @pytest.mark.parametrize("op", [lambda t: reshape(t, (4, 3))], ids=["reshape"])
    def test_pass_through_copies_incoming(self, op):
        x = Tensor(np.random.default_rng(41).standard_normal((1, 1, 3, 4)))
        y = op(x)
        incoming, inner = [], y._backward
        y._backward = lambda g: (incoming.append(g), inner(g))
        backward(sum_(mul(y, 2.0)))
        assert incoming and not np.shares_memory(x.grad, incoming[0])

    def test_conv_1x1_dx_not_copied(self):
        """The 1x1 conv's dx GEMM result becomes ``x.grad`` with no second
        buffer: the backward's peak stays under one and a half of dx."""
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 16, 32, 32)).astype(np.float32))
        out = conv2d(x, Tensor(rng.standard_normal((8, 16, 1, 1)).astype(np.float32)))
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert x.grad.shape == x.shape
        assert peak < 1.5 * x.data.nbytes, peak


def _every_op_graph(rng):
    """A scalar loss over every op kind, and its leaves."""
    x = Tensor(rng.standard_normal((2, 4, 6, 6)))
    w3 = Tensor(rng.standard_normal((4, 4, 3, 3)) * 0.2)
    wdw = Tensor(rng.standard_normal((4, 1, 3, 3)) * 0.2)
    w1, b1 = Tensor(rng.standard_normal((4, 4, 1, 1)) * 0.3), Tensor(rng.standard_normal(4))
    scale, shift = Tensor(1 + 0.1 * rng.standard_normal(4)), Tensor(0.1 * rng.standard_normal(4))
    t = gelu(conv2d(x, w3, pad=1))
    t = relu(add(conv2d(t, wdw, pad=1, groups=4), 0.1))
    # the 1x1 conv as the sum of its two input-channel halves
    t = add(conv2d(channel_slice(t, 0, 2), channel_slice(w1, 0, 2), b1),
            conv2d(channel_slice(t, 2, 4), channel_slice(w1, 2, 4)))
    t = batch_norm(t, scale, shift, BatchNormState(4), "train")
    t = layer_norm(dropout(channel_shuffle(t, 2), "train", np.random.default_rng(0)), scale, shift)
    t = concat([max_pool2x2(t), bilinear_resize(t, 3, 3)], axis=1)
    tokens = reshape(permute(t, (0, 2, 3, 1)), (2, 9, 8))
    attn = softmax(matmul(tokens, permute(tokens, (0, 2, 1))), -1)
    y = sigmoid(sub(matmul(attn, tokens), reshape(global_max_pool(t), (2, 1, 8))))
    loss = sum_(add(log(clip(y, 1e-6, 1.0)), pow_(add(y, 1.0), 2.0)))
    return loss, [x, w3, wdw, w1, b1, scale, shift]


class TestRelease:
    """After ``backward()`` only leaves and the loss hold values; closures
    hold their own arrays."""

    def test_only_leaves_and_loss_keep_values(self):
        loss, leaves = _every_op_graph(np.random.default_rng(50))
        nodes, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        interior = [t for t in nodes if not t.is_leaf() and t is not loss]
        kept = [t for t in nodes if t.is_leaf()] + [loss]
        assert {id(t) for t in kept} == {id(t) for t in leaves + [loss]}
        layouts = [(t.shape, t.dtype) for t in interior]
        values = [t.data.tobytes() for t in kept]
        backward(loss)
        assert [(t.shape, t.dtype) for t in interior] == layouts
        for t in interior:
            assert np.isnan(t.data).all() and not t.data.flags.writeable
        assert [t.data.tobytes() for t in kept] == values
        grads = [t.grad for t in leaves]
        assert all(g.flags.writeable for g in grads)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(grads, 2))

    def test_repeated_sweep_gives_same_bytes(self):
        loss, leaves = _every_op_graph(np.random.default_rng(52))
        backward(loss)
        first = [t.grad.tobytes() for t in leaves]
        for t in leaves:
            t.grad = None
        backward(loss)
        assert [t.grad.tobytes() for t in leaves] == first

    def test_random_graphs_leave_grads_writeable_and_unshared(self):
        # Shared operands (``b`` is ``a`` a quarter of the time) and fan-out
        # (any earlier node may feed any later op) over every op kind.
        seed = 190
        rng = np.random.default_rng(seed)
        for index in range(300):
            case = f"seed {seed}, graph {index}"
            try:
                loss, leaves = _random_graph(rng)
                backward(loss)
            except Exception as exc:
                pytest.fail(f"{case}: {exc!r}")
            grads = [t.grad for t in leaves if t.grad is not None]
            assert grads and all(g.flags.writeable for g in grads), case
            assert not any(np.shares_memory(a, b)
                           for a, b in itertools.combinations(grads, 2)), case


def _random_graph(rng):
    """A scalar loss over a random graph of 2x4x4x4 maps, and its leaves."""
    n, c, h, w = 2, 4, 4, 4

    def leaf(*shape):
        return Tensor(0.5 * rng.standard_normal(shape))

    p = {"w3": leaf(c, c, 3, 3), "wdw": leaf(c, 1, 3, 3), "w1": leaf(c, c, 1, 1),
         "b": leaf(c), "wcat": leaf(c, 2 * c, 1, 1), "scale": leaf(c), "shift": leaf(c),
         "gain": leaf(1, c, 1, 1)}
    drop_rng = np.random.default_rng(int(rng.integers(2**32)))

    def tokens(t):
        return reshape(t, (n, c, h * w))

    ops = [
        add, sub, mul, lambda a, b: mul(a, p["gain"]),
        lambda a, b: relu(a), lambda a, b: sigmoid(a), lambda a, b: gelu(a),
        lambda a, b: pow_(clip(a, -2.0, 2.0), 2.0), lambda a, b: log(add(mul(a, a), 1.0)),
        lambda a, b: softmax(a, 1),
        lambda a, b: reshape(reshape(a, (n, c * h * w)), (n, c, h, w)),
        lambda a, b: permute(permute(a, (0, 2, 3, 1)), (0, 3, 1, 2)),
        lambda a, b: channel_shuffle(a, 2),
        lambda a, b: concat([channel_slice(a, 1, c), channel_slice(b, 0, 1)], axis=1),
        lambda a, b: dropout(a, "train", drop_rng),
        lambda a, b: dropout(a, "eval"),
        lambda a, b: bilinear_resize(a, h, w),
        lambda a, b: bilinear_resize(max_pool2x2(a), h, w),
        lambda a, b: conv2d(a, p["w3"], pad=1),
        lambda a, b: conv2d(a, p["wdw"], pad=1, groups=c),
        lambda a, b: conv2d(a, p["w1"], p["b"]),
        lambda a, b: conv2d(concat([a, b], axis=1), p["wcat"]),
        lambda a, b: batch_norm(a, p["scale"], p["shift"], BatchNormState(c), "train"),
        lambda a, b: layer_norm(a, p["scale"], p["shift"]),
        lambda a, b: mul(a, global_max_pool(b)),
        lambda a, b: add(a, reshape(mean_(b, axis=(2, 3)), (n, c, 1, 1))),
        # (n, c, c) attention-like scores, broadcast over the last axis (c == h)
        lambda a, b: mul(a, reshape(matmul(tokens(a), permute(tokens(b), (0, 2, 1))),
                                    (n, c, c, 1))),
    ]
    pool = [leaf(n, c, h, w) for _ in range(3)]
    for _ in range(int(rng.integers(4, 13))):
        a = pool[rng.integers(len(pool))]
        b = a if rng.random() < 0.25 else pool[rng.integers(len(pool))]
        pool.append(ops[rng.integers(len(ops))](a, b))
    terms = [pool[-1]] + [pool[i] for i in rng.choice(len(pool) - 1, 2, replace=False)]
    loss = sum_(add(add(terms[0], terms[1]), terms[2]))
    return loss, pool[:3] + list(p.values())


class TestNoGrad:
    def test_result_keeps_no_graph(self):
        x = Tensor(np.arange(3.0))
        outside = sum_(mul(x, x))
        with no_grad():
            y = sum_(mul(x, x))
        assert y._parents == () and y._backward is None
        assert y.data.tobytes() == outside.data.tobytes()
        with pytest.raises(UsageError):
            backward(y)
        backward(outside)  # a graph built before the block is intact
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_nested_block_restores_recording(self):
        x = Tensor(np.ones(3))
        with no_grad():
            with no_grad():
                pass
            assert mul(x, x)._backward is None  # the outer block still holds
        backward(sum_(mul(x, x)))
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

    def test_raising_block_restores_recording(self):
        with pytest.raises(DimensionError):
            with no_grad():
                add(Tensor(np.ones(2)), Tensor(np.ones(3)))
        x = Tensor(np.ones(3))
        backward(sum_(mul(x, x)))
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))


class TestElementType:
    """A leaf is float32 unless its creator names a type, and a constant
    operand takes the type of the tensor it meets."""

    def test_leaf_default_is_float32(self):
        assert Tensor(np.zeros(2)).dtype == np.float32
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor(np.zeros(2), np.float64).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_takes_tensor_type(self, dtype):
        x = np.random.default_rng(30).standard_normal(5).astype(dtype)
        leaf = Tensor(x, dtype)
        y = mul(leaf, 0.1)
        assert y.dtype == dtype and y.data.tobytes() == (x * dtype(0.1)).tobytes()
        backward(sum_(y))
        assert leaf.grad.dtype == dtype
        assert leaf.grad.tobytes() == np.full(5, 0.1, dtype=dtype).tobytes()
        c = np.random.default_rng(31).standard_normal(5)  # a float64 array
        assert add(leaf, c).data.tobytes() == (x + c.astype(dtype)).tobytes()


class TestFiniteDiff:
    def test_sum_of_squares(self):
        x = Tensor(np.random.default_rng(13).standard_normal(6), np.float64)
        assert finite_diff_check(lambda t: sum_(mul(t, t)), x) < 1e-8

    def test_sum_of_squares_transposed_leaf(self):
        x = Tensor(np.random.default_rng(13).standard_normal((2, 3)).T, np.float64)
        assert not x.data.flags.c_contiguous
        assert finite_diff_check(lambda t: sum_(mul(t, t)), x) < 1e-8

    def test_non_leaf_rejected(self):
        x = mul(Tensor(np.random.default_rng(13).standard_normal(3), np.float64), 2.0)
        with pytest.raises(UsageError):
            finite_diff_check(lambda t: sum_(mul(t, t)), x)

    def test_sigmoid_chain(self):
        x = Tensor(np.random.default_rng(14).standard_normal(6), np.float64)
        assert finite_diff_check(lambda t: sum_(sigmoid(t)), x) < 1e-6

    def test_constant(self):
        x = Tensor(np.random.default_rng(15).standard_normal(4), np.float64)
        const = Tensor(np.asarray(1.5), np.float64)
        assert finite_diff_check(lambda t: const, x) == 0.0

    def test_nondeterministic_rejected(self):
        x = Tensor(np.random.default_rng(16).standard_normal(4), np.float64)
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError):
            finite_diff_check(lambda t: sum_(mul(t, float(rng.random()))), x)

    def test_wrong_gradient_caught(self):
        """A backward that drops its factor 2 gives analytic 1 against numeric 2,
        a relative error of 1/3, on per-coordinate and random directions."""
        def f(t):
            return sum_(Tensor._from_op(t.data * 2, (t,), lambda g: _accumulate(t, g)))

        x = Tensor(np.random.default_rng(17).standard_normal((2, 3)), np.float64)
        data, before = x.data, x.data.tobytes()
        assert finite_diff_check(f, x) == pytest.approx(1 / 3, rel=1e-6)
        d = np.random.default_rng(18).standard_normal(x.shape)
        [(name, err)] = _gradient_errors(lambda: f(x), [("x", x)], lambda t: [d / np.linalg.norm(d)])
        assert name == "x" and err == pytest.approx(1 / 3, rel=1e-6)
        assert x.data is data and x.data.tobytes() == before

    def test_nan_gradient_reads_inf(self):
        """A NaN error would pass ``err > tolerance`` and hide in ``max``."""
        def f(t):
            return sum_(Tensor._from_op(t.data * 2, (t,), lambda g: _accumulate(t, g * np.nan)))

        x = Tensor(np.random.default_rng(19).standard_normal(3), np.float64)
        assert finite_diff_check(f, x) == math.inf

    def test_nondeterministic_rejected_on_random_directions(self):
        x = Tensor(np.random.default_rng(20).standard_normal(4), np.float64)
        d = np.random.default_rng(21).standard_normal(4)
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError):
            _gradient_errors(lambda: sum_(mul(x, float(rng.random()))), [("x", x)],
                             lambda t: [d / np.linalg.norm(d)])

    def test_block_suite_takes_one_backward(self, monkeypatch):
        """fmcab's 21 tensors (531 coordinates) share one backward; the block
        runs twice for the determinism check and twice per coordinate."""
        counts = {"backward": 0, "fmcab_forward": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                counts[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gradcheck, "backward", counted(gradcheck.backward))
        monkeypatch.setattr(blocks, "fmcab_forward", counted(blocks.fmcab_forward))
        errors, _ = gradcheck.run_suite("fmcab")
        assert len(errors) == 21
        assert counts == {"backward": 1, "fmcab_forward": 2 + 2 * 531}


@pytest.mark.parametrize(
    "name,f,shape",
    [
        ("conv", None, (1, 3, 6, 6)),  # filled in below
        ("maxpool", lambda x: sum_(max_pool2x2(x)), (2, 2, 6, 6)),
        ("gap_gmp", lambda x: sum_(add(gap(x), global_max_pool(x))), (2, 2, 4, 4)),
        ("resize", lambda x: sum_(bilinear_resize(x, 5, 7)), (1, 2, 3, 4)),
        ("softmax", lambda x: sum_(mul(softmax(x, -1), np.arange(6.0))), (4, 6)),
        ("gelu", lambda x: sum_(gelu(x)), (2, 5)),
        ("shuffle", lambda x: sum_(mul(channel_shuffle(x, 2), np.random.default_rng(0).random((1, 4, 2, 2)))), (1, 4, 2, 2)),
        ("slice", lambda x: sum_(mul(channel_slice(x, 1, 3), np.random.default_rng(0).random((2, 2, 2, 2)))), (2, 4, 2, 2)),
    ],
)
def test_primitive_gradients(name, f, shape):
    """Every differentiable primitive passes finite differences in 64-bit."""
    x = Tensor(np.random.default_rng(hash(name) % 2**32).standard_normal(shape), np.float64)
    if name == "conv":
        w = Tensor(np.random.default_rng(1).standard_normal((2, 3, 3, 3)), np.float64)
        f = lambda t: sum_(mul(
            conv2d(t, w, None, pad=1),
            np.random.default_rng(2).standard_normal((1, 2, 6, 6)),
        ))
    assert finite_diff_check(f, x) < 1e-5


class TestParamStore:
    def test_order_and_uniqueness(self):
        store = ParamStore(0)
        store.full("a", (2,), 0.0)
        store.full("b", (3,), 1.0)
        assert store.names() == ["a", "b"]
        with pytest.raises(UsageError):
            store.full("a", (2,), 0.0)

    def test_deterministic_init(self):
        w1, _ = ParamStore(42).conv("c", 4, 3, 3, 3)
        w2, _ = ParamStore(42).conv("c", 4, 3, 3, 3)
        np.testing.assert_array_equal(w1.data, w2.data)

    def test_copy_load_roundtrip(self):
        store = ParamStore(1)
        store.conv("c", 2, 2, 1, 1)
        values = store.copy_values()
        store["c.w"].data[:] = 0
        store.load_values(values)
        np.testing.assert_array_equal(store["c.w"].data, values["c.w"])
