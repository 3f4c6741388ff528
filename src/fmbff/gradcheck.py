"""64-bit finite-difference verification of every backward rule.

Every check takes one backward for all its tensors, then central differences
along the directions it is given (``_gradient_errors``).  Block suites perturb
every coordinate of every parameter (shapes are tiny, at most (1, 4, 6, 6)).
The full-model suite takes one random unit direction per parameter tensor so
it stays inside a desk-scale time budget.
"""

from __future__ import annotations

import functools

import numpy as np

from . import blocks
from .engine import ParamStore, Tensor, backward, mul, no_grad, sum_
from .errors import UsageError
from .model import ModelConfig, build_model, model_forward

BLOCK_TOLERANCE = 1e-5
MODEL_TOLERANCE = 1e-4
# Central-difference step, and the magnitude floor of the relative error that
# keeps roundoff on (near-)zero gradients from reading as a disagreement.
FD_STEP = 1e-5
FD_FLOOR = 1e-3


def _fd_errors(f, t, grad, directions):
    """Relative error between ``grad`` and the central difference of ``f()``
    along each direction.  Finite values give at most 1, so any other error
    reads ``inf``, NaN included.  ``t.data`` is replaced by each perturbed
    copy in turn, and the original array is put back afterwards.  The
    perturbed evaluations run under ``no_grad``: nothing differentiates them."""
    orig = t.data
    errors = []
    try:
        for d in directions:
            with no_grad():
                t.data = orig + FD_STEP * d
                fp = f().item()
                t.data = orig - FD_STEP * d
                fm = f().item()
            numeric = (fp - fm) / (2.0 * FD_STEP)
            analytic = float((grad * d).sum())
            err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), FD_FLOOR)
            errors.append(err if err <= 1.0 else np.inf)
    finally:
        t.data = orig
    return errors


def _unit_basis(t):
    return (np.eye(1, t.size, k, dtype=t.data.dtype).reshape(t.shape) for k in range(t.size))


def _gradient_errors(f, named_tensors, directions):
    """(name, max relative error) per named tensor, along the arrays
    ``directions(t)`` yields (0.0 for none).  ``f()`` must return a scalar
    Tensor and be deterministic, which two evaluations verify.  The one
    backward gives every gradient, 0 for a tensor it does not reach."""
    y = f()
    with no_grad():
        y2 = f()
    if not isinstance(y, Tensor) or y.size != 1:
        raise UsageError("f must return a scalar Tensor")
    if not np.array_equal(y.data, y2.data, equal_nan=True):
        raise UsageError("f is not deterministic; finite differences are invalid")

    for _, t in named_tensors:
        t.grad = None
    if not y.is_leaf():
        backward(y)
    errors = []
    for name, t in named_tensors:
        grad = np.zeros_like(t.data) if t.grad is None else t.grad
        errors.append((name, max(_fd_errors(f, t, grad, directions(t)), default=0.0)))
    return errors


def finite_diff_check(f, x):
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map ``x`` to a scalar Tensor and be deterministic (dropout,
    for example, with a fixed rng); determinism is verified by evaluating
    twice.  ``x`` must be a leaf, since ``backward`` keeps gradients on
    leaves only; its data may be any strided array.  Each coordinate is
    perturbed in a copy, and the original array is put back.
    """
    if not isinstance(x, Tensor) or not x.is_leaf():
        raise UsageError("finite_diff_check requires a leaf Tensor x")
    [(_, err)] = _gradient_errors(lambda: f(x), [("x", x)], _unit_basis)
    return err


@functools.lru_cache(maxsize=None)
def _scalar_weights(shape):
    """``_scalarize``'s weights for one output shape: drawn once per shape
    from a generator seeded 123, and read-only, since every evaluation of a
    check shares them."""
    w = np.random.default_rng(123).standard_normal(shape)
    w.flags.writeable = False
    return w


def _scalarize(out):
    """Weighted sum so permutation/routing mistakes can't cancel out."""
    return sum_(mul(out, _scalar_weights(out.shape)))


def _named(store: ParamStore, x: Tensor):
    return [("input", x)] + list(store.items())


def _jitter(store: ParamStore):
    """Nudge every parameter off its init value by up to 0.05, widening it to
    float64.

    Zero-initialized biases otherwise leave pre-activations sitting exactly
    on the relu kink (e.g. under fully dropped-out patches), where finite
    differences disagree with the one-sided analytic subgradient.
    """
    rng = np.random.default_rng(11)
    for _, t in store.items():
        noise = rng.uniform(-0.05, 0.05, size=t.data.shape)
        t.data = t.data + noise


def _fmcab_suite():
    store = ParamStore(0)
    params = blocks.FmcabParams.build(store, "b", 4, reduction=4)
    _jitter(store)
    x = Tensor(np.random.default_rng(1).standard_normal((1, 4, 6, 6)), np.float64)
    f = lambda: _scalarize(blocks.fmcab_forward(x, params))
    return _gradient_errors(f, _named(store, x), _unit_basis)


def _biffm_suite():
    store = ParamStore(0)
    params = blocks.BiffmParams.build(store, "b", 4, 6, width=4, shuffle_groups=4)
    _jitter(store)
    rng = np.random.default_rng(2)
    d = Tensor(rng.standard_normal((1, 4, 6, 6)), np.float64)
    s = Tensor(rng.standard_normal((1, 6, 3, 3)), np.float64)
    f = lambda: _scalarize(blocks.biffm_forward(d, s, params))
    return _gradient_errors(f, [("input_d", d), ("input_s", s)] + list(store.items()), _unit_basis)


def _vitm_suite():
    store = ParamStore(0)
    params = blocks.VitmParams.build(store, "b", 4, 36, heads=2)
    _jitter(store)
    x = Tensor(np.random.default_rng(3).standard_normal((1, 4, 6, 6)), np.float64)
    f = lambda: _scalarize(blocks.vitm_forward(x, params))
    return _gradient_errors(f, _named(store, x), _unit_basis)


def _frm_suite():
    store = ParamStore(0)
    params = blocks.FrmParams.build(store, "b", 4, 2, upsample=True)
    _jitter(store)
    x = Tensor(np.random.default_rng(4).standard_normal((1, 4, 6, 6)), np.float64)

    def f():
        # Fixed rng seed per call keeps the dropout mask deterministic, which
        # finite differencing requires.
        out = blocks.frm_forward(x, params, mode="train", rng=np.random.default_rng(7))
        return _scalarize(out)

    return _gradient_errors(f, _named(store, x), _unit_basis)


def _model_suite():
    config = ModelConfig(
        in_channels=2,
        input_size=(16, 16),
        encoder_widths=(4, 4, 4, 4),
        decoder_widths=(2, 2, 2, 2),
        heads=2,
        shuffle_groups=2,
        seed=0,
    )
    params = build_model(config)
    _jitter(params.store)
    x = Tensor(np.random.default_rng(5).standard_normal((1, 2, 16, 16)), np.float64)

    def f():
        trace = model_forward(x, params, mode="train", rng=np.random.default_rng(7))
        return _scalarize(trace.f_out)

    rng = np.random.default_rng(321)

    def directions(t):
        d = rng.standard_normal(t.data.shape)
        return [d / np.linalg.norm(d)]

    return _gradient_errors(f, _named(params.store, x), directions)


_SUITES = {
    "fmcab": _fmcab_suite,
    "biffm": _biffm_suite,
    "vitm": _vitm_suite,
    "frm": _frm_suite,
    "model": _model_suite,
}
BLOCK_NAMES = tuple(_SUITES)


def run_suite(block):
    """Max relative gradient errors for one block, in float64.

    Returns (errors, tolerance) where errors is a list of
    (parameter name, max relative error) pairs.
    """
    if block not in _SUITES:
        raise UsageError(f"unknown gradcheck block {block!r}; choose from {BLOCK_NAMES}")
    tolerance = MODEL_TOLERANCE if block == "model" else BLOCK_TOLERANCE
    return _SUITES[block](), tolerance
