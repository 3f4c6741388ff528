"""Print SHA-256 fingerprints of a default model's train steps and eval outputs.

Two checkouts whose lines match compute the same bytes: use it to show that a
change keeps every gradient, parameter and eval output as it was.  Run it
against each checkout in turn and compare the output:

    PYTHONPATH=<checkout>/src python3 tools/fingerprint.py

The first line hashes two train steps of the default 64x64 model on one
synthetic batch of 8: after each step's backward every parameter gradient,
and after each Adam update every parameter and batch-norm running statistic.
The second line hashes the eval output of the trained model, recorded and
under ``no_grad``.  It takes no options and needs only NumPy.
"""

import hashlib

import numpy as np

from fmbff import data, engine, model, train

SEED = 0
BATCH = 8


def _feed(h, name, a):
    a = np.ascontiguousarray(a)
    h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
    h.update(a.tobytes())


def _forward(params, x, mode, rng=None):
    """The probability map, whether ``model_forward`` returns it or a trace of it."""
    out = model.model_forward(engine.Tensor(x), params, mode=mode, rng=rng)
    return getattr(out, "f_out", out)


def main():
    params = model.build_model(model.ModelConfig())
    size = params.config.input_size
    samples = data.generate_synthetic(BATCH, size=size, seed=SEED)
    x = np.stack([s.image for s in samples])
    y = np.stack([s.mask for s in samples])
    state = train.TrainState(lr=1e-3, rng=np.random.default_rng(SEED))

    steps = hashlib.sha256()
    for step in range(2):
        engine.backward(train.loss(_forward(params, x, "train", state.rng), y))
        for name, p in params.store.items():
            _feed(steps, f"{step} grad {name}", p.grad)
        train.adam_step(params.store, state, state.lr)
        for name, p in params.store.items():
            _feed(steps, f"{step} param {name}", p.data)
        for name, bn in params.bn_states.items():
            _feed(steps, f"{step} mean {name}", bn.running_mean)
            _feed(steps, f"{step} var {name}", bn.running_var)

    evals = hashlib.sha256()
    _feed(evals, "recorded", _forward(params, x, "eval").data)
    with engine.no_grad():
        _feed(evals, "no_grad", _forward(params, x, "eval").data)

    print(f"train_steps {steps.hexdigest()}")
    print(f"eval_outputs {evals.hexdigest()}")


if __name__ == "__main__":
    main()
