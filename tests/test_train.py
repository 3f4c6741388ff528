import ctypes
import hashlib
import importlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import fmbff
tr = importlib.import_module("fmbff.train")
from fmbff import cli
from fmbff.data import expand_augmentations, generate_synthetic, write_image
from fmbff.engine import ParamStore, Tensor, backward
from fmbff.errors import FormatError, ParseError, UsageError
from fmbff.gradcheck import finite_diff_check
from fmbff.model import ModelConfig, build_model, model_forward


def libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Default-config train steps (64x64, batch 8), then eval-mode batches, in a
# fresh process; prints the minor page faults of steps 3-5 and of the batches.
HEAP_PROBE = """
import resource
import numpy as np
from fmbff import train as tr
from fmbff.data import generate_synthetic
from fmbff.engine import Tensor
from fmbff.model import ModelConfig, build_model, model_forward

def faults_of(fn):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

samples = generate_synthetic(8, size=(64, 64), seed=3)
x = np.stack([s.image for s in samples])
y = np.stack([s.mask for s in samples])
params = build_model(ModelConfig())
state = tr.TrainState(lr=1e-3, rng=np.random.default_rng(0))
steps = [faults_of(lambda: tr._train_step(params, state, x, y, tr.TrainConfig(), 1))
         for _ in range(5)]
batches = [faults_of(lambda: model_forward(Tensor(x), params, mode="eval"))
           for _ in range(3)]
print(*steps[2:], *batches)
"""


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


class TestLoss:
    def test_perfect_prediction_near_zero(self):
        gt = np.random.default_rng(0).random((2, 1, 4, 4)) > 0.5
        gt = gt.astype(np.float32)
        pred = Tensor(np.clip(gt, 1e-6, 1 - 1e-6))
        value = tr.loss(pred, gt).item()
        assert 0 <= value < 1e-3

    def test_uniform_half_bce_is_ln2(self):
        # balanced ground truth, prediction pinned at 0.5: BCE term is ln 2
        gt = np.array([[[[0.0, 1.0], [1.0, 0.0]]]], dtype=np.float32)
        pred = Tensor(np.full_like(gt, 0.5))
        bce_only = tr.loss(pred, gt, w_bce=1.0, w_dice=0.0).item()
        assert abs(bce_only - math.log(2)) < 1e-6

    def test_dice_term_half_prediction(self):
        gt = np.ones((1, 1, 2, 2), dtype=np.float64)
        pred = Tensor(np.full_like(gt, 0.5))
        # soft dice = (2*2 + 1) / (2 + 4 + 1) = 5/7
        dice_only = tr.loss(pred, gt, w_bce=0.0, w_dice=1.0).item()
        assert abs(dice_only - (1 - 5 / 7)) < 1e-6  # float32 precision

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        gt = (rng.random((1, 1, 4, 4)) > 0.5).astype(np.float64)
        pred = Tensor(rng.uniform(0.1, 0.9, size=gt.shape), np.float64)
        err = finite_diff_check(lambda p: tr.loss(p, gt), pred)
        assert err < 1e-6

    def test_shape_mismatch(self):
        from fmbff.errors import DimensionError
        with pytest.raises(DimensionError):
            tr.loss(Tensor(np.zeros((1, 1, 2, 2))), np.zeros((1, 1, 3, 3)))


class TestAdam:
    def _store(self):
        store = ParamStore(rng_seed=0)
        store.add("a", np.array([1.0, 2.0], dtype=np.float64))
        store.add("b", np.array([[3.0]], dtype=np.float64))
        return store

    def test_zero_grad_no_change(self):
        store = self._store()
        for _, p in store.items():
            p.grad = np.zeros_like(p.data)
        before = store.copy_values()
        tr.adam_step(store, tr.TrainState(lr=0.1), lr=0.1)
        for name, p in store.items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_first_step_is_signed_lr(self):
        # with bias correction the first update is exactly -lr * sign(g)
        store = self._store()
        store["a"].grad = np.array([0.5, -2.0])
        store["b"].grad = np.array([[1e-3]])
        before = store.copy_values()
        tr.adam_step(store, tr.TrainState(lr=0.01), lr=0.01)
        np.testing.assert_allclose(
            store["a"].data, before["a"] - 0.01 * np.sign([0.5, -2.0]), atol=1e-6
        )
        np.testing.assert_allclose(store["b"].data, before["b"] - 0.01, atol=1e-4)

    def test_equal_grads_equal_updates(self):
        store = self._store()
        store["a"].grad = np.array([1.0, 1.0])
        store["b"].grad = np.array([[1.0]])
        before = store.copy_values()
        tr.adam_step(store, tr.TrainState(lr=0.05), lr=0.05)
        deltas = [store["a"].data - before["a"], store["b"].data - before["b"]]
        np.testing.assert_allclose(deltas[0][0], deltas[0][1])
        np.testing.assert_allclose(deltas[0][0], deltas[1][0, 0])

    def test_missing_grad_raises(self):
        store = self._store()
        store["a"].grad = np.array([1.0, 1.0])
        with pytest.raises(UsageError, match="b"):
            tr.adam_step(store, tr.TrainState(lr=0.1), lr=0.1)

    def test_grads_cleared(self):
        store = self._store()
        for _, p in store.items():
            p.grad = np.ones_like(p.data)
        tr.adam_step(store, tr.TrainState(lr=0.1), lr=0.1)
        assert all(p.grad is None for _, p in store.items())

    def test_moments_accumulate(self):
        store = self._store()
        state = tr.TrainState(lr=0.1)
        for _ in range(3):
            for _, p in store.items():
                p.grad = np.ones_like(p.data)
            tr.adam_step(store, state, lr=0.1)
        assert state.adam_t == 3
        assert set(state.adam_m) == {"a", "b"}


class TestSchedule:
    def test_plateau_sequence(self):
        # improvement at epoch 1, stagnation after: reduction lands at epoch 8
        cfg = tr.TrainConfig()
        state = tr.TrainState(lr=cfg.lr0)
        tr.plateau_step(state, cfg, 0.5)
        lrs = [tr.plateau_step(state, cfg, 0.5) for _ in range(7)]
        assert lrs[:6] == [0.001] * 6
        assert lrs[6] == pytest.approx(0.00075)
        assert state.reductions == 1

    def test_counter_resets_after_reduction(self):
        cfg = tr.TrainConfig()
        state = tr.TrainState(lr=cfg.lr0)
        tr.plateau_step(state, cfg, 0.5)
        for _ in range(14):
            tr.plateau_step(state, cfg, 0.5)
        assert state.reductions == 2
        assert state.lr == pytest.approx(0.001 * 0.75**2)

    def test_monotone_improvement_never_reduces(self):
        cfg = tr.TrainConfig()
        state = tr.TrainState(lr=cfg.lr0)
        for i in range(30):
            tr.plateau_step(state, cfg, 0.1 + 0.01 * i)
        assert state.lr == cfg.lr0 and state.reductions == 0

    def test_early_stop_after_ten(self):
        cfg = tr.TrainConfig()
        state = tr.TrainState(lr=cfg.lr0)
        tr.plateau_step(state, cfg, 0.5)
        for i in range(10):
            assert not tr.early_stop(state, cfg)
            tr.plateau_step(state, cfg, 0.5)
        assert tr.early_stop(state, cfg)

    def test_lr_is_geometric_in_reductions(self):
        cfg = tr.TrainConfig()
        state = tr.TrainState(lr=cfg.lr0)
        for _ in range(22):
            tr.plateau_step(state, cfg, 0.0)
        assert state.lr == pytest.approx(cfg.lr0 * cfg.plateau_factor**state.reductions)

    def test_equal_metric_is_not_improvement(self):
        cfg = tr.TrainConfig()
        state = tr.TrainState(lr=cfg.lr0)
        tr.plateau_step(state, cfg, 0.5)
        for _ in range(7):
            tr.plateau_step(state, cfg, 0.5)
        assert state.reductions == 1


def _tiny_run(seed=0, epochs=2, n_train=6, n_val=2):
    samples = generate_synthetic(n_train + n_val, size=(16, 16), seed=7)
    params = build_model(tiny_config())
    cfg = tr.TrainConfig(batch_size=4, max_epochs=epochs, seed=seed)
    return tr.train(params, samples[:n_train], samples[n_train:], cfg)


class TestTrainLoop:
    def test_runs_and_reports_history(self):
        params, state, history = _tiny_run(epochs=2)
        assert [row["epoch"] for row in history] == [1, 2]
        assert all(math.isfinite(row["loss"]) for row in history)
        assert all(0 <= row["val_dice"] <= 1 for row in history)

    def test_fixed_seed_reproducible(self):
        p1, _, h1 = _tiny_run(seed=3, epochs=2)
        p2, _, h2 = _tiny_run(seed=3, epochs=2)
        assert tr.history_csv(h1) == tr.history_csv(h2)
        for name, t in p1.store.items():
            np.testing.assert_array_equal(t.data, p2.store[name].data)

    def test_augment_config_trains_on_every_variant(self):
        # 2 samples x 36 variants in batches of 4: 18 Adam steps, the same
        # run as one on the expanded list with augmentation off
        samples = generate_synthetic(3, size=(16, 16), seed=7)
        cfg = tr.TrainConfig(augment=True, max_epochs=1, batch_size=4)
        params, state, history = fmbff.train_model(build_model(tiny_config()), samples[:2],
                                                   samples[2:], cfg)
        assert state.adam_t == 18
        expanded = [v for s in samples[:2] for v in expand_augmentations(s)]
        cfg.augment = False
        again, _, again_history = fmbff.train_model(build_model(tiny_config()), expanded,
                                                    samples[2:], cfg)
        assert tr.history_csv(history) == tr.history_csv(again_history)
        for name, t in params.store.items():
            np.testing.assert_array_equal(t.data, again.store[name].data)

    def test_best_metric_recomputable(self):
        samples = generate_synthetic(8, size=(16, 16), seed=7)
        params = build_model(tiny_config())
        cfg = tr.TrainConfig(batch_size=4, max_epochs=3, seed=0)
        params, state, history = tr.train(params, samples[:6], samples[6:], cfg)
        recomputed = tr.validation_dice(params, samples[6:], batch_size=4)
        assert recomputed == pytest.approx(state.best_val_metric, abs=1e-9)

    def test_best_epoch_restored(self, monkeypatch):
        # validation Dice 0.5, 0.9, 0.1: after the run the parameters and
        # batch-norm statistics are those of epoch 2, bit for bit
        samples = generate_synthetic(8, size=(16, 16), seed=7)
        params = build_model(tiny_config())
        dice = iter([0.5, 0.9, 0.1])
        monkeypatch.setattr(tr, "validation_dice", lambda *args: next(dice))
        copies = []

        def log_fn(row):
            bn = {name: (st.running_mean.copy(), st.running_var.copy(), st.count)
                  for name, st in params.bn_states.items()}
            copies.append((params.store.copy_values(), bn))

        cfg = tr.TrainConfig(batch_size=4, max_epochs=3, seed=0)
        tr.train(params, samples[:6], samples[6:], cfg, log_fn=log_fn)
        assert len(copies) == 3
        values, bn = copies[1]
        assert any(not np.array_equal(copies[2][0][n], values[n]) for n in values)
        for name, t in params.store.items():
            assert t.data.dtype == values[name].dtype
            assert t.data.tobytes() == values[name].tobytes(), name
        for name, st in params.bn_states.items():
            mean, var, count = bn[name]
            assert st.running_mean.tobytes() == mean.tobytes(), name
            assert st.running_var.tobytes() == var.tobytes(), name
            assert st.count == count

    def test_stop_at_metric(self):
        samples = generate_synthetic(4, size=(16, 16), seed=7)
        params = build_model(tiny_config())
        cfg = tr.TrainConfig(batch_size=4, max_epochs=50, seed=0)
        _, _, history = tr.train(params, samples[:3], samples[3:], cfg,
                                 stop_at_metric=0.0)
        assert len(history) == 1

    def test_run_peak_close_to_one_step(self):
        # Each step's graph must be freed before the next forward builds one,
        # so a two-step run peaks near a single isolated step.  The reference
        # step is a second one, so its peak holds what the run's does beside
        # the graph: parameters, gradients and Adam moments.
        config = ModelConfig(input_size=(32, 32))
        samples = generate_synthetic(10, size=(32, 32), seed=7)
        cfg = tr.TrainConfig(batch_size=4, max_epochs=1, seed=0)

        x = np.stack([s.image for s in samples[:4]])
        y = np.stack([s.mask for s in samples[:4]])
        tracemalloc.start()
        try:
            params = build_model(config)
            state = tr.TrainState(lr=cfg.lr0, rng=np.random.default_rng(0))
            for _ in range(2):
                tracemalloc.reset_peak()
                trace = model_forward(Tensor(x), params, mode="train", rng=state.rng)
                batch_loss = tr.loss(trace.f_out, y)
                backward(batch_loss)
                tr.adam_step(params.store, state, state.lr)
                del trace, batch_loss
            step_peak = tracemalloc.get_traced_memory()[1]
            del params, state
            tracemalloc.reset_peak()
            tr.train(build_model(config), samples[:8], samples[8:], cfg)
            run_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run_peak <= 1.2 * step_peak, (run_peak / 2**20, step_peak / 2**20)

    def test_sweep_peaks_at_forward_graph(self):
        # backward() releases the forward values no closure reads before its
        # sweep, so the gradients reuse their memory.
        config = ModelConfig(input_size=(32, 32))
        samples = generate_synthetic(4, size=(32, 32), seed=7)
        params = build_model(config)
        x = np.stack([s.image for s in samples])
        y = np.stack([s.mask for s in samples])
        tracemalloc.start()
        try:
            trace = model_forward(Tensor(x), params, mode="train", rng=np.random.default_rng(0))
            batch_loss = tr.loss(trace.f_out, y)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(batch_loss)
            sweep_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweep_peak <= 1.05 * live, (sweep_peak / 2**20, live / 2**20)

    @pytest.mark.skipif(not libc_has_mallopt(), reason="libc has no mallopt")
    def test_heap_kept_between_steps(self):
        # The engine fixes glibc's trim and mmap thresholds at import, so a
        # step reuses the heap the previous step freed instead of faulting it
        # back in (5,700-9,800 faults a step and 4,900-5,900 an eval batch
        # without).
        env = {k: v for k, v in os.environ.items()
               if k not in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")}
        env["PYTHONPATH"] = str(Path(tr.__file__).parent.parent)
        out = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env, capture_output=True,
                             text=True, timeout=300, check=True).stdout
        counts = [int(c) for c in out.split()]
        # Medians of three: now and then a single step takes a few hundred
        # faults more.
        steps, batches = sorted(counts[:3]), sorted(counts[3:])
        assert steps[1] < 500 and batches[1] < 500, counts

    def test_empty_sets_rejected(self):
        params = build_model(tiny_config())
        with pytest.raises(UsageError):
            tr.train(params, [], [], tr.TrainConfig())

    def test_loss_trend_property(self):
        # overfitting four samples: the 20th step's loss beats the first in
        # at least 9 of 10 seeded trials
        samples = generate_synthetic(4, size=(16, 16), seed=5)
        images = np.stack([s.image for s in samples])
        masks = np.stack([s.mask for s in samples])
        wins = 0
        for seed in range(10):
            params = build_model(tiny_config(seed=seed))
            state = tr.TrainState(lr=0.001, rng=np.random.default_rng(seed))
            losses = []
            from fmbff.engine import backward
            from fmbff.model import model_forward
            for _ in range(20):
                trace = model_forward(Tensor(images), params, mode="train",
                                      rng=state.rng)
                batch_loss = tr.loss(trace.f_out, masks)
                losses.append(batch_loss.item())
                backward(batch_loss)
                tr.adam_step(params.store, state, state.lr)
            if losses[19] < losses[0]:
                wins += 1
        assert wins >= 9, f"loss decreased in only {wins}/10 trials"

    def test_history_csv_format(self):
        _, _, history = _tiny_run(epochs=1)
        text = tr.history_csv(history)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,loss,lr,val_dice"
        assert lines[1].startswith("1,")


def _seal(body):
    """A checkpoint blob from its bytes before the CRC, with a valid CRC."""
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)


def _predict_error(tmp_path, capsys, ckpt):
    """Run `predict` on a probe image with ``ckpt``, expect exit 3 and one
    `error:` line without a traceback, and return that line."""
    image = tmp_path / "probe.ppm"
    write_image(image, generate_synthetic(1, size=(16, 16), seed=1)[0].image)
    capsys.readouterr()
    assert cli.main(["predict", "--image", str(image), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "pred")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


# One entry replaced by a value of the wrong shape, or by a value that is not
# a whole number where the reader needs one; the CRC stays valid.
MALFORMED_ENTRIES = [
    ("config/input_h", np.array(np.nan)),
    ("config/encoder_widths", np.array(4.0)),
    ("config/heads", np.array(2.5)),
    ("config/skip_mode", np.array(2.0)),
    ("bnstat/enc1.bn1/count", np.array(np.nan)),
    ("bnstat/enc1.bn1/mean", np.zeros(1)),
    ("param/head.w", np.zeros((1, 3, 1, 1), dtype=np.float32)),
    ("state/epoch", np.array(np.inf)),
    ("state/rng", np.full(6, 1e300)),
    ("adam/m/head.w", np.zeros((2,), dtype=np.float32)),
]

# An entry the reader never reads, beside well-formed ones: (entry added,
# entry removed, the entry left unread).
UNREAD_ENTRIES = [
    ("param/bogus", None, "param/bogus"),
    (None, "state/lr", "state/epoch"),  # training state without its lr
    (None, "adam/m/head.w", "adam/v/head.w"),  # a second moment without its first
]

# One value of a well-shaped entry replaced by one the model cannot use.
BAD_VALUES = [
    ("param/head.w", np.nan),
    ("param/enc1.conv1.w", -np.inf),
    ("bnstat/enc1.bn1/mean", np.nan),
    ("bnstat/enc1.bn1/var", np.inf),
    ("bnstat/enc1.bn1/var", -1.0),
    ("adam/m/head.w", np.nan),
    ("adam/v/head.w", -1.0),
    ("bnstat/enc1.bn1/count", -3.0),
    ("state/epoch", -1.0),
    ("state/since_best", -1.0),
    ("state/since_plateau", -1.0),
    ("state/reductions", -1.0),
    ("state/adam_t", -1.0),
    ("state/lr", np.nan),
    ("state/lr", -5.0),
    ("state/lr", np.inf),
    ("state/best", np.nan),
    ("state/best", 7.0),
]

# One config entry replaced by a well-formed value that breaks a model rule.
INVALID_CONFIGS = [
    ("config/heads", np.array(3.0)),  # does not divide the bottleneck width 4
    ("config/heads", np.array(0.0)),
    ("config/input_h", np.array(17.0)),
    ("config/encoder_widths", np.array([4.0, 4.0, 4.0, 5.0])),
    ("config/seed", np.array(-1.0)),
    ("config/p_exponent", np.array(0.0)),
]


class TestCheckpoint:
    def _trained(self, tmp_path):
        params, state, _ = _tiny_run(epochs=1, n_train=4, n_val=2)
        path = tmp_path / "ckpt.fmbf"
        tr.save_checkpoint(path, params, state)
        return params, state, path

    def test_roundtrip_bitwise(self, tmp_path):
        params, state, path = self._trained(tmp_path)
        loaded_params, loaded_state = tr.load_checkpoint(path)
        for name, t in params.store.items():
            np.testing.assert_array_equal(t.data, loaded_params.store[name].data)
        for name, st in params.bn_states.items():
            lst = loaded_params.bn_states[name]
            np.testing.assert_array_equal(st.running_mean, lst.running_mean)
            np.testing.assert_array_equal(st.running_var, lst.running_var)
            assert st.count == lst.count
        assert loaded_state.lr == state.lr
        assert loaded_state.adam_t == state.adam_t
        for name in state.adam_m:
            np.testing.assert_array_equal(state.adam_m[name], loaded_state.adam_m[name])
            np.testing.assert_array_equal(state.adam_v[name], loaded_state.adam_v[name])
        assert loaded_state.rng.bit_generator.state == state.rng.bit_generator.state

    def test_save_load_save_identical(self, tmp_path):
        _, _, path = self._trained(tmp_path)
        loaded_params, loaded_state = tr.load_checkpoint(path)
        path2 = tmp_path / "again.fmbf"
        tr.save_checkpoint(path2, loaded_params, loaded_state)
        assert path.read_bytes() == path2.read_bytes()

    def test_config_roundtrip(self, tmp_path):
        params = build_model(tiny_config())
        path = tmp_path / "c.fmbf"
        tr.save_checkpoint(path, params)
        loaded_params, loaded_state = tr.load_checkpoint(path)
        assert loaded_params.config == params.config
        assert loaded_state is None

    def test_registry_and_bytes_pinned(self, tmp_path):
        # Parameter names, shapes and order fix the init draws and the
        # checkpoint layout; these values must not drift across refactors.
        params = build_model(tiny_config())
        listing = "".join(f"{name} {t.shape}\n" for name, t in params.store.items())
        assert len(params.store.names()) == 247
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "417e9dd94a6b563d840dc66ef1d41e7dd75202c5f041121ed97d8b9ae1e4834f")
        assert list(params.bn_states) == [
            f"enc{i}.bn{j}" for i in range(1, 5) for j in (1, 2)
        ] + [f"dec{i}.frm_{kind}.bn" for i in range(1, 5) for kind in ("up", "fuse")]
        path = tmp_path / "c.fmbf"
        tr.save_checkpoint(path, params)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "7c1a9b965c2679ee9776f942bc990dde7e14ea8d43ceab80436d5db74967925b")

    def test_corrupt_payload_byte(self, tmp_path):
        _, _, path = self._trained(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum") as exc:
            tr.read_checkpoint_entries(path)
        assert exc.value.offset == len(blob) - 4  # the stored CRC

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fmbf"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic") as exc:
            tr.read_checkpoint_entries(path)
        assert exc.value.offset == 0

    def test_bad_version(self, tmp_path):
        _, _, good = self._trained(tmp_path)
        blob = bytearray(good.read_bytes())
        blob[4] = 99  # version field
        # re-seal the checksum so only the version is wrong
        import struct
        import zlib
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
        bad = tmp_path / "v.fmbf"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version") as exc:
            tr.read_checkpoint_entries(bad)
        assert exc.value.offset == 4

    def test_entry_writer_matches_format(self, tmp_path):
        # the writer is the reader's inverse, state and Adam entries included
        _, _, path = self._trained(tmp_path)
        again = tmp_path / "again.fmbf"
        tr.write_checkpoint_entries(again, tr.read_checkpoint_entries(path))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "missing", ["config/heads", "param/head.w", "bnstat/enc1.bn1/mean", "state/rng"]
    )
    def test_missing_required_entry(self, tmp_path, missing):
        _, _, path = self._trained(tmp_path)
        entries = tr.read_checkpoint_entries(path)
        del entries[missing]
        tr.write_checkpoint_entries(path, entries)
        with pytest.raises(FormatError, match=f"missing checkpoint entry '{missing}'"):
            tr.load_checkpoint(path)

    @pytest.mark.parametrize("name,value", MALFORMED_ENTRIES,
                             ids=[name for name, _ in MALFORMED_ENTRIES])
    def test_malformed_entry_exits_3(self, tmp_path, capsys, name, value):
        _, _, path = self._trained(tmp_path)
        entries = tr.read_checkpoint_entries(path)
        entries[name] = value
        tr.write_checkpoint_entries(path, entries)
        with pytest.raises(FormatError, match=f"checkpoint entry '{name}'"):
            tr.load_checkpoint(path)
        assert name in _predict_error(tmp_path, capsys, path)

    @pytest.mark.parametrize("added,removed,unread", UNREAD_ENTRIES,
                             ids=["stray_param", "state_without_lr", "adam_v_without_m"])
    def test_unread_entry_exits_3(self, tmp_path, capsys, added, removed, unread):
        _, _, path = self._trained(tmp_path)
        entries = tr.read_checkpoint_entries(path)
        if added:
            entries[added] = np.zeros(1, dtype=np.float32)
        if removed:
            del entries[removed]
        tr.write_checkpoint_entries(path, entries)
        err = _predict_error(tmp_path, capsys, path)
        assert f"unexpected checkpoint entry '{unread}'" in err, err

    @pytest.mark.parametrize("name,value", BAD_VALUES,
                             ids=[f"{name}={value}" for name, value in BAD_VALUES])
    def test_bad_value_exits_3(self, tmp_path, capsys, name, value):
        _, _, path = self._trained(tmp_path)
        entries = tr.read_checkpoint_entries(path)
        entries[name].flat[0] = value
        tr.write_checkpoint_entries(path, entries)
        assert f"checkpoint entry '{name}' holds" in _predict_error(tmp_path, capsys, path)
        assert not (tmp_path / "pred" / "probe_prob.npy").exists()

    def test_untrained_checkpoint_exits_2(self, tmp_path, capsys):
        # a batch-norm count of 0 is well formed: eval mode then has no
        # running statistics to use, a usage error (exit 2), not a bad file
        path = tmp_path / "untrained.fmbf"
        tr.save_checkpoint(path, build_model(tiny_config()))
        image = tmp_path / "probe.ppm"
        write_image(image, generate_synthetic(1, size=(16, 16), seed=1)[0].image)
        capsys.readouterr()
        assert cli.main(["predict", "--image", str(image), "--ckpt", str(path),
                         "--out", str(tmp_path / "pred")]) == 2
        assert "before any training batch" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", INVALID_CONFIGS,
                             ids=[f"{n}={v.ravel()[-1]:g}" for n, v in INVALID_CONFIGS])
    def test_invalid_stored_config_exits_3(self, tmp_path, capsys, name, value):
        # the config parses, but the model it describes breaks a rule of
        # ModelConfig.validate: a bad file (exit 3), not a bad option (exit 2)
        _, _, path = self._trained(tmp_path)
        entries = tr.read_checkpoint_entries(path)
        entries[name] = value
        tr.write_checkpoint_entries(path, entries)
        err = _predict_error(tmp_path, capsys, path)
        assert str(path) in err and "stored model config" in err, err

    def test_rank_above_four_exits_3(self, tmp_path, capsys):
        # NumPy cannot build an array of rank 65; the format allows up to 255
        _, _, path = self._trained(tmp_path)
        body = bytearray(path.read_bytes()[:-4])
        count = struct.unpack_from("<I", body, 6)[0]
        struct.pack_into("<I", body, 6, count + 1)
        rank_at = len(body) + 2 + len(b"extra") + 1
        body += struct.pack("<H", 5) + b"extra" + struct.pack("<BB", 1, 65)
        body += struct.pack("<65I", *(1,) * 65) + np.zeros(1).tobytes()
        path.write_bytes(_seal(body))
        err = _predict_error(tmp_path, capsys, path)
        assert "'extra' has rank 65" in err and f"(byte offset {rank_at})" in err, err

    def test_unknown_dtype_tag_exits_3(self, tmp_path, capsys):
        _, _, path = self._trained(tmp_path)
        body = bytearray(path.read_bytes()[:-4])
        (nlen,) = struct.unpack_from("<H", body, 10)
        tag_at = 10 + 2 + nlen  # the first entry's dtype tag
        body[tag_at] = 7
        path.write_bytes(_seal(body))
        err = _predict_error(tmp_path, capsys, path)
        assert "unknown dtype tag 7" in err and f"(byte offset {tag_at})" in err, err

    def test_largest_seed_round_trips(self, tmp_path):
        # 2**53 is the largest seed the float64 config entry holds exactly
        params = build_model(tiny_config(seed=2**53))
        path = tmp_path / "c.fmbf"
        tr.save_checkpoint(path, params)
        loaded, _ = tr.load_checkpoint(path)
        assert loaded.config.seed == 2**53

    def test_stray_bytes_before_crc(self, tmp_path):
        _, _, path = self._trained(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(_seal(blob[:-4] + b"\x00\x01\x02"))
        with pytest.raises(FormatError, match=rf"3 stray bytes .*byte offset {len(blob) - 4}\)"):
            tr.read_checkpoint_entries(path)

    def test_shape_past_int64_reads_as_truncated(self, tmp_path):
        # 65536**4 elements: the product wraps to 0 in int64
        path = tmp_path / "huge.fmbf"
        entry = struct.pack("<H", 1) + b"x" + struct.pack("<BB4I", 1, 4, *(65536,) * 4)
        path.write_bytes(_seal(b"FMBF" + struct.pack("<HI", 1, 1) + entry))
        with pytest.raises(ParseError, match="truncated"):
            tr.read_checkpoint_entries(path)

    def test_truncated_reports_offset(self, tmp_path):
        path = tmp_path / "short.fmbf"
        path.write_bytes(b"FMBF\x01\x00")
        with pytest.raises(ParseError) as exc:
            tr.read_checkpoint_entries(path)
        assert exc.value.offset == 6
