"""Acceptance gate: one pass/fail line per criterion.

Each criterion records a `[criterion N] PASS ...` (or FAIL) line, echoed in
the terminal summary (see conftest), then asserts.  Criterion 6 re-runs the
frozen desk-scale regressions and takes a few minutes; everything else is
seconds.
"""

import importlib
import time
from pathlib import Path

import numpy as np
import pytest

from fmbff import cli, data, gradcheck, metrics
from fmbff.blocks import (
    BiffmParams,
    FmcabParams,
    FrmParams,
    VitmParams,
    biffm_forward,
    focal_modulation,
    frm_forward,
    gsa_forward,
    tsa_forward,
    vitm_forward,
)
from fmbff.engine import ParamStore, Tensor, channel_shuffle, conv2d
from fmbff.model import ModelConfig, build_model, model_forward

tr = importlib.import_module("fmbff.train")


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradients(acceptance_report):
    report = acceptance_report
    t0 = time.time()
    worst_lines = []
    ok = True
    for block in gradcheck.BLOCK_NAMES:
        errors, tolerance = gradcheck.run_suite(block)
        worst = max(err for _, err in errors)
        worst_lines.append(f"{block} {worst:.2e}<={tolerance:.0e}")
        ok = ok and worst <= tolerance
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    report(1, ok, f"gradcheck {'; '.join(worst_lines)}; {elapsed:.0f}s < 120s")


# ---------------------------------------------------------------------------
# 2. equation-fidelity special cases


def test_criterion_2_equation_fidelity(acceptance_report):
    report = acceptance_report
    checks = []

    # constant input: gap == gmp, descriptor is zero, zero-bias gate sigmoids
    # to exactly 0.5, so FM output is gamma^p * 0.5 * i2
    store = ParamStore(rng_seed=0)
    fm = FmcabParams.build(store, "fm", channels=4)
    i2 = Tensor(np.full((1, 4, 5, 5), 0.7, dtype=np.float32))
    out = focal_modulation(i2, fm)
    checks.append(("FM constant-input gate 0.5",
                   float(np.abs(out.data - 0.5 * 0.7).max()) <= 1e-6))

    # zero-init fuse projection: the ViTM block reduces to the residual
    store = ParamStore(rng_seed=1)
    vp = VitmParams.build(store, "v", channels=4, spatial_hw=16, heads=2)
    store["v.fuse_1x1.w"].data[:] = 0.0
    x = Tensor(np.random.default_rng(0).random((1, 4, 4, 4)).astype(np.float32))
    out = vitm_forward(x, vp)
    checks.append(("zero fuse_1x1 => ViTM identity",
                   float(np.abs(out.data - x.data).max()) <= 1e-6))

    # FRM shape table: upsample doubles extents, output width = cout + cin
    store = ParamStore(rng_seed=2)
    fr_up = FrmParams.build(store, "fu", cin=8, cout=16, upsample=True)
    fr_keep = FrmParams.build(store, "fk", cin=8, cout=16, upsample=False)
    x = Tensor(np.random.default_rng(1).random((2, 8, 4, 4)).astype(np.float32))
    rng = np.random.default_rng(0)
    up = frm_forward(x, fr_up, mode="train", rng=rng)
    keep = frm_forward(x, fr_keep, mode="train", rng=rng)
    checks.append(("FRM shape table",
                   up.shape == (2, 24, 8, 8) and keep.shape == (2, 24, 4, 4)))

    # identity Q/K/V projections, zero positional table, constant input:
    # every channel-similarity row is uniform 1/c
    store = ParamStore(rng_seed=3)
    vp = VitmParams.build(store, "t", channels=4, spatial_hw=9, heads=1)
    eye = np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1)
    for wt in (store["t.wq.w"], store["t.wk.w"], store["t.wv.w"]):
        wt.data = eye.copy()
    vp.pos_embed.data = np.zeros((9, 4), dtype=np.float32)
    x = Tensor(np.full((1, 4, 3, 3), 0.3, dtype=np.float32))
    _, attn = tsa_forward(x, vp, return_attn=True)
    checks.append(("TSA identity-weight uniform attention",
                   float(np.abs(attn.data - 0.25).max()) <= 1e-6))

    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    report(2, ok, "special cases: " + (", ".join(n for n, _ in checks)
                                       if ok else f"failed {failed}"))


# ---------------------------------------------------------------------------
# 3. oracle equivalence


def naive_conv2d(x, w, b, stride=1, pad=0):
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    acc = b[co]
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[ni, ci, oi * stride + ki, oj * stride + kj]
                                    * w[co, ci, ki, kj]
                                )
                    out[ni, co, oi, oj] = acc
    return out


def brute_force_metrics(pred, gt):
    tp = fp = fn = tn = 0
    for p, g in zip(pred.ravel(), gt.ravel()):
        if p and g:
            tp += 1
        elif p:
            fp += 1
        elif g:
            fn += 1
        else:
            tn += 1

    def ratio(n, d):
        return n / d if d else 1.0

    return {
        "acc": ratio(tp + tn, tp + tn + fp + fn),
        "sn": ratio(tp, tp + fn),
        "sp": ratio(tn, tn + fp),
        "j": ratio(tp, tp + fp + fn),
        "d": ratio(2 * tp, 2 * tp + fp + fn),
    }


def test_criterion_3_oracles(acceptance_report):
    report = acceptance_report
    rng = np.random.default_rng(0)
    conv_ok = True
    for stride, pad in ((1, 0), (1, 1), (2, 1)):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad).data
        want = naive_conv2d(x, w, b, stride=stride, pad=pad)
        # 32-bit forward vs 64-bit loop oracle: relative tolerance 1e-6
        err = float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))
        conv_ok = conv_ok and err <= 1e-6

    metric_ok = True
    for _ in range(1000):
        pred = rng.random((4, 4)) > rng.random()
        gt = rng.random((4, 4)) > rng.random()
        c = metrics.confusion(
            pred.astype(float)[None, None], gt.astype(float)[None, None]
        )[0]
        metric_ok = metric_ok and metrics.metrics_from(c) == brute_force_metrics(pred, gt)

    identity_ok = True
    for _ in range(500):
        tp, fp, fn = (int(v) for v in rng.integers(1, 60, size=3))
        vals = metrics.metrics_from(metrics.Confusion(tp=tp, tn=0, fp=fp, fn=fn))
        identity_ok = identity_ok and abs(
            vals["d"] - 2 * vals["j"] / (1 + vals["j"])
        ) <= 1e-12

    ok = conv_ok and metric_ok and identity_ok
    report(3, ok, f"conv vs naive {conv_ok}; metrics brute-force x1000 {metric_ok}; "
                  f"D==2J/(1+J) {identity_ok}")


# ---------------------------------------------------------------------------
# 4. shape and normalization invariants


def test_criterion_4_invariants(acceptance_report):
    report = acceptance_report
    shapes_ok = True
    for size in (16, 32, 64, 128):
        config = ModelConfig(
            input_size=(size, size), encoder_widths=(4, 4, 4, 4),
            decoder_widths=(2, 2, 2, 2), heads=2, shuffle_groups=2, seed=0,
        )
        params = build_model(config)
        x = Tensor(np.random.default_rng(size).random((1, 3, size, size)).astype(np.float32))
        trace = model_forward(x, params, mode="train", rng=np.random.default_rng(0))
        shapes_ok = shapes_ok and trace.f_out.shape == (1, 1, size, size)

    store = ParamStore(rng_seed=4)
    vp = VitmParams.build(store, "v", channels=4, spatial_hw=16, heads=2)
    x = Tensor(np.random.default_rng(2).random((2, 4, 4, 4)).astype(np.float32))
    _, tsa_attn = tsa_forward(x, vp, return_attn=True)
    _, gsa_attn = gsa_forward(x, vp, return_attn=True)
    rows_ok = (
        float(np.abs(tsa_attn.data.sum(axis=-1) - 1).max()) <= 1e-6
        and float(np.abs(gsa_attn.data.sum(axis=-1) - 1).max()) <= 1e-6
    )

    bp = BiffmParams.build(store, "b", cd=4, cs=6, width=4, shuffle_groups=4)
    d = Tensor(np.random.default_rng(3).random((1, 4, 8, 8)).astype(np.float32))
    s = Tensor(np.random.default_rng(4).random((1, 6, 4, 4)).astype(np.float32))
    _, (g1, g2) = biffm_forward(d, s, bp, return_gates=True)
    gates_ok = all(
        float(g.data.min()) > 0 and float(g.data.max()) < 1 for g in (g1, g2)
    )

    probe = np.arange(12, dtype=np.float32).reshape(1, 12, 1, 1)
    shuffled = channel_shuffle(Tensor(probe), 4).data
    shuffle_ok = sorted(shuffled.ravel().tolist()) == probe.ravel().tolist()

    ok = shapes_ok and rows_ok and gates_ok and shuffle_ok
    report(4, ok, f"f_out extents {shapes_ok}; attention rows {rows_ok}; "
                  f"gates in (0,1) {gates_ok}; shuffle bijective {shuffle_ok}")


# ---------------------------------------------------------------------------
# 5. protocol fidelity


def test_criterion_5_protocol(acceptance_report):
    report = acceptance_report
    cfg = tr.TrainConfig()
    state = tr.TrainState(lr=cfg.lr0)
    tr.plateau_step(state, cfg, 0.5)
    lrs = [tr.plateau_step(state, cfg, 0.5) for _ in range(7)]
    plateau_ok = lrs[:6] == [0.001] * 6 and abs(lrs[6] - 0.00075) < 1e-12

    state = tr.TrainState(lr=cfg.lr0)
    tr.plateau_step(state, cfg, 0.5)
    stops = []
    for _ in range(10):
        stops.append(tr.early_stop(state, cfg))
        tr.plateau_step(state, cfg, 0.5)
    early_ok = not any(stops) and tr.early_stop(state, cfg)

    sample = data.generate_synthetic(1, size=(16, 16), seed=0)[0]
    expanded = data.expand_augmentations(sample)
    augment_ok = len(expanded) == 36 and len({e.id for e in expanded}) == 36

    ids = [f"s{i}" for i in range(103)]
    folds = data.kfold(ids, k=5)
    sizes = sorted(len(f) for f in folds)
    kfold_ok = sizes == [20, 20, 21, 21, 21] and sorted(
        i for f in folds for i in f
    ) == sorted(ids)

    ok = plateau_ok and early_ok and augment_ok and kfold_ok
    report(5, ok, f"plateau 25% after 7 {plateau_ok}; early stop 10 {early_ok}; "
                  f"augment 12x3 {augment_ok}; 5-fold exact {kfold_ok}")


# ---------------------------------------------------------------------------
# 6. desk-scale learning regression (frozen bounds)


def test_criterion_6a_overfit(acceptance_report):
    report = acceptance_report
    samples = data.generate_synthetic(8, size=(64, 64), seed=3)
    config = ModelConfig(encoder_widths=(8, 16, 32, 64), decoder_widths=(16, 8, 8, 8), seed=0)
    params = build_model(config)
    train_config = tr.TrainConfig(batch_size=4, max_epochs=100,
                                  early_stop_patience=100, seed=0)
    t0 = time.time()
    params, state, history = tr.train(params, samples, samples, train_config,
                                      stop_at_metric=0.95)
    elapsed = time.time() - t0
    best = max(row["val_dice"] for row in history)
    ok = best >= 0.95 and state.adam_t <= 200 and elapsed < 300
    report(6, ok, f"6a overfit dice {best:.4f} >= 0.95 in {state.adam_t} steps "
                  f"(<=200), {elapsed:.0f}s < 300s")


def test_criterion_6b_toy_run(acceptance_report):
    report = acceptance_report
    train_set = data.generate_synthetic(200, size=(32, 32), seed=10)
    val_set = data.generate_synthetic(50, size=(32, 32), seed=11)
    config = ModelConfig(input_size=(32, 32), encoder_widths=(8, 16, 32, 64),
                         decoder_widths=(16, 8, 8, 8), seed=0)
    params = build_model(config)
    train_config = tr.TrainConfig(batch_size=8, max_epochs=30, seed=0)
    t0 = time.time()
    params, state, history = tr.train(params, train_set, val_set, train_config,
                                      stop_at_metric=0.85)
    elapsed = time.time() - t0
    best = max(row["val_dice"] for row in history)
    ok = best >= 0.85 and state.epoch <= 30 and elapsed < 1200
    report(6, ok, f"6b toy run val dice {best:.4f} >= 0.85 at epoch {state.epoch} "
                  f"(<=30), {elapsed:.0f}s < 1200s")


# ---------------------------------------------------------------------------
# 7. determinism


TINY_CONFIG = """\
model.input_size = 16x16
model.encoder_widths = 4,4,4,4
model.decoder_widths = 2,2,2,2
model.heads = 2
model.shuffle_groups = 2
train.max_epochs = 1
train.batch_size = 4
train.seed = 0
"""


def _tree_bytes(root):
    # manifest.json carries a wall-clock timestamp and is excluded on purpose
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_criterion_7_determinism(tmp_path, acceptance_report):
    report = acceptance_report
    trees = {}
    for tag in ("a", "b"):
        ds = tmp_path / tag / "ds"
        run = tmp_path / tag / "run"
        rep = tmp_path / tag / "rep"
        cfg = tmp_path / tag / "cfg.ini"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(TINY_CONFIG)
        assert cli.main(["synth", "--n", "5", "--size", "16x16", "--seed", "1",
                         "--out", str(ds)]) == 0
        assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                         "--out", str(run)]) == 0
        assert cli.main(["eval", "--data", str(ds), "--ckpt", str(run / "ckpt.fmbf"),
                         "--out", str(rep)]) == 0
        trees[tag] = {
            "synth": _tree_bytes(ds),
            "train": _tree_bytes(run),
            "eval": _tree_bytes(rep),
        }
    pipeline_ok = trees["a"] == trees["b"]

    ckpt = tmp_path / "a" / "run" / "ckpt.fmbf"
    params, state = tr.load_checkpoint(ckpt)
    roundtrip = tmp_path / "roundtrip.fmbf"
    tr.save_checkpoint(roundtrip, params, state)
    roundtrip_ok = ckpt.read_bytes() == roundtrip.read_bytes()

    ok = pipeline_ok and roundtrip_ok
    report(7, ok, f"synth/train/eval byte-identical (sans manifest) {pipeline_ok}; "
                  f"checkpoint round-trip bitwise {roundtrip_ok}")
