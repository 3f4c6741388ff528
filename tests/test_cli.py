import dataclasses
import importlib
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from fmbff import cli, data, gradcheck
from fmbff.engine import Tensor, _accumulate, mul
from fmbff.errors import ConfigurationError, TrainingDiverged
from fmbff.model import ModelConfig, build_model, predict_probs
from fmbff.train import TrainConfig

train_mod = importlib.import_module("fmbff.train")

TINY_CONFIG = """\
# desk-scale test configuration
model.input_size = 16x16
model.encoder_widths = 4,4,4,4
model.decoder_widths = 2,2,2,2
model.heads = 2
model.shuffle_groups = 2
train.max_epochs = 1
train.batch_size = 4
train.seed = 0
"""


def tree_bytes(root, exclude=("manifest.json",)):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file() and path.name not in exclude:
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def tiny_checkpoint(tmp_path):
    config = ModelConfig(
        input_size=(16, 16),
        encoder_widths=(4, 4, 4, 4),
        decoder_widths=(2, 2, 2, 2),
        heads=2,
        shuffle_groups=2,
        seed=0,
    )
    params = build_model(config)
    # one train-mode pass to populate batch-norm running stats
    from fmbff.engine import Tensor
    from fmbff.model import model_forward
    x = Tensor(np.random.default_rng(0).random((2, 3, 16, 16)).astype(np.float32))
    model_forward(x, params, mode="train", rng=np.random.default_rng(0))
    path = tmp_path / "tiny.fmbf"
    train_mod.save_checkpoint(path, params)
    return path


class TestConfigParsing:
    def test_round_trip(self):
        model_config, train_config = cli.parse_config_text(TINY_CONFIG)
        assert model_config.input_size == (16, 16)
        assert model_config.encoder_widths == (4, 4, 4, 4)
        assert train_config.max_epochs == 1

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            cli.parse_config_text("model.heads = 2\nmodel.bogus = 1\n")

    def test_undotted_key(self):
        with pytest.raises(ConfigurationError, match="dotted"):
            cli.parse_config_text("heads = 2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            cli.parse_config_text("model.heads = two\n")

    def test_comments_and_blanks_ignored(self):
        model_config, _ = cli.parse_config_text("\n# note\nmodel.heads = 2  # inline\n")
        assert model_config.heads == 2

    @pytest.mark.parametrize("section,cls", [("model", ModelConfig), ("train", TrainConfig)])
    def test_every_field_default_parses_back(self, section, cls):
        for f in dataclasses.fields(cls):
            default = f.default
            text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
            configs = dict(zip(("model", "train"),
                               cli.parse_config_text(f"{section}.{f.name} = {text}\n")))
            parsed = getattr(configs[section], f.name)
            assert parsed == default and type(parsed) is type(default), (f.name, text)

    def test_empty_text_gives_defaults(self):
        model_config, train_config = cli.parse_config_text("")
        assert model_config == ModelConfig()


class TestSynth:
    def test_writes_n_samples(self, tmp_path):
        out = tmp_path / "ds"
        assert cli.main(["synth", "--n", "3", "--size", "16x16", "--out", str(out)]) == 0
        assert len(list((out / "images").glob("*.ppm"))) == 3
        assert len(list((out / "masks").glob("*.pgm"))) == 3

    def test_deterministic_excluding_manifest(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = cli.main(
                ["synth", "--n", "4", "--size", "16x16", "--seed", "9", "--out", str(out)]
            )
            assert code == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_manifest_records_seed(self, tmp_path):
        out = tmp_path / "ds"
        cli.main(["synth", "--n", "1", "--size", "16x16", "--seed", "42", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["command"] == "synth"

    def test_manifest_lists_every_output(self, tmp_path):
        out = tmp_path / "ds"
        cli.main(["synth", "--n", "6", "--size", "16x16", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        assert manifest["outputs"] == written
        assert len(written) == 13 and "manifest.txt" in written

    def test_bad_size_exits_2(self, tmp_path, capsys):
        # 1x1 is well formed, but no sample that small has a usable foreground
        for size in ("abc", "8", "8x8x8", "0x0", "1x1"):
            capsys.readouterr()
            out = str(tmp_path / size)
            assert cli.main(["synth", "--n", "1", "--size", size, "--out", out]) == 2, size
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err
        assert "size 1x1" in err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert cli.main(["synth", "--n", "1", "--size", "16x16", "--seed", "-1",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "seed" in err and "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_trains_and_writes_artifacts(self, tmp_path):
        ds = tmp_path / "ds"
        cli.main(["synth", "--n", "5", "--size", "16x16", "--out", str(ds)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG)
        run = tmp_path / "run"
        assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                         "--out", str(run)]) == 0
        assert (run / "ckpt.fmbf").exists()
        history = (run / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,lr,val_dice"
        assert len(history) == 2  # header + 1 epoch
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["checkpoint_sha256"] is not None

    def test_progress_line_per_epoch_on_stderr(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        cli.main(["synth", "--n", "5", "--size", "16x16", "--out", str(ds)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG + "train.max_epochs = 3\n")
        run = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                         "--out", str(run)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("trained 3 epochs; best val dice ") and out.count("\n") == 1, out
        rows = [line.split(",") for line in (run / "history.csv").read_text().splitlines()[1:]]
        lines = err.splitlines()
        assert len(lines) == len(rows) == 3, err
        for line, (epoch, loss, lr, dice) in zip(lines, rows):
            fields = line.split("  ")
            assert fields[0] == f"epoch {epoch}/3" and fields[3] == f"lr {float(lr):.3g}", line
            assert fields[1].startswith("loss ") and fields[2].startswith("val dice "), line
            assert abs(float(fields[1][5:]) - float(loss)) <= 5.1e-5, line
            assert abs(float(fields[2][9:]) - float(dice)) <= 5.1e-5, line
            assert fields[4].endswith("s") and float(fields[4][:-1]) >= 0, line

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        cli.main(["synth", "--n", "5", "--size", "16x16", "--out", str(ds)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("train.nope = 1\n")
        capsys.readouterr()
        assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: line 1: unknown key 'train.nope'\n", err

    def test_missing_dataset_exits_3(self, tmp_path):
        assert cli.main(["train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "run")]) == 3

    @pytest.mark.parametrize("line", [
        "train.max_epochs = 0",
        "train.max_epochs = -2",
        "train.batch_size = 0",
        "train.batch_size = -4",
        "train.loss_weights = 1.0",
        "train.loss_weights = 1.0, 1.0, 1.0",
        "train.loss_weights = 1.0, -0.5",
        "train.loss_weights = nan, 1.0",
        "train.loss_weights = 1.0, inf",
        "train.lr0 = 0",
        "train.lr0 = -0.001",
        "train.lr0 = nan",
        "model.heads = 0",
        "model.heads = -2",
        "model.shuffle_groups = 0",
        "model.fmcab_reduction = 0",
        "model.input_size = 64",
        "model.input_size = 32x32x32",
        "model.input_size = 0x0",
        "model.input_size = -16x-16",
        "model.p_exponent = nan",
        "model.p_exponent = inf",
        "model.p_exponent = 0",
        "model.p_exponent = -1",
        "model.heads = 3",
        "model.shuffle_groups = 3",
        "train.seed = -1",
        "model.seed = -3",
        "train.seed = 9007199254740993",  # 2**53 + 1 reads back from float64 as 2**53
        "model.seed = 9007199254740993",
    ])
    def test_invalid_train_value_exits_2(self, tmp_path, capsys, line):
        ds = tmp_path / "ds"
        cli.main(["synth", "--n", "5", "--size", "16x16", "--out", str(ds)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG + line + "\n")
        capsys.readouterr()
        assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_augmented_training_reproducible(self, tmp_path):
        ds = tmp_path / "ds"
        cli.main(["synth", "--n", "3", "--size", "16x16", "--out", str(ds)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG + "train.augment = true\n")
        ckpts = []
        for run in (tmp_path / "a", tmp_path / "b"):
            assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                             "--out", str(run)]) == 0
            ckpts.append(run / "ckpt.fmbf")
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()
        # 2 training samples x 36 variants in batches of 4
        assert train_mod.load_checkpoint(ckpts[0])[1].adam_t == 18

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mask_extent_mismatch_names_sample_exits_3(self, tmp_path, capsys, command):
        ds = tmp_path / "ds"
        data.write_dataset(ds, data.generate_synthetic(3, size=(16, 16), seed=3))
        data.write_mask(ds / "masks" / "synth0001_mask.pgm", np.zeros((1, 8, 8), np.float32))
        args = ["--ckpt", str(tiny_checkpoint(tmp_path))] if command == "eval" else []
        capsys.readouterr()
        assert cli.main([command, "--data", str(ds), *args,
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'synth0001'" in err and "extents differ" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_dataset_names_directory_exits_3(self, tmp_path, capsys, command):
        ds = tmp_path / "ds"
        data.write_dataset(ds, data.generate_synthetic(3, size=(16, 16), seed=3))
        (ds / "manifest.txt").write_text("")
        args = ["--ckpt", str(tiny_checkpoint(tmp_path))] if command == "eval" else []
        capsys.readouterr()
        assert cli.main([command, "--data", str(ds), *args,
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(ds) in err and "Traceback" not in err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        cli.main(["synth", "--n", "5", "--size", "16x16", "--out", str(ds)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(b"model.input_size = 32x32\n\xff\xfe\n")
        capsys.readouterr()
        assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(cfg) in err and "(byte offset 25)" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_not_utf8_exits_3(self, tmp_path, capsys, command):
        ds = tmp_path / "ds"
        data.write_dataset(ds, data.generate_synthetic(3, size=(16, 16), seed=3))
        (ds / "manifest.txt").write_bytes(b"synth0000\n\xe9synth0001\n")
        args = ["--ckpt", str(tiny_checkpoint(tmp_path))] if command == "eval" else []
        capsys.readouterr()
        assert cli.main([command, "--data", str(ds), *args,
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(ds / "manifest.txt") in err and "(byte offset 10)" in err, err
        assert "Traceback" not in err

    def test_absurd_model_size_exits_2(self, tmp_path, capsys):
        # far beyond a 47-bit (128 TiB) address space, so no host can allocate it
        ds = tmp_path / "ds"
        cli.main(["synth", "--n", "5", "--size", "16x16", "--out", str(ds)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG + "model.in_channels = 1000000000000\n")
        capsys.readouterr()
        assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_out_naming_a_file_exits_3_before_the_work(self, tmp_path, capsys, monkeypatch,
                                                       command):
        ds = tmp_path / "ds"
        data.write_dataset(ds, data.generate_synthetic(3, size=(16, 16), seed=3))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG)
        out = ds / "manifest.txt"
        ckpt = ["--ckpt", str(tiny_checkpoint(tmp_path))]
        inputs = {"train": ["--data", str(ds), "--config", str(cfg)],
                  "eval": ["--data", str(ds), *ckpt],
                  "predict": ["--image", str(ds / "images" / "synth0000.ppm"), *ckpt]}

        def work(*args, **kwargs):
            raise AssertionError(f"{command} started its work before checking --out")

        monkeypatch.setattr(train_mod, "train", work)
        monkeypatch.setattr(cli, "predict_probs", work)
        capsys.readouterr()
        assert cli.main([command, *inputs[command], "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: cannot create directory: File exists\n", err

    @pytest.mark.parametrize("existed", [False, True], ids=["new_out", "existing_out"])
    @pytest.mark.parametrize("error", [TrainingDiverged, KeyboardInterrupt])
    def test_failed_run_removes_only_the_empty_out_it_made(self, tmp_path, capsys, monkeypatch,
                                                           error, existed):
        ds = tmp_path / "ds"
        data.write_dataset(ds, data.generate_synthetic(3, size=(16, 16), seed=3))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG)
        run = tmp_path / "run"
        if existed:
            run.mkdir()

        def fail(*args, **kwargs):
            assert run.is_dir()
            raise error("loss became nan at epoch 1, step 1")

        monkeypatch.setattr(train_mod, "train", fail)
        argv = ["train", "--data", str(ds), "--config", str(cfg), "--out", str(run)]
        capsys.readouterr()
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        else:
            assert cli.main(argv) == 4
            assert capsys.readouterr().err == "error: loss became nan at epoch 1, step 1\n"
        assert run.is_dir() == existed

    @pytest.mark.parametrize("line,param", [
        ("model.input_size = 4611686018427387904x16", "vitm.pos_embed"),
        ("model.in_channels = 4611686018427387904", "enc1.conv1.w"),
        ("model.in_channels = 1000000000000", "enc1.conv1.w"),
    ], ids=["input_size", "in_channels", "in_channels_unallocatable"])
    def test_unrepresentable_model_size_exits_2(self, tmp_path, capsys, line, param):
        # 2**62: NumPy rejects the shape before it allocates anything; 10**12
        # input channels need 262 TiB, far beyond any address space
        ds = tmp_path / "ds"
        cli.main(["synth", "--n", "5", "--size", "16x16", "--out", str(ds)])
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(TINY_CONFIG + line + "\n")
        capsys.readouterr()
        assert cli.main(["train", "--data", str(ds), "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: parameter '{param}' of shape (")
        assert err.count("\n") == 1 and "Traceback" not in err, err


class TestEvalPredict:
    def test_predict_extents_match_input(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path)
        sample = data.generate_synthetic(1, size=(16, 16), seed=1)[0]
        img_path = tmp_path / "probe.ppm"
        data.write_image(img_path, sample.image)
        out = tmp_path / "pred"
        assert cli.main(["predict", "--image", str(img_path), "--ckpt", str(ckpt),
                         "--out", str(out)]) == 0
        mask = data.read_mask(out / "probe_mask.pgm")
        prob = np.load(out / "probe_prob.npy")
        assert mask.shape == (1, 16, 16)
        assert prob.shape == (1, 16, 16)
        assert prob.dtype == np.float32
        np.testing.assert_array_equal(mask, (prob >= 0.5).astype(np.float32))

    def test_eval_perfect_oracle(self, tmp_path):
        # ground truth equal to the model's own thresholded output: every
        # metric must report exactly 1.0
        ckpt = tiny_checkpoint(tmp_path)
        samples = data.generate_synthetic(2, size=(16, 16), seed=2)
        params, _ = train_mod.load_checkpoint(ckpt)
        probs = predict_probs(params, [s.image for s in samples], batch_size=8)
        for s, prob in zip(samples, probs):
            s.mask = (prob >= 0.5).astype(np.float32)
        ds = tmp_path / "oracle"
        data.write_dataset(ds, samples)
        out = tmp_path / "report"
        assert cli.main(["eval", "--data", str(ds), "--ckpt", str(ckpt),
                         "--out", str(out)]) == 0
        csv_lines = (out / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "id,acc,sn,sp,j,d"
        for line in csv_lines[1:]:
            values = [float(v) for v in line.split(",")[1:]]
            assert values == [1.0] * 5

    def test_eval_precision_and_folds(self, tmp_path):
        ckpt = tiny_checkpoint(tmp_path)
        samples = data.generate_synthetic(4, size=(16, 16), seed=3)
        ds = tmp_path / "ds"
        data.write_dataset(ds, samples)
        out = tmp_path / "report"
        assert cli.main(["eval", "--data", str(ds), "--ckpt", str(ckpt),
                         "--folds", "2", "--precision", "--out", str(out)]) == 0
        csv_lines = (out / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "id,acc,sn,sp,j,d,pr"
        assert "fold2" in (out / "report.txt").read_text()

    def test_negative_folds_exits_2(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path)
        ds = tmp_path / "ds"
        data.write_dataset(ds, data.generate_synthetic(2, size=(16, 16), seed=3))
        capsys.readouterr()
        assert cli.main(["eval", "--data", str(ds), "--ckpt", str(ckpt),
                         "--folds", "-1", "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "k must be >= 1" in err and "Traceback" not in err

    def test_png_image_exits_3(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path)
        img_path = tmp_path / "probe.png"
        img_path.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(32))
        assert cli.main(["predict", "--image", str(img_path), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "bad magic" in err and "Traceback" not in err

    def test_zero_extent_image_exits_3(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path)
        img_path = tmp_path / "empty.ppm"
        img_path.write_bytes(b"P6 0 0 255 ")
        capsys.readouterr()
        assert cli.main(["predict", "--image", str(img_path), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "width 0" in err and "Traceback" not in err

    def test_absurd_checkpoint_size_exits_3(self, tmp_path, capsys):
        # far beyond a 47-bit (128 TiB) address space, so no host can allocate it
        params, _ = train_mod.load_checkpoint(tiny_checkpoint(tmp_path))
        params.config = dataclasses.replace(params.config, in_channels=10**12)
        ckpt = tmp_path / "huge.fmbf"
        train_mod.save_checkpoint(ckpt, params)
        img_path = tmp_path / "probe.ppm"
        data.write_image(img_path, data.generate_synthetic(1, size=(16, 16), seed=1)[0].image)
        capsys.readouterr()
        assert cli.main(["predict", "--image", str(img_path), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "stored model config is invalid: parameter 'enc1.conv1.w'" in err, err
        assert "Traceback" not in err

    def test_unrepresentable_checkpoint_size_exits_3(self, tmp_path, capsys):
        # 2**62: NumPy rejects the shape before it allocates anything
        params, _ = train_mod.load_checkpoint(tiny_checkpoint(tmp_path))
        params.config = dataclasses.replace(params.config, input_size=(2**62, 16))
        ckpt = tmp_path / "huge.fmbf"
        train_mod.save_checkpoint(ckpt, params)
        img_path = tmp_path / "probe.ppm"
        data.write_image(img_path, data.generate_synthetic(1, size=(16, 16), seed=1)[0].image)
        capsys.readouterr()
        assert cli.main(["predict", "--image", str(img_path), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "stored model config is invalid: parameter 'vitm.pos_embed'" in err, err
        assert "Traceback" not in err

    def test_dataset_without_manifest_missing_mask_exits_3(self, tmp_path, capsys):
        ckpt = tiny_checkpoint(tmp_path)
        ds = tmp_path / "ds"
        data.write_dataset(ds, data.generate_synthetic(2, size=(16, 16), seed=3))
        (ds / "manifest.txt").unlink()
        (ds / "masks" / "synth0001_mask.pgm").unlink()
        capsys.readouterr()
        assert cli.main(["eval", "--data", str(ds), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / "report")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "synth0001_mask.pgm" in err and "Traceback" not in err

    @pytest.mark.parametrize("old,new,problem", [
        (b"config/in_channels", b"config/in_channel\xff", "entry name is not UTF-8"),
        (b"config/input_w", b"config/input_h", "entry name 'config/input_h' is repeated"),
    ], ids=["not_utf8", "repeated"])
    def test_bad_entry_name_exits_3(self, tmp_path, capsys, old, new, problem):
        ckpt = tiny_checkpoint(tmp_path)
        blob = ckpt.read_bytes()
        name_at = blob.index(old)
        body = blob[:-4].replace(old, new)
        ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        img_path = tmp_path / "probe.ppm"
        data.write_image(img_path, data.generate_synthetic(1, size=(16, 16), seed=1)[0].image)
        capsys.readouterr()
        assert cli.main(["predict", "--image", str(img_path), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert problem in err and f"(byte offset {name_at})" in err, err

    def test_corrupt_checkpoint_exits_3(self, tmp_path):
        ckpt = tiny_checkpoint(tmp_path)
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        sample = data.generate_synthetic(1, size=(16, 16), seed=1)[0]
        img_path = tmp_path / "probe.ppm"
        data.write_image(img_path, sample.image)
        assert cli.main(["predict", "--image", str(img_path), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / "pred")]) == 3


class TestGradcheckCommand:
    def test_single_block_filter(self, capsys):
        assert cli.main(["gradcheck", "--blocks", "fmcab"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("fmcab: max relative error")
        assert "biffm" not in printed

    def test_nan_gradient_exits_4(self, capsys, monkeypatch):
        # The NaN enters at the suite's scalar, so every gradient carries it.
        scalarize = gradcheck._scalarize

        def poisoned(out):
            s = scalarize(out)
            return Tensor._from_op(s.data, (s,), lambda g: _accumulate(s, g * np.nan))

        monkeypatch.setattr(gradcheck, "_scalarize", poisoned)
        assert cli.main(["gradcheck", "--blocks", "frm"]) == 4
        printed = capsys.readouterr().out
        assert printed.startswith("frm: max relative error inf")
        assert "FAIL frm/input: inf" in printed

    def test_nan_forward_exits_4(self, capsys, monkeypatch):
        # NaN != NaN, but a NaN forward is deterministic: it must fail the
        # check (every error reads inf), not read as a nondeterministic f
        scalarize = gradcheck._scalarize
        monkeypatch.setattr(gradcheck, "_scalarize", lambda out: mul(scalarize(out), np.nan))
        assert cli.main(["gradcheck", "--blocks", "frm"]) == 4
        printed = capsys.readouterr().out
        assert printed.startswith("frm: max relative error inf")
        assert "FAIL frm/input: inf" in printed
