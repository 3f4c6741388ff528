"""Command-line front end: synth / train / eval / predict / gradcheck.

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 verification failure.  Every artifact-producing command writes a
manifest.json next to its outputs recording the command, seeds, the config
snapshot, and a content hash of any checkpoint involved.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import data, gradcheck, metrics, train as train_mod
from .errors import (
    ConfigurationError,
    DimensionError,
    ParseError,
    StateError,
    TrainingDiverged,
    UsageError,
    ValidationError,
)
from .model import ModelConfig, build_model, predict_probs
from .train import TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# config files: `key = value` lines with dotted keys


def _parse_int_tuple(value, key):
    parts = value.replace("x", ",").split(",")
    try:
        return tuple(int(p.strip()) for p in parts if p.strip())
    except ValueError:
        raise ConfigurationError(f"{key}: expected comma-separated integers, got {value!r}")


def _parse_float_tuple(value, key):
    try:
        return tuple(float(p.strip()) for p in value.split(",") if p.strip())
    except ValueError:
        raise ConfigurationError(f"{key}: expected comma-separated floats, got {value!r}")


def _parse_bool(value, key):
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"{key}: expected a boolean, got {value!r}")


def _parser_for(default):
    """The value parser of a config field, chosen by the type of its default."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return _parse_float_tuple if isinstance(default[0], float) else _parse_int_tuple
    kind = type(default)
    return lambda value, key: kind(value)


# The config dataclasses are the schema: one `section.field` key per field.
_KEY_TABLES = {
    section: {f.name: _parser_for(f.default) for f in dataclasses.fields(cls)}
    for section, cls in (("model", ModelConfig), ("train", TrainConfig))
}


def parse_config_text(text):
    """Parse `key = value` lines into (ModelConfig, TrainConfig)."""
    model_kwargs = {}
    train_kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ConfigurationError(f"line {lineno}: key {key!r} must be dotted")
        section, field = key.split(".", 1)
        table = _KEY_TABLES.get(section, {})
        if field not in table:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        try:
            parsed = table[field](value, key)
        except ConfigurationError:
            raise
        except ValueError:
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {value!r}")
        (model_kwargs if section == "model" else train_kwargs)[field] = parsed
    model_config = ModelConfig(**model_kwargs)
    model_config.validate()
    train_config = TrainConfig(**train_kwargs)
    train_config.validate()
    return model_config, train_config


def load_config(path):
    if path is None:
        return ModelConfig(), TrainConfig()
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text (byte offset {exc.start})") from None
    try:
        return parse_config_text(text)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# manifests


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, command, seed, config, outputs, checkpoint=None):
    manifest = {
        "command": command,
        "seed": seed,
        "config": config,
        "checkpoint_sha256": _sha256(checkpoint) if checkpoint else None,
        "outputs": sorted(outputs),
        "created_unix": time.time(),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# commands


def _make_out_dir(path):
    """Create the ``--out`` directory once a command's inputs are read and
    before its work starts, so a path that cannot be a directory (an
    existing file, say) fails at once rather than after the whole run."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise OSError(f"--out {path}: cannot create directory: {exc.strerror}") from None


@contextlib.contextmanager
def _out_dir_removed_on_failure(path):
    """On any exception, Ctrl-C included, remove the ``--out`` directory if
    the command created it and left it empty; one that existed before, or
    that holds files, is kept."""
    created = path is not None and not os.path.lexists(path)
    try:
        yield
    except BaseException:
        if created:
            with contextlib.suppress(OSError):  # rmdir removes only an empty directory
                os.rmdir(path)
        raise


def cmd_synth(args):
    samples = data.generate_synthetic(args.n, size=tuple(args.size), seed=args.seed)
    outputs = data.write_dataset(args.out, samples)
    write_manifest(args.out, "synth", args.seed,
                   config={"n": args.n, "size": list(args.size)}, outputs=outputs)
    print(f"wrote {len(samples)} samples to {args.out}")
    return EXIT_OK


def cmd_train(args):
    model_config, train_config = load_config(args.config)
    samples = data.load_dataset(args.data)
    train_set, val_set = data.split(samples, seed=train_config.seed)

    params = build_model(model_config)
    _make_out_dir(args.out)
    epoch_start = time.perf_counter()

    def log_epoch(row):
        """One progress line per epoch on stderr; the output files carry no timing."""
        nonlocal epoch_start
        now = time.perf_counter()
        print(f"epoch {row['epoch']}/{train_config.max_epochs}  loss {row['loss']:.4f}  "
              f"val dice {row['val_dice']:.4f}  lr {row['lr']:.3g}  {now - epoch_start:.1f}s",
              file=sys.stderr, flush=True)
        epoch_start = now

    params, state, history = train_mod.train(params, train_set, val_set, train_config,
                                             log_fn=log_epoch)

    ckpt_path = os.path.join(args.out, "ckpt.fmbf")
    train_mod.save_checkpoint(ckpt_path, params, state)
    history_path = os.path.join(args.out, "history.csv")
    with open(history_path, "w") as fh:
        fh.write(train_mod.history_csv(history))
    write_manifest(
        args.out, "train", train_config.seed,
        config={"model": dataclasses.asdict(model_config),
                "train": dataclasses.asdict(train_config)},
        checkpoint=ckpt_path,
        outputs=["ckpt.fmbf", "history.csv"],
    )
    best = max(row["val_dice"] for row in history)
    print(f"trained {len(history)} epochs; best val dice {best:.4f}; wrote {ckpt_path}")
    return EXIT_OK


def cmd_eval(args):
    params, _state = train_mod.load_checkpoint(args.ckpt)
    samples = data.load_dataset(args.data)
    folds = data.kfold([s.id for s in samples], k=args.folds) if args.folds else None
    _make_out_dir(args.out)
    probs = predict_probs(params, [s.image for s in samples], batch_size=8)
    pred_by_id = {s.id: prob for s, prob in zip(samples, probs)}
    gt_by_id = {s.id: s.mask for s in samples}
    report = metrics.evaluate(
        pred_by_id, gt_by_id, folds=folds, include_precision=args.precision
    )
    text = metrics.to_text(report)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(text)
    with open(os.path.join(args.out, "report.csv"), "w") as fh:
        fh.write(metrics.to_csv(report))
    write_manifest(
        args.out, "eval", params.config.seed,
        config={"model": dataclasses.asdict(params.config)},
        checkpoint=args.ckpt,
        outputs=["report.txt", "report.csv"],
    )
    print(text, end="")
    return EXIT_OK


def cmd_predict(args):
    params, _state = train_mod.load_checkpoint(args.ckpt)
    image = data.read_image(args.image)
    _make_out_dir(args.out)
    (prob,) = predict_probs(params, [image], batch_size=1)

    stem = os.path.splitext(os.path.basename(args.image))[0]
    mask_path = os.path.join(args.out, f"{stem}_mask.pgm")
    prob_path = os.path.join(args.out, f"{stem}_prob.npy")
    data.write_mask(mask_path, (prob >= metrics.THRESHOLD).astype(np.float32))
    np.save(prob_path, prob.astype(np.float32))
    write_manifest(
        args.out, "predict", params.config.seed,
        config={"model": dataclasses.asdict(params.config)},
        checkpoint=args.ckpt,
        outputs=[os.path.basename(mask_path), os.path.basename(prob_path)],
    )
    print(f"wrote {mask_path} and {prob_path}")
    return EXIT_OK


def cmd_gradcheck(args):
    blocks = list(gradcheck.BLOCK_NAMES) if args.blocks == "all" else [args.blocks]
    failures = []
    for block in blocks:
        errors, tolerance = gradcheck.run_suite(block)
        worst = max(err for _, err in errors)
        print(f"{block}: max relative error {worst:.3e} (tolerance {tolerance:.0e})")
        for name, err in errors:
            if err > tolerance:
                failures.append((block, name, err))
    if failures:
        for block, name, err in failures:
            print(f"FAIL {block}/{name}: {err:.3e}")
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmbff", description="Segmentation network toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=str, default="64x64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--ckpt", type=str, required=True)
    p.add_argument("--folds", type=int, default=0)
    p.add_argument("--precision", action="store_true")
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="segment one image")
    p.add_argument("--image", type=str, required=True)
    p.add_argument("--ckpt", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument(
        "--blocks",
        choices=("all",) + gradcheck.BLOCK_NAMES,
        default="all",
    )
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _out_dir_removed_on_failure(getattr(args, "out", None)):
            if hasattr(args, "size"):
                args.size = _parse_int_tuple(args.size, "--size")
            return args.fn(args)
    except (ConfigurationError, DimensionError, StateError, UsageError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, ValidationError, OSError) as exc:  # FormatError is a ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
