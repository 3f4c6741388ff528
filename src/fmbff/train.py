"""Loss, Adam, plateau schedule, early stopping, training loop, checkpoints.

Protocol: initial learning rate 0.001, reduced by 25% after 7 consecutive
epochs without validation improvement, early stop after 10, at most 100
epochs.  The monitored quantity is validation Dice (higher is better);
improvement means strictly greater than the best seen so far.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import data, metrics as metrics_mod
from .engine import Tensor, add, backward, clip, log, mean_, mul, pow_, sub, sum_
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    ParseError,
    TrainingDiverged,
    UsageError,
)
from .model import (
    MAX_SEED,
    SKIP_MODES,
    ModelConfig,
    ModelParams,
    build_model,
    model_forward,
    predict_probs,
)

_U64 = (1 << 64) - 1
# Adam's decay rates and denominator offset, and the soft-Dice smoothing.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DICE_SMOOTH = 1.0


@dataclass
class TrainConfig:
    lr0: float = 0.001
    max_epochs: int = 100
    plateau_patience: int = 7
    plateau_factor: float = 0.75
    early_stop_patience: int = 10
    batch_size: int = 8
    loss_weights: tuple = (1.0, 1.0)  # (w_bce, w_dice)
    augment: bool = False
    seed: int = 0

    def validate(self):
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ConfigurationError(f"lr0 must be a finite value > 0, got {self.lr0}")
        if self.max_epochs < 1:
            raise ConfigurationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        weights = self.loss_weights
        if len(weights) != 2 or not all(math.isfinite(v) and v >= 0 for v in weights):
            raise ConfigurationError(
                f"loss_weights must be two finite values >= 0 (w_bce, w_dice), got {weights}"
            )
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigurationError(
                f"plateau_factor must be in (0,1), got {self.plateau_factor}"
            )
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ConfigurationError("patience values must be >= 1")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= MAX_SEED:
            raise ConfigurationError(f"seed must be an integer in 0..2**53, got {self.seed!r}")


@dataclass
class TrainState:
    lr: float
    epoch: int = 0
    best_val_metric: float = -math.inf
    epochs_since_best: int = 0
    epochs_since_plateau: int = 0
    reductions: int = 0
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    adam_t: int = 0
    rng: np.random.Generator = field(default_factory=np.random.default_rng)


# ---------------------------------------------------------------------------
# loss


def loss(pred, gt, w_bce=1.0, w_dice=1.0):
    """Weighted BCE + (1 - soft Dice) on probability maps in (0, 1)."""
    gt_arr = np.asarray(gt, dtype=pred.data.dtype)
    if pred.shape != gt_arr.shape:
        raise DimensionError(f"pred {pred.shape} and gt {gt_arr.shape} differ")
    clamped = clip(pred, 1e-7, 1.0 - 1e-7)
    log_p = log(clamped)
    log_1p = log(sub(1.0, clamped))
    ll = add(mul(gt_arr, log_p), mul(1.0 - gt_arr, log_1p))
    bce = mul(mean_(ll), -1.0)

    intersection = sum_(mul(pred, gt_arr))
    total = add(sum_(pred), float(gt_arr.sum()))
    soft_dice = mul(
        add(mul(intersection, 2.0), DICE_SMOOTH), pow_(add(total, DICE_SMOOTH), -1.0)
    )
    return add(mul(bce, w_bce), mul(sub(1.0, soft_dice), w_dice))


# ---------------------------------------------------------------------------
# optimizer and schedule


def adam_step(store, state: TrainState, lr):
    """One Adam update over every ParamStore entry; clears grads afterwards."""
    for name, p in store.items():
        if p.grad is None:
            raise UsageError(f"adam_step before backward: no grad for {name!r}")
    state.adam_t += 1
    t = state.adam_t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in store.items():
        g = p.grad
        m = state.adam_m.get(name)
        v = state.adam_v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        state.adam_m[name] = m
        state.adam_v[name] = v
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.grad = None


def plateau_step(state: TrainState, cfg: TrainConfig, val_metric):
    """Track the monitored metric; cut lr by the plateau factor on stagnation."""
    if val_metric > state.best_val_metric:
        state.best_val_metric = val_metric
        state.epochs_since_best = 0
        state.epochs_since_plateau = 0
    else:
        state.epochs_since_best += 1
        state.epochs_since_plateau += 1
        if state.epochs_since_plateau >= cfg.plateau_patience:
            state.lr *= cfg.plateau_factor
            state.reductions += 1
            state.epochs_since_plateau = 0
    return state.lr


def early_stop(state: TrainState, cfg: TrainConfig):
    return state.epochs_since_best >= cfg.early_stop_patience


# ---------------------------------------------------------------------------
# training loop


def validation_dice(params, samples, batch_size):
    """Mean per-image Dice of the eval-mode maps, as ``fmbff eval`` reports it."""
    probs = predict_probs(params, [s.image for s in samples], batch_size)
    masks = {i: s.mask for i, s in enumerate(samples)}
    return metrics_mod.evaluate(dict(enumerate(probs)), masks).aggregate["d"][0]


def _train_step(params, state, x, y, cfg, epoch):
    """Forward, loss, backward and Adam update on one batch; returns the loss.

    A function of its own so that the step's graph is freed when it returns,
    before the next step builds another.
    """
    trace = model_forward(Tensor(x), params, mode="train", rng=state.rng)
    w_bce, w_dice = cfg.loss_weights
    batch_loss = loss(trace.f_out, y, w_bce, w_dice)
    value = batch_loss.item()
    if not math.isfinite(value):
        raise TrainingDiverged(
            f"loss became {value} at epoch {epoch}, step {state.adam_t + 1}"
        )
    backward(batch_loss)
    adam_step(params.store, state, state.lr)
    return value


def train(params: ModelParams, train_set, val_set, cfg: TrainConfig,
          stop_at_metric=None, log_fn=None):
    """Epoch loop returning (params restored to the best epoch, the final
    TrainState, history).

    History rows carry epoch, mean train loss, the lr in effect during the
    epoch, and validation Dice.  ``stop_at_metric`` allows regression tests
    to end a run once a target validation Dice is reached.

    With ``cfg.augment`` set, each training sample is first replaced by its
    36 ``data.expand_augmentations`` variants, all built before the first
    step.
    """
    if not train_set or not val_set:
        raise UsageError("train and validation sets must be nonempty")
    cfg.validate()
    if cfg.augment:
        train_set = [v for s in train_set for v in data.expand_augmentations(s)]
    state = TrainState(lr=cfg.lr0, rng=np.random.default_rng(cfg.seed))

    images = [np.asarray(s.image, dtype=np.float32) for s in train_set]
    masks = [np.asarray(s.mask, dtype=np.float32) for s in train_set]

    history = []
    best_entries = None
    for epoch in range(1, cfg.max_epochs + 1):
        order = state.rng.permutation(len(images))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = np.stack([images[i] for i in batch])
            y = np.stack([masks[i] for i in batch])
            epoch_losses.append(_train_step(params, state, x, y, cfg, epoch))

        val_metric = validation_dice(params, val_set, cfg.batch_size)
        lr_used = state.lr
        plateau_step(state, cfg, val_metric)
        if state.epochs_since_best == 0:  # this epoch improved on the best
            best_entries = {name: arr.copy() for name, arr in _model_entries(params)}
        state.epoch = epoch
        row = {
            "epoch": epoch,
            "loss": float(np.mean(epoch_losses)),
            "lr": lr_used,
            "val_dice": val_metric,
        }
        history.append(row)
        if log_fn is not None:
            log_fn(row)
        if stop_at_metric is not None and val_metric >= stop_at_metric:
            break
        if early_stop(state, cfg):
            break

    if best_entries is not None:
        _load_model_entries(params, best_entries)
    return params, state, history


def history_csv(history):
    lines = ["epoch,loss,lr,val_dice"]
    for row in history:
        lines.append(
            f"{row['epoch']},{row['loss']:.8f},{row['lr']:.10f},{row['val_dice']:.8f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checkpoint format
#
# magic "FMBF", u16 version=1, u32 entry count, then per entry:
# u16 name length, UTF-8 name, u8 dtype tag (0=f32, 1=f64), u8 rank,
# u32 dims[rank], little-endian payload; trailing CRC32 of all prior bytes.

_MAGIC = b"FMBF"
_VERSION = 1
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_MAX_RANK = 4  # conv weights and their Adam moments; the writer emits no higher rank


def _scalar(v):
    return np.asarray(float(v), dtype=np.float64)


def _encode_rng(gen):
    st = gen.bit_generator.state
    s = st["state"]["state"]
    inc = st["state"]["inc"]
    words = np.array(
        [s & _U64, s >> 64, inc & _U64, inc >> 64, st["has_uint32"], st["uinteger"]],
        dtype=np.uint64,
    )
    return words.view(np.float64)


def _decode_rng(arr):
    words = np.asarray(arr, dtype=np.float64).view(np.uint64)
    gen = np.random.default_rng(0)
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int(words[0]) | (int(words[1]) << 64),
            "inc": int(words[2]) | (int(words[3]) << 64),
        },
        "has_uint32": int(words[4]),
        "uinteger": int(words[5]),
    }
    return gen


def _config_entries(cfg: ModelConfig):
    entries = [
        ("config/in_channels", _scalar(cfg.in_channels)),
        ("config/input_h", _scalar(cfg.input_size[0])),
        ("config/input_w", _scalar(cfg.input_size[1])),
        ("config/encoder_widths", np.asarray(cfg.encoder_widths, dtype=np.float64)),
        ("config/decoder_widths", np.asarray(cfg.decoder_widths, dtype=np.float64)),
        ("config/heads", _scalar(cfg.heads)),
        ("config/fmcab_reduction", _scalar(cfg.fmcab_reduction)),
        ("config/p_exponent", _scalar(cfg.p_exponent)),
        ("config/shuffle_groups", _scalar(cfg.shuffle_groups)),
        ("config/skip_mode", _scalar(SKIP_MODES.index(cfg.skip_mode))),
        ("config/seed", _scalar(cfg.seed)),
    ]
    return entries


def _config_from_entries(entries):
    whole = entries.whole
    skip_mode = whole("config/skip_mode", ())
    if skip_mode not in range(len(SKIP_MODES)):
        raise entries.bad("config/skip_mode", f"must be 0 or 1, got {skip_mode}")
    return ModelConfig(
        in_channels=whole("config/in_channels", ()),
        input_size=(whole("config/input_h", ()), whole("config/input_w", ())),
        encoder_widths=whole("config/encoder_widths", (4,)),
        decoder_widths=whole("config/decoder_widths", (4,)),
        heads=whole("config/heads", ()),
        fmcab_reduction=whole("config/fmcab_reduction", ()),
        p_exponent=float(entries.shaped("config/p_exponent", ())),
        shuffle_groups=whole("config/shuffle_groups", ()),
        skip_mode=SKIP_MODES[skip_mode],
        seed=whole("config/seed", ()),
    )


def _model_entries(params: ModelParams):
    """The parameters and batch-norm statistics as (name, array) entries."""
    entries = [(f"param/{name}", t.data) for name, t in params.store.items()]
    for name, st in params.bn_states.items():
        entries.append((f"bnstat/{name}/mean", st.running_mean))
        entries.append((f"bnstat/{name}/var", st.running_var))
        entries.append((f"bnstat/{name}/count", _scalar(st.count)))
    return entries


def _load_model_entries(params: ModelParams, entries):
    """Set parameters and batch-norm statistics from entries by name (copies)."""
    params.store.load_values(
        {name: entries[f"param/{name}"] for name in params.store.names()}
    )
    for name, st in params.bn_states.items():
        st.running_mean = entries[f"bnstat/{name}/mean"].astype(np.float64)
        st.running_var = entries[f"bnstat/{name}/var"].astype(np.float64)
        st.count = int(entries[f"bnstat/{name}/count"])


def save_checkpoint(path, params: ModelParams, state: TrainState | None = None):
    entries = _config_entries(params.config) + _model_entries(params)
    if state is not None:
        entries.append(("state/lr", _scalar(state.lr)))
        entries.append(("state/epoch", _scalar(state.epoch)))
        entries.append(("state/best", _scalar(state.best_val_metric)))
        entries.append(("state/since_best", _scalar(state.epochs_since_best)))
        entries.append(("state/since_plateau", _scalar(state.epochs_since_plateau)))
        entries.append(("state/reductions", _scalar(state.reductions)))
        entries.append(("state/adam_t", _scalar(state.adam_t)))
        entries.append(("state/rng", _encode_rng(state.rng)))
        for name in params.store.names():
            if name in state.adam_m:
                entries.append((f"adam/m/{name}", state.adam_m[name]))
                entries.append((f"adam/v/{name}", state.adam_v[name]))
    write_checkpoint_entries(path, dict(entries))


def write_checkpoint_entries(path, entries):
    """Write named arrays as a checkpoint file, in mapping order; the inverse
    of ``read_checkpoint_entries``."""
    tags = {dtype.type: tag for tag, dtype in _DTYPE_TAGS.items()}
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<HI", _VERSION, len(entries))
    for name, arr in entries.items():
        arr = np.asarray(arr)
        if arr.dtype.type not in tags:
            raise UsageError(f"entry {name!r} has unsupported dtype {arr.dtype}")
        tag = tags[arr.dtype.type]
        nb = name.encode("utf-8")
        buf += struct.pack("<H", len(nb))
        buf += nb
        buf += struct.pack("<BB", tag, arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += arr.astype(_DTYPE_TAGS[tag], copy=False).tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def _read_exact(blob, offset, count, path):
    if offset + count > len(blob):
        raise ParseError(f"{path}: truncated checkpoint", offset=len(blob))
    return blob[offset : offset + count], offset + count


class _Entries(dict):
    """Checkpoint entries by name.  Looking up a missing entry, or reading one
    whose shape or value does not fit (``shaped``, ``finite``, ``whole``,
    ``count``), is a format error.  Every lookup is recorded, so that
    ``check_all_read`` can reject an entry the reader never used."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def __missing__(self, name):
        raise FormatError(f"{self.path}: missing checkpoint entry {name!r}")

    def check_all_read(self):
        for name in self:
            if name not in self.read:
                raise FormatError(f"{self.path}: unexpected checkpoint entry {name!r}")

    def bad(self, name, problem):
        return FormatError(f"{self.path}: checkpoint entry {name!r} {problem}")

    def shaped(self, name, shape):
        arr = self[name]
        if arr.shape != shape:
            raise self.bad(name, f"has shape {arr.shape}, expected {shape}")
        return arr

    def finite(self, name, shape, floor):
        """The entry, checked to hold only finite values no lower than ``floor``."""
        arr = self.shaped(name, shape)
        if not np.all(np.isfinite(arr)):
            raise self.bad(name, "holds a non-finite value")
        if np.any(arr < floor):
            raise self.bad(name, f"holds a value below {floor}")
        return arr

    def whole(self, name, shape):
        """The entry as an int (shape ``()``) or a tuple of ints."""
        arr = self.shaped(name, shape)
        if not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
            raise self.bad(name, f"must hold whole numbers, got {arr.tolist()}")
        return int(arr) if arr.ndim == 0 else tuple(int(v) for v in arr)

    def count(self, name):
        """A scalar entry holding a whole number no lower than 0."""
        self.finite(name, (), 0.0)
        return self.whole(name, ())


def read_checkpoint_entries(path):
    """Every entry of a checkpoint file by name, after checking its framing."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 10:
        raise ParseError(f"{path}: truncated checkpoint", offset=len(blob))
    if blob[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}", offset=0)
    version, count = struct.unpack_from("<HI", blob, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}", offset=4)
    body = blob[:-4]
    stored_crc = struct.unpack_from("<I", blob, len(body))[0]
    if stored_crc != zlib.crc32(body) & 0xFFFFFFFF:
        raise FormatError(f"{path}: checksum mismatch", offset=len(body))
    offset = 10
    entries = _Entries(path)
    for _ in range(count):
        raw, offset = _read_exact(body, offset, 2, path)
        (nlen,) = struct.unpack("<H", raw)
        name_at = offset
        raw, offset = _read_exact(body, offset, nlen, path)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            name = None
        if name is None or name in entries:
            problem = "is not UTF-8" if name is None else f"{name!r} is repeated"
            raise FormatError(f"{path}: entry name {problem}", offset=name_at)
        raw, offset = _read_exact(body, offset, 2, path)
        tag, rank = struct.unpack("<BB", raw)
        if tag not in _DTYPE_TAGS:
            raise FormatError(
                f"{path}: unknown dtype tag {tag} for {name!r}", offset=offset - 2
            )
        if rank > _MAX_RANK:
            raise FormatError(
                f"{path}: entry {name!r} has rank {rank}, above {_MAX_RANK}", offset=offset - 1
            )
        raw, offset = _read_exact(body, offset, 4 * rank, path)
        shape = struct.unpack(f"<{rank}I", raw)
        dtype = _DTYPE_TAGS[tag]
        nbytes = math.prod(shape) * dtype.itemsize
        raw, offset = _read_exact(body, offset, nbytes, path)
        entries[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if offset != len(body):
        raise FormatError(
            f"{path}: {len(body) - offset} stray bytes after the last entry", offset=offset
        )
    return entries


def load_checkpoint(path):
    """Rebuild (ModelParams, TrainState-or-None) from a checkpoint file."""
    entries = read_checkpoint_entries(path)
    try:
        params = build_model(_config_from_entries(entries))
    except ConfigurationError as exc:
        raise FormatError(f"{path}: stored model config is invalid: {exc}") from None
    for name, arr in _model_entries(params):
        entries.finite(name, arr.shape, 0.0 if name.endswith("/var") else -math.inf)
    for name in params.bn_states:
        entries.count(f"bnstat/{name}/count")
    _load_model_entries(params, entries)

    state = None
    if "state/lr" in entries:
        count = entries.count
        words = entries.shaped("state/rng", (6,))
        try:
            rng = _decode_rng(words)
        except (OverflowError, ValueError):
            raise entries.bad("state/rng", "is not a PCG64 generator state")
        best = float(entries.shaped("state/best", ()))
        if best != -math.inf and not 0.0 <= best <= 1.0:
            raise entries.bad("state/best", f"holds {best}, not -inf or a value in [0, 1]")
        state = TrainState(
            lr=float(entries.finite("state/lr", (), 0.0)),
            epoch=count("state/epoch"),
            best_val_metric=best,
            epochs_since_best=count("state/since_best"),
            epochs_since_plateau=count("state/since_plateau"),
            reductions=count("state/reductions"),
            adam_t=count("state/adam_t"),
            rng=rng,
        )
        for name, t in params.store.items():
            key = f"adam/m/{name}"
            if key in entries:
                state.adam_m[name] = entries.finite(key, t.shape, -math.inf)
                state.adam_v[name] = entries.finite(f"adam/v/{name}", t.shape, 0.0)
    entries.check_all_read()
    return params, state
