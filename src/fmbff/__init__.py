"""Encoder-decoder segmentation network with attention-fused skips,
built on a small reverse-mode autodiff tensor engine."""

from .engine import BatchNormState, ParamStore, Tensor, backward
from .errors import (
    ConfigurationError,
    DimensionError,
    FmbffError,
    FormatError,
    ParseError,
    StateError,
    TrainingDiverged,
    UsageError,
    ValidationError,
)
from .gradcheck import finite_diff_check
from .model import ModelConfig, ModelParams, build_model, model_forward

# The train() loop is exported as train_model: re-exporting it under its
# own name would shadow the `fmbff.train` submodule attribute.
from .train import TrainConfig, TrainState, load_checkpoint, save_checkpoint
from .train import train as train_model

__all__ = [
    "BatchNormState",
    "ParamStore",
    "Tensor",
    "backward",
    "finite_diff_check",
    "ConfigurationError",
    "DimensionError",
    "FmbffError",
    "FormatError",
    "ParseError",
    "StateError",
    "TrainingDiverged",
    "UsageError",
    "ValidationError",
    "ModelConfig",
    "ModelParams",
    "build_model",
    "model_forward",
    "TrainConfig",
    "TrainState",
    "load_checkpoint",
    "save_checkpoint",
    "train_model",
]

__version__ = "0.1.0"
