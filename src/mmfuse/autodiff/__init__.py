"""Minimal dense-tensor engine with reverse-mode differentiation."""

from .tensor import (
    AutodiffError,
    ShapeMismatch,
    Tensor,
    as_tensor,
    backward,
    no_grad,
)
from . import ops
from .ops import BatchNormState
from .optim import AdamState, NonFiniteGradient, adam_step
from .gradcheck import check_gradients
from .checkpoint import CheckpointError, file_sha256, load_arrays, save_arrays

__all__ = [
    "AutodiffError",
    "ShapeMismatch",
    "Tensor",
    "as_tensor",
    "backward",
    "no_grad",
    "ops",
    "BatchNormState",
    "AdamState",
    "NonFiniteGradient",
    "adam_step",
    "check_gradients",
    "CheckpointError",
    "file_sha256",
    "load_arrays",
    "save_arrays",
]
