"""Detection + generation network, training, and model persistence."""

from ..tagger import TAG_SLOTS
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import grad_check
from .network import (
    Batch,
    CATEGORIES,
    DivergenceError,
    GenerationResult,
    Model,
    ModelConfig,
    ModelError,
    SequenceTooLong,
    detection_weights,
    predicted_category,
    predicted_label,
    weighted_ce,
)
from .train import Adam, EpochLoss, TrainConfig, TrainResult, build_vocab, make_batch, train
from .vocab import (
    BOS_ID,
    CLS_ID,
    EOS_ID,
    PAD_ID,
    TAG_TOKEN_IDS,
    UNK_ID,
    Vocab,
    reserved_tokens,
    tokenize,
)

__all__ = [
    "Adam",
    "BOS_ID",
    "Batch",
    "CATEGORIES",
    "CLS_ID",
    "CheckpointError",
    "DivergenceError",
    "EOS_ID",
    "EpochLoss",
    "GenerationResult",
    "Model",
    "ModelConfig",
    "ModelError",
    "PAD_ID",
    "SequenceTooLong",
    "TAG_SLOTS",
    "TAG_TOKEN_IDS",
    "TrainConfig",
    "TrainResult",
    "UNK_ID",
    "Vocab",
    "build_vocab",
    "detection_weights",
    "grad_check",
    "load_checkpoint",
    "make_batch",
    "predicted_category",
    "predicted_label",
    "reserved_tokens",
    "save_checkpoint",
    "tokenize",
    "train",
    "weighted_ce",
]
