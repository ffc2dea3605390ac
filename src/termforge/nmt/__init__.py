"""Neural encoder-decoder with residual LSTM layers and soft attention."""

from .model import (
    BOS,
    BOS_ID,
    EOS,
    EOS_ID,
    MAGIC,
    PAD,
    PAD_ID,
    UNK,
    UNK_ID,
    Seq2SeqModel,
    TrainConfig,
    Vocab,
    build_vocab,
    load_model,
    save_model,
)
from .network import encode, loss_and_grads
from .train import fine_tune, train
from .translate import encode_sources, replace_unk, translate

__all__ = [
    "BOS",
    "BOS_ID",
    "EOS",
    "EOS_ID",
    "MAGIC",
    "PAD",
    "PAD_ID",
    "Seq2SeqModel",
    "TrainConfig",
    "UNK",
    "UNK_ID",
    "Vocab",
    "build_vocab",
    "encode",
    "encode_sources",
    "fine_tune",
    "load_model",
    "loss_and_grads",
    "replace_unk",
    "save_model",
    "train",
]
