"""Model container, vocabulary, parameter init, and checkpoint I/O."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..bpe import BpeModel
from ..errors import ModelFormatError

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<s>", "</s>"
RESERVED = (PAD, UNK, BOS, EOS)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3

MAGIC = "termforge-nmt-v1"


@dataclass
class TrainConfig:
    """Desk-scale defaults: the 2-layer residual LSTM structure with sizes
    shrunk for CPU training.  ``embed`` defaults to ``hidden`` so the
    layer-1 residual connection applies to the embedding stream itself."""

    layers: int = 2
    hidden: int = 64
    embed: int | None = None
    batch_size: int = 16
    dropout: float = 0.3
    epochs: int = 13
    learning_rate: float = 1.0
    decay_factor: float = 0.5
    clip_norm: float = 5.0
    seed: int = 42
    source_vocab_cap: int = 50000
    target_vocab_cap: int = 50000
    positional: bool = False
    max_positions: int = 200

    @property
    def embed_size(self) -> int:
        return self.hidden if self.embed is None else self.embed

    def validate(self) -> None:
        """Raise ValueError for the first field out of range; the message
        starts with the field's name."""
        reserved = len(RESERVED)
        for name, ok, rule in (
            ("layers", self.layers >= 1, ">= 1"),
            ("hidden", self.hidden >= 1, ">= 1"),
            ("embed", self.embed_size >= 1, ">= 1"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("source_vocab_cap", self.source_vocab_cap >= reserved, f">= {reserved}"),
            ("target_vocab_cap", self.target_vocab_cap >= reserved, f">= {reserved}"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class Vocab:
    itos: list[str]
    stoi: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.stoi:
            self.stoi = {tok: i for i, tok in enumerate(self.itos)}

    def __len__(self) -> int:
        return len(self.itos)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.stoi.get(tok, UNK_ID) for tok in tokens]

    def decode(self, ids: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.itos[i] for i in ids)


def build_vocab(sequences: Iterable[Sequence[str]], cap: int) -> Vocab:
    """Most frequent tokens up to ``cap`` total entries (reserved symbols
    included in the cap); frequency ties break lexicographically."""
    if cap < len(RESERVED):
        raise ValueError(f"cap must be >= {len(RESERVED)}")
    freq: Counter = Counter()
    for seq in sequences:
        freq.update(seq)
    for sym in RESERVED:
        freq.pop(sym, None)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    itos = list(RESERVED) + [tok for tok, _ in ranked[: cap - len(RESERVED)]]
    return Vocab(itos)


def init_params(config: TrainConfig, n_src: int, n_tgt: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform(-0.1, 0.1) init for every tensor, in a fixed name order."""
    n = config.hidden
    m = config.embed_size
    scale = 0.1

    def uniform(*shape):
        return rng.uniform(-scale, scale, shape)

    params: dict[str, np.ndarray] = {}
    params["enc_E"] = uniform(n_src, m)
    params["dec_E"] = uniform(n_tgt, m)
    if config.positional:
        params["pos_E"] = uniform(config.max_positions, m)
    for l in range(1, config.layers + 1):
        enc_in = m if l == 1 else n
        params[f"enc_W_{l}"] = uniform(enc_in, 4 * n)
        params[f"enc_U_{l}"] = uniform(n, 4 * n)
        params[f"enc_b_{l}"] = np.zeros(4 * n)
        dec_in = (m + n) if l == 1 else n
        params[f"dec_W_{l}"] = uniform(dec_in, 4 * n)
        params[f"dec_U_{l}"] = uniform(n, 4 * n)
        params[f"dec_b_{l}"] = np.zeros(4 * n)
    params["att_Wa"] = uniform(n, n)
    params["att_Wc"] = uniform(2 * n, n)
    params["att_bc"] = np.zeros(n)
    params["out_W"] = uniform(n, n_tgt)
    params["out_b"] = np.zeros(n_tgt)
    return params


@dataclass
class Seq2SeqModel:
    """Trained encoder-decoder: parameters, vocabularies, and segmentation."""

    config: TrainConfig
    src_vocab: Vocab
    tgt_vocab: Vocab
    params: dict[str, np.ndarray]
    segmentation: str = "word"  # "word" | "bpe"
    src_bpe: BpeModel | None = None
    tgt_bpe: BpeModel | None = None
    attention_kind: str = "bilinear"
    # per-epoch training perplexity of the most recent training run;
    # diagnostic only, not serialized
    train_history: list[float] = field(default_factory=list, compare=False)

    def copy(self) -> "Seq2SeqModel":
        return Seq2SeqModel(
            config=self.config,
            src_vocab=self.src_vocab,
            tgt_vocab=self.tgt_vocab,
            params={k: v.copy() for k, v in self.params.items()},
            segmentation=self.segmentation,
            src_bpe=self.src_bpe,
            tgt_bpe=self.tgt_bpe,
            attention_kind=self.attention_kind,
        )

    def encoder_residual(self, layer: int) -> bool:
        return layer > 1 or self.config.embed_size == self.config.hidden

    def decoder_residual(self, layer: int) -> bool:
        return layer > 1  # layer 1 consumes [embedding; attentional vector]


def save_model(model: Seq2SeqModel, path) -> None:
    """Self-describing container: magic line, JSON header, raw tensors."""
    names = sorted(model.params)
    header = {
        "config": asdict(model.config),
        "segmentation": model.segmentation,
        "attention": model.attention_kind,
        "src_vocab": model.src_vocab.itos,
        "tgt_vocab": model.tgt_vocab.itos,
        "src_bpe": None if model.src_bpe is None else {
            "merges": [list(p) for p in model.src_bpe.merges],
            "marker": model.src_bpe.marker,
        },
        "tgt_bpe": None if model.tgt_bpe is None else {
            "merges": [list(p) for p in model.tgt_bpe.merges],
            "marker": model.tgt_bpe.marker,
        },
        "tensors": [
            {"name": name, "shape": list(model.params[name].shape)}
            for name in names
        ],
    }
    with open(path, "wb") as f:
        f.write(MAGIC.encode("utf-8") + b"\n")
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in names:
            f.write(np.ascontiguousarray(model.params[name], dtype=np.float64).tobytes())


def load_model(path) -> Seq2SeqModel:
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n").decode("utf-8")
        if magic != MAGIC:
            raise ModelFormatError(f"{path}: expected magic {MAGIC!r}, got {magic!r}")
        header = json.loads(f.readline().decode("utf-8"))
        params: dict[str, np.ndarray] = {}
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(count * 8)
            if len(buf) != count * 8:
                raise ModelFormatError(f"{path}: truncated tensor {spec['name']}")
            params[spec["name"]] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
    config = TrainConfig(**header["config"])

    def parse_bpe(blob):
        if blob is None:
            return None
        return BpeModel([tuple(p) for p in blob["merges"]], marker=blob["marker"])

    return Seq2SeqModel(
        config=config,
        src_vocab=Vocab(list(header["src_vocab"])),
        tgt_vocab=Vocab(list(header["tgt_vocab"])),
        params=params,
        segmentation=header["segmentation"],
        src_bpe=parse_bpe(header["src_bpe"]),
        tgt_bpe=parse_bpe(header["tgt_bpe"]),
        attention_kind=header["attention"],
    )
