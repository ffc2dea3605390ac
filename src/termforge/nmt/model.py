"""Model container, vocabulary, parameter init, and checkpoint I/O."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Sequence

import numpy as np

from ..bpe import MARKER, BpeModel
from ..corpus import word_frequencies
from ..errors import ModelFormatError
from ..files import atomic_open

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<s>", "</s>"
RESERVED = (PAD, UNK, BOS, EOS)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3

MAGIC = "termforge-nmt-v2"
_HEADER_KEYS = ("config", "src_bpe", "src_vocab", "tensors", "tgt_bpe", "tgt_vocab")


@dataclass
class TrainConfig:
    """Desk-scale defaults: the 2-layer residual LSTM structure with sizes
    shrunk for CPU training.  Embeddings are ``hidden`` wide, so the
    encoder's layer-1 residual connection applies to the embedding stream
    itself.  The encoder input is the word embedding alone: word order
    reaches the model only through the recurrence."""

    layers: int = 2
    hidden: int = 64
    batch_size: int = 16
    dropout: float = 0.3
    epochs: int = 13
    learning_rate: float = 1.0
    decay_factor: float = 0.5
    clip_norm: float = 5.0
    seed: int = 42
    source_vocab_cap: int = 50000
    target_vocab_cap: int = 50000

    def validate(self) -> None:
        """Raise ValueError for the first field out of range; the message
        starts with the field's name."""
        reserved = len(RESERVED)
        for name, ok, rule in (
            ("layers", self.layers >= 1, ">= 1"),
            ("hidden", self.hidden >= 1, ">= 1"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("learning_rate", math.isfinite(self.learning_rate)
             and self.learning_rate > 0.0, "finite and > 0"),
            ("decay_factor", 0.0 < self.decay_factor <= 1.0, "in (0, 1]"),
            # 0 turns gradient clipping off
            ("clip_norm", math.isfinite(self.clip_norm)
             and self.clip_norm >= 0.0, "finite and >= 0"),
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
    freq = word_frequencies(sequences)
    for sym in RESERVED:
        freq.pop(sym, None)
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    itos = list(RESERVED) + [tok for tok, _ in ranked[: cap - len(RESERVED)]]
    return Vocab(itos)


def param_shapes(config: TrainConfig, n_src: int, n_tgt: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor of a model, in a fixed name order;
    the 1-d tensors are the biases."""
    n = config.hidden
    shapes: dict[str, tuple[int, ...]] = {"enc_E": (n_src, n), "dec_E": (n_tgt, n)}
    for l in range(1, config.layers + 1):
        shapes[f"enc_W_{l}"] = (n, 4 * n)
        shapes[f"enc_U_{l}"] = (n, 4 * n)
        shapes[f"enc_b_{l}"] = (4 * n,)
        shapes[f"dec_W_{l}"] = (2 * n if l == 1 else n, 4 * n)
        shapes[f"dec_U_{l}"] = (n, 4 * n)
        shapes[f"dec_b_{l}"] = (4 * n,)
    shapes["att_Wa"] = (n, n)
    shapes["att_Wc"] = (2 * n, n)
    shapes["att_bc"] = (n,)
    shapes["out_W"] = (n, n_tgt)
    shapes["out_b"] = (n_tgt,)
    return shapes


def init_params(config: TrainConfig, n_src: int, n_tgt: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform(-0.1, 0.1) init for every weight tensor and zeros for the
    biases, drawn in :func:`param_shapes` order."""
    scale = 0.1
    return {
        name: np.zeros(shape) if len(shape) == 1 else rng.uniform(-scale, scale, shape)
        for name, shape in param_shapes(config, n_src, n_tgt).items()
    }


@dataclass
class Seq2SeqModel:
    """Trained encoder-decoder: parameters, vocabularies, and the subword
    merges of a BPE model (both None for a word-level one)."""

    config: TrainConfig
    src_vocab: Vocab
    tgt_vocab: Vocab
    params: dict[str, np.ndarray]
    src_bpe: BpeModel | None = None
    tgt_bpe: BpeModel | None = None
    # per-epoch training perplexity of the most recent training run;
    # diagnostic only, not serialized, and not carried over by copy()
    train_history: list[float] = field(default_factory=list, compare=False, init=False)

    def copy(self) -> "Seq2SeqModel":
        return dataclasses.replace(
            self, params={k: v.copy() for k, v in self.params.items()}
        )


def save_model(model: Seq2SeqModel, path) -> None:
    """Self-describing container: magic line, JSON header, raw tensors."""
    names = sorted(model.params)
    header = {
        "config": asdict(model.config),
        "src_vocab": model.src_vocab.itos,
        "tgt_vocab": model.tgt_vocab.itos,
        "src_bpe": None if model.src_bpe is None else {
            "merges": [list(p) for p in model.src_bpe.merges],
            "marker": MARKER,
        },
        "tgt_bpe": None if model.tgt_bpe is None else {
            "merges": [list(p) for p in model.tgt_bpe.merges],
            "marker": MARKER,
        },
        "tensors": [
            {"name": name, "shape": list(model.params[name].shape)}
            for name in names
        ],
    }
    with atomic_open(path, "wb") as f:
        f.write(MAGIC.encode("utf-8") + b"\n")
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in names:
            f.write(np.ascontiguousarray(model.params[name], dtype=np.float64).tobytes())


def _check_tensors(path, specs, config: TrainConfig, n_src: int, n_tgt: int) -> None:
    """Raise :class:`ModelFormatError` if ``specs`` is not a list of
    ``{name, shape}`` objects, if it lists fewer than six tensors per layer
    of the config, or naming the first tensor (in name order)
    that it lists differently from what the config and vocabularies give:
    missing, unexpected or of another shape."""
    if not isinstance(specs, list) or not all(
        isinstance(spec, dict) and spec.keys() == {"name", "shape"}
        and isinstance(spec["name"], str) and isinstance(spec["shape"], list)
        and all(type(dim) is int and dim >= 0 for dim in spec["shape"])
        for spec in specs
    ):
        raise ModelFormatError(f"{path}: tensors is not a list of {{name, shape}} objects")
    # checked before the expected shapes are built, one set per layer
    if 6 * config.layers > len(specs):
        raise ModelFormatError(
            f"{path}: config field layers is {config.layers}, "
            f"but {len(specs)} tensors are listed"
        )
    expected = param_shapes(config, n_src, n_tgt)
    listed = {spec["name"]: tuple(spec["shape"]) for spec in specs}
    for name in sorted(listed.keys() | expected.keys()):
        if name not in listed:
            raise ModelFormatError(
                f"{path}: tensor {name} missing; the config needs shape {expected[name]}"
            )
        if name not in expected:
            raise ModelFormatError(f"{path}: tensor {name} is not part of the config's model")
        if listed[name] != expected[name]:
            raise ModelFormatError(
                f"{path}: tensor {name} has shape {listed[name]}; "
                f"the config needs {expected[name]}"
            )


def _parse_config(path, block) -> TrainConfig:
    """The :class:`TrainConfig` of a header's config block; a field that is
    unknown, of another type than its default or out of range raises
    :class:`ModelFormatError` naming ``path`` and the field."""
    if not isinstance(block, dict):
        raise ModelFormatError(f"{path}: config is not a JSON object")
    known = {config_field.name: config_field for config_field in fields(TrainConfig)}
    unknown = sorted(block.keys() - known.keys())
    if unknown:
        raise ModelFormatError(f"{path}: unknown config fields {', '.join(unknown)}")
    for name, value in block.items():
        kind = type(known[name].default)  # every field defaults to an int or a float
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ModelFormatError(
                f"{path}: config field {name} must be {kind.__name__}, got {value!r}"
            )
    config = TrainConfig(**block)
    try:
        config.validate()
    except ValueError as exc:
        raise ModelFormatError(f"{path}: config field {exc}") from None
    return config


def _parse_vocab(path, header, key) -> Vocab:
    """The vocabulary under ``key``, which must list the reserved symbols
    first, at their fixed ids, and no token twice, as :func:`build_vocab`
    writes it; anything else raises :class:`ModelFormatError`."""
    itos = header[key]
    if not isinstance(itos, list) or not all(isinstance(tok, str) for tok in itos):
        raise ModelFormatError(f"{path}: {key} is not a list of strings")
    if tuple(itos[:len(RESERVED)]) != RESERVED:
        raise ModelFormatError(f"{path}: {key} does not start with {' '.join(RESERVED)}")
    vocab = Vocab(itos)
    if len(vocab.stoi) != len(itos):
        repeated = next(tok for i, tok in enumerate(itos) if vocab.stoi[tok] != i)
        raise ModelFormatError(f"{path}: {key} repeats token {repeated!r}")
    return vocab


def _parse_bpe(path, header, key) -> BpeModel | None:
    blob = header[key]
    if blob is None:
        return None
    if not (
        isinstance(blob, dict) and blob.keys() == {"merges", "marker"}
        and blob["marker"] == MARKER
        and isinstance(blob["merges"], list)
        and all(isinstance(pair, list) and len(pair) == 2
                and all(isinstance(part, str) for part in pair)
                for pair in blob["merges"])
    ):
        raise ModelFormatError(
            f"{path}: {key} is neither null nor string-pair merges with marker {MARKER!r}"
        )
    return BpeModel([tuple(pair) for pair in blob["merges"]])


def load_model(path) -> Seq2SeqModel:
    """Read a :func:`save_model` file; a malformed one raises
    :class:`ModelFormatError` naming ``path``.  The header's shapes need
    only agree with its config, so the tensors are sliced from the rest of
    the file, read once: the file's size bounds every allocation."""
    with open(path, "rb") as f:
        magic = f.readline().rstrip(b"\n").decode("utf-8", "replace")
        if magic != MAGIC:
            raise ModelFormatError(f"{path}: expected magic {MAGIC!r}, got {magic!r}")
        try:
            header = json.loads(f.readline().decode("utf-8"))
        except ValueError as exc:
            raise ModelFormatError(f"{path}: header is not JSON: {exc}") from None
        if not isinstance(header, dict):
            raise ModelFormatError(f"{path}: header is not a JSON object")
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise ModelFormatError(f"{path}: header lacks {', '.join(missing)}")
        config = _parse_config(path, header["config"])
        src_vocab = _parse_vocab(path, header, "src_vocab")
        tgt_vocab = _parse_vocab(path, header, "tgt_vocab")
        src_bpe = _parse_bpe(path, header, "src_bpe")
        tgt_bpe = _parse_bpe(path, header, "tgt_bpe")
        if (src_bpe is None) != (tgt_bpe is None):
            raise ModelFormatError(
                f"{path}: src_bpe and tgt_bpe must both be null or both hold merges"
            )
        _check_tensors(path, header["tensors"], config, len(src_vocab), len(tgt_vocab))
        data = f.read()
    params: dict[str, np.ndarray] = {}
    offset = 0
    for spec in header["tensors"]:
        shape = tuple(spec["shape"])
        count = math.prod(shape)
        if offset + count * 8 > len(data):
            raise ModelFormatError(f"{path}: truncated tensor {spec['name']}")
        tensor = np.frombuffer(data, np.float64, count, offset)
        params[spec["name"]] = tensor.reshape(shape).copy()
        offset += count * 8
    if offset != len(data):
        raise ModelFormatError(f"{path}: {len(data) - offset} bytes after the last tensor")
    return Seq2SeqModel(
        config=config,
        src_vocab=src_vocab,
        tgt_vocab=tgt_vocab,
        params=params,
        src_bpe=src_bpe,
        tgt_bpe=tgt_bpe,
    )
