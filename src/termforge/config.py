"""Flat key-value pipeline configuration with dotted keys.

The format is one ``key = value`` assignment per line with ``#`` comments,
chosen so configs diff cleanly; a file sets each key at most once.
Command-line ``--set key=value`` overrides lay over the file contents.
:data:`KEYS` declares every key: ``load_config`` rejects an unknown key, a
value not of its key's kind and a value outside its key's rule, naming the
file and line (or ``--set``) and the key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .files import read_lines
from .inject import COSINE, UNIFORM
from .smt import EXCLUSIVE, MODES

PATH = "path"  # resolved against the config file's directory
NAME = "name"  # may become a field of a tab-separated file
_KIND_RULES = {
    PATH: ("a non-empty path", bool),
    NAME: ("a non-empty name without a tab", lambda value: value and "\t" not in value),
}


def _min(minimum: int):
    return f">= {minimum}", lambda value: value >= minimum


def _range(minimum: int, maximum: int):
    """A desk-scale bound on a size that allocates or loops in proportion
    to its value: before any data is read, or per input (the beam keeps up
    to beam² candidates a step)."""
    return f"in [{minimum}, {maximum}]", lambda value: minimum <= value <= maximum


_POSITIVE = ("finite and > 0", lambda value: math.isfinite(value) and value > 0)
_SPLITS = ("train", "dev", "eval")

# key -> (kind, default, rule).  A kind is int, float, PATH, NAME or a
# tuple of the accepted values; a rule is (text, test) or None.  A None
# default leaves the key unset.
KEYS: dict[str, tuple] = {
    "seed": (int, 42, _min(0)),
    # no stage reads it: it is accepted because the benchmark's generated
    # config sets it, and goes when that line does
    "threads": (("1",), "1", None),
    "fixtures.dir": (PATH, None, None),
    "fixtures.seed": (int, None, None),  # unset: the value of seed
    **{f"corpus.{split}.{side}": (PATH, None, None)
       for split in _SPLITS for side in ("source", "target")},
    **{f"corpus.{split}.name": (NAME, split, None) for split in _SPLITS},
    "lexicon.path": (PATH, None, None),
    "model.smt.dir": (PATH, "smt-model", None),
    "model.nmt.dir": (PATH, "nmt-model", None),
    "stats.output": (PATH, "stats.txt", None),
    "smt.em_iterations": (int, 8, _min(1)),
    "smt.max_phrase_len": (int, 7, _min(1)),
    "smt.lm_order": (int, 5, _range(1, 10)),
    "smt.stack_size": (int, 100, _min(1)),
    "smt.distortion_limit": (int, 6, _min(0)),
    "smt.mert.restarts": (int, 3, _min(0)),
    "smt.mert.iterations": (int, 4, _min(0)),
    "smt.mert.nbest": (int, 100, _min(1)),
    "nmt.segmentation": (("word", "bpe"), "word", None),
    "nmt.layers": (int, 2, _range(1, 16)),
    "nmt.hidden": (int, 64, _range(1, 4096)),
    "nmt.batch_size": (int, 16, _min(1)),
    "nmt.dropout": (float, 0.3, ("in [0, 1)", lambda value: 0.0 <= value < 1.0)),
    "nmt.epochs": (int, 13, _min(0)),
    "nmt.learning_rate": (float, 1.0, _POSITIVE),
    "nmt.adapt.epochs": (int, 35, _min(0)),
    "nmt.adapt.batch_size": (int, 2, _min(1)),
    "nmt.adapt.learning_rate": (float, 1.0, _POSITIVE),
    "bpe.num_merges": (int, 1000, _min(0)),
    "inject.ranking": ((UNIFORM, COSINE), UNIFORM, None),
    "inject.mode": (MODES, EXCLUSIVE, None),
    "inject.output": (PATH, "annotated.txt", None),
    "inject.lexicon_output": (PATH, "lexicon-ranked.tsv", None),
    "translate.system": (("smt", "nmt"), "smt", None),
    "translate.input": (PATH, None, None),
    "translate.output": (PATH, "hypotheses.txt", None),
    "translate.beam": (int, 5, _range(1, 1000)),
    "translate.weights": (NAME, "weights.txt", None),  # in model.smt.dir
    "translate.model": (NAME, "model.tfnmt", None),  # in model.nmt.dir
    "translate.replace_unk_lexicon": (PATH, None, None),
    "evaluate.hypotheses": (PATH, None, None),
    "evaluate.references": (PATH, None, None),
    "evaluate.system": (NAME, "system", None),
    "evaluate.evalset": (NAME, "eval", None),
    "evaluate.results": (PATH, "results.tsv", None),
    "report.output": (PATH, "report.txt", None),
}


def parse_value(key: str, raw: str):
    """The value of ``key`` set to ``raw``, checked against :data:`KEYS`."""
    if key not in KEYS:
        raise ConfigError(f"unknown key {key!r}")
    kind, _, rule = KEYS[key]
    value = raw
    if isinstance(kind, tuple):
        rule = f"one of {', '.join(kind)}", kind.__contains__
    elif kind in _KIND_RULES:
        rule = _KIND_RULES[kind]
    else:
        try:
            value = kind(raw)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {expected}, got {raw!r}") from None
    if rule is not None and not rule[1](value):
        raise ConfigError(f"{key} must be {rule[0]}, got {raw!r}")
    return value


@dataclass
class PipelineConfig:
    values: dict[str, str] = field(default_factory=dict)
    base_dir: str = "."

    def __getitem__(self, key: str):
        """The typed value of ``key``, or its declared default; a path is
        resolved against ``base_dir``."""
        kind, default, _ = KEYS[key]
        raw = self.values.get(key)
        value = default if raw is None else parse_value(key, raw)
        if kind == PATH and value is not None:
            return os.path.join(self.base_dir, value)
        return value

    def path(self, key: str) -> str:
        resolved = self[key]
        if resolved is None:
            raise ConfigError(f"missing required path key {key!r}")
        return resolved

    def input_path(self, key: str) -> str:
        """A path that must already exist on disk."""
        resolved = self.path(key)
        if not os.path.exists(resolved):
            raise ConfigError(f"{key}: {resolved} does not exist")
        return resolved


def parse_assignment(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    key = key.strip()
    value = value.strip()
    if not key:
        raise ConfigError(f"empty key in {text!r}")
    return key, value


def load_config(path, overrides: list[str] | None = None) -> PipelineConfig:
    settings = [
        (f"{path}: line {lineno}", line.strip())
        for lineno, line in enumerate(read_lines(path), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    settings += [("--set", item) for item in overrides or []]
    values: dict[str, str] = {}
    for where, text in settings:
        try:
            key, value = parse_assignment(text)
            parse_value(key, value)
            if key in values and where != "--set":  # --set replaces any value
                raise ConfigError(f"repeated key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        values[key] = value
    return PipelineConfig(values, base_dir=os.path.dirname(os.path.abspath(path)))
