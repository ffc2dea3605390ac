"""Flat key-value pipeline configuration with dotted keys.

The format is one ``key = value`` assignment per line with ``#`` comments,
chosen so configs diff cleanly; a file sets each key at most once.
Command-line ``--set key=value`` overrides lay over the file contents.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .files import read_lines


@dataclass
class PipelineConfig:
    values: dict[str, str] = field(default_factory=dict)
    base_dir: str = "."

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: {raw!r} is not an integer") from None

    def get_float(self, key: str, default: float) -> float:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: {raw!r} is not a number") from None

    def path(self, key: str, default: str | None = None) -> str:
        raw = self.values.get(key, default)
        if raw is None:
            raise ConfigError(f"missing required path key {key!r}")
        if os.path.isabs(raw):
            return raw
        return os.path.join(self.base_dir, raw)

    def input_path(self, key: str) -> str:
        """A path that must already exist on disk."""
        resolved = self.path(key)
        if not os.path.exists(resolved):
            raise ConfigError(f"{key}: {resolved} does not exist")
        return resolved

    @property
    def seed(self) -> int:
        return self.get_int("seed", 42)


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
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, value = parse_assignment(line)
        except ConfigError as exc:
            raise ConfigError(f"{path}: line {lineno}: {exc}") from None
        if key in values:
            raise ConfigError(f"{path}: line {lineno}: repeated key {key!r}")
        values[key] = value
    for item in overrides or []:
        key, value = parse_assignment(item)
        values[key] = value
    return PipelineConfig(values, base_dir=os.path.dirname(os.path.abspath(path)))
