"""Seeded mutation test of the seven file loaders.

Each loader reads a small valid file written by its own writer, then many
damaged copies of it: truncated, a line dropped, repeated or swapped, a
number replaced, a tab or a ``\\xff`` byte inserted, a field dropped, the
file emptied or left with blank lines only.  A damaged file either loads
or raises a :class:`TermforgeError` whose message names the file; any
other exception is a fault.  For a longer probe, raise
``RANDOM_MUTATIONS`` (the sample per loader) or change ``SEED``.
"""

from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest

from termforge.align import PhraseOption, PhraseTable, load_phrase_table, save_phrase_table
from termforge.config import load_config
from termforge.corpus import Candidate, Lexicon, LexiconEntry, load_lexicon, save_lexicon
from termforge.errors import ModelFormatError, TermforgeError
from termforge.lm import load_arpa, save_arpa, train_lm
from termforge.metrics import load_results, save_results
from termforge.nmt import TrainConfig, build_vocab, load_model, save_model
from termforge.nmt.model import Seq2SeqModel, init_params, param_shapes
from termforge.smt import LogLinearWeights, load_weights, save_weights

SEED = 22
RANDOM_MUTATIONS = 250

NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?")
NOT_NUMBERS = (b"nan", b"inf", b"x", b"12345678901234567890", b"-3")

CONFIG_TEXT = """\
# a small pipeline config
seed = 42
corpus.train.source = train.src
corpus.train.target = train.tgt
smt.em_iterations = 8
smt.max_phrase_len = 4
smt.stack_size = 100
nmt.layers = 2
nmt.hidden = 32
nmt.dropout = 0.1
nmt.learning_rate = 2.0
translate.beam = 5
"""


def small_model() -> Seq2SeqModel:
    pairs = [(("a", "b", "c"), ("x", "y")), (("b", "c", "a"), ("y", "z", "x"))]
    config = TrainConfig(layers=2, hidden=3, batch_size=2, dropout=0.0, epochs=0, seed=5)
    src_vocab = build_vocab((s for s, _ in pairs), 20)
    tgt_vocab = build_vocab((t for _, t in pairs), 20)
    params = init_params(config, len(src_vocab), len(tgt_vocab), np.random.default_rng(5))
    return Seq2SeqModel(config, src_vocab, tgt_vocab, params)


def write_originals(root) -> dict[str, bytes]:
    """The bytes of one valid file per loader, each from its writer."""
    options = [PhraseOption(("x",), (0.5, 0.25, 0.125, 1.0)),
               PhraseOption(("x", "y"), (0.5, 0.75, 0.0625, 0.5))]
    save_phrase_table(
        PhraseTable({("a",): options, ("a", "b"): options[:1]}), root / "phrase-table"
    )
    sentences = [("a", "b", "c"), ("b", "c", "a"), ("a", "a", "b", "d")]
    save_arpa(train_lm(sentences, order=3), root / "arpa")
    save_weights(LogLinearWeights.default(), root / "weights")
    save_lexicon(
        Lexicon({
            ("orbit",): LexiconEntry(
                ("orbit",),
                [Candidate(("orbita",), 0.75), Candidate(("umlaufbahn",), 0.5)],
                "the eye socket",
            ),
            ("burn",): LexiconEntry(("burn",), [Candidate(("verbrennung",), 1.0)]),
        }),
        root / "lexicon",
    )
    save_results(
        {("smt", "dev"): {"bleu": 12.5, "meteor": 30.25},
         ("nmt", "dev"): {"bleu": 10.0, "chrf3": 40.5}},
        root / "results",
    )
    save_model(small_model(), root / "model")
    (root / "config").write_text(CONFIG_TEXT, encoding="utf-8")
    return {name: (root / name).read_bytes() for name in LOADERS}


LOADERS = {
    "phrase-table": load_phrase_table,
    "arpa": load_arpa,
    "weights": load_weights,
    "lexicon": load_lexicon,
    "results": load_results,
    "model": load_model,
    "config": load_config,
}


KINDS = ("truncate", "drop line", "repeat line", "swap lines", "number", "tab", "xff",
         "drop field")


def mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One random damage to ``data``, with a name for it."""
    kind = rng.choice(KINDS)
    if kind == "truncate":
        return kind, data[:rng.randrange(len(data))]
    if kind == "number":
        match = rng.choice(list(NUMBER.finditer(data)))
        new = rng.choice(NOT_NUMBERS)
        return f"number {match.group()!r} -> {new!r}", (
            data[:match.start()] + new + data[match.end():]
        )
    if kind in ("tab", "xff"):
        at = rng.randrange(len(data) + 1)
        return kind, data[:at] + (b"\t" if kind == "tab" else b"\xff") + data[at:]
    lines = data.split(b"\n")
    i = rng.randrange(len(lines))
    if kind == "drop line":
        del lines[i]
    elif kind == "repeat line":
        lines.insert(i, lines[i])
    elif kind == "swap lines":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        sep = b"\t" if b"\t" in lines[i] else b" "
        fields = lines[i].split(sep)
        del fields[rng.randrange(len(fields))]
        lines[i] = sep.join(fields)
    return f"{kind} {i}", b"\n".join(lines)


def inflated_header(data: bytes) -> bytes:
    """The model file with a header that claims ``hidden = 10**7`` and
    tensor shapes to match: its first tensor, ``att_Wa``, alone would take
    8 * 10**14 bytes, more than 2**47, so no allocation of it succeeds."""
    magic, header, tensors = data.split(b"\n", 2)
    header = json.loads(header)
    header["config"]["hidden"] = 10**7
    shapes = param_shapes(
        TrainConfig(**header["config"]), len(header["src_vocab"]), len(header["tgt_vocab"])
    )
    header["tensors"] = [
        {"name": name, "shape": list(shapes[name])} for name in sorted(shapes)
    ]
    return b"\n".join([magic, json.dumps(header).encode("utf-8"), tensors])


def explicit_mutations(name: str, data: bytes) -> list[tuple[str, bytes]]:
    """Damage that random draws rarely or never reach."""
    cases = [("empty", b""), ("blank lines", b"\n \n\t\n")]
    if name == "model":
        cases.append(("inflated header", inflated_header(data)))
        many_layers = data.replace(b'"layers": 2', b'"layers": 1' + b"0" * 20)
        cases.append(("layers 10**20", many_layers))
    return cases


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    return write_originals(tmp_path_factory.mktemp("originals"))


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_damaged_file_loads_or_names_itself(name, originals, tmp_path):
    loader, data = LOADERS[name], originals[name]
    path = tmp_path / name
    path.write_bytes(data)
    loader(str(path))  # the original loads
    rng = random.Random(f"{SEED}-{name}")
    cases = [mutate(data, rng) for _ in range(RANDOM_MUTATIONS)]
    for kind, damaged in cases + explicit_mutations(name, data):
        path.write_bytes(damaged)
        try:
            loader(str(path))
        except TermforgeError as exc:
            assert str(path) in str(exc), (kind, str(exc))
        except Exception as exc:  # any other exception is the fault
            pytest.fail(f"{name}, {kind}: {type(exc).__name__}: {exc}")


def test_model_header_claiming_more_than_the_file_holds(originals, tmp_path):
    path = tmp_path / "model"
    path.write_bytes(inflated_header(originals["model"]))
    with pytest.raises(ModelFormatError, match="truncated tensor att_Wa") as info:
        load_model(str(path))
    assert str(path) in str(info.value)
