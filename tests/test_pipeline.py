"""Reuse of parsed SMT and NMT models across pipeline stages in one process,
and NMT translation from the encoder entries of each chunk of lines."""

import os

import pytest

from termforge import align, corpus, lm, nmt, pipeline
from termforge.config import PipelineConfig
from termforge.fixtures import write_fixture_files


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small SMT model trained on the fixture corpora, plus an input."""
    root = tmp_path_factory.mktemp("pipeline")
    write_fixture_files(str(root / "data"), seed=42)
    settings = {
        "corpus.train.source": "data/generic.src",
        "corpus.train.target": "data/generic.tgt",
        "model.smt.dir": "smt",
        "smt.em_iterations": "3",
        "smt.max_phrase_len": "3",
        "smt.lm_order": "3",
        "translate.input": "data/icdtoy-eval.src",
    }
    pipeline.run_train_smt(PipelineConfig(settings, base_dir=str(root)))
    return root, settings


def config(trained, **overrides):
    root, settings = trained
    return PipelineConfig({**settings, **overrides}, base_dir=str(root))


def test_unchanged_files_return_the_same_objects(trained):
    _, ptable, model, _ = pipeline._smt_artifacts(config(trained))
    _, ptable2, model2, _ = pipeline._smt_artifacts(config(trained))
    assert ptable2 is ptable
    assert model2 is model


@pytest.mark.parametrize("name", ["phrase-table.txt", "lm.arpa"])
def test_same_size_rewrite_is_parsed_again(trained, tmp_path, name):
    """An in-place edit that keeps the size and modification time still
    misses: the memo keys on the bytes."""
    root, settings = trained
    model_dir = tmp_path / "smt"
    model_dir.mkdir()
    for file in ("phrase-table.txt", "lm.arpa", "weights.txt"):
        (model_dir / file).write_bytes((root / "smt" / file).read_bytes())
    cfg = PipelineConfig({**settings, "model.smt.dir": str(model_dir)})
    _, ptable, model, _ = pipeline._smt_artifacts(cfg)

    path = model_dir / name
    text = path.read_text(encoding="utf-8")
    stat = os.stat(path)
    first = text.index("-0.") if name == "lm.arpa" else text.index(" 0.")
    digit = first + 3
    old = text[digit]
    edited = text[:digit] + ("1" if old != "1" else "2") + text[digit + 1:]
    path.write_text(edited, encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size

    _, ptable2, model2, _ = pipeline._smt_artifacts(cfg)
    if name == "lm.arpa":
        assert ptable2 is ptable
        assert model2 is not model
        fresh = lm.load_arpa(path)
        assert (model2.logprob, model2.backoff) == (fresh.logprob, fresh.backoff)
        assert (model2.logprob, model2.backoff) != (model.logprob, model.backoff)
    else:
        assert model2 is model
        assert ptable2 is not ptable
        assert ptable2.entries == align.load_phrase_table(path).entries
        assert ptable2.entries != ptable.entries


def test_phrase_length_comes_from_the_table(trained):
    """A translate-time ``smt.max_phrase_len`` neither parses the table
    again nor changes its limit, the longest source phrase in the file."""
    root, _ = trained
    _, ptable, _, _ = pipeline._smt_artifacts(config(trained))
    _, ptable2, _, _ = pipeline._smt_artifacts(
        config(trained, **{"smt.max_phrase_len": "2"})
    )
    assert ptable2 is ptable
    with open(root / "smt" / "phrase-table.txt", encoding="utf-8") as f:
        longest = max(len(line.split(" ||| ")[0].split()) for line in f)
    assert ptable.max_phrase_len == longest


def test_cold_and_warm_translate_write_identical_hypotheses(
    trained, tmp_path, monkeypatch
):
    pipeline._PARSED.clear()
    cold_out, warm_out = tmp_path / "cold.txt", tmp_path / "warm.txt"
    cold = pipeline.run_translate(
        config(trained, **{"translate.output": str(cold_out)})
    )

    def no_parse(*args):
        raise AssertionError("a warm memo must not parse again")

    monkeypatch.setattr(align, "load_phrase_table", no_parse)
    monkeypatch.setattr(lm, "load_arpa", no_parse)
    warm = pipeline.run_translate(
        config(trained, **{"translate.output": str(warm_out)})
    )
    assert warm == cold
    assert warm_out.read_bytes() == cold_out.read_bytes()


def test_translate_after_tune_writes_the_bytes_of_translate_alone(trained, tmp_path):
    """The shared phrase table builds a phrase's options on its first
    lookup, so after ``tune`` it holds options a lone ``translate`` would
    build itself; the order it filled in must not show in the output."""
    root, _ = trained
    model_dir = tmp_path / "smt"
    model_dir.mkdir()
    for file in ("phrase-table.txt", "lm.arpa", "weights.txt"):
        (model_dir / file).write_bytes((root / "smt" / file).read_bytes())
    alone, after_tune = tmp_path / "alone.txt", tmp_path / "after-tune.txt"
    settings = {
        "model.smt.dir": str(model_dir),
        "corpus.dev.source": "data/icdtoy-dev.src",
        "corpus.dev.target": "data/icdtoy-dev.tgt",
        "smt.mert.restarts": "0",
        "smt.mert.iterations": "1",
        "smt.mert.nbest": "5",
    }

    pipeline._PARSED.clear()
    pipeline.run_translate(config(trained, **settings, **{"translate.output": str(alone)}))
    pipeline._PARSED.clear()
    pipeline.run_tune(config(trained, **settings), weights_out="weights-tuned.txt")
    _, ptable, _, _ = pipeline._smt_artifacts(config(trained, **settings))
    built = sum(not isinstance(opts, str) for opts in ptable._entries.values())
    assert 0 < built < len(ptable)
    pipeline.run_translate(
        config(trained, **settings, **{"translate.output": str(after_tune)})
    )
    assert after_tune.read_bytes() == alone.read_bytes()


SMT_STAGES = {
    "corpus.train.source": "data/generic.src",
    "corpus.train.target": "data/generic.tgt",
    "corpus.dev.source": "data/icdtoy-dev.src",
    "corpus.dev.target": "data/icdtoy-dev.tgt",
    "smt.em_iterations": "3",
    "smt.max_phrase_len": "3",
    "smt.lm_order": "3",
    "smt.mert.restarts": "0",
    "smt.mert.iterations": "2",
    "smt.mert.nbest": "5",
    "translate.input": "data/icdtoy-eval.src",
}


def test_stages_after_train_parse_nothing_and_match_cold_stages(tmp_path, monkeypatch):
    """``train-smt`` keeps the models its savers return, so ``tune`` and
    ``translate`` after it in the same process parse neither file, and
    write the bytes of stages that each parse both."""
    write_fixture_files(str(tmp_path / "data"), seed=42)

    def run_stages(name, warm):
        cfg = PipelineConfig(
            {**SMT_STAGES, "model.smt.dir": f"{name}/smt",
             "translate.output": f"{name}/hypotheses.txt"},
            base_dir=str(tmp_path),
        )
        pipeline._PARSED.clear()
        pipeline.run_train_smt(cfg)
        with monkeypatch.context() as patch:
            for stage in (pipeline.run_tune, pipeline.run_translate):
                if warm:
                    patch.setattr(align, "load_phrase_table", None)  # a parse would fail
                    patch.setattr(lm, "load_arpa", None)
                else:
                    pipeline._PARSED.clear()
                stage(cfg)
        return [
            (tmp_path / name / file).read_bytes()
            for file in ("smt/phrase-table.txt", "smt/lm.arpa", "smt/weights.txt",
                         "hypotheses.txt")
        ]

    warm = run_stages("warm", warm=True)
    # the models the warm stages used are those a parse gives, bit for bit
    kept_lm = pipeline._PARSED["lm"][1]
    loaded_lm = lm.load_arpa(str(tmp_path / "warm" / "smt" / "lm.arpa"))
    for table in ("logprob", "backoff"):
        assert [(k, v.hex()) for k, v in getattr(kept_lm, table).items()] == [
            (k, v.hex()) for k, v in getattr(loaded_lm, table).items()
        ]
    kept_table = pipeline._PARSED["phrase-table"][1]
    loaded_table = align.load_phrase_table(str(tmp_path / "warm" / "smt" / "phrase-table.txt"))
    assert list(kept_table.entries.items()) == list(loaded_table.entries.items())
    assert warm == run_stages("cold", warm=False)


@pytest.mark.parametrize("name, slot, module, loader", [
    ("phrase-table.txt", "phrase-table", align, "load_phrase_table"),
    ("lm.arpa", "lm", lm, "load_arpa"),
])
def test_file_rewritten_after_train_is_parsed_again(
    tmp_path, monkeypatch, name, slot, module, loader
):
    write_fixture_files(str(tmp_path / "data"), seed=42)
    cfg = PipelineConfig({**SMT_STAGES, "model.smt.dir": "smt"}, base_dir=str(tmp_path))
    pipeline._PARSED.clear()
    pipeline.run_train_smt(cfg)
    kept = pipeline._PARSED[slot][1]
    path = tmp_path / "smt" / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")  # still a valid file
    parse, parsed = getattr(module, loader), []

    def recorded(p):
        parsed.append(p)
        return parse(p)

    monkeypatch.setattr(module, loader, recorded)
    pipeline.run_tune(cfg)
    assert parsed == [str(path)]
    assert pipeline._PARSED[slot][1] is not kept


@pytest.fixture(scope="module")
def trained_nmt(tmp_path_factory):
    """A small word-level NMT model trained for one epoch on the fixture
    corpora, plus an input."""
    root = tmp_path_factory.mktemp("pipeline-nmt")
    write_fixture_files(str(root / "data"), seed=42)
    settings = {
        "corpus.train.source": "data/generic.src",
        "corpus.train.target": "data/generic.tgt",
        "model.nmt.dir": "nmt",
        "nmt.layers": "1",
        "nmt.hidden": "8",
        "nmt.epochs": "1",
        "translate.system": "nmt",
        "translate.beam": "2",
        "translate.input": "data/icdtoy-eval.src",
    }
    pipeline.run_train_nmt(PipelineConfig(settings, base_dir=str(root)))
    return root, settings


def test_cold_and_warm_nmt_translate_write_identical_hypotheses(
    trained_nmt, tmp_path, monkeypatch
):
    pipeline._PARSED.clear()
    cold_out, warm_out = tmp_path / "cold.txt", tmp_path / "warm.txt"
    cold = pipeline.run_translate(
        config(trained_nmt, **{"translate.output": str(cold_out)})
    )

    def no_parse(*args):
        raise AssertionError("a warm memo must not parse again")

    monkeypatch.setattr(nmt, "load_model", no_parse)
    warm = pipeline.run_translate(
        config(trained_nmt, **{"translate.output": str(warm_out)})
    )
    assert warm == cold
    assert warm_out.read_bytes() == cold_out.read_bytes()


def test_nmt_lines_are_translate_from_the_entries_of_their_chunk(
    trained_nmt, tmp_path, monkeypatch
):
    root, _ = trained_nmt
    lines = (root / "data" / "icdtoy-eval.src").read_text(encoding="utf-8").splitlines()
    lines = ["", *lines[:5], "", *lines[5:9]]
    (tmp_path / "in.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    encode_sources, chunks = nmt.encode_sources, []

    def recorded(model, sources):
        chunks.append(len(sources))
        return encode_sources(model, sources)

    monkeypatch.setattr(nmt, "encode_sources", recorded)
    monkeypatch.setattr(pipeline, "_ENCODE_CHUNK", 4)
    outputs = pipeline.run_translate(config(trained_nmt, **{
        "translate.input": str(tmp_path / "in.txt"),
        "translate.output": str(tmp_path / "out.txt"),
    }))
    assert chunks == [4, 4, 3]
    model = nmt.load_model(str(root / "nmt" / "model.tfnmt"))
    sources = [corpus.tokenize(line) for line in lines]
    expected = []
    for start in range(0, len(sources), 4):
        chunk = sources[start:start + 4]
        for tokens, entry in zip(chunk, encode_sources(model, chunk)):
            out, attention, _ = nmt.translate(model, entry, 2)
            expected.append(nmt.replace_unk(out, attention, tokens))
    assert outputs == expected
    assert outputs[0] == outputs[6] == ()
    assert all(outputs[i] for i in range(len(lines)) if i not in (0, 6))
    written = (tmp_path / "out.txt").read_text(encoding="utf-8")
    assert written == "".join(" ".join(out) + "\n" for out in expected)
