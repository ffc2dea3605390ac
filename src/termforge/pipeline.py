"""Pipeline subcommands composing the module operations end to end.

Every saver is atomic by itself (see :mod:`termforge.files`), so
interrupted runs never leave partial outputs behind.  Every text input is
read as UTF-8 lines ending at ``\n``, ``\r\n`` or ``\r``, and an
undecodable byte raises :class:`InputError` naming the file and line.
Given the same configuration and seed, reruns produce byte-identical
artifacts.  Each stage handles its items (sentence pairs to align, lines
to translate) in input order, in one thread: one after another, except
that NMT translation encodes the sources of a chunk of lines together, one
batch per source length, before it searches each line in turn.

Stages run in one process share parsed models: the phrase table, the
language model and the NMT model are parsed once and reused while their
files' contents (by sha256) stay the same, so ``tune`` followed by
several ``translate`` calls parses each file once.  A model a stage
writes is never parsed again in that process: ``train-smt`` keeps the
phrase table and language model its savers return, which are the models
their loaders read back from the files just written.  A changed file is
parsed again.  Settings that a trained model already fixes are read from
the model, not from the config: the phrase-length limit is the phrase table's longest source
phrase, and an NMT model is subword-level exactly when it holds BPE
merges.  Every other setting, default and bound included, is declared in
:data:`termforge.config.KEYS` and checked when the config is loaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os

from . import align, bpe, corpus, inject, lm, metrics, nmt, smt
from .config import PipelineConfig
from .errors import ConfigError, MarkupError, ModelFormatError, SearchError
from .files import atomic_open, read_lines
from .fixtures import write_fixture_files

log = logging.getLogger("termforge.pipeline")


def _load_split(cfg: PipelineConfig, split: str) -> corpus.ParallelCorpus:
    return corpus.load_parallel(
        cfg.input_path(f"corpus.{split}.source"),
        cfg.input_path(f"corpus.{split}.target"),
        name=cfg[f"corpus.{split}.name"],
    )


def _guard_model_dir(path: str, force: bool) -> None:
    if os.path.exists(path) and os.listdir(path) and not force:
        raise ConfigError(
            f"model directory {path} already exists; pass --force to overwrite"
        )
    os.makedirs(path, exist_ok=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_prepare(cfg: PipelineConfig) -> None:
    """Generate the synthetic fixture corpora when configured.

    With ``fixtures.dir`` set, writes the two-domain toy corpora and the
    terminology lexicon there (idempotent: identical seeds rewrite the same
    bytes).
    """
    fixtures_dir, seed = cfg.path("fixtures.dir"), cfg["fixtures.seed"]
    paths = write_fixture_files(fixtures_dir, seed=cfg["seed"] if seed is None else seed)
    log.info("prepare: wrote %d fixture files to %s", len(paths), fixtures_dir)


def run_stats(cfg: PipelineConfig) -> str:
    """Corpus statistics plus word/term overlap of eval sets vs training."""
    train = _load_split(cfg, "train")
    sections = [corpus.format_stats([corpus.corpus_stats(train)])]
    overlaps = []
    for split in ("dev", "eval"):
        if cfg[f"corpus.{split}.source"] is None:
            continue
        split_corpus = _load_split(cfg, split)
        sections.append(corpus.format_stats([corpus.corpus_stats(split_corpus)]))
        overlaps.append(corpus.overlap_report(split_corpus, train, name=split))
    if overlaps:
        sections.append(corpus.format_overlap(overlaps))
    report = "\n".join(sections)
    with atomic_open(cfg.path("stats.output")) as f:
        f.write(report)
    return report


def run_train_smt(cfg: PipelineConfig, force: bool = False) -> None:
    """Word alignment, phrase extraction, language model, default weights.

    EM, Viterbi alignment and phrase extraction run first; then the word
    table and the alignments are dropped, and the phrase table is written.
    Only then is the language model trained and written, and the default
    weights last.  Each saver returns the model its loader reads back from
    the file just written, which replaces the trained one, and that model
    is kept as the one this process parsed from the file (see
    :func:`_parse_once`): ``tune``, ``adapt`` and ``translate`` in the
    same process parse neither file.  So the written phrase table stays
    alive through LM training.
    """
    model_dir = cfg.path("model.smt.dir")
    _guard_model_dir(model_dir, force)
    train = _load_split(cfg, "train")
    table = align.ibm1_em(train, cfg["smt.em_iterations"])
    alignments = [align.viterbi_align(table, pair) for pair in train.pairs]
    ptable = align.extract_phrases(train, alignments, table, cfg["smt.max_phrase_len"])
    del table, alignments
    entries = len(ptable)
    path = os.path.join(model_dir, "phrase-table.txt")
    ptable = align.save_phrase_table(ptable, path)
    _keep_parsed("phrase-table", path, ptable)
    model = lm.train_lm(train.target_sentences, order=cfg["smt.lm_order"])
    path = os.path.join(model_dir, "lm.arpa")
    model = lm.save_arpa(model, path)
    _keep_parsed("lm", path, model)
    smt.save_weights(
        smt.LogLinearWeights.default(), os.path.join(model_dir, "weights.txt")
    )
    log.info("train-smt: %d phrase entries -> %s", entries, model_dir)


# slot name -> ((path, sha256 of the file), parsed model); one slot per
# model kind, so a process keeps at most one extra of each
_PARSED: dict[str, tuple[tuple, object]] = {}


def _file_key(path: str) -> tuple[str, bytes]:
    """The absolute path and the sha256 of the file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    return os.path.abspath(path), digest.digest()


def _keep_parsed(slot: str, path: str, model) -> None:
    """Keep ``model``, which a saver returned, as the one parsed from
    ``path``; a None model (the loader rejects the file) is not kept, so
    the next :func:`_parse_once` raises the loader's error."""
    if model is not None:
        _PARSED[slot] = (_file_key(path), model)


def _parse_once(slot: str, loader, path: str):
    """``loader(path)``, or the model kept in ``slot`` when it came from a
    file with the same path and bytes: one the last call for ``slot``
    parsed, or one a stage of this process wrote (see
    :func:`run_train_smt`), so no stage parses a file the process wrote
    itself.

    The digest is taken before parsing, so a file replaced while it is
    parsed is parsed again by the next call.  A shared phrase table keeps
    filling its own cache of built options as its callers look phrases up
    (see :class:`align.PhraseTable`); that changes none of its answers.
    """
    key = _file_key(path)
    cached = _PARSED.get(slot)
    if cached is not None and cached[0] == key:
        return cached[1]
    model = loader(path)
    _PARSED[slot] = (key, model)
    return model


def _smt_artifacts(cfg: PipelineConfig, weights_name: str = "weights.txt"):
    """The SMT model directory, phrase table, LM and weights.

    The phrase table and LM are parsed once per process for given file
    contents (see :func:`_parse_once`): tune and every translate call on
    unchanged files share the same objects, which callers must treat as
    read-only.  The phrase table was checked line by line when loaded and
    builds each source phrase's options on its first lookup, so a call
    pays only for the phrases no earlier call looked up.  The weights are
    read on every call.
    """
    model_dir = cfg.path("model.smt.dir")
    ptable = _parse_once(
        "phrase-table", align.load_phrase_table,
        os.path.join(model_dir, "phrase-table.txt"),
    )
    model = _parse_once("lm", lm.load_arpa, os.path.join(model_dir, "lm.arpa"))
    weights = smt.load_weights(os.path.join(model_dir, weights_name))
    return model_dir, ptable, model, weights


def _beam(cfg: PipelineConfig) -> smt.BeamConfig:
    return smt.BeamConfig(
        stack_size=cfg["smt.stack_size"], distortion_limit=cfg["smt.distortion_limit"]
    )


def run_tune(cfg: PipelineConfig, weights_out: str = "weights.txt") -> None:
    """MERT on the configured development set; overwrites the weights file."""
    model_dir, ptable, model, weights = _smt_artifacts(cfg)
    dev = _load_split(cfg, "dev")
    try:
        tuned = smt.mert_tune(
            dev,
            ptable,
            model,
            weights,
            restarts=cfg["smt.mert.restarts"],
            iterations=cfg["smt.mert.iterations"],
            nbest=cfg["smt.mert.nbest"],
            seed=cfg["seed"],
            beam=_beam(cfg),
        )
    except SearchError as exc:
        # dev sentences are searched in order, so the first line holding
        # the uncoverable tokens is the one that failed
        source = cfg.input_path("corpus.dev.source")
        lineno = next(
            lineno for lineno, line in enumerate(read_lines(source), start=1)
            if corpus.tokenize(line) == exc.tokens
        )
        raise SearchError(f"{source}: line {lineno}: {exc}", exc.tokens) from None
    smt.save_weights(tuned, os.path.join(model_dir, weights_out))
    log.info("tune: wrote %s", weights_out)


def _nmt_config(cfg: PipelineConfig, adapt: bool = False) -> nmt.TrainConfig:
    """The NMT training settings, or with ``adapt`` the fine-tuning ones
    (``nmt.adapt.*`` over ``nmt.*``).

    Gradient clipping, the learning-rate decay and the vocabulary caps
    keep their :class:`nmt.TrainConfig` defaults; fine-tuning never decays
    its rate, and it keeps the dropout of the model it starts from.
    """
    prefix = "nmt.adapt." if adapt else "nmt."
    config = nmt.TrainConfig(
        layers=cfg["nmt.layers"],
        hidden=cfg["nmt.hidden"],
        batch_size=cfg[prefix + "batch_size"],
        dropout=cfg["nmt.dropout"],
        epochs=cfg[prefix + "epochs"],
        learning_rate=cfg[prefix + "learning_rate"],
        seed=cfg["seed"],
    )
    return dataclasses.replace(config, decay_factor=1.0) if adapt else config


def run_train_nmt(cfg: PipelineConfig, force: bool = False) -> None:
    """Train the neural model, learning subword merges first when asked."""
    model_dir = cfg.path("model.nmt.dir")
    _guard_model_dir(model_dir, force)
    train_corpus = _load_split(cfg, "train")
    src_bpe = tgt_bpe = None
    if cfg["nmt.segmentation"] == "bpe":
        src_bpe = bpe.learn_bpe(
            corpus.word_frequencies(train_corpus.source_sentences), cfg["bpe.num_merges"]
        )
        tgt_bpe = bpe.learn_bpe(
            corpus.word_frequencies(train_corpus.target_sentences), cfg["bpe.num_merges"]
        )
    model = nmt.train(train_corpus, _nmt_config(cfg), src_bpe=src_bpe, tgt_bpe=tgt_bpe)
    nmt.save_model(model, os.path.join(model_dir, "model.tfnmt"))
    log.info("train-nmt: saved %s model to %s", cfg["nmt.segmentation"], model_dir)


def run_adapt(cfg: PipelineConfig) -> None:
    """Domain adaptation, from the configured dev terms, of each system
    whose model directory holds a trained model: re-run MERT for the SMT
    weights and fine-tune the neural weights."""
    smt_dir, nmt_dir = cfg.path("model.smt.dir"), cfg.path("model.nmt.dir")
    has_smt = os.path.exists(os.path.join(smt_dir, "phrase-table.txt"))
    nmt_path = os.path.join(nmt_dir, "model.tfnmt")
    has_nmt = os.path.exists(nmt_path)
    if not (has_smt or has_nmt):
        raise ConfigError(
            f"adapt: no trained SMT model in {smt_dir} and no NMT model in {nmt_dir}"
        )
    if has_smt:
        run_tune(cfg, weights_out="weights-adapted.txt")
    if has_nmt:
        dev = _load_split(cfg, "dev")
        adapted = nmt.fine_tune(nmt.load_model(nmt_path), dev, _nmt_config(cfg, adapt=True))
        nmt.save_model(adapted, os.path.join(nmt_dir, "model-adapted.tfnmt"))
    log.info("adapt: done")


def run_inject(cfg: PipelineConfig) -> None:
    """Rank the external lexicon and annotate the evaluation source with
    constraint spans; also writes the ranked lexicon for the NMT path."""
    ranking, mode = cfg["inject.ranking"], cfg["inject.mode"]
    lexicon = corpus.load_lexicon(cfg.input_path("lexicon.path"))
    domain = None  # uniform ranking reads no domain
    if ranking == inject.COSINE:
        dev = _load_split(cfg, "dev")
        domain = inject.domain_vector(
            [tok for s, t in dev.pairs for tok in (*s, *t)]
        )
    ranked = inject.rank_candidates(lexicon, domain)
    eval_corpus = _load_split(cfg, "eval")
    lines = [
        smt.format_markup(inject.annotate(src, ranked, mode))
        for src, _ in eval_corpus.pairs
    ]
    with atomic_open(cfg.path("inject.output")) as f:
        f.write("\n".join(lines) + "\n")
    corpus.save_lexicon(ranked, cfg.path("inject.lexicon_output"))
    log.info("inject: annotated %d lines (%s, %s)", len(lines), mode, ranking)


# input lines per nmt.encode_sources call: bounds the encoder states that
# wait for their beam search on a large input
_ENCODE_CHUNK = 256


def run_translate(cfg: PipelineConfig) -> list[tuple[str, ...]]:
    """Translate the configured input with the chosen system, one output
    line per input line: a blank line gives a blank line.

    The NMT system encodes each chunk of :data:`_ENCODE_CHUNK` lines with
    one encoder pass per source length (see :func:`nmt.encode_sources`),
    then runs one beam search per line from its entry."""
    system, mode = cfg["translate.system"], cfg["inject.mode"]
    input_path = cfg.input_path("translate.input")
    lines = read_lines(input_path)

    if system == "smt":
        beam, weights_name = _beam(cfg), cfg["translate.weights"]
        weights_path = os.path.join(cfg.path("model.smt.dir"), weights_name)
        if not os.path.exists(weights_path):
            raise ConfigError(f"translate.weights: {weights_path} does not exist")
        _, ptable, model, weights = _smt_artifacts(cfg, weights_name)

        def translate_line(lineno, line):
            try:
                annotated = smt.parse_markup(line, mode=mode)
                return smt.decode(annotated, ptable, model, weights, beam).tokens
            except MarkupError as exc:
                raise MarkupError(f"{input_path}: line {lineno}: {exc}") from None
            except SearchError as exc:
                raise SearchError(
                    f"{input_path}: line {lineno}: {exc}", exc.tokens
                ) from None

        outputs = [translate_line(lineno, line) for lineno, line in enumerate(lines, start=1)]
    else:
        model = _parse_once(
            "nmt-model", nmt.load_model,
            os.path.join(cfg.path("model.nmt.dir"), cfg["translate.model"]),
        )
        beam_width, lexicon = cfg["translate.beam"], None
        if cfg["translate.replace_unk_lexicon"] is not None:
            lexicon = corpus.load_lexicon(cfg.input_path("translate.replace_unk_lexicon"))

        sources = [corpus.tokenize(line) for line in lines]
        outputs = []
        for start in range(0, len(sources), _ENCODE_CHUNK):
            chunk = sources[start:start + _ENCODE_CHUNK]
            for tokens, entry in zip(chunk, nmt.encode_sources(model, chunk)):
                out, attention, _ = nmt.translate(model, entry, beam_width)
                if model.tgt_bpe is None:
                    outputs.append(nmt.replace_unk(out, attention, tokens, lexicon))
                else:
                    outputs.append(bpe.decode_bpe(out))

    text = "".join(" ".join(tokens) + "\n" for tokens in outputs)
    with atomic_open(cfg.path("translate.output")) as f:
        f.write(text)
    log.info("translate: %d lines via %s", len(outputs), system)
    return outputs


def run_evaluate(cfg: PipelineConfig) -> metrics.MetricScore:
    """Score a hypothesis file against references and record the scores in
    the results TSV consumed by the report subcommand, replacing the rows of
    an earlier run for the same (system, evalset) in place."""
    pairs = corpus.load_parallel(
        cfg.input_path("evaluate.hypotheses"), cfg.input_path("evaluate.references")
    )
    score = metrics.score_all(pairs.source_sentences, pairs.target_sentences)
    system, evalset = cfg["evaluate.system"], cfg["evaluate.evalset"]
    results_path = cfg.path("evaluate.results")
    results = metrics.load_results(results_path) if os.path.exists(results_path) else {}
    results[system, evalset] = {name: getattr(score, name) for _, name in metrics.REPORTED}
    metrics.save_results(results, results_path)
    log.info(
        "evaluate: %s on %s -> BLEU %.2f chrF3 %.2f METEOR %.2f",
        system, evalset, score.bleu, score.chrf3, score.meteor,
    )
    return score


def run_report(cfg: PipelineConfig) -> str:
    """Assemble the matrix report from the accumulated results TSV (see
    :func:`metrics.load_results`)."""
    results_path = cfg.input_path("evaluate.results")
    results = metrics.load_results(results_path)
    if not results:
        raise ModelFormatError(f"{results_path}: no results to report")
    report = metrics.format_report(results)
    with atomic_open(cfg.path("report.output")) as f:
        f.write(report)
    return report
