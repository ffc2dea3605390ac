"""Pipeline subcommands composing the module operations end to end.

Every saver is atomic by itself (see :mod:`termforge.files`), so
interrupted runs never leave partial outputs behind.  Every text input is
read as UTF-8 lines ending at ``\n``, ``\r\n`` or ``\r``, and an
undecodable byte raises :class:`InputError` naming the file and line.
Given the same configuration and seed, reruns produce byte-identical
artifacts.  Each stage handles its items (sentence pairs to align, lines
to translate) one after another, in input order, in one thread.

Stages run in one process share parsed models: the phrase table, the
language model and the NMT model are parsed once and reused while their
files' contents (by sha256) stay the same, so ``tune`` followed by
several ``translate`` calls parses each file once.  A changed file is
parsed again.  Settings that a trained model already fixes are read from
the model, not from the config: the phrase-length limit is the phrase table's longest source
phrase, and an NMT model is subword-level exactly when it holds BPE
merges.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os

from . import align, bpe, corpus, inject, lm, metrics, nmt, smt
from .config import PipelineConfig
from .errors import ConfigError, MarkupError, SearchError
from .files import atomic_open, read_lines
from .fixtures import write_fixture_files

log = logging.getLogger("termforge.pipeline")


def _choice(cfg: PipelineConfig, key: str, default: str, choices) -> str:
    """The value of ``key``, which must be one of ``choices``."""
    value = cfg.get(key, default)
    if value not in choices:
        raise ConfigError(
            f"{key} must be one of {', '.join(choices)}, got {value!r}"
        )
    return value


def _at_least(cfg: PipelineConfig, key: str, default: int, minimum: int) -> int:
    """The integer value of ``key``, which must be ``>= minimum``."""
    value = cfg.get_int(key, default)
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _load_split(cfg: PipelineConfig, split: str) -> corpus.ParallelCorpus:
    return corpus.load_parallel(
        cfg.input_path(f"corpus.{split}.source"),
        cfg.input_path(f"corpus.{split}.target"),
        name=cfg.get(f"corpus.{split}.name", split),
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
    fixtures_dir = cfg.get("fixtures.dir")
    if fixtures_dir is None:
        raise ConfigError("prepare needs fixtures.dir")
    paths = write_fixture_files(
        cfg.path("fixtures.dir"), seed=cfg.get_int("fixtures.seed", cfg.seed)
    )
    log.info("prepare: wrote %d fixture files to %s", len(paths), fixtures_dir)


def run_stats(cfg: PipelineConfig) -> str:
    """Corpus statistics plus word/term overlap of eval sets vs training."""
    train = _load_split(cfg, "train")
    sections = [corpus.format_stats([corpus.corpus_stats(train)])]
    overlaps = []
    for split in ("dev", "eval"):
        if cfg.get(f"corpus.{split}.source") is None:
            continue
        split_corpus = _load_split(cfg, split)
        sections.append(corpus.format_stats([corpus.corpus_stats(split_corpus)]))
        overlaps.append(corpus.overlap_report(split_corpus, train, name=split))
    if overlaps:
        sections.append(corpus.format_overlap(overlaps))
    report = "\n".join(sections)
    with atomic_open(cfg.path("stats.output", "stats.txt")) as f:
        f.write(report)
    return report


def run_train_smt(cfg: PipelineConfig, force: bool = False) -> None:
    """Word alignment, phrase extraction, language model, default weights.

    One model is alive at a time.  EM, Viterbi alignment and phrase
    extraction run first; then the word table and the alignments are
    dropped, and the phrase table is written and dropped.  Only then is
    the language model trained and written, and the default weights last.
    """
    iterations = _at_least(cfg, "smt.em_iterations", 8, 1)
    max_phrase_len = _at_least(cfg, "smt.max_phrase_len", 7, 1)
    order = _at_least(cfg, "smt.lm_order", 5, 1)
    model_dir = cfg.path("model.smt.dir", "smt-model")
    _guard_model_dir(model_dir, force)
    train = _load_split(cfg, "train")
    table = align.ibm1_em(train, iterations)
    alignments = [align.viterbi_align(table, pair) for pair in train.pairs]
    ptable = align.extract_phrases(train, alignments, table, max_phrase_len)
    del table, alignments
    entries = len(ptable)
    align.save_phrase_table(ptable, os.path.join(model_dir, "phrase-table.txt"))
    del ptable
    model = lm.train_lm(train.target_sentences, order=order)
    lm.save_arpa(model, os.path.join(model_dir, "lm.arpa"))
    smt.save_weights(
        smt.LogLinearWeights.default(), os.path.join(model_dir, "weights.txt")
    )
    log.info("train-smt: %d phrase entries -> %s", entries, model_dir)


# slot name -> ((path, sha256 of the file), parsed model); one slot per
# model kind, so a process keeps at most one extra of each
_PARSED: dict[str, tuple[tuple, object]] = {}


def _parse_once(slot: str, loader, path: str):
    """``loader(path)``, or the model the last call for ``slot`` parsed
    when the file's bytes are unchanged.

    The digest is taken before parsing, so a file replaced while it is
    parsed is parsed again by the next call.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    key = (os.path.abspath(path), digest.digest())
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
    read-only.  The weights are read on every call.
    """
    model_dir = cfg.path("model.smt.dir", "smt-model")
    ptable = _parse_once(
        "phrase-table", align.load_phrase_table,
        os.path.join(model_dir, "phrase-table.txt"),
    )
    model = _parse_once("lm", lm.load_arpa, os.path.join(model_dir, "lm.arpa"))
    weights = smt.load_weights(os.path.join(model_dir, weights_name))
    return model_dir, ptable, model, weights


def _beam(cfg: PipelineConfig) -> smt.BeamConfig:
    return smt.BeamConfig(
        stack_size=_at_least(cfg, "smt.stack_size", 100, 1),
        distortion_limit=_at_least(cfg, "smt.distortion_limit", 6, 0),
    )


def run_tune(cfg: PipelineConfig, weights_out: str = "weights.txt") -> None:
    """MERT on the configured development set; overwrites the weights file."""
    beam = _beam(cfg)
    restarts = _at_least(cfg, "smt.mert.restarts", 3, 0)
    iterations = _at_least(cfg, "smt.mert.iterations", 4, 0)
    nbest = _at_least(cfg, "smt.mert.nbest", 100, 1)
    model_dir, ptable, model, weights = _smt_artifacts(cfg)
    dev = _load_split(cfg, "dev")
    try:
        tuned = smt.mert_tune(
            dev,
            ptable,
            model,
            weights,
            restarts=restarts,
            iterations=iterations,
            nbest=nbest,
            seed=cfg.seed,
            beam=beam,
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


# TrainConfig fields that fine-tuning reads from nmt.adapt.* keys
_ADAPT_FIELDS = ("epochs", "batch_size", "learning_rate")


def _nmt_config(cfg: PipelineConfig, adapt: bool = False) -> nmt.TrainConfig:
    """The NMT training settings, or with ``adapt`` the fine-tuning ones
    (``nmt.adapt.*`` over ``nmt.*``).  A value out of range raises a
    ConfigError naming its key.

    Gradient clipping, the learning-rate decay and the vocabulary caps
    keep their :class:`nmt.TrainConfig` defaults; fine-tuning never decays
    its rate, and it keeps the dropout of the model it starts from.
    """
    config = nmt.TrainConfig(
        layers=cfg.get_int("nmt.layers", 2),
        hidden=cfg.get_int("nmt.hidden", 64),
        batch_size=cfg.get_int("nmt.batch_size", 16),
        dropout=cfg.get_float("nmt.dropout", 0.3),
        epochs=cfg.get_int("nmt.epochs", 13),
        learning_rate=cfg.get_float("nmt.learning_rate", 1.0),
        seed=cfg.seed,
    )
    if adapt:
        config = dataclasses.replace(
            config,
            epochs=cfg.get_int("nmt.adapt.epochs", 35),
            batch_size=cfg.get_int("nmt.adapt.batch_size", 2),
            learning_rate=cfg.get_float("nmt.adapt.learning_rate", 1.0),
            decay_factor=1.0,
        )
    try:
        config.validate()
    except ValueError as exc:
        field = str(exc).split()[0]  # validate names the field first
        prefix = "nmt.adapt." if adapt and field in _ADAPT_FIELDS else "nmt."
        raise ConfigError(f"{prefix}{exc}") from None
    return config


def run_train_nmt(cfg: PipelineConfig, force: bool = False) -> None:
    """Train the neural model, learning subword merges first when asked."""
    segmentation = _choice(cfg, "nmt.segmentation", "word", ("word", "bpe"))
    config = _nmt_config(cfg)
    merges = _at_least(cfg, "bpe.num_merges", 1000, 0)
    model_dir = cfg.path("model.nmt.dir", "nmt-model")
    _guard_model_dir(model_dir, force)
    train_corpus = _load_split(cfg, "train")
    src_bpe = tgt_bpe = None
    if segmentation == "bpe":
        src_bpe = bpe.learn_bpe(
            corpus.word_frequencies(train_corpus.source_sentences), merges
        )
        tgt_bpe = bpe.learn_bpe(
            corpus.word_frequencies(train_corpus.target_sentences), merges
        )
    model = nmt.train(train_corpus, config, src_bpe=src_bpe, tgt_bpe=tgt_bpe)
    nmt.save_model(model, os.path.join(model_dir, "model.tfnmt"))
    log.info("train-nmt: saved %s model to %s", segmentation, model_dir)


def run_adapt(cfg: PipelineConfig) -> None:
    """Domain adaptation for both systems from the configured dev terms:
    re-run MERT for the SMT weights and fine-tune the neural weights."""
    did = False
    nmt_path = ft_config = None
    if cfg.get("model.nmt.dir") is not None:
        ft_config = _nmt_config(cfg, adapt=True)
        candidate = os.path.join(cfg.path("model.nmt.dir"), "model.tfnmt")
        if os.path.exists(candidate):
            nmt_path = candidate
    smt_dir = cfg.get("model.smt.dir")
    if smt_dir is not None and os.path.exists(
        os.path.join(cfg.path("model.smt.dir"), "phrase-table.txt")
    ):
        run_tune(cfg, weights_out="weights-adapted.txt")
        did = True
    if nmt_path is not None:
        model = nmt.load_model(nmt_path)
        dev = _load_split(cfg, "dev")
        adapted = nmt.fine_tune(model, dev, ft_config)
        nmt.save_model(
            adapted, os.path.join(cfg.path("model.nmt.dir"), "model-adapted.tfnmt")
        )
        did = True
    if not did:
        raise ConfigError("adapt: no trained SMT or NMT model found to adapt")
    log.info("adapt: done")


def run_inject(cfg: PipelineConfig) -> None:
    """Rank the external lexicon and annotate the evaluation source with
    constraint spans; also writes the ranked lexicon for the NMT path."""
    ranking = _choice(
        cfg, "inject.ranking", inject.UNIFORM, (inject.UNIFORM, inject.COSINE)
    )
    mode = _choice(cfg, "inject.mode", smt.EXCLUSIVE, smt.MODES)
    lexicon = corpus.load_lexicon(cfg.input_path("lexicon.path"))
    domain = inject.VocabVector()  # uniform ranking reads no domain
    if ranking == inject.COSINE:
        dev = _load_split(cfg, "dev")
        domain = inject.domain_vector(
            [tok for s, t in dev.pairs for tok in (*s, *t)]
        )
    ranked = inject.rank_candidates(domain, lexicon, ranking)
    eval_corpus = _load_split(cfg, "eval")
    lines = [
        smt.format_markup(inject.annotate(src, ranked, mode))
        for src, _ in eval_corpus.pairs
    ]
    with atomic_open(cfg.path("inject.output", "annotated.txt")) as f:
        f.write("\n".join(lines) + "\n")
    corpus.save_lexicon(ranked, cfg.path("inject.lexicon_output", "lexicon-ranked.tsv"))
    log.info("inject: annotated %d lines (%s, %s)", len(lines), mode, ranking)


def run_translate(cfg: PipelineConfig) -> list[tuple[str, ...]]:
    """Translate the configured input with the chosen system, one output
    line per input line: a blank line gives a blank line."""
    system = _choice(cfg, "translate.system", "smt", ("smt", "nmt"))
    mode = _choice(cfg, "inject.mode", smt.EXCLUSIVE, smt.MODES)
    beam_width = _at_least(cfg, "translate.beam", 5, 1)
    beam = _beam(cfg) if system == "smt" else None
    input_path = cfg.input_path("translate.input")
    lines = read_lines(input_path)

    if system == "smt":
        weights_name = cfg.get("translate.weights", "weights.txt")
        weights_path = os.path.join(cfg.path("model.smt.dir", "smt-model"), weights_name)
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

    else:
        model_name = cfg.get("translate.model", "model.tfnmt")
        model = _parse_once(
            "nmt-model", nmt.load_model,
            os.path.join(cfg.path("model.nmt.dir"), model_name),
        )
        lexicon = None
        lex_path = cfg.get("translate.replace_unk_lexicon")
        if lex_path is not None:
            lexicon = corpus.load_lexicon(cfg.input_path("translate.replace_unk_lexicon"))

        def translate_line(lineno, line):
            tokens = corpus.tokenize(line)
            out, attention, _ = nmt.translate(model, tokens, beam_width=beam_width)
            if model.tgt_bpe is None:
                return nmt.replace_unk(out, attention, tokens, lexicon)
            return bpe.decode_bpe(out, marker=model.tgt_bpe.marker)

    outputs = [translate_line(lineno, line) for lineno, line in enumerate(lines, start=1)]
    text = "".join(" ".join(tokens) + "\n" for tokens in outputs)
    with atomic_open(cfg.path("translate.output", "hypotheses.txt")) as f:
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
    system = cfg.get("evaluate.system", "system")
    evalset = cfg.get("evaluate.evalset", "eval")
    results_path = cfg.path("evaluate.results", "results.tsv")
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
    report = metrics.format_report(
        metrics.load_results(cfg.input_path("evaluate.results"))
    )
    with atomic_open(cfg.path("report.output", "report.txt")) as f:
        f.write(report)
    return report
