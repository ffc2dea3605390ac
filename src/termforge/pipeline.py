"""Pipeline subcommands composing the module operations end to end.

Every artifact is written atomically (temp file in the target directory,
then rename), so interrupted runs never leave partial outputs behind.
Given the same configuration and seed, reruns produce byte-identical
artifacts.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor

from . import align, bpe, corpus, inject, lm, metrics, nmt, smt
from .config import PipelineConfig
from .errors import ConfigError
from .fixtures import write_fixture_files

log = logging.getLogger("termforge.pipeline")


def _atomic_via(path, writer) -> None:
    """Run ``writer(tmp_path)`` and rename the result into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path, content: str) -> None:
    def write(tmp):
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(content)

    _atomic_via(path, write)


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


def _normalization(cfg: PipelineConfig) -> corpus.Normalization:
    return corpus.Normalization(
        lowercase=cfg.get_bool("normalize.lowercase", True),
        split_punctuation=cfg.get_bool("normalize.split_punctuation", True),
    )


def _load_split(cfg: PipelineConfig, split: str) -> corpus.ParallelCorpus:
    return corpus.load_parallel(
        cfg.input_path(f"corpus.{split}.source"),
        cfg.input_path(f"corpus.{split}.target"),
        normalization=_normalization(cfg),
        name=cfg.get(f"corpus.{split}.name", split),
    )


def _parallel_map(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _guard_model_dir(path: str, force: bool) -> None:
    if os.path.exists(path) and os.listdir(path) and not force:
        raise ConfigError(
            f"model directory {path} already exists; pass --force to overwrite"
        )
    os.makedirs(path, exist_ok=True)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_prepare(cfg: PipelineConfig, force: bool = False) -> None:
    """Generate the synthetic fixture corpora when configured.

    With ``fixtures.dir`` set, writes the two-domain toy corpora and the
    terminology lexicon there (idempotent: identical seeds rewrite the same
    bytes).
    """
    fixtures_dir = cfg.get("fixtures.dir")
    if fixtures_dir is None:
        raise ConfigError("prepare needs fixtures.dir")
    style = cfg.get("fixtures.domain_a_style", "reorder")
    paths = write_fixture_files(
        cfg.path("fixtures.dir"),
        seed=cfg.get_int("fixtures.seed", cfg.seed),
        domain_a_style=style,
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
    atomic_write(cfg.path("stats.output", "stats.txt"), report)
    return report


def run_train_smt(cfg: PipelineConfig, force: bool = False) -> None:
    """Word alignment, phrase extraction, language model, default weights."""
    iterations = _at_least(cfg, "smt.em_iterations", 8, 1)
    max_phrase_len = _at_least(cfg, "smt.max_phrase_len", 7, 1)
    order = _at_least(cfg, "smt.lm_order", 5, 1)
    model_dir = cfg.path("model.smt.dir", "smt-model")
    _guard_model_dir(model_dir, force)
    train = _load_split(cfg, "train")
    table = align.ibm1_em(train, iterations)
    sym = cfg.get("smt.symmetrization", "grow-diag")
    threads = cfg.threads
    alignments = _parallel_map(
        lambda pair: align.viterbi_align(table, pair, sym), train.pairs, threads
    )
    ptable = align.extract_phrases(
        train, alignments, max_phrase_len=max_phrase_len, table=table
    )
    model = lm.train_lm(train.target_sentences, order=order)
    _atomic_via(
        os.path.join(model_dir, "phrase-table.txt"),
        lambda tmp: align.save_phrase_table(ptable, tmp),
    )
    _atomic_via(
        os.path.join(model_dir, "lm.arpa"), lambda tmp: lm.save_arpa(model, tmp)
    )
    _atomic_via(
        os.path.join(model_dir, "weights.txt"),
        lambda tmp: smt.save_weights(smt.LogLinearWeights.default(), tmp),
    )
    log.info("train-smt: %d phrase entries -> %s", len(ptable), model_dir)


def _smt_artifacts(cfg: PipelineConfig, weights_name: str = "weights.txt"):
    model_dir = cfg.path("model.smt.dir", "smt-model")
    ptable = align.load_phrase_table(
        os.path.join(model_dir, "phrase-table.txt"),
        max_phrase_len=_at_least(cfg, "smt.max_phrase_len", 7, 1),
    )
    model = lm.load_arpa(os.path.join(model_dir, "lm.arpa"))
    weights_path = os.path.join(model_dir, weights_name)
    if not os.path.exists(weights_path):
        weights_path = os.path.join(model_dir, "weights.txt")
    weights = smt.load_weights(weights_path)
    return model_dir, ptable, model, weights


def _beam(cfg: PipelineConfig) -> smt.BeamConfig:
    return smt.BeamConfig(
        stack_size=_at_least(cfg, "smt.stack_size", 100, 1),
        distortion_limit=_at_least(cfg, "smt.distortion_limit", 6, 0),
    )


def run_tune(cfg: PipelineConfig, weights_out: str = "weights.txt") -> None:
    """MERT on the configured development set; overwrites the weights file."""
    beam = _beam(cfg)
    model_dir, ptable, model, weights = _smt_artifacts(cfg)
    dev = _load_split(cfg, "dev")
    tuned = smt.mert_tune(
        dev,
        ptable,
        model,
        weights,
        restarts=cfg.get_int("smt.mert.restarts", 3),
        iterations=cfg.get_int("smt.mert.iterations", 4),
        nbest=cfg.get_int("smt.mert.nbest", 100),
        seed=cfg.seed,
        beam=beam,
    )
    _atomic_via(
        os.path.join(model_dir, weights_out),
        lambda tmp: smt.save_weights(tuned, tmp),
    )
    log.info("tune: wrote %s", weights_out)


# TrainConfig fields that fine-tuning reads from nmt.adapt.* keys
_ADAPT_FIELDS = ("epochs", "batch_size", "dropout", "learning_rate", "decay_factor")


def _nmt_config(cfg: PipelineConfig, adapt: bool = False) -> nmt.TrainConfig:
    """The NMT training settings, or with ``adapt`` the fine-tuning ones
    (``nmt.adapt.*`` over ``nmt.*``).  A value out of range raises a
    ConfigError naming its key."""
    config = nmt.TrainConfig(
        layers=cfg.get_int("nmt.layers", 2),
        hidden=cfg.get_int("nmt.hidden", 64),
        embed=cfg.get_int("nmt.embed", None),
        batch_size=cfg.get_int("nmt.batch_size", 16),
        dropout=cfg.get_float("nmt.dropout", 0.3),
        epochs=cfg.get_int("nmt.epochs", 13),
        learning_rate=cfg.get_float("nmt.learning_rate", 1.0),
        decay_factor=cfg.get_float("nmt.decay_factor", 0.5),
        clip_norm=cfg.get_float("nmt.clip_norm", 5.0),
        seed=cfg.seed,
        source_vocab_cap=cfg.get_int("nmt.source_vocab_cap", 50000),
        target_vocab_cap=cfg.get_int("nmt.target_vocab_cap", 50000),
        positional=cfg.get_bool("nmt.positional", False),
    )
    if adapt:
        config = dataclasses.replace(
            config,
            epochs=cfg.get_int("nmt.adapt.epochs", 35),
            batch_size=cfg.get_int("nmt.adapt.batch_size", 2),
            dropout=cfg.get_float("nmt.adapt.dropout", 0.0),
            learning_rate=cfg.get_float("nmt.adapt.learning_rate", 1.0),
            decay_factor=cfg.get_float("nmt.adapt.decay_factor", 1.0),
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
    model_dir = cfg.path("model.nmt.dir", "nmt-model")
    _guard_model_dir(model_dir, force)
    train_corpus = _load_split(cfg, "train")
    src_bpe = tgt_bpe = None
    if segmentation == "bpe":
        merges = cfg.get_int("bpe.num_merges", 1000)
        if cfg.get_bool("bpe.joint", False):
            freqs = corpus.word_frequencies(
                train_corpus.source_sentences + train_corpus.target_sentences
            )
            src_bpe = tgt_bpe = bpe.learn_bpe(freqs, merges)
        else:
            src_bpe = bpe.learn_bpe(
                corpus.word_frequencies(train_corpus.source_sentences), merges
            )
            tgt_bpe = bpe.learn_bpe(
                corpus.word_frequencies(train_corpus.target_sentences), merges
            )
        _atomic_via(
            os.path.join(model_dir, "bpe.source.codes"),
            lambda tmp: bpe.save_bpe(src_bpe, tmp),
        )
        _atomic_via(
            os.path.join(model_dir, "bpe.target.codes"),
            lambda tmp: bpe.save_bpe(tgt_bpe, tmp),
        )
    model = nmt.train(
        train_corpus, config, segmentation=segmentation,
        src_bpe=src_bpe, tgt_bpe=tgt_bpe,
    )
    _atomic_via(
        os.path.join(model_dir, "model.tfnmt"),
        lambda tmp: nmt.save_model(model, tmp),
    )
    log.info("train-nmt: saved %s model to %s", segmentation, model_dir)


def run_adapt(cfg: PipelineConfig) -> None:
    """Domain adaptation for both systems from the configured dev terms:
    re-run MERT for the SMT weights and fine-tune the neural weights."""
    did = False
    nmt_path = None
    if cfg.get("model.nmt.dir") is not None:
        candidate = os.path.join(cfg.path("model.nmt.dir"), "model.tfnmt")
        if os.path.exists(candidate):
            nmt_path = candidate
    ft_config = _nmt_config(cfg, adapt=True) if nmt_path is not None else None
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
        _atomic_via(
            os.path.join(cfg.path("model.nmt.dir"), "model-adapted.tfnmt"),
            lambda tmp: nmt.save_model(adapted, tmp),
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
    lexicon = corpus.load_lexicon(
        cfg.input_path("lexicon.path"), _normalization(cfg)
    )
    if ranking == inject.COSINE:
        dev = _load_split(cfg, "dev")
        domain = inject.domain_vector(
            [tok for s, t in dev.pairs for tok in (*s, *t)]
        )
        ranked = inject.rank_candidates(domain, lexicon, inject.COSINE)
    else:
        ranked = inject.rank_candidates(
            inject.VocabVector(), lexicon, inject.UNIFORM
        )
    eval_corpus = _load_split(cfg, "eval")
    lines = [
        smt.format_markup(inject.annotate(src, ranked, mode))
        for src, _ in eval_corpus.pairs
    ]
    atomic_write(cfg.path("inject.output", "annotated.txt"), "\n".join(lines) + "\n")
    _atomic_via(
        cfg.path("inject.lexicon_output", "lexicon-ranked.tsv"),
        lambda tmp: corpus.save_lexicon(ranked, tmp),
    )
    log.info("inject: annotated %d lines (%s, %s)", len(lines), mode, ranking)


def _strip_dangling(subwords: tuple[str, ...], marker: str) -> tuple[str, ...]:
    """Drop the continuation marker from a hypothesis' final piece, as
    subword-nmt's ``s/@@ ?$//`` does; a piece that was only the marker goes."""
    if not subwords or not subwords[-1].endswith(marker):
        return subwords
    last = subwords[-1][: -len(marker)]
    return subwords[:-1] + ((last,) if last else ())


def run_translate(cfg: PipelineConfig) -> list[tuple[str, ...]]:
    """Translate the configured input with the chosen system."""
    system = _choice(cfg, "translate.system", "smt", ("smt", "nmt"))
    beam_width = _at_least(cfg, "translate.beam", 5, 1)
    beam = _beam(cfg) if system == "smt" else None
    input_path = cfg.input_path("translate.input")
    norm = _normalization(cfg)
    with open(input_path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    mode = cfg.get("inject.mode", smt.EXCLUSIVE)
    threads = cfg.threads

    if system == "smt":
        weights_name = cfg.get("translate.weights", "weights.txt")
        _, ptable, model, weights = _smt_artifacts(cfg, weights_name)

        def translate_line(line):
            annotated = smt.parse_markup(line, mode=mode, normalization=norm)
            return smt.decode(annotated, ptable, model, weights, beam).tokens

        outputs = _parallel_map(translate_line, lines, threads)
    else:
        model_name = cfg.get("translate.model", "model.tfnmt")
        model = nmt.load_model(os.path.join(cfg.path("model.nmt.dir"), model_name))
        lexicon = None
        lex_path = cfg.get("translate.replace_unk_lexicon")
        if lex_path is not None:
            lexicon = corpus.load_lexicon(cfg.input_path("translate.replace_unk_lexicon"), norm)

        def translate_line(line):
            tokens = corpus.tokenize(line, norm)
            out, trace, _ = nmt.translate(model, tokens, beam_width=beam_width)
            if model.segmentation == "word":
                source_space = tokens
                out = nmt.replace_unk(out, trace, source_space, lexicon)
            else:
                out = bpe.decode_bpe(
                    _strip_dangling(out, model.tgt_bpe.marker),
                    marker=model.tgt_bpe.marker,
                )
            return out

        outputs = _parallel_map(translate_line, lines, threads)

    text = "\n".join(" ".join(tokens) for tokens in outputs) + "\n"
    atomic_write(cfg.path("translate.output", "hypotheses.txt"), text)
    log.info("translate: %d lines via %s", len(outputs), system)
    return outputs


def run_evaluate(cfg: PipelineConfig) -> metrics.MetricScore:
    """Score a hypothesis file against references and record the scores in
    the results TSV consumed by the report subcommand, replacing the rows of
    an earlier run for the same (system, evalset) in place."""
    norm = _normalization(cfg)
    with open(cfg.input_path("evaluate.hypotheses"), encoding="utf-8") as f:
        hyps = [corpus.tokenize(line, norm) for line in f.read().splitlines()]
    with open(cfg.input_path("evaluate.references"), encoding="utf-8") as f:
        refs = [corpus.tokenize(line, norm) for line in f.read().splitlines()]
    score = metrics.score_all(hyps, refs)
    system = cfg.get("evaluate.system", "system")
    evalset = cfg.get("evaluate.evalset", "eval")
    rows = metrics.format_report_tsv({system: {evalset: score}}).splitlines()
    results_path = cfg.path("evaluate.results", "results.tsv")
    existing = []
    if os.path.exists(results_path):
        with open(results_path, encoding="utf-8") as f:
            existing = f.read().splitlines()
    key = f"{system}\t{evalset}\t"
    lines = []
    for line in existing:
        if not line.startswith(key):
            lines.append(line)
        elif rows:  # the first old row of this pair takes the new rows
            lines.extend(rows)
            rows = []
    atomic_write(results_path, "\n".join(lines + rows) + "\n")
    log.info(
        "evaluate: %s on %s -> BLEU %.2f chrF3 %.2f METEOR %.2f",
        system, evalset, score.bleu, score.chrf3, score.meteor,
    )
    return score


def run_report(cfg: PipelineConfig) -> str:
    """Assemble the matrix report from the accumulated results TSV."""
    results_path = cfg.input_path("evaluate.results")
    table: dict[str, dict[str, dict[str, float]]] = {}
    with open(results_path, encoding="utf-8") as f:
        for line in f.read().splitlines():
            if not line.strip():
                continue
            system, evalset, metric, value = line.split("\t")
            table.setdefault(system, {}).setdefault(evalset, {})[metric] = float(value)
    results = {
        system: {
            evalset: metrics.MetricScore(
                bleu=vals.get("bleu", 0.0),
                chrf3=vals.get("chrf3", 0.0),
                meteor=vals.get("meteor", 0.0),
                segment_count=0,
            )
            for evalset, vals in per_system.items()
        }
        for system, per_system in table.items()
    }
    report = metrics.format_report(results)
    atomic_write(cfg.path("report.output", "report.txt"), report)
    return report
