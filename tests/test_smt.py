"""Stack decoder, injection semantics, markup round trip, MERT tuning."""

from __future__ import annotations

import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from termforge import smt
from termforge.align import PhraseOption, PhraseTable
from termforge.corpus import Candidate, ParallelCorpus, Tokens
from termforge.errors import MarkupError, ModelFormatError, SearchError
from termforge.lm import BOS, EOS, NgramLanguageModel, train_lm
from termforge.metrics import (
    BLEU_ORDER,
    bleu,
    bleu_from_stats,
    bleu_stats,
    ngram_counts,
    sum_bleu_stats,
)
from termforge.smt import (
    CONSTRAINT,
    EXCLUSIVE,
    FEATURE_NAMES,
    INCLUSIVE,
    MODES,
    AnnotatedInput,
    BeamConfig,
    DecodeResult,
    LogLinearWeights,
    Span,
    TranslationOption,
    _line_search_dim,
    _mask,
    _optimize_on_pool,
    _pool_bleu,
    _pool_dots,
    _upper_envelope,
    build_options,
    decode,
    decode_nbest,
    format_markup,
    load_weights,
    mert_tune,
    parse_markup,
    save_weights,
)

WIDE = BeamConfig(stack_size=100000, distortion_limit=100)


def toy_lm(sentences=None):
    sentences = sentences or [
        ("störungen", "der", "orbita"),
        ("störungen", "der", "orbita"),
        ("störungen", "der", "umlaufbahn"),
        ("der", "orbita",),
    ]
    return train_lm(sentences, order=3)


def toy_table():
    return PhraseTable(
        {
            ("disorders",): [PhraseOption(("störungen",), (0.9, 0.9, 0.9, 0.9))],
            ("of",): [PhraseOption(("der",), (0.9, 0.9, 0.9, 0.9))],
            ("orbit",): [
                PhraseOption(("umlaufbahn",), (0.8, 0.8, 0.8, 0.8)),
                PhraseOption(("orbita",), (0.1, 0.1, 0.1, 0.1)),
            ],
            ("of", "orbit"): [
                PhraseOption(("der", "umlaufbahn"), (0.6, 0.6, 0.6, 0.6)),
                PhraseOption(("der", "orbita"), (0.1, 0.1, 0.1, 0.1)),
            ],
        },
    )


class TestMarkup:
    def test_parses_markup_with_spaced_probs(self):
        line = '<n translation="orbita||umlaufbahn" prob="0.872 || 0.512">orbit</n>'
        annotated = parse_markup(f"disorders of {line}", mode=INCLUSIVE)
        assert annotated.tokens == ("disorders", "of", "orbit")
        (span,) = annotated.spans
        assert (span.start, span.end, span.mode) == (2, 3, INCLUSIVE)
        assert [(c.tokens, c.score) for c in span.candidates] == [
            (("orbita",), 0.872),
            (("umlaufbahn",), 0.512),
        ]

    def test_spacing_variants_equivalent(self):
        a = parse_markup('<n translation="a||b" prob="0.5||0.25">x</n>')
        b = parse_markup('<n translation="a || b" prob="0.5 || 0.25">x</n>')
        assert a == b

    def test_prob_defaults_to_one(self):
        annotated = parse_markup('<n translation="orbita">orbit</n>')
        assert annotated.spans[0].candidates[0].score == 1.0

    def test_roundtrip_identity(self):
        annotated = AnnotatedInput(
            ("disorders", "of", "orbit"),
            [
                Span(
                    2,
                    3,
                    [Candidate(("orbita",), 0.872),
                     Candidate(("umlaufbahn",), 0.512)],
                    EXCLUSIVE,
                )
            ],
        )
        again = parse_markup(format_markup(annotated), mode=EXCLUSIVE)
        assert again == annotated

    def test_mismatched_prob_count(self):
        with pytest.raises(MarkupError):
            parse_markup('<n translation="a||b" prob="0.5">x</n>')

    @pytest.mark.parametrize("prob", ["nan", "inf"])
    def test_non_finite_prob_rejected(self, prob):
        with pytest.raises(MarkupError, match="non-finite"):
            parse_markup(f'<n translation="a||b" prob="0.5||{prob}">x</n>')

    @pytest.mark.parametrize("prob", ["1.5", "-0.1", "1.0000001", "-1e-300"])
    def test_prob_outside_unit_interval_rejected(self, prob):
        with pytest.raises(MarkupError, match=rf"probability {float(prob)} outside \[0, 1\]"):
            parse_markup(f'<n translation="a||b" prob="0.5||{prob}">x</n>')

    @pytest.mark.parametrize("prob", ["0", "0.0", "-0.0", "1", "1.0"])
    def test_prob_bounds_accepted(self, prob):
        annotated = parse_markup(f'<n translation="a" prob="{prob}">x</n>')
        assert annotated.spans[0].candidates[0].score == float(prob)

    def test_overlapping_spans_rejected(self):
        bad = AnnotatedInput(
            ("a", "b"),
            [
                Span(0, 2, [Candidate(("x",), 1.0)]),
                Span(1, 2, [Candidate(("y",), 1.0)]),
            ],
        )
        with pytest.raises(MarkupError):
            bad.validate()

    def test_multiword_candidates(self):
        annotated = parse_markup(
            '<n translation="blut gefäßen||blutgefäßen">blood vessels</n>'
        )
        assert annotated.spans[0].candidates[0].tokens == ("blut", "gefäßen")


class TestWeightsIO:
    def test_roundtrip(self, tmp_path):
        weights = LogLinearWeights(np.array([0.3, -1.0, 0.5, 1.0, 0.9, -0.1, 0.25]))
        path = tmp_path / "weights.txt"
        save_weights(weights, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "phrase_fwd 0.3"
        again = load_weights(path)
        assert np.array_equal(again.values, weights.values)

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            LogLinearWeights(np.ones(3))

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("lm 0.5 extra", "line 5: expected 'name value'"),
            ("lm", "line 5: expected 'name value'"),
            ("lm half", "line 5: bad weight 'half'"),
            ("lm nan", "line 5: bad weight 'nan'"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, bad_line, message):
        path = tmp_path / "weights.txt"
        save_weights(LogLinearWeights.default(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[4].startswith("lm ")
        lines[4] = bad_line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f"{re.escape(str(path))}: {message}"):
            load_weights(path)

    @pytest.mark.parametrize(
        "extra_line, message",
        [
            ("lm 7.0", "line 8: repeated weight 'lm'"),
            ("distortoin 9.0", "line 8: unknown weight name 'distortoin'"),
        ],
    )
    def test_repeated_or_unknown_name_names_file_and_line(
        self, tmp_path, extra_line, message
    ):
        path = tmp_path / "weights.txt"
        save_weights(LogLinearWeights.default(), path)
        with path.open("a", encoding="utf-8") as f:
            f.write(extra_line + "\n")
        with pytest.raises(ModelFormatError, match=f"{re.escape(str(path))}: {message}"):
            load_weights(path)

    def test_missing_feature_names_file_and_feature(self, tmp_path):
        path = tmp_path / "weights.txt"
        save_weights(LogLinearWeights.default(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(
            ModelFormatError, match=f"{re.escape(str(path))}: no weight for distortion"
        ):
            load_weights(path)


def brute_force_decode(tokens, table, lm, weights, distortion_limit):
    """Exhaustive search over segmentations and orderings.

    Independent of the decoder: options come straight from table lookups
    (plus verbatim copies for uncovered tokens) and scores are recomputed
    from scratch for every complete candidate.
    """
    n = len(tokens)
    options = []
    for i in range(n):
        for j in range(i + 1, n + 1):
            for opt in table.options(tokens[i:j]):
                options.append((i, j, opt.target, opt.features))
    covered = {p for (i, j, _, _) in options for p in range(i, j)}
    for p in range(n):
        if p not in covered:
            options.append((p, p + 1, (tokens[p],), (1.0, 1.0, 1.0, 1.0)))

    w = weights.values
    best = None

    def score_sequence(seq):
        total = 0.0
        target = []
        last_end = 0
        for (i, j, tgt, feats) in seq:
            for k, p in enumerate(feats):
                total += w[k] * math.log(min(max(p, 1e-9), 1.0))
            total += w[5] * -len(tgt)
            total += w[6] * -abs(i - last_end)
            last_end = j
            target.extend(tgt)
        ctx = [BOS]
        lm_total = 0.0
        for tok in target:
            lm_total += lm.cond_logprob(tok, ctx)
            ctx.append(tok)
        lm_total += lm.cond_logprob(EOS, ctx)
        return total + w[4] * lm_total, tuple(target)

    def recurse(cov, last_end, seq):
        nonlocal best
        if len(cov) == n:
            score, target = score_sequence(seq)
            if best is None or score > best[0]:
                best = (score, target)
            return
        for opt in options:
            i, j, _, _ = opt
            if any(p in cov for p in range(i, j)):
                continue
            if abs(i - last_end) > distortion_limit:
                continue
            recurse(cov | set(range(i, j)), j, seq + [opt])

    recurse(frozenset(), 0, [])
    return best


class TestDecode:
    def test_single_option_verbatim(self):
        table = PhraseTable(
            {("a", "b"): [PhraseOption(("x", "y"), (1.0, 1.0, 1.0, 1.0))]},
        )
        lm = train_lm([("x", "y")], order=2)
        result = decode(("a", "b"), table, lm, LogLinearWeights.default())
        assert result.tokens == ("x", "y")
        assert len(result.trace) == 1
        assert (result.trace[0].start, result.trace[0].end) == (0, 2)

    def test_exclusive_span_forces_candidate(self):
        annotated = AnnotatedInput(
            ("disorders", "of", "orbit"),
            [Span(2, 3, [Candidate(("orbita",), 1.0)], EXCLUSIVE)],
        )
        result = decode(annotated, toy_table(), toy_lm(), LogLinearWeights.default())
        assert result.tokens == ("störungen", "der", "orbita")
        assert "umlaufbahn" not in result.tokens

    def test_without_span_generic_preference_wins(self):
        result = decode(
            ("disorders", "of", "orbit"), toy_table(), toy_lm(),
            LogLinearWeights.default(),
        )
        assert "umlaufbahn" in result.tokens

    def test_constraint_span_output_contains_translation(self):
        annotated = AnnotatedInput(
            ("disorders", "of", "orbit"),
            [Span(2, 3, [Candidate(("orbita",), 1.0)], CONSTRAINT)],
        )
        result = decode(annotated, toy_table(), toy_lm(), LogLinearWeights.default())
        joined = " ".join(result.tokens)
        assert "orbita" in joined
        assert "umlaufbahn" not in joined

    def test_inclusive_duplicate_changes_nothing(self):
        table = toy_table()
        plain = decode(
            ("disorders", "of", "orbit"), table, toy_lm(), LogLinearWeights.default()
        )
        # candidates mirroring the strongest existing entry: same features as
        # an option built from prob 0.8 -> (0.8, 1.0, 0.8, 0.8)
        table_dup = PhraseTable(dict(table.entries))
        table_dup.entries[("orbit",)] = [
            PhraseOption(("umlaufbahn",), (0.8, 1.0, 0.8, 0.8)),
            PhraseOption(("orbita",), (0.1, 0.1, 0.1, 0.1)),
        ]
        plain_dup = decode(
            ("disorders", "of", "orbit"), table_dup, toy_lm(),
            LogLinearWeights.default(),
        )
        annotated = AnnotatedInput(
            ("disorders", "of", "orbit"),
            [Span(2, 3, [Candidate(("umlaufbahn",), 0.8)], INCLUSIVE)],
        )
        injected = decode(annotated, table_dup, toy_lm(), LogLinearWeights.default())
        assert injected.tokens == plain_dup.tokens

    def test_oov_passthrough(self):
        result = decode(
            ("disorders", "of", "kothamangalam"), toy_table(), toy_lm(),
            LogLinearWeights.default(),
        )
        assert "kothamangalam" in result.tokens

    def test_score_equals_weights_dot_features(self):
        weights = LogLinearWeights(np.array([0.7, 0.2, 0.4, 0.1, 1.3, -0.2, 0.6]))
        result = decode(("disorders", "of", "orbit"), toy_table(), toy_lm(), weights)
        assert result.score == pytest.approx(
            float(weights.values @ result.features), abs=1e-9
        )

    def test_trace_partitions_source(self):
        result = decode(
            ("disorders", "of", "orbit"), toy_table(), toy_lm(),
            LogLinearWeights.default(),
        )
        positions = sorted(
            p for span in result.trace for p in range(span.start, span.end)
        )
        assert positions == [0, 1, 2]

    def test_empty_input(self):
        lm = toy_lm()
        result = decode((), toy_table(), lm, LogLinearWeights.default())
        assert result.tokens == ()
        assert math.isfinite(result.score)
        # the root's end-of-sentence entry alone: weight 1.0 on the LM term
        eos = lm.cond_logprob(EOS, (BOS,))
        assert result.score == eos
        assert result.features[4] == eos
        assert [result.features[i] for i in (0, 1, 2, 3, 5, 6)] == [0.0] * 6
        assert result.trace == []


class TestRelaxedFallback:
    """With a one-hypothesis stack and distortion limit 1, the cut of stack
    1 keeps only "b" (its option far outscores "a"'s), after which position
    0 is out of reach.  The spine entry "a", expanded beside that cut, lets
    the one search complete inside the limit, and nothing is logged."""

    @staticmethod
    def stranding_setup():
        table = PhraseTable(
            {
                ("a",): [PhraseOption(("x",), (1e-6, 1e-6, 1e-6, 1e-6))],
                ("b",): [PhraseOption(("y",), (1.0, 1.0, 1.0, 1.0))],
                ("c",): [PhraseOption(("z",), (1.0, 1.0, 1.0, 1.0))],
            },
        )
        return table, toy_lm([("x", "y", "z")]), LogLinearWeights.default()

    def test_stranding_cut_completes_within_limit(self, caplog):
        table, lm, weights = self.stranding_setup()
        beam = BeamConfig(stack_size=1, distortion_limit=1)
        with caplog.at_level("DEBUG", logger="termforge.smt"):
            result = decode(("a", "b", "c"), table, lm, weights, beam)
        assert result.tokens == ("x", "y", "z")
        last_end = 0
        for opt in result.trace:
            assert abs(opt.start - last_end) <= 1
            last_end = opt.end
        assert not [r for r in caplog.records if r.name == "termforge.smt"]

    def test_normal_path_logs_nothing(self, caplog):
        table, lm, weights = self.stranding_setup()
        with caplog.at_level("DEBUG", logger="termforge.smt"):
            decode(("a", "b", "c"), table, lm, weights, BeamConfig())
            decode_nbest(("a", "b", "c"), table, lm, weights, BeamConfig(), n=5)
        assert not [r for r in caplog.records if r.name == "termforge.smt"]


class TestUncoverableInput:
    """Every token of "a b c" has an option, so none passes through, but no
    sequence of options covers the input, which the search reports before
    it starts."""

    @staticmethod
    def uncoverable_setup():
        table = PhraseTable(
            {
                ("a", "b"): [PhraseOption(("x",), (0.5, 0.5, 0.5, 0.5))],
                ("b", "c"): [PhraseOption(("y",), (0.5, 0.5, 0.5, 0.5))],
            },
        )
        return table, toy_lm([("x", "y")]), LogLinearWeights.default()

    def test_decode_names_the_source(self):
        table, lm, weights = self.uncoverable_setup()
        with pytest.raises(SearchError, match="'a b c'"):
            decode(("a", "b", "c"), table, lm, weights)

    def test_decode_nbest_names_the_source(self):
        table, lm, weights = self.uncoverable_setup()
        with pytest.raises(SearchError, match="'a b c'"):
            decode_nbest(("a", "b", "c"), table, lm, weights, n=5)

    def test_mert_tune_names_the_source(self):
        table, lm, weights = self.uncoverable_setup()
        dev = ParallelCorpus([(("a", "b"), ("x",)), (("a", "b", "c"), ("x", "y"))])
        with pytest.raises(SearchError, match="'a b c'"):
            mert_tune(dev, table, lm, weights, restarts=0, iterations=1)


def random_setup(rng, n_src=6, n_tgt=6):
    src_vocab = [f"s{i}" for i in range(n_src)]
    tgt_vocab = [f"t{i}" for i in range(n_tgt)]
    entries = {}
    for i, sw in enumerate(src_vocab):
        opts = []
        for tw in rng.sample(tgt_vocab, k=rng.randint(1, 3)):
            p = rng.uniform(0.05, 1.0)
            opts.append(PhraseOption((tw,), (p, rng.uniform(0.05, 1.0), p, p)))
        entries[(sw,)] = opts
    # a few bigram phrases
    for _ in range(4):
        i = rng.randrange(n_src - 1)
        pair = (src_vocab[i], src_vocab[i + 1])
        tgt = tuple(rng.sample(tgt_vocab, k=rng.randint(1, 2)))
        p = rng.uniform(0.05, 1.0)
        entries.setdefault(pair, []).append(
            PhraseOption(tgt, (p, rng.uniform(0.05, 1.0), p, p))
        )
    table = PhraseTable(entries)
    lm_sents = [
        tuple(rng.choices(tgt_vocab, k=rng.randint(1, 5))) for _ in range(30)
    ]
    lm = train_lm(lm_sents, order=2)
    return src_vocab, table, lm


class TestExhaustiveEquivalence:
    def test_decoder_matches_brute_force(self):
        rng = random.Random(99)
        for trial in range(12):
            src_vocab, table, lm = random_setup(rng)
            weights = LogLinearWeights(
                np.array([rng.uniform(0.2, 1.0) for _ in range(5)] + [0.1, 0.4])
            )
            tokens = tuple(rng.choices(src_vocab, k=rng.randint(1, 4)))
            limit = rng.randint(1, 5)
            oracle_score, _ = brute_force_decode(tokens, table, lm, weights, limit)
            result = decode(
                tokens, table, lm, weights,
                BeamConfig(stack_size=100000, distortion_limit=limit),
            )
            assert result.score == pytest.approx(oracle_score, abs=1e-9), (
                tokens, trial,
            )

    def test_monotone_beam_property(self):
        rng = random.Random(7)
        src_vocab, table, lm = random_setup(rng)
        weights = LogLinearWeights.default()
        for trial in range(5):
            tokens = tuple(rng.choices(src_vocab, k=5))
            prev = -math.inf
            for stack in (1, 2, 5, 20, 200):
                result = decode(
                    tokens, table, lm, weights,
                    BeamConfig(stack_size=stack, distortion_limit=4),
                )
                assert result.score >= prev - 1e-12
                prev = result.score

    @pytest.mark.parametrize("limit, expected", [
        (1, ("A", "B", "C", "D", "E")),  # a swap needs a backward jump of 2
        (2, ("B", "A", "C", "D", "E")),
    ])
    def test_reordering_inside_distortion_window(self, limit, expected):
        tokens = ("a", "b", "c", "d", "e")
        table = PhraseTable(
            {(s,): [PhraseOption((s.upper(),), (0.9, 0.9, 0.9, 0.9))] for s in tokens},
        )
        lm = train_lm([("B", "A", "C", "D", "E")] * 3, order=3)
        weights = LogLinearWeights(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.1]))
        oracle_score, oracle_tokens = brute_force_decode(
            tokens, table, lm, weights, limit
        )
        result = decode(
            tokens, table, lm, weights,
            BeamConfig(stack_size=100000, distortion_limit=limit),
        )
        assert oracle_tokens == expected
        assert result.tokens == expected
        assert result.score == pytest.approx(oracle_score, abs=1e-9)


class TestRebuiltFeatures:
    """Result features are rebuilt from the back-trace after the search."""

    WEIGHTS = LogLinearWeights(np.array([0.7, 0.2, 0.4, 0.1, 1.3, -0.2, 0.6]))

    @pytest.mark.parametrize("spans", [
        [],
        [Span(2, 3, [Candidate(("orbita",), 0.7)], INCLUSIVE)],
    ])
    def test_features_agree_with_trace_lm_and_score(self, spans):
        lm = toy_lm()
        annotated = AnnotatedInput(("disorders", "of", "orbit"), spans)
        results = decode_nbest(annotated, toy_table(), lm, self.WEIGHTS, WIDE, n=50)
        assert len(results) > 10
        for r in results:
            for k in range(4):
                assert r.features[k] == sum(t.log_feats[k] for t in r.trace)
            assert r.features[5] == -len(r.tokens)
            last_end, distortion = 0, 0
            for t in r.trace:
                distortion -= abs(t.start - last_end)
                last_end = t.end
            assert r.features[6] == distortion
            assert r.features[4] == pytest.approx(lm.score(r.tokens), abs=1e-9)
            assert r.score == pytest.approx(
                float(self.WEIGHTS.values @ r.features), abs=1e-9
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_trace_is_built_options(self, mode):
        annotated = AnnotatedInput(
            ("disorders", "of", "orbit"),
            [Span(1, 3, [Candidate(("der", "orbita"), 0.7)], mode)],
        )
        table = toy_table()
        options = build_options(annotated, table)
        results = decode_nbest(annotated, table, toy_lm(), self.WEIGHTS, WIDE, n=50)
        assert len(results) > 1
        for r in results:
            assert all(isinstance(t, TranslationOption) for t in r.trace)
            assert all(t in options for t in r.trace)
            assert sum((t.target for t in r.trace), ()) == r.tokens


@dataclass(slots=True)
class _Hypothesis:
    """One search state.  ``lm_delta`` is the language-model log-probability
    of the step that made it: its phrase, or, on a completed hypothesis
    (``option is None``), the end-of-sentence event.  Feature vectors are
    rebuilt from the back-trace only for returned results."""

    score: float
    coverage: int
    lm_ctx: tuple[str, ...]
    last_end: int
    backptr: "_Hypothesis | None"
    option: TranslationOption | None
    lm_delta: float


def _target_tokens(hyp: _Hypothesis) -> Tokens:
    parts: list[Tokens] = []
    node = hyp
    while node is not None:
        if node.option is not None:
            parts.append(node.option.target)
        node = node.backptr
    return tuple(tok for phrase in reversed(parts) for tok in phrase)


def reference_search(
    annotated: AnnotatedInput,
    table: PhraseTable,
    lm: NgramLanguageModel,
    weights: LogLinearWeights,
    beam: BeamConfig,
) -> dict[Tokens, _Hypothesis]:
    """The stack search as it was before stack entries became tuples and the
    LM memo was split by target: every entry a ``_Hypothesis`` (the class and
    ``_target_tokens`` above are the decoder's own before it kept its stack
    entries as the search states), one ``(context, target)`` memo.  It keeps
    the decoder's spine rule: beside stack k, the best hypothesis that covers
    exactly [0, k), ends at k, has a tileable rest and was made by extending
    such a hypothesis at its end; it is expanded after the cut when the cut
    holds no hypothesis that covers exactly [0, k) and ends at k."""
    annotated.validate()
    w = weights.values.tolist()
    w_lm, w_wp, w_dist = w[4], w[5], w[6]
    n = len(annotated.tokens)
    # per start: (option, coverage mask, weighted phrase and word-penalty part)
    options_by_start: list[list[tuple[TranslationOption, int, float]]] = [
        [] for _ in range(n)
    ]
    for opt in build_options(annotated, table):
        lf = opt.log_feats
        static = (
            w[0] * lf[0] + w[1] * lf[1] + w[2] * lf[2] + w[3] * lf[3]
            - w_wp * len(opt.target)
        )
        options_by_start[opt.start].append((opt, _mask(opt), static))

    keep = lm.order - 1
    # LM memos for this decode: (context, phrase) -> (log-prob, new context)
    # and context -> end-of-sentence log-prob
    phrase_lm: dict[tuple[tuple[str, ...], Tokens], tuple[float, tuple[str, ...]]] = {}
    eos_lm: dict[tuple[str, ...], float] = {}

    def eos_logprob(ctx: tuple[str, ...]) -> float:
        eos = eos_lm.get(ctx)
        if eos is None:
            eos = eos_lm[ctx] = lm.cond_logprob(EOS, ctx)
        return eos

    init = _Hypothesis(0.0, 0, (BOS,), 0, None, None, 0.0)
    if n == 0:
        eos = eos_logprob(init.lm_ctx)
        return {(): _Hypothesis(w_lm * eos, 0, init.lm_ctx, 0, init, None, eos)}

    full = (1 << n) - 1
    limit = beam.distortion_limit
    # tileable[i]: the options can cover [i, n) left to right
    tileable = [False] * (n + 1)
    tileable[n] = True
    for start in reversed(range(n)):
        tileable[start] = any(tileable[opt.end] for opt, _, _ in options_by_start[start])
    finals: dict[Tokens, _Hypothesis] = {}
    stacks: list[dict] = [{} for _ in range(n + 1)]
    stacks[0][(0, (BOS,), 0)] = init
    spine: list[tuple | None] = [None] * n  # (key, hypothesis)

    for k in range(n):
        ranked = sorted(
            stacks[k].items(), key=lambda kv: (-kv[1].score, kv[0])
        )[: beam.stack_size]
        prefix_k = (1 << k) - 1
        if spine[k] is not None and not any(
            hyp.coverage == prefix_k and hyp.last_end == k for _, hyp in ranked
        ):
            ranked.append(spine[k])
        for _, hyp in ranked:
            coverage, ctx = hyp.coverage, hyp.lm_ctx
            last, score = hyp.last_end, hyp.score
            prefix = None
            for start in range(max(0, last - limit), min(n, last + limit + 1)):
                if coverage >> start & 1:
                    continue
                dist_cost = w_dist * abs(start - last)
                for opt, mask, static in options_by_start[start]:
                    if coverage & mask:
                        continue
                    target = opt.target
                    lm_entry = phrase_lm.get((ctx, target))
                    if lm_entry is None:
                        history = list(ctx)
                        lm_delta = 0.0
                        for tok in target:
                            lm_delta += lm.cond_logprob(tok, history)
                            history.append(tok)
                        lm_entry = phrase_lm[(ctx, target)] = (
                            lm_delta, tuple(history[-keep:]) if keep else ()
                        )
                    lm_delta, new_ctx = lm_entry
                    new_score = score + (static + w_lm * lm_delta - dist_cost)
                    new_coverage = coverage | mask
                    if new_coverage == full:
                        eos = eos_logprob(new_ctx)
                        done_score = new_score + w_lm * eos
                        if prefix is None:
                            prefix = _target_tokens(hyp)
                        output = prefix + target
                        old = finals.get(output)
                        if old is None or done_score > old.score:
                            last_step = _Hypothesis(
                                new_score, full, new_ctx, opt.end, hyp, opt,
                                lm_delta,
                            )
                            finals[output] = _Hypothesis(
                                done_score, full, new_ctx, opt.end, last_step,
                                None, eos,
                            )
                    else:
                        key = (new_coverage, new_ctx, opt.end)
                        if (coverage == prefix_k and last == k == start
                                and tileable[opt.end]):
                            held = spine[opt.end]
                            if held is None or (-new_score, key) < (-held[1].score, held[0]):
                                spine[opt.end] = (key, _Hypothesis(
                                    new_score, new_coverage, new_ctx, opt.end, hyp,
                                    opt, lm_delta,
                                ))
                        stack = stacks[k + opt.end - opt.start]
                        old = stack.get(key)
                        if old is None or new_score > old.score:
                            stack[key] = _Hypothesis(
                                new_score, new_coverage, new_ctx, opt.end, hyp,
                                opt, lm_delta,
                            )
    return finals


def as_entry(hyp: _Hypothesis | None) -> tuple | None:
    """A ``_Hypothesis`` chain as the decoder's stack entries:
    ``(score, parent entry, option, LM log-prob of the step)``."""
    if hyp is None:
        return None
    return (hyp.score, as_entry(hyp.backptr), hyp.option, hyp.lm_delta)


def reference_search_any_n(annotated, table, lm, weights, beam, nbest):
    """``reference_search`` in the place of a search that is told the list
    length it serves; it ignores the length and keeps every completion, a
    superset of what the pruned-by-floor search keeps.  Its finals are
    converted into stack entries, the form ``decode_nbest`` reads."""
    finals = reference_search(annotated, table, lm, weights, beam)
    return {tokens: as_entry(hyp) for tokens, hyp in finals.items()}


def coarse_setup(rng, n_src=5, n_tgt=4):
    """Table and LM over few words with probabilities from a short list, so
    that different derivations often tie exactly on score.  The LM is a
    uniform unigram model, under which every stack key of a coverage and
    last end collides, or a trigram model, whose contexts hold two words."""
    src_vocab = [f"s{i}" for i in range(n_src)]
    tgt_vocab = [f"t{i}" for i in range(n_tgt)]
    probs = (0.25, 0.5, 1.0)
    entries = {}
    for sw in src_vocab:
        entries[(sw,)] = [
            PhraseOption((tw,), (rng.choice(probs),) * 4)
            for tw in rng.sample(tgt_vocab, k=rng.randint(1, 3))
        ]
    for _ in range(3):
        i = rng.randrange(n_src - 1)
        entries.setdefault((src_vocab[i], src_vocab[i + 1]), []).append(
            PhraseOption(tuple(rng.sample(tgt_vocab, k=2)), (rng.choice(probs),) * 4)
        )
    table = PhraseTable(entries)
    lm = train_lm(
        [tuple(tgt_vocab)] * 2 + [(w,) for w in tgt_vocab], order=rng.choice((1, 3))
    )
    return src_vocab, table, lm


def annotated_variants(rng, tokens, tgt_words):
    """The plain input and one input per injection mode with a random span."""
    variants = [AnnotatedInput(tokens)]
    for mode in MODES:
        start = rng.randrange(len(tokens))
        end = rng.randint(start + 1, min(len(tokens), start + 2))
        candidates = [
            Candidate(tuple(rng.sample(tgt_words, k=rng.randint(1, 2))),
                      rng.choice((0.5, 1.0)))
            for _ in range(rng.randint(1, 2))
        ]
        variants.append(AnnotatedInput(tokens, [Span(start, end, candidates, mode)]))
    return variants


class TestSearchAgainstReference:
    """The search keeps tuple stack entries and per-target LM memos, scans
    options by distortion window and skips completions and stack inserts
    below their floors; its results must be bit-equal to those of the search
    it replaced, ties included, at every list length."""

    @pytest.mark.parametrize("stack", [1, 2, 3, 10])
    def test_nbest_bit_equal(self, stack, monkeypatch):
        rng = random.Random(stack)
        tied = 0
        for trial in range(10):
            if trial % 2:
                src_vocab, table, lm = coarse_setup(rng)
                weights = LogLinearWeights(np.array(
                    [rng.choice((0.5, 1.0)) for _ in range(5)] + [0.5, 0.5]
                ))
            else:
                src_vocab, table, lm = random_setup(rng)
                weights = LogLinearWeights(np.array(
                    [rng.uniform(0.2, 1.0) for _ in range(5)] + [0.1, 0.4]
                ))
            tokens = tuple(rng.choices(src_vocab, k=rng.randint(1, 6)))
            tgt_words = sorted({t for opts in table.entries.values()
                                for o in opts for t in o.target})
            for annotated in annotated_variants(rng, tokens, tgt_words):
                for limit in range(4):
                    beam = BeamConfig(stack_size=stack, distortion_limit=limit)
                    got = decode_nbest(annotated, table, lm, weights, beam, n=10**6)
                    with monkeypatch.context() as patch:
                        patch.setattr(smt, "_search", reference_search_any_n)
                        want = decode_nbest(annotated, table, lm, weights, beam, n=10**6)
                    assert [r.tokens for r in got] == [r.tokens for r in want]
                    assert [r.score for r in got] == [r.score for r in want]
                    for a, b in zip(got, want):
                        assert np.array_equal(a.features, b.features)
                        assert a.trace == b.trace
                    # short lists raise the completion floor early
                    for n in (1, 2, 3, 5):
                        head = decode_nbest(annotated, table, lm, weights, beam, n=n)
                        assert [r.tokens for r in head] == [r.tokens for r in want[:n]]
                        assert [r.score for r in head] == [r.score for r in want[:n]]
                        for a, b in zip(head, want):
                            assert np.array_equal(a.features, b.features)
                            assert a.trace == b.trace
                    # decode is the head of the n-best order
                    assert decode(annotated, table, lm, weights, beam).tokens == got[0].tokens
                    scores = [r.score for r in got]
                    tied += len(scores) - len(set(scores))
        assert tied > 0  # exact score ties were exercised


def coverable(annotated, table) -> bool:
    """Whether some set of disjoint built options covers the input, by
    trying every option at the first uncovered position."""
    options = build_options(annotated, table)
    n = len(annotated.tokens)

    def cover(pos):
        return pos == n or any(
            cover(opt.end) for opt in options if opt.start == pos
        )

    return cover(0)


class TestNoDeadEnds:
    """Pruning never strands the search: at every stack size and distortion
    limit, an input that the options can cover decodes, its derivation keeps
    every jump inside the limit, and it is the reference search's output,
    also where some rests of the input cannot be covered; any other input
    raises ``SearchError``."""

    def test_every_coverable_input_decodes_within_the_limit(self, monkeypatch):
        rng = random.Random(2024)
        decoded = refused = 0
        for trial in range(40):
            if trial % 2:
                src_vocab, table, lm = coarse_setup(rng)
            else:
                src_vocab, table, lm = random_setup(rng)
            weights = LogLinearWeights(np.array(
                [rng.uniform(0.2, 1.0) for _ in range(5)] + [0.1, 0.4]
            ))
            tokens = tuple(rng.choices(src_vocab, k=rng.randint(1, 7)))
            if trial % 4 == 3:
                # words inside two-word phrases lose their one-word options,
                # so a run of the vocabulary such as "s1 s2 s3" under "s1 s2"
                # and "s2 s3" cannot be covered
                for pair in [src for src in table.entries if len(src) == 2]:
                    for word in pair:
                        table.entries.pop((word,), None)
                start = rng.randrange(len(src_vocab) - 2)
                tokens = tuple(src_vocab[start:start + rng.randint(3, 5)])
            tgt_words = sorted({t for opts in table.entries.values()
                                for o in opts for t in o.target})
            for annotated in annotated_variants(rng, tokens, tgt_words):
                for stack in (1, 2, 3):
                    for limit in range(4):
                        beam = BeamConfig(stack_size=stack, distortion_limit=limit)
                        if not coverable(annotated, table):
                            with pytest.raises(SearchError):
                                decode(annotated, table, lm, weights, beam)
                            refused += 1
                            continue
                        result = decode(annotated, table, lm, weights, beam)
                        last_end = 0
                        for opt in result.trace:
                            assert abs(opt.start - last_end) <= limit, (trial, limit)
                            last_end = opt.end
                        with monkeypatch.context() as patch:
                            patch.setattr(smt, "_search", reference_search_any_n)
                            want = decode(annotated, table, lm, weights, beam)
                        assert result.trace == want.trace
                        assert result.score == want.score
                        decoded += 1
        assert decoded and refused

    def test_no_spine_slot_where_the_rest_cannot_be_covered(self):
        """"c" has no option but "b c d", so an entry covering "a b" leaves a
        rest that no option sequence covers and gets no spine slot.  Such a
        dead end, expanded beside stack 2's cut, would fill later stacks with
        dead entries that push live ones out of their cuts; at stack 2 the
        search then missed its best output."""

        def options(*pairs):
            return [PhraseOption((t,), (p,) * 4) for t, p in pairs]

        table = PhraseTable({
            ("a",): options(("A0", 0.4), ("A1", 0.8)),
            ("b",): options(("B0", 0.8)),
            ("b", "c", "d"): options(("BCD0", 0.2)),
            ("d",): options(("D0", 0.5), ("D1", 0.6)),
            ("d", "e"): options(("DE0", 0.7), ("DE1", 0.05)),
            ("e",): options(("E0", 0.55), ("E1", 0.3)),
        })
        lm = train_lm([
            ("D1", "DE1"), ("A0", "A1", "D0", "E1"), ("DE0", "D1", "BCD0", "E0"),
            ("E0",), ("A0", "E0", "DE1"), ("DE1", "D0"),
        ], order=2)
        weights = LogLinearWeights(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
        tokens = ("a", "b", "c", "d", "e", "f")
        wide = decode(tokens, table, lm, weights, BeamConfig(2000, 3))
        pruned = decode(tokens, table, lm, weights, BeamConfig(2, 3))
        assert wide.tokens == ("A1", "BCD0", "f", "E0")
        assert (pruned.tokens, pruned.score) == (wide.tokens, wide.score)


HASH_SEED_SCRIPT = """
import json, random
from termforge.align import PhraseOption, PhraseTable
from termforge.lm import train_lm
from termforge.smt import BeamConfig, LogLinearWeights, decode_nbest

rng = random.Random(5)
src = [f"s{i}" for i in range(6)]
tgt = [f"t{i}" for i in range(8)] + ["<s>"]
lm = train_lm([tuple(rng.choices(tgt[:-1], k=rng.randint(1, 6))) for _ in range(40)], order=3)
entries = {}
for i, word in enumerate(src):
    entries[(word,)] = [
        PhraseOption(tuple(rng.choices(tgt + ["oov"], k=rng.randint(1, 2))),
                     (rng.choice((0.25, 0.5, 1.0)),) * 4)
        for _ in range(3)
    ]
    if i:
        entries[(src[i - 1], word)] = [PhraseOption((rng.choice(tgt),), (0.5,) * 4)]
table = PhraseTable(entries)
out = []
for _ in range(8):
    source = tuple(rng.choices(src, k=rng.randint(1, 6)))
    for r in decode_nbest(source, table, lm, LogLinearWeights.default(),
                          BeamConfig(stack_size=3, distortion_limit=2), n=10):
        out.append([r.tokens, r.score.hex(), [f.hex() for f in r.features.tolist()]])
print(json.dumps(out))
"""


def test_decode_is_independent_of_the_hash_seed():
    """Tokens, scores and features are the same under two hash seeds."""
    runs = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed}, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert len(json.loads(runs[0])) > 8
    assert runs[0] == runs[1]


class TestInjectionGuarantees:
    def test_randomized_span_semantics(self):
        rng = random.Random(404)
        for trial in range(30):
            src_vocab, table, lm = random_setup(rng)
            tokens = tuple(rng.choices(src_vocab, k=rng.randint(2, 5)))
            start = rng.randrange(len(tokens))
            end = rng.randint(start + 1, min(len(tokens), start + 2))
            candidates = [
                Candidate((f"c{trial}_{k}",), rng.uniform(0.1, 1.0))
                for k in range(rng.randint(1, 2))
            ]
            mode = rng.choice([EXCLUSIVE, CONSTRAINT])
            annotated = AnnotatedInput(tokens, [Span(start, end, candidates, mode)])
            result = decode(annotated, table, lm, LogLinearWeights.default(), WIDE)
            joined = " ".join(result.tokens)
            cand_strings = [" ".join(c.tokens) for c in candidates]
            if mode == EXCLUSIVE:
                # the span region emits exactly one provided candidate; with
                # unique candidate tokens, presence proves it
                assert any(c in joined for c in cand_strings), (trial, joined)
            else:
                assert any(c in joined for c in cand_strings), (trial, joined)


class TestNbest:
    def test_sorted_and_unique(self):
        rng = random.Random(5)
        src_vocab, table, lm = random_setup(rng)
        results = decode_nbest(
            tuple(src_vocab[:4]), table, lm, LogLinearWeights.default(), WIDE, n=20
        )
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        targets = [r.tokens for r in results]
        assert len(set(targets)) == len(targets)

    def test_beam_one_is_greedy_top(self):
        rng = random.Random(6)
        src_vocab, table, lm = random_setup(rng)
        tokens = tuple(src_vocab[:3])
        full = decode(tokens, table, lm, LogLinearWeights.default(), WIDE)
        top = decode_nbest(
            tokens, table, lm, LogLinearWeights.default(), WIDE, n=1
        )[0]
        assert top.tokens == full.tokens

    @pytest.mark.parametrize("n", [0, -1])
    def test_list_length_below_one_is_rejected(self, n):
        rng = random.Random(7)
        src_vocab, table, lm = random_setup(rng)
        with pytest.raises(ValueError, match="^n must be >= 1"):
            decode_nbest(tuple(src_vocab[:3]), table, lm,
                         LogLinearWeights.default(), WIDE, n=n)

    @pytest.mark.parametrize("stack", [0, -1])
    def test_stack_below_one_is_rejected(self, stack):
        with pytest.raises(ValueError, match="^stack_size must be >= 1"):
            BeamConfig(stack_size=stack)

    def test_negative_distortion_limit_is_rejected(self):
        with pytest.raises(ValueError, match="^distortion_limit must be >= 0"):
            BeamConfig(distortion_limit=-1)


class TestPushFloor:
    def test_stack_insert_tied_with_the_floor_survives(self):
        """With a one-entry stack, "y" and then "x" translate "a" at exactly
        the same score.  The second insert ties the stack floor set by the
        first, and its key ranks first, so it must be kept."""
        table = PhraseTable({
            ("a",): [PhraseOption(("y",), (0.5,) * 4), PhraseOption(("x",), (0.5,) * 4)],
            ("b",): [PhraseOption(("z",), (1.0,) * 4)],
        })
        lm = train_lm([("y", "z"), ("x", "z")], order=2)
        beam = BeamConfig(stack_size=1, distortion_limit=0)
        result = decode(("a", "b"), table, lm, LogLinearWeights.default(), beam)
        assert result.tokens == ("x", "z")

    def test_floor_is_the_size_th_best_first_score(self):
        """Completions of "a" arrive with the first scores log 0.2, 0.5,
        0.1, 0.4 and 0.05.  Serving a list of 3, the floor is the 3rd best
        score so far once 3 have arrived: log 0.1, then log 0.2, which only
        the last misses.  Serving a list of 1, it is the best so far."""
        probs = (0.2, 0.5, 0.1, 0.4, 0.05)
        table = PhraseTable({("a",): [
            PhraseOption((f"t{i}",), (p, 1.0, 1.0, 1.0)) for i, p in enumerate(probs)
        ]})
        lm = train_lm([("t0",)], order=1)
        weights = LogLinearWeights(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))

        def kept(nbest):
            finals = smt._search(AnnotatedInput(("a",)), table, lm, weights, WIDE, nbest)
            return sorted(finals)

        assert kept(5) == [(f"t{i}",) for i in range(5)]
        assert kept(3) == [("t0",), ("t1",), ("t2",), ("t3",)]
        assert kept(1) == [("t0",), ("t1",)]


def random_pool(rng, sentences=6, hyps=5):
    """MERT pools of random feature vectors with consistent BLEU statistics."""
    pools, stats = [], []
    for _ in range(sentences):
        ref_len = rng.randint(3, 9)
        pools.append([
            np.array([rng.gauss(0.0, 1.0) for _ in FEATURE_NAMES])
            for _ in range(hyps)
        ])
        sentence_stats = []
        for _ in range(hyps):
            hyp_len = rng.randint(1, 10)
            total = [max(0, hyp_len - n) for n in range(4)]
            correct = [rng.randint(0, t) for t in total]
            sentence_stats.append((correct, total, hyp_len, ref_len))
        stats.append(sentence_stats)
    return pools, stats


class TestLineSearch:
    def test_best_point_matches_pool_bleu_and_grid(self):
        rng = random.Random(12)
        for trial in range(5):
            pools, stats = random_pool(rng)
            weights = np.array([rng.uniform(-1.0, 1.0) for _ in FEATURE_NAMES])
            for dim in range(len(FEATURE_NAMES)):
                x, score = _line_search_dim(
                    pools, stats, weights, dim, _pool_dots(pools, weights)
                )
                probe = weights.copy()
                probe[dim] = x
                assert score == pytest.approx(
                    _pool_bleu(stats, _pool_dots(pools, probe)), abs=1e-12
                )
                for value in np.linspace(-6.0, 6.0, 241):
                    probe[dim] = value
                    assert _pool_bleu(stats, _pool_dots(pools, probe)) <= score + 1e-9, (
                        trial, dim, value,
                    )


def reference_upper_envelope(lines):
    """``_upper_envelope`` as it was before only the top line of each slope
    was sorted: every line sorted on (slope, intercept, id)."""
    lines = sorted(lines)
    dedup = []
    for b, a, idx in lines:
        if dedup and dedup[-1][0] == b:
            if a <= dedup[-1][1]:
                continue
            dedup.pop()
        dedup.append((b, a, idx))
    hull, breaks = [], []
    for b, a, idx in dedup:
        while hull:
            b0, a0, _ = hull[-1]
            x = (a0 - a) / (b - b0)
            if breaks and x <= breaks[-1]:
                hull.pop()
                breaks.pop()
            else:
                breaks.append(x)
                hull.append((b, a, idx))
                break
        if not hull:
            hull.append((b, a, idx))
    return [(float("-inf") if i == 0 else breaks[i - 1], idx)
            for i, (_, _, idx) in enumerate(hull)]


class TestUpperEnvelope:
    def test_bit_equal_to_sorting_every_line(self):
        rng = random.Random(4)
        for _ in range(500):
            n = rng.randint(1, 60)
            # few distinct slopes and intercepts, signed zeros among them:
            # equal slopes, equal lines and ties at breakpoints are common
            values = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, rng.uniform(-3.0, 3.0)]
            lines = [(rng.choice(values), rng.choice(values), idx) for idx in range(n)]
            rng.shuffle(lines)
            assert _upper_envelope(lines) == reference_upper_envelope(lines), lines


def sign_corruption_task(seed=0):
    """Dev task where a negated LM weight picks anti-fluent outputs."""
    rng = random.Random(seed)
    src_vocab = [f"s{i}" for i in range(4)]
    good = {s: f"g{i}" for i, s in enumerate(src_vocab)}
    bad = {s: f"b{i}" for i, s in enumerate(src_vocab)}
    entries = {}
    for s in src_vocab:
        entries[(s,)] = [
            PhraseOption((bad[s],), (0.9, 0.9, 0.9, 0.9)),   # table prefers bad
            PhraseOption((good[s],), (0.4, 0.4, 0.4, 0.4)),
        ]
    table = PhraseTable(entries)
    # LM strongly prefers the good target words
    lm_sents = [
        tuple(good[s] for s in rng.choices(src_vocab, k=rng.randint(2, 3)))
        for _ in range(40)
    ]
    lm = train_lm(lm_sents, order=2)
    dev_pairs = []
    for _ in range(8):
        src = tuple(rng.choices(src_vocab, k=rng.randint(2, 3)))
        dev_pairs.append((src, tuple(good[s] for s in src)))
    return ParallelCorpus(dev_pairs), table, lm


def dev_bleu(dev, table, lm, weights):
    hyps = [decode(src, table, lm, weights).tokens for src, _ in dev.pairs]
    return bleu(hyps, [ref for _, ref in dev.pairs])


def reference_line_search_dim(pools, stats, weights, dim):
    """Best value for one weight dimension by sweeping envelope breakpoints.

    Returns (best_lambda, best_bleu).  Among intervals tied on BLEU the
    widest wins and its midpoint is returned, which keeps the chosen weight
    away from decision boundaries.  ``pools`` maps sentence -> list of
    feature vectors; ``stats`` holds the matching BLEU statistics.
    """
    events: list[tuple[float, int, int]] = []  # (x, sentence, hyp index)
    active: list[int] = []
    for s_idx, feats in enumerate(pools):
        lines = []
        for h_idx, f in enumerate(feats):
            a = float(np.dot(weights, f) - weights[dim] * f[dim])
            b = float(f[dim])
            lines.append((b, a, h_idx))
        segments = _upper_envelope(lines)
        active.append(segments[0][1])
        for x, idx in segments[1:]:
            events.append((x, s_idx, idx))
    events.sort()

    # corpus statistics of the active hypotheses, updated at each event by
    # swapping one sentence's integer counts (exact, so no re-summing)
    correct, total, hyp_len, ref_len = sum_bleu_stats(
        stats[s_idx][h_idx] for s_idx, h_idx in enumerate(active)
    )
    current_bleu = bleu_from_stats(correct, total, hyp_len, ref_len)
    if not events:
        return float(weights[dim]), current_bleu
    edge = 2.0  # pseudo-width for the unbounded end intervals
    best = (current_bleu, edge, min(events[0][0] - edge / 2, float(weights[dim])))
    for i, (x, s_idx, h_idx) in enumerate(events):
        c_out, t_out, hl_out, rl_out = stats[s_idx][active[s_idx]]
        c_in, t_in, hl_in, rl_in = stats[s_idx][h_idx]
        for n in range(BLEU_ORDER):
            correct[n] += c_in[n] - c_out[n]
            total[n] += t_in[n] - t_out[n]
        hyp_len += hl_in - hl_out
        ref_len += rl_in - rl_out
        active[s_idx] = h_idx
        right = events[i + 1][0] if i + 1 < len(events) else x + edge
        score = bleu_from_stats(correct, total, hyp_len, ref_len)
        cand = (score, right - x, (x + right) / 2.0)
        if (cand[0], cand[1]) > (best[0] + 1e-12, best[1]):
            best = cand
        elif abs(cand[0] - best[0]) <= 1e-12 and cand[1] > best[1]:
            best = (best[0], cand[1], cand[2])
    return best[2], best[0]


def reference_pool_bleu(pools, stats, weights):
    # one np.dot per pool line, as before the dot products were shared
    chosen = []
    for s_idx, feats in enumerate(pools):
        scores = [float(np.dot(weights, f)) for f in feats]
        h_idx = max(range(len(scores)), key=lambda i: (scores[i], -i))
        chosen.append(stats[s_idx][h_idx])
    return bleu_from_stats(*sum_bleu_stats(chosen))


def reference_optimize_on_pool(pools, stats, start, max_passes=8):
    """Coordinate ascent on pool BLEU, taking the steepest dimension per
    pass (first-improvement greedy is prone to knife-edge optima)."""
    weights = start.copy()
    best = reference_pool_bleu(pools, stats, weights)
    for _ in range(max_passes):
        best_dim, best_x, best_score = None, None, best
        for dim in range(len(FEATURE_NAMES)):
            x, score = reference_line_search_dim(pools, stats, weights, dim)
            if score > best_score + 1e-9:
                best_dim, best_x, best_score = dim, x, score
        if best_dim is None:
            break
        weights[best_dim] = best_x
        best = best_score
    peak = float(np.abs(weights).max())
    if peak > 0:
        weights = weights / peak
    return weights, reference_pool_bleu(pools, stats, weights)


def reference_corpus_bleu_decoding(dev, table, lm, weights, beam):
    hyps = [decode(src, table, lm, weights, beam).tokens for src, _ in dev.pairs]
    refs = [ref for _, ref in dev.pairs]
    return bleu_from_stats(
        *sum_bleu_stats(
            bleu_stats(hyp, ref, ngram_counts(ref)) for hyp, ref in zip(hyps, refs)
        )
    )


def reference_worst_tie_bleu(dev, table, lm, weights, beam, nbest):
    """Dev BLEU with each sentence scored at the worst of the n-best entries
    that share the top score: the one with the fewest clipped n-gram
    matches, the first listed of equals."""
    chosen = []
    for src, ref in dev.pairs:
        results = decode_nbest(src, table, lm, weights, beam, nbest)
        worst = None
        for result in results:
            if result.score != results[0].score:
                break
            st = bleu_stats(result.tokens, ref, ngram_counts(ref))
            if worst is None or sum(st[0]) < sum(worst[0]):
                worst = st
        chosen.append(worst)
    return bleu_from_stats(*sum_bleu_stats(chosen))


def reference_mert_tune(
    dev: ParallelCorpus,
    table: PhraseTable,
    lm: NgramLanguageModel,
    init: LogLinearWeights,
    restarts: int = 3,
    iterations: int = 4,
    nbest: int = 100,
    seed: int = 42,
    beam: BeamConfig = BeamConfig(),
) -> LogLinearWeights:
    """MERT as it was before the n-best lists were reused: every iteration
    searches the dev set twice, once for its BLEU and once for the pool,
    and each dimension of a line-search pass prices every pool line
    again."""
    if not dev.pairs:
        raise ValueError("development set is empty")
    rng = np.random.default_rng(seed)
    pools: list[list[np.ndarray]] = [[] for _ in dev.pairs]
    stats: list[list] = [[] for _ in dev.pairs]
    seen: list[set[Tokens]] = [set() for _ in dev.pairs]

    best_weights = init.values.copy()
    best_real = reference_worst_tie_bleu(dev, table, lm, init, beam, nbest)
    current = init.values.copy()
    for iteration in range(iterations):
        # n-best hypotheses under the current weights join the pool; weight
        # vectors that looked good on the pool but decode poorly thereby
        # contribute the counterexamples that correct the next line search
        grew = False
        for s_idx, (src, ref) in enumerate(dev.pairs):
            for result in decode_nbest(
                src, table, lm, LogLinearWeights(current), beam, nbest
            ):
                if result.tokens in seen[s_idx]:
                    continue
                seen[s_idx].add(result.tokens)
                pools[s_idx].append(result.features)
                stats[s_idx].append(
                    bleu_stats(result.tokens, ref, ngram_counts(ref))
                )
                grew = True
        if not grew and iteration > 0:
            break
        starts = [current.copy(), best_weights.copy()]
        for _ in range(restarts):
            starts.append(rng.uniform(-1.0, 1.0, len(FEATURE_NAMES)))
        best_w, best_score = None, float("-inf")
        for start in starts:
            w, score = reference_optimize_on_pool(pools, stats, start)
            if score > best_score + 1e-12:
                best_w, best_score = w, score
        current = best_w
        real = reference_worst_tie_bleu(
            dev, table, lm, LogLinearWeights(current), beam, nbest
        )
        if real > best_real + 1e-12:
            best_real = real
            best_weights = current.copy()
    return LogLinearWeights(best_weights)


def count_searches(monkeypatch) -> list:
    """A list that grows by one per search (per ``build_options`` call)."""
    searches = []
    real_build_options = smt.build_options

    def counted(*args):
        searches.append(1)
        return real_build_options(*args)

    monkeypatch.setattr(smt, "build_options", counted)
    return searches


class TestMertAgainstReference:
    """MERT with reused n-best lists and shared dot products against the
    loop it replaced: bit-equal weights from fewer searches."""

    @pytest.mark.parametrize("nbest", [5, 100])
    @pytest.mark.parametrize("restarts, iterations", [(0, 1), (1, 2), (2, 3)])
    @pytest.mark.parametrize("task_seed", [0, 9])
    def test_weights_bit_equal_with_fewer_searches(
        self, task_seed, restarts, iterations, nbest, monkeypatch
    ):
        dev, table, lm = sign_corruption_task(seed=task_seed)
        init = LogLinearWeights(np.array([1.0, 1.0, 1.0, 1.0, -2.0, 0.0, 0.5]))
        searches = count_searches(monkeypatch)
        want = reference_mert_tune(
            dev, table, lm, init, restarts=restarts, iterations=iterations,
            nbest=nbest, seed=task_seed,
        )
        reference_searches = len(searches)
        searches.clear()
        got = mert_tune(
            dev, table, lm, init, restarts=restarts, iterations=iterations,
            nbest=nbest, seed=task_seed,
        )
        assert np.array_equal(got.values, want.values)
        d = len(dev.pairs)
        # each iteration that grew the pool searched the dev set twice in
        # the reference and once here; the one that did not (if any) ended
        # the loop after its n-best search
        grown = (reference_searches // d - 1) // 2
        assert reference_searches in (d * (2 * grown + 1), d * (2 * grown + 2))
        assert len(searches) == d * (grown + 1)
        if reference_searches == d * (2 * iterations + 1):
            assert len(searches) == d * (iterations + 1)

    @pytest.mark.parametrize("nbest", [1, 2, 5])
    @pytest.mark.parametrize("init", [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],  # all monotone outputs tie
        [0.0] * 7,  # every output ties
    ])
    @pytest.mark.parametrize("task_seed", [0, 9])
    def test_tied_outputs_bit_equal(self, task_seed, init, nbest, monkeypatch):
        # exact top ties, scored at their worst n-best entry, also when
        # every entry of a full list ties
        dev, table, lm = sign_corruption_task(seed=task_seed)
        init = LogLinearWeights(np.array(init))
        searches = count_searches(monkeypatch)
        want = reference_mert_tune(
            dev, table, lm, init, restarts=1, iterations=2, nbest=nbest, seed=task_seed
        )
        reference_searches = len(searches)
        searches.clear()
        got = mert_tune(
            dev, table, lm, init, restarts=1, iterations=2, nbest=nbest, seed=task_seed
        )
        assert np.array_equal(got.values, want.values)
        assert len(searches) <= reference_searches

    @pytest.mark.parametrize("nbest", [1, 2, 5, 1000])
    def test_dev_bleu_is_decode_bleu(self, nbest):
        # with all weights 0 every output ties, and with distortion alone
        # every monotone one: decode's output, the head of the n-best list,
        # is then the all-"b" output, which matches no reference n-gram and
        # so is also the worst tied output
        dev, table, lm = sign_corruption_task(seed=0)
        beam = BeamConfig()
        ref_counts = [ngram_counts(ref) for _, ref in dev.pairs]
        rng = np.random.default_rng(nbest)
        for values in [np.zeros(7), np.eye(7)[6], rng.uniform(-1, 1, 7)]:
            nbest_lists, dev_bleu, _ = smt._search_dev(
                dev, table, lm, values, beam, nbest, ref_counts
            )
            assert dev_bleu == reference_corpus_bleu_decoding(
                dev, table, lm, LogLinearWeights(values), beam
            )
            for (src, _), nbest_list in zip(dev.pairs, nbest_lists):
                want = decode_nbest(src, table, lm, LogLinearWeights(values), beam, nbest)
                assert [tokens for tokens, _ in nbest_list] == [r.tokens for r in want]
                for (_, features), r in zip(nbest_list, want):
                    assert np.array_equal(features, r.features)

    @pytest.mark.parametrize("ref_is_larger", [True, False])
    def test_top_tie_scored_at_worst_output(self, ref_is_larger):
        # two phrases with equal probabilities under a uniform unigram LM:
        # without a distortion weight both orders tie exactly
        table = PhraseTable({
            ("a",): [PhraseOption(("x1", "x2"), (0.5,) * 4)],
            ("b",): [PhraseOption(("y1", "y2"), (0.5,) * 4)],
        })
        lm = train_lm([("x1", "x2", "y1", "y2")], order=1)
        smaller, larger = ("x1", "x2", "y1", "y2"), ("y1", "y2", "x1", "x2")
        ref, worse = (larger, smaller) if ref_is_larger else (smaller, larger)
        dev = ParallelCorpus([(("a", "b"), ref)])
        beam = BeamConfig()
        free, penalized = np.ones(7), np.ones(7)
        free[6] = 0.0
        ref_counts = [ngram_counts(ref) for _, ref in dev.pairs]
        nbest_lists, dev_bleu, tied = smt._search_dev(
            dev, table, lm, free, beam, 10, ref_counts
        )
        assert [tokens for tokens, _ in nbest_lists[0]] == [smaller, larger]
        assert tied == 1
        assert dev_bleu == bleu([worse], [ref]) < bleu([ref], [ref])
        decoded = reference_corpus_bleu_decoding(
            dev, table, lm, LogLinearWeights(free), beam
        )
        assert dev_bleu <= decoded
        assert (dev_bleu < decoded) == (not ref_is_larger)
        # a distortion weight breaks the tie in favour of the monotone order
        _, dev_bleu, tied = smt._search_dev(
            dev, table, lm, penalized, beam, 10, ref_counts
        )
        assert tied == 0
        assert dev_bleu == reference_corpus_bleu_decoding(
            dev, table, lm, LogLinearWeights(penalized), beam
        )

    def test_logs_each_measurement(self, caplog, monkeypatch):
        dev, table, lm = sign_corruption_task(seed=0)
        searches = count_searches(monkeypatch)
        with caplog.at_level(logging.INFO, logger="termforge.smt"):
            mert_tune(dev, table, lm, LogLinearWeights(np.zeros(7)),
                      restarts=0, iterations=2, nbest=5)
        lines = [r.getMessage() for r in caplog.records if r.name == "termforge.smt"]
        d = len(dev.pairs)
        assert len(lines) == len(searches) // d
        # every output ties under all-zero weights
        assert lines[0].startswith("MERT iteration 0: dev BLEU ")
        assert f"{d} of {d} dev sentences tied on the top score" in lines[0]
        assert lines[0].endswith("pool of 0 hypotheses")

    def test_line_search_and_ascent_bit_equal(self):
        rng = random.Random(31)
        for trial in range(6):
            pools, stats = random_pool(rng, hyps=8)
            # repeated lines tie on every weight vector
            for feats in pools:
                feats[3] = feats[0].copy()
            weights = np.array([rng.uniform(-1.0, 1.0) for _ in FEATURE_NAMES])
            dots = _pool_dots(pools, weights)
            for dim in range(len(FEATURE_NAMES)):
                want = reference_line_search_dim(pools, stats, weights, dim)
                assert _line_search_dim(pools, stats, weights, dim, dots) == want
            assert _pool_bleu(stats, dots) == reference_pool_bleu(pools, stats, weights)
            got_w, got_bleu = _optimize_on_pool(pools, stats, weights)
            want_w, want_bleu = reference_optimize_on_pool(pools, stats, weights)
            assert np.array_equal(got_w, want_w)
            assert got_bleu == want_bleu


class TestMertStarts:
    @pytest.mark.parametrize("restarts, iterations", [(0, 1), (0, 2), (1, 1), (1, 2)])
    def test_one_ascent_per_distinct_start(self, restarts, iterations, monkeypatch):
        # an iteration's starts are the current weights, the best weights so
        # far and the random restarts; at iteration 0 the first two are
        # both init, so the reference ascends from init twice
        dev, table, lm = sign_corruption_task()
        init = LogLinearWeights(np.array([1.0, 1.0, 1.0, 1.0, -2.0, 0.0, 0.5]))

        def recording(calls, ascent):
            def record(pools, stats, start, *args):
                # the pool only grows, so its size names the iteration
                calls.append((sum(map(len, pools)), start.tobytes()))
                return ascent(pools, stats, start, *args)
            return record

        want_calls, got_calls = [], []
        monkeypatch.setitem(
            globals(), "reference_optimize_on_pool",
            recording(want_calls, reference_optimize_on_pool),
        )
        monkeypatch.setattr(
            smt, "_optimize_on_pool", recording(got_calls, smt._optimize_on_pool)
        )
        want = reference_mert_tune(
            dev, table, lm, init, restarts=restarts, iterations=iterations
        )
        got = mert_tune(dev, table, lm, init, restarts=restarts, iterations=iterations)
        assert np.array_equal(got.values, want.values)
        distinct = []
        for call in want_calls:
            if call not in distinct:
                distinct.append(call)
        assert got_calls == distinct
        assert len(got_calls) < len(want_calls)


class TestMertTune:
    def test_nbest_below_one_is_rejected(self):
        dev, table, lm = sign_corruption_task()
        with pytest.raises(ValueError, match="^nbest must be >= 1"):
            mert_tune(dev, table, lm, LogLinearWeights.default(), nbest=0)

    def test_recovers_from_sign_corrupted_lm_weight(self):
        dev, table, lm = sign_corruption_task()
        init = LogLinearWeights(np.array([1.0, 1.0, 1.0, 1.0, -2.0, 0.0, 0.5]))
        baseline = dev_bleu(dev, table, lm, init)
        tuned = mert_tune(dev, table, lm, init, restarts=2, iterations=3, seed=1)
        assert dev_bleu(dev, table, lm, tuned) > baseline

    def test_fixed_point_when_already_perfect(self):
        dev, table, lm = sign_corruption_task()
        # strong LM weight picks the fluent words, strong distortion penalty
        # keeps them in source order
        good = LogLinearWeights(np.array([0.2, 0.2, 0.2, 0.2, 3.0, 0.0, 5.0]))
        assert dev_bleu(dev, table, lm, good) == pytest.approx(100.0)
        tuned = mert_tune(dev, table, lm, good, restarts=1, iterations=2, seed=3)
        assert dev_bleu(dev, table, lm, tuned) == pytest.approx(100.0)

    def test_never_worse_than_init(self):
        dev, table, lm = sign_corruption_task(seed=9)
        for seed in (0, 1):
            init = LogLinearWeights(
                np.random.default_rng(seed).uniform(-1, 1, len(FEATURE_NAMES))
            )
            tuned = mert_tune(dev, table, lm, init, restarts=1, iterations=2,
                              seed=seed)
            assert dev_bleu(dev, table, lm, tuned) >= dev_bleu(dev, table, lm, init)

    def test_deterministic_given_seed(self):
        dev, table, lm = sign_corruption_task()
        init = LogLinearWeights.default()
        w1 = mert_tune(dev, table, lm, init, restarts=0, iterations=1, seed=5)
        w2 = mert_tune(dev, table, lm, init, restarts=0, iterations=1, seed=5)
        assert np.array_equal(w1.values, w2.values)
