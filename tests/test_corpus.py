"""Corpus loading, normalization, stats, and overlap analytics."""

import re
import subprocess

import pytest

from termforge.corpus import (
    Candidate,
    Lexicon,
    LexiconEntry,
    ParallelCorpus,
    contains_contiguous,
    corpus_stats,
    load_lexicon,
    load_parallel,
    overlap_report,
    save_lexicon,
    tokenize,
)
from termforge.errors import AlignmentError, EmptyCorpusError, LexiconFormatError


def write(path, lines):
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Other bacterial diseases") == (
            "other",
            "bacterial",
            "diseases",
        )

    def test_detaches_edge_punctuation(self):
        assert tokenize("(injury of blood vessels).") == (
            "(",
            "injury",
            "of",
            "blood",
            "vessels",
            ")",
            ".",
        )

    def test_interior_punctuation_kept(self):
        assert tokenize("blood-vessel level") == ("blood-vessel", "level")

    def test_lone_punctuation_survives(self):
        assert tokenize("a . b") == ("a", ".", "b")


class TestLoadParallel:
    def test_basic_pair(self, tmp_path):
        src = write(tmp_path / "s.txt", ["Other bacterial diseases"])
        tgt = write(tmp_path / "t.txt", ["Sonstige bakterielle Krankheiten"])
        corpus = load_parallel(src, tgt)
        assert len(corpus) == 1
        assert corpus.pairs[0] == (
            ("other", "bacterial", "diseases"),
            ("sonstige", "bakterielle", "krankheiten"),
        )

    def test_empty_files_error(self, tmp_path):
        src = write(tmp_path / "s.txt", [])
        tgt = write(tmp_path / "t.txt", [])
        with pytest.raises(EmptyCorpusError):
            load_parallel(src, tgt)

    def test_unequal_lines_error(self, tmp_path):
        src = write(tmp_path / "s.txt", ["a", "b", "c"])
        tgt = write(tmp_path / "t.txt", ["x", "y"])
        with pytest.raises(AlignmentError):
            load_parallel(src, tgt)

    def test_deterministic(self, tmp_path):
        src = write(tmp_path / "s.txt", ["A b, c.", "d E"])
        tgt = write(tmp_path / "t.txt", ["x Y", "z W?"])
        first = corpus_stats(load_parallel(src, tgt))
        second = corpus_stats(load_parallel(src, tgt))
        assert first == second


class TestLoadLexicon:
    def test_merges_rows_for_same_source(self, tmp_path):
        path = write(
            tmp_path / "lex.tsv",
            [
                "# comment line",
                "orbit\torbita\t0.872",
                "orbit\tumlaufbahn\t0.512",
            ],
        )
        lex = load_lexicon(path)
        assert len(lex) == 1
        entry = lex.entries[("orbit",)]
        assert entry.source_term == ("orbit",)
        assert [c.score for c in entry.candidates] == [0.872, 0.512]

    def test_score_out_of_range(self, tmp_path):
        path = write(tmp_path / "lex.tsv", ["orbit\torbita\t1.5"])
        with pytest.raises(LexiconFormatError):
            load_lexicon(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path / "lex.tsv", ["orbit\torbita", "justonecolumn"])
        with pytest.raises(LexiconFormatError, match="line 2"):
            load_lexicon(path)

    @pytest.mark.parametrize(
        "row", ["justonecolumn", "orbit\t", "orbit\torbita\thigh", "orbit\torbita\t1.5"]
    )
    def test_errors_name_the_file_and_line(self, tmp_path, row):
        path = write(tmp_path / "lex.tsv", ["orbit\torbita", row])
        with pytest.raises(LexiconFormatError, match=rf"{re.escape(str(path))}: line 2: "):
            load_lexicon(path)

    def test_abstract_column(self, tmp_path):
        path = write(
            tmp_path / "lex.tsv",
            ["orbit\torbita\t0.9\tthe eye socket in the skull"],
        )
        lex = load_lexicon(path)
        assert lex.entries[("orbit",)].abstract == "the eye socket in the skull"

    def test_roundtrip(self, tmp_path):
        entries = [
            LexiconEntry(
                ("orbit",),
                [Candidate(("orbita",), 0.872), Candidate(("umlaufbahn",), 0.512)],
                abstract="eye socket",
            ),
            LexiconEntry(("burn",), [Candidate(("verbrennung",), 1.0)]),
        ]
        lex = Lexicon({e.source_term: e for e in entries})
        path = tmp_path / "out.tsv"
        save_lexicon(lex, path)
        again = load_lexicon(path)
        first, second = again.entries.values()
        assert first.source_term == ("orbit",)
        assert [c.tokens for c in first.candidates] == [
            ("orbita",),
            ("umlaufbahn",),
        ]
        assert first.abstract == "eye socket"
        assert second.candidates[0].score == 1.0

    def test_best_candidate_prefers_score(self):
        entry = LexiconEntry(
            ("orbit",),
            [Candidate(("umlaufbahn",), 0.512), Candidate(("orbita",), 0.872)],
        )
        lex = Lexicon({entry.source_term: entry})
        assert lex.best_candidate(("orbit",)).tokens == ("orbita",)


class TestCorpusStats:
    def test_single_pair(self):
        corpus = ParallelCorpus([(("a", "b", "a"), ("x", "y"))])
        stats = corpus_stats(corpus)
        assert (stats.lines, stats.source_words, stats.target_words) == (1, 3, 2)
        assert (stats.source_vocab, stats.target_vocab) == (2, 2)

    def test_empty_corpus_all_zero(self):
        stats = corpus_stats(ParallelCorpus([]))
        assert (
            stats.lines,
            stats.source_words,
            stats.target_words,
            stats.source_vocab,
            stats.target_vocab,
        ) == (0, 0, 0, 0, 0)

    def test_against_shell_word_count(self, tmp_path):
        # Punctuation-free fixture so `wc -w` counts exactly our tokens.
        import random

        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(30)]
        src_lines = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 9))) for _ in range(40)
        ]
        tgt_lines = [
            " ".join(rng.choices(vocab, k=rng.randint(1, 9))) for _ in range(40)
        ]
        src = write(tmp_path / "s.txt", src_lines)
        tgt = write(tmp_path / "t.txt", tgt_lines)
        stats = corpus_stats(load_parallel(src, tgt))

        def wc_w(path):
            return int(subprocess.run(
                ["wc", "-w", str(path)], capture_output=True, text=True, check=True
            ).stdout.split()[0])

        assert stats.source_words == wc_w(src)
        assert stats.target_words == wc_w(tgt)
        assert stats.lines == 40
        assert stats.source_vocab == len(set(" ".join(src_lines).split()))
        assert stats.target_vocab == len(set(" ".join(tgt_lines).split()))


def brute_force_overlap(eval_set, reference):
    """Independent oracle: scan every reference sentence for every item."""
    def side_words(side):
        idx = 0 if side == "source" else 1
        words = {w for pair in eval_set.pairs for w in pair[idx]}
        ref_words = {w for pair in reference.pairs for w in pair[idx]}
        found = len([w for w in words if w in ref_words])
        return found, len(words) - found

    def occurs(sentence, term):
        return any(
            sentence[i:i + len(term)] == tuple(term)
            for i in range(len(sentence) - len(term) + 1)
        )

    def side_terms(side):
        idx = 0 if side == "source" else 1
        terms = {pair[idx] for pair in eval_set.pairs}
        found = len(
            [t for t in terms if any(occurs(p[idx], t) for p in reference.pairs)]
        )
        return found, len(terms) - found

    joint = {(s, t) for s, t in eval_set.pairs}
    joint_found = len(
        [
            (s, t)
            for (s, t) in joint
            if any(occurs(ps, s) and occurs(pt, t) for ps, pt in reference.pairs)
        ]
    )
    return {
        "word_source": side_words("source"),
        "word_target": side_words("target"),
        "term_source": side_terms("source"),
        "term_target": side_terms("target"),
        "term_joint": (joint_found, len(joint) - joint_found),
    }


class TestOverlapReport:
    def test_contiguous_term_match(self):
        eval_set = ParallelCorpus([(("blood", "vessels"), ("blutgefäßen",))])
        reference = ParallelCorpus(
            [(("injury", "of", "blood", "vessels"), ("verletzung", "blutgefäßen"))]
        )
        rep = overlap_report(eval_set, reference)
        assert rep.term_source.in_corpus == 1
        assert rep.term_joint.in_corpus == 1

    def test_non_contiguous_is_oov(self):
        eval_set = ParallelCorpus([(("blood", "vessels"), ("x",))])
        reference = ParallelCorpus([(("blood", "of", "vessels"), ("x",))])
        rep = overlap_report(eval_set, reference)
        assert rep.term_source.in_corpus == 0
        assert rep.word_source.in_corpus == 2

    def test_full_word_coverage_is_100(self):
        eval_set = ParallelCorpus([(("a", "b"), ("x",))])
        reference = ParallelCorpus([(("b", "a", "c"), ("x", "y"))])
        rep = overlap_report(eval_set, reference)
        assert rep.word_source.coverage_percent == 100.0
        assert rep.word_target.coverage_percent == 100.0

    def test_counts_match_brute_force(self):
        import random

        rng = random.Random(13)
        vocab = [f"t{i}" for i in range(12)]

        def rand_corpus(n, max_len):
            return ParallelCorpus(
                [
                    (
                        tuple(rng.choices(vocab, k=rng.randint(1, max_len))),
                        tuple(rng.choices(vocab, k=rng.randint(1, max_len))),
                    )
                    for _ in range(n)
                ]
            )

        for trial in range(20):
            eval_set = rand_corpus(6, 3)
            reference = rand_corpus(15, 8)
            rep = overlap_report(eval_set, reference)
            oracle = brute_force_overlap(eval_set, reference)
            assert (rep.word_source.in_corpus, rep.word_source.oov) == oracle["word_source"]
            assert (rep.word_target.in_corpus, rep.word_target.oov) == oracle["word_target"]
            assert (rep.term_source.in_corpus, rep.term_source.oov) == oracle["term_source"]
            assert (rep.term_target.in_corpus, rep.term_target.oov) == oracle["term_target"]
            assert (rep.term_joint.in_corpus, rep.term_joint.oov) == oracle["term_joint"]

    def test_invariants_on_random_corpora(self):
        import random

        rng = random.Random(29)
        vocab = [f"t{i}" for i in range(10)]
        for trial in range(20):
            eval_set = ParallelCorpus(
                [
                    (
                        tuple(rng.choices(vocab, k=rng.randint(1, 3))),
                        tuple(rng.choices(vocab, k=rng.randint(1, 3))),
                    )
                    for _ in range(8)
                ]
            )
            reference = ParallelCorpus(
                [
                    (
                        tuple(rng.choices(vocab, k=rng.randint(2, 7))),
                        tuple(rng.choices(vocab, k=rng.randint(2, 7))),
                    )
                    for _ in range(10)
                ]
            )
            rep = overlap_report(eval_set, reference)
            # in_corpus + oov partitions the distinct item sets
            assert rep.word_source.in_corpus + rep.word_source.oov == len(
                eval_set.vocab("source")
            )
            assert rep.term_source.in_corpus + rep.term_source.oov == len(
                {s for s, _ in eval_set.pairs}
            )
            # joint matches bounded by each side
            assert rep.term_joint.in_corpus <= rep.term_source.in_corpus
            assert rep.term_joint.in_corpus <= rep.term_target.in_corpus
            # a term with any OOV word can never match contiguously
            full_cov = len(
                [
                    s
                    for s in {s for s, _ in eval_set.pairs}
                    if all(w in reference.vocab("source") for w in s)
                ]
            )
            assert rep.term_source.in_corpus <= full_cov

    def test_empty_eval_set_rejected(self):
        with pytest.raises(EmptyCorpusError):
            overlap_report(ParallelCorpus([]), ParallelCorpus([(("a",), ("b",))]))


class TestContainsContiguous:
    def test_at_edges(self):
        assert contains_contiguous(("a", "b", "c"), ("a", "b"))
        assert contains_contiguous(("a", "b", "c"), ("b", "c"))
        assert not contains_contiguous(("a", "b", "c"), ("c", "a"))

    def test_empty_needle(self):
        assert not contains_contiguous(("a",), ())
