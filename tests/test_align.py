"""IBM Model 1 EM, Viterbi alignment, and phrase extraction."""

import math
import os
import random
import re
import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termforge import align as align_module
from termforge.align import (
    NULL_TOKEN,
    PROB_FLOOR,
    PhraseOption,
    PhraseTable,
    TranslationTable,
    _directional_links,
    _grow_diag,
    _phrase_boxes,
    extract_phrases,
    ibm1_em,
    load_phrase_table,
    save_phrase_table,
    viterbi_align,
)
from termforge.corpus import ParallelCorpus, load_parallel, tokenize
from termforge.errors import EmptyCorpusError, ModelFormatError
from termforge.fixtures import write_fixture_files


def oracle_em(pairs, iterations):
    """Hand-rolled dict-based IBM Model 1 EM with a null source token."""
    src_vocab = sorted({w for s, _ in pairs for w in s}) + [NULL_TOKEN]
    tgt_vocab = sorted({w for _, t in pairs for w in t})
    t = {(tw, sw): 1.0 / len(tgt_vocab) for sw in src_vocab for tw in tgt_vocab}
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        for src, tgt in pairs:
            full_src = list(src) + [NULL_TOKEN]
            for tw in tgt:
                denom = sum(t[(tw, sw)] for sw in full_src)
                for sw in full_src:
                    frac = t[(tw, sw)] / denom
                    counts[(tw, sw)] += frac
                    totals[sw] += frac
        for (tw, sw) in t:
            if totals[sw] > 0:
                t[(tw, sw)] = counts[(tw, sw)] / totals[sw]
    return t


def oracle_loglik(table, pairs):
    """Model 1 log-likelihood with uniform alignment over source+null."""
    total = 0.0
    for src, tgt in pairs:
        full_src = list(src) + [NULL_TOKEN]
        for tw in tgt:
            inner = sum(table.prob(tw, sw) for sw in full_src) / len(full_src)
            total += math.log(inner)
    return total


def random_corpus(seed, n_pairs=50, vocab=8, max_len=6):
    rng = random.Random(seed)
    src_vocab = [f"s{i}" for i in range(vocab)]
    tgt_vocab = [f"t{i}" for i in range(vocab)]
    pairs = []
    for _ in range(n_pairs):
        k = rng.randint(1, max_len)
        src = tuple(rng.choices(src_vocab, k=k))
        # loosely parallel: target echoes source indices with noise
        tgt = tuple(
            tgt_vocab[int(w[1:])] if rng.random() < 0.8 else rng.choice(tgt_vocab)
            for w in src
        )
        pairs.append((src, tgt))
    return ParallelCorpus(pairs)


LA_MAISON = ParallelCorpus(
    [
        (("the", "house"), ("la", "maison")),
        (("the", "flower"), ("la", "fleur")),
    ]
)


class TestIbm1Em:
    def test_matches_hand_run_oracle(self):
        table = ibm1_em(LA_MAISON, 10)
        oracle = oracle_em(LA_MAISON.pairs, 10)
        for (tw, sw), p in oracle.items():
            assert table.prob(tw, sw) == pytest.approx(p, abs=1e-12)

    def test_la_given_the_is_argmax(self):
        table = ibm1_em(LA_MAISON, 10)
        p_la = table.prob("la", "the")
        # maximum of the distribution conditioned on "the"
        for tw in table.tgt_vocab:
            if tw != "la":
                assert table.prob(tw, "the") < p_la
        # and "the" is the best source explanation for "la"
        for sw in table.src_vocab:
            if sw != "the":
                assert table.prob("la", sw) <= p_la

    def test_single_pair_forced_mass(self):
        table = ibm1_em(ParallelCorpus([(("x",), ("a",))]), 5)
        assert table.prob("a", "x") >= table.prob("a", NULL_TOKEN) - 1e-12
        assert table.table.sum(axis=1) == pytest.approx(np.ones(len(table.src_vocab)))

    def test_normalization_after_every_iteration(self):
        for iters in (1, 3, 7):
            table = ibm1_em(random_corpus(2), iters)
            sums = table.table.sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-6)

    def test_loglik_non_decreasing(self):
        table = ibm1_em(random_corpus(4), 20)
        hist = table.log_likelihood_history
        assert len(hist) == 20
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9

    def test_history_matches_independent_recomputation(self):
        corpus = random_corpus(6, n_pairs=20)
        full = ibm1_em(corpus, 6)
        for j in range(1, 6):
            partial = ibm1_em(corpus, j)
            # history[j] is the likelihood under the table after j M-steps
            assert full.log_likelihood_history[j] == pytest.approx(
                oracle_loglik(partial, corpus.pairs), abs=1e-9
            )

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            ibm1_em(ParallelCorpus([]), 3)

    def test_deterministic(self):
        t1 = ibm1_em(random_corpus(8), 5)
        t2 = ibm1_em(random_corpus(8), 5)
        assert np.array_equal(t1.table, t2.table)


class TestViterbiAlign:
    def identity_table(self):
        src = [NULL_TOKEN, "a", "b", "c"]
        tgt = ["x", "y", "z"]
        table = np.full((4, 3), 0.01)
        for i, j in [(1, 0), (2, 1), (3, 2)]:
            table[i, j] = 0.9
        return TranslationTable(src, tgt, table, table.copy())

    def test_diagonal_on_identity_table(self):
        table = self.identity_table()
        links = viterbi_align(table, (("a", "b", "c"), ("x", "y", "z")))
        assert links == {(0, 0), (1, 1), (2, 2)}

    def test_converged_la_maison(self):
        table = ibm1_em(LA_MAISON, 15)
        links = viterbi_align(table, LA_MAISON.pairs[0])
        assert (0, 0) in links  # the -> la
        assert (1, 1) in links  # house -> maison

    def test_intersection_subset_of_union(self):
        table = ibm1_em(random_corpus(12, n_pairs=30), 8)
        for pair in random_corpus(13, n_pairs=10).pairs:
            forward, reverse = _directional_links(table, pair)
            assert forward & reverse <= viterbi_align(table, pair) <= forward | reverse


def oracle_phrases(src_len, tgt_len, links, max_len):
    """Exhaustive enumeration of consistent spans with a direct predicate."""
    out = set()
    for i1 in range(src_len):
        for i2 in range(i1 + 1, src_len + 1):
            if i2 - i1 > max_len:
                continue
            for j1 in range(tgt_len):
                for j2 in range(j1 + 1, tgt_len + 1):
                    if j2 - j1 > max_len:
                        continue
                    inside = [
                        (i, j) for (i, j) in links if i1 <= i < i2 and j1 <= j < j2
                    ]
                    if not inside:
                        continue
                    consistent = all(
                        (i1 <= i < i2) == (j1 <= j < j2) for (i, j) in links
                        if (i1 <= i < i2) or (j1 <= j < j2)
                    )
                    if consistent:
                        out.add(((i1, i2), (j1, j2)))
    return out


def ones_table(corpus):
    """A word table over the corpus vocabulary whose every probability is
    1.0, so every lexical weight is 1.0."""
    src_vocab = [NULL_TOKEN] + sorted(corpus.vocab("source"))
    tgt_vocab = sorted(corpus.vocab("target"))
    ones = np.ones((len(src_vocab), len(tgt_vocab)))
    return TranslationTable(src_vocab, tgt_vocab, ones, ones)


class TestExtractPhrases:
    def test_diagonal_two_token_pair(self):
        corpus = ParallelCorpus([(("a", "b"), ("x", "y"))])
        table = extract_phrases(corpus, [{(0, 0), (1, 1)}], ones_table(corpus))
        pairs = {
            (src, opt.target)
            for src, opts in table.entries.items()
            for opt in opts
        }
        assert pairs == {
            (("a",), ("x",)),
            (("b",), ("y",)),
            (("a", "b"), ("x", "y")),
        }
        lexical = {opt.features[2:] for opts in table.entries.values() for opt in opts}
        assert lexical == {(1.0, 1.0)}

    def test_matches_enumeration_oracle(self):
        rng = random.Random(77)
        for trial in range(25):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            links = {
                (rng.randrange(m), rng.randrange(n))
                for _ in range(rng.randint(0, m + n))
            }
            src = tuple(f"s{i}" for i in range(m))
            tgt = tuple(f"t{j}" for j in range(n))
            corpus = ParallelCorpus([(src, tgt)])
            max_len = rng.randint(1, 4)
            table = extract_phrases(
                corpus, [links], ones_table(corpus), max_phrase_len=max_len
            )
            got = {
                ((src.index(s[0]), src.index(s[0]) + len(s)),
                 (tgt.index(o.target[0]), tgt.index(o.target[0]) + len(o.target)))
                for s, opts in table.entries.items()
                for o in opts
            }
            assert got == oracle_phrases(m, n, links, max_len), (links, max_len)

    def test_unaligned_target_attaches(self):
        corpus = ParallelCorpus([(("a", "b"), ("x", "y", "z"))])
        links = {(0, 0), (1, 2)}
        table = extract_phrases(corpus, [links], ones_table(corpus), max_phrase_len=3)
        pairs = {
            (src, opt.target) for src, opts in table.entries.items() for opt in opts
        }
        assert (("a",), ("x", "y")) in pairs
        assert (("b",), ("y", "z")) in pairs
        assert (("a",), ("x",)) in pairs
        assert (("b",), ("y",)) not in pairs  # y alone belongs to no link

    def test_forward_probs_sum_to_one_per_source(self):
        corpus = random_corpus(21, n_pairs=30)
        word_table = ibm1_em(corpus, 5)
        aligns = [viterbi_align(word_table, p) for p in corpus.pairs]
        ptable = extract_phrases(corpus, aligns, word_table)
        for src, opts in ptable.entries.items():
            total = sum(o.features[0] for o in opts)
            assert total <= 1.0 + 1e-6
        # all features are valid probabilities-ish values in (0, 1]
        for opts in ptable.entries.values():
            for o in opts:
                assert all(0.0 < f <= 1.0 + 1e-9 for f in o.features)

    def test_huge_max_phrase_len_is_the_longest_sentence(self, tmp_path):
        """Span growth stops once no span is left, so a limit far past
        every sentence costs what the longest sentence does: one pass per
        unit of the limit would not end here."""
        corpus = random_corpus(23, n_pairs=30)
        word_table = ibm1_em(corpus, 3)
        aligns = [viterbi_align(word_table, p) for p in corpus.pairs]
        longest = max(max(len(s), len(t)) for s, t in corpus.pairs)
        paths = []
        for max_len in (longest, 10**9):
            paths.append(tmp_path / f"table-{max_len}.txt")
            save_phrase_table(
                extract_phrases(corpus, aligns, word_table, max_phrase_len=max_len),
                paths[-1],
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_alignment_count_mismatch(self):
        corpus = ParallelCorpus([(("a",), ("x",))])
        with pytest.raises(ValueError):
            extract_phrases(corpus, [], ones_table(corpus))


class TestPhraseTableIO:
    def test_moses_roundtrip(self, tmp_path):
        corpus = random_corpus(31, n_pairs=20)
        word_table = ibm1_em(corpus, 4)
        aligns = [viterbi_align(word_table, p) for p in corpus.pairs]
        ptable = extract_phrases(corpus, aligns, word_table)
        path = tmp_path / "phrase-table"
        save_phrase_table(ptable, path)
        again = load_phrase_table(path)
        assert set(again.entries) == set(ptable.entries)
        assert again.max_phrase_len == ptable.max_phrase_len == max(map(len, ptable.entries))
        for src in ptable.entries:
            got = {(o.target, o.features) for o in again.entries[src]}
            want = {(o.target, o.features) for o in ptable.entries[src]}
            assert got == want

    def test_file_format(self, tmp_path):
        ptable = PhraseTable({("a",): [PhraseOption(("x",), (0.5, 1.0, 0.25, 1.0))]})
        path = tmp_path / "pt"
        save_phrase_table(ptable, path)
        line = path.read_text(encoding="utf-8").strip()
        assert line == "a ||| x ||| 0.5 1.0 0.25 1.0"

    def test_wrong_field_count_names_file_and_line(self, tmp_path):
        path = tmp_path / "pt"
        path.write_text("a ||| x ||| 0.5 1 1 1\nb ||| y\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=rf"{re.escape(str(path))}: line 2: expected 3"):
            load_phrase_table(path)

    @pytest.mark.parametrize("feats", ["0.5 1 1", "0.5 1 1 1 1"])
    def test_wrong_feature_count_names_file_and_line(self, tmp_path, feats):
        path = tmp_path / "pt"
        path.write_text(f"a ||| x ||| 0.5 1 1 1\nb ||| y ||| {feats}\n", encoding="utf-8")
        with pytest.raises(
            ModelFormatError, match=rf"{re.escape(str(path))}: line 2: expected 4 features"
        ):
            load_phrase_table(path)

    def test_non_numeric_feature_names_file_and_line(self, tmp_path):
        path = tmp_path / "pt"
        path.write_text("a ||| x ||| 0.5 1 1 1\nb ||| y ||| 0.5 one 1 1\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=rf"{re.escape(str(path))}: line 2: bad feature"):
            load_phrase_table(path)

    def test_non_finite_feature_names_file_and_line(self, tmp_path):
        path = tmp_path / "pt"
        path.write_text("a ||| x ||| 0.5 1 1 1\na ||| y ||| nan 0.5 0.5 0.5\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=rf"{re.escape(str(path))}: line 2: bad feature"):
            load_phrase_table(path)

    @pytest.mark.parametrize("line, side", [
        ("a |||  ||| 0.5 0.5 0.5 0.5", "target"),
        (" ||| y ||| 0.5 0.5 0.5 0.5", "source"),
    ])
    def test_empty_phrase_names_file_and_line(self, tmp_path, line, side):
        # an empty target would delete its source words from the output
        path = tmp_path / "pt"
        path.write_text(f"a ||| x ||| 0.5 1 1 1\n{line}\n", encoding="utf-8")
        with pytest.raises(
            ModelFormatError, match=rf"{re.escape(str(path))}: line 2: empty {side}"
        ):
            load_phrase_table(path)

    def test_lookups_build_the_options_of_an_eager_parse(self, tmp_path):
        corpus = random_corpus(47, n_pairs=20)
        word_table = ibm1_em(corpus, 4)
        aligns = [viterbi_align(word_table, p) for p in corpus.pairs]
        ptable = extract_phrases(corpus, aligns, word_table)
        path = tmp_path / "phrase-table"
        save_phrase_table(ptable, path)
        eager = defaultdict(list)  # every line parsed, in file order
        for line in path.read_text(encoding="utf-8").splitlines():
            src, tgt, feats = line.split(" ||| ")
            eager[tuple(src.split())].append(
                (tuple(tgt.split()), [float(x).hex() for x in feats.split()])
            )
        assert any(len(options) > 1 for options in eager.values())
        again = load_phrase_table(path)
        assert len(again) == len(ptable) == len(eager)
        assert again.max_phrase_len == ptable.max_phrase_len
        for src in sorted(eager, reverse=True):
            got = again.options(src)
            assert [(o.target, [f.hex() for f in o.features]) for o in got] == eager[src]
            assert again.options(list(src)) is got
        assert again.options(("never", "seen")) == []
        assert again.options(max(eager, key=len) + ("x",)) == []
        # lookups change neither
        assert len(again) == len(ptable)
        assert again.max_phrase_len == ptable.max_phrase_len

    @pytest.mark.parametrize("line, message", [
        ("zz ||| q ||| 0.5 one 1 1", "bad feature value"),
        ("zz ||| q ||| 0.5 1 nan 1", "bad feature value"),
        ("zz ||| q ||| 0.5 1 1", "expected 4 features"),
        ("zz |||  ||| 0.5 1 1 1", "empty target"),
    ])
    def test_bad_line_of_a_phrase_never_looked_up_fails_the_load(
        self, tmp_path, line, message
    ):
        path = tmp_path / "pt"
        path.write_text(
            f"a ||| x ||| 0.5 1 1 1\nb ||| y ||| 0.5 1 1 1\n{line}\n", encoding="utf-8"
        )
        with pytest.raises(
            ModelFormatError, match=rf"{re.escape(str(path))}: line 3: {message}"
        ):
            load_phrase_table(path)

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "pt"
        path.write_text(
            "a ||| x ||| 0.5 1 1 1\nb ||| y ||| 0.5 1 1 oops\n"
            "c ||| z ||| 0.5 1 1 1\nd ||| w\n",
            encoding="utf-8",
        )
        with pytest.raises(
            ModelFormatError, match=rf"{re.escape(str(path))}: line 2: bad feature value"
        ):
            load_phrase_table(path)

    @pytest.mark.parametrize("feats, reason", [
        ("nan one 1 1", "non-finite value 'nan'"),
        ("one nan 1 1", "could not convert string to float: 'one'"),
        ("1 inf 1e999 1", "non-finite value 'inf'"),
    ])
    def test_first_bad_value_of_a_line_is_named(self, tmp_path, feats, reason):
        path = tmp_path / "pt"
        path.write_text(f"a ||| x ||| {feats}\n", encoding="utf-8")
        with pytest.raises(
            ModelFormatError, match=rf"line 1: bad feature value: {re.escape(reason)}$"
        ):
            load_phrase_table(path)

    def test_each_word_is_one_string(self, tmp_path):
        path = tmp_path / "pt"
        path.write_text(
            "orbit ||| orbita ||| 1 1 1 1\nthe orbit ||| la orbita ||| 1 1 1 1\n",
            encoding="utf-8",
        )
        entries = load_phrase_table(path).entries
        keys = {len(src): src for src in entries}
        assert keys[1][0] is keys[2][1]
        assert entries[("orbit",)][0].target[0] is entries[("the", "orbit")][0].target[1]


# Reference implementations: plain scans over the links and the table.
# The array-backed versions in termforge.align must match them exactly,
# down to the iteration order of the link sets, because lexical weights
# sum in link order and are written with repr.


def left_to_right_sum(values):
    """The sum of ``values`` added in order, as sum() adds floats before
    Python 3.12 (which compensates for rounding)."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_directional_links(table, pair):
    src, tgt = pair
    src_ids = [table._src_index.get(w, 0) for w in src]
    tgt_ids = [table._tgt_index.get(w) for w in tgt]
    forward = set()
    for j, tj in enumerate(tgt_ids):
        if tj is None:
            continue
        best_i, best_p = None, table.table[0, tj]  # null link wins ties
        for i, si in enumerate(src_ids):
            p = table.table[si, tj]
            if p > best_p:
                best_i, best_p = i, p
        if best_i is not None:
            forward.add((best_i, j))
    reverse = set()
    for i, si in enumerate(src_ids):
        best_j, best_p = None, 0.0
        for j, tj in enumerate(tgt_ids):
            if tj is None:
                continue
            p = table.table[si, tj]
            if p > best_p:
                best_j, best_p = j, p
        if best_j is not None:
            reverse.add((i, best_j))
    return forward, reverse


def reference_grow_diag(forward, reverse, src_len, tgt_len):
    links = set(forward & reverse)
    union = forward | reverse
    neighbors = [(-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    grew = True
    while grew:
        grew = False
        for i in range(src_len):
            for j in range(tgt_len):
                if (i, j) not in links:
                    continue
                for di, dj in neighbors:
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < src_len and 0 <= nj < tgt_len):
                        continue
                    if (ni, nj) not in union or (ni, nj) in links:
                        continue
                    src_free = all(link[0] != ni for link in links)
                    tgt_free = all(link[1] != nj for link in links)
                    if src_free or tgt_free:
                        links.add((ni, nj))
                        grew = True
    for cand in sorted(union - links):
        src_free = all(link[0] != cand[0] for link in links)
        tgt_free = all(link[1] != cand[1] for link in links)
        if src_free or tgt_free:
            links.add(cand)
    return links


def reference_consistent_phrases(src_len, tgt_len, links, max_len):
    aligned_tgt = {j for _, j in links}
    out = []
    for i1 in range(src_len):
        for i2 in range(i1 + 1, min(i1 + max_len, src_len) + 1):
            span_links = [(i, j) for i, j in links if i1 <= i < i2]
            if not span_links:
                continue
            j_min = min(j for _, j in span_links)
            j_max = max(j for _, j in span_links) + 1
            if any(j_min <= j < j_max and not (i1 <= i < i2) for i, j in links):
                continue
            if j_max - j_min > max_len:
                continue
            lo = j_min
            while True:
                hi = j_max
                while True:
                    if hi - lo <= max_len:
                        out.append(((i1, i2), (lo, hi)))
                    hi += 1
                    if hi > tgt_len or (hi - 1) in aligned_tgt:
                        break
                lo -= 1
                if lo < 0 or lo in aligned_tgt:
                    break
    return out


def inv_prob(table, source_word, target_word):
    """The inverse direction's probability of a word pair, read from
    ``table.inverse`` through the table's word indexes; 0.0 for an unseen
    word."""
    si = table._src_index.get(source_word)
    ti = table._tgt_index.get(target_word)
    if si is None or ti is None:
        return 0.0
    return float(table.inverse[si, ti])


def reference_lexical_weight(src_phrase, tgt_phrase, span_links, table, inverse=False):
    """Koehn lexical weight of one phrase instance over its internal links."""
    weight = 1.0
    if inverse:
        for i, s in enumerate(src_phrase):
            aligned = [j for (ii, j) in span_links if ii == i]
            if aligned:
                total = left_to_right_sum(inv_prob(table, s, tgt_phrase[j]) for j in aligned)
                weight *= total / len(aligned)
        return weight
    for j, t in enumerate(tgt_phrase):
        aligned = [i for (i, jj) in span_links if jj == j]
        if aligned:
            total = left_to_right_sum(table.prob(t, src_phrase[i]) for i in aligned)
            weight *= total / len(aligned)
        else:
            weight *= table.prob(t, NULL_TOKEN)
    return weight


def reference_lexical_features(corpus, alignments, max_len, table):
    """(forward, reverse) lexical weight of each phrase pair: the maximum
    over its instances, each weighed on its own."""
    best = {}
    for (src, tgt), links in zip(corpus.pairs, alignments):
        for (i1, i2), (j1, j2) in reference_consistent_phrases(
            len(src), len(tgt), links, max_len
        ):
            s_phrase, t_phrase = tuple(src[i1:i2]), tuple(tgt[j1:j2])
            internal = [
                (i - i1, j - j1) for i, j in links if i1 <= i < i2 and j1 <= j < j2
            ]
            fwd = reference_lexical_weight(s_phrase, t_phrase, internal, table)
            rev = reference_lexical_weight(s_phrase, t_phrase, internal, table, True)
            old = best.get((s_phrase, t_phrase), (0.0, 0.0))
            best[(s_phrase, t_phrase)] = (max(old[0], fwd), max(old[1], rev))
    return best


def word_table(rng, draw):
    """A table over s0..s5 / t0..t5 (plus null) with entries from ``draw``."""
    src_vocab = [NULL_TOKEN] + [f"s{i}" for i in range(6)]
    tgt_vocab = [f"t{j}" for j in range(6)]

    def block():
        return np.array([[draw() for _ in tgt_vocab] for _ in src_vocab])

    return TranslationTable(src_vocab, tgt_vocab, block(), block())


def tied_table(rng):
    """Entries from a few values, so exact ties (with each other, with
    null, and at zero) are common."""
    return word_table(rng, lambda: rng.choice([0.0, 0.125, 0.25, 0.5]))


def random_links(rng, m, n):
    cells = [(i, j) for i in range(m) for j in range(n)]
    return set(rng.sample(cells, rng.randint(0, min(len(cells), m + n))))


def sentence_boxes(m, n, links, max_len):
    """The ((i1, i2), (j1, j2)) boxes _phrase_boxes finds in a corpus of
    one m-by-n sentence pair, sorted."""
    link_src = np.array([i for i, _ in links], dtype=np.int64)
    link_tgt = np.array([j for _, j in links], dtype=np.int64)
    span_start, span_len, box_span, box_start, box_len = _phrase_boxes(
        np.array([0, m]), np.array([0, n]), link_src, link_tgt, max_len
    )
    return sorted(
        ((int(span_start[s]), int(span_start[s] + span_len[s])), (int(j), int(j + w)))
        for s, j, w in zip(box_span, box_start, box_len)
    )


class TestAgainstReference:
    def test_directional_links_with_ties_and_unknown_words(self):
        rng = random.Random(5)
        for _ in range(300):
            table = tied_table(rng)
            # s6 / t6 are unknown to the table
            src = tuple(f"s{rng.randrange(7)}" for _ in range(rng.randint(0, 7)))
            tgt = tuple(f"t{rng.randrange(7)}" for _ in range(rng.randint(0, 7)))
            got = _directional_links(table, (src, tgt))
            want = reference_directional_links(table, (src, tgt))
            assert [list(x) for x in got] == [list(x) for x in want], (src, tgt)

    def test_grow_diag(self):
        rng = random.Random(6)
        for _ in range(500):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            forward, reverse = random_links(rng, m, n), random_links(rng, m, n)
            got = _grow_diag(forward, reverse)
            want = reference_grow_diag(forward, reverse, m, n)
            assert list(got) == list(want), (forward, reverse)

    def test_consistent_phrases(self):
        rng = random.Random(7)
        for _ in range(500):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            links = random_links(rng, m, n)
            max_len = rng.randint(1, 5)
            got = sentence_boxes(m, n, links, max_len)
            assert got == sorted(reference_consistent_phrases(m, n, links, max_len))

    def test_lexical_weights_bit_equal(self):
        rng = random.Random(8)
        for _ in range(40):
            # sums of arbitrary floats depend on their order
            table = word_table(rng, lambda: rng.uniform(0.05, 1.0))
            pairs, alignments = [], []
            for _ in range(6):
                # short pairs: whole-sentence boxes hold words with 3+ links
                m, n = rng.randint(1, 5), rng.randint(1, 5)
                pairs.append((
                    tuple(f"s{rng.randrange(7)}" for _ in range(m)),
                    tuple(f"t{rng.randrange(7)}" for _ in range(n)),
                ))
                alignments.append(random_links(rng, m, n))
            corpus = ParallelCorpus(pairs)
            max_len = rng.randint(1, 5)
            ptable = extract_phrases(corpus, alignments, table, max_len)
            want = reference_lexical_features(corpus, alignments, max_len, table)
            got = {
                (s, o.target): o.features[2:]
                for s, opts in ptable.entries.items()
                for o in opts
            }
            assert set(got) == set(want)
            for key, (fwd, rev) in want.items():
                assert got[key] == (max(fwd, PROB_FLOOR), max(rev, PROB_FLOOR))


# Round-trip oracle: the table save_phrase_table returns is the one
# load_phrase_table reads back from the file it wrote, before and after
# every phrase's options are built.


def saved_and_loaded(ptable, path):
    """What save_phrase_table returns, without parsing the file, and what
    load_phrase_table reads back from it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(align_module, "load_phrase_table", None)  # a parse would fail
        saved = save_phrase_table(ptable, path)
    return saved, load_phrase_table(path)


def assert_same_table(got, want):
    assert list(got._entries) == list(want._entries)
    assert got._entries == want._entries  # each phrase's lines, unparsed
    assert got.max_phrase_len == want.max_phrase_len
    built, want_built = got.entries, want.entries
    assert list(built) == list(want_built)
    for src, options in want_built.items():
        assert [(o.target, [f.hex() for f in o.features]) for o in built[src]] == [
            (o.target, [f.hex() for f in o.features]) for o in options
        ], src


def extracted(corpus, max_len):
    table = ibm1_em(corpus, 3)
    alignments = [viterbi_align(table, pair) for pair in corpus.pairs]
    return extract_phrases(corpus, alignments, table, max_len)


# words as the tokenizer makes them from text with punctuation, tabs and
# non-ASCII letters, so "|" and "a|||b" words are drawn too
TEXT_WORDS = st.text("ab|é.-\t", min_size=1, max_size=4)
SIDES = st.lists(TEXT_WORDS, min_size=1, max_size=6).map(
    lambda words: tokenize(" ".join(words))
).filter(bool)


class TestSaveReturnsTheLoadedTable:
    @pytest.mark.parametrize("max_len", [1, 4])
    def test_toy_corpus(self, tmp_path, max_len):
        write_fixture_files(str(tmp_path / "data"), seed=42)
        corpus = load_parallel(tmp_path / "data" / "generic.src", tmp_path / "data" / "generic.tgt")
        saved, loaded = saved_and_loaded(extracted(corpus, max_len), tmp_path / "pt")
        assert_same_table(saved, loaded)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(st.lists(st.tuples(SIDES, SIDES), min_size=1, max_size=10), st.integers(1, 4))
    def test_drawn_corpora(self, pairs, max_len):
        ptable = extracted(ParallelCorpus(pairs), max_len)
        with tempfile.TemporaryDirectory() as tmp:
            if not len(ptable):  # written, but no table reads back
                assert save_phrase_table(ptable, os.path.join(tmp, "pt")) is None
                return
            saved, loaded = saved_and_loaded(ptable, os.path.join(tmp, "pt"))
        assert_same_table(saved, loaded)

    def test_half_built_table_saved_again(self, tmp_path):
        path = tmp_path / "pt"
        save_phrase_table(extracted(random_corpus(5, n_pairs=20), 3), path)
        table = load_phrase_table(path)
        table.options(next(iter(table._entries)))
        saved, loaded = saved_and_loaded(table, tmp_path / "again")
        assert_same_table(saved, loaded)

    @pytest.mark.parametrize("src, tgt", [
        (("x", "|||"), ("y",)),  # a "|||" word moves the separator
        (("x\xady",), ("y",)),  # a soft hyphen is not whitespace, but unprintable
        (("x", ""), ("y",)),  # an empty word is read as no word
    ])
    def test_text_that_reads_back_otherwise_is_loaded(self, tmp_path, src, tgt):
        ptable = PhraseTable({src: [PhraseOption(tgt, (0.5, 0.5, 0.5, 0.5))]})
        path = tmp_path / "pt"
        saved = save_phrase_table(ptable, path)
        assert_same_table(saved, load_phrase_table(path))

    @pytest.mark.parametrize("entries", [
        {},
        {("a",): []},
        {("a",): [PhraseOption(("x",), (0.5, math.inf, 0.5, 0.5))]},
        {("a",): [PhraseOption((), (0.5, 0.5, 0.5, 0.5))]},
    ])
    def test_file_the_loader_rejects_returns_none(self, tmp_path, entries):
        path = tmp_path / "pt"
        assert save_phrase_table(PhraseTable(entries), path) is None
        with pytest.raises(ModelFormatError):
            load_phrase_table(path)

    @pytest.mark.parametrize("features", [(0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5, 0.5)])
    def test_features_not_four_raise_and_write_nothing(self, tmp_path, features):
        path = tmp_path / "pt"
        with pytest.raises(ValueError):
            save_phrase_table(PhraseTable({("a",): [PhraseOption(("x",), features)]}), path)
        assert not path.exists()


# Whole-table oracle: extract_phrases, its per-word factors and
# save_phrase_table as they were before extraction was reworked.  The
# written table must keep its bytes: every feature, every option order.


def oracle_word_factors(src, tgt, links, table):
    by_tgt = [[] for _ in tgt]
    by_src = [[] for _ in src]
    for i, j in links:
        by_tgt[j].append(table.prob(tgt[j], src[i]))
        by_src[i].append(inv_prob(table, src[i], tgt[j]))
    fwd = [
        left_to_right_sum(ps) / len(ps) if ps else table.prob(t, NULL_TOKEN)
        for ps, t in zip(by_tgt, tgt)
    ]
    rev = [left_to_right_sum(ps) / len(ps) if ps else 1.0 for ps in by_src]
    return fwd, rev


def oracle_extract_phrases(corpus, alignments, table, max_phrase_len=7):
    pair_counts = defaultdict(int)
    src_counts = defaultdict(int)
    tgt_counts = defaultdict(int)
    lex_fwd = {}
    lex_rev = {}

    for (src, tgt), links in zip(corpus.pairs, alignments):
        boxes = reference_consistent_phrases(len(src), len(tgt), links, max_phrase_len)
        fwd_factors, rev_factors = oracle_word_factors(src, tgt, links, table)
        for (i1, i2), (j1, j2) in boxes:
            s_phrase = tuple(src[i1:i2])
            t_phrase = tuple(tgt[j1:j2])
            key = (s_phrase, t_phrase)
            pair_counts[key] += 1
            src_counts[s_phrase] += 1
            tgt_counts[t_phrase] += 1
            fwd = math.prod(fwd_factors[j1:j2])
            rev = math.prod(rev_factors[i1:i2])
            lex_fwd[key] = max(lex_fwd.get(key, 0.0), fwd)
            lex_rev[key] = max(lex_rev.get(key, 0.0), rev)

    entries = defaultdict(list)
    for (s_phrase, t_phrase), count in sorted(pair_counts.items()):
        key = (s_phrase, t_phrase)
        phi_fwd = count / src_counts[s_phrase]
        phi_rev = count / tgt_counts[t_phrase]
        features = (
            max(phi_fwd, PROB_FLOOR),
            max(phi_rev, PROB_FLOOR),
            max(lex_fwd[key], PROB_FLOOR),
            max(lex_rev[key], PROB_FLOOR),
        )
        entries[s_phrase].append(PhraseOption(t_phrase, features))
    for options in entries.values():
        options.sort(key=lambda o: (-o.features[0], o.target))
    return PhraseTable(dict(entries))


def oracle_phrase_table_text(ptable):
    out = []
    for src in sorted(ptable.entries):
        for opt in ptable.entries[src]:
            feats = " ".join(repr(float(v)) for v in opt.features)
            out.append(f"{' '.join(src)} ||| {' '.join(opt.target)} ||| {feats}\n")
    return "".join(out)


class TestWholeTableOracle:
    def check(self, corpus, alignments, table, max_len, tmp_path):
        got = extract_phrases(corpus, alignments, table, max_len)
        want = oracle_extract_phrases(corpus, alignments, table, max_len)
        assert list(got.entries) == sorted(got.entries)
        assert got.max_phrase_len == want.max_phrase_len
        path = tmp_path / "phrase-table"
        save_phrase_table(got, path)
        assert path.read_bytes() == oracle_phrase_table_text(want).encode("utf-8")

    def test_random_links_tied_table_and_unknown_words(self, tmp_path):
        rng = random.Random(11)
        for trial in range(60):
            table = tied_table(rng) if trial % 2 else word_table(rng, rng.random)
            pairs, alignments = [], []
            for _ in range(rng.randint(1, 12)):
                # s6 / t6 are unknown to the table; few words, so phrase
                # pairs repeat across sentences and within one
                m, n = rng.randint(1, 8), rng.randint(1, 8)
                pairs.append((
                    tuple(f"s{rng.randrange(3 if trial % 3 else 7)}" for _ in range(m)),
                    tuple(f"t{rng.randrange(3 if trial % 3 else 7)}" for _ in range(n)),
                ))
                alignments.append(random_links(rng, m, n))
            self.check(ParallelCorpus(pairs), alignments, table, rng.randint(1, 5), tmp_path)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_trained_and_aligned_corpora(self, seed, tmp_path):
        corpus = random_corpus(seed, n_pairs=40, vocab=6, max_len=7)
        table = ibm1_em(corpus, 4)
        alignments = [viterbi_align(table, pair) for pair in corpus.pairs]
        for max_len in (1, 3, 7):
            self.check(corpus, alignments, table, max_len, tmp_path)


# drawn corpora over s0..s6 / t0..t6, of which s6 and t6 are unknown to the
# word table: sides may be empty, links may be dense (a word with three or
# more links) or sparse (unaligned target runs at box edges)


@st.composite
def drawn_extraction(draw):
    values = st.one_of(
        st.sampled_from([0.0, 0.125, 0.25, 0.5]), st.floats(0.05, 1.0)
    )
    cells = draw(st.lists(values, min_size=84, max_size=84))
    src_vocab = [NULL_TOKEN] + [f"s{i}" for i in range(6)]
    tgt_vocab = [f"t{j}" for j in range(6)]
    table = TranslationTable(
        src_vocab, tgt_vocab,
        np.array(cells[:42]).reshape(7, 6), np.array(cells[42:]).reshape(7, 6),
    )
    pairs, alignments = [], []
    for _ in range(draw(st.integers(1, 6))):
        src = draw(st.lists(st.integers(0, 6), max_size=7))
        tgt = draw(st.lists(st.integers(0, 6), max_size=7))
        pairs.append((tuple(f"s{i}" for i in src), tuple(f"t{j}" for j in tgt)))
        links = st.tuples(st.integers(0, len(src) - 1), st.integers(0, len(tgt) - 1))
        alignments.append(draw(st.sets(links)) if src and tgt else set())
    return ParallelCorpus(pairs), alignments, table, draw(st.integers(1, 7))


class TestDrawnAgainstOracle:
    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(drawn_extraction(), st.booleans())
    def test_extraction_and_written_bytes(self, drawn, as_generator):
        corpus, alignments, table, max_len = drawn
        links = (set(a) for a in alignments) if as_generator else alignments
        got = extract_phrases(corpus, links, table, max_len)
        want = oracle_extract_phrases(corpus, alignments, table, max_len)
        assert list(got._entries) == sorted(want.entries)
        assert got.max_phrase_len == want.max_phrase_len
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pt")
            saved = save_phrase_table(got, path)
            with open(path, "rb") as f:
                assert f.read() == oracle_phrase_table_text(want).encode("utf-8")
            if len(want):
                assert_same_table(saved, load_phrase_table(path))
            else:
                assert saved is None

    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("n_sets", [0, 1, 3])
    def test_link_set_count_differs_from_pair_count(self, n_sets, as_generator):
        corpus = ParallelCorpus([(("a",), ("x",)), (("b",), ("y",))])
        sets = [{(0, 0)}] * n_sets
        with pytest.raises(ValueError, match="pair-for-pair"):
            extract_phrases(corpus, iter(sets) if as_generator else sets, ones_table(corpus))

    def test_link_outside_its_pair(self):
        corpus = ParallelCorpus([(("a",), ("x", "y")), (("b",), ("z",))])
        with pytest.raises(ValueError, match="outside"):
            extract_phrases(corpus, [{(0, 2)}, {(0, 0)}], ones_table(corpus))

    @pytest.mark.parametrize("bad, returns_table", [(math.nan, True), (math.inf, False)])
    def test_word_table_with_a_non_finite_value(self, tmp_path, bad, returns_table):
        # a NaN weight never exceeds a pair's running maximum, so no NaN is
        # written; an infinite one is, and the loader rejects the file
        corpus = ParallelCorpus([(("s0", "s1"), ("t0", "t1", "t2")), (("s0",), ("t0",))])
        alignments = [{(0, 0), (1, 1)}, {(0, 0)}]
        table = word_table(random.Random(3), lambda: 0.5)
        table.table[1, 0] = table.inverse[2, 1] = bad
        got = extract_phrases(corpus, alignments, table, 3)
        want = oracle_extract_phrases(corpus, alignments, table, 3)
        path = tmp_path / "pt"
        saved = save_phrase_table(got, path)
        assert path.read_bytes() == oracle_phrase_table_text(want).encode("utf-8")
        if returns_table:
            assert_same_table(saved, load_phrase_table(path))
        else:
            assert saved is None
