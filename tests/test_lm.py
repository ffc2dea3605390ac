"""Kneser-Ney n-gram model: normalization, scoring, ARPA round trip."""

import math
import os
import random
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termforge import lm as lm_module
from termforge.corpus import load_parallel, tokenize
from termforge.errors import EmptyCorpusError, ModelFormatError
from termforge.align import PhraseOption, PhraseTable
from termforge.fixtures import write_fixture_files
from termforge.lm import BOS, EOS, UNK, NgramLanguageModel, load_arpa, save_arpa, train_lm
from termforge.smt import BeamConfig, LogLinearWeights, decode_nbest


def fixture_sentences(seed=5, n=60, vocab_size=8, max_len=7):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [tuple(rng.choices(vocab, k=rng.randint(1, max_len))) for _ in range(n)]


def context_sum(model, context):
    """Exhaustive oracle: sum P(w|context) over the full prediction set."""
    return sum(math.exp(model.cond_logprob(w, context)) for w in model.prediction_set)


def reference_cond_logprob(model, word, context):
    """``cond_logprob`` as it was before its fast path: every kept context
    token is mapped through the vocabulary on every call."""
    if word not in model.prediction_set:
        word = UNK
    ctx = tuple(
        tok if tok in model.vocab else UNK
        for tok in context[max(0, len(context) - (model.order - 1)):]
    )
    acc = 0.0
    while True:
        prob = model.logprob.get(ctx + (word,))
        if prob is not None:
            return acc + prob
        if not ctx:
            return acc + model.logprob[(word,)]
        acc += model.backoff.get(ctx, 0.0)
        ctx = ctx[1:]


class TestCondLogprobAgainstReference:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_bit_equal(self, order):
        model = train_lm(fixture_sentences(seed=order, n=40, vocab_size=6), order=order)
        rng = random.Random(100 + order)
        words = sorted(model.prediction_set) + ["oov1", BOS]
        context_words = sorted(model.vocab) + ["oov1", "oov2"]
        oov_contexts = long_contexts = 0
        for _ in range(500):
            context = rng.choices(context_words, k=rng.randint(0, order + 2))
            if rng.random() < 0.3:
                context = [BOS] + context
            kept = context[max(0, len(context) - (order - 1)):]
            oov_contexts += any(tok not in model.vocab for tok in kept)
            long_contexts += len(context) > order - 1
            word = rng.choice(words)
            want = reference_cond_logprob(model, word, context).hex()
            assert model.cond_logprob(word, context).hex() == want
            assert model.cond_logprob(word, tuple(context)).hex() == want
        assert long_contexts > 0
        if order > 1:
            assert oov_contexts > 0


# Hand-written models.  In the trigram one, "x y" has a back-off weight and
# no trigram extends it; "p q r" is a trigram whose context "p q" is no
# bigram and has no back-off weight, and no bigram starts with "p".  In the
# 4-gram one, <s> has a back-off weight and starts no n-gram; "p q r s" is
# the only n-gram above order 1 that starts with "p", so neither its prefix
# "p q" nor the suffix "q r" of its context is an n-gram or has a weight.
HAND_ARPAS = [
    """\\data\\
ngram 1=8
ngram 2=3
ngram 3=2

\\1-grams:
-99\t<s>\t-0.5
-1.0\t</s>
-1.5\t<unk>
-0.7\tx\t-0.2
-0.8\ty\t-0.3
-0.9\tp
-1.1\tq\t-0.4
-1.2\tr

\\2-grams:
-0.3\t<s> x\t-0.1
-0.4\tx y\t-0.6
-0.5\tq r

\\3-grams:
-0.2\t<s> x y
-0.1\tp q r

\\end\\
""",
    """\\data\\
ngram 1=7
ngram 2=2
ngram 3=0
ngram 4=1

\\1-grams:
-99\t<s>\t-0.5
-1.0\t</s>
-1.5\t<unk>
-0.9\tp
-1.1\tq
-1.2\tr\t-0.2
-0.6\ts\t-0.7

\\2-grams:
-0.3\tr s
-0.4\ts </s>

\\3-grams:

\\4-grams:
-0.1\tp q r s

\\end\\
""",
]


@pytest.fixture(scope="module")
def hand_models(tmp_path_factory):
    models = []
    for i, text in enumerate(HAND_ARPAS):
        path = tmp_path_factory.mktemp("arpa") / f"hand{i}.arpa"
        path.write_text(text, encoding="utf-8")
        models.append(load_arpa(path))
    return models


def lm_models(hand_models):
    """Trained models of orders 1 to 4, and the hand-written ones."""
    models = [
        train_lm(fixture_sentences(seed=order, n=40, vocab_size=6), order=order)
        for order in (1, 2, 3, 4)
    ]
    return models + hand_models


def reference_phrase(model, phrase, history):
    """A phrase's LM term as the search adds it: its words' reference
    log-probs added from 0.0 in order; ``history`` grows by the phrase."""
    total = 0.0
    for word in phrase:
        total += reference_cond_logprob(model, word, history)
        history.append(word)
    return total


class TestStateTables:
    def test_hand_written_arpa_bit_equal(self, hand_models):
        ln10 = math.log(10.0)
        assert hand_models[0].cond_logprob("r", ["p", "q"]) == -0.1 * ln10
        assert hand_models[1].cond_logprob("s", ["p", "q", "r"]) == -0.1 * ln10
        assert hand_models[1].cond_logprob("p", [BOS]) == -0.5 * ln10 + -0.9 * ln10
        for model in hand_models:
            words = sorted(model.vocab) + ["oov"]
            contexts = level = [()]
            for _ in range(model.order):
                level = [(w,) + c for c in level for w in words]
                contexts = contexts + level
            for context in contexts:
                for word in words:
                    want = reference_cond_logprob(model, word, context).hex()
                    assert model.cond_logprob(word, context).hex() == want

    def test_phrase_walk_bit_equal(self, hand_models):
        """Stepping through a phrase from a context's state gives the
        reference phrase term, and ends in the state of the longer context."""
        rng = random.Random(11)
        for model in lm_models(hand_models):
            tables = model.tables
            words = sorted(model.vocab) + ["oov"]
            for _ in range(300):
                history = rng.choices(words, k=rng.randint(0, 4))
                if rng.random() < 0.5:
                    history = [BOS] + history
                state = tables.state(history)
                phrase = rng.choices(words, k=rng.randint(1, 4))
                total = 0.0
                for word in phrase:
                    logprob, state = tables.step(state, tables.ids.get(word, tables.unk))
                    total += logprob
                want = reference_phrase(model, phrase, history)
                assert total.hex() == want.hex()
                assert state == tables.state(history)

    def test_search_lm_term_bit_equal(self, hand_models):
        """The LM feature of every n-best result is the reference sum of its
        phrase terms and end-of-sentence event, from the root's 0.0."""
        rng = random.Random(12)
        weights = LogLinearWeights(np.array([1.0, 0.5, 0.5, 0.5, 1.0, 0.1, 0.2]))
        for model in lm_models(hand_models):
            targets = sorted(model.prediction_set) + ["oov", BOS]
            table = PhraseTable({
                (f"s{i}",): [
                    PhraseOption(tuple(rng.choices(targets, k=rng.randint(1, 3))),
                                 (rng.uniform(0.1, 1.0),) * 4)
                    for _ in range(3)
                ]
                for i in range(4)
            })
            source = tuple(rng.choices([f"s{i}" for i in range(4)], k=4))
            results = decode_nbest(source, table, model, weights,
                                   BeamConfig(stack_size=1000, distortion_limit=4), n=20)
            assert len(results) > 1
            for result in results:
                history = [BOS]
                total = 0.0 + 0.0  # the root's step
                for phrase in result.trace:
                    total += reference_phrase(model, phrase.target, history)
                total += reference_cond_logprob(model, EOS, history)
                assert result.features[4].hex() == total.hex()


class TestNormalization:
    def test_sums_to_one_over_seen_contexts(self):
        sents = fixture_sentences()
        model = train_lm(sents, order=3)
        contexts = [[BOS]]
        for sent in sents[:10]:
            toks = [BOS] + list(sent)
            for i in range(1, len(toks)):
                contexts.append(toks[max(0, i - 2):i + 1])
        for ctx in contexts:
            assert context_sum(model, ctx) == pytest.approx(1.0, abs=1e-6)

    def test_sums_to_one_over_unseen_contexts(self):
        model = train_lm(fixture_sentences(), order=3)
        rng = random.Random(9)
        vocab = sorted(model.prediction_set - {EOS, UNK})
        for _ in range(30):
            ctx = rng.choices(vocab + ["neverseen"], k=2)
            assert context_sum(model, ctx) == pytest.approx(1.0, abs=1e-6)

    def test_all_orders_normalize(self):
        sents = fixture_sentences(seed=17, n=40, vocab_size=5)
        for order in (1, 2, 4, 5):
            model = train_lm(sents, order=order)
            assert context_sum(model, [BOS]) == pytest.approx(1.0, abs=1e-6)
            assert context_sum(model, list(sents[0])) == pytest.approx(1.0, abs=1e-6)


class TestTrainLm:
    def test_symmetric_counts_give_equal_probs(self):
        model = train_lm([("a", "b"), ("a", "c")], order=2)
        assert model.cond_logprob("b", ["a"]) == pytest.approx(
            model.cond_logprob("c", ["a"])
        )

    def test_single_sentence_bos_prediction_maximal(self):
        model = train_lm([("a",)], order=2)
        p_a = model.cond_logprob("a", [BOS])
        for w in model.prediction_set:
            assert model.cond_logprob(w, [BOS]) <= p_a + 1e-12

    def test_short_corpus_degrades_gracefully(self):
        model = train_lm([("a",), ("b",)], order=5)
        assert math.isfinite(model.score(("a", "b", "a")))

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            train_lm([], order=3)

    def test_stored_logprobs_nonpositive_finite(self):
        model = train_lm(fixture_sentences(), order=4)
        for value in model.logprob.values():
            assert math.isfinite(value) and value <= 1e-12

    def test_full_order_hit_ignores_lower_orders(self):
        # When the trained 3-gram exists, its stored value is used directly:
        # a model built from tables with every lower-order entry corrupted
        # must give the same score.
        sents = [("a", "b", "c")] * 4 + [("a", "b", "d")]
        model = train_lm(sents, order=3)
        corrupted = NgramLanguageModel(
            order=3,
            logprob={g: -50.0 if len(g) < 3 else v for g, v in model.logprob.items()},
            backoff=model.backoff,
            vocab=model.vocab,
            prediction_set=model.prediction_set,
        )
        assert corrupted.cond_logprob("c", ["b"]) != model.cond_logprob("c", ["b"])
        assert corrupted.cond_logprob("c", ["a", "b"]) == model.cond_logprob("c", ["a", "b"])


class TestScore:
    def test_empty_sequence_is_eos_given_bos(self):
        model = train_lm(fixture_sentences(), order=3)
        assert model.score(()) == pytest.approx(model.cond_logprob(EOS, [BOS]))

    def test_never_minus_inf(self):
        model = train_lm(fixture_sentences(), order=3)
        score = model.score(("zz", "qq", "zz", "w0"))
        assert math.isfinite(score)

    def test_in_corpus_sentences_beat_random_permutations(self):
        rng = random.Random(23)
        sents = fixture_sentences(seed=31, n=100, vocab_size=10, max_len=8)
        model = train_lm(sents, order=3)
        margin = 0.0
        counted = 0
        for sent in sents[:100]:
            if len(set(sent)) < 2:
                continue
            perm = list(sent)
            while tuple(perm) == sent:
                rng.shuffle(perm)
            margin += model.score(sent) - model.score(perm)
            counted += 1
        assert counted > 50
        assert margin / counted > 0.0

    def test_deterministic(self):
        sents = fixture_sentences()
        m1 = train_lm(sents, order=3)
        m2 = train_lm(sents, order=3)
        assert m1.score(("w0", "w1")) == m2.score(("w0", "w1"))


def arpa_with_field(path, field, value):
    """Save a bigram model to ``path`` with ``value`` in tab field ``field``
    (0 log-probability, 2 back-off) of the first line that has a back-off;
    returns that line's number."""
    save_arpa(train_lm([("a", "b")], order=2), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.count("\t") == 2)
    parts = lines[lineno - 1].split("\t")
    parts[field] = value
    lines[lineno - 1] = "\t".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lineno


class TestArpa:
    def test_roundtrip_preserves_scores(self, tmp_path):
        model = train_lm(fixture_sentences(), order=3)
        path = tmp_path / "model.arpa"
        save_arpa(model, path)
        again = load_arpa(path)
        rng = random.Random(3)
        vocab = sorted(model.prediction_set)
        for _ in range(50):
            sent = tuple(rng.choices(vocab + ["oovword"], k=rng.randint(0, 6)))
            assert again.score(sent) == pytest.approx(model.score(sent), abs=1e-9)

    def test_file_shape(self, tmp_path):
        model = train_lm([("a", "b")], order=2)
        path = tmp_path / "model.arpa"
        save_arpa(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("\\data\\\n")
        assert "\\1-grams:" in text and "\\2-grams:" in text
        assert text.rstrip().endswith("\\end\\")
        # <s> appears as the standard placeholder
        assert any(
            line.split("\t")[1] == BOS and float(line.split("\t")[0]) <= -99
            for line in text.splitlines()
            if "\t" in line and len(line.split("\t")) >= 2
        )

    def test_loaded_model_normalizes(self, tmp_path):
        model = train_lm(fixture_sentences(seed=2, n=30, vocab_size=5), order=3)
        path = tmp_path / "model.arpa"
        save_arpa(model, path)
        again = load_arpa(path)
        assert context_sum(again, [BOS]) == pytest.approx(1.0, abs=1e-6)
        assert context_sum(again, ["w0", "w1"]) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("field", [0, 2])
    def test_bad_probability_names_file_and_line(self, tmp_path, field):
        path = tmp_path / "model.arpa"
        lineno = arpa_with_field(path, field, "-0.3x")
        with pytest.raises(
            ModelFormatError,
            match=rf"{re.escape(str(path))}: line {lineno}: bad probability",
        ):
            load_arpa(path)

    @pytest.mark.parametrize("field, value", [(0, "nan"), (2, "nan"), (0, "-inf")])
    def test_non_finite_value_names_file_and_line(self, tmp_path, field, value):
        path = tmp_path / "model.arpa"
        lineno = arpa_with_field(path, field, value)
        with pytest.raises(
            ModelFormatError,
            match=rf"{re.escape(str(path))}: line {lineno}: bad probability.*non-finite",
        ):
            load_arpa(path)


@pytest.mark.parametrize("bos_logprob", ["-1.0", "-99.0"])
def test_bos_unigram_is_never_stored(tmp_path, bos_logprob):
    # <s> is never predicted, so a 1-gram log-prob on its line, placeholder
    # or not, is dropped on loading and written back once as the placeholder
    path = tmp_path / "model.arpa"
    path.write_text(
        "\\data\\\nngram 1=4\n\n\\1-grams:\n"
        f"{bos_logprob}\t<s>\n-0.5\ta\n-0.7\t</s>\n-0.9\t<unk>\n\n\\end\\\n",
        encoding="utf-8",
    )
    model = load_arpa(path)
    assert (BOS,) not in model.logprob
    again_path = tmp_path / "again.arpa"
    save_arpa(model, again_path)
    lines = again_path.read_text(encoding="utf-8").splitlines()
    assert "ngram 1=4" in lines
    assert [line for line in lines if line.endswith("\t<s>")] == ["-99.0\t<s>"]
    again = load_arpa(again_path)
    for word, value in [("a", -0.5), ("</s>", -0.7), ("<unk>", -0.9), ("zz", -0.9),
                        (BOS, -0.9)]:
        for context in ([], [BOS], ["a"]):
            want = value * math.log(10.0)
            assert model.cond_logprob(word, context) == want
            assert again.cond_logprob(word, context) == want


def test_word_without_unigram_names_file_and_line(tmp_path):
    path = tmp_path / "model.arpa"
    save_arpa(train_lm([("a", "b")], order=2), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lineno = lines.index("\\2-grams:") + 2
    lines.insert(lineno - 1, "-0.5\ta zz")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(
        ModelFormatError,
        match=rf"{re.escape(str(path))}: line {lineno}: 'zz' has no 1-gram line",
    ):
        load_arpa(path)


@pytest.mark.parametrize("word", [UNK, EOS])
def test_arpa_without_fallback_unigram_is_rejected(tmp_path, word):
    path = tmp_path / "model.arpa"
    save_arpa(train_lm([("a", "b")], order=2), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.endswith(f"\t{word}\n")]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=rf"{re.escape(str(path))}: no {word} unigram"):
        load_arpa(path)


# Round-trip oracle: the model save_arpa returns is the one load_arpa
# reads back from the file it wrote, bit for bit and key for key (order
# included: StateTables numbers its states in logprob order).


def assert_same_model(got, want):
    for table in ("logprob", "backoff"):
        g, w = getattr(got, table), getattr(want, table)
        assert list(g) == list(w), table
        assert [v.hex() for v in g.values()] == [v.hex() for v in w.values()], table
    assert got.order == want.order
    assert got.vocab == want.vocab
    assert got.prediction_set == want.prediction_set


def saved_and_loaded(model, path):
    """What save_arpa returns, without parsing the file, and what
    load_arpa reads back from it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lm_module, "load_arpa", None)  # a parse would fail
        saved = save_arpa(model, path)
    return saved, load_arpa(path)


# words as the tokenizer makes them from text with punctuation, tabs and
# non-ASCII letters, so edge punctuation and "|" splits are drawn too
TEXT_WORDS = st.text("ab|é.-\t", min_size=1, max_size=4)
SENTENCES = st.lists(
    st.lists(TEXT_WORDS, max_size=6).map(lambda words: tokenize(" ".join(words))),
    min_size=1,
    max_size=12,
)


class TestSaveReturnsTheLoadedModel:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_toy_corpus(self, tmp_path, order):
        write_fixture_files(str(tmp_path / "data"), seed=42)
        corpus = load_parallel(tmp_path / "data" / "generic.src", tmp_path / "data" / "generic.tgt")
        model = train_lm(corpus.target_sentences, order=order)
        saved, loaded = saved_and_loaded(model, tmp_path / "model.arpa")
        assert_same_model(saved, loaded)
        # the trained values are no substitute: from order 2 on, some of
        # this corpus's differ from the loaded ones in their last bits
        assert (order > 1) == any(
            model.logprob[gram].hex() != value.hex() for gram, value in saved.logprob.items()
        )

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(SENTENCES, st.integers(1, 4))
    def test_drawn_corpora(self, sentences, order):
        with tempfile.TemporaryDirectory() as tmp:
            saved, loaded = saved_and_loaded(
                train_lm(sentences, order=order), os.path.join(tmp, "model.arpa")
            )
        assert_same_model(saved, loaded)

    def test_loaded_model_saved_again(self, tmp_path):
        path = tmp_path / "model.arpa"
        save_arpa(train_lm(fixture_sentences(), order=3), path)
        saved, loaded = saved_and_loaded(load_arpa(path), tmp_path / "again.arpa")
        assert_same_model(saved, loaded)

    def test_file_that_reads_back_otherwise_is_loaded(self, tmp_path):
        """A 1-gram word holding a tab writes a line the loader reads as a
        back-off weight; the saver returns what the loader reads."""
        model = train_lm([("a",)], order=1)
        model.logprob[("b\t-1.0",)] = -0.25
        path = tmp_path / "tab.arpa"
        saved = save_arpa(model, path)
        loaded = load_arpa(path)
        assert_same_model(saved, loaded)
        assert loaded.backoff[("b",)] == -1.0 * math.log(10.0)

    @pytest.mark.parametrize("change", ["space", "unk", "nan", "stray"])
    def test_file_the_loader_rejects_returns_none(self, tmp_path, change):
        model = train_lm([("a", "b")], order=2)
        if change == "space":
            model.logprob[("c d",)] = -1.0
        elif change == "unk":
            del model.logprob[(UNK,)]
        elif change == "nan":
            model.backoff[("a",)] = math.nan
        else:
            model.logprob[("a", "zz")] = -1.0
        path = tmp_path / "model.arpa"
        assert save_arpa(model, path) is None
        with pytest.raises(ModelFormatError):
            load_arpa(path)


# Whole-model oracle: train_lm and save_arpa as they were before their
# counting and writing were reworked.  Every log-prob and back-off weight
# must keep its bits, and the written file its bytes.


def oracle_discount(values):
    n1 = n2 = 0
    for v in values:
        if v == 1:
            n1 += 1
        elif v == 2:
            n2 += 1
    if n1 + 2 * n2 == 0:
        return 0.5
    return min(max(n1 / (n1 + 2 * n2), 1e-3), 1.0 - 1e-3)


def oracle_train_lm(sentences, order=5):
    from collections import Counter, defaultdict

    counts = [Counter() for _ in range(order + 1)]
    n_sents = 0
    for sent in sentences:
        n_sents += 1
        seq = (BOS,) + tuple(sent) + (EOS,)
        for n in range(1, order + 1):
            for i in range(len(seq) - n + 1):
                counts[n][seq[i:i + n]] += 1
    assert n_sents

    words = {g[0] for g in counts[1]} - {BOS, EOS}
    prediction_set = frozenset(words | {EOS, UNK})
    uniform = 1.0 / len(prediction_set)

    continuation = [Counter() for _ in range(order)]
    for n in range(2, order + 1):
        for gram in counts[n]:
            continuation[n - 1][gram[1:]] += 1

    def numerator(n, gram):
        if n == order or gram[0] == BOS:
            return counts[n][gram]
        return continuation[n][gram]

    by_context = [defaultdict(list) for _ in range(order + 1)]
    for n in range(1, order + 1):
        for gram in counts[n]:
            if n == 1 and gram[0] == BOS:
                continue
            by_context[n][gram[:-1]].append(gram[-1])

    discounts = [0.0] * (order + 1)
    for n in range(1, order + 1):
        nums = [
            numerator(n, ctx + (w,))
            for ctx, ws in by_context[n].items()
            for w in ws
        ]
        discounts[n] = oracle_discount(v for v in nums if v > 0)

    prob = {}
    backoff = {}
    d1 = discounts[1]
    followers1 = by_context[1][()]
    denom1 = sum(numerator(1, (w,)) for w in followers1)
    if denom1 > 0:
        types1 = sum(1 for w in followers1 if numerator(1, (w,)) > 0)
        lam1 = d1 * types1 / denom1
    else:
        lam1 = 1.0
    for w in sorted(prediction_set):
        num = numerator(1, (w,)) if (w,) in counts[1] else 0
        base = max(num - d1, 0.0) / denom1 if denom1 > 0 else 0.0
        prob[(w,)] = math.log(base + lam1 * uniform)

    for n in range(2, order + 1):
        dn = discounts[n]
        for context, followers in by_context[n].items():
            denom = sum(numerator(n, context + (w,)) for w in followers)
            if denom <= 0:
                backoff[context] = 0.0
                continue
            types = sum(1 for w in followers if numerator(n, context + (w,)) > 0)
            lam = dn * types / denom
            for w in followers:
                num = numerator(n, context + (w,))
                base = max(num - dn, 0.0) / denom
                lower = math.exp(prob[context[1:] + (w,)])
                prob[context + (w,)] = math.log(base + lam * lower)
            backoff[context] = math.log(lam)

    return NgramLanguageModel(
        order=order,
        logprob=prob,
        backoff=backoff,
        vocab=frozenset(words | {BOS, EOS, UNK}),
        prediction_set=prediction_set,
    )


def oracle_arpa_text(model):
    log10 = math.log(10.0)
    grams_by_order = [[] for _ in range(model.order + 1)]
    for gram in model.logprob:
        grams_by_order[len(gram)].append(gram)
    out = ["\\data\\\n"]
    for n in range(1, model.order + 1):
        count = len(grams_by_order[n]) + (1 if n == 1 else 0)
        out.append(f"ngram {n}={count}\n")
    out.append("\n")
    for n in range(1, model.order + 1):
        out.append(f"\\{n}-grams:\n")
        entries = sorted(grams_by_order[n])
        if n == 1:
            entries = [(BOS,)] + entries
        for gram in entries:
            if n == 1 and gram == (BOS,):
                lp10 = -99.0
            else:
                lp10 = model.logprob[gram] / log10
            line = f"{lp10!r}\t{' '.join(gram)}"
            bow = model.backoff.get(gram)
            if bow is not None and n < model.order:
                line += f"\t{bow / log10!r}"
            out.append(line + "\n")
        out.append("\n")
    out.append("\\end\\\n")
    return "".join(out)


def oracle_corpora():
    """Seeded corpora with empty sentences, sentences shorter than the
    order, repeated sentences and a one-word vocabulary."""
    yield "one word", [("a",), ("a", "a"), (), ("a", "a", "a", "a", "a", "a")]
    yield "only empty", [(), ()]
    yield "repeats", [("a", "b", "c")] * 4 + [("c", "b")] * 3
    for seed in range(6):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(rng.choice([1, 2, 5, 12]))]
        sents = []
        for _ in range(rng.randint(1, 40)):
            if sents and rng.random() < 0.15:
                sents.append(rng.choice(sents))  # a repeat
            else:
                sents.append(tuple(rng.choices(vocab, k=rng.randint(0, 9))))
        yield f"seed {seed}", sents


class TestKneserNeyOracle:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_bit_equal_tables_and_bytes(self, order, tmp_path):
        for name, sents in oracle_corpora():
            got = train_lm(iter(sents), order=order)
            want = oracle_train_lm(sents, order=order)
            assert got.order == want.order
            assert got.vocab == want.vocab, name
            assert got.prediction_set == want.prediction_set, name
            for table in ("logprob", "backoff"):
                g, w = getattr(got, table), getattr(want, table)
                assert g.keys() == w.keys(), (name, table)
                assert {k: v.hex() for k, v in g.items()} == {
                    k: v.hex() for k, v in w.items()
                }, (name, table)
            path = tmp_path / "model.arpa"
            save_arpa(got, path)
            assert path.read_bytes() == oracle_arpa_text(want).encode("utf-8"), name
            # the writer on a loaded model, whose tables came from text
            loaded = load_arpa(path)
            save_arpa(loaded, path)
            assert path.read_bytes() == oracle_arpa_text(loaded).encode("utf-8"), name
