"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its measured runtime.
"""

import filecmp
import random
import time
from collections import Counter

import numpy as np
import pytest

from termforge.align import ibm1_em, viterbi_align, extract_phrases, PhraseOption, PhraseTable
from termforge.bpe import apply_bpe, decode_bpe, learn_bpe
from termforge.corpus import (
    Candidate,
    Lexicon,
    LexiconEntry,
    ParallelCorpus,
    tokenize,
    word_frequencies,
)
from termforge.fixtures import build_fixture_set
from termforge.inject import cosine_score, domain_vector, tf_vector
from termforge.lm import train_lm
from termforge.metrics import bleu, bleu_stats, chrf3, ngram_counts
from termforge.nmt import (
    TrainConfig,
    UNK,
    encode_sources,
    fine_tune,
    replace_unk,
    train,
    translate,
)
from termforge.nmt.model import Seq2SeqModel, build_vocab, init_params
from termforge.nmt.network import encode
from termforge.nmt.train import _encode_pairs, _make_batches
from termforge.smt import (
    CONSTRAINT,
    EXCLUSIVE,
    INCLUSIVE,
    AnnotatedInput,
    BeamConfig,
    LogLinearWeights,
    Span,
    decode,
    mert_tune,
)

from nmt_oracles import gradient_check


class timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.1f}s, budget {self.budget}s)")
        assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s"


def random_segments(seed, n, vocab=40, max_len=10):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab)]
    return [tuple(rng.choices(words, k=rng.randint(1, max_len))) for _ in range(n)]


def test_criterion_01_metric_oracles():
    with timer("1 metric oracles", 1.0):
        segs = random_segments(1, 100)
        assert bleu(segs, segs) == pytest.approx(100.0)
        assert chrf3(segs, segs) == pytest.approx(100.0)
        ref = ("the", "cat")
        correct, total, _, _ = bleu_stats(
            ("the", "the", "the"), ref, ngram_counts(ref)
        )
        assert (correct[0], total[0]) == (1, 3)  # modified precision 1/3 exactly

        def oracle_chrf(hyp, ref, max_n=6, beta=3.0):
            ps, rs = [], []
            h, r = "".join(hyp), "".join(ref)
            for n in range(1, max_n + 1):
                hg = [h[i:i + n] for i in range(len(h) - n + 1)]
                rg = [r[i:i + n] for i in range(len(r) - n + 1)]
                if not hg or not rg:
                    continue
                remaining = Counter(rg)
                overlap = 0
                for g in hg:
                    if remaining[g] > 0:
                        overlap += 1
                        remaining[g] -= 1
                ps.append(overlap / len(hg))
                rs.append(overlap / len(rg))
            if not ps:
                return 0.0
            p, r_ = sum(ps) / len(ps), sum(rs) / len(rs)
            if p + r_ == 0:
                return 0.0
            return 100.0 * (1 + beta * beta) * p * r_ / (beta * beta * p + r_)

        rng = random.Random(17)
        words = ["heart", "burn", "orbita", "blut", "gefäßen", "ab", "xyz"]
        for _ in range(20):
            hyp = tuple(rng.choices(words, k=rng.randint(1, 5)))
            ref = tuple(rng.choices(words, k=rng.randint(1, 5)))
            assert chrf3([hyp], [ref]) == pytest.approx(
                oracle_chrf(hyp, ref), abs=1e-6
            )


def test_criterion_02_bpe():
    with timer("2 BPE", 5.0):
        rng = random.Random(2)
        vocab = ["heart", "burn", "lower", "orbit", "blut", "a", "zq", "mix"]
        model = learn_bpe({w: rng.randint(1, 9) for w in vocab}, 60)
        for _ in range(1000):
            sent = tuple(rng.choices(vocab + ["unseen", "xx"], k=rng.randint(1, 9)))
            assert decode_bpe(apply_bpe(model, sent)) == sent

        def oracle_first_merge(freqs):
            counts = Counter()
            for word, f in freqs.items():
                for a, b in zip(word, word[1:]):
                    counts[(a, b)] += f
            best = max(counts.values())
            return min(p for p, c in counts.items() if c == best)

        for trial in range(10):
            freqs = {
                "".join(rng.choices("abcde", k=rng.randint(2, 7))): rng.randint(1, 9)
                for _ in range(rng.randint(2, 10))
            }
            assert learn_bpe(freqs, 1).merges[0] == oracle_first_merge(freqs)

        compound_model = learn_bpe({"heart": 20, "burn": 20}, 50)
        assert apply_bpe(compound_model, ("heartburn",)) == ("heart@@", "burn")


def test_criterion_03_alignment():
    with timer("3 alignment EM", 1.0):
        rng = random.Random(3)
        pairs = []
        for _ in range(50):
            k = rng.randint(1, 6)
            src = tuple(f"s{rng.randrange(9)}" for _ in range(k))
            tgt = tuple(f"t{w[1:]}" if rng.random() < 0.8 else f"t{rng.randrange(9)}"
                        for w in src)
            pairs.append((src, tgt))
        table = ibm1_em(ParallelCorpus(pairs), 20)
        hist = table.log_likelihood_history
        assert len(hist) == 20
        for prev, cur in zip(hist, hist[1:]):
            assert cur >= prev - 1e-9

        la_maison = ParallelCorpus(
            [(("the", "house"), ("la", "maison")),
             (("the", "flower"), ("la", "fleur"))]
        )
        t = ibm1_em(la_maison, 10)
        p_la = t.prob("la", "the")
        assert all(
            t.prob(tw, "the") <= p_la for tw in t.tgt_vocab
        )
        assert all(t.prob("la", sw) <= p_la for sw in t.src_vocab)


def _random_decoder_setup(rng, n_src=6, n_tgt=6):
    src_vocab = [f"s{i}" for i in range(n_src)]
    tgt_vocab = [f"t{i}" for i in range(n_tgt)]
    entries = {}
    for i, sw in enumerate(src_vocab):
        opts = []
        for tw in rng.sample(tgt_vocab, k=rng.randint(1, 3)):
            p = rng.uniform(0.05, 1.0)
            opts.append(PhraseOption((tw,), (p, rng.uniform(0.05, 1.0), p, p)))
        entries[(sw,)] = opts
    for _ in range(4):
        i = rng.randrange(n_src - 1)
        pair = (src_vocab[i], src_vocab[i + 1])
        tgt = tuple(rng.sample(tgt_vocab, k=rng.randint(1, 2)))
        p = rng.uniform(0.05, 1.0)
        entries.setdefault(pair, []).append(
            PhraseOption(tgt, (p, rng.uniform(0.05, 1.0), p, p))
        )
    table = PhraseTable(entries)
    sents = [tuple(rng.choices(tgt_vocab, k=rng.randint(1, 5))) for _ in range(30)]
    return src_vocab, table, train_lm(sents, order=2)


def test_criterion_04_decoder_injection_and_exactness():
    with timer("4 decoder injection semantics", 30.0):
        rng = random.Random(44)
        wide = BeamConfig(stack_size=100000, distortion_limit=100)
        weights = LogLinearWeights.default()
        for trial in range(200):
            src_vocab, table, lm_model = _random_decoder_setup(rng)
            tokens = tuple(rng.choices(src_vocab, k=rng.randint(2, 6)))
            start = rng.randrange(len(tokens))
            end = rng.randint(start + 1, min(len(tokens), start + 2))
            mode = (EXCLUSIVE, CONSTRAINT, INCLUSIVE)[trial % 3]
            if mode == INCLUSIVE:
                # candidates duplicating an existing entry's option exactly
                entry_src = tokens[start:start + 1]
                existing = table.options(entry_src)
                if not existing:
                    continue
                opt = existing[0]
                p = opt.features[0]
                table.entries[entry_src][0] = PhraseOption(opt.target, (p, 1.0, p, p))
                plain = decode(tokens, table, lm_model, weights, wide)
                annotated = AnnotatedInput(
                    tokens,
                    [Span(start, start + 1, [Candidate(opt.target, p)], mode)],
                )
                injected = decode(annotated, table, lm_model, weights, wide)
                assert injected.tokens == plain.tokens, trial
                continue
            candidates = [
                Candidate((f"c{trial}a",), rng.uniform(0.1, 1.0)),
                Candidate((f"c{trial}b", f"c{trial}c"), rng.uniform(0.1, 1.0)),
            ][: rng.randint(1, 2)]
            annotated = AnnotatedInput(tokens, [Span(start, end, candidates, mode)])
            result = decode(annotated, table, lm_model, weights, wide)
            cand_targets = {tuple(c.tokens) for c in candidates}
            covering = [
                tp for tp in result.trace
                if tp.start <= start and tp.end >= end
            ]
            assert len(covering) == 1, (trial, result.trace)
            phrase = covering[0]
            if mode == EXCLUSIVE:
                assert (phrase.start, phrase.end) == (start, end)
                assert tuple(phrase.target) in cand_targets, trial
            else:  # constraint: chosen phrase contains a candidate contiguously
                joined = phrase.target
                assert any(
                    any(
                        tuple(joined[i:i + len(c)]) == c
                        for i in range(len(joined) - len(c) + 1)
                    )
                    for c in cand_targets
                ), trial

        # exhaustive equivalence on short inputs with wide beams
        def brute_force(tokens, table, lm_model, weights, limit):
            n = len(tokens)
            options = []
            for i in range(n):
                for j in range(i + 1, n + 1):
                    for opt in table.options(tokens[i:j]):
                        options.append((i, j, opt.target, opt.features))
            covered = {p for (i, j, _, _) in options for p in range(i, j)}
            for p in range(n):
                if p not in covered:
                    options.append((p, p + 1, (tokens[p],), (1.0,) * 4))
            w = weights.values
            best = None

            def score_seq(seq):
                import math

                total = 0.0
                target = []
                last_end = 0
                for (i, j, tgt, feats) in seq:
                    for k, pv in enumerate(feats):
                        total += w[k] * math.log(min(max(pv, 1e-9), 1.0))
                    total += w[5] * -len(tgt)
                    total += w[6] * -abs(i - last_end)
                    last_end = j
                    target.extend(tgt)
                ctx = ["<s>"]
                lm_total = 0.0
                for tok in target:
                    lm_total += lm_model.cond_logprob(tok, ctx)
                    ctx.append(tok)
                lm_total += lm_model.cond_logprob("</s>", ctx)
                return total + w[4] * lm_total

            def recurse(cov, last_end, seq):
                nonlocal best
                if len(cov) == n:
                    s = score_seq(seq)
                    if best is None or s > best:
                        best = s
                    return
                for opt in options:
                    i, j, _, _ = opt
                    if any(p in cov for p in range(i, j)):
                        continue
                    if abs(i - last_end) > limit:
                        continue
                    recurse(cov | set(range(i, j)), j, seq + [opt])

            recurse(frozenset(), 0, [])
            return best

        for trial in range(50):
            src_vocab, table, lm_model = _random_decoder_setup(rng)
            tokens = tuple(rng.choices(src_vocab, k=rng.randint(1, 5)))
            limit = rng.randint(1, 5)
            weights_r = LogLinearWeights(
                np.array([rng.uniform(0.2, 1.0) for _ in range(5)] + [0.1, 0.4])
            )
            oracle = brute_force(tokens, table, lm_model, weights_r, limit)
            got = decode(
                tokens, table, lm_model, weights_r,
                BeamConfig(stack_size=100000, distortion_limit=limit),
            ).score
            assert got == pytest.approx(oracle, abs=1e-9), trial


def test_criterion_05_mert_recovery():
    with timer("5 MERT-lite recovery", 60.0):
        rng = random.Random(5)
        src_vocab = [f"s{i}" for i in range(4)]
        good = {s: f"g{i}" for i, s in enumerate(src_vocab)}
        bad = {s: f"b{i}" for i, s in enumerate(src_vocab)}
        entries = {}
        for s in src_vocab:
            entries[(s,)] = [
                PhraseOption((bad[s],), (0.9, 0.9, 0.9, 0.9)),
                PhraseOption((good[s],), (0.4, 0.4, 0.4, 0.4)),
            ]
        table = PhraseTable(entries)
        lm_sents = [
            tuple(good[s] for s in rng.choices(src_vocab, k=rng.randint(2, 3)))
            for _ in range(40)
        ]
        lm_model = train_lm(lm_sents, order=2)
        dev = ParallelCorpus(
            [
                (src, tuple(good[s] for s in src))
                for src in (
                    tuple(rng.choices(src_vocab, k=rng.randint(2, 3)))
                    for _ in range(8)
                )
            ]
        )

        def dev_bleu(weights):
            hyps = [decode(s, table, lm_model, weights).tokens for s, _ in dev.pairs]
            return bleu(hyps, [r for _, r in dev.pairs])

        corrupted = LogLinearWeights(np.array([1.0, 1.0, 1.0, 1.0, -2.0, 0.0, 0.5]))
        baseline = dev_bleu(corrupted)
        for seed in range(5):
            tuned = mert_tune(
                dev, table, lm_model, corrupted,
                restarts=2, iterations=3, seed=seed,
            )
            assert dev_bleu(tuned) >= baseline
            assert dev_bleu(tuned) > baseline  # recovery, not just no-harm


def test_criterion_06_nmt_correctness():
    with timer("6 NMT correctness", 300.0):
        # gradient check at tiny dims
        cfg = TrainConfig(layers=2, hidden=4, batch_size=2,
                          dropout=0.0, epochs=0, seed=7)
        pairs = [(("a", "b", "c"), ("x", "y")), (("b", "c", "a"), ("y", "z", "x"))]
        src_vocab = build_vocab((s for s, _ in pairs), 20)
        tgt_vocab = build_vocab((t for _, t in pairs), 20)
        model = Seq2SeqModel(
            cfg, src_vocab, tgt_vocab,
            init_params(cfg, len(src_vocab), len(tgt_vocab), np.random.default_rng(7)),
        )
        batch = _make_batches(_encode_pairs(pairs, src_vocab, tgt_vocab), 2)[0]
        assert gradient_check(model, batch, epsilon=1e-4) < 1e-4

        # Eq-1 residual structure, checked with independent cell math
        layer_caches = []
        top, _ = encode(model, batch[0], caches=layer_caches)
        for l in range(1, cfg.layers + 1):
            inputs, cell_caches, _ = layer_caches[l - 1]
            states = layer_caches[l][0] if l < cfg.layers else top
            W = model.params[f"enc_W_{l}"]
            U = model.params[f"enc_U_{l}"]
            b = model.params[f"enc_b_{l}"]
            for t, cache in enumerate(cell_caches):
                x, h_prev, c_prev = cache[0], cache[1], cache[2]
                n = cfg.hidden
                z = x @ W + h_prev @ U + b
                sig = lambda v: 1.0 / (1.0 + np.exp(-v))
                cell_c = sig(z[:, n:2 * n]) * c_prev + sig(z[:, :n]) * np.tanh(
                    z[:, 2 * n:3 * n]
                )
                cell_out = sig(z[:, 3 * n:]) * np.tanh(cell_c)
                assert np.abs(states[t] - (inputs[t] + cell_out)).max() < 1e-6

        # copy task: >= 90% greedy reconstruction within 200 epochs
        rng = random.Random(0)
        vocab = [f"sym{i}" for i in range(12)]
        copy_pairs, seen = [], set()
        while len(copy_pairs) < 50:
            sent = tuple(rng.choices(vocab, k=rng.randint(3, 6)))
            if sent in seen:
                continue
            seen.add(sent)
            copy_pairs.append((sent, sent))
        corpus = ParallelCorpus(copy_pairs)
        copy_cfg = TrainConfig(layers=2, hidden=24, batch_size=2,
                               dropout=0.0, epochs=200, learning_rate=1.5, seed=3)
        trained = train(corpus, copy_cfg)
        exact = 0
        for src, tgt in copy_pairs:
            (entry,) = encode_sources(trained, [src])
            out, attention, _ = translate(trained, entry, beam_width=1)
            exact += out == tgt
            if len(attention):  # attention rows are distributions
                assert np.allclose(attention.sum(axis=1), 1.0, atol=1e-5)
        assert exact >= 45


def test_criterion_07_domain_adaptation_direction():
    with timer("7 domain adaptation direction", 600.0):
        for seed in (1, 2, 3):
            fx = build_fixture_set(seed=seed, domain_a_style="reorder", dev_rounds=4)

            # SMT: baseline weights vs MERT re-tuned on the domain-A dev terms
            table = ibm1_em(fx.generic, 8)
            aligns = [viterbi_align(table, p) for p in fx.generic.pairs]
            ptable = extract_phrases(fx.generic, aligns, table, max_phrase_len=4)
            lm_model = train_lm(fx.generic.target_sentences, order=3)
            base_w = LogLinearWeights.default()

            def smt_bleu(weights, corpus):
                hyps = [
                    decode(src, ptable, lm_model, weights).tokens
                    for src, _ in corpus.pairs
                ]
                return bleu(hyps, [r for _, r in corpus.pairs])

            tuned = mert_tune(
                fx.domain_a.dev, ptable, lm_model, base_w,
                restarts=2, iterations=5, seed=seed,
            )
            assert smt_bleu(tuned, fx.domain_a.eval) > smt_bleu(base_w, fx.domain_a.eval)
            assert smt_bleu(tuned, fx.domain_b.eval) <= smt_bleu(base_w, fx.domain_b.eval)

            # NMT, word-level and BPE variants
            cfg = TrainConfig(layers=2, hidden=32, batch_size=8, dropout=0.1,
                              epochs=20, learning_rate=2.0, seed=seed)
            ft = TrainConfig(epochs=35, batch_size=2, dropout=0.0,
                             learning_rate=1.0, decay_factor=1.0, seed=seed)

            def nmt_bleu(model, corpus):
                hyps = []
                for src, _ in corpus.pairs:
                    (entry,) = encode_sources(model, [src])
                    out, _, _ = translate(model, entry, beam_width=4)
                    if model.tgt_bpe is not None:
                        out = decode_bpe(out)
                    hyps.append(out)
                return bleu(hyps, [r for _, r in corpus.pairs])

            for kind in ("word", "bpe"):
                if kind == "word":
                    base = train(fx.generic, cfg)
                else:
                    src_bpe = learn_bpe(
                        word_frequencies(fx.generic.source_sentences), 120
                    )
                    tgt_bpe = learn_bpe(
                        word_frequencies(fx.generic.target_sentences), 120
                    )
                    base = train(fx.generic, cfg, src_bpe=src_bpe, tgt_bpe=tgt_bpe)
                adapted = fine_tune(base, fx.domain_a.dev, ft)
                a0 = nmt_bleu(base, fx.domain_a.eval)
                a1 = nmt_bleu(adapted, fx.domain_a.eval)
                b0 = nmt_bleu(base, fx.domain_b.eval)
                b1 = nmt_bleu(adapted, fx.domain_b.eval)
                assert a1 > a0, (seed, kind, a0, a1)
                assert b1 <= b0, (seed, kind, b0, b1)


def test_criterion_08_subword_vs_word_mechanism():
    with timer("8 subword vs word", 300.0):
        for seed in (11, 21, 31):
            fx = build_fixture_set(seed=seed, domain_a_style="compound",
                                   separate_repeats=1, compound_repeats=3)
            tgt_freq = word_frequencies(fx.generic.target_sentences)
            # cap the word vocabulary below the rare compounds' frequency
            cap = 4 + sum(1 for _, c in tgt_freq.items() if c > 3)
            compounds = {ref[0] for _, ref in fx.domain_a.eval.pairs}
            assert all(tgt_freq[c] == 3 for c in compounds)

            cfg = TrainConfig(layers=2, hidden=32, batch_size=8, dropout=0.1,
                              epochs=35, learning_rate=2.0, seed=seed,
                              target_vocab_cap=cap)
            word_model = train(fx.generic, cfg)
            assert all(c not in word_model.tgt_vocab.stoi for c in compounds)

            bpe_cfg = TrainConfig(layers=2, hidden=32, batch_size=8, dropout=0.1,
                                  epochs=35, learning_rate=2.0, seed=seed)
            src_bpe = learn_bpe(word_frequencies(fx.generic.source_sentences), 120)
            tgt_bpe = learn_bpe(tgt_freq, 120)
            bpe_model = train(fx.generic, bpe_cfg, src_bpe=src_bpe, tgt_bpe=tgt_bpe)

            word_unks = bpe_unks = 0
            word_hyps, bpe_hyps, refs = [], [], []
            for src, ref in fx.domain_a.eval.pairs:
                (w_entry,) = encode_sources(word_model, [src])
                w_out, _, _ = translate(word_model, w_entry, beam_width=4)
                word_unks += sum(t == UNK for t in w_out)
                word_hyps.append(w_out)
                (b_entry,) = encode_sources(bpe_model, [src])
                b_out, _, _ = translate(bpe_model, b_entry, beam_width=4)
                bpe_unks += sum(t == UNK for t in b_out)
                bpe_hyps.append(decode_bpe(b_out))
                refs.append(ref)
            assert word_unks >= 1, seed
            assert bpe_unks == 0, seed
            assert bleu(bpe_hyps, refs) >= bleu(word_hyps, refs), seed


def test_criterion_09_cosine_ranking():
    with timer("9 cosine ranking", 1.0):
        rng = random.Random(9)

        def rand_vec():
            return tf_vector(
                [f"v{rng.randrange(25)}" for _ in range(rng.randint(1, 8))]
            )

        for _ in range(1000):
            x, y = rand_vec(), rand_vec()
            assert abs(cosine_score(x, y) - cosine_score(y, x)) < 1e-9
            scale = rng.uniform(0.1, 100.0)
            scaled = {k: v * scale for k, v in x.items()}
            assert abs(cosine_score(scaled, y) - cosine_score(x, y)) < 1e-9
            assert 0.0 <= cosine_score(x, y) <= 1.0

        medical_abstract = (
            "the orbit is the cavity or socket of the skull in which "
            "the eye and its appendages are situated"
        )
        astro_abstract = (
            "in physics an orbit is the gravitationally curved trajectory "
            "of an object such as the trajectory of a satellite"
        )
        domain = domain_vector(
            ["diseases of the eye and skull", "disorders of eye socket"]
        )
        assert cosine_score(
            domain, tf_vector(tokenize(medical_abstract))
        ) > cosine_score(domain, tf_vector(tokenize(astro_abstract)))


def test_criterion_10_unk_replacement():
    with timer("10 unk replacement", 1.0):
        # the bacterial-diseases style fixture
        entry = LexiconEntry(("bacterial",), [Candidate(("bakterielle",), 0.9)])
        lexicon = Lexicon({entry.source_term: entry})
        attention = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.1, 0.2, 0.7]])
        assert replace_unk(
            ("sonstige", UNK, "krankheiten"), attention,
            ("other", "bacterial", "diseases"), lexicon,
        ) == ("sonstige", "bakterielle", "krankheiten")

        rng = np.random.default_rng(10)
        lex = Lexicon(
            {
                (f"s{i}",): LexiconEntry((f"s{i}",), [Candidate((f"trans{i}",), 1.0)])
                for i in range(0, 12, 2)
            }
        )
        lookup = lex.entries
        for _ in range(100):
            n_src = int(rng.integers(1, 9))
            source = tuple(f"s{int(rng.integers(0, 12))}" for _ in range(n_src))
            n_out = int(rng.integers(1, 7))
            output = tuple(
                UNK if rng.random() < 0.5 else f"w{int(rng.integers(0, 4))}"
                for _ in range(n_out)
            )
            weights = rng.random((n_out, n_src))
            weights /= weights.sum(axis=1, keepdims=True)
            got = replace_unk(output, weights, source, lex)
            expected = []
            for j, tok in enumerate(output):
                if tok != UNK:
                    expected.append(tok)
                    continue
                src_tok = source[int(np.argmax(weights[j]))]
                entry = lookup.get((src_tok,))
                expected.extend(
                    entry.candidates[0].tokens if entry else (src_tok,)
                )
            assert got == tuple(expected)


def test_criterion_11_end_to_end_determinism(tmp_path, monkeypatch):
    with timer("11 end-to-end determinism", 600.0):
        from termforge.cli import main

        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "pipeline.cfg"
        cfg_path.write_text(
            "\n".join(
                [
                    "seed = 42",
                    "fixtures.dir = data",
                    "fixtures.seed = 42",
                    "corpus.train.source = data/generic.src",
                    "corpus.train.target = data/generic.tgt",
                    "corpus.dev.source = data/icdtoy-dev.src",
                    "corpus.dev.target = data/icdtoy-dev.tgt",
                    "corpus.eval.source = data/icdtoy-eval.src",
                    "corpus.eval.target = data/icdtoy-eval.tgt",
                    "lexicon.path = data/lexicon.tsv",
                    "smt.em_iterations = 5",
                    "smt.max_phrase_len = 4",
                    "smt.lm_order = 3",
                    "smt.mert.restarts = 1",
                    "smt.mert.iterations = 2",
                    "nmt.layers = 2",
                    "nmt.hidden = 16",
                    "nmt.batch_size = 8",
                    "nmt.dropout = 0.1",
                    "nmt.epochs = 3",
                    "nmt.learning_rate = 2.0",
                    "nmt.adapt.epochs = 3",
                    "inject.mode = exclusive",
                    "inject.ranking = cosine",
                    "evaluate.references = data/icdtoy-eval.tgt",
                    "evaluate.system = smt-inject",
                    "evaluate.evalset = icdtoy",
                ]
            )
            + "\n",
            encoding="utf-8",
        )

        def run_all(run_dir):
            sets = [
                f"model.smt.dir={run_dir}/smt",
                f"model.nmt.dir={run_dir}/nmt",
                f"stats.output={run_dir}/stats.txt",
                f"inject.output={run_dir}/annotated.txt",
                f"inject.lexicon_output={run_dir}/lexicon-ranked.tsv",
                f"translate.input={run_dir}/annotated.txt",
                f"translate.output={run_dir}/hypotheses.txt",
                f"evaluate.hypotheses={run_dir}/hypotheses.txt",
                f"evaluate.results={run_dir}/results.tsv",
                f"report.output={run_dir}/report.txt",
            ]

            def argv(cmd):
                return [cmd, "--config", str(cfg_path)] + [
                    x for s in sets for x in ("--set", s)
                ]

            for cmd in (
                "prepare", "stats", "train-smt", "tune", "train-nmt",
                "adapt", "inject", "translate", "evaluate", "report",
            ):
                assert main(argv(cmd)) == 0, cmd

        run_all("run1")
        run_all("run2")
        artifacts = [
            "stats.txt", "annotated.txt", "lexicon-ranked.tsv",
            "hypotheses.txt", "results.tsv", "report.txt",
            "smt/phrase-table.txt", "smt/lm.arpa", "smt/weights.txt",
            "smt/weights-adapted.txt", "nmt/model.tfnmt",
            "nmt/model-adapted.tfnmt",
        ]
        for rel in artifacts:
            f1, f2 = tmp_path / "run1" / rel, tmp_path / "run2" / rel
            assert f1.exists(), rel
            assert filecmp.cmp(f1, f2, shallow=False), f"{rel} differs"
