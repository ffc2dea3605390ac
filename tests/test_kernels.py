"""The flat E-step must equal the plain loop over pairs bit for bit, and
EM over the once-built cell index must equal EM without it."""

import random

import numpy as np

from termforge._kernels import USE_NUMBA, estep_index, flatten_encoded, ibm1_estep
from termforge.align import NULL_TOKEN, ibm1_em
from termforge.corpus import ParallelCorpus


def reference_estep(src_flat, src_off, tgt_flat, tgt_off, table, counts):
    """One IBM Model 1 E-step as plain loops: pairs, then target positions,
    then source positions (null first).  The order of every sum is the one
    :func:`ibm1_estep` must reproduce."""
    n_pairs = src_off.shape[0] - 1
    loglik = 0.0
    for p in range(n_pairs):
        s0, s1 = src_off[p], src_off[p + 1]
        t0, t1 = tgt_off[p], tgt_off[p + 1]
        slen = s1 - s0
        for j in range(t0, t1):
            tj = tgt_flat[j]
            denom = 0.0
            for i in range(s0, s1):
                denom += table[src_flat[i], tj]
            loglik += np.log(denom / slen)
            for i in range(s0, s1):
                si = src_flat[i]
                counts[si, tj] += table[si, tj] / denom
    return loglik


def synth(seed, n_pairs=40, vocab=30, max_len=21):
    """Sentences of 1..max_len tokens plus null, and one-token targets
    against sources of 9 or more tokens, where a pairwise sum over the
    source axis would differ from the loop in the last bit."""
    rng = np.random.default_rng(seed)

    def sent(lo, hi):
        return rng.integers(1, vocab, size=rng.integers(lo, hi + 1))

    src = [sent(1, max_len) for _ in range(n_pairs)]
    tgt = [sent(1, max_len) for _ in range(n_pairs)]
    src += [sent(9, max_len) for _ in range(6)]
    tgt += [sent(1, 1) for _ in range(6)]
    src = [np.concatenate(([0], s)) for s in src]
    (sf, so), (tf, to) = flatten_encoded(src), flatten_encoded(tgt)
    table = np.abs(np.random.default_rng(seed + 1).normal(size=(vocab, vocab))) + 0.01
    table /= table.sum(axis=1, keepdims=True)
    return sf, so, tf, to, table


def test_estep_matches_loop_bitwise():
    for seed in range(5):
        sf, so, tf, to, table = synth(seed)
        want = np.zeros_like(table)
        got = np.zeros_like(table)
        ll_want = reference_estep(sf, so, tf, to, table, want)
        index = estep_index(sf, so, tf, to, table.shape[1])
        ll_got = ibm1_estep(sf, so, tf, to, table, got, index=index)
        assert np.array_equal(got, want)
        assert abs(ll_got - ll_want) < 1e-9


def em_without_index(corpus, iterations):
    """The EM loop of :func:`ibm1_em`, with a fresh cell index built for
    every E-step call."""
    src_vocab = [NULL_TOKEN] + sorted(corpus.vocab("source"))
    tgt_vocab = sorted(corpus.vocab("target"))
    src_index = {w: i for i, w in enumerate(src_vocab)}
    tgt_index = {w: i for i, w in enumerate(tgt_vocab)}
    pairs = [(s, t) for s, t in corpus.pairs if t]
    sf, so = flatten_encoded([[0] + [src_index[w] for w in s] for s, _ in pairs])
    tf, to = flatten_encoded([[tgt_index[w] for w in t] for _, t in pairs])
    table = np.full((len(src_vocab), len(tgt_vocab)), 1.0 / len(tgt_vocab))
    history = []
    for _ in range(iterations):
        counts = np.zeros_like(table)
        index = estep_index(sf, so, tf, to, table.shape[1])
        history.append(ibm1_estep(sf, so, tf, to, table, counts, index=index))
        row_sums = counts.sum(axis=1, keepdims=True)
        np.divide(counts, row_sums, out=table, where=row_sums > 0)
    col_sums = counts.sum(axis=0, keepdims=True)
    np.divide(counts, col_sums, out=counts, where=col_sums > 0)
    return table, counts, history


def random_pairs(seed, n_pairs=30, vocab=12, max_len=9):
    """Pairs of 0..max_len tokens; about one in five targets is empty, so
    some source words occur only beside an empty target."""
    rng = random.Random(seed)

    def sent(prefix, lo):
        length = rng.randint(lo, max_len)
        return tuple(f"{prefix}{rng.randrange(vocab)}" for _ in range(length))

    pairs = [
        (sent("s", 0), sent("t", 1) if rng.random() < 0.8 else ())
        for _ in range(n_pairs)
    ]
    pairs.append((("lone",), ()))
    return ParallelCorpus(pairs)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_em_with_the_index_equals_em_without_it():
    for seed in range(8):
        corpus = random_pairs(seed)
        got = ibm1_em(corpus, 4)
        table, inverse, history = em_without_index(corpus, 4)
        assert hexes(got.table) == hexes(table)
        assert hexes(got.inverse) == hexes(inverse)
        assert hexes(got.log_likelihood_history) == hexes(history)


def test_flatten_encoded_roundtrip():
    sents = [[1, 2, 3], [], [4], [5, 6]]
    flat, off = flatten_encoded(sents)
    assert flat.tolist() == [1, 2, 3, 4, 5, 6]
    assert off.tolist() == [0, 3, 3, 4, 6]
    for i, sent in enumerate(sents):
        assert flat[off[i]:off[i + 1]].tolist() == sent


def test_env_flag_reflected():
    # the benchmark's environment record reads this; no compiled path exists
    assert USE_NUMBA is False
