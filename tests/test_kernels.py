"""The flat E-step must equal the plain loop over pairs bit for bit."""

import numpy as np

from termforge._kernels import USE_NUMBA, flatten_encoded, ibm1_estep


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
        ll_got = ibm1_estep(sf, so, tf, to, table, got)
        assert np.array_equal(got, want)
        assert abs(ll_got - ll_want) < 1e-9


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
