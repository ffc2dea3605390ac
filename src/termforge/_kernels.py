"""The IBM Model 1 E-step as flat array operations.

One E-step visits every (source, target) cell of the corpus: each target
position against every source position of its pair, null included.  The
cells are laid out target-major, source-minor, pair by pair, and the step
is one gather from the table, one ``np.bincount`` over target positions
for the denominators and one ``np.bincount`` over ``s * V_t + t`` for the
expected counts.  ``np.bincount`` adds its weights in input order, so both
sums are taken in the order of the plain loop over pairs, target positions
and source positions, and the counts equal that loop's bit for bit (the
loop is the reference in ``tests/test_kernels.py``).  The whole corpus is
one call on purpose: splitting it into chunks would change that order.
The layout of the cells depends only on the corpus, so EM builds it once
per run (:func:`estep_index`) and every iteration reuses it.
"""

import numpy as np

# The benchmark's environment record reads this; there is no compiled path.
USE_NUMBA = False


def estep_index(src_flat, src_off, tgt_flat, tgt_off, n_tgt):
    """The cells one E-step visits, which depend only on the corpus.

    Returns ``(cells, pos, reps)``: each cell's flat index ``s * n_tgt +
    t`` into a table of ``n_tgt`` columns, each cell's target position,
    and each target position's source length (null included).  EM builds
    this once per run and passes it to every :func:`ibm1_estep`.
    """
    src_len = np.diff(src_off)
    tgt_len = np.diff(tgt_off)
    # per target position: its pair's source length and first source token
    reps = np.repeat(src_len, tgt_len)
    first_src = np.repeat(src_off[:-1], tgt_len)
    block_start = np.cumsum(reps) - reps
    # per cell: the source token it pairs with, then its flat table index
    cells = np.arange(int(reps.sum()))
    cells -= np.repeat(block_start - first_src, reps)
    cells = src_flat[cells]
    cells *= n_tgt
    cells += np.repeat(tgt_flat, reps)
    pos = np.repeat(np.arange(reps.size), reps)
    return cells, pos, reps


def ibm1_estep(src_flat, src_off, tgt_flat, tgt_off, table, counts, *, index):
    """Accumulate one EM iteration's expected counts; returns log-likelihood.

    Sentences arrive flattened (``*_flat``) with offset arrays (``*_off``).
    ``counts`` is a zeroed array of the table's shape, added to in place;
    source index 0 is the null token, already present in every source
    sentence.  ``index`` is :func:`estep_index` of these arrays and the
    table's column count, which the caller builds once per run; the step
    reads the corpus only through it.
    """
    cells, pos, reps = index
    vals = table.reshape(-1)[cells]
    denom = np.bincount(pos, weights=vals, minlength=reps.size)
    loglik = float(np.log(denom / reps).sum())
    vals /= denom[pos]
    counts += np.bincount(cells, weights=vals, minlength=table.size).reshape(
        counts.shape
    )
    return loglik


def flatten_encoded(sentences):
    """Pack integer-encoded sentences into (flat, offsets) int64 arrays."""
    offsets = np.zeros(len(sentences) + 1, dtype=np.int64)
    for i, sent in enumerate(sentences):
        offsets[i + 1] = offsets[i] + len(sent)
    flat = np.empty(offsets[-1], dtype=np.int64)
    for i, sent in enumerate(sentences):
        flat[offsets[i]:offsets[i + 1]] = sent
    return flat, offsets
