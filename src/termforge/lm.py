"""N-gram language model with interpolated Kneser-Ney smoothing.

Per-context distributions sum to one by construction: the discounted mass
at each order is exactly the interpolation weight handed to the next order
down, and the unigram level interpolates with a uniform distribution over
the prediction set (vocabulary + end-of-sentence + unknown), so unknown
tokens always receive finite probability.  Training counts each order in
one ``Counter`` pass over shifted copies of the padded sentences and takes
each n-gram's KN numerator once (see :func:`train_lm`).

Queries run on integer ids and context states (Heafield 2011).  From the
``logprob`` and ``backoff`` tables a model derives, once and on its first
query, its :class:`StateTables`.  Every vocabulary word gets an id.  Every
n-gram shorter than the order, every context that has an entry (it
prefixes an n-gram or has a back-off weight) and every prefix of these
gets a state; with the prefixes, the state after a word follows from the
state before it.  A state holds its back-off weight and its lower state,
the state of its longest proper suffix that has one.  The state of a
context is that of its longest suffix with a state: each level skipped on
the way has no n-gram and a back-off weight of 0.0, and a sum that starts
at 0.0 is never -0.0, so skipping it leaves every log-prob bit-equal.
``StateTables.step`` is the one back-off walk: it looks ``log P(word |
state)`` up by the single int key ``state * n_words + word`` on each level
from the state down, and it returns the state after the word too.
``cond_logprob`` on strings is a thin wrapper over it.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .corpus import finite_float
from .errors import EmptyCorpusError, ModelFormatError
from .files import atomic_open, read_lines

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

_LOG10 = math.log(10.0)


class StateTables:
    """The integer ids and context states of one model (see the module
    docstring).  Built in one pass over its n-grams, then over its back-off
    weights and its states; the model must not change afterwards."""

    __slots__ = ("ids", "n_words", "keep", "predict", "unk", "child", "backoff",
                 "probs", "lower")

    def __init__(self, model: "NgramLanguageModel"):
        ids = {word: i for i, word in enumerate(sorted(model.vocab))}
        n = len(ids)
        unk = ids[UNK]
        prediction_set = model.prediction_set
        missing = sorted(w for w in prediction_set if (w,) not in model.logprob)
        if missing or UNK not in prediction_set:
            raise ValueError(f"predicted words without a unigram: {missing or [UNK]}")
        self.ids = ids
        self.n_words = n
        self.keep = keep = model.order - 1
        # the id each word is predicted as: a word outside the prediction
        # set (only <s> in a trained or loaded model) scores as <unk>
        self.predict = [
            i if word in prediction_set else unk for word, i in ids.items()
        ]
        self.unk = unk
        states: dict[tuple[str, ...], int] = {(): 0}  # for the build only
        # state * n_words + word -> the state of the state's context + word
        self.child = child = {}
        self.backoff = backoff = [0.0]

        def add(ctx: tuple[str, ...]) -> int:
            """Add the state of ``ctx``, and of its prefixes that have none."""
            sid = 0
            for i, word in enumerate(ctx, start=1):
                after = states.get(ctx[:i])
                if after is None:
                    after = states[ctx[:i]] = len(backoff)
                    backoff.append(0.0)
                    child[sid * n + ids[word]] = after
                sid = after
            return sid

        # state * n_words + word -> log P(word | the state's context); an
        # n-gram shorter than the order is a state itself, so the context
        # of a longer one is found at once
        self.probs = probs = {}
        for gram, value in model.logprob.items():
            sid = states.get(gram[:-1])
            if sid is None:
                sid = add(gram[:-1])
            key = sid * n + ids[gram[-1]]
            probs[key] = value
            if len(gram) <= keep:
                after = states.setdefault(gram, len(backoff))
                if after == len(backoff):
                    backoff.append(0.0)
                    child[key] = after
        for ctx, value in model.backoff.items():
            sid = states.get(ctx)
            if sid is None:
                if len(ctx) > keep:
                    continue
                sid = add(ctx)
            backoff[sid] = value
        self.lower = lower = [0] * len(backoff)
        for ctx, sid in states.items():
            suffix = ctx[1:]
            low = states.get(suffix)
            while low is None:
                suffix = suffix[1:]
                low = states.get(suffix)
            lower[sid] = low

    def state(self, context: Sequence[str]) -> int:
        """The state of a context of strings, stepped into from the empty
        context through its last ``order - 1`` words."""
        keep = self.keep
        ids, unk = self.ids, self.unk
        state = 0
        for tok in context[len(context) - keep:] if len(context) > keep else context:
            state = self.step(state, ids.get(tok, unk))[1]
        return state

    def step(self, state: int, word: int) -> tuple[float, int]:
        """``log P(word | state)`` and the state after ``word``, for a word
        id as a context word (``ids``, ``<unk>`` for unknown words)."""
        n = self.n_words
        probs = self.probs
        lower = self.lower
        predict = self.predict[word]
        acc = 0.0
        s = state
        prob = probs.get(s * n + predict)
        while prob is None:  # state 0 has a unigram for every predicted id
            acc += self.backoff[s]
            s = lower[s]
            prob = probs.get(s * n + predict)
        child = self.child
        s = state
        after = child.get(s * n + word)
        while after is None and s:
            s = lower[s]
            after = child.get(s * n + word)
        return acc + prob, after or 0


@dataclass
class NgramLanguageModel:
    """ARPA-style tables: natural-log probabilities and backoff weights."""

    order: int
    logprob: dict[tuple[str, ...], float]
    backoff: dict[tuple[str, ...], float]
    vocab: frozenset[str]
    prediction_set: frozenset[str]

    @functools.cached_property
    def tables(self) -> StateTables:
        """The ids and states every query walks, derived on first use."""
        return StateTables(self)

    def cond_logprob(self, word: str, context: Sequence[str]) -> float:
        """log P(word | context): the back-off walk of
        :meth:`StateTables.step` from the state of the context."""
        tables = self.tables
        return tables.step(tables.state(context), tables.ids.get(word, tables.unk))[0]

    def score(self, tokens: Sequence[str]) -> float:
        """Sentence log-probability including the end-of-sentence event."""
        history: list[str] = [BOS]
        total = 0.0
        for tok in tokens:
            total += self.cond_logprob(tok, history)
            history.append(tok)
        total += self.cond_logprob(EOS, history)
        return total


def _discount(numerators: Iterable[int]) -> float:
    """Absolute discount from count-of-counts, clamped inside (0, 1)."""
    count_of = Counter(numerators)
    n1, n2 = count_of[1], count_of[2]
    if n1 + 2 * n2 == 0:
        return 0.5
    return min(max(n1 / (n1 + 2 * n2), 1e-3), 1.0 - 1e-3)


def _ngram_counts(seqs: Sequence[tuple[str, ...]], n: int) -> Counter:
    """How often each n-gram occurs in the padded sentences, keyed in the
    order of first occurrence."""
    return Counter(chain.from_iterable(
        zip(*[seq[k:] for k in range(n)]) for seq in seqs
    ))


def _kn_numerators(
    grams: Counter, longer: Counter | None
) -> dict[tuple[str, ...], int]:
    """The KN numerator of each gram, keyed in counting order: its raw count
    at the top order (no ``longer`` grams) and for a gram anchored at
    ``<s>``, which nothing can precede, else its number of distinct left
    extensions among the ``longer`` grams (its continuation count)."""
    if longer is None:
        return grams
    continuation = Counter(gram[1:] for gram in longer)
    return {
        gram: count if gram[0] == BOS else continuation[gram]
        for gram, count in grams.items()
    }


def train_lm(sentences: Iterable[Sequence[str]], order: int = 5) -> NgramLanguageModel:
    """Train an interpolated Kneser-Ney model of the given order.

    Sentences shorter than the order simply contribute no high-order grams;
    scoring backs off to whatever orders exist, so small corpora degrade
    gracefully instead of failing.

    Each order is counted in one ``Counter`` pass over zipped, shifted
    copies of the padded sentences.  Orders are then estimated bottom-up,
    and each n-gram's KN numerator (:func:`_kn_numerators`) is taken once.
    Every numerator is at least 1, since a gram that does not start with
    ``<s>`` has a left neighbour in its sentence; so every context has a
    positive denominator and every follower counts as a type.  The counts
    of an order are dropped once its numerators are taken.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    seqs = [(BOS,) + tuple(sent) + (EOS,) for sent in sentences]
    if not seqs:
        raise EmptyCorpusError("cannot train a language model on an empty corpus")
    # counts[n] holds the n-grams for n = 1..order; None past the top order
    counts = [None, *(_ngram_counts(seqs, n) for n in range(1, order + 1)), None]
    del seqs

    nums = _kn_numerators(counts[1], counts[2])
    counts[1] = None
    del nums[(BOS,)]  # <s> is context-only, never a predicted event
    words = {gram[0] for gram in nums} - {EOS}
    prediction_set = frozenset(words | {EOS, UNK})
    uniform = 1.0 / len(prediction_set)

    prob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}

    # Unigram level, interpolated with the uniform distribution.
    d1 = _discount(nums.values())
    denom1 = sum(nums.values())
    lam1 = d1 * len(nums) / denom1
    for w in sorted(prediction_set):
        num = nums.get((w,), 0)
        base = max(num - d1, 0.0) / denom1
        prob[(w,)] = math.log(base + lam1 * uniform)

    # Higher orders, bottom-up so lower-order probabilities are available.
    # A numerator exceeds the discount, so no discounted count is clamped.
    exp, log = math.exp, math.log
    for n in range(2, order + 1):
        nums = _kn_numerators(counts[n], counts[n + 1])
        counts[n] = None
        dn = _discount(nums.values())
        by_context: dict[tuple[str, ...], list[tuple[tuple[str, ...], int]]] = (
            defaultdict(list)
        )
        for gram, num in nums.items():
            by_context[gram[:-1]].append((gram, num))
        del nums
        for context, followers in by_context.items():
            denom = sum([num for _, num in followers])
            lam = dn * len(followers) / denom
            for gram, num in followers:
                prob[gram] = log((num - dn) / denom + lam * exp(prob[gram[1:]]))
            backoff[context] = log(lam)

    vocab = frozenset(words | {BOS, EOS, UNK})
    return NgramLanguageModel(
        order=order,
        logprob=prob,
        backoff=backoff,
        vocab=vocab,
        prediction_set=prediction_set,
    )


def save_arpa(model: NgramLanguageModel, path) -> NgramLanguageModel | None:
    """Write the model in the textual ARPA format (log10 values), and
    return the model :func:`load_arpa` reads back from the file, or None
    when the loader rejects the file.

    The returned model holds each written value times ``ln 10`` (not the
    trained value, whose last bits may differ), keyed in file order, and
    its vocabulary and prediction set come from the 1-gram lines.  When
    the file might not read back as written (a value that is not finite,
    a 1-gram word holding a space, a tab or a line break, a word of a
    longer n-gram with no 1-gram, no ``</s>`` or ``<unk>`` 1-gram, or no
    section), it is loaded instead."""
    order = model.order
    grams_by_order: list[list[tuple[str, ...]]] = [[] for _ in range(order + 1)]
    for gram in model.logprob:
        grams_by_order[len(gram)].append(gram)
    logprob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}
    total = 0.0  # of every written value: finite when each one is
    with atomic_open(path) as f:
        f.write("\\data\\\n")
        for n in range(1, order + 1):
            count = len(grams_by_order[n]) + (1 if n == 1 else 0)  # +1 for <s>
            f.write(f"ngram {n}={count}\n")
        f.write("\n")
        for n in range(1, order + 1):
            f.write(f"\\{n}-grams:\n")
            entries = sorted(grams_by_order[n])
            if n == 1:
                entries = [(BOS,)] + entries
            for gram in entries:
                if n == 1 and gram == (BOS,):
                    lp10 = -99.0  # placeholder: <s> is never predicted
                else:
                    lp10 = model.logprob[gram] / _LOG10
                    logprob[gram] = lp10 * _LOG10
                total += lp10
                bow = model.backoff.get(gram)
                if bow is not None and n < order:
                    bow10 = bow / _LOG10
                    backoff[gram] = bow10 * _LOG10
                    total += bow10
                    f.write(f"{lp10!r}\t{' '.join(gram)}\t{bow10!r}\n")
                else:
                    f.write(f"{lp10!r}\t{' '.join(gram)}\n")
            f.write("\n")
        f.write("\\end\\\n")
    unigrams = {BOS, *chain.from_iterable(grams_by_order[1])}
    # every word is a 1-gram word, so no line splits other than as written
    # when no 1-gram word holds a space, a tab or a line break
    words = " ".join(unigrams)
    if not (
        order >= 1 and math.isfinite(total) and (EOS,) in logprob and (UNK,) in logprob
        and unigrams.issuperset(chain.from_iterable(chain.from_iterable(grams_by_order[2:])))
        and words.count(" ") == len(unigrams) - 1
        and not any(c in words for c in "\t\n\r")
    ):
        try:
            return load_arpa(path)
        except ModelFormatError:
            return None
    return NgramLanguageModel(
        order=order,
        logprob=logprob,
        backoff=backoff,
        vocab=frozenset(unigrams | {BOS, EOS, UNK}),
        prediction_set=frozenset(unigrams - {BOS}),
    )


def load_arpa(path) -> NgramLanguageModel:
    """Read a tab-separated textual ARPA file (as written by :func:`save_arpa`).

    Every word of an n-gram needs a line in the 1-gram section before it
    (``<s>`` has its placeholder line there), so every word id of the
    model's :class:`StateTables` comes from that section."""
    logprob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}
    unigrams: dict[str, str] = {}  # the words of the 1-gram lines so far
    stray = None  # the first n-gram line with a word not among them
    order = 0
    section = 0
    lines = read_lines(path)
    if "\\data\\" not in lines:
        raise ModelFormatError(f"{path}: not an ARPA file")
    for lineno, line in enumerate(lines, start=1):
        if line[:1] != "-":  # not a negative log-probability: maybe a header
            if not line.strip() or line == "\\data\\" or line.startswith("ngram "):
                continue
            if line.strip() == "\\end\\":
                break
            if line.startswith("\\") and line.endswith("-grams:"):
                try:
                    section = int(line[1:-len("-grams:")])
                except ValueError:
                    raise ModelFormatError(
                        f"{path}: line {lineno}: bad section header {line!r}"
                    ) from None
                order = max(order, section)
                continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ModelFormatError(
                f"{path}: line {lineno}: malformed n-gram line {line!r}"
            )
        words = parts[1].split(" ")
        if len(words) != section:
            raise ModelFormatError(
                f"{path}: line {lineno}: {parts[1]!r} is not a {section}-gram"
            )
        # each word as the string of its 1-gram line: one string per word
        gram = tuple(map(unigrams.get, words))
        if None in gram:
            if section == 1:
                unigrams[words[0]] = words[0]
            elif stray is None:
                stray = lineno, next(w for w in words if w not in unigrams)
            gram = tuple(words)
        try:
            value = finite_float(parts[0])
            if gram != (BOS,):  # <s> is never predicted: no 1-gram log-prob
                logprob[gram] = value * _LOG10
            if len(parts) >= 3 and parts[2]:
                backoff[gram] = finite_float(parts[2]) * _LOG10
        except ValueError as exc:
            raise ModelFormatError(
                f"{path}: line {lineno}: bad probability: {exc}"
            ) from None
    if order == 0:
        raise ModelFormatError(f"{path}: no n-gram sections found")
    for word in (EOS, UNK):  # score predicts </s>; an unknown word scores as <unk>
        if (word,) not in logprob:
            raise ModelFormatError(f"{path}: no {word} unigram")
    if stray is not None:
        raise ModelFormatError(
            f"{path}: line {stray[0]}: {stray[1]!r} has no 1-gram line before it"
        )
    return NgramLanguageModel(
        order=order,
        logprob=logprob,
        backoff=backoff,
        vocab=frozenset(unigrams.keys() | {BOS, EOS, UNK}),
        prediction_set=frozenset(unigrams.keys() - {BOS}),
    )
