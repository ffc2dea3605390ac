"""Phrase-based beam decoder with terminology injection, plus weight tuning.

The decoder is a coverage-stack search over the log-linear model (four
phrase features, language model, word penalty, distortion penalty).
Annotated spans alter the option set before search starts:

* ``exclusive``  - phrase-table options overlapping the span are dropped;
  only the provided candidates translate it.
* ``inclusive``  - provided candidates simply compete with the table.
* ``constraint`` - overlapping table options survive only when they cover
  the whole span and contain one of the provided translations.

With an unbounded stack the search is exact dynamic programming over
(coverage, LM context, last phrase end), which is what the equivalence
tests against a brute-force decoder rely on.  An input that no sequence of
options covers raises ``SearchError`` before any search.  Pruning never
strands the search: beside stack k a spine slot holds the best hypothesis
that covers exactly [0, k), ends at k and can still be completed, made by
extending such a hypothesis at its end (distortion 0).  When the cut of
stack k expands no hypothesis of that shape, the slot's is expanded too, so
the last stack is never empty; an unbounded cut always holds the slot's key.

The search loop does scalar work only.  A stack maps a recombination key to
an entry, the tuple (score, parent entry, option, LM log-prob of the step).
The entry is the search state: its back-pointer points at its parent's
entry, and the root is ``(0.0, None, None, 0.0)``.  Stack k < n keys the
hypotheses covering k source words by (coverage bitmask, LM context, last
phrase end); stack n keys the completed outputs by their tokens, each entry
the end-of-sentence step (option ``None``) after the last phrase's.  The
options are kept in start order, and for each last phrase end the window of
options starting within the distortion limit is listed once per decode,
with each option's coverage mask, weighted phrase and word-penalty score
and distortion cost; an extension tests the mask (which also rejects
covered starts) and adds that part, the weighted LM term and the distortion
cost.  The LM terms come from memos that live for one search: one dict per
distinct target, context -> (log-prob, new context), which each option
holds directly; the end of sentence is the target ``(EOS,)``.  A miss steps
through the target's word ids from the LM state of the context (see
``termforge.lm``), by one more memo, state and word id -> (log-prob, state
after the word); only its misses walk the model's tables.  Contexts stay
strings in the recombination key, so a stack, sorted on (-score, key),
keeps its tie order.  A returned result's trace is the options of its
back-trace, and its 7-dim feature vector is rebuilt from them, adding each
step's terms in search order.  Completed hypotheses have one order, score
descending and then tokens ascending: ``decode`` returns the head of
``decode_nbest``'s list.

Histogram pruning keeps its exact result with less work.  The search is
told the list length it serves (1 for ``decode``, ``n`` for
``decode_nbest``), and each stack keeps a floor: the bound-th best
first-insert score among its keys, where the bound is the stack size, or
the list length on stack n.  A key's score only rises, so an insert scoring
strictly below its stack's floor could never make the cut and is skipped
before any bookkeeping; ties pass, so the (score, key) tie order is
untouched.  A stack is filtered by its floor before it is sorted.  The LM
terms of every extension, end of sentence included, are looked up before
its floor test, so the memos fill exactly as without floors.

MERT (Och 2003) searches each dev sentence once per weight vector: the
n-best lists that measure the dev BLEU of an iteration's weights are the
lists the next iteration adds to the pool.  Each dev reference's n-grams
are counted once per tuning run, and every BLEU statistic MERT takes reads
those counts.  An iteration runs one coordinate ascent per distinct start:
the current and the best weights are the same vector at the first
iteration and after every one that improved dev BLEU, and the ascent is a
pure function of its start.  A line-search pass prices every pool line
once, with one ``dot`` per line, and all seven dimensions of the pass
share those dot products.  A dev sentence whose top score is an exact tie
counts at its worst tied output, so MERT cannot gain dev BLEU from the
tie-break.
"""

from __future__ import annotations

import bisect
import heapq
import logging
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .align import PROB_FLOOR, PhraseTable
from .corpus import (
    Candidate, ParallelCorpus, Tokens, contains_contiguous, finite_float, tokenize,
)
from .errors import MarkupError, ModelFormatError, SearchError
from .files import atomic_open, read_lines
from .lm import EOS, BOS, NgramLanguageModel
from .metrics import BLEU_ORDER, bleu_from_stats, bleu_stats, ngram_counts, sum_bleu_stats

FEATURE_NAMES = (
    "phrase_fwd",
    "phrase_rev",
    "lex_fwd",
    "lex_rev",
    "lm",
    "word_penalty",
    "distortion",
)

EXCLUSIVE = "exclusive"
INCLUSIVE = "inclusive"
CONSTRAINT = "constraint"
MODES = (EXCLUSIVE, INCLUSIVE, CONSTRAINT)

log = logging.getLogger("termforge.smt")


@dataclass
class LogLinearWeights:
    values: np.ndarray

    @classmethod
    def default(cls) -> "LogLinearWeights":
        return cls(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.5]))

    @classmethod
    def from_mapping(cls, mapping) -> "LogLinearWeights":
        return cls(np.array([float(mapping[name]) for name in FEATURE_NAMES]))

    def as_mapping(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, (float(v) for v in self.values)))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"expected {len(FEATURE_NAMES)} weights")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("weights must be finite")


def save_weights(weights: LogLinearWeights, path) -> None:
    with atomic_open(path) as f:
        for name, value in weights.as_mapping().items():
            f.write(f"{name} {value!r}\n")


def load_weights(path) -> LogLinearWeights:
    """Read ``name value`` lines; every name in FEATURE_NAMES must appear,
    once, and no other name."""
    mapping = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ModelFormatError(
                f"{path}: line {lineno}: expected 'name value', got {line!r}"
            )
        name, value = fields
        if name not in FEATURE_NAMES:
            raise ModelFormatError(
                f"{path}: line {lineno}: unknown weight name {name!r}"
            )
        if name in mapping:
            raise ModelFormatError(f"{path}: line {lineno}: repeated weight {name!r}")
        try:
            weight = finite_float(value)
        except ValueError:
            raise ModelFormatError(
                f"{path}: line {lineno}: bad weight {value!r} for {name}"
            ) from None
        mapping[name] = weight
    try:
        return LogLinearWeights.from_mapping(mapping)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: no weight for {exc.args[0]}") from None


@dataclass
class Span:
    """Source tokens ``[start, end)`` with the translations injected for
    them; each candidate's score is its injection probability."""

    start: int
    end: int
    candidates: list[Candidate]
    mode: str = EXCLUSIVE


@dataclass
class AnnotatedInput:
    tokens: Tokens
    spans: list[Span] = field(default_factory=list)

    def validate(self) -> None:
        occupied: set[int] = set()
        for span in self.spans:
            if not 0 <= span.start < span.end <= len(self.tokens):
                raise MarkupError(
                    f"span [{span.start}, {span.end}) outside {len(self.tokens)} tokens"
                )
            if span.mode not in MODES:
                raise MarkupError(f"unknown injection mode {span.mode!r}")
            if not span.candidates:
                raise MarkupError("span without candidates")
            positions = set(range(span.start, span.end))
            if positions & occupied:
                raise MarkupError("overlapping spans are not allowed")
            occupied |= positions


_MARKUP_RE = re.compile(
    r'<n\s+translation="([^"]*)"(?:\s+prob="([^"]*)")?\s*>(.*?)</n>'
)
_SEP_RE = re.compile(r"\s*\|\|\s*")


def parse_markup(line: str, mode: str = EXCLUSIVE) -> AnnotatedInput:
    """Parse a source line with ``<n translation=.. prob=..>span</n>`` markup.

    Both ``a||b`` and ``a || b`` separator spellings are accepted.  The given
    injection mode applies to every span (the markup itself carries none).
    Each ``prob`` must lie in [0, 1], as a lexicon score must; without
    ``prob`` every candidate enters at 1.0.
    """
    tokens: list[str] = []
    spans: list[Span] = []
    pos = 0
    for match in _MARKUP_RE.finditer(line):
        tokens.extend(tokenize(line[pos:match.start()]))
        translations = [tokenize(text) for text in _SEP_RE.split(match.group(1))]
        if not all(translations):
            # an empty candidate would delete the span in exclusive mode
            raise MarkupError(f"empty candidate in translation {match.group(1)!r}")
        if match.group(2) is not None:
            prob_strs = _SEP_RE.split(match.group(2).strip())
            if len(prob_strs) != len(translations):
                raise MarkupError(
                    f"{len(translations)} translations but {len(prob_strs)} probs"
                )
            try:
                probs = [finite_float(p) for p in prob_strs]
            except ValueError as exc:
                raise MarkupError(f"bad probability: {exc}") from None
            for prob in probs:
                if not 0.0 <= prob <= 1.0:
                    raise MarkupError(f"probability {prob} outside [0, 1]")
        else:
            probs = [1.0] * len(translations)
        span_tokens = tokenize(match.group(3))
        if not span_tokens:
            raise MarkupError("empty span text")
        start = len(tokens)
        tokens.extend(span_tokens)
        candidates = [
            Candidate(words, prob) for words, prob in zip(translations, probs)
        ]
        spans.append(Span(start, len(tokens), candidates, mode))
        pos = match.end()
    tokens.extend(tokenize(line[pos:]))
    annotated = AnnotatedInput(tuple(tokens), spans)
    annotated.validate()
    return annotated


def format_markup(annotated: AnnotatedInput) -> str:
    """Serialize back to the markup format (inverse of :func:`parse_markup`)."""
    parts: list[str] = []
    pos = 0
    for span in sorted(annotated.spans, key=lambda s: s.start):
        parts.extend(annotated.tokens[pos:span.start])
        translations = "||".join(" ".join(c.tokens) for c in span.candidates)
        probs = " || ".join(str(float(c.score)) for c in span.candidates)
        text = " ".join(annotated.tokens[span.start:span.end])
        parts.append(f'<n translation="{translations}" prob="{probs}">{text}</n>')
        pos = span.end
    parts.extend(annotated.tokens[pos:])
    return " ".join(parts)


@dataclass
class BeamConfig:
    stack_size: int = 100
    distortion_limit: int = 6

    def __post_init__(self):
        if self.stack_size < 1:
            raise ValueError(f"stack_size must be >= 1, got {self.stack_size}")
        if self.distortion_limit < 0:
            raise ValueError(f"distortion_limit must be >= 0, got {self.distortion_limit}")


@dataclass(frozen=True)
class TranslationOption:
    """Source span ``[start, end)`` translated as ``target``, with the log of
    its four phrase features.  ``build_options`` lists the options of an
    input, and a result's trace is the options its derivation chose."""

    start: int
    end: int
    target: Tokens
    log_feats: tuple[float, float, float, float]


@dataclass
class DecodeResult:
    tokens: Tokens
    score: float
    features: np.ndarray  # accumulated 7-dim feature vector
    trace: list[TranslationOption]  # in search order


def _log_feats(features) -> tuple[float, float, float, float]:
    return tuple(math.log(min(max(float(p), PROB_FLOOR), 1.0)) for p in features)


def _span_option(span: Span, cand: Candidate) -> TranslationOption:
    # candidate probability enters the forward-phrase slot; the reverse
    # phrase feature is neutral and both lexical slots mirror the probability
    return TranslationOption(
        span.start, span.end, tuple(cand.tokens),
        _log_feats((cand.score, 1.0, cand.score, cand.score)),
    )


def _overlaps(option: TranslationOption, span: Span) -> bool:
    return option.start < span.end and span.start < option.end


def _covers(option: TranslationOption, span: Span) -> bool:
    return option.start <= span.start and option.end >= span.end


def build_options(
    annotated: AnnotatedInput, table: PhraseTable
) -> list[TranslationOption]:
    """Translation options for one input after injection-mode filtering,
    including verbatim pass-through for otherwise uncovered tokens."""
    tokens = annotated.tokens
    options: list[TranslationOption] = []
    max_len = table.max_phrase_len
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + max_len, len(tokens)) + 1):
            for opt in table.options(tokens[i:j]):
                options.append(
                    TranslationOption(i, j, opt.target, _log_feats(opt.features))
                )

    for span in annotated.spans:
        if span.mode == EXCLUSIVE:
            options = [o for o in options if not _overlaps(o, span)]
        elif span.mode == CONSTRAINT:
            options = [
                o
                for o in options
                if not _overlaps(o, span)
                or (_covers(o, span) and any(
                    contains_contiguous(o.target, c.tokens) for c in span.candidates
                ))
            ]
        options.extend(_span_option(span, cand) for cand in span.candidates)

    covered = set()
    for opt in options:
        covered.update(range(opt.start, opt.end))
    for pos, tok in enumerate(tokens):
        if pos not in covered:
            # OOV pass-through: copy the source token at no feature cost
            options.append(
                TranslationOption(pos, pos + 1, (tok,), (0.0, 0.0, 0.0, 0.0))
            )
    return options


def _mask(option: TranslationOption) -> int:
    return ((1 << (option.end - option.start)) - 1) << option.start


def _search(
    annotated: AnnotatedInput,
    table: PhraseTable,
    lm: NgramLanguageModel,
    weights: LogLinearWeights,
    beam: BeamConfig,
    nbest: int,
) -> dict[Tokens, tuple]:
    """Coverage-stack beam search.  Returns stack ``n``: the end-of-sentence
    entry of each completed output by target, a superset of the ``nbest``
    first in ``_rank`` order, never empty.  Raises ``SearchError`` when no
    sequence of options covers the input."""
    annotated.validate()
    w = weights.values.tolist()
    w_lm, w_wp, w_dist = w[4], w[5], w[6]
    n = len(annotated.tokens)
    keep = lm.order - 1
    tables = lm.tables
    lm_step, n_words, word_ids, unk = tables.step, tables.n_words, tables.ids, tables.unk
    # LM memos for this decode: per distinct phrase target, ``(EOS,)``
    # included, context -> (log-prob, new context); the LM state of each
    # context; and state * n_words + word id -> (log-prob, state after the
    # word)
    phrase_lm: dict[Tokens, dict[tuple[str, ...], tuple[float, tuple[str, ...]]]] = {}
    ctx_states = {(BOS,): tables.state((BOS,))}
    steps: dict[int, tuple[float, int]] = {}

    def lm_miss(memo, ctx, target, ids):  # step ``ids`` from the state of ``ctx``
        state = ctx_states[ctx]
        lm_delta = 0.0
        for word in ids:
            step_key = state * n_words + word
            step = steps.get(step_key)
            if step is None:
                step = steps[step_key] = lm_step(state, word)
            lm_delta += step[0]
            state = step[1]
        new_ctx = (ctx + target)[-keep:] if keep else ()
        ctx_states[new_ctx] = state
        lm_entry = memo[ctx] = (lm_delta, new_ctx)
        return lm_entry

    eos_target, eos_ids = (EOS,), (word_ids[EOS],)
    eos_memo = phrase_lm.setdefault(eos_target, {})
    root = (0.0, None, None, 0.0)
    if n == 0:
        eos = lm_miss(eos_memo, (BOS,), eos_target, eos_ids)[0]
        return {(): (w_lm * eos, root, None, eos)}

    # the options in start order, each with its coverage mask, weighted
    # phrase and word-penalty part, the LM memo of its target and its
    # target's word ids
    scored = []
    for opt in sorted(build_options(annotated, table), key=lambda o: o.start):
        lf = opt.log_feats
        static = (
            w[0] * lf[0] + w[1] * lf[1] + w[2] * lf[2] + w[3] * lf[3]
            - w_wp * len(opt.target)
        )
        ids = tuple(word_ids.get(tok, unk) for tok in opt.target)
        scored.append(
            (opt, _mask(opt), static, phrase_lm.setdefault(opt.target, {}), ids)
        )
    # tileable[i]: some sequence of options covers [i, n) exactly; in
    # reverse start order every later start is settled first
    tileable = [False] * n + [True]
    for opt, _, _, _, _ in reversed(scored):
        if tileable[opt.end]:
            tileable[opt.start] = True
    if not tileable[0]:
        source = " ".join(annotated.tokens)
        raise SearchError(f"no sequence of translation options covers {source!r}",
                          annotated.tokens)
    starts = [opt.start for opt, _, _, _, _ in scored]
    limit = beam.distortion_limit
    # per last phrase end: the options starting within the distortion limit,
    # as (mask, static part, distortion cost, LM memo, option, span length,
    # target word ids)
    windows = []
    for last in range(n + 1):
        lo = bisect.bisect_left(starts, last - limit)
        hi = bisect.bisect_left(starts, last + limit + 1)
        windows.append([
            (mask, static, w_dist * abs(opt.start - last), memo, opt,
             opt.end - opt.start, ids)
            for opt, mask, static, memo, ids in scored[lo:hi]
        ])

    size = beam.stack_size
    # stacks of entries as in the module docstring; the heap of stack j holds
    # the first-insert scores of at most ``bounds[j]`` keys, and its floor is
    # the least of them once it is full
    stacks: list[dict] = [{} for _ in range(n + 1)]
    heaps: list[list[float]] = [[] for _ in range(n + 1)]
    floors = [-math.inf] * (n + 1)
    bounds = [size] * n + [nbest]
    stacks[0][(0, (BOS,), 0)] = root
    # spine[k]: the least (-score, key, entry) covering exactly [0, k) and
    # ending at k, with [k, n) tileable, made by extending such an entry
    spine = [None] * n

    for k in range(n):
        floor = floors[k]
        ranked = sorted([
            (-entry[0], key, entry)
            for key, entry in stacks[k].items() if entry[0] >= floor
        ])[:size]
        full = (1 << k) - 1
        if spine[k] is not None and not any(
            key[2] == k and key[0] == full for _, key, _ in ranked
        ):
            ranked.append(spine[k])
        for _, (coverage, ctx, last), entry in ranked:
            score = entry[0]
            on_spine = last == k and coverage == full
            prefix = None
            for mask, static, dist_cost, memo, opt, length, ids in windows[last]:
                if coverage & mask:
                    continue
                lm_delta, new_ctx = memo.get(ctx) or lm_miss(memo, ctx, opt.target, ids)
                new_score = score + (static + w_lm * lm_delta - dist_cost)
                j = k + length
                if j < n:
                    insert = new_score
                    if on_spine and opt.start == k and tileable[j]:
                        key = (coverage | mask, new_ctx, j)
                        if spine[j] is None or (-new_score, key) < spine[j][:2]:
                            spine[j] = (-new_score, key, (new_score, entry, opt, lm_delta))
                else:
                    eos = (
                        eos_memo.get(new_ctx)
                        or lm_miss(eos_memo, new_ctx, eos_target, eos_ids)
                    )[0]
                    insert = new_score + w_lm * eos
                if insert < floors[j]:
                    continue
                if j < n:
                    key = (coverage | mask, new_ctx, opt.end)
                else:
                    if prefix is None:
                        prefix = _target_tokens(entry)
                    key = prefix + opt.target
                stack = stacks[j]
                old = stack.get(key)
                if old is None:
                    heap = heaps[j]
                    if len(heap) < bounds[j]:
                        heapq.heappush(heap, insert)
                        if len(heap) == bounds[j]:
                            floors[j] = heap[0]
                    elif insert > heap[0]:
                        heapq.heapreplace(heap, insert)
                        floors[j] = heap[0]
                elif insert <= old[0]:
                    continue
                step = (new_score, entry, opt, lm_delta)
                stack[key] = step if j < n else (insert, step, None, eos)
    return stacks[n]


def _target_tokens(entry: tuple) -> Tokens:
    parts: list[Tokens] = []
    while entry is not None:
        if entry[2] is not None:
            parts.append(entry[2].target)
        entry = entry[1]
    return tuple(tok for phrase in reversed(parts) for tok in phrase)


def _to_result(entry: tuple) -> DecodeResult:
    """Rebuild the 7-dim feature vector by adding each step's terms from the
    root to the end-of-sentence event, slot by slot.  The trace is the
    chosen options themselves."""
    path: list[tuple] = []
    node = entry
    while node is not None:
        path.append(node)
        node = node[1]
    features = [0.0] * len(FEATURE_NAMES)
    trace: list[TranslationOption] = []
    tokens: list[str] = []
    last_end = 0
    for _, _, opt, lm_delta in reversed(path):
        if opt is not None:
            for i, value in enumerate(opt.log_feats):
                features[i] += value
            features[5] -= len(opt.target)
            features[6] -= abs(opt.start - last_end)
            last_end = opt.end
            trace.append(opt)
            tokens.extend(opt.target)
        features[4] += lm_delta
    return DecodeResult(tuple(tokens), entry[0], np.array(features), trace)


def _as_annotated(source) -> AnnotatedInput:
    if isinstance(source, AnnotatedInput):
        return source
    return AnnotatedInput(tuple(source), [])


def _rank(item: tuple[Tokens, tuple]) -> tuple[float, Tokens]:
    """The order of completed hypotheses: score descending, then tokens
    ascending, so exact score ties are broken by the output alone."""
    tokens, entry = item
    return -entry[0], tokens


def decode(
    source,
    table: PhraseTable,
    lm: NgramLanguageModel,
    weights: LogLinearWeights,
    beam: BeamConfig = BeamConfig(),
) -> DecodeResult:
    """Translate one (possibly annotated) source into the best hypothesis.

    Source tokens with no translation options pass through verbatim, so the
    decoder never fails on OOV input.  The result is the head of
    ``decode_nbest``'s list.
    """
    completed = _search(_as_annotated(source), table, lm, weights, beam, 1)
    return _to_result(min(completed.items(), key=_rank)[1])


def decode_nbest(
    source,
    table: PhraseTable,
    lm: NgramLanguageModel,
    weights: LogLinearWeights,
    beam: BeamConfig = BeamConfig(),
    n: int = 100,
) -> list[DecodeResult]:
    """The ``n`` best distinct outputs, in ``_rank`` order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    completed = _search(_as_annotated(source), table, lm, weights, beam, n)
    ranked = sorted(completed.items(), key=_rank)
    return [_to_result(entry) for _, entry in ranked[:n]]


# ---------------------------------------------------------------------------
# MERT-style tuning: iterated n-best generation + exact per-dimension line
# search on corpus BLEU, with random restarts.
# ---------------------------------------------------------------------------


def _upper_envelope(lines: list[tuple[float, float, int]]):
    """Upper envelope of y = a + b*x.

    ``lines`` holds (slope, intercept, id); returns [(x_from, id)] segments
    ordered by x.  Ids are stable under ties so the search is deterministic.
    """
    # for equal slopes only the highest intercept can win, the smallest id
    # of equals; only the winners are sorted
    top: dict[float, tuple[float, float, int]] = {}
    for line in lines:
        kept = top.get(line[0])
        if (kept is None or line[1] > kept[1]
                or (line[1] == kept[1] and line[2] < kept[2])):
            top[line[0]] = line
    dedup = sorted(top.values())
    hull: list[tuple[float, float, int]] = []
    breaks: list[float] = []
    for b, a, idx in dedup:
        while hull:
            b0, a0, _ = hull[-1]
            # intersection with the current top line
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


def _pool_dots(pools, weights) -> list[np.ndarray]:
    """``w . f`` for every line of every sentence's pool, one ``dot`` per
    line: a stacked matrix product sums in another order, so it is not
    bit-equal."""
    return [np.fromiter(map(weights.dot, feats), np.float64, len(feats))
            for feats in pools]


def _line_search_dim(pools, stats, weights, dim, dots):
    """Best value for one weight dimension by sweeping envelope breakpoints.

    Returns (best_lambda, best_bleu).  Among intervals tied on BLEU the
    widest wins and its midpoint is returned, which keeps the chosen weight
    away from decision boundaries.  ``pools`` maps sentence -> feature
    vectors (a list of them or one stacked array); ``stats`` holds the
    matching BLEU statistics; ``dots`` is ``_pool_dots(pools, weights)``.
    """
    w_dim = weights[dim]
    events: list[tuple[float, int, int]] = []  # (x, sentence, hyp index)
    active: list[int] = []
    for s_idx, feats in enumerate(pools):
        slopes = np.asarray(feats)[:, dim]
        # the line of hypothesis h is a + b*x with a = w.f - w[dim]*f[dim]
        intercepts = dots[s_idx] - w_dim * slopes
        lines = list(zip(slopes.tolist(), intercepts.tolist(), range(len(slopes))))
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


def _pool_bleu(stats, dots):
    """Corpus BLEU of each sentence's best pool line (the first of equally
    scored lines); ``dots`` as in ``_line_search_dim``."""
    chosen = [stats[s_idx][int(np.argmax(d))] for s_idx, d in enumerate(dots)]
    return bleu_from_stats(*sum_bleu_stats(chosen))


_ASCENT_PASSES = 8


def _optimize_on_pool(pools, stats, start):
    """Coordinate ascent on pool BLEU, taking the steepest dimension in
    each of at most ``_ASCENT_PASSES`` passes (first-improvement greedy is
    prone to knife-edge optima).  The lines are priced once per pass:
    every dimension's search shares the pass's ``w . f``.  ``pools``
    holds each sentence's feature vectors as in ``_line_search_dim``."""
    weights = start.copy()
    dots = _pool_dots(pools, weights)
    best = _pool_bleu(stats, dots)
    for _ in range(_ASCENT_PASSES):
        best_dim, best_x, best_score = None, None, best
        for dim in range(len(FEATURE_NAMES)):
            x, score = _line_search_dim(pools, stats, weights, dim, dots)
            if score > best_score + 1e-9:
                best_dim, best_x, best_score = dim, x, score
        if best_dim is None:
            break
        weights[best_dim] = best_x
        best = best_score
        dots = _pool_dots(pools, weights)
    peak = float(np.abs(weights).max())
    if peak > 0:
        weights = weights / peak
    return weights, _pool_bleu(stats, _pool_dots(pools, weights))


def _search_dev(dev, table, lm, weights, beam, nbest, ref_counts):
    """Search every dev sentence once under ``weights``.

    Returns the ``nbest``-best lists as (tokens, features) pairs, the dev
    BLEU, and the number of sentences whose list ties exactly on the top
    score.  A tied sentence counts at its worst top entry (fewest clipped
    n-gram matches, the earliest of equals), so no tie rule can raise the
    dev BLEU that MERT maximizes.  ``ref_counts`` holds the ``ngram_counts``
    of each dev reference; ``mert_tune`` takes them once for all its
    calls.
    """
    w = LogLinearWeights(weights)
    nbest_lists, sentence_stats, tied = [], [], 0
    for (src, ref), counts in zip(dev.pairs, ref_counts):
        results = decode_nbest(src, table, lm, w, beam, nbest)
        top = [bleu_stats(r.tokens, ref, counts) for r in results
               if r.score == results[0].score]
        sentence_stats.append(min(top, key=lambda st: sum(st[0])))
        tied += len(top) > 1
        nbest_lists.append([(r.tokens, r.features) for r in results])
    return nbest_lists, bleu_from_stats(*sum_bleu_stats(sentence_stats)), tied


def mert_tune(
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
    """Tune log-linear weights to maximize corpus BLEU on a development set.

    Tuned weights are never worse than ``init`` on dev BLEU when each exact
    top tie is counted at its worst output (see ``_search_dev``): every
    weight vector MERT decodes with, ``init`` included, has that dev BLEU
    measured on its real n-best lists, and the best one so far is kept (the
    earliest among equals).  Where a weight vector leaves no top tie, this
    is the dev BLEU of what ``decode`` outputs.  Each dev sentence is
    searched once per weight vector: the n-best lists that measure the BLEU
    of an iteration's weights are the lists the next iteration adds to the
    pool.  Each dev reference's n-grams are counted once, here, for every
    BLEU statistic taken against it.  Each iteration ascends once from each
    distinct start among the current weights, the best weights and the
    ``restarts`` random vectors, which are drawn whether or not they repeat
    a start.  Each measurement is logged at info level (iteration 0 is
    ``init``).
    """
    if not dev.pairs:
        raise ValueError("development set is empty")
    if nbest < 1:
        raise ValueError(f"nbest must be >= 1, got {nbest}")
    rng = np.random.default_rng(seed)
    ref_counts = [ngram_counts(ref) for _, ref in dev.pairs]
    # per dev sentence, each pooled output -> (features, BLEU statistics),
    # in the order the outputs joined the pool
    pools: list[dict[Tokens, tuple]] = [{} for _ in dev.pairs]

    current = init.values.copy()
    best_weights, best_real = current, float("-inf")
    for iteration in range(iterations + 1):
        nbest_lists, real, tied = _search_dev(
            dev, table, lm, current, beam, nbest, ref_counts
        )
        log.info(
            "MERT iteration %d: dev BLEU %.2f, %d of %d dev sentences tied "
            "on the top score, pool of %d hypotheses",
            iteration, real, tied, len(dev.pairs), sum(map(len, pools)),
        )
        if real > best_real + 1e-12:
            best_real = real
            best_weights = current.copy()
        if iteration == iterations:
            break
        # n-best hypotheses under the current weights join the pool; weight
        # vectors that looked good on the pool but decode poorly thereby
        # contribute the counterexamples that correct the next line search
        grew = False
        for pool, (_, ref), counts, nbest_list in zip(
            pools, dev.pairs, ref_counts, nbest_lists
        ):
            for tokens, features in nbest_list:
                if tokens not in pool:
                    pool[tokens] = (features, bleu_stats(tokens, ref, counts))
                    grew = True
        if not grew and iteration > 0:
            break
        # one stacked array per sentence serves every start's ascent
        feats = [np.array([f for f, _ in pool.values()]) for pool in pools]
        stats = [[st for _, st in pool.values()] for pool in pools]
        starts = [current, best_weights]
        for _ in range(restarts):
            starts.append(rng.uniform(-1.0, 1.0, len(FEATURE_NAMES)))
        best_w, best_score = None, float("-inf")
        # the ascent is a pure function of its start: a repeat would return
        # an equal score, which the strict test below never takes
        tried = set()
        for start in starts:
            if start.tobytes() in tried:
                continue
            tried.add(start.tobytes())
            w, score = _optimize_on_pool(feats, stats, start)
            if score > best_score + 1e-12:
                best_w, best_score = w, score
        current = best_w
    return LogLinearWeights(best_weights)
