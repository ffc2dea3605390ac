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
tests against a brute-force decoder rely on.  When pruning leaves no
complete hypothesis, the sentence is searched again with a wider stack and
distortion window, and a ``termforge.smt`` warning says so.  If that pass
finds nothing either, as when no sequence of options covers the input,
``SearchError`` names the source tokens.

The search loop does scalar work only.  A stack maps a recombination key
(coverage bitmask, LM context, last phrase end) to an entry, the tuple
(score, parent entry, option, LM log-prob of the step).  The entry is the
search state: its back-pointer points at its parent's entry, the root is
``(0.0, None, None, 0.0)``, and a completed output is an end-of-sentence
entry whose option is ``None``.  The options are kept in start
order, and for each last phrase end the window of options starting within
the distortion limit is listed once per decode, with each option's
coverage mask, weighted phrase and word-penalty score and distortion cost;
an extension tests the mask (which also rejects covered starts) and adds
that part, the weighted LM term and the distortion cost.  The LM terms
come from memos that live for one search: one dict per distinct phrase
target, context -> (log-prob, new context), which each option holds
directly, and context -> end-of-sentence log-prob; only misses query the
model.  The 7-dim feature vector of a returned result is rebuilt from its
back-trace, adding each step's terms in search order.  Completed
hypotheses have one order, score descending and then tokens ascending:
``decode`` returns the head of ``decode_nbest``'s list.

Histogram pruning keeps its exact result with less work.  The search is
told the list length it serves (1 for ``decode``, ``n`` for
``decode_nbest``), and each stack and the completed outputs keep a floor:
the ``size``-th best first-insert score among their keys, where ``size``
is the stack size or the list length.  A key's score only rises, so a
completion or stack insert scoring strictly below the floor could never
make the cut and is skipped before any bookkeeping; ties pass, so the
(score, key) tie order is untouched.  A stack is filtered by its floor
before it is sorted.  The LM is still queried for every extension, so the
memos fill exactly as without floors.

MERT (Och 2003) searches each dev sentence once per weight vector: the
n-best lists that measure the dev BLEU of an iteration's weights are the
lists the next iteration adds to the pool.  A line-search pass prices every
pool line once, and all seven dimensions of the pass share those dot
products.  A dev sentence whose top score is an exact tie counts at its
worst tied output, so MERT cannot gain dev BLEU from the tie-break.
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
from .corpus import ParallelCorpus, Tokens, contains_contiguous, finite_float, tokenize
from .errors import MarkupError, ModelFormatError, SearchError
from .files import atomic_open, read_lines
from .lm import EOS, BOS, NgramLanguageModel
from .metrics import BLEU_ORDER, bleu_from_stats, bleu_stats, sum_bleu_stats

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
    """Read ``name value`` lines; every name in FEATURE_NAMES must appear."""
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
class SpanCandidate:
    tokens: Tokens
    prob: float = 1.0


@dataclass
class Span:
    start: int
    end: int
    candidates: list[SpanCandidate]
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
    """
    tokens: list[str] = []
    spans: list[Span] = []
    pos = 0
    for match in _MARKUP_RE.finditer(line):
        tokens.extend(tokenize(line[pos:match.start()]))
        translations = _SEP_RE.split(match.group(1).strip())
        if not translations or translations == [""]:
            raise MarkupError("translation attribute is empty")
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
        else:
            probs = [1.0] * len(translations)
        span_tokens = tokenize(match.group(3))
        if not span_tokens:
            raise MarkupError("empty span text")
        start = len(tokens)
        tokens.extend(span_tokens)
        candidates = [
            SpanCandidate(tokenize(text), prob)
            for text, prob in zip(translations, probs)
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
        probs = " || ".join(str(float(c.prob)) for c in span.candidates)
        text = " ".join(annotated.tokens[span.start:span.end])
        parts.append(f'<n translation="{translations}" prob="{probs}">{text}</n>')
        pos = span.end
    parts.extend(annotated.tokens[pos:])
    return " ".join(parts)


@dataclass
class BeamConfig:
    stack_size: int = 100
    distortion_limit: int = 6


@dataclass
class TracedPhrase:
    source_span: tuple[int, int]
    target: Tokens
    log_features: tuple[float, float, float, float]


@dataclass
class DecodeResult:
    tokens: Tokens
    score: float
    features: np.ndarray  # accumulated 7-dim feature vector
    trace: list[TracedPhrase]


@dataclass(frozen=True)
class _Option:
    start: int
    end: int
    target: Tokens
    log_feats: tuple[float, float, float, float]


def _log_feats(features) -> tuple[float, float, float, float]:
    return tuple(math.log(min(max(float(p), PROB_FLOOR), 1.0)) for p in features)


def _span_option(span: Span, cand: SpanCandidate) -> _Option:
    # candidate probability enters the forward-phrase slot; the reverse
    # phrase feature is neutral and both lexical slots mirror the probability
    return _Option(
        span.start, span.end, tuple(cand.tokens),
        _log_feats((cand.prob, 1.0, cand.prob, cand.prob)),
    )


def _overlaps(option: _Option, span: Span) -> bool:
    return option.start < span.end and span.start < option.end


def _covers(option: _Option, span: Span) -> bool:
    return option.start <= span.start and option.end >= span.end


def build_options(
    annotated: AnnotatedInput, table: PhraseTable
) -> list[_Option]:
    """Translation options for one input after injection-mode filtering,
    including verbatim pass-through for otherwise uncovered tokens."""
    tokens = annotated.tokens
    options: list[_Option] = []
    max_len = table.max_phrase_len
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + max_len, len(tokens)) + 1):
            for opt in table.options(tokens[i:j]):
                options.append(_Option(i, j, opt.target, _log_feats(opt.features)))

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
            options.append(_Option(pos, pos + 1, (tok,), (0.0, 0.0, 0.0, 0.0)))
    return options


def _mask(option: _Option) -> int:
    return ((1 << (option.end - option.start)) - 1) << option.start


def _push_floor(heap: list[float], size: int, score: float) -> float:
    """Record a key's first-insert ``score`` in ``heap``, a min-heap of at
    most ``size`` scores, and return the floor: the ``size``-th best score
    recorded, or ``-inf`` while fewer are (always, when ``size < 1``).

    A key's score only rises after its first insert, so ``size`` keys score
    at or above the floor; a key scoring strictly below it can never make a
    cut of ``size``, and ties pass."""
    if len(heap) < size:
        heapq.heappush(heap, score)
    elif heap and score > heap[0]:
        heapq.heapreplace(heap, score)
    return heap[0] if heap and len(heap) == size else -math.inf


def _search(
    annotated: AnnotatedInput,
    table: PhraseTable,
    lm: NgramLanguageModel,
    weights: LogLinearWeights,
    beam: BeamConfig,
    nbest: int,
) -> dict[Tokens, tuple]:
    """Coverage-stack beam search.  Returns the end-of-sentence entry of
    each completed output by target, a superset of the ``nbest`` first in
    ``_rank`` order."""
    annotated.validate()
    w = weights.values.tolist()
    w_lm, w_wp, w_dist = w[4], w[5], w[6]
    n = len(annotated.tokens)
    keep = lm.order - 1
    cond_logprob = lm.cond_logprob
    # LM memos for this decode: per distinct phrase target, context ->
    # (log-prob, new context); and context -> end-of-sentence log-prob
    phrase_lm: dict[Tokens, dict[tuple[str, ...], tuple[float, tuple[str, ...]]]] = {}
    eos_lm: dict[tuple[str, ...], float] = {}

    def eos_logprob(ctx: tuple[str, ...]) -> float:
        eos = eos_lm.get(ctx)
        if eos is None:
            eos = eos_lm[ctx] = cond_logprob(EOS, ctx)
        return eos

    root = (0.0, None, None, 0.0)
    if n == 0:
        eos = eos_logprob((BOS,))
        return {(): (w_lm * eos, root, None, eos)}

    # the options in start order, each with its coverage mask, weighted
    # phrase and word-penalty part and the LM memo of its target
    scored = []
    for opt in sorted(build_options(annotated, table), key=lambda o: o.start):
        lf = opt.log_feats
        static = (
            w[0] * lf[0] + w[1] * lf[1] + w[2] * lf[2] + w[3] * lf[3]
            - w_wp * len(opt.target)
        )
        scored.append((opt, _mask(opt), static, phrase_lm.setdefault(opt.target, {})))
    starts = [opt.start for opt, _, _, _ in scored]
    limit = beam.distortion_limit
    # per last phrase end: the options starting within the distortion limit,
    # as (mask, static part, distortion cost, LM memo, option, span length)
    windows = []
    for last in range(n + 1):
        lo = bisect.bisect_left(starts, last - limit)
        hi = bisect.bisect_left(starts, last + limit + 1)
        windows.append([
            (mask, static, w_dist * abs(opt.start - last), memo, opt,
             opt.end - opt.start)
            for opt, mask, static, memo in scored[lo:hi]
        ])

    size = beam.stack_size
    full = (1 << n) - 1
    finals: dict[Tokens, tuple] = {}
    final_heap: list[float] = []
    final_floor = -math.inf
    # a stack maps (coverage, LM context, last end) to its entry (score,
    # parent entry, option, LM log-prob of the step); the entry is the
    # search state, and its parent chain is the back-trace
    stacks: list[dict] = [{} for _ in range(n + 1)]
    heaps: list[list[float]] = [[] for _ in range(n + 1)]
    floors = [-math.inf] * (n + 1)
    stacks[0][(0, (BOS,), 0)] = root

    for k in range(n):
        floor = floors[k]
        ranked = sorted(
            [kv for kv in stacks[k].items() if kv[1][0] >= floor],
            key=lambda kv: (-kv[1][0], kv[0]),
        )[:size]
        for (coverage, ctx, last), entry in ranked:
            score = entry[0]
            prefix = None
            for mask, static, dist_cost, memo, opt, length in windows[last]:
                if coverage & mask:
                    continue
                lm_entry = memo.get(ctx)
                if lm_entry is None:
                    history = list(ctx)
                    lm_delta = 0.0
                    for tok in opt.target:
                        lm_delta += cond_logprob(tok, history)
                        history.append(tok)
                    lm_entry = memo[ctx] = (
                        lm_delta, tuple(history[-keep:]) if keep else ()
                    )
                lm_delta, new_ctx = lm_entry
                new_score = score + (static + w_lm * lm_delta - dist_cost)
                j = k + length
                if j == n:
                    eos = eos_logprob(new_ctx)
                    done_score = new_score + w_lm * eos
                    if done_score < final_floor:
                        continue
                    if prefix is None:
                        prefix = _target_tokens(entry)
                    output = prefix + opt.target
                    old = finals.get(output)
                    if old is None:
                        final_floor = _push_floor(final_heap, nbest, done_score)
                    elif done_score <= old[0]:
                        continue
                    finals[output] = (
                        done_score, (new_score, entry, opt, lm_delta), None, eos,
                    )
                elif new_score >= floors[j]:
                    stack = stacks[j]
                    key = (coverage | mask, new_ctx, opt.end)
                    old = stack.get(key)
                    if old is None:
                        floors[j] = _push_floor(heaps[j], size, new_score)
                    elif new_score <= old[0]:
                        continue
                    stack[key] = (new_score, entry, opt, lm_delta)
    return finals


def _target_tokens(entry: tuple) -> Tokens:
    parts: list[Tokens] = []
    while entry is not None:
        if entry[2] is not None:
            parts.append(entry[2].target)
        entry = entry[1]
    return tuple(tok for phrase in reversed(parts) for tok in phrase)


def _to_result(entry: tuple) -> DecodeResult:
    """Rebuild the 7-dim feature vector by adding each step's terms from the
    root to the end-of-sentence event, slot by slot."""
    path: list[tuple] = []
    node = entry
    while node is not None:
        path.append(node)
        node = node[1]
    features = [0.0] * len(FEATURE_NAMES)
    trace: list[TracedPhrase] = []
    tokens: list[str] = []
    last_end = 0
    for _, _, opt, lm_delta in reversed(path):
        if opt is not None:
            for i, value in enumerate(opt.log_feats):
                features[i] += value
            features[5] -= len(opt.target)
            features[6] -= abs(opt.start - last_end)
            last_end = opt.end
            trace.append(TracedPhrase((opt.start, opt.end), opt.target, opt.log_feats))
            tokens.extend(opt.target)
        features[4] += lm_delta
    return DecodeResult(
        tokens=tuple(tokens),
        score=entry[0],
        features=np.array(features),
        trace=trace,
    )


def _as_annotated(source) -> AnnotatedInput:
    if isinstance(source, AnnotatedInput):
        return source
    return AnnotatedInput(tuple(source), [])


def _search_complete(annotated, table, lm, weights, beam, nbest):
    finals = _search(annotated, table, lm, weights, beam, nbest)
    if not finals:
        # aggressive pruning can strand the search on dead ends
        relaxed = BeamConfig(
            stack_size=max(beam.stack_size * 10, 1000),
            distortion_limit=max(beam.distortion_limit, len(annotated.tokens)),
        )
        log.warning(
            "pruned search found no complete translation of a %d-token "
            "sentence; searching again with stack size %d",
            len(annotated.tokens), relaxed.stack_size,
        )
        finals = _search(annotated, table, lm, weights, relaxed, nbest)
        if not finals:
            raise SearchError(
                f"no sequence of translation options covering "
                f"{' '.join(annotated.tokens)!r} survived a search with stack "
                f"size {relaxed.stack_size}",
                annotated.tokens,
            )
    return finals


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
    finals = _search_complete(_as_annotated(source), table, lm, weights, beam, 1)
    return _to_result(min(finals.items(), key=_rank)[1])


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
    finals = _search_complete(_as_annotated(source), table, lm, weights, beam, n)
    ranked = sorted(finals.items(), key=_rank)
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
    lines = sorted(lines)
    # for equal slopes only the highest intercept can win
    dedup: list[tuple[float, float, int]] = []
    for b, a, idx in lines:
        if dedup and dedup[-1][0] == b:
            if a <= dedup[-1][1]:
                continue
            dedup.pop()
        dedup.append((b, a, idx))
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
    """``w . f`` for every line of every sentence's pool."""
    return [np.array([np.dot(weights, f) for f in feats]) for feats in pools]


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


def _optimize_on_pool(pools, stats, start, max_passes=8):
    """Coordinate ascent on pool BLEU, taking the steepest dimension per
    pass (first-improvement greedy is prone to knife-edge optima).  The
    lines are priced once per pass: every dimension's search shares the
    pass's ``w . f``."""
    pools = [np.array(feats) for feats in pools]
    weights = start.copy()
    dots = _pool_dots(pools, weights)
    best = _pool_bleu(stats, dots)
    for _ in range(max_passes):
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


def _search_dev(dev, table, lm, weights, beam, nbest):
    """Search every dev sentence once under ``weights``.

    Returns the ``nbest``-best lists as (tokens, features) pairs, the dev
    BLEU, and the number of sentences whose list ties exactly on the top
    score.  A tied sentence counts at its worst top entry (fewest clipped
    n-gram matches, the earliest of equals), so no tie rule can raise the
    dev BLEU that MERT maximizes.
    """
    w = LogLinearWeights(weights)
    nbest_lists, sentence_stats, tied = [], [], 0
    for src, ref in dev.pairs:
        results = decode_nbest(src, table, lm, w, beam, nbest)
        top = [bleu_stats(r.tokens, ref) for r in results
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
    pool.  Each measurement is logged at info level (iteration 0 is
    ``init``).
    """
    if not dev.pairs:
        raise ValueError("development set is empty")
    if nbest < 1:
        raise ValueError(f"nbest must be >= 1, got {nbest}")
    rng = np.random.default_rng(seed)
    pools: list[list[np.ndarray]] = [[] for _ in dev.pairs]
    stats: list[list] = [[] for _ in dev.pairs]
    seen: list[set[Tokens]] = [set() for _ in dev.pairs]

    current = init.values.copy()
    best_weights, best_real = current, float("-inf")
    for iteration in range(iterations + 1):
        nbest_lists, real, tied = _search_dev(dev, table, lm, current, beam, nbest)
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
        for s_idx, ((_, ref), nbest_list) in enumerate(zip(dev.pairs, nbest_lists)):
            for tokens, features in nbest_list:
                if tokens in seen[s_idx]:
                    continue
                seen[s_idx].add(tokens)
                pools[s_idx].append(features)
                stats[s_idx].append(bleu_stats(tokens, ref))
                grew = True
        if not grew and iteration > 0:
            break
        starts = [current.copy(), best_weights.copy()]
        for _ in range(restarts):
            starts.append(rng.uniform(-1.0, 1.0, len(FEATURE_NAMES)))
        best_w, best_score = None, float("-inf")
        for start in starts:
            w, score = _optimize_on_pool(pools, stats, start)
            if score > best_score + 1e-12:
                best_w, best_score = w, score
        current = best_w
    return LogLinearWeights(best_weights)
