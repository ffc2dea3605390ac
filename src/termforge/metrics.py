"""Translation quality metrics: BLEU, chrF3, METEOR-lite, the results
file and the report.

All metrics are corpus-level over already-tokenized segments, return values
in [0, 100], and are pure functions of their inputs.  METEOR-lite keeps the
exact-match alignment, recall-weighted harmonic mean, and fragmentation
penalty, but drops the stemming/synonym/paraphrase stages, so its absolute
values are not comparable with the reference tooling.

The results file (``results.tsv``) has one row
``system<TAB>evalset<TAB>metric<TAB>value`` per score; this module is its
one reader (:func:`load_results`) and its one writer (:func:`save_results`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import finite_float
from .errors import ModelFormatError
from .files import atomic_open, read_lines

Segment = Sequence[str]

BLEU_ORDER = 4
BLEU_EPSILON = 1e-9

CHRF_ORDER = 6
CHRF_BETA = 3.0

METEOR_ALPHA = 0.9  # weight on precision in P*R/(a*P + (1-a)*R); recall dominates
METEOR_GAMMA = 0.5
METEOR_THETA = 3.0


@dataclass
class MetricScore:
    bleu: float
    chrf3: float
    meteor: float
    segment_count: int


# the reported metrics in report order, each as (its title in the text
# report, its MetricScore field and results TSV name)
REPORTED = (("BLEU", "bleu"), ("METEOR", "meteor"), ("chrF3", "chrf3"))

# (system, evalset) -> {metric: value}, in the results file's row order
Results = dict[tuple[str, str], dict[str, float]]


def _check_lengths(hypotheses, references):
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("need at least one segment")


def ngram_counts(tokens: Segment) -> Counter:
    """Every n-gram of orders 1 to ``BLEU_ORDER`` in ``tokens``, counted in
    one ``Counter`` keyed by the n-gram tuple (its length is its order)."""
    counts = Counter()
    for n in range(1, BLEU_ORDER + 1):
        counts.update(zip(*(tokens[i:] for i in range(n))))
    return counts


def bleu_stats(
    hypothesis: Segment, reference: Segment, reference_counts: Counter
) -> tuple[list, list, int, int]:
    """Sufficient statistics for one segment: clipped matches and totals per
    order, plus hypothesis/reference lengths.  ``reference_counts`` is the
    reference's :func:`ngram_counts`, which weight tuning takes once for the
    many hypotheses it scores against one reference."""
    hyp_counts = ngram_counts(hypothesis)
    correct = [0] * BLEU_ORDER
    for gram in hyp_counts.keys() & reference_counts.keys():
        correct[len(gram) - 1] += min(hyp_counts[gram], reference_counts[gram])
    hyp_len = len(hypothesis)
    total = [max(hyp_len - n, 0) for n in range(BLEU_ORDER)]
    return correct, total, hyp_len, len(reference)


def sum_bleu_stats(
    stats: Iterable[tuple[Sequence[int], Sequence[int], int, int]],
) -> tuple[list[int], list[int], int, int]:
    """Corpus statistics: the element-wise sum of :func:`bleu_stats` tuples."""
    correct = [0] * BLEU_ORDER
    total = [0] * BLEU_ORDER
    hyp_len = ref_len = 0
    for c, t, hl, rl in stats:
        for n in range(BLEU_ORDER):
            correct[n] += c[n]
            total[n] += t[n]
        hyp_len += hl
        ref_len += rl
    return correct, total, hyp_len, ref_len


def bleu_from_stats(
    correct: Sequence[int], total: Sequence[int], hyp_len: int, ref_len: int
) -> float:
    """Corpus BLEU-4 from accumulated statistics, with the epsilon count
    floor for orders that matched nothing; orders with no n-grams at all are
    excluded from the geometric mean (short-segment corpora)."""
    log_sum = 0.0
    effective = 0
    for n in range(BLEU_ORDER):
        if total[n] == 0:
            continue
        effective += 1
        log_sum += math.log(max(correct[n], BLEU_EPSILON) / total[n])
    if effective == 0 or hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum / effective)


def bleu(hypotheses: Sequence[Segment], references: Sequence[Segment]) -> float:
    """Corpus-level BLEU-4 with brevity penalty, in [0, 100]."""
    _check_lengths(hypotheses, references)
    return bleu_from_stats(
        *sum_bleu_stats(
            bleu_stats(hyp, ref, ngram_counts(ref))
            for hyp, ref in zip(hypotheses, references)
        )
    )


def _char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i:i + n] for i in range(len(text) - n + 1))


def chrf3(hypotheses: Sequence[Segment], references: Sequence[Segment]) -> float:
    """Character n-gram F-beta for orders 1 to ``CHRF_ORDER`` and beta =
    ``CHRF_BETA`` (recall weighted beta^2 times), in [0, 100].

    Whitespace is excluded from the n-grams; precision and recall are
    micro-averaged over the corpus per order, then averaged over orders.
    """
    _check_lengths(hypotheses, references)
    hyp_counts = [0] * CHRF_ORDER
    ref_counts = [0] * CHRF_ORDER
    match_counts = [0] * CHRF_ORDER
    for hyp, ref in zip(hypotheses, references):
        hyp_text = "".join(hyp)
        ref_text = "".join(ref)
        for n in range(1, CHRF_ORDER + 1):
            hyp_ngrams = _char_ngrams(hyp_text, n)
            ref_ngrams = _char_ngrams(ref_text, n)
            hyp_counts[n - 1] += sum(hyp_ngrams.values())
            ref_counts[n - 1] += sum(ref_ngrams.values())
            match_counts[n - 1] += sum((hyp_ngrams & ref_ngrams).values())
    precision = recall = 0.0
    effective = 0
    for n in range(CHRF_ORDER):
        if hyp_counts[n] > 0 and ref_counts[n] > 0:
            precision += match_counts[n] / hyp_counts[n]
            recall += match_counts[n] / ref_counts[n]
            effective += 1
    if effective == 0:
        return 0.0
    precision /= effective
    recall /= effective
    if precision + recall == 0.0:
        return 0.0
    beta_sq = CHRF_BETA * CHRF_BETA
    score = (1 + beta_sq) * precision * recall / (beta_sq * precision + recall)
    return 100.0 * score


def _greedy_matches(hypothesis: Segment, reference: Segment):
    """One-to-one exact unigram alignment, hypothesis scanned left to right,
    each token taking the first unmatched identical reference token."""
    taken = [False] * len(reference)
    matches = []  # (hyp_pos, ref_pos)
    for i, tok in enumerate(hypothesis):
        for j, ref_tok in enumerate(reference):
            if not taken[j] and ref_tok == tok:
                taken[j] = True
                matches.append((i, j))
                break
    return matches


def _count_chunks(matches) -> int:
    chunks = 0
    prev = None
    for i, j in matches:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def meteor_lite(hypotheses: Sequence[Segment], references: Sequence[Segment]) -> float:
    """Exact-match METEOR: recall-weighted F-mean times a fragmentation
    penalty, aggregated over the corpus, in [0, 100]."""
    _check_lengths(hypotheses, references)
    total_matches = total_hyp = total_ref = total_chunks = 0
    for hyp, ref in zip(hypotheses, references):
        matches = _greedy_matches(hyp, ref)
        matches.sort()
        total_matches += len(matches)
        total_chunks += _count_chunks(matches)
        total_hyp += len(hyp)
        total_ref += len(ref)
    if total_matches == 0 or total_hyp == 0 or total_ref == 0:
        return 0.0
    precision = total_matches / total_hyp
    recall = total_matches / total_ref
    f_mean = precision * recall / (
        METEOR_ALPHA * precision + (1.0 - METEOR_ALPHA) * recall
    )
    penalty = METEOR_GAMMA * (total_chunks / total_matches) ** METEOR_THETA
    return 100.0 * f_mean * (1.0 - penalty)


def score_all(hypotheses: Sequence[Segment], references: Sequence[Segment]) -> MetricScore:
    return MetricScore(
        bleu=bleu(hypotheses, references),
        chrf3=chrf3(hypotheses, references),
        meteor=meteor_lite(hypotheses, references),
        segment_count=len(hypotheses),
    )


def load_results(path) -> Results:
    """The scores of a results file.  Blank lines are skipped; a row that
    is not four tab-separated fields ending in a finite number, or whose
    metric is not reported, raises :class:`ModelFormatError` naming the
    file and line."""
    known = [name for _, name in REPORTED]
    results: Results = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            system, evalset, metric, value = line.split("\t")
            number = finite_float(value)
        except ValueError:
            raise ModelFormatError(
                f"{path}: line {lineno}: expected "
                f"system<TAB>evalset<TAB>metric<TAB>number, got {line!r}"
            ) from None
        if metric not in known:
            raise ModelFormatError(
                f"{path}: line {lineno}: unknown metric {metric!r}, "
                f"expected one of {', '.join(known)}"
            )
        results.setdefault((system, evalset), {})[metric] = number
    return results


def save_results(results: Results, path) -> None:
    """Write ``results`` as a results file, every value to six decimals."""
    with atomic_open(path) as f:
        for (system, evalset), scores in results.items():
            for metric, value in scores.items():
                f.write(f"{system}\t{evalset}\t{metric}\t{value:.6f}\n")


def format_report(results: Results) -> str:
    """Matrix-shaped text report: one block per metric, systems as rows in
    order of first appearance and evaluation sets as columns, one system's
    sets after another's; ``/`` marks a missing evaluation set or metric
    value."""
    if not results:
        raise ValueError("no results to report")
    sets_of: dict[str, list[str]] = {}
    for system, eval_set in results:
        sets_of.setdefault(system, []).append(eval_set)
    eval_sets = list(dict.fromkeys(e for sets in sets_of.values() for e in sets))
    width = max([len(s) for s in sets_of] + [len(e) for e in eval_sets] + [10])
    blocks = []
    for title, name in REPORTED:
        lines = [title]
        header = " " * width + "".join(f"{e:>{width + 2}}" for e in eval_sets)
        lines.append(header)
        for system in sets_of:
            row = f"{system:<{width}}"
            for eval_set in eval_sets:
                value = results.get((system, eval_set), {}).get(name)
                cell = "/" if value is None else f"{value:.2f}"
                row += f"{cell:>{width + 2}}"
            lines.append(row)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
