"""Where the traced run hooks into termforge, and the per-layer metrics.

``HOOKS`` names each public function by the owner its callers resolve it
from at call time (``pipeline`` calls ``align.ibm1_em``; ``ibm1_em``
calls the ``ibm1_estep`` bound in ``termforge.align``; ``_extend`` calls
``NgramLanguageModel.cond_logprob``).  ``layer_metrics`` turns one dumped
trace into the ``<module>.<metric>`` values listed in the catalogue.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict

import numpy as np

from tracer import Tracer, self_times
from workloads import STAGES

SPAN, COUNTED = "span", "counted"


def _lines(tracer, args, result):
    tracer.count("corpus.lines", len(result.pairs))


def _em(tracer, args, result):
    tracer.count("align.table_bytes", result.table.nbytes + result.inverse.nbytes)
    tracer.values["align.loglik_history"] = list(result.log_likelihood_history)


def _estep_cells(tracer, args, result):
    src_off, tgt_off = args[1], args[3]
    tracer.count("align.estep_cells", int(np.dot(np.diff(src_off), np.diff(tgt_off))))


def _phrase_pairs(tracer, args, result):
    tracer.count("align.phrase_pairs", sum(len(o) for o in result.entries.values()))


def _ptable_bytes(tracer, args, result):
    tracer.count("align.ptable_bytes", os.path.getsize(args[1]))


def _ngrams(tracer, args, result):
    tracer.count("lm.ngrams", len(result.logprob))


def _lm_query(tracer, args, result):
    model, word, context = args[0], args[1], args[2]
    keep = model.order - 1
    tracer.note_distinct("lm.query", (tuple(context[len(context) - keep:]) if keep else (), word))


def _options(tracer, args, result):
    tracer.count("smt.options", len(result))


def _nbest_pool(tracer, args, result):
    # MERT pools hypotheses per dev source across its iterations
    seen = tracer.scratch.setdefault("mert_seen", {})
    pool = seen.setdefault((tracer.parent, tuple(args[0])), set())
    new = {r.tokens for r in result} - pool
    pool.update(new)
    tracer.count("smt.nbest_returned", len(result))
    tracer.count("smt.nbest_new", len(new))


def _spans(tracer, args, result):
    tracer.count("inject.spans", len(result.spans))


def _merges(tracer, args, result):
    tracer.count("bpe.merges", len(result.merges))


def _final_ppl(tracer, args, result):
    tracer.values["nmt.final_ppl"] = result.train_history[-1]


def _batch(tracer, args, result):
    if tracer.parent_name() == "nmt.train":
        tracer.count("nmt.train_tokens", result[2])


# (module, class or None, attribute, span name, kind, after-call hook)
HOOKS = (
    ("termforge.corpus", None, "load_parallel", "corpus.load_parallel", SPAN, _lines),
    ("termforge.corpus", None, "load_lexicon", "corpus.load_lexicon", SPAN, None),
    ("termforge.align", None, "ibm1_em", "align.ibm1_em", SPAN, _em),
    ("termforge.align", None, "ibm1_estep", "align.ibm1_estep", COUNTED, _estep_cells),
    ("termforge.align", None, "viterbi_align", "align.viterbi_align", COUNTED, None),
    ("termforge.align", None, "extract_phrases", "align.extract_phrases", SPAN, _phrase_pairs),
    ("termforge.align", None, "save_phrase_table", "align.save_phrase_table", SPAN, _ptable_bytes),
    ("termforge.align", None, "load_phrase_table", "align.load_phrase_table", SPAN, None),
    ("termforge.lm", None, "train_lm", "lm.train_lm", SPAN, _ngrams),
    ("termforge.lm", None, "save_arpa", "lm.save_arpa", SPAN, None),
    ("termforge.lm", None, "load_arpa", "lm.load_arpa", SPAN, None),
    ("termforge.lm", "NgramLanguageModel", "cond_logprob", "lm.query", COUNTED, _lm_query),
    ("termforge.smt", None, "decode", "smt.decode", SPAN, None),
    ("termforge.smt", None, "decode_nbest", "smt.decode_nbest", SPAN, _nbest_pool),
    ("termforge.smt", None, "build_options", "smt.build_options", COUNTED, _options),
    ("termforge.smt", None, "mert_tune", "smt.mert_tune", SPAN, None),
    ("termforge.smt", None, "parse_markup", "smt.parse_markup", COUNTED, None),
    ("termforge.smt", None, "bleu_stats", "metrics.bleu_stats", COUNTED, None),
    ("termforge.metrics", None, "bleu_stats", "metrics.bleu_stats", COUNTED, None),
    ("termforge.metrics", None, "score_all", "metrics.score_all", SPAN, None),
    ("termforge.inject", None, "rank_candidates", "inject.rank_candidates", SPAN, None),
    ("termforge.inject", None, "annotate", "inject.annotate", COUNTED, _spans),
    ("termforge.bpe", None, "learn_bpe", "bpe.learn_bpe", SPAN, _merges),
    ("termforge.nmt.train", None, "apply_bpe", "bpe.apply_bpe", COUNTED, None),
    ("termforge.nmt.translate", None, "apply_bpe", "bpe.apply_bpe", COUNTED, None),
    ("termforge.bpe", None, "decode_bpe", "bpe.decode_bpe", COUNTED, None),
    ("termforge.nmt", None, "train", "nmt.train", SPAN, _final_ppl),
    ("termforge.nmt", None, "fine_tune", "nmt.fine_tune", SPAN, None),
    ("termforge.nmt.train", None, "loss_and_grads", "nmt.loss_and_grads", SPAN, _batch),
    ("termforge.nmt.network", None, "encode", "nmt.network.encode", COUNTED, None),
    ("termforge.nmt.network", None, "decoder_step", "nmt.network.decoder_step", COUNTED, None),
    ("termforge.nmt.network", None, "encode_backward", "nmt.network.encode_backward", COUNTED, None),
    ("termforge.nmt", None, "translate", "nmt.translate", SPAN, None),
    ("termforge.nmt.translate", None, "decoder_step", "nmt.translate.decoder_step", COUNTED, None),
    ("termforge.nmt", None, "save_model", "nmt.save_model", SPAN, None),
    ("termforge.nmt", None, "load_model", "nmt.load_model", SPAN, None),
)


def install(tracer: Tracer) -> None:
    """Replace every hooked name with its wrapper; ``tracer.restore()``
    puts the originals back."""
    for module, cls, attr, name, kind, after in HOOKS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        wrap = tracer.wrap_span if kind == SPAN else tracer.wrap_counted
        tracer.patch(owner, attr, wrap(getattr(owner, attr), name, after))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (zero for layers it never ran)."""
    spans = trace["spans"]
    selfs = self_times(trace)
    names = {s[0]: s[1] for s in spans}
    total = defaultdict(float)  # span name -> summed duration
    self_total = defaultdict(float)  # span name -> summed self time
    n_spans = defaultdict(int)
    for sid, name, start, end, _ in spans:
        total[name] += end - start
        self_total[name] += selfs[sid]
        n_spans[name] += 1
    calls = defaultdict(int)  # counted name -> calls
    call_s = defaultdict(float)
    for parent, name, count, seconds in trace["calls"]:
        calls[name] += count
        call_s[name] += seconds
        if parent is not None and names[parent] == "nmt.loss_and_grads":
            calls[f"train:{name}"] += count
            call_s[f"train:{name}"] += seconds
    c = defaultdict(float, trace["counters"])
    v = trace["values"]
    history = v.get("align.loglik_history") or [0.0]
    decodes = n_spans["smt.decode"] + n_spans["smt.decode_nbest"]
    batches = n_spans["nmt.loss_and_grads"]

    m = {
        "corpus.load_s": total["corpus.load_parallel"] + total["corpus.load_lexicon"],
        "corpus.lines": c["corpus.lines"],
        "align.em_s": total["align.ibm1_em"],
        "align.estep_s": call_s["align.ibm1_estep"],
        "align.estep_calls": calls["align.ibm1_estep"],
        "align.estep_cells": c["align.estep_cells"],
        "align.mstep_s": self_total["align.ibm1_em"],
        "align.table_bytes": c["align.table_bytes"],
        "align.final_loglik": history[-1],
        "align.viterbi_s": call_s["align.viterbi_align"],
        "align.extract_s": total["align.extract_phrases"],
        "align.phrase_pairs": c["align.phrase_pairs"],
        "align.ptable_write_s": total["align.save_phrase_table"],
        "align.ptable_read_s": total["align.load_phrase_table"],
        "align.ptable_bytes": c["align.ptable_bytes"],
        "lm.train_s": total["lm.train_lm"],
        "lm.ngrams": c["lm.ngrams"],
        "lm.arpa_write_s": total["lm.save_arpa"],
        "lm.arpa_read_s": total["lm.load_arpa"],
        "lm.query_calls": calls["lm.query"],
        "lm.query_s": call_s["lm.query"],
        "lm.query_distinct_ratio": _ratio(c["lm.query.distinct"], calls["lm.query"]),
        "smt.decode_calls": n_spans["smt.decode"],
        "smt.decode_s": total["smt.decode"],
        "smt.build_options_s": call_s["smt.build_options"],
        "smt.options_per_sentence": _ratio(c["smt.options"], calls["smt.build_options"]),
        "smt.search_passes_per_decode": _ratio(calls["smt.build_options"], decodes),
        "smt.search_self_s": self_total["smt.decode"] + self_total["smt.decode_nbest"],
        "smt.nbest_s": total["smt.decode_nbest"],
        "smt.mert_s": total["smt.mert_tune"],
        "smt.mert_linesearch_s": self_total["smt.mert_tune"],
        "smt.mert_pool_new_ratio": _ratio(c["smt.nbest_new"], c["smt.nbest_returned"]),
        "smt.parse_markup_s": call_s["smt.parse_markup"],
        "inject.rank_s": total["inject.rank_candidates"],
        "inject.annotate_s": call_s["inject.annotate"],
        "inject.spans": c["inject.spans"],
        "bpe.learn_s": total["bpe.learn_bpe"],
        "bpe.merges": c["bpe.merges"],
        "bpe.apply_s": call_s["bpe.apply_bpe"],
        "bpe.apply_calls": calls["bpe.apply_bpe"],
        "bpe.decode_s": call_s["bpe.decode_bpe"],
        "nmt.train_s": total["nmt.train"],
        "nmt.batches": batches,
        "nmt.train_tokens_per_s": _ratio(c["nmt.train_tokens"], total["nmt.train"]),
        "nmt.fwd_bwd_s": total["nmt.loss_and_grads"],
        "nmt.train.encode_s": call_s["train:nmt.network.encode"],
        "nmt.train.decoder_step_s": call_s["train:nmt.network.decoder_step"],
        "nmt.encode_backward_s": call_s["train:nmt.network.encode_backward"],
        "nmt.output_and_decoder_backward_s": self_total["nmt.loss_and_grads"],
        "nmt.optimizer_s": self_total["nmt.train"] + self_total["nmt.fine_tune"],
        "nmt.fine_tune_s": total["nmt.fine_tune"],
        "nmt.translate_s": total["nmt.translate"],
        "nmt.translate.decoder_step_s": call_s["nmt.translate.decoder_step"],
        "nmt.decoder_steps_per_sentence": _ratio(
            calls["nmt.translate.decoder_step"], n_spans["nmt.translate"]
        ),
        "nmt.model_write_s": total["nmt.save_model"],
        "nmt.model_read_s": total["nmt.load_model"],
        "nmt.final_ppl": v.get("nmt.final_ppl", 0.0),
        "metrics.score_s": total["metrics.score_all"],
        "metrics.bleu_stats_calls": calls["metrics.bleu_stats"],
        "metrics.bleu_stats_s": call_s["metrics.bleu_stats"],
    }
    for stage in STAGES:
        m[f"pipeline.{stage}.self_s"] = self_total[f"pipeline.{stage}"]
    return m
