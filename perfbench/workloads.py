"""The benchmark's workloads: generator knobs, pipeline settings, stages.

Each workload runs the real ``termforge.pipeline.run_*`` stages in the
order of ``STAGES``; a stage a workload skips is absent from its plan.
Stage roles are shared so every workload reports the same end-to-end
metrics: ``train`` is ``run_train_smt`` or ``run_train_nmt``, ``tune`` is
``run_tune`` (MERT) or ``run_adapt`` (NMT fine-tuning).  The SMT workload
trains as well as decodes, so the align and lm layers are measured there.

``nmt-bpe`` is the only workload that runs the bpe layer.  It is not in
``BENCHMARK.json``: at this commit ``run_translate`` raises
``SubwordFormatError`` whenever the model ends a hypothesis on a
continuation piece, so its runs report ``correct: false``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gen import Knobs

STAGES = ("train", "tune", "inject", "translate", "evaluate")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    system: str  # "smt" or "nmt"
    knobs: Knobs
    settings: dict[str, str] = field(default_factory=dict)
    modes: tuple[str, ...] = ()  # injection modes, one per evaluation part

    @property
    def stages(self) -> tuple[str, ...]:
        return tuple(s for s in STAGES if s != "inject" or self.modes)

    def config(self) -> dict[str, str]:
        """Flat pipeline config; paths are relative to the run directory.
        The program's own seed (MERT restarts, NMT initialisation) stays
        fixed, so workload seeds vary only the data."""
        values = {
            "seed": "42",
            "threads": "1",
            "corpus.train.source": "train.src",
            "corpus.train.target": "train.tgt",
            "corpus.dev.source": "dev.src",
            "corpus.dev.target": "dev.tgt",
            "lexicon.path": "lexicon.tsv",
            "translate.system": self.system,
            "evaluate.hypotheses": "hypotheses.txt",
            "evaluate.references": "eval-all.tgt",
            "evaluate.results": "results.tsv",
            "evaluate.system": self.name,
        }
        values[f"model.{self.system}.dir"] = f"{self.system}-model"
        values.update(self.settings)
        return values

    def part_overrides(self, part: str) -> list[str]:
        """Config overrides that point the inject/translate stages at one
        evaluation part (and, with injection, at its mode)."""
        overrides = [
            f"corpus.eval.source={part}.src",
            f"corpus.eval.target={part}.tgt",
            f"translate.output=hyp-{part}.txt",
        ]
        if self.modes:
            overrides += [
                f"inject.mode={part}",
                f"inject.output=annotated-{part}.txt",
                f"inject.lexicon_output=lexicon-ranked-{part}.tsv",
                f"translate.input=annotated-{part}.txt",
            ]
        else:
            overrides.append(f"translate.input={part}.src")
        return overrides


_NMT_KNOBS = Knobs(
    pairs=1000, vocab=80, zipf=1.0, length=(3, 10),
    swap_rate=0.0, split_rate=0.0, drop_rate=0.0, function_words=0,
    compound_rate=0.5, terms=40, term_rate=0.3,
    dev=40, dev_terms=True,
    eval=200, eval_length=(4, 10), eval_terms=(1, 1),
)

_NMT = {
    "nmt.layers": "2",
    "nmt.hidden": "32",
    "nmt.batch_size": "16",
    "nmt.dropout": "0.1",
    "nmt.epochs": "15",
    "nmt.learning_rate": "1.0",
    "nmt.adapt.epochs": "10",
    "nmt.adapt.batch_size": "2",
    "nmt.adapt.learning_rate": "0.1",
    "translate.model": "model-adapted.tfnmt",
    "translate.beam": "5",
}

_SMT = {
    "smt.em_iterations": "5",
    "smt.max_phrase_len": "4",
    "smt.lm_order": "3",
    "smt.stack_size": "100",
    "smt.distortion_limit": "6",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="smt-decode",
            why=(
                "SMT end to end on a small model: alignment and KN training, then "
                "MERT and annotated inputs in three injection modes, so option "
                "building, stack search and LM queries dominate"
            ),
            system="smt",
            knobs=Knobs(
                pairs=1200, vocab=400, zipf=1.0, length=(5, 20),
                terms=150, dev=16, dev_length=(4, 8),
                eval=204, eval_length=(6, 10), eval_terms=(1, 2),
                eval_parts=("exclusive", "inclusive", "constraint"),
            ),
            settings={
                **_SMT,
                "smt.mert.restarts": "1",
                "smt.mert.iterations": "2",
                "smt.mert.nbest": "50",
                "inject.ranking": "cosine",
            },
            modes=("exclusive", "inclusive", "constraint"),
        ),
        Workload(
            name="nmt-word",
            why=(
                "neural path: batched training at B=16, fine-tuning at B=2 and "
                "beam-5 steps at B=1 over a small vocabulary; no SMT code runs"
            ),
            system="nmt",
            knobs=_NMT_KNOBS,
            settings={**_NMT, "nmt.segmentation": "word"},
        ),
        Workload(
            name="nmt-bpe",
            why=(
                "nmt-word's data and settings on 150-merge BPE subwords, so BPE "
                "learning, application and decoding are measured; no SMT code runs"
            ),
            system="nmt",
            knobs=_NMT_KNOBS,
            settings={**_NMT, "nmt.segmentation": "bpe", "bpe.num_merges": "150"},
        ),
    )
}
