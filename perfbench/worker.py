"""One benchmark round in a fresh interpreter: set up, run stages, check.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR --out FILE
                                [--trace] [--setup-only] [--scale F]

``termforge`` must be importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``).  Set-up is the imports plus writing the generated inputs;
its end is reported as a ``CLOCK_MONOTONIC`` stamp so the parent can time
it from process start.  The result JSON goes to ``--out``; a traced round
also writes ``trace.json`` next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from time import perf_counter

import numpy as np
import termforge.nmt
import termforge.smt
from termforge import _kernels, pipeline
from termforge.config import load_config

import gen
import layers
from ops import Ops
from tracer import Tracer
from workloads import WORKLOADS

ARTIFACTS = (
    "smt-model/phrase-table.txt",
    "smt-model/lm.arpa",
    "smt-model/weights.txt",
    "nmt-model/model.tfnmt",
    "nmt-model/model-adapted.tfnmt",
    "nmt-model/bpe.source.codes",
    "nmt-model/bpe.target.codes",
    "hypotheses.txt",
)


def scaled(knobs: gen.Knobs, scale: float) -> gen.Knobs:
    """Knobs with every count multiplied by ``scale`` (tests run tiny sizes)."""
    if scale == 1.0:
        return knobs
    parts = len(knobs.eval_parts)

    def size(n, least=1):
        return max(least, round(n * scale))

    return replace(
        knobs,
        pairs=size(knobs.pairs, 20),
        vocab=size(knobs.vocab, 30),
        terms=size(knobs.terms, 6),
        dev=size(knobs.dev, 4),
        eval=size(knobs.eval, 2 * parts) // parts * parts,
    )


@contextmanager
def latency_hook(owner, attr, samples, gauge):
    """Time each call of ``owner.attr`` into ``samples`` (milliseconds,
    without the gauge's probes)."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = gauge.clock()
        result = original(*args, **kwargs)
        samples.append((gauge.clock() - start) * 1000.0)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


PROBE_INTERVAL_S = 0.1


def probe_s() -> float:
    """Best of two runs of a fixed task (about 1 ms) that mixes interpreter
    work with small matrix steps, as both systems do: the host's speed at
    this moment."""
    x, w, b = np.full((16, 64), 0.01), np.full((64, 128), 0.01), np.zeros(128)
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        counts: dict = {}
        for i in range(2500):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
        for _ in range(40):
            np.tanh(x @ w + b)
        best = min(best, perf_counter() - start)
    return best


class Gauge:
    """Probes the host's speed every ``PROBE_INTERVAL_S`` from a SIGALRM
    handler while stages run, traced or not; ``spent`` is the time the
    probes took, which ``clock`` leaves out."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        """``perf_counter`` minus the probes so far.  A probe that runs
        between the two reads makes the loop read again, so the pair is
        always consistent."""
        while True:
            spent = self.spent
            now = perf_counter()
            if self.spent == spent:
                return now - spent

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(probe_s())
        self.spent += perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def contains(tokens, needle) -> bool:
    """Whether ``needle`` occurs contiguously in ``tokens`` (the checks keep
    their own helpers rather than trusting the code they check)."""
    m = len(needle)
    return any(tuple(tokens[i:i + m]) == needle for i in range(len(tokens) - m + 1))


def stage_steps(workload, stage, cfg, part_cfgs):
    """The pipeline calls that make up one stage, with their configs."""
    smt = workload.system == "smt"
    if stage == "train":
        return [(pipeline.run_train_smt if smt else pipeline.run_train_nmt, cfg)]
    if stage == "tune":
        return [(pipeline.run_tune if smt else pipeline.run_adapt, cfg)]
    if stage == "inject":
        return [(pipeline.run_inject, c) for c in part_cfgs.values()]
    if stage == "translate":
        return [(pipeline.run_translate, c) for c in part_cfgs.values()]
    return [(pipeline.run_evaluate, cfg)]


def run_stages(workload, cfg, part_cfgs, tracer, gauge, ops, latencies):
    """Run the workload's stages; returns wall seconds per stage, the mean
    probe time during each stage and the evaluation score.  Untraced,
    per-sentence latencies are recorded during the translate stage only.
    A stage that raises ends the round: later stages need its outputs."""
    hook = (termforge.smt, "decode") if workload.system == "smt" else (termforge.nmt, "translate")
    times, probes, score = {}, {}, None
    for stage in workload.stages:
        if stage == "evaluate":  # glue: all parts' hypotheses in one file
            with open(cfg.path("evaluate.hypotheses"), "w", encoding="utf-8") as out:
                for c in part_cfgs.values():
                    with open(c.path("translate.output"), encoding="utf-8") as f:
                        out.write(f.read())
        if tracer:
            span, timing = tracer.span(f"pipeline.{stage}"), nullcontext()
        else:
            span = nullcontext()
            timing = latency_hook(*hook, latencies, gauge) if stage == "translate" else nullcontext()
        first = len(gauge.samples)
        start = gauge.clock()
        with gauge, span, timing:
            for fn, c in stage_steps(workload, stage, cfg, part_cfgs):
                try:
                    result = fn(c)
                except Exception:
                    ops.check(False, f"{stage}: {traceback.format_exc(limit=3)}")
                    return times, probes, score
                ops.check(True, stage)
        times[stage] = gauge.clock() - start
        samples = gauge.samples[first:] or [probe_s()]
        probes[stage] = sum(samples) / len(samples)
        if stage == "evaluate":
            score = result
    return times, probes, score


def check_outputs(workload, part_cfgs, inputs, ops, tracer):
    """Correctness checks; returns the term hit rate."""
    hits = total = 0
    for part, cfg in part_cfgs.items():
        key = inputs.key[part]
        in_lines = [ln for ln in read_lines(cfg.path("translate.input")) if ln.strip()]
        hyps = [tuple(ln.split()) for ln in read_lines(cfg.path("translate.output"))]
        ops.check(len(hyps) == len(in_lines), f"{part}: {len(hyps)} hypotheses for {len(in_lines)} inputs")
        for i, hyp in enumerate(hyps):
            ops.check(bool(hyp), f"{part}: empty output for input line {i + 1}")
        if workload.modes:
            for i, (line, hyp, spans) in enumerate(zip(in_lines, hyps, key)):
                annotated = termforge.smt.parse_markup(line, mode=part)
                got = [(s.start, s.end) for s in annotated.spans]
                ops.check(got == [(s, e) for s, e, _ in spans],
                          f"{part} line {i + 1}: annotated spans {got}")
                for span, (start, end, candidates) in zip(annotated.spans, spans):
                    offered = {tuple(c.tokens) for c in span.candidates}
                    ops.check(bool(offered) and offered <= set(candidates),
                              f"{part} line {i + 1}: span {start}-{end} offers {offered}")
                    if part in ("exclusive", "constraint"):
                        ops.check(
                            any(contains(hyp, c) for c in candidates),
                            f"{part} line {i + 1}: span {start}-{end} candidates missing",
                        )
            if part != "inclusive":
                continue
        for hyp, spans in zip(hyps, key):
            for _, _, candidates in spans:
                total += 1
                hits += any(contains(hyp, tuple(c)) for c in candidates)
    if tracer is not None and workload.system == "smt":
        history = tracer.values.get("align.loglik_history", [])
        ops.check(
            bool(history) and all(b >= a for a, b in zip(history, history[1:])),
            f"EM log-likelihood decreased: {history}",
        )
    return hits / total if total else 0.0


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "use_numba": _kernels.USE_NUMBA,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the env setting."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unset")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = gen.write_inputs(args.dir, scaled(workload.knobs, args.scale), args.seed,
                              workload.config())
    result = {"setup_end": time.clock_gettime(time.CLOCK_MONOTONIC)}
    result["setup_probe_s"] = statistics.median(probe_s() for _ in range(5))
    if not args.setup_only:
        result.update(measure(workload, args, inputs))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


def measure(workload, args, inputs):
    ops = Ops()
    latencies: list[float] = []
    gauge = Gauge()
    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}/{args.seed}/{args.dir}", clock=gauge.clock)
    times, probes, score, hit_rate, digests = {}, {}, None, 0.0, {}
    cfg_path = os.path.join(args.dir, "pipeline.cfg")
    cfg = load_config(cfg_path)
    part_cfgs = {
        part: load_config(cfg_path, workload.part_overrides(part))
        for part in inputs.eval_parts
    }
    try:
        if tracer is not None:
            layers.install(tracer)
        try:
            times, probes, score = run_stages(
                workload, cfg, part_cfgs, tracer, gauge, ops, latencies
            )
        finally:
            if tracer is not None:
                tracer.restore()
        if len(times) == len(workload.stages):
            hit_rate = check_outputs(workload, part_cfgs, inputs, ops, tracer)
        digests = {
            name: sha256(os.path.join(args.dir, name))
            for name in ARTIFACTS
            if os.path.exists(os.path.join(args.dir, name))
        }
    except Exception:
        ops.check(False, traceback.format_exc(limit=5))
    if tracer is not None:
        tracer.dump(os.path.join(os.path.dirname(args.out), "trace.json"))
    return {
        "stages": times,
        "probe_s": probes,
        "latencies_ms": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bleu": None if score is None else score.bleu,
        "term_hit_rate": hit_rate,
        "digests": digests,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "env": environment(),
    }


if __name__ == "__main__":
    sys.exit(main())
