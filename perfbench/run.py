"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it runs the checkout's ``src/termforge`` in fresh worker
interpreters, one per round, each in a fresh directory under
``.perfbench/``.  Rounds repeat until ``--seconds`` have been measured, and
every reported value is the median over rounds.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced rounds and
reports the per-layer metrics plus each stage's tracing overhead.  A round
whose stage raises ends the run: its failure counts in ``failed``, the
result says ``"correct": false`` and holds the metrics of the stages that
ran.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from ops import Ops  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5  # set-up-only workers per run, besides each round's own
# End-to-end times are reported at a reference host speed: each stage time
# is multiplied by REF_PROBE_S / (the mean time of the worker's ~1 ms speed
# probe, taken every 0.1 s during that stage).  On a shared host the same
# work runs up to 1.8x slower for stretches of seconds to minutes; the probe
# slows by the same factor, so the product measures the program rather
# than its neighbours.  REF_PROBE_S is the probe's time on a quiet 2-vCPU
# Xeon VM, so values read as seconds there.
REF_PROBE_S = 0.0009
MAX_ROUNDS = 40
HARD_LIMIT_S = 170.0  # the whole run, including set-up


def load_catalogue():
    with open(os.path.join(HERE, "catalogue.json"), encoding="utf-8") as f:
        return json.load(f)


def percentile(values, q):
    """Nearest-rank percentile: with 200 samples, q=95 leaves 10 above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def git_commit(root):
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown (not a git checkout)"
    return lines[1]


class Runner:
    def __init__(self, args, root, workdir, deadline):
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def spawn(self, traced=False, setup_only=False):
        """Run one worker; returns its result with ``setup_s`` added, or
        None when it crashed (its log tail goes to stderr)."""
        self.count += 1
        rdir = os.path.join(self.workdir, f"round-{self.count}")
        os.makedirs(rdir)
        out = os.path.join(rdir, "result.json")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--dir", os.path.join(rdir, "run"), "--out", out,
            "--scale", repr(self.args.scale),
        ]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
        log = os.path.join(rdir, "worker.log")
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            with open(log, "w", encoding="utf-8") as err:
                proc = subprocess.run(
                    cmd, env=self.env, stdout=err, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - time.monotonic()),
                )
            ok = proc.returncode == 0
        except subprocess.TimeoutExpired:
            ok = False
        if not ok:
            with open(log, encoding="utf-8") as f:
                sys.stderr.write(f.read()[-3000:])
            return None
        with open(out, encoding="utf-8") as f:
            result = json.load(f)
        result["setup_s"] = result["setup_end"] - start
        result["traced"] = traced
        if traced:
            with open(os.path.join(rdir, "trace.json"), encoding="utf-8") as f:
                result["trace"] = json.load(f)
        shutil.rmtree(os.path.join(rdir, "run"))
        return result


def at_reference(seconds, probe):
    """Seconds rescaled to the reference host speed (see ``REF_PROBE_S``)."""
    return seconds * REF_PROBE_S / probe


def stage_s(r, name):
    """A round's stage time at reference speed; 0 for a stage it skips."""
    if name not in r["stages"]:
        return 0.0
    return at_reference(r["stages"][name], r["probe_s"][name])


# the stage each end-to-end metric needs; a run where it failed omits them
NEEDS = {"train_s": "train", "tune_s": "tune", "translate_sents_per_s": "translate",
         "translate_ms_p50": "translate", "translate_ms_p95": "translate"}


def end_to_end(rounds, setups):
    """Medians over rounds of times rescaled by the probe taken around
    them; peak RSS is a plain median."""
    med = statistics.median

    def latency(r, q):
        return at_reference(percentile(r["latencies_ms"], q), r["probe_s"]["translate"])

    metrics = {
        "setup_s": lambda: med(at_reference(s["setup_s"], s["setup_probe_s"]) for s in setups),
        "train_s": lambda: med(stage_s(r, "train") for r in rounds),
        "tune_s": lambda: med(stage_s(r, "tune") for r in rounds),
        "translate_sents_per_s": lambda: med(
            len(r["latencies_ms"]) / stage_s(r, "translate") for r in rounds
        ),
        "translate_ms_p50": lambda: med(latency(r, 50) for r in rounds),
        "translate_ms_p95": lambda: med(latency(r, 95) for r in rounds),
        "peak_rss_mb": lambda: med(r["peak_rss_mb"] for r in rounds),
    }
    done = set.intersection(*(set(r["stages"]) for r in rounds))
    return {name: value() for name, value in metrics.items()
            if name not in NEEDS or NEEDS[name] in done}


def per_layer(rounds, catalogue, checks):
    """Medians over traced rounds, plus each stage's tracing overhead: the
    median over adjacent (traced, untraced) round pairs of the difference
    of their stage times, both at reference speed."""
    import layers

    per_round = [layers.layer_metrics(r["trace"]) for r in rounds if r["traced"]]
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if catalogue["per_layer"][name]["exact"]:
            checks.check(len(set(values)) == 1, f"exact count {name} differs between rounds: {values}")
        out[name] = statistics.median(values)
    pairs = list(zip(rounds[0::2], rounds[1::2]))
    if pairs:
        for stage in STAGES:
            out[f"pipeline.{stage}.trace_overhead_s"] = statistics.median(
                stage_s(t, stage) - stage_s(u, stage) for t, u in pairs
            )
    return out


def consistency(rounds, checks):
    """Same seed, same bytes: every round must produce identical outputs."""
    first = rounds[0]
    for r in rounds[1:]:
        checks.check(r["digests"] == first["digests"], "output digests differ between rounds")
        checks.check(
            (r["bleu"], r["term_hit_rate"]) == (first["bleu"], first["term_hit_rate"]),
            "quality differs between rounds",
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply workload sizes (the benchmark's tests use tiny ones)")
    args = ap.parse_args(argv)

    # a terminated run still kills and reaps its worker (subprocess.run does
    # that when the wait is interrupted by an exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "termforge", "pipeline.py")):
        print("perfbench: src/termforge not found; run from the repository root",
              file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".perfbench"))
    runner = Runner(args, root, workdir, time.monotonic() + HARD_LIMIT_S)
    try:
        setups = [runner.spawn(setup_only=True) for _ in range(SETUP_REPEATS)]
        stages = set(WORKLOADS[args.workload].stages)
        rounds = []
        start = time.monotonic()
        while len(rounds) < MAX_ROUNDS:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            rounds.append(runner.spawn(traced=traced))
            if rounds[-1] is None or set(rounds[-1]["stages"]) != stages:
                break  # a crash, or a failed stage that every round would repeat
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and time.monotonic() - start >= args.seconds:
                break
        if None in rounds or None in setups:
            print("perfbench: a worker failed; no result", file=sys.stderr)
            return 1
        return report(args, root, catalogue, rounds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, root, catalogue, rounds, setups):
    checks = Ops()
    consistency(rounds, checks)
    plain = [r for r in rounds if not r["traced"]]
    env = dict(rounds[0]["env"], commit=git_commit(root))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {len(rounds)} ({sum(r['traced'] for r in rounds)} traced)")
    print("env " + json.dumps(env, sort_keys=True))
    for name, digest in sorted(rounds[0]["digests"].items()):
        print(f"sha256 {digest}  {name}")
    for r in rounds:
        print("round " + ("traced   " if r["traced"] else "untraced ") + " ".join(
            f"{s}={t:.3f}s" + (f"@{r['probe_s'][s] * 1e3:.3f}ms" if r["probe_s"] else "")
            for s, t in r["stages"].items()
        ) + f" setup={r['setup_s']:.3f}s@{r['setup_probe_s'] * 1e3:.3f}ms failed={r['failed']}")
        for failure in r["failures"]:
            print("FAILED " + failure.strip().replace("\n", " | "))
    if args.trace:
        metrics = per_layer(rounds, catalogue, checks)
        kind = "per_layer"
    else:
        metrics = end_to_end(plain, setups + rounds)
        kind = "end_to_end"
        print(f"samples: {len(plain[0]['latencies_ms'])} sentences per round, "
              f"{len(plain)} rounds, {len(setups) + len(rounds)} set-ups")
    for problem in checks.failures:
        print("FAILED " + problem)
    attempted = sum(r["attempted"] for r in rounds) + checks.attempted
    failed = sum(r["failed"] for r in rounds) + checks.failed
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name in catalogue["quality"]:
        if rounds[0][name] is not None:
            print(f"{name:42s} {rounds[0][name]:16.6f} {catalogue['quality'][name]['unit']}")
    result = {}
    for name, value in metrics.items():
        unit = catalogue[kind][name]["unit"]
        print(f"{name:42s} {value:16.6f} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
