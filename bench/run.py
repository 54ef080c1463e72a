"""Benchmark of dane: training, transfer evaluation and the CLI.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory. One run repeats whole rounds (set-up, fit, evaluation) of one
workload until the next would end past ``--seconds``, always at least one,
checks the outputs of the last round against reference computations, and
prints one JSON record as the last and only line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with no tracing; with ``--trace 1`` they are the per-layer ones,
taken from spans recorded in traced rounds that alternate with untraced
ones, so the tracing overhead is measured too. Everything else a run
produces (timings of every round, ``output_sha256``, the check results, the
spans) goes to ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_runs")

# Extra samples of the two short phases, on top of the one in every round:
# set-up takes 10 ms at the acceptance size and evaluation 0.1 s, and one
# sample of either varied by 15-25% from run to run. Each is sampled at
# least MIN_SAMPLES times, then on until SAMPLE_BUDGET_S is spent on it or
# MAX_SAMPLES are taken, and reported as the median of all its samples.
MIN_SAMPLES, MAX_SAMPLES, SAMPLE_BUDGET_S = 5, 25, 2.0

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "target_macro_f1": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--small", action="store_true",
        help="shrink the workload to a few seconds (for the benchmark's own tests)",
    )
    return p.parse_args(argv)


# One BLAS thread, which is within the CPUs of any machine. The matrices are
# narrow (tens of columns), so a second thread did not shorten a fit, and on
# two threads peak RSS of one seed varied by 8% from run to run.
BLAS_THREADS = 1


def limit_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


# glibc serves allocations below its mmap threshold from the heap, and by
# default raises that threshold, up to 32 MiB, each time it frees a larger
# mapped block. When it gets there depends on the order arrays are freed, so
# peak RSS of large_fullbatch spread by 15% over five seeds. Fixed at the
# 32 MiB it climbs to anyway, fit time was unchanged and the spread over ten
# seeds fell to 1-7%.
MMAP_THRESHOLD = 32 << 20
M_MMAP_THRESHOLD = -3  # mallopt parameter number, from glibc's malloc.h


def fix_mmap_threshold() -> bool:
    """Returns False where the C library is not glibc."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))
    except (OSError, AttributeError):
        return False


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dane", "__init__.py")):
        raise ImportError(f"no dane package under {src}")
    sys.path.insert(0, src)
    import dane

    if not os.path.abspath(dane.__file__).startswith(src + os.sep):
        raise ImportError(f"dane imported from {dane.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Times rounds of one workload, optionally traced."""

    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.eval_s: list[float] = []
        self.rounds: list[dict] = []
        self.attempted = 0

    @staticmethod
    def samples(fn, *args) -> list[float]:
        """Timing samples only: they are not counted as attempted
        operations, so the failed share of a run does not depend on how
        many samples or rounds it made."""
        out: list[float] = []
        while len(out) < MIN_SAMPLES or (
            len(out) < MAX_SAMPLES and sum(out) < SAMPLE_BUDGET_S
        ):
            started = time.perf_counter()
            fn(*args)
            out.append(time.perf_counter() - started)
        return out

    def round(self, traced: bool):
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            marks = [time.perf_counter()]
            inputs = self._phase(tracer, "setup", self.w.setup)
            marks.append(time.perf_counter())
            result = self._phase(tracer, "fit", self.w.fit, inputs)
            marks.append(time.perf_counter())
            evaluated = self._phase(tracer, "eval", self.w.evaluate, inputs, result)
            marks.append(time.perf_counter())
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += self.w.ops_per_round
        self.setup_s.append(marks[1] - marks[0])
        self.eval_s.append(marks[3] - marks[2])
        self.last = (inputs, result)
        times = {
            "traced": traced,
            "setup_s": marks[1] - marks[0],
            "fit_s": marks[2] - marks[1],
            "eval_s": marks[3] - marks[2],
            "total_s": marks[3] - marks[0],
        }
        self.rounds.append(times)
        return self.w.outcome(inputs, result, evaluated)

    @staticmethod
    def _phase(tracer, name, fn, *args):
        if tracer is None:
            return fn(*args)
        with tracer.span(f"phase.{name}"):
            return fn(*args)

    def median(self, key: str, traced: bool) -> float:
        return statistics.median(r[key] for r in self.rounds if r["traced"] == traced)


def _run(args) -> tuple[dict, dict]:
    import reference
    import spans
    import workloads

    workload = workloads.build(args.workload, small=args.small)
    tag = f"{args.workload}{'-small' if args.small else ''}-s{args.seed}"
    workload.prepare(args.seed, os.path.join(OUT_DIR, tag))
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(workload, tracer)

    if not args.trace:
        runner.setup_s += runner.samples(workload.setup)
    # Collect what the samples left, so the rounds start from the same
    # collector state however many samples were taken (their number depends
    # on the machine's speed): where the cyclic collector runs inside a fit
    # decides how many dead step tapes are still resident at its peak.
    gc.collect()
    started = time.perf_counter()
    outcomes = []
    # A traced run makes untraced and traced rounds in the order U T T U, so
    # that neither kind gains from coming later in the process; it repeats
    # whole cycles of the pattern, as an untraced run repeats rounds.
    pattern = (False, True, True, False) if args.trace else (False,)
    while True:
        outcomes.append(runner.round(pattern[len(runner.rounds) % len(pattern)]))
        done = len(runner.rounds)
        elapsed = time.perf_counter() - started
        if done % len(pattern) == 0 and elapsed * (done + len(pattern)) / done > args.seconds:
            break
    peak_rss = _peak_rss_mb()
    if not args.trace:
        runner.eval_s += runner.samples(workload.evaluate, *runner.last)

    last = outcomes[-1]
    failed = sum(o.failed for o in outcomes)
    faults = workload.check(last)
    fingerprints = sorted({reference.output_sha256(o.embeddings, o.log_rows) for o in outcomes})
    if len(fingerprints) != 1:
        faults.append(f"rounds of one run disagree: {fingerprints}")

    if args.trace:
        metrics = _per_layer(runner, tracer, workload, outcomes)
        tracer.write(os.path.join(OUT_DIR, f"{tag}-spans.npz"))
    else:
        metrics = {
            "setup_s": statistics.median(runner.setup_s),
            "fit_s": runner.median("fit_s", False),
            "eval_s": statistics.median(runner.eval_s),
            "total_s": runner.median("total_s", False),
            "peak_rss_mb": peak_rss,
            "target_macro_f1": last.target_macro_f1,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    record = {
        "correct": not faults,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "small": args.small,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "config": workload.config(args.seed),
        "inputs": workload.describe(runner.last[0]),
        "output_sha256": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
        "faults": faults,
        "setup_s": runner.setup_s,
        "eval_s": runner.eval_s,
        "rounds": runner.rounds,
        "peak_rss_mb": peak_rss,
        "record": record,
    }
    return record, detail


def _per_layer(runner, tracer, workload, outcomes) -> dict:
    s = tracer.summary()
    counts = tracer.counts

    def incl(*names):
        return sum(s[n]["inclusive_s"] for n in names if n in s)

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def layer_self(prefix):
        return sum(v["self_s"] for n, v in s.items() if n.startswith(prefix + "."))

    compute_ops = sum(
        v["calls"] for n, v in s.items() if n.startswith("compute.") and n != "compute.backward"
    )
    epochs = len(outcomes[-1].log_rows)
    snapshots = calls("train.evaluate_losses")
    traced_total = runner.median("total_s", True)
    untraced_total = runner.median("total_s", False)
    values = {
        "compute.ops": (compute_ops, "count"),
        "compute.backward_s": (incl("compute.backward"), "s"),
        "compute.spmm_s": (incl("compute.spmm"), "s"),
        "compute.spmm_flops": (counts.get("compute.spmm_flops", 0), "flop"),
        "compute.matmul_s": (incl("compute.matmul"), "s"),
        "compute.matmul_flops": (counts.get("compute.matmul_flops", 0), "flop"),
        "compute.gather_rows_s": (incl("compute.gather_rows"), "s"),
        "compute.gather_rows_rows": (counts.get("compute.gather_rows_rows", 0), "count"),
        "compute.self_s": (layer_self("compute"), "s"),
        "graph.build_propagation_s": (incl("graph.build_propagation"), "s"),
        "graph.negative_draws": (counts.get("graph.negative_draws", 0), "count"),
        "graph.load_s": (incl("graph.load_graph", "graph.load_labels"), "s"),
        "graph.write_s": (
            incl("graph.write_edge_file", "graph.write_feature_file", "graph.write_label_file"),
            "s",
        ),
        "graph.self_s": (layer_self("graph"), "s"),
        "synth.generate_pair_s": (incl("synth.generate_pair"), "s"),
        "synth.dense_draw_bytes": (counts.get("synth.dense_draw_bytes", 0), "bytes"),
        "synth.self_s": (layer_self("synth"), "s"),
        "model.encode_s": (incl("model.encode"), "s"),
        "model.encode_calls": (calls("model.encode"), "count"),
        "model.edge_loss_s": (incl("model.edge_loss"), "s"),
        "model.discriminator_forward_s": (incl("model.discriminator_forward"), "s"),
        "model.checkpoint_s": (incl("model.save_checkpoint", "model.load_checkpoint"), "s"),
        "model.self_s": (layer_self("model"), "s"),
        "train.discriminator_round_s": (incl("train.discriminator_round"), "s"),
        "train.discriminator_round_calls": (calls("train.discriminator_round"), "count"),
        "train.encoder_round_s": (incl("train.encoder_round"), "s"),
        "train.apply_update_s": (incl("train.apply_update"), "s"),
        "train.evaluate_losses_s": (incl("train.evaluate_losses"), "s"),
        "train.evaluate_losses_calls": (snapshots, "count"),
        "train.snapshot_useful_ratio": (epochs / snapshots if snapshots else 0.0, "ratio"),
        "train.sample_edge_batch_s": (incl("model.sample_edge_batch"), "s"),
        "train.fit_self_s": (s["train.fit"]["self_s"] if "train.fit" in s else 0.0, "s"),
        "train.self_s": (layer_self("train"), "s"),
        "eval.train_classifier_s": (incl("eval.train_classifier"), "s"),
        "eval.distribution_distance_s": (incl("eval.distribution_distance"), "s"),
        "eval.mmd_kernel_bytes": (counts.get("eval.mmd_kernel_bytes", 0), "bytes"),
        "eval.project_2d_s": (incl("eval.project_2d"), "s"),
        "eval.self_s": (layer_self("eval"), "s"),
        "cli.artifact_bytes": (workload.artifact_bytes(), "bytes"),
        "cli.self_s": (layer_self("cli"), "s"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.traced_total_s": (traced_total, "s"),
        "trace.untraced_total_s": (untraced_total, "s"),
        "trace.overhead_ratio": (traced_total / untraced_total, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    # Standard output carries the record alone: anything the program or a
    # library prints, at Python or C level, goes to standard error instead.
    sys.stdout.flush()
    record_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    limit_blas_threads()
    mmap_fixed = fix_mmap_threshold()
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    record, detail = _run(args)
    detail["mmap_threshold_fixed"] = mmap_fixed
    tag = f"{args.workload}{'-small' if args.small else ''}-s{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
        fh.write("\n")
    if detail["faults"]:
        print("check failures:\n  " + "\n  ".join(detail["faults"]), file=sys.stderr)
    with os.fdopen(record_fd, "w") as out:
        out.write(json.dumps(record) + "\n")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
