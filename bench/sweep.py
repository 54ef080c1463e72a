"""Node-count sweep: where the O(n²) steps stop fitting in memory.

    python3 bench/sweep.py

A reference run, not a benchmark workload. It draws the large_fullbatch pair
(mean degree kept near 13) at 300 nodes per graph and upward by factors of
√2, each size in a fresh process so its peak RSS is its own, and records
set-up time, fit time per epoch, evaluation time and peak RSS after each
phase. Two steps hold dense n x n float64 matrices:

  synth._sample_graph         one uniform draw per graph: 2 * 8 n² bytes
  eval.distribution_distance  the pooled kernel: 8 (2n)² bytes

The sweep stops before the sum of the two would exceed RAM_SHARE of the
machine's RAM, and reports, for each step, the node count at which that
matrix alone would fill the RAM. Results go to ``.bench_runs/sweep.json``
and a table to standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_runs", "sweep.json")
START_NODES = 300  # per graph
EPOCHS = 2
# Peak RSS ran at about four times the two matrices (1.7 GB against 0.43 GB
# at 3,000 nodes per graph), and the machine may be shared: stop while the
# matrices are within an eighth of RAM.
RAM_SHARE = 1 / 8


def dense_draw_bytes(n: int) -> int:
    return 2 * 8 * n * n


def mmd_kernel_bytes(n: int) -> int:
    return 8 * (2 * n) ** 2


def _ram_bytes() -> int:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemTotal not found in /proc/meminfo")


def _sizes():
    k = 0
    while True:
        # three equal blocks
        yield 3 * round(START_NODES * 2 ** (k / 2) / 3)
        k += 1


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(n: int) -> dict:
    """One size, in this process."""
    sys.path.insert(0, HERE)
    import run

    run.limit_blas_threads()
    run.fix_mmap_threshold()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dane.eval as ev
    import dane.synth
    import dane.train

    import workloads

    per_block = n // 3
    large = workloads.build("large_fullbatch")
    synth = dict(large.synth, nodes_per_block=per_block)
    # keep the expected degree of the 1,000-node blocks
    synth["p_in"] = min(synth["p_in"] * 1000 / per_block, 1.0)
    synth["p_out"] = min(synth["p_out"] * 1000 / per_block, synth["p_in"] / 2)
    train = dict(large.train, epochs=EPOCHS)
    row = {"nodes_per_graph": n, "blas_threads": run.BLAS_THREADS}
    t0 = time.perf_counter()
    pair = dane.synth.generate_pair(dane.synth.SynthSpec(seed=1, **synth))
    t1 = time.perf_counter()
    row.update(setup_s=t1 - t0, rss_after_setup_mb=_rss_mb())
    row["edges"] = [pair.pair.source.num_edges, pair.pair.target.num_edges]
    result = dane.train.fit(pair.pair, dane.train.TrainConfig(seed=1, **train))
    t2 = time.perf_counter()
    row.update(fit_s_per_epoch=(t2 - t1) / EPOCHS, rss_after_fit_mb=_rss_mb())
    v_a, v_b = result.embeddings_src, result.embeddings_tgt
    seed = dane.train.derive_seeds(1).classifier
    ev.evaluate_transfer(ev.train_classifier(v_a, pair.labels_src, seed=seed), v_b, pair.labels_tgt)
    ev.evaluate_transfer(ev.train_classifier(v_b, pair.labels_tgt, seed=seed), v_a, pair.labels_src)
    t3 = time.perf_counter()
    ev.distribution_distance(v_a, v_b)
    t4 = time.perf_counter()
    row.update(
        eval_s=t4 - t2,
        distribution_distance_s=t4 - t3,
        peak_rss_mb=_rss_mb(),
        dense_draw_bytes=dense_draw_bytes(n),
        mmd_kernel_bytes=mmd_kernel_bytes(n),
    )
    return row


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)  # one size, in a child
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.one)))
        return 0

    ram = _ram_bytes()
    budget = RAM_SHARE * ram
    rows = []
    print(f"RAM {ram / 2**30:.1f} GiB; budget for the two dense matrices {budget / 2**30:.2f} GiB")
    print("nodes  edges(a)  setup_s  fit_s/epoch  eval_s  mmd_s  rss_setup  rss_fit  peak_rss  dense+kernel")
    for n in _sizes():
        if dense_draw_bytes(n) + mmd_kernel_bytes(n) > budget:
            stopped_at = n
            break
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", str(n)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(
            f"{n:5d}  {row['edges'][0]:8d}  {row['setup_s']:7.3f}  {row['fit_s_per_epoch']:11.3f}"
            f"  {row['eval_s']:6.3f}  {row['distribution_distance_s']:5.3f}"
            f"  {row['rss_after_setup_mb']:7.0f}MB  {row['rss_after_fit_mb']:5.0f}MB"
            f"  {row['peak_rss_mb']:6.0f}MB  {(row['dense_draw_bytes'] + row['mmd_kernel_bytes']) / 2**20:8.0f}MiB",
            flush=True,
        )
    walls = {
        "synth._sample_graph": math.isqrt(ram // (2 * 8)),
        "eval.distribution_distance": math.isqrt(ram // (8 * 4)),
    }
    print(f"stopped before {stopped_at} nodes per graph")
    for step, n in walls.items():
        print(f"{step}: its dense matrices alone fill the RAM at about {n} nodes per graph")
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(
            {"ram_bytes": ram, "ram_share": RAM_SHARE, "epochs": EPOCHS,
             "rows": rows, "stopped_before_nodes": stopped_at, "ram_walls_nodes": walls},
            fh, indent=1,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
