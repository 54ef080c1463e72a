"""The benchmark's workloads: what one round runs, and how it is checked.

A round is the work a user waits for: draw or write the input pair
(``setup``), train (``fit``), then transfer-evaluate (``evaluate``). Every
call into the program goes through a module attribute at call time, so the
tracer's wrappers see it when installed.

The inputs come from the run's seed alone; the program receives only the
generated pair (or data directory) and a config. ``check`` compares the
program's outputs with ``reference`` computations and with properties the
method must have; it never compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

import dane.cli
import dane.eval
import dane.synth
import dane.train

import reference


@dataclass
class Outcome:
    """What a round produced, kept for the checks and the fingerprint."""

    embeddings: tuple[np.ndarray, np.ndarray]
    log_rows: list[tuple[float, float, float, float]]
    target_macro_f1: float
    failed: int
    detail: dict


def _log_rows(log) -> list[tuple[float, float, float, float]]:
    return [(r.l_gcn, r.l_d, r.l_adv, r.l_total) for r in log.records]


class LibraryWorkload:
    """``fit`` and the transfer evaluation called in-process on a pair
    drawn by ``generate_pair``."""

    ops_per_round = 3  # setup, fit, evaluate

    def __init__(self, synth: dict, train: dict):
        self.synth = synth
        self.train = train

    def config(self, seed: int) -> dict:
        return {"synth": self.synth, "train": self.train, "seed": seed}

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def artifact_bytes(self) -> int:
        return 0  # everything stays in memory

    def describe(self, inputs) -> dict:
        return {
            "nodes": [inputs.pair.source.num_nodes, inputs.pair.target.num_nodes],
            "edges": [inputs.pair.source.num_edges, inputs.pair.target.num_edges],
        }

    def setup(self):
        return dane.synth.generate_pair(dane.synth.SynthSpec(seed=self.seed, **self.synth))

    def fit(self, inputs):
        return dane.train.fit(inputs.pair, dane.train.TrainConfig(seed=self.seed, **self.train))

    def evaluate(self, inputs, result):
        ev = dane.eval
        seed = dane.train.derive_seeds(self.seed).classifier
        v_src, v_tgt = result.embeddings_src, result.embeddings_tgt
        clf_ab = ev.train_classifier(v_src, inputs.labels_src, seed=seed)
        ab = ev.evaluate_transfer(clf_ab, v_tgt, inputs.labels_tgt, direction="A->B")
        clf_ba = ev.train_classifier(v_tgt, inputs.labels_tgt, seed=seed)
        ba = ev.evaluate_transfer(clf_ba, v_src, inputs.labels_src, direction="B->A")
        mmd2 = ev.distribution_distance(v_src, v_tgt)
        return {"classifiers": (clf_ab, clf_ba), "reports": (ab, ba), "mmd2": mmd2}

    def outcome(self, inputs, result, evaluated) -> Outcome:
        ab, ba = evaluated["reports"]
        return Outcome(
            embeddings=(result.embeddings_src, result.embeddings_tgt),
            log_rows=_log_rows(result.log),
            target_macro_f1=(ab.macro_f1 + ba.macro_f1) / 2.0,
            failed=0,
            detail={"inputs": inputs, "result": result, **evaluated},
        )

    def check(self, out: Outcome) -> list[str]:
        d = out.detail
        pair, result = d["inputs"].pair, d["result"]
        faults = []
        for tag, g, v in (("A", pair.source, out.embeddings[0]), ("B", pair.target, out.embeddings[1])):
            want = reference.encode(result.encoder.weights, g.edges, g.num_nodes, g.features)
            if not reference.close(v, want):
                faults.append(f"graph {tag}: final embeddings differ from the reference encoding")
        want = reference.mmd2(*out.embeddings)
        if not reference.close(d["mmd2"], want):
            faults.append(f"MMD² {d['mmd2']!r} differs from reference {want!r}")
        # synth orders nodes by block, so node i belongs to block i // nodes_per_block
        per_block = self.synth["nodes_per_block"]
        blocks = self.synth["num_blocks"]
        truth = np.arange(blocks * per_block) // per_block
        targets = (out.embeddings[1], out.embeddings[0])
        for clf, report, v in zip(d["classifiers"], d["reports"], targets):
            want = reference.macro_f1(truth, clf.predict(v), blocks)
            if abs(report.macro_f1 - want) > 1e-12:
                faults.append(f"{report.direction}: macro F1 {report.macro_f1!r}, recount {want!r}")
        faults += reference.loss_log_faults(out.log_rows, self.train.get("adv_weight", 1.0))
        if not out.target_macro_f1 > 1.0 / blocks:
            faults.append(f"target macro F1 {out.target_macro_f1!r} not above chance")
        return faults


class CliWorkload:
    """``dane generate``, ``dane train`` and ``dane eval`` called in-process
    through ``dane.cli.main`` on a data directory on disk."""

    ops_per_round = 3  # generate, train, eval

    def __init__(self, config: dict):
        self.cfg = config

    def config(self, seed: int) -> dict:
        return {"cli_config": self.cfg, "seed": seed}

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh, sort_keys=True)
        self.data = os.path.join(workdir, "data")
        self.run = os.path.join(workdir, "run")
        self.report = os.path.join(workdir, "report")

    def _main(self, *argv) -> tuple[int, str]:
        common = ["--config", self.config_path, "--seed", str(self.seed)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = dane.cli.main([argv[0], *common, *argv[1:]])
        return code, printed.getvalue()

    def describe(self, inputs) -> dict:
        with open(os.path.join(self.data, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        return {
            "nodes": [manifest["num_nodes"]] * 2,
            "edges": [manifest["num_edges_a"], manifest["num_edges_b"]],
        }

    def setup(self):
        shutil.rmtree(self.data, ignore_errors=True)
        return self._main("generate", "--out", self.data)

    def fit(self, inputs):
        shutil.rmtree(self.run, ignore_errors=True)
        return self._main("train", "--data", self.data, "--out", self.run)

    def evaluate(self, inputs, result):
        shutil.rmtree(self.report, ignore_errors=True)
        checkpoint = os.path.join(self.run, "checkpoint.json")
        return self._main(
            "eval", "--data", self.data, "--checkpoint", checkpoint, "--out", self.report
        )

    def artifact_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(root, f))
            for sub in (self.data, self.run, self.report)
            for root, _, files in os.walk(sub)
            for f in files
        )

    def outcome(self, inputs, result, evaluated) -> Outcome:
        codes = {"generate": inputs[0], "train": result[0], "eval": evaluated[0]}
        failed = sum(code != 0 for code in codes.values())
        if failed:
            return Outcome((), [], 0.0, failed, {"exit_codes": codes})
        v = tuple(
            np.loadtxt(os.path.join(self.run, f"embeddings_{t}.csv"), delimiter=",", skiprows=1)[:, 1:]
            for t in ("a", "b")
        )
        log = np.loadtxt(os.path.join(self.run, "train_log.csv"), delimiter=",", skiprows=1, ndmin=2)
        reports = []
        for name in ("report_a2b.json", "report_b2a.json"):
            with open(os.path.join(self.report, name), encoding="utf-8") as fh:
                reports.append(json.load(fh))
        # An eval whose projection.csv cannot be read back as numbers has
        # failed, whatever its exit code: cli._write_projection writes
        # repr(np.float64), which numpy 2 renders as "np.float64(...)".
        try:
            projection = np.loadtxt(
                os.path.join(self.report, "projection.csv"), delimiter=",", skiprows=1,
                usecols=(1, 2), ndmin=2,
            )
        except ValueError:
            projection = None
            failed += 1
        return Outcome(
            embeddings=v,
            log_rows=[tuple(row[1:5]) for row in log],
            target_macro_f1=(reports[0]["macro_f1"] + reports[1]["macro_f1"]) / 2.0,
            failed=failed,
            detail={
                "exit_codes": codes,
                "reports": reports,
                "eval_stdout": evaluated[1],
                "projection": projection,
            },
        )

    def _read_graph(self, tag: str):
        edges = np.loadtxt(os.path.join(self.data, f"edges_{tag}.tsv"), dtype=np.int64, ndmin=2)
        table = np.loadtxt(os.path.join(self.data, f"features_{tag}.csv"), delimiter=",", ndmin=2)
        if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
            raise ValueError(f"features_{tag}.csv rows are not in node order")
        labels = {}
        with open(os.path.join(self.data, f"labels_{tag}.tsv"), encoding="utf-8") as fh:
            for line in fh:
                node, name = line.rstrip("\n").split("\t")
                labels[int(node)] = name
        return edges, table[:, 1:], labels

    def check(self, out: Outcome) -> list[str]:
        if any(out.detail["exit_codes"].values()):
            return [f"exit codes {out.detail['exit_codes']}"]
        faults = []
        with open(os.path.join(self.run, "checkpoint.json"), encoding="utf-8") as fh:
            weights = json.load(fh)["encoder"]["weights"]
        graphs = [self._read_graph(t) for t in ("a", "b")]
        for tag, (edges, features, _), v in zip("AB", graphs, out.embeddings):
            want = reference.encode(weights, edges, features.shape[0], features)
            if not reference.close(v, want):
                faults.append(f"graph {tag}: written embeddings differ from the reference encoding")
        # the CLI prints MMD² with six decimals
        want = reference.mmd2(*out.embeddings)
        printed = [
            float(line.rsplit(" ", 1)[1])
            for line in out.detail["eval_stdout"].splitlines()
            if line.startswith("distribution distance (squared)")
        ]
        if len(printed) != 1 or abs(printed[0] - want) > 5e-7 + 1e-9:
            faults.append(f"printed MMD² {printed} differs from reference {want!r}")
        # refit the program's classifier on the written embeddings, then
        # recount F1 from its predictions
        names = sorted({n for _, _, labels in graphs for n in labels.values()})
        sets, truths = [], []
        for _, _, labels in graphs:
            nodes = sorted(labels)
            sets.append(
                dane.eval.LabelSet(names, {i: (names.index(labels[i]),) for i in nodes}, False)
            )
            truths.append((np.array(nodes), np.array([names.index(labels[i]) for i in nodes])))
        seed = dane.train.derive_seeds(self.seed).classifier
        options = {
            "l2": self.cfg.get("classifier_l2", 1e-3),
            "epochs": self.cfg.get("classifier_epochs", 200),
            "lr": self.cfg.get("classifier_lr", 0.1),
        }
        for src, tgt, report in ((0, 1, out.detail["reports"][0]), (1, 0, out.detail["reports"][1])):
            clf = dane.eval.train_classifier(out.embeddings[src], sets[src], seed=seed, **options)
            nodes, truth = truths[tgt]
            want = reference.macro_f1(truth, clf.predict(out.embeddings[tgt][nodes]), len(names))
            if abs(report["macro_f1"] - want) > 1e-12:
                faults.append(f"{report['direction']}: macro F1 {report['macro_f1']!r}, recount {want!r}")
        projection = out.detail["projection"]
        rows = sum(v.shape[0] for v in out.embeddings)
        if projection is not None and (
            projection.shape != (rows, 2) or not reference.close(projection.mean(axis=0), np.zeros(2))
        ):
            faults.append("projection.csv is not a centred two-column projection of every node")
        faults += reference.loss_log_faults(out.log_rows, self.cfg.get("adv_weight", 1.0))
        if not out.target_macro_f1 > 1.0 / len(names):
            faults.append(f"target macro F1 {out.target_macro_f1!r} not above chance")
        return faults


# The acceptance configuration of the test suite: 3-block SBM pair, 300 + 300
# nodes, 16 features, divergence 0.3; embedding_dim 32, 120 epochs, edge
# batches of 256. About 1,800 small steps per fit, so per-op tape overhead
# and the per-minibatch loss snapshot dominate.
_ACCEPTANCE_SYNTH = dict(
    num_blocks=3, nodes_per_block=100, p_in=0.15, p_out=0.02, feature_dim=16,
    noise_sigma=1.0, divergence=0.3, center_scale=0.3,
)
_ACCEPTANCE_TRAIN = dict(
    embedding_dim=32, epochs=120, encoder_lr=3e-3, disc_lr=1e-3,
    edge_batch_size=256, disc_hidden_layers=1,
)

# 3,000 + 3,000 nodes, mean degree about 14 (15 on the shifted graph), full
# batch: edge-loss gathers and scatters over ~10^5 rows dominate the fit,
# and both O(n²) steps (the dense edge draw, the pooled MMD kernel) are large. Divergence
# 0.1 keeps transfer F1 near its ceiling; at 0.3, 30 full-batch epochs gave
# 0.55 to 0.70 depending on the seed, too wide to compare runs by.
_LARGE_SYNTH = dict(
    num_blocks=3, nodes_per_block=1000, p_in=0.012, p_out=0.001, feature_dim=16,
    noise_sigma=1.0, divergence=0.1, center_scale=1.0,
)
_LARGE_TRAIN = dict(embedding_dim=32, epochs=30, encoder_lr=3e-3, disc_lr=1e-3, disc_hidden_layers=1)

# 1,200 + 1,200 nodes, 32 features, 3 encoder layers, 5 discriminator steps
# per round against a 2-hidden-layer discriminator: discriminator work is as
# large as the encoder's, and every file reader and writer runs. Divergence
# and centre scale set for steady transfer F1, as for large_fullbatch (at
# 0.3 and 0.3 it ranged from 0.34 to 0.99 over five seeds).
_CLI = dict(
    num_blocks=3, nodes_per_block=400, p_in=0.03, p_out=0.004, feature_dim=32,
    noise_sigma=1.0, divergence=0.1, center_scale=1.0,
    embedding_dim=32, num_layers=3, disc_steps=5, disc_hidden_layers=2,
    edge_batch_size=1024, epochs=15, encoder_lr=3e-3, disc_lr=1e-3,
)


def build(name: str, small: bool = False):
    """The named workload; ``small`` shrinks it to a few seconds for tests."""
    if name == "acceptance":
        synth, train = dict(_ACCEPTANCE_SYNTH), dict(_ACCEPTANCE_TRAIN)
        if small:
            synth.update(nodes_per_block=30)
            train.update(epochs=8, edge_batch_size=64)
        return LibraryWorkload(synth, train)
    if name == "large_fullbatch":
        synth, train = dict(_LARGE_SYNTH), dict(_LARGE_TRAIN)
        if small:
            synth.update(nodes_per_block=100, p_in=0.08, p_out=0.01)
            train.update(epochs=6)
        return LibraryWorkload(synth, train)
    if name == "cli_pipeline":
        cfg = dict(_CLI)
        if small:
            cfg.update(
                nodes_per_block=50, p_in=0.2, p_out=0.03, epochs=5, edge_batch_size=64,
            )
        return CliWorkload(cfg)
    raise KeyError(name)


NAMES = ("acceptance", "large_fullbatch", "cli_pipeline")
