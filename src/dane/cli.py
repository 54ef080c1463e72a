"""Command line entry points.

Four commands cover the whole loop on disk:

  dane generate  draw a synthetic graph pair into a data directory
  dane train     fit the embedder on a pair, write checkpoint and logs
  dane eval      transfer-evaluate a checkpoint in both directions
  dane ablate    same run with and without the adversary, plus deltas

Exit codes: 0 success, 2 unusable input (bad flags, bad config, bad data
files, sizes too large for memory), 3 training diverged to a non-finite
loss. Log verbosity comes from the DANE_LOG_LEVEL environment variable
(debug, info, warning, error).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import re
import sys
import typing

import numpy as np

from . import __version__, eval as ev
from .errors import DaneError, EmptyBlock, NonFiniteLoss, NonFiniteValue
from .graph import (
    GraphPair,
    load_graph,
    load_json,
    load_labels,
    write_edge_file,
    write_feature_file,
    write_label_file,
)
from .model import load_checkpoint, save_checkpoint
from .synth import SynthSpec, generate_pair
from .train import TrainConfig, derive_seeds, encode_pair, fit

logger = logging.getLogger(__name__)

# config key -> declared type, e.g. int, float, str or int | None
_CONFIG_TYPES = {
    **typing.get_type_hints(TrainConfig),
    **typing.get_type_hints(SynthSpec),
    "classifier_l2": float,
    "classifier_epochs": int,
    "classifier_lr": float,
}

_DATA_FILES = {
    "a": ("edges_a.tsv", "features_a.csv", "labels_a.tsv"),
    "b": ("edges_b.tsv", "features_b.csv", "labels_b.tsv"),
}


def _configure_logging() -> None:
    level_name = os.environ.get("DANE_LOG_LEVEL", "warning").lower()
    levels = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "warn": logging.WARNING,
        "error": logging.ERROR,
    }
    level = levels.get(level_name)
    if level is None:
        print(
            f"warning: DANE_LOG_LEVEL={level_name!r} not recognized, using 'warning'",
            file=sys.stderr,
        )
        level = logging.WARNING
    root = logging.getLogger("dane")
    root.setLevel(level)
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)


def _load_config(path) -> dict:
    """Strict JSON config ({} without a file): every key must be one this
    tool understands, so a typo fails loudly instead of silently running
    the defaults."""
    if not path:
        return {}
    doc = load_json(path, "config")
    if not isinstance(doc, dict):
        raise DaneError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_TYPES))
    if unknown:
        raise DaneError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key, value in doc.items():
        kinds = typing.get_args(_CONFIG_TYPES[key]) or (_CONFIG_TYPES[key],)
        if not any(_fits(value, kind) for kind in kinds):
            names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise DaneError(f"{path}: config key {key!r} must be {names}, got {value!r}")
        # an int too large for a float would size arrays and loops past any use
        if _fits(value, float) and not _finite(value):
            raise DaneError(f"{path}: config key {key!r} must be finite, got {value!r}")
    return doc


def _finite(number) -> bool:
    """Whether a JSON number is a finite float; an int too large for a
    float is not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _fits(value, kind: type) -> bool:
    """JSON value against a declared field type: an int field takes no
    float or bool, a float field takes an int but no bool."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _config_from(cls, config: dict, args):
    """A ``cls`` (TrainConfig or SynthSpec) from the loaded ``config`` and
    the flags set, flags winning; a flag's argparse dest is the config key
    it overrides. The run seed is 0 when neither sets it. A value out of
    range is named by its config key and file, or by its flag."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    values = {"seed": 0, **config, **flags}
    fields = [f.name for f in dataclasses.fields(cls)]
    try:
        return cls(**{name: values[name] for name in fields if name in values})
    except (ValueError, EmptyBlock) as exc:
        # each range rule's message names the fields it reads
        words = set(re.findall(r"\w+", str(exc)))
        named = [name for name in fields if name in words]
        from_file = [repr(name) for name in named if name in config and name not in flags]
        sources = [f"flag {args.flag_names[name]}" for name in named if name in flags]
        verb = "is" if len(from_file) + len(sources) == 1 else "are"
        if from_file:
            keys = "keys" if len(from_file) > 1 else "key"
            sources.insert(0, f"{args.config}: config {keys} {', '.join(from_file)}")
        raise DaneError(f"{' and '.join(sources)} {verb} out of range: {exc}") from exc


def _classifier_options(config: dict, path) -> dict:
    """The ``classifier_<name>`` keys the loaded ``config`` (from file
    ``path``) sets, as ``name`` keyword arguments, each checked against its
    range; :func:`eval.train_classifier` holds the defaults."""
    prefix = "classifier_"
    options = {key[len(prefix):]: value for key, value in config.items() if key.startswith(prefix)}
    for name, value in options.items():
        try:
            ev.check_classifier_option(name, value)
        except ValueError as exc:
            raise DaneError(f"{path}: config key '{prefix}{name}' is out of range: {exc}")
    return options


def _require_dir(path) -> None:
    if not os.path.isdir(path):
        raise DaneError(f"{path}: not a directory")


def _load_pair(data_dir, training: bool = False) -> GraphPair:
    """The graph pair of ``data_dir``. Training draws negatives by degree,
    so for it each graph needs an edge."""
    loaded = []
    for edges, features, _ in _DATA_FILES.values():
        edge_path = os.path.join(data_dir, edges)
        feature_path = os.path.join(data_dir, features)
        for p in (edge_path, feature_path):
            if not os.path.isfile(p):
                raise DaneError(f"{p}: missing data file")
        graph = load_graph(edge_path, feature_path)
        if training and graph.num_edges == 0:
            raise DaneError(f"{edge_path}: no edges, so every node has degree zero")
        loaded.append((graph, feature_path))
    (a, features_a), (b, features_b) = loaded
    if a.feature_dim != b.feature_dim:
        raise DaneError(
            f"{features_b}: {b.feature_dim} feature columns, but {features_a} has {a.feature_dim}"
        )
    return GraphPair(a, b)


def _load_pair_labels(data_dir, pair: GraphPair) -> tuple[ev.LabelSet, ev.LabelSet]:
    """Both graphs' labels over one vocabulary. The probe trains on each
    graph's labels in turn, so single-label files must name two classes."""
    paths, mappings = [], []
    for tag, graph in (("a", pair.source), ("b", pair.target)):
        path = os.path.join(data_dir, _DATA_FILES[tag][2])
        if not os.path.isfile(path):
            raise DaneError(f"{path}: missing label file")
        paths.append(path)
        mappings.append(load_labels(path, graph.num_nodes))
    label_sets = ev.align_label_sets(*mappings)
    for path, labels in zip(paths, label_sets):
        if not labels.multi_label and len(set(labels.assignments.values())) == 1:
            raise DaneError(f"{path}: training labels collapse to one class")
    return label_sets


def _write_embeddings(path, v: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id," + ",".join(f"e{j}" for j in range(v.shape[1])) + "\n")
        for i, row in enumerate(v):
            fh.write(f"{i}," + ",".join(repr(float(x)) for x in row) + "\n")


# --- commands -------------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = _config_from(SynthSpec, _load_config(args.config), args)
    result = generate_pair(spec)
    os.makedirs(args.out, exist_ok=True)
    for tag, graph, labels in (
        ("a", result.pair.source, result.labels_src),
        ("b", result.pair.target, result.labels_tgt),
    ):
        edges, features, label_file = _DATA_FILES[tag]
        write_edge_file(os.path.join(args.out, edges), graph)
        write_feature_file(os.path.join(args.out, features), graph)
        write_label_file(
            os.path.join(args.out, label_file),
            {i: labels.names_for(i) for i in labels.assignments},
        )
    manifest = {
        "format": "dane-synth-dir",
        "version": 1,
        "spec": dataclasses.asdict(spec),
        "num_nodes": spec.num_nodes,
        "num_edges_a": result.pair.source.num_edges,
        "num_edges_b": result.pair.target.num_edges,
    }
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(
        f"wrote pair to {args.out}: {spec.num_nodes} nodes per graph, "
        f"{result.pair.source.num_edges}/{result.pair.target.num_edges} edges"
    )
    return 0


def _fit(pair, cfg, out_dir):
    """fit, dumping the last finite model to ``out_dir`` if it diverges. The
    directory is made only when a file is written to it; a path under a
    file, where it never could be, is rejected before training."""
    parent = os.path.abspath(out_dir)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise DaneError(f"{out_dir}: cannot make this directory: {parent} is a file")
    return fit(pair, cfg, diagnostics_path=os.path.join(out_dir, "diverged.json"))


def _write_training(out_dir, cfg, result) -> None:
    """The checkpoint, embeddings and log of a finished fit."""
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(
        os.path.join(out_dir, "checkpoint.json"),
        result.encoder,
        result.discriminator,
        adv_weight=cfg.adv_weight,
        seed=cfg.seed,
        extra={"config": dataclasses.asdict(cfg)},
    )
    _write_embeddings(os.path.join(out_dir, "embeddings_a.csv"), result.embeddings_src)
    _write_embeddings(os.path.join(out_dir, "embeddings_b.csv"), result.embeddings_tgt)
    result.log.to_csv(os.path.join(out_dir, "train_log.csv"))


def cmd_train(args) -> int:
    _require_dir(args.data)
    pair = _load_pair(args.data, training=True)
    cfg = _config_from(TrainConfig, _load_config(args.config), args)
    result = _fit(pair, cfg, args.out)
    _write_training(args.out, cfg, result)
    last = result.log.records[-1] if result.log.records else None
    if last is not None:
        print(
            f"trained {cfg.epochs} epochs: final l_total {last.l_total:.6f}, "
            f"l_gcn {last.l_gcn:.6f}, l_adv {last.l_adv:.6f}"
        )
    print(f"wrote checkpoint and embeddings to {args.out}")
    return 0


def _evaluate(v_a, v_b, labels_a, labels_b, seed, classifier_options, config_path):
    """Both transfer directions plus the distribution distance of two
    embedding arrays, with the classifier stream of run seed ``seed``. A
    probe that meets NaN or Inf names the config file ``config_path`` and
    the ``classifier_*`` keys it set, if any."""
    clf_seed = derive_seeds(seed).classifier
    try:
        clf_a = ev.train_classifier(v_a, labels_a, seed=clf_seed, **classifier_options)
        report_ab = ev.evaluate_transfer(clf_a, v_b, labels_b, direction="A->B")
        clf_b = ev.train_classifier(v_b, labels_b, seed=clf_seed, **classifier_options)
        report_ba = ev.evaluate_transfer(clf_b, v_a, labels_a, direction="B->A")
    except NonFiniteValue as exc:
        if not classifier_options:
            raise
        keys = ", ".join(f"'classifier_{name}'" for name in classifier_options)
        raise DaneError(f"{config_path}: probe failed with config keys {keys}: {exc}") from exc
    return report_ab, report_ba, ev.distribution_distance(v_a, v_b)


def _write_projection(path, v_a, v_b, labels_a, labels_b) -> None:
    projected = ev.project_2d(np.vstack([v_a, v_b]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "x", "y", "graph_tag", "label"])
        row = 0
        for tag, v, labels in (("a", v_a, labels_a), ("b", v_b, labels_b)):
            for node in range(v.shape[0]):
                names = (
                    ",".join(labels.names_for(node))
                    if node in labels.assignments
                    else ""
                )
                x, y = (repr(float(c)) for c in projected[row])
                writer.writerow([node, x, y, tag, names])
                row += 1


def _write_reports(out_dir, report_ab, report_ba) -> None:
    for name, report in (("report_a2b.json", report_ab), ("report_b2a.json", report_ba)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")


def cmd_eval(args) -> int:
    _require_dir(args.data)
    pair = _load_pair(args.data)
    labels_a, labels_b = _load_pair_labels(args.data, pair)
    checkpoint = load_checkpoint(args.checkpoint)
    if args.seed is not None and args.seed != checkpoint.seed:
        raise DaneError(
            f"--seed {args.seed} differs from the run seed {checkpoint.seed} of "
            f"{args.checkpoint}; eval reads its seed from the checkpoint"
        )
    width = checkpoint.encoder.layer_dims[0]
    if width != pair.source.feature_dim:
        raise DaneError(
            f"{args.checkpoint}: encoder takes {width} feature columns, but the "
            f"graphs in {args.data} have {pair.source.feature_dim}"
        )
    options = _classifier_options(_load_config(args.config), args.config)
    v_a, v_b = encode_pair(checkpoint.encoder, pair)
    report_ab, report_ba, mmd2 = _evaluate(
        v_a, v_b, labels_a, labels_b, checkpoint.seed, options, args.config
    )
    os.makedirs(args.out, exist_ok=True)
    _write_reports(args.out, report_ab, report_ba)
    _write_projection(os.path.join(args.out, "projection.csv"), v_a, v_b, labels_a, labels_b)
    for report in (report_ab, report_ba):
        print(
            f"{report.direction}: micro_f1 {report.micro_f1:.4f} "
            f"macro_f1 {report.macro_f1:.4f} gap {report.gap:.4f}"
        )
    print(f"distribution distance (squared) {mmd2:.6f}")
    print(f"wrote reports and projection to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    _require_dir(args.data)
    pair = _load_pair(args.data, training=True)
    labels_a, labels_b = _load_pair_labels(args.data, pair)
    config = _load_config(args.config)
    cfg = _config_from(TrainConfig, config, args)
    if cfg.adv_weight == 0.0:
        raise DaneError("ablate needs a non-zero adv_weight to compare against")
    options = _classifier_options(config, args.config)
    summary = {"adv_weight": cfg.adv_weight, "seed": cfg.seed}
    # both arms are trained and evaluated before either is written, so a
    # probe that fails on the second arm leaves no first arm behind
    arms = {}
    for name, run_cfg in (
        ("adversarial", cfg),
        ("baseline", dataclasses.replace(cfg, adv_weight=0.0)),
    ):
        out_dir = os.path.join(args.out, name)
        result = _fit(pair, run_cfg, out_dir)
        arms[name] = out_dir, run_cfg, result, _evaluate(
            result.embeddings_src, result.embeddings_tgt, labels_a, labels_b,
            run_cfg.seed, options, args.config,
        )
    results = {}
    for name, (out_dir, run_cfg, result, (report_ab, report_ba, mmd2)) in arms.items():
        _write_training(out_dir, run_cfg, result)
        _write_reports(out_dir, report_ab, report_ba)
        results[name] = {
            "micro_f1": report_ab.micro_f1,
            "macro_f1": report_ab.macro_f1,
            "gap": report_ab.gap,
            "mmd2": mmd2,
        }
        print(
            f"{name}: micro_f1 {report_ab.micro_f1:.4f} "
            f"macro_f1 {report_ab.macro_f1:.4f} mmd2 {mmd2:.6f}"
        )
    summary.update(results)
    summary["delta"] = {
        key: results["adversarial"][key] - results["baseline"][key]
        for key in ("micro_f1", "macro_f1", "gap", "mmd2")
    }
    with open(os.path.join(args.out, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote ablation summary to {args.out}")
    return 0


# --- argument plumbing ------------------------------------------------------------


def _add_common_flags(sub) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, default=None, help="run seed")


def _add_train_flags(sub) -> None:
    sub.add_argument(
        "--lambda", dest="adv_weight", type=float, default=None,
        help="adversarial loss weight",
    )
    sub.add_argument("--epochs", type=int, default=None)
    sub.add_argument("--disc-steps", dest="disc_steps", type=int, default=None,
                     help="discriminator updates per encoder update")
    sub.add_argument("--dim", dest="embedding_dim", type=int, default=None,
                     help="embedding width")
    sub.add_argument("--neg-samples", dest="negative_samples", type=int, default=None,
                     help="negatives per edge")


def _flag_names(sub) -> dict:
    """argparse dest -> the flag that sets it, for each flag of ``sub``."""
    return {action.dest: action.option_strings[0] for action in sub._actions if action.option_strings}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dane",
        description="domain-adaptive node embeddings for graph pairs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic graph pair")
    _add_common_flags(p)
    p.add_argument("--divergence", type=float, default=None,
                   help="domain shift strength for the second graph")
    p.add_argument("--out", required=True, help="data directory to create")
    p.set_defaults(func=cmd_generate, flag_names=_flag_names(p))

    p = sub.add_parser("train", help="fit the embedder on a graph pair")
    _add_common_flags(p)
    _add_train_flags(p)
    p.add_argument("--data", required=True, help="data directory from generate")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train, flag_names=_flag_names(p))

    p = sub.add_parser("eval", help="transfer-evaluate a trained checkpoint")
    _add_common_flags(p)
    p.add_argument("--data", required=True, help="data directory from generate")
    p.add_argument("--checkpoint", required=True, help="checkpoint.json from train")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train with and without the adversary")
    _add_common_flags(p)
    _add_train_flags(p)
    p.add_argument("--data", required=True, help="data directory from generate")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ablate, flag_names=_flag_names(p))

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # every op output and the probe's logits are checked for NaN/Inf, so
        # numpy's floating-point warnings would only print ahead of the error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DaneError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
