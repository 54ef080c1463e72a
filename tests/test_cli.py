import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dane import cli
from dane.cli import main
from dane.eval import TransferReport, distribution_distance
from dane.graph import GraphPair, load_graph
from dane.model import load_checkpoint
from dane.train import TrainConfig, fit


@pytest.fixture(autouse=True)
def clean_log_env(monkeypatch):
    monkeypatch.delenv("DANE_LOG_LEVEL", raising=False)


def write_config(path, **values):
    path.write_text(json.dumps(values))
    return str(path)


def tiny_data_config(tmp_path, **extra):
    values = dict(
        num_blocks=2,
        nodes_per_block=15,
        p_in=0.3,
        p_out=0.05,
        feature_dim=4,
        noise_sigma=0.5,
    )
    values.update(extra)
    return write_config(tmp_path / "data.json", **values)


def tiny_train_config(tmp_path, **extra):
    values = dict(embedding_dim=6, epochs=3, negative_samples=2)
    values.update(extra)
    return write_config(tmp_path / "train.json", **values)


def generate_tiny(tmp_path, seed=0):
    data = tmp_path / "data"
    code = main(
        ["generate", "--config", tiny_data_config(tmp_path), "--seed", str(seed),
         "--out", str(data)]
    )
    assert code == 0
    return data


def main_without_warnings(argv):
    """``main(argv)``, failing if it let a numpy RuntimeWarning through:
    every op output and the probe's logits are checked, so the error line
    says it all."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return code


# --- argument handling ---------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["generate", "--frobnicate"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "dane" in capsys.readouterr().out


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path / "c.json", epochz=5)
    code = main(["generate", "--config", config, "--out", str(tmp_path / "d")])
    assert code == 2
    assert "epochz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("epochs", 2.5),
        ("epochs", True),
        ("embedding_dim", "8"),
        ("edge_batch_size", 2.0),
        ("adv_weight", "1"),
        ("p_in", False),
        ("classifier_epochs", 1.5),
    ],
)
def test_config_value_of_wrong_type_is_rejected(tmp_path, capsys, key, value):
    config = write_config(tmp_path / "c.json", **{key: value})
    code = main(["generate", "--config", config, "--out", str(tmp_path / "d")])
    assert code == 2
    err = capsys.readouterr().err
    assert "c.json" in err and repr(key) in err
    assert "Traceback" not in err


def test_optimizer_key_is_unknown(tmp_path, capsys):
    # Adam is the only update rule, so there is nothing to choose
    config = tiny_train_config(tmp_path, optimizer="adam")
    data = generate_tiny(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--config", config, "--data", str(data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown config keys: optimizer" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "encoder_lr", math.nan),
        ("train", "adv_weight", math.inf),
        ("train", "disc_lr", -math.inf),
        ("generate", "divergence", math.nan),
        ("generate", "noise_sigma", math.nan),
        ("generate", "center_scale", math.inf),
        ("eval", "classifier_l2", math.nan),
        # an int too large for a float, given for a float-typed key
        pytest.param("train", "adv_weight", 10**400, id="train-adv_weight-1e400"),
        pytest.param("train", "encoder_lr", 10**400, id="train-encoder_lr-1e400"),
        pytest.param("train", "disc_lr", -(10**400), id="train-disc_lr--1e400"),
        pytest.param("generate", "noise_sigma", 10**400, id="generate-noise_sigma-1e400"),
        pytest.param("eval", "classifier_l2", 10**400, id="eval-classifier_l2-1e400"),
        # and for an int-typed key, which would size an array or a loop:
        # numpy's error named no file, or the run never ended
        pytest.param("train", "negative_samples", 10**400, id="train-negative_samples-1e400"),
        pytest.param("train", "embedding_dim", 10**400, id="train-embedding_dim-1e400"),
        pytest.param("train", "epochs", 10**400, id="train-epochs-1e400"),
        pytest.param("eval", "classifier_epochs", 10**400, id="eval-classifier_epochs-1e400"),
    ],
)
def test_non_finite_config_value_is_bad_input_not_divergence(
    tmp_path, capsys, command, key, value
):
    # JSON NaN and Infinity slip past a range check written as x < 0
    out = tmp_path / "out"
    if command == "train":
        data = generate_tiny(tmp_path)
        config = tiny_train_config(tmp_path, **{key: value})
        argv = ["train", "--config", config, "--data", str(data), "--out", str(out)]
    elif command == "eval":
        data, run = trained_tiny(tmp_path)
        config = write_config(tmp_path / "eval.json", **{key: value})
        argv = ["eval", "--config", config, "--data", str(data),
                "--checkpoint", str(run / "checkpoint.json"), "--out", str(out)]
    else:
        config = tiny_data_config(tmp_path, **{key: value})
        argv = ["generate", "--config", config, "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{config}: config key {key!r} must be finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, key",
    [("train", "--lambda", "nan", "adv_weight"), ("generate", "--divergence", "inf", "divergence")],
)
def test_non_finite_flag_is_bad_input(tmp_path, capsys, command, flag, value, key):
    out = tmp_path / "out"
    argv = [command, flag, value, "--out", str(out)]
    if command == "train":
        argv += ["--data", str(generate_tiny(tmp_path)), "--config", tiny_train_config(tmp_path)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err and "Traceback" not in err
    assert not out.exists()


def test_config_with_a_repeated_key_is_rejected(tmp_path, capsys):
    # the last value used to win silently: this would train 4 epochs
    data = generate_tiny(tmp_path)
    config = tmp_path / "train.json"
    config.write_text('{"embedding_dim": 6, "epochs": 3, "epochs": 4}')
    out = tmp_path / "run"
    code = main(["train", "--config", str(config), "--data", str(data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{config}: config repeats the key 'epochs'" in err and "Traceback" not in err
    assert not out.exists()


def test_config_float_field_takes_an_int(tmp_path, capsys):
    # and an int-or-null field takes null
    config = tiny_data_config(tmp_path, noise_sigma=1, edge_batch_size=None)
    assert main(["generate", "--config", config, "--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()


def test_malformed_config_is_rejected(tmp_path, capsys):
    bad = tmp_path / "c.json"
    argv = ["generate", "--config", str(bad), "--out", str(tmp_path / "d")]
    bad.write_text('{\n  "epochs": 3,\n  not json\n}\n')
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3: config is not valid JSON" in err and "Traceback" not in err
    bad.write_bytes(b'{"epochs": 3, "optimizer": "\xff"}\n')
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: config is not UTF-8 text" in err and "Traceback" not in err
    # Python converts a JSON integer of at most 4,300 digits
    bad.write_text('{"noise_sigma": 1' + "0" * 5000 + "}")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: config holds a value that cannot be read" in err and "Traceback" not in err


def test_non_object_config_is_rejected(tmp_path, capsys):
    bad = tmp_path / "c.json"
    bad.write_text("[1, 2]")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2
    capsys.readouterr()


def test_bad_log_level_warns_but_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DANE_LOG_LEVEL", "loud")
    data = tmp_path / "d"
    assert main(["generate", "--config", tiny_data_config(tmp_path), "--out", str(data)]) == 0
    assert "DANE_LOG_LEVEL" in capsys.readouterr().err


# --- generate --------------------------------------------------------------------


def test_generate_writes_complete_directory(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    names = sorted(p.name for p in data.iterdir())
    assert names == [
        "edges_a.tsv", "edges_b.tsv", "features_a.csv", "features_b.csv",
        "labels_a.tsv", "labels_b.tsv", "manifest.json",
    ]
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["num_nodes"] == 30
    assert manifest["spec"]["num_blocks"] == 2
    g = load_graph(data / "edges_a.tsv", data / "features_a.csv")
    assert g.num_nodes == 30 and g.feature_dim == 4
    assert "wrote pair" in capsys.readouterr().out


def test_generate_is_deterministic_on_disk(tmp_path, capsys):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    config = tiny_data_config(tmp_path)
    assert main(["generate", "--config", config, "--seed", "5", "--out", str(d1)]) == 0
    assert main(["generate", "--config", config, "--seed", "5", "--out", str(d2)]) == 0
    for name in ("edges_a.tsv", "features_a.csv", "edges_b.tsv", "features_b.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    capsys.readouterr()


def test_generate_rejects_empty_blocks_naming_the_field(tmp_path, capsys):
    config = tiny_data_config(tmp_path, nodes_per_block=0)
    assert main(["generate", "--config", config, "--out", str(tmp_path / "d")]) == 2
    assert "nodes_per_block" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, values, keys, rule",
    [
        ("train", {"epochs": -1}, ["epochs"], "epochs must be non-negative"),
        # the keys in range are not named
        ("train", {"embedding_dim": 6, "encoder_lr": 0}, ["encoder_lr"], "encoder_lr must be finite"),
        ("generate", {"p_in": 0.01, "p_out": 0.02}, ["p_in", "p_out"], "need 0 <= p_out < p_in <= 1"),
        ("generate", {"num_blocks": 1}, ["num_blocks"], "num_blocks must be at least 2"),
        ("train", {"seed": -1}, ["seed"], "seed must be non-negative"),
        ("generate", {"seed": -1}, ["seed"], "seed must be non-negative"),
    ],
    ids=["epochs", "encoder_lr", "p_in-p_out", "num_blocks", "train-seed", "generate-seed"],
)
def test_out_of_range_config_value_names_its_file_and_keys(tmp_path, capsys, command, values, keys, rule):
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path / "t.json", **values), "--out", str(out)]
    if command == "train":
        argv += ["--data", str(generate_tiny(tmp_path))]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    noun, verb = ("keys", "are") if len(keys) > 1 else ("key", "is")
    named = ", ".join(repr(key) for key in keys)
    assert f"error: {tmp_path / 't.json'}: config {noun} {named} {verb} out of range: " in err
    assert rule in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, rule",
    [
        ("train", "--epochs", "-1", "epochs must be non-negative"),
        ("train", "--dim", "0", "embedding_dim must be positive"),
        ("generate", "--divergence", "-1", "divergence"),
    ],
)
def test_out_of_range_flag_is_named(tmp_path, capsys, command, flag, value, rule):
    # the config sets the same key in range: the flag's value is at fault
    out = tmp_path / "out"
    if command == "train":
        config = tiny_train_config(tmp_path)
        argv = ["train", "--data", str(generate_tiny(tmp_path))]
    else:
        config = tiny_data_config(tmp_path, divergence=0.2)
        argv = ["generate"]
    capsys.readouterr()
    assert main(argv + ["--config", config, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: flag {flag} is out of range: " in err and rule in err
    assert config not in err and "Traceback" not in err
    assert not out.exists()


# --- train -----------------------------------------------------------------------


def test_train_writes_checkpoint_embeddings_and_log(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    out = tmp_path / "run"
    code = main(
        ["train", "--config", tiny_train_config(tmp_path), "--data", str(data),
         "--out", str(out), "--seed", "1"]
    )
    assert code == 0
    assert {p.name for p in out.iterdir()} == {
        "checkpoint.json", "embeddings_a.csv", "embeddings_b.csv", "train_log.csv",
    }
    ckpt = load_checkpoint(out / "checkpoint.json")
    assert ckpt.seed == 1
    assert ckpt.encoder.output_dim == 6
    lines = (out / "train_log.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,l_gcn,l_d,l_adv,l_total,mean_score_src,mean_score_tgt"
    assert len(lines) == 4  # header + 3 epochs
    emb = (out / "embeddings_a.csv").read_text().strip().split("\n")
    assert emb[0] == "node_id," + ",".join(f"e{j}" for j in range(6))
    assert len(emb) == 31
    assert "trained 3 epochs" in capsys.readouterr().out


def load_tiny_pair(data):
    return GraphPair(
        *(load_graph(data / f"edges_{t}.tsv", data / f"features_{t}.csv") for t in "ab")
    )


def read_embeddings(path):
    lines = path.read_text().strip().split("\n")[1:]
    return np.array([[float(x) for x in line.split(",")[1:]] for line in lines])


def test_train_writes_the_model_fit_returns(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    out = tmp_path / "run"
    config = tiny_train_config(tmp_path, epochs=8, encoder_lr=0.05)
    assert main(["train", "--config", config, "--data", str(data), "--out", str(out),
                 "--seed", "1"]) == 0
    result = fit(load_tiny_pair(data), TrainConfig(
        seed=1, embedding_dim=6, epochs=8, negative_samples=2, encoder_lr=0.05
    ))
    # the last epoch is not the lowest-loss one, so only the final model matches
    totals = [r.l_total for r in result.log.records]
    assert min(totals) < totals[-1]
    ckpt = load_checkpoint(out / "checkpoint.json")
    assert set(ckpt.extra) == {"config"}
    for written, trained in zip(ckpt.encoder.weights, result.encoder.weights):
        assert written.tobytes() == trained.tobytes()
    for written, trained in zip(ckpt.discriminator.arrays(), result.discriminator.arrays()):
        assert written.tobytes() == trained.tobytes()
    assert read_embeddings(out / "embeddings_a.csv").tobytes() == result.embeddings_src.tobytes()
    assert read_embeddings(out / "embeddings_b.csv").tobytes() == result.embeddings_tgt.tobytes()
    final = result.log.records[-1].l_total
    assert f"final l_total {final:.6f}" in capsys.readouterr().out


# each size makes the first array of its run need more than 128 PiB, which
# no machine can allocate, so the allocation fails at once
@pytest.mark.parametrize(
    "command, key, value",
    [("train", "embedding_dim", 10**16), ("generate", "nodes_per_block", 10**16)],
)
def test_a_size_too_large_for_memory_is_bad_input(tmp_path, capsys, command, key, value):
    if command == "train":
        args = ["train", "--config", tiny_train_config(tmp_path, **{key: value}),
                "--data", str(generate_tiny(tmp_path))]
    else:
        args = ["generate", "--config", tiny_data_config(tmp_path, **{key: value})]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_an_out_that_cannot_be_a_directory_fails_before_training(
    tmp_path, capsys, monkeypatch, command, under
):
    data = generate_tiny(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: pytest.fail("trained"))
    out = blocker / "run" if under else blocker
    code = main([command, "--config", tiny_train_config(tmp_path), "--data", str(data),
                 "--out", str(out)])
    assert code == 2
    assert f"{blocker} is a file" in capsys.readouterr().err


def test_train_missing_data_dir(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


def test_train_flags_override_config(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    config = tiny_train_config(tmp_path, adv_weight=1.0)
    out = tmp_path / "run"
    code = main(
        ["train", "--config", config, "--lambda", "0.25", "--epochs", "2",
         "--data", str(data), "--out", str(out)]
    )
    assert code == 0
    ckpt = load_checkpoint(out / "checkpoint.json")
    assert ckpt.adv_weight == 0.25
    assert ckpt.extra["config"]["epochs"] == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag, key, in_config, on_flag",
    [
        ("train", "--seed", "seed", 1, 7),
        ("train", "--lambda", "adv_weight", 1.0, 0.25),
        ("train", "--epochs", "epochs", 3, 2),
        ("train", "--disc-steps", "disc_steps", 1, 2),
        ("train", "--dim", "embedding_dim", 6, 5),
        ("train", "--neg-samples", "negative_samples", 2, 3),
        ("generate", "--seed", "seed", 1, 7),
        ("generate", "--divergence", "divergence", 0.0, 0.5),
    ],
)
def test_flag_wins_over_its_config_key(tmp_path, capsys, command, flag, key, in_config, on_flag):
    out = tmp_path / "out"
    if command == "generate":
        config = tiny_data_config(tmp_path, **{key: in_config})
        assert main(["generate", "--config", config, flag, str(on_flag), "--out", str(out)]) == 0
        stored = json.loads((out / "manifest.json").read_text())["spec"]
    else:
        data = generate_tiny(tmp_path)
        config = tiny_train_config(tmp_path, **{key: in_config})
        assert main(["train", "--config", config, flag, str(on_flag), "--data", str(data),
                     "--out", str(out)]) == 0
        stored = load_checkpoint(out / "checkpoint.json").extra["config"]
    assert stored[key] == on_flag
    capsys.readouterr()


def test_train_is_deterministic_on_disk(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    config = tiny_train_config(tmp_path)
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    for out in (o1, o2):
        assert main(["train", "--config", config, "--data", str(data),
                     "--out", str(out), "--seed", "3"]) == 0
    assert (o1 / "embeddings_a.csv").read_bytes() == (o2 / "embeddings_a.csv").read_bytes()
    assert (o1 / "embeddings_b.csv").read_bytes() == (o2 / "embeddings_b.csv").read_bytes()
    capsys.readouterr()


def test_diverged_training_exits_3_and_dumps(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    # Adam steps by about lr whatever the gradient; at 1e50 this pair stays finite
    config = tiny_train_config(tmp_path, encoder_lr=1e100, disc_lr=1e100, epochs=40)
    out = tmp_path / "run"
    code = main_without_warnings(
        ["train", "--config", config, "--data", str(data), "--out", str(out)]
    )
    assert code == 3
    assert (out / "diverged.json").exists()
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "1e309"])
def test_non_finite_feature_is_bad_input_not_divergence(tmp_path, capsys, value):
    data = generate_tiny(tmp_path)
    features = data / "features_a.csv"
    lines = features.read_text().split("\n")
    lines[0] = lines[0].rsplit(",", 1)[0] + "," + value
    features.write_text("\n".join(lines))
    out = tmp_path / "run"
    code = main(["train", "--config", tiny_train_config(tmp_path), "--data", str(data),
                 "--out", str(out)])
    assert code == 2
    assert not (out / "diverged.json").exists()
    err = capsys.readouterr().err
    assert "features_a.csv:1" in err and "Traceback" not in err


def test_data_line_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    edges = data / "edges_a.tsv"
    line = edges.read_bytes().count(b"\n") + 1
    with open(edges, "ab") as fh:
        fh.write(b"0\t\xff\n")
    code = main(["train", "--config", tiny_train_config(tmp_path), "--data", str(data),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"edges_a.tsv:{line}: not UTF-8 text" in err and "Traceback" not in err


# --- eval ------------------------------------------------------------------------


def trained_tiny(tmp_path, **train_extra):
    data = generate_tiny(tmp_path)
    out = tmp_path / "run"
    code = main(
        ["train", "--config", tiny_train_config(tmp_path, **train_extra),
         "--data", str(data), "--out", str(out), "--seed", "2"]
    )
    assert code == 0
    return data, out


def test_eval_writes_reports_and_projection(tmp_path, capsys):
    data, run = trained_tiny(tmp_path)
    out = tmp_path / "evaluation"
    code = main(
        ["eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.json"),
         "--out", str(out)]
    )
    assert code == 0
    report = TransferReport.from_json((out / "report_a2b.json").read_text())
    assert report.direction == "A->B"
    assert report.gap == report.l_tgt - report.l_src
    back = TransferReport.from_json((out / "report_b2a.json").read_text())
    assert back.direction == "B->A"
    lines = (out / "projection.csv").read_text().strip().split("\n")
    assert lines[0] == "node_id,x,y,graph_tag,label"
    assert len(lines) == 1 + 60  # both graphs pooled
    assert lines[1].split(",")[3] == "a"
    assert lines[-1].split(",")[3] == "b"
    for line in lines[1:]:
        _, x, y = line.split(",")[:3]
        assert math.isfinite(float(x)) and math.isfinite(float(y))
    output = capsys.readouterr().out
    assert "A->B" in output and "B->A" in output


def test_eval_is_deterministic(tmp_path, capsys):
    data, run = trained_tiny(tmp_path)
    o1, o2 = tmp_path / "e1", tmp_path / "e2"
    for out in (o1, o2):
        assert main(["eval", "--data", str(data),
                     "--checkpoint", str(run / "checkpoint.json"),
                     "--out", str(out)]) == 0
    assert (o1 / "report_a2b.json").read_bytes() == (o2 / "report_a2b.json").read_bytes()
    assert (o1 / "projection.csv").read_bytes() == (o2 / "projection.csv").read_bytes()
    capsys.readouterr()


def test_eval_rejects_label_outside_its_graph(tmp_path, capsys):
    data, run = trained_tiny(tmp_path)
    with open(data / "labels_a.tsv", "a") as fh:
        fh.write("999\tc0\n")
    code = main(["eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.json"),
                 "--out", str(tmp_path / "evaluation")])
    assert code == 2
    err = capsys.readouterr().err
    assert "labels_a.tsv" in err and "node 999" in err
    assert "Traceback" not in err


def _first_line_only(path):
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _drop_last_column(path):
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines()))


@pytest.mark.parametrize(
    "command, name, damage, message",
    [
        ("train", "edges_a.tsv", lambda p: p.write_text(""), "every node has degree zero"),
        ("eval", "labels_b.tsv", _first_line_only, "training labels collapse to one class"),
        ("train", "features_b.csv", _drop_last_column, "3 feature columns, but"),
    ],
    ids=["empty-edges", "one-label-line", "short-feature-rows"],
)
def test_unusable_data_file_is_named(tmp_path, capsys, command, name, damage, message):
    data, run = trained_tiny(tmp_path)
    damage(data / name)
    out = ["--out", str(tmp_path / "again")]
    if command == "train":
        code = main(["train", "--config", tiny_train_config(tmp_path), "--data", str(data), *out])
    else:
        code = main(["eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.json"), *out])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{data / name}: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("encoder.weights", None, "checkpoint has no 'encoder.weights'"),
        ("seed", None, "checkpoint has no 'seed'"),
        ("extra", [], "'extra' is not a JSON object"),
    ],
    ids=["no-encoder-weights", "no-seed", "extra-not-object"],
)
def test_eval_rejects_unusable_checkpoint(tmp_path, capsys, key, value, message):
    data, run = trained_tiny(tmp_path)
    path = run / "checkpoint.json"
    doc = json.loads(path.read_text())
    *parents, last = key.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if value is None:
        del node[last]
    else:
        node[last] = value
    path.write_text(json.dumps(doc))
    code = main(["eval", "--data", str(data), "--checkpoint", str(path),
                 "--out", str(tmp_path / "evaluation")])
    assert code == 2
    err = capsys.readouterr().err
    assert "checkpoint.json" in err and message in err
    assert "Traceback" not in err


def _eval_error(tmp_path, capsys, data, path):
    code = main(["eval", "--data", str(data), "--checkpoint", str(path),
                 "--out", str(tmp_path / "evaluation")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "damage", ["truncate", "binary", "long-seed"], ids=["truncated-json", "not-utf8", "long-integer"]
)
def test_eval_names_the_checkpoint_it_cannot_parse(tmp_path, capsys, damage):
    data, run = trained_tiny(tmp_path)
    path = run / "checkpoint.json"
    if damage == "binary":
        path.write_bytes(b"\xff\xfe{}")
        assert f"{path}: checkpoint is not UTF-8 text" in _eval_error(tmp_path, capsys, data, path)
        return
    if damage == "long-seed":
        # the run seed, the last key, with 5,000 digits
        head, seed, tail = path.read_text().rpartition('"seed": 2')
        assert seed and tail.strip() == "}"
        path.write_text(head + seed + "0" * 5000 + tail)
        err = _eval_error(tmp_path, capsys, data, path)
        assert f"{path}: checkpoint holds a value that cannot be read" in err
        return
    text = json.dumps(json.loads(path.read_text()), indent=1)
    path.write_text(text[: len(text) // 2])
    with pytest.raises(json.JSONDecodeError) as bad:
        json.loads(path.read_text())
    assert bad.value.lineno > 1
    err = _eval_error(tmp_path, capsys, data, path)
    assert f"{path}:{bad.value.lineno}: checkpoint is not valid JSON" in err


def test_eval_rejects_a_checkpoint_with_a_repeated_key(tmp_path, capsys):
    data, run = trained_tiny(tmp_path)
    path = run / "checkpoint.json"
    path.write_text('{"adv_weight": 0.0, ' + path.read_text()[1:])
    err = _eval_error(tmp_path, capsys, data, path)
    assert f"{path}: checkpoint repeats the key 'adv_weight'" in err


def _pop(key, index):
    def mutate(doc):
        doc[key]["weights"][index].pop()
    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.update(format_version=99), "unsupported checkpoint format_version 99"),
        (lambda doc: doc["encoder"].update(layer_dims=[4, 7]),
         "encoder.layer_dims [4, 7] do not match its weights"),
        (lambda doc: doc["encoder"]["weights"][0][0].__setitem__(0, "x"),
         "encoder.weights[0] is not a rectangular list of numbers"),
        (lambda doc: doc["encoder"]["weights"][0][1].pop(),
         "encoder.weights[0] is not a rectangular list of numbers"),
        (_pop("discriminator", 0), "discriminator takes 5 inputs, but the encoder gives 6"),
        (_pop("discriminator", 1),
         "discriminator: consecutive layers disagree: (6, 6) then (5, 6)"),
        (lambda doc: doc["discriminator"]["biases"][0][0].pop(),
         "discriminator: bias (1, 5) does not fit weights (6, 6)"),
        (lambda doc: doc["discriminator"]["biases"].pop(),
         "discriminator: one bias row per weight matrix"),
        (lambda doc: doc.update(adv_weight="high"), "adv_weight 'high' is not a number"),
        (lambda doc: doc.update(seed=1.5), "seed 1.5 is not an integer"),
        (lambda doc: doc.update(seed=-1), "seed -1 is negative"),
    ],
    ids=[
        "format-version", "encoder-dims", "non-numeric-weight", "ragged-weights",
        "discriminator-input-width", "discriminator-layers", "discriminator-bias",
        "discriminator-bias-count", "adv-weight", "seed", "negative-seed",
    ],
)
def test_eval_names_the_inconsistent_checkpoint(tmp_path, capsys, mutate, message):
    data, run = trained_tiny(tmp_path)
    path = run / "checkpoint.json"
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    err = _eval_error(tmp_path, capsys, data, path)
    assert f"{path}: " in err and message in err


def test_eval_rejects_checkpoint_of_another_feature_width(tmp_path, capsys):
    _, run = trained_tiny(tmp_path)
    wider = tmp_path / "wider"
    config = tiny_data_config(tmp_path, feature_dim=5)
    assert main(["generate", "--config", config, "--out", str(wider)]) == 0
    path = run / "checkpoint.json"
    code = main(["eval", "--data", str(wider), "--checkpoint", str(path),
                 "--out", str(tmp_path / "evaluation")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "takes 4 feature columns" in err and "have 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, message",
    [("classifier_epochs", -3, "epochs must be non-negative"),
     ("classifier_lr", 0, "lr must be positive")],
)
def test_eval_rejects_out_of_range_classifier_option(tmp_path, capsys, key, value, message):
    data, run = trained_tiny(tmp_path)
    out = tmp_path / "evaluation"
    config = write_config(tmp_path / "eval.json", **{key: value})
    code = main(["eval", "--config", config, "--data", str(data),
                 "--checkpoint", str(run / "checkpoint.json"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert config in err and repr(key) in err
    assert not out.exists()


def test_eval_rejects_a_probe_that_overflows(tmp_path, capsys):
    data, run = trained_tiny(tmp_path)
    out = tmp_path / "evaluation"
    config = write_config(tmp_path / "eval.json", classifier_lr=1e300)
    code = main_without_warnings(["eval", "--config", config, "--data", str(data),
                                  "--checkpoint", str(run / "checkpoint.json"),
                                  "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "NaN or Inf" in err and "Traceback" not in err
    assert f"{config}: probe failed with config keys 'classifier_lr': " in err
    assert not out.exists()


def test_eval_rejects_a_seed_other_than_the_checkpoints(tmp_path, capsys):
    data, run = trained_tiny(tmp_path)
    out = tmp_path / "evaluation"
    code = main(["eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.json"),
                 "--out", str(out), "--seed", "99"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--seed 99 differs from the run seed 2 of" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_accepts_the_checkpoints_own_seed(tmp_path, capsys):
    data, run = trained_tiny(tmp_path)
    reports = []
    for name, seed_flag in (("e1", []), ("e2", ["--seed", "2"])):
        out = tmp_path / name
        assert main(["eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.json"),
                     "--out", str(out), *seed_flag]) == 0
        reports.append((out / "report_a2b.json").read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_eval_missing_checkpoint(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    code = main(["eval", "--data", str(data), "--checkpoint",
                 str(tmp_path / "nope.json"), "--out", str(tmp_path / "e")])
    assert code == 2
    capsys.readouterr()


# --- ablate ----------------------------------------------------------------------


def test_ablate_runs_both_arms_and_reports_deltas(tmp_path, capsys, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("ablate evaluates the embeddings fit returned")

    monkeypatch.setattr("dane.cli.load_checkpoint", unused)
    monkeypatch.setattr("dane.cli.encode_pair", unused)
    data = generate_tiny(tmp_path)
    out = tmp_path / "ablation"
    code = main(
        ["ablate", "--config", tiny_train_config(tmp_path, epochs=2),
         "--data", str(data), "--out", str(out), "--seed", "4"]
    )
    assert code == 0
    summary = json.loads((out / "ablation.json").read_text())
    assert set(summary) >= {"adversarial", "baseline", "delta", "adv_weight", "seed"}
    for arm in ("adversarial", "baseline"):
        assert (out / arm / "checkpoint.json").exists()
        assert (out / arm / "report_a2b.json").exists()
        assert {"micro_f1", "macro_f1", "gap", "mmd2"} <= set(summary[arm])
    np.testing.assert_allclose(
        summary["delta"]["macro_f1"],
        summary["adversarial"]["macro_f1"] - summary["baseline"]["macro_f1"],
        rtol=1e-15,
    )
    ck_adv = load_checkpoint(out / "adversarial" / "checkpoint.json")
    ck_base = load_checkpoint(out / "baseline" / "checkpoint.json")
    assert ck_adv.adv_weight == 1.0
    assert ck_base.adv_weight == 0.0
    assert ck_adv.seed == ck_base.seed == 4
    # the arms differ in adv_weight alone
    assert ck_base.extra["config"] == {**ck_adv.extra["config"], "adv_weight": 0.0}
    result = fit(
        load_tiny_pair(data), TrainConfig(seed=4, embedding_dim=6, epochs=2, negative_samples=2)
    )
    assert summary["adversarial"]["mmd2"] == distribution_distance(
        result.embeddings_src, result.embeddings_tgt
    )
    capsys.readouterr()


def test_ablate_checks_classifier_options_before_training(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    out = tmp_path / "ablation"
    config = tiny_train_config(tmp_path, classifier_epochs=-3)
    code = main(["ablate", "--config", config, "--data", str(data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert config in err and "'classifier_epochs'" in err and "Traceback" not in err
    assert not out.exists()


def test_ablate_rejects_a_probe_that_overflows_before_writing(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    out = tmp_path / "ablation"
    config = tiny_train_config(tmp_path, classifier_lr=1e300, classifier_epochs=5)
    code = main_without_warnings(
        ["ablate", "--config", config, "--data", str(data), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "NaN or Inf" in err and "Traceback" not in err
    assert f"{config}: probe failed with config keys 'classifier_lr', 'classifier_epochs': " in err
    # each arm's directory holds its divergence dump if it has one, so it
    # is made before training; nothing is written into either
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_ablate_rejects_zero_lambda(tmp_path, capsys):
    data = generate_tiny(tmp_path)
    code = main(["ablate", "--lambda", "0", "--data", str(data),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    capsys.readouterr()


# --- real processes --------------------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "command, contents",
    [
        ("train", b'{"adv_weight": 1' + b"0" * 5000 + b"}"),
        ("eval", b'{"seed": 1' + b"0" * 5000 + b"}"),
        ("train", b'{"epochs": 3, "optimizer": "\xff"}'),
        ("eval", b'{"format_version": 1, "encoder": {"layer_dims": [4, 6], "wei'),
    ],
    ids=["long-integer-config", "long-integer-seed", "not-utf8-config", "truncated-checkpoint"],
)
def test_bad_input_ends_a_real_process_with_one_error_line(tmp_path, capsys, command, contents):
    # `python -m dane.cli` as a user runs it: exit 2, one line naming the
    # file, and no traceback on stderr
    data = generate_tiny(tmp_path)
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_bytes(contents)
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", "--config", str(bad), "--data", str(data), "--out", out]
    else:
        argv = ["eval", "--data", str(data), "--checkpoint", str(bad), "--out", out]
    proc = subprocess.run(
        [sys.executable, "-m", "dane.cli", *argv],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}"), proc.stderr
