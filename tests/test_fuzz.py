"""Corrupted inputs end in exit 0 or 2: never in exit 3 (divergence) and
never in an exception out of ``main``. Exit 2's ``error:`` line names one of
the paths on the command line.

Hypothesis mutates a trained checkpoint's JSON, the six data files of a
generated 30-node pair and a training config, then runs the CLI in
process. The search is derandomized, so every run of the suite tries the
same 40 inputs per test.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dane.cli import main

DATA_FILES = (
    "edges_a.tsv", "features_a.csv", "labels_a.tsv",
    "edges_b.tsv", "features_b.csv", "labels_b.tsv",
)
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)
JSON_VALUES = [
    None, True, -1, 0, 1, 2.5, 1e308, -1e308, float("nan"), "x", "", [], {},
    [[]], [[1.0]], [[0.5, -0.5], [1.0]], {"x": 1},
]
FIELD_VALUES = ["-1", "nan", "999", "x", ""]
# every training key, each in range and small
TRAIN_CONFIG = dict(
    seed=3, embedding_dim=6, num_layers=2, negative_samples=2, adv_weight=1.0, disc_steps=1,
    epochs=1, encoder_lr=1e-3, disc_lr=1e-3, edge_batch_size=16, disc_hidden_layers=1,
)
# wrong types and out-of-range values; an in-range extreme such as a
# learning rate of 1e308 may rightly diverge (exit 3), so none is drawn
CONFIG_VALUES = [
    None, True, False, -1, 0, 2.5, -1e308, float("nan"), float("inf"), "x", "", "1", [], {},
    [1], {"x": 1}, 10**400,
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A generated pair, a 1-epoch training config and its checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    data_config = root / "data.json"
    data_config.write_text(json.dumps(dict(
        num_blocks=2, nodes_per_block=15, p_in=0.3, p_out=0.05, feature_dim=4, noise_sigma=0.5,
    )))
    train_config = root / "train.json"
    train_config.write_text(json.dumps(dict(embedding_dim=6, epochs=1, negative_samples=2)))
    data, run = root / "data", root / "run"
    assert main(["generate", "--config", str(data_config), "--seed", "1", "--out", str(data)]) == 0
    assert main(["train", "--config", str(train_config), "--data", str(data),
                 "--out", str(run), "--seed", "2"]) == 0
    return data, train_config, run / "checkpoint.json"


def _main(*argv) -> int:
    """``main``'s exit code on ``argv``, whose ``Path`` items are the paths
    on the command line. On exit 2, every ``error:`` line on stderr must
    name one of them."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    if code == 2:
        paths = [str(arg) for arg in argv if isinstance(arg, Path)]
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        assert errors, stderr.getvalue()
        for line in errors:
            assert any(path in line for path in paths), line
    return code


def _eval(data, checkpoint, out) -> int:
    return _main("eval", "--data", data, "--checkpoint", checkpoint, "--out", out)


@st.composite
def key_paths(draw, doc):
    """A path of keys and list indices into ``doc`` that stops after each
    level when a drawn boolean is true, so top-level keys are drawn about as
    often as deep ones, though the weight lists hold most of the keys."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
        if draw(st.booleans()):
            break
    return path


@FUZZ
@given(data=st.data())
def test_a_corrupted_checkpoint_is_bad_input_or_usable(trained, data):
    data_dir, _, checkpoint = trained
    doc = json.loads(checkpoint.read_text())
    path = data.draw(key_paths(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        corrupted = Path(tmp) / "checkpoint.json"
        corrupted.write_text(json.dumps(doc))
        assert _eval(data_dir, corrupted, Path(tmp) / "evaluation") in (0, 2)


mutations = st.tuples(
    st.sampled_from(DATA_FILES),
    st.integers(min_value=0, max_value=10**6),  # line, modulo the line count
    st.sampled_from(["drop", "duplicate", "truncate", "field"]),
    st.integers(min_value=0, max_value=10**6),  # cut position or field, modulo its range
    st.sampled_from(FIELD_VALUES),
)


def _mutate(lines: list[str], line: int, action: str, where: int, value: str) -> None:
    i = line % len(lines)
    if action == "drop":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    elif action == "truncate":
        lines[i] = lines[i][: where % (len(lines[i]) + 1)]
    else:
        sep = "\t" if "\t" in lines[i] else ","
        fields = lines[i].split(sep)
        fields[where % len(fields)] = value
        lines[i] = sep.join(fields)


@FUZZ
@given(changes=st.lists(mutations, min_size=1, max_size=3),
       command=st.sampled_from(["train", "eval"]))
def test_corrupted_data_files_are_bad_input_or_usable(trained, changes, command):
    data_dir, train_config, checkpoint = trained
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(data_dir, data)
        for name, *change in changes:
            lines = (data / name).read_text().splitlines()
            if lines:
                _mutate(lines, *change)
            (data / name).write_text("".join(f"{text}\n" for text in lines))
        if command == "train":
            code = _main("train", "--config", train_config, "--data", data,
                         "--out", Path(tmp) / "run")
        else:
            code = _eval(data, checkpoint, Path(tmp) / "evaluation")
        assert code in (0, 2)


@FUZZ
@given(key=st.sampled_from(sorted(TRAIN_CONFIG)), delete=st.booleans(),
       value=st.sampled_from(CONFIG_VALUES))
def test_a_corrupted_training_config_is_bad_input_or_usable(trained, key, delete, value):
    data_dir = trained[0]
    config = dict(TRAIN_CONFIG)
    if delete:
        del config[key]
    else:
        config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train.json"
        path.write_text(json.dumps(config))
        assert _main("train", "--config", path, "--data", data_dir,
                     "--out", Path(tmp) / "run") in (0, 2)
