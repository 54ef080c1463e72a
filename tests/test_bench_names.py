"""The span names the benchmark reads name code that the tracer wraps.

``bench/run.py`` computes its per-layer metrics from spans named
``<module>.<function>``, and ``bench/spans.py`` wraps every public function
of the listed ``dane`` modules plus a few listed methods. A metric whose
name matches no wrapped function reads 0 without any error, so this reads
both files, without importing or changing them, and checks every name they
use against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _parse(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _assignment(tree: ast.Module, target: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return node.value
    raise LookupError(f"no module-level {target} in bench/spans.py")


def _per_layer_names() -> set[str]:
    """The names passed to ``incl(...)`` and ``calls(...)`` in ``_per_layer``,
    and the span keys it looks up in the summary ``s`` directly."""
    tree = _parse("run.py")
    fn = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_per_layer"
    )
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("incl", "calls"):
            for arg in node.args:
                assert isinstance(arg, ast.Constant), ast.unparse(node)
                names.add(arg.value)
        elif (
            isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) == "s"
            and isinstance(node.slice, ast.Constant)
        ):
            names.add(node.slice.value)
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and [getattr(c, "id", None) for c in node.comparators] == ["s"]
        ):
            names.add(node.left.value)
    return names


SPANS = _parse("spans.py")
MODULES = ast.literal_eval(_assignment(SPANS, "MODULES"))
METHODS = ast.literal_eval(_assignment(SPANS, "METHODS"))
COUNTERS = [key.value for key in _assignment(SPANS, "COUNTERS").keys]
NAMES = sorted(
    _per_layer_names() | set(COUNTERS) | {".".join(entry) for entry in METHODS}
)


def test_the_benchmark_sources_name_the_layers_they_read():
    # guards the parsing above: an empty list would pass every case below
    assert {"train.fit", "model.encode", "compute.backward"} <= set(NAMES)
    assert len(NAMES) >= 25


@pytest.mark.parametrize("name", NAMES)
def test_each_span_name_the_benchmark_reads_is_traced(name):
    short, _, rest = name.partition(".")
    assert short in MODULES
    module = importlib.import_module(f"dane.{short}")
    if "." in rest:
        cls_name, meth = rest.split(".")
        assert (short, cls_name, meth) in METHODS
        assert inspect.isfunction(vars(getattr(module, cls_name)).get(meth))
    else:
        fn = vars(module).get(rest)
        assert not rest.startswith("_")
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__
