"""Span tracing of the program from outside it.

``Tracer.install`` replaces every public function of the program's modules,
and a few public methods that do a layer's work, with a wrapper that records
one span per call: name, start, end and the span that was open when the call
began. Every module's reference to the function is replaced, so calls made
through ``from .x import f`` names and through dispatch tables are seen too.
``uninstall`` puts the originals back, so an untraced round runs the
program's own functions with no wrapper in between.

Spans are kept in flat in-memory arrays while the program runs and written
out in one file at the end; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "dane"
MODULES = ("compute", "graph", "synth", "model", "train", "eval", "cli")

# Public methods that do a layer's work; other methods are accessors.
METHODS = (
    ("graph", "NegativeSampler", "sample"),
    ("train", "TrainLog", "to_csv"),
)


def _rows_cols(x) -> tuple[int, int]:
    data = getattr(x, "data", x)
    return np.shape(data)


# Work counted at a call, from its arguments and result: name -> fn(args,
# kwargs, result) -> {counter: amount}.
def _spmm(a, k, out):
    return {"compute.spmm_flops": 2 * a[0].matrix.nnz * out.cols}


def _matmul(a, k, out):
    return {"compute.matmul_flops": 2 * out.rows * _rows_cols(a[0])[1] * out.cols}


def _gather_rows(a, k, out):
    return {"compute.gather_rows_rows": out.rows}


def _sample(a, k, out):
    return {"graph.negative_draws": len(out)}


def _generate_pair(a, k, out):
    # _sample_graph draws one dense n x n float64 uniform matrix per graph
    n = out.spec.num_nodes
    return {"synth.dense_draw_bytes": 2 * 8 * n * n}


def _distribution_distance(a, k, out):
    # the pooled (na + nb)^2 float64 kernel matrix
    n = _rows_cols(a[0])[0] + _rows_cols(a[1])[0]
    return {"eval.mmd_kernel_bytes": 8 * n * n}


COUNTERS = {
    "compute.spmm": _spmm,
    "compute.matmul": _matmul,
    "compute.gather_rows": _gather_rows,
    "graph.NegativeSampler.sample": _sample,
    "synth.generate_pair": _generate_pair,
    "eval.distribution_distance": _distribution_distance,
}


class Tracer:
    """Records spans of the program's calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no open span of the same name
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._open = [0] * len(self.names)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        nid = self._id(name)
        idx = self._enter(nid)
        try:
            yield
        finally:
            self._exit(idx, nid)

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(self._open[nid] == 0)
        self._open[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open[nid] -= 1

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        count = COUNTERS.get(name)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(idx, nid)
            if count is not None:
                for key, amount in count(args, kwargs, out).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {
            key.rsplit(".", 1)[-1]: mod
            for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        }
        wrappers = {}
        for short in MODULES:
            mod = mods[short]
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = vars(cls)[meth]
            self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
        # every reference to a wrapped function, in any of the package's
        # module namespaces and in module-level dispatch tables
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._set(value, key, wrappers[item])

    def _set(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key], True))
            target[key] = value
        else:
            self._patches.append((target, key, vars(target)[key], False))
            setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outermost": np.frombuffer(self.outermost, dtype=np.int8).astype(bool),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only, so
        a recursive call is not counted twice) and self seconds (duration
        minus the part its child spans cover)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        inclusive = np.bincount(
            a["name"], weights=np.where(a["outermost"], dur, 0.0), minlength=k
        )
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "inclusive_s": float(inclusive[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }
