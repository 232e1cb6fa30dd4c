"""Outside-in layer tracing: wrappers installed on rotbell's public callables.

The wrappers are installed from the benchmark's side, on every module global
that refers to a traced callable, so the by-name imports in ``rotbell.cli``,
``rotbell.witness`` and ``rotbell.oracle`` are traced as well.  Dataclass
validation is traced by wrapping ``__post_init__`` on the class.

Each call records a span ``[name, start, end, parent, op]`` in memory; the
spans are written out by the caller when the run ends.  A layer's self time
is its span's duration minus the durations of its direct children, so the
self times of one op sum to the duration of its root span, ``cli.main``.
That sum is an identity, not a measurement; what the run reports instead is
``trace.layers_pct``, the share of the traced command time spent below
``cli.main`` in the named layers.  It falls when untraced code grows.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, computed bytes per call or None).  Bytes are computed
# from array shapes (16 bytes per complex entry), not measured.
TRACED = (
    ("states", "PureState", lambda self: 16 << self.n_qubits),
    ("states", "parse_ket_info", None),
    ("states", "DensityMatrix", lambda self: 16 << (2 * self.n_qubits)),
    ("states", "add_white_noise", None),
    ("states", "as_density", None),
    ("states", "sample_k_separable", None),
    ("states", "tensor_product", None),
    ("states", "state_from_json", None),
    ("correlation", "antidiagonal_profile", None),
    ("correlation", "correlation_value_trace", None),
    ("correlation", "correlation_value", None),
    ("correlation", "correlation_tensor", None),
    ("witness", "classify", None),
    ("separability", "sample_partition", None),
    ("oracle", "cross_validate", None),
    ("oracle", "maximize_grid", None),
    ("oracle", "norm_squared_quadrature", None),
    ("cli", "main", None),
)

MODULES = ("rotbell", "rotbell.cli", "rotbell.states", "rotbell.correlation",
           "rotbell.witness", "rotbell.separability", "rotbell.oracle")


def layer_names():
    return [f"{mod}.{attr}" for mod, attr, _ in TRACED]


def metric_names():
    """Per-layer metric names in report order, with units and direction."""
    names = []
    for (mod, attr, nbytes), layer in zip(TRACED, layer_names()):
        names.append((f"{layer}.self_ms", "ms", "lower"))
        names.append((f"{layer}.calls", "calls/op", "lower"))
        if nbytes is not None:
            names.append((f"{layer}.bytes", "B/op", "lower"))
    names.append(("op.minflt", "faults/op", "lower"))
    names.append(("trace.overhead_ms", "ms", "lower"))
    names.append(("trace.layers_pct", "%", "higher"))
    names.append(("host.ref_ms", "ms", "lower"))
    return names


class Tracer:
    """Installs span-recording wrappers; ``op`` tags the spans of the current command."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.bytes = defaultdict(int)
        self.op = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, nbytes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
                if nbytes is not None:
                    self.bytes[name] += nbytes(args[0])

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for (mod, attr, nbytes), name in zip(TRACED, layer_names()):
            owner = importlib.import_module(f"rotbell.{mod}")
            target = getattr(owner, attr)
            if isinstance(target, type):
                orig = target.__post_init__
                self._set(target, "__post_init__", orig, self._wrap(name, orig, nbytes))
                continue
            wrapper = self._wrap(name, target, nbytes)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._set(module, key, target, wrapper)

    def _set(self, obj, key, orig, new):
        setattr(obj, key, new)
        self._undo.append((obj, key, orig))

    def uninstall(self):
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def summary(self, n_ops):
        """Per-layer mean self ms, calls and computed bytes per op."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _op in self.spans:
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out = {}
        for (_mod, _attr, nbytes), name in zip(TRACED, layer_names()):
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / n_ops
            out[f"{name}.calls"] = calls[name] / n_ops
            if nbytes is not None:
                out[f"{name}.bytes"] = self.bytes[name] / n_ops
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
