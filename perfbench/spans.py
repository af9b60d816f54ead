"""In-memory span tracer for the benchmark's traced run.

While installed, the tracer replaces each traced tanglekit function, and each
``numpy.linalg`` function, at every module-level name (or module-level dict
entry) a ``tanglekit`` module binds it to.  ``numpy.linalg`` is reached through
the module's ``np`` binding, so only the linear-algebra calls tanglekit itself
makes are traced, not the ones numpy makes internally.  Every call records a
span ``(name, start_ns, end_ns, parent, operand_shape)``; spans stay in memory
until the run writes them out.  They are kept as parallel lists of atoms, not
one list per span, so the cyclic garbage collector does not rescan them.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager

import numpy

# Public tanglekit functions traced, as "<module>.<function>".
TRACED_FUNCTIONS = (
    "states.parse_state",
    "states.serialize_state",
    "states.make_named_state",
    "bipartition.reshape",
    "bipartition.parity_signs",
    "plucker.gram_hermitian",
    "plucker.gram_bilinear",
    "plucker.plucker_coordinates",
    "linalg.maximal_minors",
    "linalg.pfaffian",
    "monotones.d_monotone",
    "monotones.e_monotone",
    "monotones.partition_report",
    "monotones.all_partitions_report",
    "monotones.four_qubit_lmn",
    "local_ops.apply_local",
    "local_ops.monotonicity_trial",
    "verify.run_suite",
    "cli.main",
)
PACKAGE = "tanglekit"
KERNEL = "kernel"
# Spans whose first argument's shape is recorded, for the computed Gram counts.
SHAPE_RECORDED = frozenset({"plucker.gram_hermitian", "plucker.gram_bilinear"})

NAME, START, END, PARENT, SHAPE = range(5)


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self._shapes: list[tuple | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    @property
    def spans(self) -> list[tuple]:
        return list(zip(self._names, self._starts, self._ends, self._parents, self._shapes))

    def _open(self, name: str, shape) -> int:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._shapes.append(shape)
        self._ends.append(0)
        self._stack.append(index)
        self._starts.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self._ends[index] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        record_shape = name in SHAPE_RECORDED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, numpy.shape(args[0]) if record_shape and args else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, e.g. one round or operation."""
        index = self._open(name, None)
        try:
            yield
        finally:
            self._close(index)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        replacement: dict[int, tuple[object, object]] = {}
        for qualname in TRACED_FUNCTIONS:
            module, attr = qualname.split(".")
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            replacement[id(fn)] = (fn, self._wrap(qualname, fn))
        linalg = types.ModuleType(numpy.linalg.__name__)
        linalg.__dict__.update(vars(numpy.linalg))
        for attr in numpy.linalg.__all__:
            fn = getattr(numpy.linalg, attr)
            if callable(fn) and not isinstance(fn, type):
                wrapped = self._wrap(f"{KERNEL}.{attr}", fn)
                setattr(linalg, attr, wrapped)
                replacement[id(fn)] = (fn, wrapped)
        np_proxy = types.ModuleType(numpy.__name__)
        np_proxy.__dict__.update(vars(numpy))
        np_proxy.linalg = linalg
        replacement[id(numpy)] = (numpy, np_proxy)
        replacement[id(numpy.linalg)] = (numpy.linalg, linalg)

        def patch(namespace: dict) -> None:
            for key, value in list(namespace.items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._undo.append((namespace, key, value))

        for module in modules:
            namespace = vars(module)
            patch(namespace)
            for key, value in list(namespace.items()):
                if type(value) is dict and not key.startswith("__"):
                    patch(value)

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            namespace[key] = original


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its direct child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered, cursor = 0, start
        for k in sorted(kids, key=lambda i: spans[i][START]):
            lo, hi = max(spans[k][START], cursor), min(spans[k][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (span[END] - span[START]) / 1e9
        row["self_s"] += own / 1e9
    return table


def gram_counts(spans) -> tuple[int, int]:
    """Computed real flops and bytes of the Gram products, from operand shapes.

    Each Gram is an (l x L) @ (L x l) complex product: 8 L l^2 real flops, and
    16 (2 L l + l^2) bytes for reading both operands once and writing the result.
    """
    flops = nbytes = 0
    for span in spans:
        if span[NAME] in SHAPE_RECORDED and span[SHAPE] is not None and len(span[SHAPE]) == 2:
            rows, cols = span[SHAPE]
            flops += 8 * rows * cols * cols
            nbytes += 16 * (2 * rows * cols + cols * cols)
    return flops, nbytes
