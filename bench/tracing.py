"""Tracing from outside the program: spans around diffalg's public functions.

``install`` replaces every listed function wherever a ``diffalg`` module binds
it (so ``calculus.multiply`` and ``cli.decide_smoothness`` are caught too)
with a wrapper that records a span.  A span holds its name, start, end,
parent span and op id; spans stay in compact in-memory arrays and are
written out once, at exit.  ``aggregate`` turns them into calls and self time
per function, self time being a span's duration minus the time its direct
children cover.

``engine._nf_word`` is deliberately not wrapped: it recurses once per
rewrite, so a wrapper would double the stack depth and move the point where
deep words raise ``RecursionError``.  Engine cache state is read only through
``probe_engine``, which never writes to it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from fractions import Fraction

# layer -> functions wrapped in it
LAYERS = {
    "cli": ("main",),
    "presentation": ("load_presentation", "validate_presentation"),
    "exprs": ("parse_poly", "format_poly"),
    "engine": ("normal_form", "multiply", "power", "is_pbw", "diamond_check_triple"),
    "classify": ("decompose", "identify_family"),
    "templates": ("generate_templates", "render_template"),
    "calculus": ("build_automorphisms", "verify_automorphisms", "apply_automorphism",
                 "wedge", "differential", "check_integrating_form", "check_d_squared",
                 "check_connectedness", "leibniz_defects", "no_go_residual",
                 "nu_omega_inverse"),
    "smoothness": ("decide_smoothness", "verify_witness"),
}

# stdlib Fraction operators counted as scalars.<kind>.calls (add counts sub too)
SCALAR_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "div": ("__truediv__", "__rtruediv__"),
}

OP_SPAN = "op"


def span_names() -> list:
    """Name of every span kind, the root op span first."""
    return [OP_SPAN] + [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names = span_names()
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        self._op_index = -1
        self.rows = 0
        self.scalar_calls = {kind: 0 for kind in SCALAR_OPS}
        self.probes = []  # (contexts, nf_cache_words) after each op

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_index)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_index: int) -> int:
        self._op_index = op_index
        return self.open(0)

    def write(self, path) -> None:
        """Spans and counts as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "rows": self.rows, "scalar_calls": self.scalar_calls,
                  "probes": self.probes}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(fh)


def _span_wrapper(fn, name_id: int, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _rows_wrapper(fn, tracer: Tracer):
    """generate_templates also counts the rows it returns (templates.rows)."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rows = fn(*args, **kwargs)
        tracer.rows += len(rows)
        return rows
    return counted


def _count_wrapper(fn, kind: str, counts: dict):
    @functools.wraps(fn)
    def counted(self, other):
        counts[kind] += 1
        return fn(self, other)
    return counted


def install(tracer: Tracer) -> None:
    """Wrap every listed function in every loaded diffalg module."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "diffalg" or name.startswith("diffalg."))]
    for name_id, full in enumerate(tracer.names[1:], start=1):
        layer, fn_name = full.split(".")
        home = sys.modules[f"diffalg.{layer}"]
        original = getattr(home, fn_name)
        wrapped = _span_wrapper(original, name_id, tracer)
        if full == "templates.generate_templates":
            wrapped = _rows_wrapper(wrapped, tracer)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    counts = tracer.scalar_calls
    for kind, dunders in SCALAR_OPS.items():
        for dunder in dunders:
            setattr(Fraction, dunder, _count_wrapper(getattr(Fraction, dunder), kind, counts))


def probe_engine(engine) -> tuple:
    """(contexts, cached words) read from ``engine._contexts``, without writing.

    Either value is None when the state it reads is not there in the shape
    this probe knows, so a later engine without it reports them as absent.
    """
    contexts = getattr(engine, "_contexts", None)
    if not isinstance(contexts, dict):
        return None, None
    words = 0
    for ctx in tuple(contexts.values()):
        caches = getattr(ctx, "nf_cache", None)
        if not isinstance(caches, dict):
            return len(contexts), None
        for cache in caches.values():
            if not isinstance(cache, dict):
                return len(contexts), None
            words += len(cache)
    return len(contexts), words


def read_spans(path) -> tuple:
    """Header dict and the five span arrays written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        arrays = []
        for code in ("i", "d", "d", "i", "i"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return header, arrays


def aggregate(path) -> dict:
    """Per-layer metrics from a span file: calls, self time, counts and ratios."""
    header, (name, start, end, parent, _op) = read_spans(path)
    names = header["names"]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for idx in range(len(name)):
        dur = end[idx] - start[idx]
        calls[name[idx]] += 1
        self_s[name[idx]] += dur
        if parent[idx] >= 0:
            self_s[name[parent[idx]]] -= dur
    metrics = {}
    for name_id, full in enumerate(names[1:], start=1):
        metrics[f"{full}.calls"] = (calls[name_id], "count")
        metrics[f"{full}.self_s"] = (self_s[name_id], "s")
    ops = calls[0]
    metrics["templates.rows"] = (header["rows"], "count")
    for kind, count in header["scalar_calls"].items():
        metrics[f"scalars.{kind}.calls"] = (count, "count")
    probes = header["probes"]
    contexts = [c for c, _ in probes]
    words = [w for _, w in probes]
    if probes and None not in contexts:
        metrics["engine.contexts"] = (max(contexts), "count")
    if probes and None not in words:
        metrics["engine.nf_cache_words"] = (max(words), "count")
        grown = sum(max(0, b - a) for a, b in zip([0] + words, words))
        metrics["engine.nf_cache_words_per_op"] = (grown / ops if ops else 0.0, "words/op")
    multiply = metrics["engine.multiply.calls"][0]
    metrics["engine.multiply.calls_per_op"] = (multiply / ops if ops else 0.0, "calls/op")
    wedges = metrics["calculus.wedge.calls"][0]
    applies = metrics["calculus.apply_automorphism.calls"][0]
    metrics["calculus.apply_automorphism.calls_per_wedge"] = (
        applies / wedges if wedges else 0.0, "calls/wedge")
    bases = {"engine.multiply.calls_per_op": ("ops", ops),
             "engine.nf_cache_words_per_op": ("ops", ops),
             "calculus.apply_automorphism.calls_per_wedge": ("calculus.wedge.calls", wedges)}
    return {"metrics": metrics, "bases": bases, "spans": header["spans"],
            "absent": [m for m in ("engine.contexts", "engine.nf_cache_words",
                                   "engine.nf_cache_words_per_op") if m not in metrics]}
