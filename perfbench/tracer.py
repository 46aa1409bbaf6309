"""In-memory span tracer installed from the benchmark's side.

``Tracer.installed()`` wraps the public functions of the certbayes library
modules (functions a module defines under a name without a leading
underscore), ``SpdMatrix.from_array`` and ``cli.main`` by rebinding every module attribute and module-level dict entry
that refers to one of them, so callers that imported a function by name call
the wrapper. Leaving the context restores every binding. Nothing in the
package itself changes.

Every call adds to per-function totals (calls, inclusive seconds, self
seconds). A span (op, name, start, end, parent span) is kept for the first
``SPAN_CAP`` calls of a function in each op; later calls of a hot function,
such as the ~200k gradient calls of an HMC run, are only aggregated.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time

SPAN_CAP = 10_000

_MODULES = ("adversarial_loss", "certificates", "data_pipeline", "numerics", "posterior")


def _hook_spd_size(tracer, args, result):
    m = result.dim
    tracer.counters["numerics.SpdMatrix.from_array.flops"] += m ** 3 / 3.0
    # One read of the matrix and one write of its factor, 8-byte doubles.
    tracer.counters["numerics.SpdMatrix.from_array.bytes"] += 16.0 * m * m


def _hook_load_bytes(tracer, args, result):
    tracer.counters["data_pipeline.load_csv.bytes"] += os.path.getsize(args[0])


def _hook_save_bytes(tracer, args, result):
    tracer.counters["data_pipeline.save_csv.bytes"] += os.path.getsize(args[1])


_HOOKS = {
    "numerics.SpdMatrix.from_array": _hook_spd_size,
    "data_pipeline.load_csv": _hook_load_bytes,
    "data_pipeline.save_csv": _hook_save_bytes,
}


class Tracer:
    """Per-function call statistics and spans for the ops run while installed."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters = {
            "numerics.SpdMatrix.from_array.flops": 0.0,
            "numerics.SpdMatrix.from_array.bytes": 0.0,
            "data_pipeline.load_csv.bytes": 0.0,
            "data_pipeline.save_csv.bytes": 0.0,
        }
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._span_counts: dict[str, int] = {}

    def begin_op(self, op: int) -> None:
        self.op = op
        self._span_counts.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, counts = self._stack, self.spans, self._span_counts
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        original = fn
        if hook is not None:
            inner = fn

            def fn(*args, **kwargs):
                result = inner(*args, **kwargs)
                hook(self, args, result)
                return result

        # A frame is [seconds spent in traced children, nearest recorded span].
        @functools.wraps(original)
        def traced(*args, **kwargs):
            outer = stack[-1] if stack else None
            parent = outer[1] if outer is not None else -1
            recorded = counts.get(name, 0)
            if recorded < SPAN_CAP:
                counts[name] = recorded + 1
                span = len(spans)
                spans.append(None)
                frame = [0.0, span]
            else:
                span = -1
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if outer is not None:
                    outer[0] += elapsed
                if span >= 0:
                    spans[span] = (self.op, name, start, end, parent)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every reference to a traced function for the with-block."""
        package = importlib.import_module("certbayes")
        modules = [package] + [
            importlib.import_module(f"certbayes.{m}") for m in _MODULES + ("cli",)
        ]
        cli = modules[-1]
        numerics = importlib.import_module("certbayes.numerics")

        wrappers = {}  # id(original) -> wrapper
        for mod in modules[1:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        wrappers[id(cli.main)] = self._wrap("cli.main", cli.main)

        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    undo.append((setattr, mod, attr, value))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        wrapper = wrappers.get(id(entry))
                        if wrapper is not None:
                            value[key] = wrapper
                            undo.append((dict.__setitem__, value, key, entry))
        spd = numerics.SpdMatrix
        original_from_array = spd.__dict__["from_array"]
        spd.from_array = staticmethod(
            self._wrap("numerics.SpdMatrix.from_array", original_from_array.__func__)
        )
        undo.append((setattr, spd, "from_array", original_from_array))
        try:
            yield self
        finally:
            for restore, target, key, value in reversed(undo):
                restore(target, key, value)

    def spans_as_records(self):
        """Recorded spans as dicts, in call order."""
        return [
            {"op": op, "name": name, "start": start, "end": end, "parent": parent}
            for op, name, start, end, parent in self.spans
        ]


def wrapper_cost_us(calls: int = 100_000) -> float:
    """Measured cost of the tracing wrapper per call, beyond the call itself."""

    def noop():
        return None

    tracer = Tracer()
    tracer.begin_op(0)
    traced = tracer._wrap("noop", noop)

    def elapsed(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    return 1e6 * (elapsed(traced) - elapsed(noop)) / calls
