"""Per-layer tracing from outside the package.

`Tracer.install()` replaces the public functions of each sccore module with
timing wrappers, in the defining module and in every sccore module that
imported the name (so `analytics.sc_t_coeffs` and `cache.sc_t_coeffs` are
wrapped as well as `series.sc_t_coeffs`).  Each call is a span; a span's
self time is its duration minus the time of the spans it caused.  A function
already on the span stack calls straight through, so a self-recursive
function is spanned once per outermost call.  Generators are timed per
`next()`.  Spans are folded into per-function aggregates in memory and
written out once, by `Tracer.dump()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# module -> functions to wrap; None means every public module-level function
LAYERS = {
    "series": ("p_coeffs", "phat_coeffs", "sc_coeffs", "c_t_coeffs",
               "sc_t_coeffs", "nsc_t_coeffs", "eta_product"),
    "analytics": None,
    "formulas": None,
    "partitions": None,
    "abacus": None,
    "growth": None,
    "cache": None,
    "cli": None,
}
# private helpers that are spanned as well: the closed-form term generators
# and the cache codec, whose arguments give the byte counters
EXTRA = {
    "formulas": ("_compositions", "_weighted_pair_sequences"),
    "cache": ("_decode", "_encode"),
}
SERIES_ROWS = ("p_coeffs", "phat_coeffs", "sc_coeffs", "c_t_coeffs",
               "sc_t_coeffs", "nsc_t_coeffs")


class Tracer:
    """Span aggregates and counters for one process."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []   # per open span: [child seconds]
        self.functions: dict[str, list] = {}  # "layer.name" -> [calls, total_s, self_s, items yielded]
        self.counters: dict[str, float] = {}
        self.rows: set = set()

    # -- aggregation -------------------------------------------------------

    def _close(self, stats: list, dur: float, child: float) -> None:
        stats[1] += dur
        stats[2] += dur - child
        if self.stack:
            self.stack[-1][0] += dur

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        stats = self.functions.setdefault(f"{layer}.{name}", [0, 0.0, 0.0, 0])
        before, after = self._hooks(layer, name)
        stack, clock, close = self.stack, time.perf_counter, self._close
        active = [0]

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                if active[0]:
                    return fn(*args, **kwargs)
                stats[0] += 1
                return _TimedIter(fn(*args, **kwargs), stats, active, stack, clock, close)
            wrapper = gen_wrapper
        else:
            def call_wrapper(*args, **kwargs):
                if active[0]:
                    return fn(*args, **kwargs)
                if before:
                    before(args, kwargs)
                stats[0] += 1
                active[0] = 1
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    active[0] = 0
                    close(stats, dur, frame[0])
                if after:
                    after(args, kwargs, result)
                return result
            wrapper = call_wrapper
        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _hooks(self, layer: str, name: str):
        """Counters read at the boundary: (before(args, kwargs), after(args, kwargs, result))."""
        if layer == "series" and name in SERIES_ROWS:
            def before(args, kwargs):
                self.rows.add((name, args, tuple(sorted(kwargs.items()))))
                n = args[-1] if args else kwargs.get("n", 0)
                if n > self.counters.get("series.max_n", 0):
                    self.counters["series.max_n"] = n
            return before, None
        if layer == "series" and name == "eta_product":
            def before(args, kwargs):
                n = args[0] if args else kwargs["n"]
                if n > self.counters.get("series.max_n", 0):
                    self.counters["series.max_n"] = n
            return before, None
        if layer == "growth" and name == "verify_growth":
            return (lambda args, kwargs: self.count("growth.ns_audited", args[1] - args[0] + 1)), None
        if layer == "cache" and name == "_decode":
            def before(args, kwargs):
                self.count("cache.loads")
                self.count("cache.bytes_read", len(args[0]))
            return before, None
        if layer == "cache" and name == "_encode":
            return None, (lambda args, kwargs, blob: self.count("cache.bytes_written", len(blob)))
        if layer == "cache" and name == "load_or_compute":
            tags = {"cache": "cache.hits", "computed": "cache.misses", "recomputed": "cache.recomputed"}

            def after(args, kwargs, result):
                if args[0] is not None:  # no cache dir: the cache is not involved
                    self.count(tags[result[1]])
            return None, after
        return None, None

    def install(self) -> None:
        """Wrap every traced function wherever an sccore module holds it."""
        modules = {layer: importlib.import_module(f"sccore.{layer}") for layer in LAYERS}
        package = importlib.import_module("sccore")
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            names = LAYERS[layer]
            if names is None:
                names = [n for n, v in vars(mod).items()
                         if not n.startswith("_") and _defined_in(v, mod)]
            for name in (*names, *EXTRA.get(layer, ())):
                fn = getattr(mod, name)
                replace[id(fn)] = self._wrap(layer, name, fn)
        for mod in (*modules.values(), package):
            for name, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        counters = dict(self.counters)
        counters["series.distinct_rows"] = len(self.rows)
        return {"functions": self.functions, "counters": counters}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def _defined_in(value, mod) -> bool:
    """A plain function (or a cache around one) whose home is this module."""
    fn = getattr(value, "__wrapped__", value)
    return inspect.isfunction(fn) and fn.__module__ == mod.__name__


class _TimedIter:
    """Iterator proxy that makes each `next()` of a generator one span."""

    __slots__ = ("it", "stats", "active", "stack", "clock", "close")

    def __init__(self, it, stats, active, stack, clock, close):
        self.it, self.stats, self.active = it, stats, active
        self.stack, self.clock, self.close = stack, clock, close

    def __iter__(self):
        return self

    def __next__(self):
        if self.active[0]:
            return next(self.it)
        self.active[0] = 1
        frame = [0.0]
        self.stack.append(frame)
        start = self.clock()
        try:
            item = next(self.it)
        finally:
            dur = self.clock() - start
            self.stack.pop()
            self.active[0] = 0
            self.close(self.stats, dur, frame[0])
        self.stats[3] += 1
        return item


def merge(snapshots: list[dict]) -> dict:
    """Sum the aggregates of several processes (the cli-session children)."""
    functions: dict[str, list] = {}
    counters: dict[str, float] = {}
    for snap in snapshots:
        for key, stats in snap["functions"].items():
            acc = functions.setdefault(key, [0, 0.0, 0.0, 0])
            for k in range(4):
                acc[k] += stats[k]
        for key, value in snap["counters"].items():
            if key == "series.max_n":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"functions": functions, "counters": counters}
