"""Run the pie command line with timing spans around every layer's public calls.

Usage:
    python3 perfbench/traced_pie.py TRACE_OUT PIE_ARG...

Runs ``pie PIE_ARG...`` in this process exactly as ``python3 -m pie`` would,
with its standard output and exit code untouched, then writes the trace as
JSON to TRACE_OUT.  The pie sources are not modified.  After import, each
public function of the layers ``partitions``, ``exact``, ``series``,
``involution``, ``identities`` and ``cli`` and the arithmetic methods of the
value types ``CPolynomial``, ``TruncatedSeries`` and ``ExpSeries`` are
replaced by a timing wrapper.  ``from ... import`` copies a binding into the
importing module, so the wrapper replaces the name in every pie module that
binds it, not only in the module that defines it.

A span covers one call (or one resumption of a generator).  Spans nest on
one stack, so a layer's self time is its spans' durations minus the time
their child spans cover; ``Fraction`` arithmetic lands in the self time of
whichever layer called it.  One trace id covers one identity check
(``<tag>.<mode>``) or one sweep modulus (``sweep.N=<N>``).  Leaf calls are
aggregated per trace and layer in memory; spans at the trace boundary are
kept whole (name, trace, start, end, parent) and written out at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("partitions", "exact", "series", "involution", "identities", "cli")

METHODS = {
    "exact": {
        "CPolynomial": (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__truediv__", "__pow__", "__eq__", "evaluate",
        ),
    },
    "series": {
        "TruncatedSeries": (
            "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale",
            "shift", "truncate", "inverse", "exp", "log", "__eq__",
        ),
        "ExpSeries": ("__add__", "__mul__", "exp", "scale_coeffs", "__eq__"),
    },
}

# complex_power runs about 1e7 times on wide-n and calls no other wrapped
# function, so it takes a lean wrapper that skips the span stack; its time is
# charged to the exact layer inside the calling frame.
POWER = "exact.complex_power"
LEAF_LAYER = "exact"

# Generators whose items are partitions: their yields are counted, and the
# distinct partitions among them give the re-enumeration ratio.
PARTITION_GENERATORS = ("partitions.enumerate_distinct", "partitions.enumerate_partitions")


class Tracer:
    """Span stack and counters of one traced pie process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        # frame: [child seconds, layer, trace id, recorded span index or None,
        #         seconds in complex_power calls made from this frame]
        self.stack: list[list] = []
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        # inclusive time per group (a function, or all methods of one class),
        # counting only calls not nested in another call of the same group
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.depth: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.power_totals = [0, 0.0]  # calls, seconds
        self.spans: list[dict] = []
        self.yielded = 0
        self.unique_partitions: set[tuple[str, tuple[int, ...]]] = set()
        self.power_args: set[tuple[int, complex]] = set()
        self.stats_misses = 0
        self.triples_built = 0

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, group: str, layer: str, args: tuple) -> list:
        parent = self.stack[-1] if self.stack else None
        trace = self._trace_id(name, parent, args)
        record = None
        if parent is None or parent[3] is not None and (
            trace != parent[2] or len(self.stack) < 2
        ):
            record = len(self.spans)
            self.spans.append(
                {
                    "name": name,
                    "trace": trace,
                    "parent": None if parent is None else parent[3],
                    "start": self.clock() - self.origin,
                }
            )
        frame = [0.0, layer, trace, record, 0.0]
        self.stack.append(frame)
        self.depth[group] += 1
        return frame

    def _close(self, name: str, group: str, frame: list, dur: float, end: float) -> None:
        self.stack.pop()
        self.depth[group] -= 1
        if not self.depth[group]:
            self.incl_s[group] += dur
        self.self_s[(frame[2], frame[1])] += dur - frame[0]
        if frame[4]:
            self.self_s[(frame[2], LEAF_LAYER)] += frame[4]
        if self.stack:
            self.stack[-1][0] += dur
        self.calls[name] += 1
        if frame[3] is not None:
            self.spans[frame[3]]["end"] = end - self.origin

    @staticmethod
    def _trace_id(name: str, parent: list | None, args: tuple) -> str:
        if name == "identities.check_identity" and len(args) > 1:
            return f"{getattr(args[0], 'value', args[0])}.{args[1].mode}"
        if parent is None:
            return "cli"
        if parent[1] == "cli" and name.startswith("involution.") and len(args) > 1:
            return f"sweep.N={args[1]}"
        return parent[2]

    # -- wrappers -----------------------------------------------------------

    def wrap_call(self, fn, layer: str, name: str, group: str | None = None):
        group = group or name
        after = self._after_hook(fn, name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name, group, layer, args)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._close(name, group, frame, t1 - t0, t1)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_power(self, fn):
        clock = self.clock
        stack = self.stack
        totals = self.power_totals
        seen = self.power_args

        @functools.wraps(fn)
        def wrapper(j, z):
            t0 = clock()
            try:
                return fn(j, z)
            finally:
                dt = clock() - t0
                totals[0] += 1
                totals[1] += dt
                frame = stack[-1]
                frame[0] += dt
                frame[4] += dt
                seen.add((j, z))

        return wrapper

    def wrap_generator(self, fn, layer: str, name: str):
        clock = self.clock
        counts_partitions = name in PARTITION_GENERATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._open(name, name, layer, args)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    self._close(name, name, frame, t1 - t0, t1)
                if counts_partitions:
                    self.yielded += 1
                    self.unique_partitions.add((name, item.parts))
                yield item

        return wrapper

    def _after_hook(self, fn, name: str):
        if name == "partitions.distinct_stats":
            last = [fn.cache_info().misses]

            def count_miss(args, result):
                misses = fn.cache_info().misses
                if misses != last[0]:
                    last[0] = misses
                    self.stats_misses += 1
                    self.triples_built += len(result)

            return count_miss
        return None

    # -- results ------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_trace, layer), secs in self.self_s.items():
            out[layer] += secs
        return out

    def report(self) -> dict:
        per_trace: defaultdict[str, dict[str, float]] = defaultdict(dict)
        for (trace, layer), secs in sorted(self.self_s.items()):
            per_trace[trace][layer] = secs
        calls = {**self.calls, POWER: self.power_totals[0]}
        incl = {**self.incl_s, POWER: self.power_totals[1]}
        return {
            "calls": dict(sorted(calls.items())),
            "inclusive_s": dict(sorted(incl.items())),
            "self_s": self.layer_self(),
            "trace_self_s": per_trace,
            "spans": self.spans,
            "partitions_yielded": self.yielded,
            "partitions_unique": len(self.unique_partitions),
            "complex_power_unique": len(self.power_args),
            "distinct_stats_misses": self.stats_misses,
            "triples_built": self.triples_built,
        }


def install(tracer: Tracer):
    """Wrap every layer's public callables in every pie module; return the
    wrapped cli module's ``main``."""
    modules = {layer: importlib.import_module(f"pie.{layer}") for layer in LAYERS}
    replacements: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(inspect.unwrap(value)):
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name == POWER:
                replacements[id(value)] = tracer.wrap_power(value)
            elif inspect.isgeneratorfunction(value):
                replacements[id(value)] = tracer.wrap_generator(value, layer, name)
            else:
                replacements[id(value)] = tracer.wrap_call(value, layer, name)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, tracer.wrap_call(fn, layer, name, f"{layer}.{cls_name}"))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "pie" and not mod_name.startswith("pie."):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replacements.get(id(value))
            if wrapped is not None:
                setattr(module, attr, wrapped)
    return modules["cli"].main


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_pie.py TRACE_OUT PIE_ARG...", file=sys.stderr)
        return 2
    trace_out, pie_args = argv[0], argv[1:]
    tracer = Tracer()
    pie_main = install(tracer)
    code = pie_main(pie_args)
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.report(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
