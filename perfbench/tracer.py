"""Outside-in tracer: run one pmlattice CLI command with every public
function of the package's modules timed, without touching ``src/``.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py TRACE_OUT.json pm count --input g.json

The report goes to stdout and the exit code is the CLI's, exactly as for
``python3 -m pmlattice.cli``.  The trace goes to ``TRACE_OUT.json``.

Every public (no leading underscore) module-level function defined in one
of the layer modules is rebound, in every layer module that binds it, to a
wrapper that records a span.  Calls between and within modules resolve
through module globals, so they all pass through the wrappers.  Spans are
aggregated as they close rather than kept one by one: per function the
call count and self time (the span's duration minus the time its child
spans cover).  A generator's span covers each resumption,
so its self time is the time spent producing items.  Importing the package
is a span of its own, ``cli.import``, so start-up cost lands in the cli
layer.  At exit the trace also records ``cache_info()`` of every
``lru_cache`` in the layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "corpus", "graph", "matchings", "linalg", "polytope",
          "decomposition", "basis", "verifier")

_clock = time.perf_counter_ns


class Tracer:
    """Span stack plus per-function aggregates and named counters."""

    def __init__(self):
        self.stack: list[list] = []            # [name, start_ns, child_ns]
        self.funcs: dict[str, list[int]] = {}  # name -> [calls, self_ns]
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def enter(self, name: str) -> None:
        self.stack.append([name, _clock(), 0])

    def leave(self, calls: int = 1) -> int:
        name, start, child = self.stack.pop()
        dur = _clock() - start
        agg = self.funcs.setdefault(name, [0, 0])
        agg[0] += calls
        agg[1] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                self.funcs.setdefault(name, [0, 0])[0] += 1
                while True:
                    self.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.leave(calls=0)
                    self.count(name + ".items")
                    yield item
            return functools.wraps(fn)(gen_wrapper)

        hook = _HOOKS.get(name)
        if hook is None:
            def wrapper(*args, **kwargs):
                self.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.leave()
            return functools.wraps(fn)(wrapper)

        cached = hasattr(fn, "cache_info")

        def hooked(*args, **kwargs):
            misses = fn.cache_info().misses if cached else 0
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.leave()
            missed = cached and fn.cache_info().misses > misses
            hook(self, args, kwargs, result, dur, missed)
            return result
        return functools.wraps(fn)(hooked)


# Hooks record counts beyond calls and time, after the call returns; for an
# ``lru_cache`` function ``missed`` says whether the call ran its body.

def _rank_rows(tracer, args, kwargs, result, dur, missed):
    tracer.count("linalg.rank.rows", len(args[0] if args else kwargs["m"]))


def _matchings_on_miss(tracer, args, kwargs, result, dur, missed):
    if missed:
        tracer.count("matchings.enumerate.matchings", len(result))


def _property_time(tracer, args, kwargs, result, dur, missed):
    pid = args[1] if len(args) > 1 else kwargs["property_id"]
    tracer.count(f"verifier.{pid}.ns", dur)


_HOOKS = {
    "linalg.rank": _rank_rows,
    "matchings.enumerate_perfect_matchings": _matchings_on_miss,
    "verifier.verify_property": _property_time,
}


def install(tracer: Tracer, modules: dict) -> dict[str, object]:
    """Rebind public layer functions everywhere they are bound; return
    every ``lru_cache`` of the layers (public or private) by name."""
    wrapped: dict[int, object] = {}
    caches: dict[str, object] = {}
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            origin = getattr(obj, "__module__", None) or ""
            package, _, layer = origin.rpartition(".")
            if isinstance(obj, type) or package != "pmlattice" or layer not in modules \
                    or not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            qual = f"{layer}.{obj.__name__}"
            if hasattr(obj, "cache_info"):
                caches[qual] = obj
            if attr.startswith("_"):
                continue
            if id(obj) not in wrapped:
                wrapped[id(obj)] = tracer.wrap(qual, obj)
            setattr(mod, attr, wrapped[id(obj)])
    # Each call of the private ``_build`` makes exactly one decomposition tree
    # node, so it is counted (not timed) to give the nodes built.
    dec = modules["decomposition"]
    build = dec._build

    def counting_build(*args, **kwargs):
        tracer.count("decomposition.nodes")
        return build(*args, **kwargs)
    dec._build = counting_build
    return caches


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.enter("cli.import")
    modules = {name: importlib.import_module(f"pmlattice.{name}") for name in LAYERS}
    tracer.leave()
    caches = install(tracer, modules)
    try:
        return modules["cli"].main(cli_argv)
    finally:
        trace = {
            "funcs": {k: {"calls": c, "self_ns": s}
                      for k, (c, s) in sorted(tracer.funcs.items())},
            "counters": dict(sorted(tracer.counters.items())),
            "caches": {k: fn.cache_info()._asdict() for k, fn in sorted(caches.items())},
        }
        with open(out_path, "w") as fh:
            json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
