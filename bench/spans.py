"""Spans around the public functions of every trep module, recorded from outside.

A public function is bound by name in every module that imports it with
`from .x import y`, so the tracer replaces the function in every trep
namespace that holds it (and in default arguments that hold it), or nested
calls would be missed. Spans live in memory; a layer's self time is its
span's duration minus the time its child spans cover, where a child's time
includes the tracer's own bookkeeping for it. Self times are scaled to the
reference machine speed by the factor the runner sets before each command.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import zlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "repgraph", "pagerank", "game", "equilibrium", "decoder", "bootstrap", "rng")


def _digest(matrix, config) -> tuple:
    matrix = np.ascontiguousarray(matrix, dtype=float)
    return matrix.shape, zlib.crc32(matrix), repr(config)


class Tracer:
    """Wraps trep's public functions while installed and accumulates their spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.covered = 0.0          # wall time of top-level spans, as measured
        self.scale = 1.0            # applied to self times; see calibration.py
        self.inputs = {"decoder.decode": set(), "pagerank.tour_counts": set()}
        self.stationary = {"iters": 0, "residual_max": 0.0, "mflop": 0.0, "mbytes": 0.0}
        self._stack: list[float] = []
        self._patches: list[tuple] = []

    # The two functions whose repeated inputs a cache could serve, and the
    # solver whose work is counted from its result.
    def _key(self, name, args, kwargs):
        if name == "decoder.decode":
            config = args[1] if len(args) > 1 else kwargs.get("config")
            return _digest(args[0], config)
        if name == "pagerank.tour_counts":
            return _digest(args[0].edges, args[1] if len(args) > 1 else kwargs.get("config"))
        return None

    def _after(self, name, args, result):
        if name == "pagerank.stationary":
            states = args[0].shape[0]
            work = states * states * result.iterations_used
            self.stationary["iters"] += result.iterations_used
            self.stationary["residual_max"] = max(self.stationary["residual_max"], result.residual)
            self.stationary["mflop"] += 2 * work / 1e6
            self.stationary["mbytes"] += 8 * work / 1e6

    def _wrap(self, name: str, fn):
        stack = self._stack
        inputs = self.inputs.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            if inputs is not None:
                inputs.add(self._key(name, args, kwargs))
            stack.append(0.0)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.self_s[name] += (end - begin - stack.pop()) * self.scale
                self.calls[name] += 1
                if stack:
                    stack[-1] += end - start
                else:
                    self.covered += end - begin
            self._after(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("trep")
        modules = {layer: importlib.import_module(f"trep.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

        def replacement(obj):
            entry = wrappers.get(id(obj))
            return entry[1] if entry is not None and entry[0] is obj else None

        spaces = [package, *modules.values()]
        functions = [
            obj for space in modules.values() for obj in vars(space).values() if inspect.isfunction(obj)
        ]
        for fn in functions:
            if fn.__defaults__ and any(replacement(v) for v in fn.__defaults__):
                self._patches.append((fn, "__defaults__", fn.__defaults__))
                fn.__defaults__ = tuple(replacement(v) or v for v in fn.__defaults__)
        for space in spaces:
            for attr, obj in list(vars(space).items()):
                wrapped = replacement(obj)
                if wrapped is not None:
                    self._patches.append((space, attr, obj))
                    setattr(space, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def module_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def distinct_frac(self, name: str) -> float:
        calls = self.calls[name]
        return len(self.inputs[name]) / calls if calls else 0.0
