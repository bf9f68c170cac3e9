"""Spans around the public functions of each wardrop layer.

`Tracer.install()` replaces every public function of the layer modules, in
every wardrop module that refers to it, with a wrapper that records a span
(name, duration, parent) and hands the call and its result to the count
hooks.  `uninstall()` puts the originals back.  Nothing inside the package
is edited; calls the package makes to a public function of another layer go
through the wrapper, calls to private helpers stay inside their caller's
span.  A layer's self time is its spans' duration minus their child spans;
a count hook's time is subtracted like a child span's, so that no layer is
charged for the benchmark's own counting.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("cli", "fileio", "netcore", "costs", "equilibrium", "analysis")

# Called once per route per solver iteration, or once per element of a
# rendered document: a span each would cost more than the work it times.
UNTRACED = {"equilibrium.compress_time", "fileio.jsonable"}

Hook = Callable[[tuple, dict, object, tuple], None]


class Tracer:
    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.hooks: dict[str, Hook] = {}
        self.counts: Counter[str] = Counter()  # the hooks' tallies for the current pass
        self._stack: list[list] = []  # [name, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parents = tuple(f[0] for f in stack)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                self.total_s[name] += spent
                self.self_s[name] += spent - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += spent
            hook = self.hooks.get(name)
            if hook is not None:
                start = clock()
                hook(args, kwargs, result, parents)
                if stack:  # the hook's time is the benchmark's, not the caller's
                    stack[-1][1] += clock() - start
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = importlib.import_module("wardrop")
        modules = [package] + [
            importlib.import_module(f"wardrop.{m}")
            for m in ("cli", "fileio", "netcore", "costs", "equilibrium", "analysis", "fixtures")
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"wardrop.{layer}")
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                traced = self.wrap(name, fn)
                for holder in modules:
                    if vars(holder).get(attr) is fn:
                        self._undo.append((holder, attr, fn))
                        setattr(holder, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, fn = self._undo.pop()
            setattr(holder, attr, fn)

    def mean_us(self, name: str) -> float:
        """Mean self time per call, in microseconds; 0 if never called."""
        n = self.calls[name]
        return 1e6 * self.self_s[name] / n if n else 0.0
