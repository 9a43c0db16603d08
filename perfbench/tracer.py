"""Out-of-tree call tracer for the storagecodes layers.

`Tracer.install` replaces every public function bound in the given
modules, and every public method of the classes they define, with a
wrapper; `restore` puts the originals back.  Nothing under `src/` is
edited.

Each wrapped call, and each resumption of a wrapped generator, is a
span.  Spans nest on one stack (the library is single-threaded), and a
span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are folded into per-(name, parent) aggregates
as they close instead of being kept, so memory stays constant however
hot a GF(2) leaf is.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Tracer:
    """Span aggregator plus the patching that feeds it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.yielded: Dict[str, int] = defaultdict(int)
        # (name, parent name or None) -> [spans, self seconds]
        self.edges: Dict[Tuple[str, Optional[str]], List[float]] = {}
        # name -> callable(args, result) run after the call, outside its span
        self.hooks: Dict[str, Callable[[tuple, object], None]] = {}
        self._stack: List[list] = []  # [name, start, seconds in child spans]
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        total = self.clock() - start
        parent = None
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][2] += total
        edge = self.edges.get((name, parent))
        if edge is None:
            edge = self.edges[(name, parent)] = [0, 0.0]
        edge[0] += 1
        edge[1] += total - child

    def _resume(self, name: str, inner: Iterable) -> Iterable:
        try:
            while True:
                self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit()
                self.yielded[name] += 1
                yield item
        finally:
            inner.close()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A traced stand-in for fn, recorded under name."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._resume(name, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, modules: Iterable[types.ModuleType], package: str) -> None:
        """Wrap the public functions and methods of the package's modules.

        A function imported into several modules (say `gf2.solve`, also
        bound as `sim.solve`) gets one wrapper, named after the module
        that defines it, and every binding is replaced.
        """
        wrappers: Dict[int, Callable] = {}

        def traced(fn: Callable) -> Callable:
            w = wrappers.get(id(fn))
            if w is None:
                home = fn.__module__.rsplit(".", 1)[-1]
                w = wrappers[id(fn)] = self.wrap(fn, f"{home}.{fn.__qualname__}")
            return w

        def ours(obj) -> bool:
            return getattr(obj, "__module__", "").startswith(package + ".")

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and ours(value):
                    self._set(mod, attr, traced(value))
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for mattr, raw in list(vars(value).items()):
                        if mattr.startswith("_"):
                            continue
                        if isinstance(raw, types.FunctionType):
                            self._set(value, mattr, traced(raw))
                        elif isinstance(raw, (classmethod, staticmethod)):
                            self._set(value, mattr, type(raw)(traced(raw.__func__)))

    def _set(self, owner: object, attr: str, new: object) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put every original binding back, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def self_s(self, names: Iterable[str]) -> float:
        wanted = set(names)
        return sum(e[1] for (n, _), e in self.edges.items() if n in wanted)

    def entries(self, names: Iterable[str]) -> int:
        """Spans of the named functions not opened by one of them.

        For a group of functions that call each other this counts the
        calls into the group from outside it; a generator contributes
        one span per resumption.
        """
        wanted = set(names)
        return sum(
            int(e[0]) for (n, p), e in self.edges.items() if n in wanted and p not in wanted
        )

    def total_self_s(self) -> float:
        return sum(e[1] for e in self.edges.values())

    def names(self) -> List[str]:
        return sorted({n for n, _ in self.edges} | set(self.calls))
