"""Outside-in span tracer for the riskalloc package.

`Tracer.install()` wraps every public function, and every public method
of a public class, defined in the traced layer modules, and records one
span (name, start, end, parent) per call.  `from .x import f` copies the
binding, so a function is replaced wherever a module of the package binds
it (`riskalloc.harness.tune`, `riskalloc.hmc.hit_time`, ...); a method is
replaced on the class that defines it.  `restore()` puts every original
back.  Spans stay in memory, in flat arrays, until the tracer is dropped.

Private functions are not wrapped, so their time is self time of the
public function that calls them: artifact writing, for example, is self
time of `harness.run`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# (layer, function or method name) -> size of one call, read from its
# second positional argument: presample rows, copula sample rows, and
# values passed to a marginal quantile
SIZED = {
    ("mc", "mc_presample"): lambda arg: int(arg),
    ("copulas", "sample"): lambda arg: int(arg),
    ("marginals", "quantile"): lambda arg: int(np.size(arg)),
}


class Tracer:
    def __init__(self, package: str, layers):
        self.package = package
        self.layers = tuple(layers)
        self.names: list = []  # span-name table, indexed by name id
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items: dict = {}  # span index -> call size (SIZED names only)
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)
        self.installed = False

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )
        perf = time.perf_counter
        sizer = SIZED.get((name.split(".", 1)[0], name.rsplit(".", 1)[-1]))
        items = self.items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            if sizer is not None and len(args) > 1:
                items[idx] = sizer(args[1])
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                start[idx] = t0
                stack.pop()

        return traced

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        self._patches = []
        pkg = importlib.import_module(self.package)
        wrappers = {}  # original function -> its wrapper
        for layer in self.layers:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapper = self._wrap(f"{layer}.{obj.__name__}.{meth}", fn)
                            self._patch(obj, meth, fn, wrapper)
        prefix = self.package + "."
        namespaces = [pkg] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, obj, wrappers[obj])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False

    def restored(self) -> bool:
        """True when every attribute the tracer patched holds its original again."""
        return not self.installed and all(
            vars(owner)[attr] is original for owner, attr, original in self._patches
        )

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
        )


@dataclass(frozen=True, eq=False)
class Spans:
    """Recorded spans in call order; a parent always precedes its children."""

    names: list
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.duration
        has_parent = self.parent >= 0
        children = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - children

    def select(self, match) -> np.ndarray:
        """Indices of the spans whose name satisfies `match`."""
        ids = [i for i, name in enumerate(self.names) if match(name)]
        return np.flatnonzero(np.isin(self.name_id, ids))

    def outermost(self, idx: np.ndarray) -> np.ndarray:
        """Drop the spans in idx whose parent is the same method of the same
        layer (SurvivalClayton.hfun calling Clayton.hfun)."""

        def key(i):
            name = self.names[self.name_id[i]]
            return name.split(".", 1)[0], name.rsplit(".", 1)[-1]

        keep = [i for i in idx.tolist() if self.parent[i] < 0 or key(self.parent[i]) != key(i)]
        return np.array(keep, dtype=idx.dtype)

    def within(self, inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
        """The spans of `inner` that start inside one of the (non-nested)
        spans of `outer`."""
        if inner.size == 0 or outer.size == 0:
            return inner[:0]
        o_start, o_end = self.start[outer], self.end[outer]
        pos = np.searchsorted(o_start, self.start[inner], side="right") - 1
        ok = pos >= 0
        ok[ok] = self.start[inner][ok] < o_end[pos[ok]]
        return inner[ok]
