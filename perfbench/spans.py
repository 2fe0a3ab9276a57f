"""Spans and call counts for folioid, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules,
and every public method (plus ``__call__``) of the classes they define,
with a wrapper that records one span per call: its name, start, end and
parent span.  Names that another module bound with ``from .x import f``
are rebound to the same wrapper, so a call is seen whichever name it goes
through.  ``Tracer.uninstall`` puts every original back.

Spans are kept in compact arrays while a pass runs; ``Tracer.aggregate``
turns them into per-name counts, per-name inclusive times and per-layer
self times, and ``Tracer.reset`` clears them for the next pass.  A layer is
the module a span's function is defined in, and its self time is the time
its spans spend outside their child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

TRACED_MODULES = ("linalg", "geomcore", "multdist", "liegroupoid", "leafspace",
                  "dirac", "fingroupoid", "cli", "scenarios")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _public_classes(module):
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()

        return wrapper

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the traced modules of ``package`` (the imported folioid)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {short: getattr(package, short) for short in TRACED_MODULES}
        replaced: dict[int, object] = {}
        for short, module in modules.items():
            for name, fn in _public_functions(module):
                replaced[id(fn)] = self._wrap(f"{short}.{name}", fn)
            for cls_name, cls in _public_classes(module):
                for attr, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and (not attr.startswith("_")
                                                   or attr == "__call__"):
                        self._set(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", fn))
        # rebind every module-level name, including names imported from a
        # sibling module, that still points at an original function
        for module in vars(package).values():
            if inspect.ismodule(module) and module.__name__.startswith(package.__name__):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and id(obj) in replaced:
                        self._set(module, name, replaced[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- recorded spans ---------------------------------------------------

    def reset(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]

    def aggregate(self) -> "SpanStats":
        return SpanStats(self)


class SpanStats:
    """Counts and times derived from the spans recorded since the last reset."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        n_names = len(self.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.duration = self.end - self.start
        nested = self.parent >= 0
        child_time = np.bincount(self.parent[nested], weights=self.duration[nested],
                                 minlength=len(self.duration))
        self.self_time = self.duration - child_time
        self.counts = np.bincount(self.name_id, minlength=n_names)
        self._ids = {name: i for i, name in enumerate(self.names)}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            raise KeyError(f"no traced function named {name}")
        return self._ids[name]

    def calls(self, *names: str) -> int:
        return int(sum(self.counts[self._id(name)] for name in names))

    def inclusive_s(self, name: str) -> float:
        """Time inside calls of ``name``, counting nested calls of it once."""
        nid = self._id(name)
        total = 0.0
        for idx in np.flatnonzero(self.name_id == nid):
            up = self.parent[idx]
            while up >= 0 and self.name_id[up] != nid:
                up = self.parent[up]
            if up < 0:
                total += float(self.duration[idx])
        return total

    def layer_self_s(self, layer: str) -> float:
        in_layer = np.array([name.split(".", 1)[0] == layer for name in self.names],
                            dtype=bool)
        if not in_layer.any():
            return 0.0
        return float(self.self_time[in_layer[self.name_id]].sum())

    def direct_children(self, parent_name: str, child_name: str) -> int:
        """Calls of ``child_name`` made directly from a call of ``parent_name``."""
        pid, cid = self._id(parent_name), self._id(child_name)
        nested = self.parent >= 0
        mask = nested & (self.name_id == cid)
        return int(np.count_nonzero(self.name_id[self.parent[mask]] == pid))

    def descendants_of(self, ancestor: str, names: tuple) -> int:
        """Calls of any of ``names`` made anywhere below a call of ``ancestor``.

        Spans are recorded in call order, so the descendants of span i are
        the spans recorded after it that started before it ended.
        """
        aid = self._id(ancestor)
        wanted = np.isin(self.name_id, [self._id(name) for name in names])
        cumulative = np.concatenate([[0], np.cumsum(wanted)])
        total = 0
        covered_until = -1
        for idx in np.flatnonzero(self.name_id == aid):
            if idx < covered_until:
                continue  # nested inside an ancestor span already counted
            stop = int(np.searchsorted(self.start, self.end[idx], side="right"))
            total += int(cumulative[stop] - cumulative[idx + 1])
            covered_until = stop
        return total

    def call_paths(self) -> dict:
        """Spans collapsed by call path: path -> [calls, total_s, self_s]."""
        path_of = np.empty(len(self.name_id), dtype=np.int64)
        paths: dict = {}
        labels: list = []
        for idx in range(len(self.name_id)):
            up = self.parent[idx]
            key = (int(path_of[up]) if up >= 0 else -1, int(self.name_id[idx]))
            pid = paths.get(key)
            if pid is None:
                pid = paths[key] = len(labels)
                prefix = labels[key[0]] + ";" if key[0] >= 0 else ""
                labels.append(prefix + self.names[key[1]])
            path_of[idx] = pid
        calls = np.bincount(path_of, minlength=len(labels))
        total = np.bincount(path_of, weights=self.duration, minlength=len(labels))
        own = np.bincount(path_of, weights=self.self_time, minlength=len(labels))
        return {label: [int(calls[i]), float(total[i]), float(own[i])]
                for i, label in enumerate(labels)}
