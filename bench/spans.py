"""Span tracing of privsvm's public functions, installed from outside the
package.

Callers inside privsvm bind names with ``from .x import y``, so a function
lives in several module namespaces at once.  ``Tracer.install`` replaces the
function object in every loaded ``privsvm`` module that holds it, and
``Tracer.uninstall`` puts the originals back.  Private helpers (``_smo``,
``_face_step``) are not wrapped.

Each call records one span: name, start, end, parent span and task id.
Spans are kept in compact arrays while the run lasts and written out once
at the end; self times are computed from them afterwards.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task_id = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.task = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(counts, result, error)`` runs after every call, with
        ``result`` None when the call raised.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.task_id.append(self.task)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            result = None
            error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
                if count is not None:
                    count(self.counts, result, error)

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, span_name, count)`` target in
        every loaded privsvm module namespace that binds the function."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "privsvm" or key.startswith("privsvm."))
                   and m is not None]
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task_id, dtype=np.int32).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def span_times(names, name_id, start, end, parent) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so recursion
    through the same name is not counted twice.  Self time is a span's
    duration minus the durations of its direct children; spans of one
    thread do not overlap, so that is the uncovered part of its interval.
    """
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    # a span is outermost for its name when no ancestor carries that name
    outer = np.ones(dur.shape[0], dtype=bool)
    for i in range(dur.shape[0]):
        p = parent[i]
        while p >= 0:
            if name_id[p] == name_id[i]:
                outer[i] = False
                break
            p = parent[p]
    out = {}
    for nid, name in enumerate(names):
        sel = name_id == nid
        out[name] = {
            "calls": int(np.sum(sel)),
            "s": float(np.sum(dur[sel & outer])),
            "self_s": float(np.sum(self_s[sel])),
        }
    return out
