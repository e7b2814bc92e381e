"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, solve id).  Spans are appended to
flat arrays while the run goes and written out once at exit, so the
cost per traced call is two clock reads and a few appends.  Self time
is derived afterwards from the parent links.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = -1
        self.solve_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        parent = self.open
        self.name.append(nid)
        self.parent.append(parent)
        self.solve.append(self.solve_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.open = sid
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.open = parent
            self.start[sid] = t0
            self.end[sid] = t1

    def install(self, table) -> None:
        """Replace each (span name, module, attribute) of `table` by a traced
        wrapper.  An attribute the module no longer has is skipped, so its
        metrics read 0 calls instead of failing the run."""
        for span_name, module, attr in table:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def table(self) -> dict[str, np.ndarray]:
        """Columns as arrays: name id, parent, solve id, duration (s), and
        self time (s), the duration minus that of the child spans.  The
        children of one span run one after another, so they never overlap."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "solve": np.frombuffer(self.solve, dtype=np.int32),
            "dur": dur,
            "self": dur - covered,
        }

    def name_id(self, name: str) -> int:
        return self._name_ids.get(name, -1)

    def write_csv(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_us,end_us,parent,solve\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{(self.start[i] - t0) * 1e6:.3f},"
                    f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]},{self.solve[i]}\n"
                )
