"""In-memory spans around the calls the benchmark makes into privcal.

A span is (name, start, end, parent, op id). Op spans are opened by the
runner; every library call made inside an op becomes a child span of
it and carries the op's id (ids start at 1; 0 marks a call outside any
op). Spans are kept in flat arrays while the benchmark runs and written
out once at the end, so recording one costs two clock reads and a few
appends.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from types import SimpleNamespace

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current = -1
        self._op_count = 0

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, parent: int, op: int, t: float) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(t)
        self.end.append(t)
        return idx

    def begin_op(self, name: str) -> None:
        self._op_count += 1
        nid = self._intern("op." + name)
        self._current = self._open(nid, -1, self._op_count, _clock())

    def end_op(self) -> None:
        self.end[self._current] = _clock()
        self._current = -1

    def wrap(self, name: str, fn):
        """fn, recording a child span of the current op on every call."""
        nid = self._intern(name)

        def traced(*args, **kwargs):
            parent = self._current
            op = self._op_count if parent >= 0 else 0
            idx = self._open(nid, parent, op, _clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = _clock()

        return traced

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans called name, from span index since on."""
        nid = self._name_ids.get(name)
        s, e, ids = self.start, self.end, self.name_id
        return [e[i] - s[i] for i in range(since, len(ids)) if ids[i] == nid]

    def by_op(self, name: str) -> dict[str, list[float]]:
        """Durations of the spans called name, grouped by their op's name."""
        nid = self._name_ids.get(name)
        out: dict[str, list[float]] = {}
        s, e, par, ids = self.start, self.end, self.parent, self.name_id
        for i in range(len(ids)):
            if ids[i] == nid and par[i] >= 0:
                out.setdefault(self.names[ids[par[i]]], []).append(e[i] - s[i])
        return out

    def layer_stats(self) -> dict:
        """Per span name: calls, busy seconds and median microseconds."""
        per: dict[int, list[float]] = {}
        s, e = self.start, self.end
        for i, nid in enumerate(self.name_id):
            per.setdefault(nid, []).append(e[i] - s[i])
        return {
            self.names[nid]: {
                "calls": len(d),
                "busy_s": sum(d),
                "p50_us": statistics.median(d) * 1e6,
            }
            for nid, d in per.items()
        }

    def self_seconds(self, prefix: str = "op.") -> float:
        """Time inside spans named prefix* not covered by their child spans."""
        total = 0.0
        s, e, par, ids = self.start, self.end, self.parent, self.name_id
        is_root = [n.startswith(prefix) for n in self.names]
        for i, nid in enumerate(ids):
            if is_root[nid]:
                total += e[i] - s[i]
        for i, p in enumerate(par):
            if p >= 0 and is_root[ids[p]]:
                total -= e[i] - s[i]
        return total

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "op": list(self.op),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def library(names: dict, tracer: Tracer | None) -> SimpleNamespace:
    """A namespace of library callables, each wrapped in a span when tracing.

    names maps a span name such as "frontier.frontier" to the callable.
    The attribute is the part after the last dot.
    """
    ns = {}
    for span_name, fn in names.items():
        attr = span_name.rsplit(".", 1)[1]
        ns[attr] = fn if tracer is None else tracer.wrap(span_name, fn)
    return SimpleNamespace(**ns)
