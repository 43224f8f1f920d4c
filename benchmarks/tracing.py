"""Spans and counters for the traced run, recorded from outside the library.

``install`` swaps module attributes of ``mgonal`` for wrappers that record a
span (name, start, end, parent) per call; the library is not edited.  Spans
stay in memory until the round ends, when ``layer_metrics`` derives the
per-layer numbers and ``write`` saves the spans with their self times.

``invert_polygonal`` runs once per DFS leaf, often millions of times per
query, so it gets a counter rather than a span.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import mgonal.census
import mgonal.localrep
import mgonal.polygonal
import mgonal.quadratic
import mgonal.theorem

#: Spans written per name; the totals in the file cover every span.
SPANS_WRITTEN_PER_NAME = 2000

EQ2_STATUSES = {
    "primitively-solvable": "quadratic.eq2_primitive",
    "solvable": "quadratic.eq2_solvable",
    "unsolvable": "quadratic.eq2_unsolvable",
    "unsolvable-within-strata": "quadratic.eq2_undecided",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.tags: dict[int, object] = {}
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, tag=None) -> None:
        """Record a span per call of ``module.attr``; ``tag(result, kwargs)``
        keeps a fact about each call (use it only on functions called a few
        times)."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tag is not None:
                self.tags[idx] = tag(result, kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def count(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def durations(self):
        """(duration, self time) per span; self time excludes child spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def spans_of(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [i for i, n in enumerate(self.name_id) if n == nid] if nid is not None else []

    def write(self, path: Path, header: dict) -> None:
        dur, self_t = self.durations()
        totals = {}
        written = []
        per_name = [0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            t = totals.setdefault(self.names[nid], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            t["count"] += 1
            t["total_s"] += dur[i]
            t["self_s"] += self_t[i]
            if per_name[nid] < SPANS_WRITTEN_PER_NAME:
                per_name[nid] += 1
                written.append({"id": i, "name": self.names[nid], "start": self.start[i],
                                "end": self.end[i], "parent": self.parent[i],
                                "self_s": self_t[i]})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "totals": totals, "counters": self.counts,
                                    "spans": written}, indent=1))


def _k_visited(search, kwargs) -> int:
    """How many k the scan visited: it stops at the k that fills pair_cap.

    ``AdmissibleSearch.scanned_k`` is the planned scan length, not this.
    """
    cap = kwargs.get("pair_cap", 16)
    if search.pairs and len(search.pairs) >= cap:
        return search.pairs[-1].k + 1
    return search.scanned_k


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer the workloads reach."""
    tracer.wrap(mgonal.census, "exceptional_set", "census.exceptional_set",
                tag=lambda r, kw: (r.bound, r.timings))
    # census and theorem bound their own names at import; patch each binding
    for module in (mgonal.census, mgonal.theorem, mgonal.localrep):
        tracer.wrap(module, "locally_represents", "localrep.locally_represents")
    tracer.wrap(mgonal.theorem, "solvable_eq2_at", "quadratic.solvable_eq2_at",
                tag=lambda v, kw: (v.status, v.budget_exhausted))
    tracer.wrap(mgonal.theorem, "k_constant", "theorem.k_constant")
    tracer.wrap(mgonal.theorem, "admissible_k", "theorem.admissible_k", tag=_k_visited)
    tracer.wrap(mgonal.quadratic, "jordan_decompose", "quadratic.jordan_decompose")
    tracer.wrap(mgonal.polygonal, "represents", "polygonal.represents",
                tag=lambda w, kw: w is not None)
    tracer.count(mgonal.polygonal, "invert_polygonal", "polygonal.invert_polygonal")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, 0 where the workload does not reach the layer.

    Call before anything else runs in the process: the lru_cache counters
    count every call since the interpreter started.
    """
    dur, self_t = tracer.durations()

    def total(name, times=dur, keep=lambda i: True):
        return sum(times[i] for i in tracer.spans_of(name) if keep(i))

    out: dict[str, float] = {}
    reach = local = whole = 0.0
    integers = 0
    for i in tracer.spans_of("census.exceptional_set"):
        if i not in tracer.tags:  # the call raised
            continue
        bound, timings = tracer.tags[i]
        reach += timings["reach_seconds"]
        local += timings["local_seconds"]
        whole += timings["total_seconds"]
        integers += bound + 1
    out["census.reach_s"] = reach
    out["census.local_s"] = local
    out["census.extract_s"] = whole - reach - local
    out["census.serialize_s"] = total("census.serialize")
    out["census.integers"] = integers
    out["census.integers_per_s"] = integers / whole if whole else 0.0

    out["localrep.calls"] = len(tracer.spans_of("localrep.locally_represents"))
    out["localrep.self_s"] = total("localrep.locally_represents", self_t)
    diag = mgonal.quadratic._diagonal_solvable.cache_info()
    out["quadratic.diagonal_calls"] = diag.hits + diag.misses
    out["quadratic.diagonal_cache_hits"] = diag.hits
    out["quadratic.unit_tables_built"] = mgonal.quadratic._unit_reachable.cache_info().misses
    out["census.value_tables_built"] = mgonal.census._value_table.cache_info().misses
    out["polygonal.term_tables_built"] = mgonal.polygonal._term_table.cache_info().misses

    out["polygonal.represent_found_s"] = total(
        "polygonal.represents", keep=lambda i: tracer.tags.get(i) is True)
    out["polygonal.represent_unfound_s"] = total(
        "polygonal.represents", keep=lambda i: tracer.tags.get(i) is False)
    out["polygonal.dfs_leaves"] = tracer.counts.get("polygonal.invert_polygonal", 0)
    # every interior DFS node looks up its term table once
    terms = mgonal.polygonal._term_table.cache_info()
    out["polygonal.dfs_nodes"] = terms.hits + terms.misses

    eq2 = [i for i in tracer.spans_of("quadratic.solvable_eq2_at") if i in tracer.tags]
    out["quadratic.eq2_calls"] = len(eq2)
    out["quadratic.eq2_s"] = sum(dur[i] for i in eq2)
    out["quadratic.eq2_budget_hits"] = sum(1 for i in eq2 if tracer.tags[i][1])
    out["quadratic.eq2_budget_hit_s"] = sum(dur[i] for i in eq2 if tracer.tags[i][1])
    for status, metric in EQ2_STATUSES.items():
        out[metric] = sum(1 for i in eq2 if tracer.tags[i][0] == status)

    out["theorem.admissible_self_s"] = total("theorem.admissible_k", self_t)
    out["theorem.k_scanned"] = sum(tracer.tags.get(i, 0)
                                    for i in tracer.spans_of("theorem.admissible_k"))
    out["quadratic.jordan_calls"] = len(tracer.spans_of("quadratic.jordan_decompose"))
    out["quadratic.jordan_s"] = total("quadratic.jordan_decompose")
    return out
