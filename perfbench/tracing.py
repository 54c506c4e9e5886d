"""In-memory span recorder that wraps powersdim's public functions.

A span is one call of a wrapped function: its name, start and end times,
the index of the span that was open when it began (its parent, -1 at the
top) and the id of the benchmark input being processed.  Spans stay in
memory; the caller writes them out when the run ends.

Wrapping replaces the function in every powersdim module namespace that
binds it, because modules import each other's functions by name (sdim.py
binds ``diameter`` and ``power_graph``, cli.py binds ``sdim_group`` and so
on).  Hot helpers such as ``graphs.bits`` are left alone; ``bfs_distances``
runs n times per all-pairs computation, so it is counted but gets no span.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# layer (powersdim module) -> functions that get a span
SPANNED = {
    "groups": ("build_group", "element_orders", "cyclic_masks",
               "maximal_cyclic_subgroups", "chain_analysis"),
    "graphs": ("power_graph", "diameter", "reduced_graph", "from_edge_list"),
    "clique": ("max_clique", "min_vertex_cover"),
    "sdim": ("is_strong_resolving_set", "strong_resolving_graph", "omega_reduced_group",
             "sdim_group", "sdim_via_reduction", "sdim_oracle"),
}
COUNTED = {"graphs": ("bfs_distances",)}

# spans whose results are kept until the pass ends, to count their size then
SIZED = {"graphs.power_graph", "graphs.reduced_graph", "sdim.strong_resolving_graph"}

ALL_PAIRS = ("graphs.diameter", "sdim.is_strong_resolving_set", "sdim.strong_resolving_graph")

NAME, START, END, PARENT, INPUT, FAILED = range(6)


class Tracer:
    """Collects spans and call counts; install() patches powersdim, remove() undoes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.results: list[tuple[str, object]] = []
        self.input_id = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.input_id, False])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.spans[idx][END] = perf_counter()
        self.spans[idx][FAILED] = failed
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        sized = name in SIZED

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            if sized:
                self.results.append((name, result))
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "powersdim" or name.startswith("powersdim."))]
        for make, table in ((self._span_wrapper, SPANNED), (self._count_wrapper, COUNTED)):
            for layer, names in table.items():
                home = sys.modules[f"powersdim.{layer}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = make(f"{layer}.{fname}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patched.append((mod, attr, value))
                                setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- per-pass summaries ------------------------------------------------

    def drain_sizes(self) -> Counter:
        """Size counts of the results kept since the last call, then forget them."""
        sizes: Counter = Counter()
        for name, result in self.results:
            if name == "graphs.reduced_graph":
                sizes["graphs.reduced_graph.k"] += result.quotient.n
            else:
                sizes[f"{name}.edges"] += result.edge_count()
        self.results.clear()
        return sizes


def summarize(spans: list[list], first: int = 0) -> dict:
    """Self time (ms) and call count per span name, covered time of the
    top-level spans (ms) and innermost failures per layer, over spans[first:]."""
    last = len(spans)
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    child_failed = set()
    covered = 0.0
    for i in range(first, last):
        name, start, end, parent, _, failed = spans[i]
        dur = (end - start) * 1000.0
        self_ms[name] += dur
        calls[name] += 1
        if parent >= first:
            self_ms[spans[parent][NAME]] -= dur
            if failed:
                child_failed.add(parent)
        else:
            covered += dur
    errors: Counter = Counter()
    for i in range(first, last):
        if spans[i][FAILED] and i not in child_failed:
            errors[spans[i][NAME].split(".")[0]] += 1
    return {"self_ms": self_ms, "calls": calls, "covered_ms": covered, "errors": errors}
