"""Workload inputs, generated from the seed before any timing starts.

Every workload is a list of JSON-ready input dicts with an ``id`` (its
position in the run's order) and a ``kind``:

- ``group``: ``{"spec": "Z12"}``, run in process as build_group, sdim_group
  and, up to the oracle cap, sdim_oracle on a fresh power graph;
- ``graph``: ``{"name": ..., "graph": {"n": ..., "edges": [...]}}``, run in
  process as from_edge_list then sdim_oracle;
- ``cli``: ``{"spec": "Z12"}``, run as one ``python -m powersdim.cli compare
  <spec> --json`` process.

The group lists and their reference values live in reference.json, so the
inputs do not depend on the code under test.  The seed sets the order of
every workload and relabels the graphs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from verify import adjacency, distances

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "ladder", "graphs", "cli")

# graphs workload: GRAPHS_PER_SIZE graphs at each size, drawn once from
# GRAPH_POOL_SEED; a run's seed draws a random relabelling of every vertex
# and the order.  Fresh graphs per seed moved the median latency by about
# 10% from seed to seed on their own (the cover's cost varies from graph to
# graph), on top of the machine's drift; relabellings keep the work per run
# the same while giving the program new inputs.  An odd number of sizes
# puts the median latency inside the middle size's cluster.  Every graph is
# a Hamiltonian cycle on a random vertex order (so it is connected) plus
# G(n, p) edges with mean degree GRAPH_MEAN_DEGREE.  The graphs are small
# so that one oracle call takes a few ms: each input's best time over many
# passes is then steady, where calls of 30-250 ms (n = 100-200) left it
# moving with the machine's load by up to 20% from run to run.  At n = 200
# and mean degree 3 to 6 single covers took 1 to 15 s.
GRAPH_SIZES = (40, 50, 60)
GRAPHS_PER_SIZE = 20
GRAPH_MEAN_DEGREE = 4.0
GRAPH_MIN_DIAMETER = 3
GRAPH_POOL_SEED = 20160701


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def random_graph(rng: random.Random, n: int) -> dict:
    """Connected random graph on n vertices of diameter >= GRAPH_MIN_DIAMETER."""
    p = GRAPH_MEAN_DEGREE / (n - 1)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.add((u, v))
        graph = {"n": n, "edges": [list(e) for e in sorted(edges)]}
        if distances(adjacency(graph)).max() >= GRAPH_MIN_DIAMETER:
            return graph


def graph_pool() -> list[tuple[str, dict]]:
    """The fixed (name, graph) pool that the graphs workload relabels."""
    rng = random.Random(GRAPH_POOL_SEED)
    return [(f"n{n}-{j}", random_graph(rng, n))
            for n in GRAPH_SIZES for j in range(GRAPHS_PER_SIZE)]


def relabel(rng: random.Random, graph: dict) -> dict:
    perm = list(range(graph["n"]))
    rng.shuffle(perm)
    edges = sorted(sorted((perm[u], perm[v])) for u, v in graph["edges"])
    return {"n": graph["n"], "edges": edges}


def make_inputs(workload: str, seed: int, reference: dict) -> list[dict]:
    rng = random.Random(seed)
    if workload in ("corpus", "cli"):
        items = [{"kind": "group" if workload == "corpus" else "cli", "spec": s}
                 for s in reference["corpus"]]
    elif workload == "ladder":
        items = [{"kind": "group", "spec": s} for s in reference["ladder"]]
    elif workload == "graphs":
        items = [{"kind": "graph", "name": name, "graph": relabel(rng, g)}
                 for name, g in graph_pool()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    for i, item in enumerate(items):
        item["id"] = i
    return items
