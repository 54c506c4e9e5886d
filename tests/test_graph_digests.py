"""One SHA-256 per graph over everything the graph layer and the cover return.

tests/data/graph_digests.json maps each graph in GRAPH_INPUTS to the digest
of a canonical JSON dump (dump()) of: the graph's edges, its sweep's
distance matrix with the matrix's dtype, the strong resolving graph, the
min_vertex_cover of that graph, and the closed-twin quotient
(representatives, classes, edges) with its max_clique.  The graphs are
seeded random_cycle_with_chords graphs at n = 40, 50 and 60, with chord
probability GRAPH_MEAN_DEGREE / (n - 1), as in the benchmark's graph pool.
A change that alters any of these for a graph fails the test for that
graph.  To rewrite the file after an intended output change, run:

    PYTHONPATH=src python tests/test_graph_digests.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from powersdim import max_clique, min_vertex_cover, reduced_graph, strong_resolving_graph
from powersdim.graphs import sweep

from helpers import random_cycle_with_chords

DIGESTS = Path(__file__).parent / "data" / "graph_digests.json"

GRAPH_SIZES = (40, 50, 60)
GRAPHS_PER_SIZE = 20
GRAPH_MEAN_DEGREE = 4.0
GRAPH_INPUTS = [f"chords-n{n}-{j}" for n in GRAPH_SIZES for j in range(GRAPHS_PER_SIZE)]


def build(name: str):
    """The graph a GRAPH_INPUTS name stands for, seeded by its size and index."""
    n, j = map(int, name.removeprefix("chords-n").split("-"))
    return random_cycle_with_chords(random.Random(100 * n + j), n, GRAPH_MEAN_DEGREE / (n - 1))


def _edges(graph) -> list:
    return [list(e) for e in graph.edges()]


def dump(name: str) -> str:
    """Canonical JSON of every checked output for one graph."""
    g = build(name)
    dist = sweep(g)[0]
    srg = strong_resolving_graph(g)
    red = reduced_graph(g)
    clique = max_clique(red.quotient)
    out = {
        "n": g.n,
        "edges": _edges(g),
        "distances": {"dtype": dist.dtype.str, "rows": dist.tolist()},
        "srg": _edges(srg),
        "cover": min_vertex_cover(srg),
        "quotient": {
            "representatives": red.representatives,
            "class_of": red.class_of,
            "edges": _edges(red.quotient),
            "clique": [len(clique), list(clique)],
        },
    }
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def digest(name: str) -> str:
    return hashlib.sha256(dump(name).encode()).hexdigest()


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(DIGESTS.read_text())


def test_graph_digest_file_covers_every_input(expected):
    assert list(expected) == GRAPH_INPUTS


@pytest.mark.parametrize("name", GRAPH_INPUTS)
def test_graph_outputs_match_digest(name, expected):
    assert digest(name) == expected[name]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({name: digest(name) for name in GRAPH_INPUTS}, indent=1) + "\n")
