"""Correctness gate, run after the timed passes.

Nothing here calls powersdim.  Values are compared with the stored table in
reference.json; make_reference.py derives it without powersdim, for graphs
with networkx's exact maximum clique on a strong resolving graph built
here (graph_sdim).  Relabelling a graph does not change its value, so one
stored value serves every seed.  Witnesses are checked
against the definition of a strong resolving set, on distances computed
here by breadth-first search over a numpy adjacency matrix.  For a group,
that matrix comes from the program's multiplication table, whose element
orders must first match those stored for the group.
"""

from __future__ import annotations

import json

import numpy as np

ORACLE_CAP = 200  # groups up to this order also run the generic oracle


def adjacency(graph: dict) -> np.ndarray:
    """Boolean adjacency matrix of an edge-list dict."""
    n = graph["n"]
    a = np.zeros((n, n), dtype=bool)
    if graph["edges"]:
        e = np.asarray(graph["edges"])
        a[e[:, 0], e[:, 1]] = True
        a[e[:, 1], e[:, 0]] = True
    return a


def distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path lengths; -1 marks unreachable pairs."""
    n = adj.shape[0]
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    a = adj.astype(np.float32)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    d = 0
    while frontier.any():
        d += 1
        nxt = ((frontier.astype(np.float32) @ a) > 0) & ~reached
        dist[nxt] = d
        reached |= nxt
        frontier = nxt
    return dist


def power_sets(table) -> np.ndarray:
    """member[x, y]: y is a power of x, from a multiplication table, after
    checking that the table is a Latin square with an identity."""
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    if t.shape != (n, n) or n == 0:
        raise ValueError("table is not square")
    full = np.arange(n)
    if not (np.sort(t, axis=1) == full).all() or not (np.sort(t, axis=0) == full[:, None]).all():
        raise ValueError("table is not a Latin square")
    ids = [e for e in range(n) if (t[e] == full).all() and (t[:, e] == full).all()]
    if len(ids) != 1:
        raise ValueError("table has no identity")
    e = ids[0]
    member = np.zeros((n, n), dtype=bool)
    cur = full.copy()
    done = np.zeros(n, dtype=bool)
    while not done.all():
        member[full, cur] = True
        done |= cur == e
        cur = t[cur, full]
    return member


def undirected(member: np.ndarray) -> np.ndarray:
    """Power graph: x ~ y iff one is a power of the other."""
    adj = member | member.T
    np.fill_diagonal(adj, False)
    return adj


def order_counts(member: np.ndarray) -> list:
    """[[order, number of elements of that order], ...], by order: the
    order of x is the size of the cyclic subgroup it generates."""
    orders, counts = np.unique(member.sum(axis=1), return_counts=True)
    return [[int(o), int(c)] for o, c in zip(orders, counts)]


def is_strong_resolving(dist: np.ndarray, witness) -> bool:
    """Every pair u, v outside the set has a member w with a shortest w-u
    path through v or a shortest w-v path through u.  Pairs that meet the
    set are resolved by that member."""
    n = dist.shape[0]
    s = np.zeros(n, dtype=bool)
    s[list(witness)] = True
    rest = np.flatnonzero(~s)
    if len(rest) < 2:
        return True
    if not s.any():
        return False
    dsr = dist[s][:, rest]                  # d(w, u) for w in S, u outside
    drr = dist[np.ix_(rest, rest)]          # d(u, v)
    via_v = dsr[:, :, None] == dsr[:, None, :] + drr[None, :, :]   # d(w,u) = d(w,v) + d(v,u)
    resolved = (via_v | via_v.transpose(0, 2, 1)).any(axis=0)
    np.fill_diagonal(resolved, True)
    return bool(resolved.all())


def strong_resolving_adjacency(adj: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """u ~ v iff they are mutually maximally distant: no neighbour of v is
    farther from u than v is, and no neighbour of u is farther from v."""
    far = np.where(adj[None, :, :], dist[:, None, :], -1).max(axis=2)  # [u, v] = max d(u, N(v))
    srg = (far <= dist) & (far.T <= dist)
    np.fill_diagonal(srg, False)
    return srg


def graph_sdim(adj: np.ndarray) -> int:
    """sdim = minimum vertex cover of the strong resolving graph
    (Oellermann and Peters-Fransen 2007) = n - clique number of its
    complement, solved exactly by networkx."""
    import networkx as nx

    n = adj.shape[0]
    comp = ~strong_resolving_adjacency(adj, distances(adj))
    np.fill_diagonal(comp, False)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    u, v = np.nonzero(np.triu(comp))
    g.add_edges_from(zip(u.tolist(), v.tolist()))
    _, omega = nx.max_weight_clique(g, weight=None)
    return n - omega


def _witness_ok(dist: np.ndarray, witness, value: int) -> bool:
    n = dist.shape[0]
    return (isinstance(witness, list) and len(set(witness)) == len(witness) == value
            and all(isinstance(w, int) and 0 <= w < n for w in witness)
            and is_strong_resolving(dist, witness))


class Checker:
    """Checks outputs of one workload; caches distances per input."""

    def __init__(self, reference: dict, tables: dict | None = None):
        self.values = reference["groups"]
        self.graph_values = reference["graphs"]
        self.orders = reference["orders"]
        self.tables = tables or {}
        self._dist: dict = {}    # graph input id -> distances
        self._groups: dict = {}  # spec -> (distances, element order counts)

    def _group(self, spec: str) -> tuple[np.ndarray, list]:
        """Distances and element order counts of the program's table."""
        if spec not in self._groups:
            member = power_sets(self.tables[spec])
            self._groups[spec] = (distances(undirected(member)), order_counts(member))
        return self._groups[spec]

    def check(self, inp: dict, out: dict) -> str | None:
        """None when the output is correct, else the reason it is not."""
        if "error" in out:
            return out["error"]
        kind = inp["kind"]
        if kind == "group":
            spec = inp["spec"]
            ref = self.values[spec]
            if out["value"] != ref:
                return f"sdim_group gives {out['value']}, reference {ref}"
            dist, orders = self._group(spec)
            if orders != self.orders[spec]:
                return f"build_group table has element orders {orders}, not those of {spec}"
            if not _witness_ok(dist, out["witness"], ref):
                return "sdim_group witness is not a minimum strong resolving set"
            if dist.shape[0] <= ORACLE_CAP:
                if out.get("oracle") != ref:
                    return f"sdim_oracle gives {out.get('oracle')}, reference {ref}"
                if not _witness_ok(dist, out["oracle_witness"], ref):
                    return "sdim_oracle witness is not a minimum strong resolving set"
            elif out.get("oracle") is not None:
                return "oracle ran above the cap"
            return None
        if kind == "graph":
            key = inp["id"]
            if key not in self._dist:
                self._dist[key] = distances(adjacency(inp["graph"]))
            ref = self.graph_values[inp["name"]]
            if out["value"] != ref:
                return f"sdim_oracle gives {out['value']}, reference {ref}"
            if not _witness_ok(self._dist[key], out["witness"], ref):
                return "sdim_oracle witness is not a minimum strong resolving set"
            return None
        if kind == "cli":
            if out["rc"] != 0:
                return f"exit code {out['rc']}: {out['stderr'].strip()[:200]}"
            try:
                payload = json.loads(out["stdout"])
            except ValueError:
                return "stdout is not JSON"
            ref = self.values[inp["spec"]]
            methods = {row["method"] for row in payload["rows"]}
            if payload.get("agree") is not True or {row["sdim"] for row in payload["rows"]} != {ref}:
                return f"compare rows {payload['rows']} disagree with reference {ref}"
            if not {"GroupTheorem", "Diameter2Reduction", "GenericOracle"} <= methods:
                return f"compare ran only {sorted(methods)}"
            return None
        return f"unknown input kind {kind!r}"
