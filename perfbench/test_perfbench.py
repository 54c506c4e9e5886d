"""Tests of the benchmark's own code: python3 -m pytest perfbench -q

They run powersdim on a few small inputs, so src/ must be importable; the
repository's tier-1 suite (testpaths = tests) does not collect them.
"""

import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import powersdim as ps  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from verify import (adjacency, distances, graph_sdim, is_strong_resolving,  # noqa: E402
                    power_sets, undirected)
from worker import Runner  # noqa: E402
from workloads import GRAPH_SIZES, load_reference, make_inputs  # noqa: E402

SMALL = ["Z12", "D10", "Q8", "E2^3", "S3", "Z2xA4"]


def small_result(reference, specs=SMALL, passes=2):
    """Inputs and a worker-shaped result for a few corpus groups."""
    inputs = [{"id": i, "kind": "group", "spec": s} for i, s in enumerate(specs)]
    runner = Runner(ps, {"inputs": inputs})
    for _ in range(passes):
        runner.run_pass(traced=False)
    result = {"outputs": [[[json.loads(k), c] for k, c in o.items()] for o in runner.outputs],
              "tables": {s: ps.build_group(s).table for s in specs}}
    return inputs, result


def test_correct_outputs_pass_the_gate():
    reference = load_reference()
    inputs, result = small_result(reference)
    attempted, failed, reasons = run.check(inputs, result, reference)
    assert (attempted, failed, reasons) == (2 * len(SMALL), 0, [])


def test_corrupted_reference_counts_as_failure():
    reference = load_reference()
    inputs, result = small_result(reference)
    bad = {**reference, "groups": {**reference["groups"], "D10": reference["groups"]["D10"] + 1}}
    attempted, failed, reasons = run.check(inputs, result, bad)
    assert attempted == 2 * len(SMALL)
    assert failed == 2  # both executions of D10
    assert all("D10" in r for r in reasons)


def test_bad_witness_counts_as_failure():
    reference = load_reference()
    inputs, result = small_result(reference, specs=["Z12"], passes=1)
    out = result["outputs"][0][0][0]
    dist = distances(undirected(power_sets(result["tables"]["Z12"])))
    out["witness"] = next(list(w) for w in itertools.combinations(range(12), len(out["witness"]))
                          if not brute_strong_resolving(dist, w))  # right size, wrong set
    _, failed, reasons = run.check(inputs, result, reference)
    assert failed == 1 and "witness" in reasons[0]


def test_table_of_another_group_counts_as_failure():
    reference = load_reference()
    assert reference["groups"]["D8"] == reference["groups"]["Q8"]
    inputs, result = small_result(reference, specs=["D8"], passes=1)
    result["tables"]["D8"] = ps.build_group("Q8").table  # right order and value, wrong group
    _, failed, reasons = run.check(inputs, result, reference)
    assert failed == 1 and "element orders" in reasons[0]


def test_raised_error_counts_as_failure():
    reference = load_reference()
    inputs = [{"id": 0, "kind": "group", "spec": "Z12"}]
    result = {"outputs": [[[{"error": "ValueError: boom"}, 3]]], "tables": {}}
    assert run.check(inputs, result, reference)[:2] == (3, 3)


def test_malformed_output_counts_as_failure():
    reference = load_reference()
    inputs, result = small_result(reference, specs=["Z12"], passes=1)
    del result["outputs"][0][0][0]["witness"]
    result["outputs"][0].append([{"value": 9, "witness": None}, 1])
    attempted, failed, reasons = run.check(inputs, result, reference)
    assert (attempted, failed) == (2, 2)
    assert "could not be checked" in reasons[0] and "witness" in reasons[1]


def test_graph_reference_holds_under_relabelling_and_catches_a_wrong_value():
    reference = load_reference()
    inp = min(make_inputs("graphs", 3, reference), key=lambda i: i["graph"]["n"])
    graph = inp["graph"]
    assert graph_sdim(adjacency(graph)) == reference["graphs"][inp["name"]]
    inputs = [{**inp, "id": 0}]
    res = ps.sdim_oracle(ps.from_edge_list(graph))
    good = {"value": res.value, "witness": sorted(res.witness)}
    bad = {"value": res.value - 1, "witness": sorted(res.witness)[1:]}
    result = {"outputs": [[[good, 2], [bad, 1]]], "tables": {}}
    assert run.check(inputs, result, reference)[:2] == (3, 1)


def brute_strong_resolving(dist, witness):
    n = len(dist)
    return all(any(dist[w][u] == dist[w][v] + dist[v][u] or dist[w][v] == dist[w][u] + dist[u][v]
                   for w in witness)
               for u, v in itertools.combinations(range(n), 2))


def test_witness_check_matches_the_definition():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(4, 9)
        edges = [[u, v] for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        edges += [[i, i + 1] for i in range(n - 1)]  # connected
        dist = distances(adjacency({"n": n, "edges": edges}))
        for size in range(n + 1):
            for witness in itertools.combinations(range(n), size):
                assert is_strong_resolving(dist, witness) == brute_strong_resolving(dist, witness)


def test_inputs_follow_the_seed():
    reference = load_reference()
    for workload in ("corpus", "ladder", "graphs", "cli"):
        a = make_inputs(workload, 5, reference)
        assert a == make_inputs(workload, 5, reference)
        assert [x["id"] for x in a] == list(range(len(a)))
    assert make_inputs("corpus", 5, reference) != make_inputs("corpus", 6, reference)
    a, b = make_inputs("graphs", 5, reference), make_inputs("graphs", 6, reference)
    assert a != b
    assert sorted(x["name"] for x in a) == sorted(x["name"] for x in b)
    assert sorted(x["spec"] for x in make_inputs("corpus", 5, reference)) == sorted(ps.CORPUS_SPECS)


def test_generated_graphs_are_connected_with_diameter_at_least_3():
    for inp in make_inputs("graphs", 9, load_reference()):
        d = distances(adjacency(inp["graph"]))
        assert (d >= 0).all() and d.max() >= 3
        assert inp["graph"]["n"] in GRAPH_SIZES


def test_stored_reference_matches_independent_recomputation():
    assert make_reference.build() == load_reference()


def test_tail_keeps_ten_samples_above():
    samples = list(range(1, 101))
    value, pct = run.tail(samples)
    assert value == 90 and pct == 90.0
    assert sum(1 for s in samples if s > value) == 10
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_end_to_end_takes_best_times_or_every_execution():
    passes = [{"wall_s": 0.5, "latency_ms": [3.0, 40.0, 2.0]},
              {"wall_s": 0.9, "latency_ms": [1.0, 90.0, 5.0]}]
    assert run.best_per_input(passes) == [1.0, 40.0, 2.0]
    metrics, samples = run.end_to_end({"passes": passes, "maxrss_kb": 1024}, [0.2])
    assert metrics["solve_s"] == (0.043, "s")
    assert metrics["latency_ms_p50"] == (2.0, "ms")
    assert metrics["latency_ms_tail"] == (40.0, "ms")
    assert (samples["passes"], samples["latencies"]) == (2, 3)
    metrics, samples = run.end_to_end({"passes": passes, "maxrss_kb": 1024}, [0.2], best=False)
    assert metrics["solve_s"] == (0.7, "s")  # median pass wall time
    assert metrics["latency_ms_p50"] == (4.0, "ms")  # median of all six executions
    assert samples["latencies"] == 6


def test_tracer_counts_repeat_and_unpatches():
    original = ps.sdim.diameter
    inputs = [{"id": i, "kind": "group", "spec": s} for i, s in enumerate(SMALL)]
    runner = Runner(ps, {"inputs": inputs})
    runner.tracer = Tracer()
    runner.tracer.install()
    try:
        assert ps.sdim.diameter is not original and ps.graphs.diameter is ps.sdim.diameter
        a, b = runner.run_pass(traced=True), runner.run_pass(traced=True)
    finally:
        runner.tracer.remove()
    assert ps.sdim.diameter is original and ps.diameter is original
    for key in ("counts", "sizes", "calls", "all_pairs_per_graph"):
        assert a[key] == b[key]
    assert a["all_pairs_per_graph"] == 4.0  # diameter, two witness checks, one SRG
    assert a["counts"]["graphs.bfs_distances"] == 4 * sum(ps.build_group(s).n for s in SMALL)
    assert a["self_ms"]["groups.build_group"] > 0
    assert 0 <= a["uncovered_share"] < 1


def test_no_pass_starts_past_the_deadline():
    runner = Runner(ps, {"inputs": [{"id": 0, "kind": "group", "spec": "Z12"}]})
    assert len(runner.timed(5, False, deadline=0.0)) == 1
    assert len(runner.timed(3, False, deadline=float("inf"))) == 3


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("spec", ["Z12", "S3"])
def test_power_graph_from_table_matches_the_program(spec):
    g = ps.build_group(spec)
    rows = ps.power_graph(g).rows
    expected = np.array([[(rows[u] >> v) & 1 for v in range(g.n)] for u in range(g.n)], bool)
    assert (undirected(power_sets(g.table)) == expected).all()


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    inputs = [{"id": i, "kind": "group", "spec": s} for i, s in enumerate(SMALL)]
    runner = Runner(ps, {"inputs": inputs})
    untraced = runner.run_pass(traced=False)
    runner.tracer = Tracer()
    runner.tracer.install()
    try:
        traced = runner.run_pass(traced=True)
    finally:
        runner.tracer.remove()
    result = {"passes": [untraced], "traced_passes": [traced], "maxrss_kb": 40960}
    e2e, _ = run.end_to_end(result, [0.2, 0.3])
    layer, _ = run.per_layer(result, {"cli.import.ms": 1.0, "cli.import.numpy_ms": 1.0},
                             len(inputs))
    for got, spec in ((e2e, bench["end_to_end"]), (layer, bench["per_layer"])):
        assert {k: u for k, (_, u) in got.items()} == {m["name"]: m["unit"] for m in spec}
