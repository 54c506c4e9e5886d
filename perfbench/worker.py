"""Runs one workload's timed passes in a process of its own.

Started by run.py with PYTHONPATH pointing at the source tree.  Reads a job
as JSON on stdin and writes the result as JSON on stdout.  The process
imports powersdim and nothing from the benchmark's checking code, so its
peak RSS is the program's.  One thread, closed loop: each input starts
after the previous one has finished.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import ALL_PAIRS, INPUT, PARENT, Tracer, summarize

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60


def run_group(ps, spec: str) -> dict:
    g = ps.build_group(spec)
    res = ps.sdim_group(g)
    out = {"value": res.value, "witness": sorted(res.witness)}
    if g.n <= ps.DEFAULT_ORACLE_CAP:
        orc = ps.sdim_oracle(ps.power_graph(g))
        out["oracle"] = orc.value
        out["oracle_witness"] = sorted(orc.witness)
    return out


def run_graph(ps, graph: dict) -> dict:
    res = ps.sdim_oracle(ps.from_edge_list(graph))
    return {"value": res.value, "witness": sorted(res.witness)}


def run_cli(argv: list[str]) -> dict:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


class Runner:
    def __init__(self, ps, job: dict):
        self.ps = ps
        self.job = job
        self.inputs = job["inputs"]
        self.outputs: list[dict] = [Counter() for _ in self.inputs]
        self.tracer: Tracer | None = None
        self.cli_traces: list[Path] = []

    def cli_argv(self, spec: str, traced: bool) -> list[str]:
        if traced:
            trace_file = Path(self.job["out_dir"]) / f"cli-{len(self.cli_traces)}.json"
            self.cli_traces.append(trace_file)
            return [sys.executable, str(HERE / "cliprobe.py"), str(trace_file),
                    "compare", spec, "--json"]
        return [sys.executable, "-m", "powersdim.cli", "compare", spec, "--json"]

    def one(self, inp: dict, traced: bool) -> dict:
        kind = inp["kind"]
        try:
            if kind == "group":
                return run_group(self.ps, inp["spec"])
            if kind == "graph":
                return run_graph(self.ps, inp["graph"])
            return run_cli(self.cli_argv(inp["spec"], traced))
        except Exception as exc:  # counted as a failed input, the run goes on
            return {"error": f"{type(exc).__name__}: {exc}"}

    def run_pass(self, traced: bool) -> dict:
        tracer = self.tracer if traced else None
        first_span = len(tracer.spans) if tracer else 0
        lat, outs = [], []
        t_pass = perf_counter()
        for inp in self.inputs:
            if tracer:
                tracer.input_id = inp["id"]
            t0 = perf_counter()
            out = self.one(inp, traced)
            lat.append((perf_counter() - t0) * 1000.0)
            outs.append(out)
        wall = perf_counter() - t_pass
        for inp, out in zip(self.inputs, outs):
            self.outputs[inp["id"]][json.dumps(out, sort_keys=True)] += 1
        record = {"wall_s": wall, "latency_ms": lat}
        if tracer:
            record.update(self.pass_trace(first_span, wall, lat, outs))
        return record

    def pass_trace(self, first_span: int, wall: float, lat: list[float],
                   outs: list[dict]) -> dict:
        tracer = self.tracer
        summary = summarize(tracer.spans, first_span)
        counts = Counter(tracer.counts)
        tracer.counts.clear()
        sizes = tracer.drain_sizes()
        self_ms, calls, errors = summary["self_ms"], summary["calls"], summary["errors"]
        covered_ms = summary["covered_ms"]
        if self.cli_traces:
            covered_ms = sum(lat)  # each cli process is one top-level span
            for trace_file, ms, inp, out in zip(self.cli_traces, lat, self.inputs, outs):
                if out.get("rc") != 0:
                    errors["cli"] += 1
                try:
                    with open(trace_file) as fh:
                        child = json.load(fh)
                except FileNotFoundError:  # the process died before writing its trace
                    continue
                self_ms.update(child["self_ms"])
                calls.update(child["calls"])
                counts.update(child["counts"])
                sizes.update(child["sizes"])
                errors.update(child["errors"])
                self_ms["cli.process_overhead"] += ms - child["main_ms"]
                base = len(tracer.spans)
                for span in child["spans"]:
                    if span[PARENT] >= 0:
                        span[PARENT] += base
                    span[INPUT] = inp["id"]
                    tracer.spans.append(span)
            self.cli_traces.clear()
        n_inputs = len(self.inputs)
        return {
            "self_ms": dict(self_ms),
            "calls": dict(calls),
            "counts": dict(counts),
            "sizes": dict(sizes),
            "errors": dict(errors),
            "all_pairs_per_graph": sum(calls.get(n, 0) for n in ALL_PAIRS) / n_inputs,
            "uncovered_share": max(0.0, 1.0 - covered_ms / (wall * 1000.0)),
        }

    def timed(self, passes: int, traced: bool, deadline: float) -> list[dict]:
        """Up to `passes` passes; after the first, none starts past `deadline`."""
        out = []
        while len(out) < passes and not (out and perf_counter() > deadline):
            out.append(self.run_pass(traced))
        return out


def main() -> int:
    start = perf_counter()
    job = json.load(sys.stdin)
    import numpy
    import powersdim as ps

    runner = Runner(ps, job)
    runner.one(runner.inputs[0], traced=False)  # warm-up: first-call costs stay out of timing
    # a traced run leaves half the budget to its traced passes
    deadline = start + job["budget_s"]
    untraced_deadline = start + job["budget_s"] / 2 if job["traced_passes"] else deadline
    result = {"numpy": numpy.__version__,
              "passes": runner.timed(job["passes"], False, untraced_deadline)}
    if job["traced_passes"]:
        runner.tracer = Tracer()
        runner.tracer.install()
        try:
            result["traced_passes"] = runner.timed(job["traced_passes"], True, deadline)
        finally:
            runner.tracer.remove()
        with open(Path(job["out_dir"]) / "spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "input", "failed"],
                       "spans": runner.tracer.spans}, fh)
    usage = resource.RUSAGE_CHILDREN if job["workload"] == "cli" else resource.RUSAGE_SELF
    result["maxrss_kb"] = resource.getrusage(usage).ru_maxrss
    result["outputs"] = [[[json.loads(k), c] for k, c in o.items()] for o in runner.outputs]
    specs = sorted({i["spec"] for i in runner.inputs if i["kind"] == "group"})
    result["tables"] = {s: ps.build_group(s).table for s in specs}
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
