"""Command-line front end.

Commands: compute, oracle, compare, table, witness, classify, export.
Group targets use the spec grammar (Z12, D12, Q8, E2^3, Ab[2,6], S4, A5,
Z3xQ8, cayley:<path>, perm:<path>); the oracle command also accepts
edgelist:<path> (edge-list JSON) and graph6:<path> graph files.

Errors go to stderr, one line each, with greppable prefixes:
ERROR:PARSE (exit 2: a bad argument, spec or input file),
ERROR:MISMATCH (exit 3: methods disagree, or a witness fails the definitional check),
ERROR:CAP (exit 2: an oracle or permutation closure cap, or out of memory).

The process entry, of `python -m powersdim.cli` and of the `powersdim`
console script, is run(): main(), then gc.freeze(), then sys.exit.  main()
is the in-process call for tests and library callers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from . import __version__
from .graphs import (Disconnected, from_edge_list, graph6_decode, graph6_encode,
                     power_graph, reduced_graph, to_dot, to_edge_list)
from .groups import (Cyclic, Dihedral, ElementaryAbelian, GeneralizedQuaternion,
                     InvalidSpec, NotAGroup, ClosureTooLarge, build_group,
                     element_orders, parse_spec, spec_order, spec_string)
from .sdim import (DEFAULT_ORACLE_CAP, InternalInconsistency, OracleCapExceeded,
                   SdimResult, check_oracle_cap, classify_n_minus_2, sdim_group,
                   sdim_oracle)

# powersdim runs no matrix product, so OpenBLAS's thread pool only costs
# start-up time; a caller's own count is kept.  numpy starts here, once,
# before any computation, and after the layers above have run (they load
# none of it), so that their compile does not peak on top of numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy  # noqa: E402,F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 3


def _err(prefix: str, message: str) -> None:
    # one line, whatever line breaks the message quotes from its input
    print(f"ERROR:{prefix} " + message.replace("\n", r"\n"), file=sys.stderr)


def _print_result(group_name: str, order: int, res: SdimResult, args, ms: float) -> None:
    result = {
        "group": group_name,
        "order": order,
        "sdim": res.value,
        "omega_reduced": res.omega_reduced,
        "method": res.method.value,
        "witness": sorted(res.witness) if args.witness else None,
    }
    if args.json:
        print(json.dumps(result))
        return
    if not args.witness:
        del result["witness"]
    for key, value in result.items():
        print(f"{key}: {'-' if value is None else value}")
    if not args.no_timing:
        print(f"time_ms: {ms:.1f}")


def _load_graph_target(target: str, oracle_cap: int):
    """Return (name, graph) for a group spec or a prefixed graph file.
    Edge lists and groups above oracle_cap are refused before their graph
    is allocated; built-in families, whose order follows from the spec,
    before their multiplication table is built."""
    if target.startswith("edgelist:"):
        path = target[len("edgelist:"):]
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and isinstance(data.get("n"), int):
            check_oracle_cap(data["n"], oracle_cap)
        return target, from_edge_list(data)
    if target.startswith("graph6:"):
        path = target[len("graph6:"):]
        with open(path) as fh:
            return target, graph6_decode(fh.read())
    spec = parse_spec(target)
    order = spec_order(spec)
    if order is not None:
        check_oracle_cap(order, oracle_cap)
    g = build_group(spec)
    check_oracle_cap(g.n, oracle_cap)  # file specs: the order is known only now
    return spec_string(spec), power_graph(g)


# ---------------------------------------------------------------------------
# Commands


def cmd_compute(args) -> int:
    spec = parse_spec(args.spec)
    g, name = build_group(spec), spec_string(spec)
    t0 = time.perf_counter()
    res = sdim_group(g, oracle_cap=args.oracle_cap if args.check else 0)
    _print_result(name, g.n, res, args, (time.perf_counter() - t0) * 1000.0)
    return EXIT_OK


def cmd_oracle(args) -> int:
    name, graph = _load_graph_target(args.target, args.oracle_cap)
    t0 = time.perf_counter()
    res = sdim_oracle(graph, oracle_cap=args.oracle_cap)
    _print_result(name, graph.n, res, args, (time.perf_counter() - t0) * 1000.0)
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = parse_spec(args.spec)
    g, name = build_group(spec), spec_string(spec)
    res = sdim_group(g, oracle_cap=args.oracle_cap)  # raises on any disagreement
    if args.json:
        payload = {
            "group": name,
            "order": g.n,
            "rows": [{"method": m.value, "sdim": v} for m, v, _ in res.rows],
            "agree": True,
        }
        print(json.dumps(payload))
    else:
        print(f"group: {name}  order: {g.n}")
        for m, v, ms in res.rows:
            if args.no_timing:
                print(f"{m.value:<28} {v}")
            else:
                print(f"{m.value:<28} {v:>6}  {ms:.1f}ms")
        print("agreement: ok")
    return EXIT_OK


_FAMILY_BUILDERS = {  # family -> its spec at a parameter, which checks the parameter
    "cyclic": Cyclic,
    "dihedral": lambda k: Dihedral(2 * k),
    "quaternion": lambda k: GeneralizedQuaternion(4 * k),
    "elementary": lambda k: ElementaryAbelian(2, k),
}


def cmd_table(args) -> int:
    try:
        lo, hi = map(int, args.range.split("..", 1))
    except ValueError:
        raise InvalidSpec(f"bad range {args.range!r}, expected lo..hi") from None
    if lo > hi:
        raise InvalidSpec(f"empty range {args.range!r}")
    rows = []
    for k in range(lo, hi + 1):
        g = build_group(_FAMILY_BUILDERS[args.family](k))
        res = sdim_group(g)
        rows.append((k, g.n, res.value, res.omega_reduced, res.method.value))
    if args.json:
        keys = ("param", "order", "sdim", "omega_reduced", "method")
        print(json.dumps([dict(zip(keys, row)) for row in rows]))
    elif args.csv:
        print("param,order,sdim,omega_reduced,method")
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        print(f"{'param':>5} {'order':>6} {'sdim':>6} {'omega':>6}  method")
        for k, order, value, omega, method in rows:
            print(f"{k:>5} {order:>6} {value:>6} {omega:>6}  {method}")
    return EXIT_OK


def cmd_classify(args) -> int:
    spec = parse_spec(args.spec)
    g, name = build_group(spec), spec_string(spec)
    res = sdim_group(g)
    hit, label = classify_n_minus_2(g)
    if hit != (res.value == g.n - 2):
        raise InternalInconsistency(f"classification disagrees with sdim for {name}")
    if args.json:
        print(json.dumps({"group": name, "order": g.n, "sdim": res.value,
                          "n_minus_2": hit, "class": label}))
    else:
        print(f"group: {name}  order: {g.n}  sdim: {res.value}")
        if hit:
            print(f"sdim = n-2: yes ({label})")
        else:
            print("sdim = n-2: no")
    return EXIT_OK


def cmd_export(args) -> int:
    g = build_group(args.spec)
    graph = power_graph(g)
    if args.reduced:
        red = reduced_graph(graph)
        out_graph = red.quotient
        sizes = [len(m) for m in red.class_members()]
        labels = [f"class {c} (size {s})" for c, s in enumerate(sizes)]
    else:
        out_graph = graph
        orders = element_orders(g)
        labels = [f"{v} (ord {orders[v]})" for v in range(g.n)]
    if args.format == "dot":
        sys.stdout.write(to_dot(out_graph, labels))
    elif args.format == "graph6":
        try:
            print(graph6_encode(out_graph))
        except ValueError as exc:
            _err("CAP", str(exc))
            return EXIT_PARSE
    else:  # json
        print(json.dumps(to_edge_list(out_graph)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Ends bad arguments at one ERROR:PARSE line, exit 2, not a usage block;
    add_subparsers builds each subcommand's parser with this class too."""

    def error(self, message: str):
        _err("PARSE", f"{self.prog}: {message}")
        self.exit(EXIT_PARSE)


def _add_common(p: argparse.ArgumentParser, *, oracle_cap: bool = False) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--no-timing", action="store_true",
                   help="omit timings for byte-reproducible output")
    if oracle_cap:
        p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                       metavar="N", help="vertex cap for the generic oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powersdim",
        description="Exact strong metric dimension of power graphs of finite groups.",
    )
    parser.add_argument("--version", action="version", version=f"powersdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute sdim of a group's power graph")
    p.add_argument("spec", help="group spec, e.g. Z12, D12, Q8, Ab[2,6], cayley:t.txt")
    p.add_argument("--witness", action="store_true", help="include a minimum witness set")
    p.add_argument("--check", action="store_true",
                   help="add the oracle within --oracle-cap (the witness is always checked)")
    _add_common(p, oracle_cap=True)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("oracle", help="run only the generic oracle")
    p.add_argument("target", help="group spec, edgelist:<path>, or graph6:<path>")
    p.add_argument("--witness", action="store_true", help="include the witness set")
    _add_common(p, oracle_cap=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="run every applicable method and compare")
    p.add_argument("spec")
    _add_common(p, oracle_cap=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table", help="tabulate a parametric family")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_BUILDERS))
    p.add_argument("--range", required=True, metavar="LO..HI",
                   help="parameters LO to HI; a negative LO is written --range=-1..3")
    p.add_argument("--csv", action="store_true", help="CSV output")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("witness", help="print a checked minimum witness set")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=cmd_compute, witness=True, check=False)  # compute --witness

    p = sub.add_parser("classify", help="test whether sdim equals n-2, with the class")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("export", help="serialize the power graph (or its reduction)")
    p.add_argument("spec")
    p.add_argument("--format", required=True, choices=["dot", "graph6", "json"])
    p.add_argument("--reduced", action="store_true", help="export the closed-twin quotient")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "oracle_cap", 0) < 0:
            parser.error(f"argument --oracle-cap: {args.oracle_cap} is below 0")
    except SystemExit as exc:
        # 2 after _Parser.error's ERROR:PARSE line, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OracleCapExceeded, ClosureTooLarge) as exc:  # before ValueError: both subclass it
        _err("CAP", str(exc))
        return EXIT_PARSE
    except (InvalidSpec, NotAGroup, Disconnected, ValueError,
            OSError, json.JSONDecodeError) as exc:
        _err("PARSE", str(exc))
        return EXIT_PARSE
    except InternalInconsistency as exc:
        _err("MISMATCH", str(exc))
        return EXIT_MISMATCH
    except MemoryError as exc:  # an input too large for this machine's memory
        _err("CAP", f"out of memory: {str(exc) or type(exc).__name__}")
        return EXIT_PARSE


def run() -> None:
    """Process entry: main(), then exit with its code.  gc.freeze() first
    moves every object still tracked into the permanent generation, so the
    interpreter's shutdown collections skip what the OS frees anyway;
    atexit handlers and stream flushing still run.  Never called in-process:
    a frozen object stays frozen for the rest of the interpreter."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
