"""CLI behavior: outputs, exit codes, error prefixes, and determinism."""

import json

import pytest

import powersdim.cli as cli_module
import powersdim.groups as groups_module
import powersdim.sdim as sdim_module
from powersdim import CORPUS_SPECS, CliqueResult, build_group, \
    element_orders, from_edge_list, graph6_decode, maximal_cyclic_subgroups, power_graph, \
    sigma_of, to_edge_list
from powersdim.cli import main

from helpers import ref_cyclic_table, write_cayley_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute


def test_compute_z12_json(capsys):
    code, out, err = run(capsys, "compute", "Z12", "--json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["sdim"] == 9
    assert payload["order"] == 12
    assert payload["omega_reduced"] == 3
    assert payload["method"] == "ClosedFormCyclic"
    assert payload["closed_form"] == "ClosedFormCyclic"
    assert payload["witness"] is None
    assert payload["verified"] is True


def test_compute_q8_witness_check(capsys):
    code, out, err = run(capsys, "compute", "Q8", "--witness", "--check", "--json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["sdim"] == 6
    assert len(payload["witness"]) == 6
    assert payload["verified"] is True


def test_compute_d12_plain(capsys):
    code, out, err = run(capsys, "compute", "D12", "--no-timing")
    assert code == 0
    assert "sdim: 9" in out
    assert "time_ms" not in out


def test_compute_parse_error(capsys):
    code, out, err = run(capsys, "compute", "Z")
    assert code == 2
    assert err.startswith("ERROR:PARSE")


def test_compute_bad_cayley_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 0\n1 1\n")
    code, out, err = run(capsys, "compute", f"cayley:{path}")
    assert code == 2 and err.startswith("ERROR:PARSE")


NO_FILE = None
ENOENT = "[Errno 2] No such file or directory: {path!r}"


@pytest.mark.parametrize("kind, content, message", [
    ("cayley", NO_FILE, "cannot read Cayley file {path!r}: " + ENOENT),
    ("cayley", "", "Cayley file {path!r} is empty"),
    ("cayley", "2\n0 x\n1 0\n",
     "Cayley file {path!r} has a non-integer token: invalid literal for int() with base 10: 'x'"),
    ("cayley", "0\n", "Cayley file {path!r} declares order 0"),
    ("perm", NO_FILE, "cannot read perm file {path!r}: " + ENOENT),
    ("perm", "(1 2) (3 4) x\n", "{path}:1: not disjoint-cycle notation: '(1 2) (3 4) x'"),
    ("perm", "(1 2)\n(1 a)\n", "{path}:2: bad point in '(1 a)'"),
    ("perm", "\n  \n", "perm file {path!r} has no permutations"),
    ("edgelist", '{"n": 2, "edges": {"0": 1}}', '"edges" must be an array of [u, v] pairs'),
    ("graph6", "!\n", "bad graph6 size byte '!'"),
    ("graph6", "B!\n", "bad graph6 character '!'"),
])
def test_a_bad_input_file_is_one_parse_error_line(capsys, tmp_path, kind, content, message):
    path = tmp_path / f"input.{kind}"
    if content is not NO_FILE:
        path.write_text(content)
    command = "oracle" if kind in ("edgelist", "graph6") else "compute"
    code, out, err = run(capsys, command, f"{kind}:{path}")
    assert (code, out, err) == (2, "", f"ERROR:PARSE {message.format(path=str(path))}\n")


@pytest.mark.parametrize("big", [99999999999999999999999, -99999999999999999999999])
def test_compute_cayley_entry_outside_int64_is_a_parse_error(capsys, tmp_path, big):
    path = tmp_path / "big.txt"
    path.write_text(f"2\n0 1\n1 {big}\n")
    code, out, err = run(capsys, "compute", f"cayley:{path}")
    assert code == 2 and err.startswith("ERROR:PARSE") and "Traceback" not in err


def test_compute_check_on_a_cayley_file_above_128_elements(capsys, tmp_path):
    path = tmp_path / "z130.txt"
    write_cayley_file(path, ref_cyclic_table(130))
    code, out, err = run(capsys, "compute", f"cayley:{path}", "--check", "--json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["order"] == 130 and payload["verified"] is True


def test_compute_perm_file_with_a_huge_point_label(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("(1 2 99999999999999999999)\n")
    code, out, err = run(capsys, "compute", f"perm:{path}", "--json")
    assert code == 0 and not err
    assert json.loads(out)["order"] == 3


def test_a_perm_file_closure_over_the_cap_is_a_cap_error(capsys, tmp_path):
    path = tmp_path / "s8.txt"
    path.write_text("(1 2 3 4 5 6 7 8)\n(1 2)\n")
    code, out, err = run(capsys, "compute", f"perm:{path}")
    assert (code, out, err) == (
        2, "", "ERROR:CAP permutation closure exceeds the cap of 5040 elements\n")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_group_target(capsys):
    code, out, err = run(capsys, "oracle", "Z12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sdim"] == 9 and payload["method"] == "GenericOracle"


def test_oracle_edge_list_target(capsys, tmp_path):
    g = power_graph(build_group("Z6"))
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(to_edge_list(g)))
    code, out, err = run(capsys, "oracle", f"edgelist:{path}", "--json")
    assert code == 0
    assert json.loads(out)["sdim"] == 4


def test_oracle_graph6_target(capsys, tmp_path):
    path = tmp_path / "k3.g6"
    path.write_text("Bw\n")
    code, out, err = run(capsys, "oracle", f"graph6:{path}", "--json")
    assert code == 0
    assert json.loads(out)["sdim"] == 2


def test_oracle_cap_error(capsys):
    code, out, err = run(capsys, "oracle", "Z60", "--oracle-cap", "10")
    assert code == 2
    assert err.startswith("ERROR:CAP")


@pytest.mark.parametrize("payload", ['{"n": true, "edges": []}', '{"n": 2, "edges": [[true, 0]]}'])
def test_oracle_edge_list_with_a_json_boolean_is_a_parse_error(capsys, tmp_path, payload):
    path = tmp_path / "bool.json"
    path.write_text(payload)
    code, out, err = run(capsys, "oracle", f"edgelist:{path}")
    assert code == 2 and out == "" and err.startswith("ERROR:PARSE ") and "Traceback" not in err


def _fail(*args):
    raise AssertionError("the graph was built although it is over the oracle cap")


def test_oracle_cap_is_checked_before_the_graph_is_built(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli_module, "from_edge_list", _fail)
    monkeypatch.setattr(cli_module, "power_graph", _fail)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2000000, "edges": []}))
    code, out, err = run(capsys, "oracle", f"edgelist:{path}")
    assert (code, out, err) == (2, "", "ERROR:CAP oracle cap is 200 vertices, graph has 2000000\n")
    code, out, err = run(capsys, "oracle", "Z60", "--oracle-cap", "10")
    assert (code, out, err) == (2, "", "ERROR:CAP oracle cap is 10 vertices, graph has 60\n")


def test_oracle_on_an_order_too_large_to_compute_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setattr(cli_module, "build_group", _fail)
    code, out, err = run(capsys, "oracle", "E3^99999999999")
    assert (code, out) == (2, "")
    assert err.startswith("ERROR:PARSE order 3^99999999999 exceeds ")


@pytest.mark.parametrize("spec, order", [("Z1000", 1000), ("S6", 720), ("Z2xS5", 240)])
def test_oracle_cap_refuses_built_in_families_before_building_the_table(
        capsys, monkeypatch, spec, order):
    monkeypatch.setattr(cli_module, "build_group", _fail)
    code, out, err = run(capsys, "oracle", spec)
    assert (code, out) == (2, "")
    assert err == f"ERROR:CAP oracle cap is 200 vertices, graph has {order}\n"


# ---------------------------------------------------------------------------
# compare


def test_compare_z30(capsys):
    code, out, err = run(capsys, "compare", "Z30", "--no-timing")
    assert code == 0 and not err
    assert "ClosedFormCyclic" in out
    assert "GroupTheorem" in out
    assert "Diameter2Reduction" in out
    assert "GenericOracle" in out
    assert out.count("27") == 4
    assert "agreement: ok" in out


def test_compare_a4(capsys):
    code, out, err = run(capsys, "compare", "A4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert {row["sdim"] for row in payload["rows"]} == {10}


def test_compare_abelian(capsys):
    code, out, err = run(capsys, "compare", "Ab[2,6]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert {row["sdim"] for row in payload["rows"]} == {9}
    methods = [row["method"] for row in payload["rows"]]
    assert "ClosedFormAbelian" in methods


def test_compare_whole_corpus_exits_zero(capsys):
    # the headline regression: every method agrees on every corpus group
    for spec in CORPUS_SPECS:
        code, out, err = run(capsys, "compare", spec, "--no-timing")
        assert code == 0, (spec, err)


def test_compare_exits_3_when_methods_disagree(capsys, monkeypatch):
    real = sdim_module.omega_reduced_group
    monkeypatch.setattr(sdim_module, "omega_reduced_group", lambda g: real(g) + 1)
    code, out, err = run(capsys, "compare", "Z12", "--no-timing")
    assert code == 3 and err.startswith("ERROR:MISMATCH")
    assert "GroupTheorem gives 8" in err and "GenericOracle gives 9" in err


def test_a_family_that_is_not_a_chain_exits_3_without_a_traceback(capsys, monkeypatch):
    def with_a_non_chain(g):
        # lists <x> of order 6 among the 2-subgroups next to <x^3> and <x^2>,
        # whose intersections with <x>, of orders 2 and 3, are not nested
        x = element_orders(g).index(6)
        x2 = g.table[x][x]
        masks = groups_module.cyclic_masks(g)
        sub = [masks[y] for y in (x, g.table[x2][x], x2)]
        fam = maximal_cyclic_subgroups(g)
        return fam._replace(by_prime={**fam.by_prime, 2: tuple(sub)})

    monkeypatch.setattr(groups_module, "maximal_cyclic_subgroups", with_a_non_chain)
    code, out, err = run(capsys, "compare", "Z2xS3", "--no-timing")
    assert code == 3 and err == "ERROR:MISMATCH intersections do not form a chain\n"
    assert "Traceback" not in out + err


def test_compute_check_exits_3_when_the_witness_fails(capsys, monkeypatch):
    real = sdim_module.max_clique

    def clique_with_a_non_edge(graph):
        # same size, so every value still agrees, but the witness now leaves out
        # two non-adjacent classes: a mutually maximally distant pair
        u, v = next((u, v) for u in range(graph.n) for v in range(u + 1, graph.n)
                    if not graph.matrix[u, v])
        return CliqueResult(real(graph).size, (u, v))

    monkeypatch.setattr(sdim_module, "max_clique", clique_with_a_non_edge)
    code, out, err = run(capsys, "compute", "Z12", "--check", "--no-timing")
    assert code == 3 and err.startswith("ERROR:MISMATCH")
    assert "verified: false" in out
    code, out, err = run(capsys, "compute", "Z12", "--no-timing")
    assert code == 0 and "verified: false" in out and not err
    for argv in [("witness", "Z12"), ("compute", "Z12", "--witness")]:  # a printed witness is checked
        code, out, err = run(capsys, *argv, "--no-timing")
        assert code == 3 and err.startswith("ERROR:MISMATCH"), argv
        assert "verified: false" in out, argv


def test_compare_exits_3_when_the_oracle_cover_does_not_resolve(capsys, monkeypatch):
    real = sdim_module.min_vertex_cover

    def cover_with_an_uncovered_edge(srg):
        # same size, so every value still agrees, but a cover vertex v is swapped
        # for a vertex w off its edge v-x: that mutually maximally distant pair
        # is left unresolved
        cover = real(srg)
        v, x = next((v, x) for v in cover for x in range(srg.n)
                    if srg.matrix[v, x] and x not in cover)
        w = next(w for w in range(srg.n) if w not in cover and w != x)
        return sorted({*cover, w} - {v})

    monkeypatch.setattr(sdim_module, "min_vertex_cover", cover_with_an_uncovered_edge)
    for spec in ["S3", "Z6", "Q8", "S4"]:
        for command in ["compare", "oracle"]:
            code, out, err = run(capsys, command, spec, "--json")
            assert (code, out) == (3, ""), (command, spec)
            assert err.startswith("ERROR:MISMATCH GenericOracle cover of "), (command, spec, err)
            assert err.endswith(" vertices is not a strong resolving set\n"), (command, spec, err)


# ---------------------------------------------------------------------------
# table


def test_table_cyclic(capsys):
    code, out, err = run(capsys, "table", "--family", "cyclic", "--range", "2..12", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,order,sdim,omega_reduced,method"
    assert len(lines) == 12
    row12 = lines[-1].split(",")
    assert row12[:4] == ["12", "12", "9", "3"]


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "--family", "cyclic", "--range", "2..4")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "param  order   sdim  omega  method",
        "    2      2      1      1  ClosedFormCyclicPrimePower",
        "    3      3      2      1  ClosedFormCyclicPrimePower",
        "    4      4      3      1  ClosedFormCyclicPrimePower",
    ]


def test_table_quaternion(capsys):
    code, out, err = run(capsys, "table", "--family", "quaternion", "--range", "2..6", "--csv")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        k, order, value, _, _ = line.split(",")
        assert int(order) == 4 * int(k)
        assert int(value) == int(order) - 1 - sigma_of(2 * int(k))


def test_table_json_is_one_array_of_the_csv_rows(capsys):
    code, out, err = run(capsys, "table", "--family", "cyclic", "--range", "2..4", "--json")
    assert code == 0 and not err
    assert json.loads(out) == [
        {"param": 2, "order": 2, "sdim": 1, "omega_reduced": 1,
         "method": "ClosedFormCyclicPrimePower"},
        {"param": 3, "order": 3, "sdim": 2, "omega_reduced": 1,
         "method": "ClosedFormCyclicPrimePower"},
        {"param": 4, "order": 4, "sdim": 3, "omega_reduced": 1,
         "method": "ClosedFormCyclicPrimePower"},
    ]
    code, csv, err = run(capsys, "table", "--family", "cyclic", "--range", "2..4", "--csv")
    assert csv.splitlines()[1:] == [",".join(str(v) for v in row.values())
                                    for row in json.loads(out)]


def test_table_bad_range(capsys):
    for family, bounds, message in [
        ("cyclic", "abc", "bad range 'abc', expected lo..hi"),
        ("cyclic", "3..2", "empty range '3..2'"),
        ("cyclic", "12..2", "empty range '12..2'"),
        ("dihedral", "2..4", "family dihedral needs parameter >= 3"),
    ]:
        code, out, err = run(capsys, "table", "--family", family, "--range", bounds)
        assert (code, out, err) == (2, "", f"ERROR:PARSE {message}\n")


# ---------------------------------------------------------------------------
# witness / classify


def test_witness_command(capsys):
    code, out, err = run(capsys, "witness", "Z12", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["witness"]) == payload["sdim"] == 9
    assert payload["verified"] is True


def test_witness_text_has_the_keys_of_compute(capsys):
    code, out, err = run(capsys, "witness", "D12", "--no-timing")
    assert code == 0 and not err
    code, computed, err = run(capsys, "compute", "D12", "--witness", "--no-timing")
    assert out == computed
    assert "witness: [2, 4, 5, 6, 7, 8, 9, 10, 11]\n" in out and "verified: true\n" in out
    code, out, err = run(capsys, "witness", "D12")
    assert out.splitlines()[-1].startswith("time_ms: ")


def test_witness_is_compute_with_witness_on_the_corpus(capsys):
    for spec in CORPUS_SPECS:
        assert run(capsys, "witness", spec, "--json") == \
            run(capsys, "compute", spec, "--witness", "--json"), spec


def test_classify_command(capsys):
    code, out, err = run(capsys, "classify", "Z15", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_minus_2"] is True and payload["class"] == "cyclic-of-order-pq"
    code, out, err = run(capsys, "classify", "Z12", "--json")
    assert json.loads(out)["n_minus_2"] is False


@pytest.mark.parametrize("spec, text", [
    ("Q8", "group: Q8  order: 8  sdim: 6\nsdim = n-2: yes (generalized-quaternion-2-group)\n"),
    ("Z12", "group: Z12  order: 12  sdim: 9\nsdim = n-2: no\n"),
])
def test_classify_text(capsys, spec, text):
    assert run(capsys, "classify", spec) == (0, text, "")


# ---------------------------------------------------------------------------
# export


def test_export_graph6_round_trip(capsys):
    code, out, err = run(capsys, "export", "Z6", "--format", "graph6")
    assert code == 0
    assert graph6_decode(out.strip()) == power_graph(build_group("Z6"))


def test_export_dot(capsys):
    code, out, err = run(capsys, "export", "E2^2", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 3
    assert '0 [label="0 (ord 1)"];' in out


def test_export_json_round_trip(capsys):
    code, out, err = run(capsys, "export", "Z12", "--format", "json")
    assert code == 0
    assert from_edge_list(json.loads(out)) == power_graph(build_group("Z12"))


def test_export_reduced(capsys):
    code, out, err = run(capsys, "export", "Z6", "--format", "json", "--reduced")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3  # twin classes of the Z6 power graph


def test_export_oversized_graph6(capsys):
    code, out, err = run(capsys, "export", "Z100", "--format", "graph6")
    assert code == 2
    assert err.startswith("ERROR:CAP")


@pytest.mark.parametrize("argv, error, message", [
    (["compute", "Z12"], MemoryError("Unable to allocate 74.5 GiB for an array"),
     "Unable to allocate 74.5 GiB for an array"),
    (["table", "--family", "cyclic", "--range", "2..3", "--json"], MemoryError(),
     "MemoryError"),
], ids=["compute", "table"])
def test_running_out_of_memory_is_a_cap_error_without_a_traceback(capsys, monkeypatch,
                                                                  argv, error, message):
    def too_large(n):
        raise error

    monkeypatch.setattr(groups_module, "_cyclic_table", too_large)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"ERROR:CAP out of memory: {message}\n")


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("argv", [
    ["compute", "Z30", "--no-timing", "--witness"],
    ["compare", "Q16", "--no-timing"],
    ["table", "--family", "dihedral", "--range", "3..8", "--csv"],
    ["export", "A4", "--format", "dot"],
])
def test_byte_identical_reruns(capsys, argv):
    code1, out1, err1 = run(capsys, *argv)
    code2, out2, err2 = run(capsys, *argv)
    assert (code1, out1, err1) == (code2, out2, err2)
