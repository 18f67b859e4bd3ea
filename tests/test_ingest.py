"""Foreign netlist ingestion: ISCAS ``.bench`` + structural Verilog.

Covers the front-end parsers (:mod:`repro.netlist.ingest.bench`,
:mod:`repro.netlist.ingest.verilog`), the format-neutral
:class:`NetGraph` link checks, technology mapping under full and
deliberately starved cell libraries (:mod:`repro.netlist.ingest.lower`),
the strict/recovering entry points, the bundled benchmark set, the
``repro.runner ingest`` CLI, Hypothesis fuzzing of both parsers, and a
fault-simulation differential against the reference oracle on an
ingested circuit.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.fsim import PatternBatch, fault_simulate
from repro.netlist import parse_netlist
from repro.netlist.ingest import (
    BUNDLED,
    FORMAT_BENCH,
    FORMAT_NATIVE,
    FORMAT_VERILOG,
    IngestError,
    bundled_path,
    detect_format,
    ingest_file,
    ingest_text,
    load_file,
    parse_bench,
    parse_verilog,
)
from repro.runner.__main__ import main as runner_main
from tests.conftest import mixed_fault_list
from tests.fsim_reference import reference_fault_simulate
from tests.sim_helpers import simulate_patterns

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

C17 = """\
# c17 (inline copy for parser tests)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""

MIXED_BENCH = """\
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
OUTPUT(w)
t1 = AND(a, b, c)
t2 = OR(a, b)
t3 = XOR(t1, t2, c)
t4 = NAND(a, c)
t5 = NOR(t2, t4)
t6 = XNOR(t3, t5)
z = NOT(t6)
w = BUFF(t1)
"""

FULL_ADDER_V = """\
// one-bit full adder, gate level
module fa (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire p, g, t;
  xor u_p (p, a, b);
  xor u_s (sum, p, cin);
  and u_g (g, a, b);
  and u_t (t, p, cin);
  or  u_c (cout, g, t);
endmodule
"""


def _ref_eval(graph, assignment):
    """Reference evaluation of a (scan-converted) NetGraph."""
    drivers = {node.output: node for node in graph.nodes}
    memo = dict(assignment)

    def val(net):
        if net in memo:
            return memo[net]
        node = drivers[net]
        ins = [val(x) for x in node.inputs]
        if node.op == "AND":
            r = int(all(ins))
        elif node.op == "OR":
            r = int(any(ins))
        elif node.op == "NAND":
            r = 1 - int(all(ins))
        elif node.op == "NOR":
            r = 1 - int(any(ins))
        elif node.op == "XOR":
            r = sum(ins) & 1
        elif node.op == "XNOR":
            r = 1 - (sum(ins) & 1)
        elif node.op == "NOT":
            r = 1 - ins[0]
        elif node.op == "BUF":
            r = ins[0]
        else:  # pragma: no cover - DFFs are scan-converted away
            raise AssertionError(node.op)
        memo[net] = r
        return r

    return [val(net) for net in graph.outputs]


def _assert_matches_reference(graph, design, cells):
    """Exhaustively compare the mapped circuit against the IR semantics."""
    assert design.ok, design.report.render()
    circuit = design.circuit
    rename = dict(design.renames)
    n = len(graph.inputs)
    assert n <= 10, "exhaustive check needs a small design"
    patterns = []
    expected = []
    for bits in itertools.product((0, 1), repeat=n):
        assignment = dict(zip(graph.inputs, bits))
        expected.append(_ref_eval(graph, assignment))
        patterns.append({
            rename.get(pi, pi): v for pi, v in assignment.items()
        })
    results = simulate_patterns(circuit, cells, patterns)
    for got, want in zip(results, expected):
        mapped_outs = [rename.get(po, po) for po in graph.outputs]
        assert [got[po] for po in mapped_outs] == want


class TestBenchParser:
    def test_c17_parses(self):
        graph = parse_bench(C17, path="c17.bench")
        assert graph.report.ok, graph.report.render()
        assert len(graph.inputs) == 5
        assert graph.outputs == ["22", "23"]
        assert len(graph.nodes) == 6
        assert all(node.op == "NAND" for node in graph.nodes)

    def test_whitespace_and_comment_tolerance(self):
        messy = (
            "  # leading comment\n\n"
            "INPUT( a )\r\n"
            "  input(b)  # trailing comment\n"
            "OUTPUT(z)\n"
            "z  =  nand( a ,b )\n"
        )
        graph = parse_bench(messy)
        assert graph.report.ok, graph.report.render()
        assert graph.inputs == ["a", "b"]
        (node,) = graph.nodes
        assert node.op == "NAND" and node.inputs == ("a", "b")

    def test_buff_and_inv_aliases(self):
        graph = parse_bench(
            "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\n"
            "y = BUFF(a)\nz = INV(a)\n"
        )
        assert {n.op for n in graph.nodes} == {"BUF", "NOT"}

    def test_unary_arity_error_located(self):
        graph = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOT(a, b)\n", path="u.bench"
        )
        assert not graph.report.ok
        (diag,) = graph.report.by_code("syntax")
        assert diag.line == 4 and diag.path == "u.bench"

    def test_duplicate_definition_is_multi_driven(self):
        graph = parse_bench(
            "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUFF(a)\n", path="d.bench"
        )
        assert not graph.report.ok
        (diag,) = graph.report.by_code("multi-driven-net")
        assert diag.net == "z" and diag.line == 4

    def test_undeclared_fanin_is_undriven(self):
        graph = parse_bench(
            "INPUT(a)\nOUTPUT(z)\nz = NAND(a, ghost)\n", path="g.bench"
        )
        (diag,) = graph.report.by_code("undriven-net")
        assert diag.net == "ghost" and diag.line == 3

    def test_garbage_line_recovers_with_syntax_diag(self):
        graph = parse_bench(
            "INPUT(a)\nOUTPUT(z)\nthis is not bench\nz = NOT(a)\n"
        )
        assert not graph.report.ok
        assert graph.report.by_code("syntax")
        # The good statements were still collected.
        assert graph.inputs == ["a"] and len(graph.nodes) == 1

    def test_dff_scan_conversion(self):
        graph = parse_bench(
            "INPUT(d)\nOUTPUT(out)\n"
            "q = DFF(d)\nout = NOT(q)\n"
        )
        assert graph.report.ok, graph.report.render()
        assert graph.scan_cells == 1
        # Q became a pseudo-PI, D a pseudo-PO; no DFF node remains.
        assert "q" in graph.inputs
        assert "d" in graph.outputs
        assert all(node.op != "DFF" for node in graph.nodes)


class TestVerilogParser:
    def test_full_adder_parses(self):
        graph = parse_verilog(FULL_ADDER_V, path="fa.v")
        assert graph.report.ok, graph.report.render()
        assert graph.inputs == ["a", "b", "cin"]
        assert graph.outputs == ["sum", "cout"]
        assert len(graph.nodes) == 5

    def test_vector_declarations_expand(self):
        text = (
            "module vec (a, y);\n"
            "  input [3:0] a;\n"
            "  output y;\n"
            "  wire [1:0] t;\n"
            "  and u0 (t[0], a[0], a[1]);\n"
            "  and u1 (t[1], a[2], a[3]);\n"
            "  or  u2 (y, t[0], t[1]);\n"
            "endmodule\n"
        )
        graph = parse_verilog(text)
        assert graph.report.ok, graph.report.render()
        # [3:0] expands msb-first, matching the declaration order.
        assert graph.inputs == ["a[3]", "a[2]", "a[1]", "a[0]"]

    def test_multi_instance_statement(self):
        text = (
            "module m (a, b, y0, y1);\n"
            "  input a, b;\n  output y0, y1;\n"
            "  nand u0 (y0, a, b), u1 (y1, b, a);\n"
            "endmodule\n"
        )
        graph = parse_verilog(text)
        assert graph.report.ok, graph.report.render()
        assert len(graph.nodes) == 2

    def test_not_gate_last_port_is_input(self):
        text = (
            "module n (a, y0, y1);\n"
            "  input a;\n  output y0, y1;\n"
            "  not u0 (y0, y1, a);\n"
            "endmodule\n"
        )
        graph = parse_verilog(text)
        assert graph.report.ok, graph.report.render()
        assert len(graph.nodes) == 2
        assert all(n.op == "NOT" and n.inputs == ("a",) for n in graph.nodes)

    def test_ansi_header_ports(self):
        text = (
            "module h (input a, input b, output y);\n"
            "  and u0 (y, a, b);\n"
            "endmodule\n"
        )
        graph = parse_verilog(text)
        assert graph.report.ok, graph.report.render()
        assert graph.inputs == ["a", "b"] and graph.outputs == ["y"]

    def test_undeclared_signal_located(self):
        text = (
            "module u (a, y);\n"
            "  input a;\n  output y;\n"
            "  and u0 (y, a, ghost);\n"
            "endmodule\n"
        )
        graph = parse_verilog(text, path="u.v")
        assert not graph.report.ok
        diags = [d for d in graph.report.errors if "ghost" in d.message]
        assert diags and diags[0].line == 4

    def test_second_module_rejected(self):
        text = FULL_ADDER_V + "module two (y);\n output y;\nendmodule\n"
        graph = parse_verilog(text)
        assert not graph.report.ok
        assert any(
            "module" in d.message for d in graph.report.errors
        )


RESTRICTED_LIBRARIES = {
    "nand-inv": ("NAND2X1", "INVX1"),
    "nor-inv": ("NOR2X1", "INVX1"),
    "and-or-inv": ("AND2X1", "OR2X1", "INVX1"),
    "nand3-nor3": ("NAND2X1", "NAND3X1", "NOR2X1", "NOR3X1", "INVX1"),
}


class TestLowering:
    def test_full_library_matches_reference(self, cells):
        graph = parse_bench(MIXED_BENCH)
        design = ingest_text(MIXED_BENCH, FORMAT_BENCH, cells=cells)
        _assert_matches_reference(graph, design, cells)

    @pytest.mark.parametrize("lib_name", sorted(RESTRICTED_LIBRARIES))
    def test_starved_library_fallbacks_match_reference(self, cells, lib_name):
        subset = {
            name: cells[name] for name in RESTRICTED_LIBRARIES[lib_name]
        }
        graph = parse_bench(MIXED_BENCH)
        design = ingest_text(MIXED_BENCH, FORMAT_BENCH, cells=subset)
        _assert_matches_reference(graph, design, subset)
        used = {g.cell for g in design.circuit.gates.values()}
        assert used <= set(subset)

    def test_verilog_constants_simulate(self, cells):
        text = (
            "module k (a, y, z);\n"
            "  input a;\n  output y, z;\n  wire t;\n"
            "  or u0 (t, a, 1'b0);\n"
            "  assign y = t;\n"
            "  and u1 (z, a, 1'b1);\n"
            "endmodule\n"
        )
        design = ingest_text(text, FORMAT_VERILOG, cells=cells)
        assert design.ok, design.report.render()
        for pat in ({"a": 0}, {"a": 1}):
            (got,) = simulate_patterns(design.circuit, cells, [pat])
            assert got["y"] == pat["a"]
            assert got["z"] == pat["a"]

    def test_reserved_const_name_rejected(self, cells):
        text = "INPUT(a)\nOUTPUT(CONST0)\nCONST0 = NOT(a)\n"
        design = ingest_text(text, FORMAT_BENCH, cells=cells)
        assert design.circuit is None
        assert design.report.by_code("reserved-name")

    def test_unmappable_op_reported(self, cells):
        subset = {"AND2X1": cells["AND2X1"]}
        design = ingest_text(
            "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n", FORMAT_BENCH, cells=subset
        )
        assert design.circuit is None
        assert design.report.by_code("unmappable-op")

    def test_hostile_names_sanitized_and_recorded(self, cells):
        text = (
            "INPUT(sig-with+junk)\nOUTPUT(z)\n"
            "z = NOT(sig-with+junk)\n"
        )
        design = ingest_text(text, FORMAT_BENCH, cells=cells)
        assert design.ok, design.report.render()
        assert "sig-with+junk" in design.renames
        mapped = design.renames["sig-with+junk"]
        assert mapped in design.circuit.inputs


class TestEntryPoints:
    def test_detect_format_by_extension(self):
        assert detect_format("x.bench") == FORMAT_BENCH
        assert detect_format("x.v") == FORMAT_VERILOG
        assert detect_format("x.nl") == FORMAT_NATIVE

    def test_detect_format_by_sniffing(self):
        assert detect_format(None, "# comment\nINPUT(a)\n") == FORMAT_BENCH
        assert detect_format(None, "module m (a);\n") == FORMAT_VERILOG
        assert detect_format(None, "circuit c\n") == FORMAT_NATIVE

    def test_detect_format_unknown_raises(self):
        with pytest.raises(IngestError, match="cannot determine"):
            detect_format("mystery.txt", "???\n")

    def test_load_file_strict_raises_with_code(self, tmp_path):
        path = tmp_path / "bad.bench"
        path.write_text("INPUT(a)\nOUTPUT(z)\nz = NAND(a, ghost)\n")
        with pytest.raises(IngestError) as excinfo:
            load_file(str(path))
        err = excinfo.value
        assert err.code == "undriven-net"
        assert err.path == str(path)
        assert "ghost" in str(err)

    def test_parse_file_native_roundtrip(self, tmp_path):
        text = (
            "circuit tiny\ninput a\noutput z\n"
            "gate u1 INVX1 A=a > z\n"
        )
        path = tmp_path / "tiny.nl"
        path.write_text(text)
        circuit = load_file(str(path))
        assert circuit.name == "tiny"
        reference = parse_netlist(text)
        assert sorted(circuit.gates) == sorted(reference.gates)

    def test_bundled_path_unknown_name(self):
        with pytest.raises(IngestError, match="unknown bundled"):
            bundled_path("nope")

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled_benchmarks_ingest_clean(self, name, cells):
        design = ingest_file(bundled_path(name), cells=cells)
        assert design.ok, design.report.render()
        assert design.report.errors == []
        assert len(design.circuit.gates) > 0
        if name == "mul32":
            assert len(design.circuit.gates) >= 5000
        if name == "sreg16":
            assert design.scan_cells == 16

    def test_campaign_builds_ingested_circuit(self):
        from repro.runner.model import fingerprint_campaign
        from repro.runner.tasks import paper_campaign

        campaign = paper_campaign(["c17"], "ing", tables=(1,))
        fps = fingerprint_campaign(campaign)
        assert list(fps) == ["analyze:full:c17"]


class TestIngestCLI:
    def test_ingest_ok(self, capsys):
        assert runner_main(["ingest", bundled_path("c17")]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "6 gates" in out

    def test_ingest_bad_file_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.bench"
        path.write_text("INPUT(a)\nOUTPUT(z)\nz = NAND(a, ghost)\n")
        assert runner_main(["ingest", str(path)]) == 1
        out = capsys.readouterr().out
        assert "undriven-net" in out

    def test_ingest_json(self, capsys):
        assert runner_main(
            ["ingest", "--json", bundled_path("c17")]
        ) == 0
        (summary,) = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["gates"] == 6
        assert summary["format"] == FORMAT_BENCH

    def test_ingest_save_roundtrip(self, tmp_path, capsys, cells):
        save_dir = tmp_path / "native"
        assert runner_main([
            "ingest", bundled_path("c17"), "--save", str(save_dir),
        ]) == 0
        saved = save_dir / "c17.nl"
        assert saved.exists()
        circuit = load_file(str(saved), cells=cells)
        original = load_file(bundled_path("c17"), cells=cells)
        pats = [
            dict(zip(sorted(original.inputs), bits))
            for bits in itertools.product((0, 1), repeat=5)
        ]
        got = simulate_patterns(circuit, cells, pats)
        want = simulate_patterns(original, cells, pats)
        for g, w in zip(got, want):
            assert [g[o] for o in circuit.outputs] == \
                [w[o] for o in original.outputs]

    def test_check_with_format_flag(self, tmp_path, capsys):
        path = tmp_path / "fa.verilog"  # extension the sniffer can't use
        path.write_text(FULL_ADDER_V)
        assert runner_main(
            ["check", "--netlist", str(path), "--format", "verilog"]
        ) == 0
        assert "OK" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Hypothesis fuzzing
# ---------------------------------------------------------------------------

_sig = st.text(
    alphabet="abcGg01_", min_size=1, max_size=5,
).filter(lambda s: s.upper() not in ("CONST0", "CONST1"))


@st.composite
def _bench_programs(draw):
    """A structurally valid .bench text plus cosmetic mutations."""
    n_in = draw(st.integers(1, 4))
    ins = [f"i{k}" for k in range(n_in)]
    avail = list(ins)
    body = []
    for k in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(
            ["AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUFF"]
        ))
        arity = 1 if op in ("NOT", "BUFF") else draw(st.integers(2, 3))
        args = [draw(st.sampled_from(avail)) for _ in range(arity)]
        net = f"n{k}"
        body.append((net, op, args))
        avail.append(net)
    out = body[-1][0]
    lines = [f"INPUT({x})" for x in ins] + [f"OUTPUT({out})"] + [
        f"{net} = {op}({', '.join(args)})" for net, op, args in body
    ]
    # Cosmetic noise: comments, blank lines, spacing, case.
    noisy = []
    for line in lines:
        if draw(st.booleans()):
            line = line.replace(" = ", "=").replace(", ", " , ")
        if draw(st.booleans()):
            line = "  " + line + "   # noise"
        noisy.append(line)
        if draw(st.booleans()):
            noisy.append(draw(st.sampled_from(["", "# interlude"])))
    return "\n".join(lines) + "\n", "\n".join(noisy) + "\n"


class TestFuzz:
    @FUZZ
    @given(st.text(max_size=300))
    def test_bench_parser_total_on_arbitrary_text(self, text):
        graph = parse_bench(text)
        assert graph.report is not None

    @FUZZ
    @given(st.text(max_size=300))
    def test_verilog_parser_total_on_arbitrary_text(self, text):
        graph = parse_verilog(text)
        assert graph.report is not None

    @FUZZ
    @given(_bench_programs())
    def test_bench_cosmetic_noise_is_invisible(self, programs):
        clean_text, noisy_text = programs
        clean = parse_bench(clean_text)
        noisy = parse_bench(noisy_text)
        assert clean.report.ok, clean.report.render()
        assert noisy.report.ok, noisy.report.render()
        assert clean.inputs == noisy.inputs
        assert clean.outputs == noisy.outputs
        assert [
            (n.op, n.output, n.inputs) for n in clean.nodes
        ] == [(n.op, n.output, n.inputs) for n in noisy.nodes]

    @FUZZ
    @given(_bench_programs(), st.integers(0, 200))
    def test_bench_truncation_never_raises(self, programs, cut):
        text = programs[0]
        graph = parse_bench(text[: min(cut, len(text))])
        assert graph.report is not None

    @FUZZ
    @given(st.integers(0, len(FULL_ADDER_V)))
    def test_verilog_truncation_never_raises(self, cut):
        graph = parse_verilog(FULL_ADDER_V[:cut])
        assert graph.report is not None

    @FUZZ
    @given(_sig)
    def test_bench_name_collision_reported(self, name):
        text = (
            f"INPUT({name})\nOUTPUT(z)\n"
            f"{name} = NOT({name})\nz = BUFF({name})\n"
        )
        graph = parse_bench(text)
        assert not graph.report.ok
        assert graph.report.by_code("multi-driven-net")

    @FUZZ
    @given(_bench_programs())
    def test_fuzzed_programs_lower_and_simulate(self, cells, programs):
        text = programs[0]
        graph = parse_bench(text)
        design = ingest_text(text, FORMAT_BENCH, cells=cells)
        _assert_matches_reference(graph, design, cells)


class TestBackendDifferential:
    def test_ingested_circuit_identical_under_both_backends(
        self, cells, library
    ):
        """The event-driven fault simulator and the scalar reference
        oracle agree bit-for-bit on an ingested benchmark (good sim +
        fault sim detect words)."""
        circuit = load_file(bundled_path("ecc64"), cells=cells)
        faults = mixed_fault_list(circuit, library, seed=11)
        batch = PatternBatch.random(circuit, 96, seed=11)
        detect = fault_simulate(circuit, cells, faults, batch)
        assert detect == reference_fault_simulate(
            circuit, cells, faults, batch
        )
        assert any(detect)  # the check is not vacuous
