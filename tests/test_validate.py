"""Netlist linting and hardened parse-error reporting.

Covers the structural linter (:mod:`repro.netlist.validate`), the
located error messages of :func:`repro.netlist.io.parse_netlist`, and
the ``repro.runner check --netlist`` front end that gates campaigns on
clean circuits.
"""

from __future__ import annotations

import pytest

from repro.netlist import (
    Circuit,
    NetlistError,
    lint_circuit,
    lint_netlist_text,
    parse_netlist,
    write_netlist,
)
from repro.netlist.validate import FANOUT_WARN_THRESHOLD
from repro.runner.__main__ import main as runner_main

GOOD = """\
circuit good
input a b
output z
gate u1 NAND2X1 A=a B=b > y
gate u2 INVX1 A=y > z
"""

UNDRIVEN = """\
circuit bad
input a
output z
gate u1 NAND2X1 A=a B=miss > z
"""

LOOP = """\
circuit loop
input a
output z
gate u1 NAND2X1 A=a B=w2 > w1
gate u2 NAND2X1 A=a B=w1 > w2
gate u3 INVX1 A=w1 > z
"""


class TestParseErrors:
    def test_bad_pin_spec_names_file_and_line(self):
        text = GOOD.replace("A=a", "Aa")
        with pytest.raises(NetlistError, match=r"mine\.nl:4: .*'Aa'"):
            parse_netlist(text, path="mine.nl")

    def test_default_path_label(self):
        with pytest.raises(NetlistError, match=r"<netlist>:1: unknown"):
            parse_netlist("bogus directive\n")

    def test_statement_before_header_located(self):
        with pytest.raises(NetlistError, match=r"x\.nl:1: statement before"):
            parse_netlist("input a\n", path="x.nl")

    def test_duplicate_gate_located(self):
        text = GOOD + "gate u1 INVX1 A=z > q\n"
        with pytest.raises(NetlistError, match=r"dup\.nl:6: duplicate gate u1"):
            parse_netlist(text, path="dup.nl")

    def test_multi_driven_net_located(self):
        text = GOOD + "gate u3 INVX1 A=a > y\n"
        with pytest.raises(
            NetlistError, match=r"multi\.nl:6: net y already driven by u1"
        ):
            parse_netlist(text, path="multi.nl")

    def test_undriven_net_blames_gate_line(self):
        with pytest.raises(
            NetlistError,
            match=r"bad\.nl:4: net 'miss' feeding pin B of gate 'u1' "
                  r"has no driver",
        ):
            parse_netlist(UNDRIVEN, path="bad.nl")

    def test_cycle_reported_with_location(self):
        with pytest.raises(
            NetlistError, match=r"loop\.nl:5: combinational loop"
        ):
            parse_netlist(LOOP, path="loop.nl")

    def test_duplicate_output_blames_declaration_line(self):
        text = GOOD.replace("output z", "output z\noutput z")
        with pytest.raises(NetlistError, match=r"o\.nl:4: duplicate output z"):
            parse_netlist(text, path="o.nl")

    def test_good_netlist_still_parses(self):
        circuit = parse_netlist(GOOD, path="good.nl")
        assert sorted(circuit.gates) == ["u1", "u2"]


class TestParseErrorCodes:
    """parse_netlist failures carry machine-readable code/path/line
    attributes alongside the located message (PR 6 bugfix)."""

    def _raise(self, text, path):
        with pytest.raises(NetlistError) as excinfo:
            parse_netlist(text, path=path)
        return excinfo.value

    def test_multi_driven_net_coded(self):
        err = self._raise(GOOD + "gate u3 INVX1 A=a > y\n", "multi.nl")
        assert err.code == "multi-driven-net"
        assert err.path == "multi.nl"
        assert err.line == 6

    def test_undeclared_fanin_coded(self):
        err = self._raise(UNDRIVEN, "bad.nl")
        assert err.code == "undriven-net"
        assert err.path == "bad.nl"
        assert err.line == 4

    def test_cycle_coded(self):
        err = self._raise(LOOP, "loop.nl")
        assert err.code == "combinational-loop"
        assert err.path == "loop.nl"

    def test_floating_output_coded(self):
        text = GOOD.replace("output z", "output z ghost")
        err = self._raise(text, "f.nl")
        assert err.code == "floating-output"

    def test_syntax_error_coded(self):
        err = self._raise(GOOD.replace("A=a", "Aa"), "s.nl")
        assert err.code == "syntax"
        assert err.line == 4

    def test_diagnostic_conversion(self):
        err = self._raise(UNDRIVEN, "bad.nl")
        diag = err.diagnostic()
        assert diag.code == "undriven-net"
        assert diag.severity == "error"
        assert diag.path == "bad.nl"
        assert diag.line == 4
        assert "miss" in diag.message


# Each text must be accepted by both parse_netlist and load_file, or
# rejected by both with the same (code, line).
_AGREEMENT_CASES = {
    "good": GOOD,
    "circuit-extra-token": GOOD.replace("circuit good", "circuit good x"),
    "input-redeclared": GOOD.replace("input a b", "input a b\ninput a"),
    "input-gate-driven": GOOD + "input y\n",
    "gate-drives-input": GOOD + "gate u3 INVX1 A=z > a\n",
    "combinational-loop": LOOP,
    "unknown-directive-before-header": "bogus directive\n" + GOOD,
    "undriven-net": UNDRIVEN,
    "bad-pin-spec": GOOD.replace("A=a", "Aa"),
    "duplicate-gate": GOOD + "gate u1 INVX1 A=z > q\n",
}


class TestOneParser:
    """``parse_netlist`` and ``load_file`` parse the native format with
    the same parser, so they accept and reject the same texts."""

    @staticmethod
    def _outcome(load, *args, **kwargs):
        try:
            circuit = load(*args, **kwargs)
        except NetlistError as exc:
            return ("error", exc.code, exc.line)
        return ("ok", write_netlist(circuit))

    @pytest.mark.parametrize("case", sorted(_AGREEMENT_CASES))
    def test_parse_netlist_agrees_with_load_file(self, case, tmp_path):
        from repro.netlist.ingest import load_file

        text = _AGREEMENT_CASES[case]
        path = tmp_path / f"{case}.nl"
        path.write_text(text)
        strict = self._outcome(parse_netlist, text, path=str(path))
        loaded = self._outcome(load_file, str(path))
        assert strict == loaded
        assert (strict[0] == "ok") == (case == "good")

    def test_codes_of_second_drivers(self):
        for case in ("input-redeclared", "input-gate-driven",
                     "gate-drives-input"):
            with pytest.raises(NetlistError) as excinfo:
                parse_netlist(_AGREEMENT_CASES[case])
            assert excinfo.value.code == "multi-driven-net", case


class TestLintCircuit:
    def test_clean_circuit_ok(self, cells):
        circuit = parse_netlist(GOOD)
        report = lint_circuit(circuit, cells=cells)
        assert report.ok
        assert report.diagnostics == []
        assert "clean" in report.render()

    def test_undriven_net_diagnostic(self):
        c = Circuit("c")
        c.add_input("a")
        c.add_gate("u1", "NAND2X1", {"A": "a", "B": "miss"}, "z")
        c.set_outputs(["z"])
        report = lint_circuit(c)
        assert not report.ok
        (diag,) = report.by_code("undriven-net")
        assert diag.net == "miss"
        assert diag.gate == "u1"

    def test_floating_output_diagnostic(self):
        c = Circuit("c")
        c.add_input("a")
        c.add_gate("u1", "INVX1", {"A": "a"}, "y")
        c.set_outputs(["y", "ghost"])
        report = lint_circuit(c)
        (diag,) = report.by_code("floating-output")
        assert diag.net == "ghost"

    def test_combinational_loop_diagnostic(self):
        c = Circuit("c")
        c.add_input("a")
        c.add_gate("u1", "NAND2X1", {"A": "a", "B": "w2"}, "w1")
        c.add_gate("u2", "NAND2X1", {"A": "a", "B": "w1"}, "w2")
        c.add_gate("u3", "INVX1", {"A": "w1"}, "z")
        c.set_outputs(["z"])
        # validate() raises; the linter reports and keeps going.
        with pytest.raises(NetlistError):
            c.validate()
        report = lint_circuit(c)
        (diag,) = report.by_code("combinational-loop")
        assert diag.gate in ("u1", "u2")
        assert "u1" in diag.message and "u2" in diag.message
        assert "u3" not in diag.message

    def test_duplicate_pin_net_is_not_a_loop(self):
        # Regression: both pins on the same net used to leave the gate
        # "stuck" in the Kahn pass and crash the cycle finder.
        c = Circuit("c")
        c.add_input("a")
        c.add_gate("u1", "AND2X1", {"A": "a", "B": "a"}, "y")
        c.add_gate("u2", "AND2X1", {"A": "y", "B": "y"}, "z")
        c.set_outputs(["z"])
        report = lint_circuit(c)
        assert report.ok
        assert not report.by_code("combinational-loop")

    def test_unknown_cell_and_bad_pins(self, cells):
        c = Circuit("c")
        c.add_input("a")
        c.add_gate("u1", "NOSUCHX1", {"A": "a"}, "w")
        c.add_gate("u2", "INVX1", {"IN": "w"}, "z")
        c.set_outputs(["z"])
        report = lint_circuit(c, cells=cells)
        assert {d.code for d in report.errors} == {"unknown-cell", "bad-pins"}

    def test_warnings_do_not_fail(self):
        c = Circuit("c")
        c.add_input("a")
        c.add_input("unused")
        c.add_gate("u1", "INVX1", {"A": "a"}, "z")
        c.add_gate("u2", "INVX1", {"A": "a"}, "dead")
        c.set_outputs(["z"])
        report = lint_circuit(c)
        assert report.ok
        assert {d.code for d in report.warnings} == {
            "dangling-net", "unused-input",
        }

    def test_fanout_anomaly_warning(self):
        c = Circuit("c")
        c.add_input("a")
        for i in range(FANOUT_WARN_THRESHOLD + 1):
            c.add_gate(f"u{i}", "INVX1", {"A": "a"}, f"w{i}")
        c.set_outputs([f"w{i}" for i in range(FANOUT_WARN_THRESHOLD + 1)])
        report = lint_circuit(c)
        (diag,) = report.by_code("fanout-anomaly")
        assert diag.net == "a"
        assert report.ok


class TestLintNetlistText:
    def test_collects_all_problems_in_one_pass(self):
        text = (
            "circuit messy\n"
            "input a\n"
            "output z q\n"
            "gate u1 NAND2X1 A=a Bb > w\n"      # bad pin spec
            "gate u2 INVX1 A=a > y\n"
            "gate u3 INVX1 A=a > y\n"           # multi-driven y
            "gate u4 INVX1 A=nowhere > z\n"     # undriven net
        )
        circuit, report = lint_netlist_text(text, path="messy.nl")
        assert circuit is not None
        codes = report.codes()
        assert {"syntax", "multi-driven-net", "undriven-net",
                "floating-output"} <= codes
        multi = report.by_code("multi-driven-net")[0]
        assert multi.net == "y" and multi.line == 6
        undriven = report.by_code("undriven-net")[0]
        assert undriven.net == "nowhere" and undriven.line == 7

    def test_no_header_returns_none(self):
        circuit, report = lint_netlist_text("input a\n")
        assert circuit is None
        assert not report.ok

    def test_clean_text_roundtrip(self, cells):
        circuit, report = lint_netlist_text(GOOD, cells=cells)
        assert report.ok and circuit is not None
        circuit.validate()


class TestRunnerCheckNetlist:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_clean_netlist_passes(self, tmp_path, capsys):
        path = self._write(tmp_path, "good.nl", GOOD)
        assert runner_main(["check", "--netlist", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_undriven_net_rejected_with_location(self, tmp_path, capsys):
        path = self._write(tmp_path, "bad.nl", UNDRIVEN)
        assert runner_main(["check", "--netlist", path]) == 1
        out = capsys.readouterr().out
        assert f"{path}:4" in out
        assert "[undriven-net]" in out
        assert "'miss'" in out

    def test_combinational_loop_rejected_with_location(self, tmp_path, capsys):
        path = self._write(tmp_path, "loop.nl", LOOP)
        assert runner_main(["check", "--netlist", path]) == 1
        out = capsys.readouterr().out
        assert "[combinational-loop]" in out
        # Anchored at one of the two gates on the cycle.
        assert f"{path}:4" in out or f"{path}:5" in out
        assert "w1" in out

    def test_check_without_args_errors(self, capsys):
        assert runner_main(["check"]) == 2
        assert "run_id" in capsys.readouterr().err


class TestPreflight:
    """The runner checks every circuit task in its fingerprint pass,
    before the run directory exists: the task's circuit must build and
    lint clean against the variant's cells."""

    def test_preflight_accepts_paper_campaign(self):
        from repro.runner.model import fingerprint_campaign
        from repro.runner.tasks import paper_campaign

        campaign = paper_campaign(["sparc_tlu"], "pf", tables=(1,))
        assert list(fingerprint_campaign(campaign)) == [
            "analyze:full:sparc_tlu"
        ]

    def test_preflight_reports_unbuildable_circuit(self, tmp_path):
        from repro.runner import Runner
        from repro.runner.model import CampaignError, CampaignSpec, TaskSpec

        campaign = CampaignSpec(run_id="pf2", tasks=[
            TaskSpec("analyze:full:nope", "analyze",
                     {"circuit": "nope", "variant": "full"}),
        ])
        with pytest.raises(CampaignError) as info:
            Runner(campaign, root=str(tmp_path)).execute()
        problems = str(info.value).splitlines()[1:]
        assert len(problems) == 1
        assert "analyze:full:nope" in problems[0]
        assert "nope" in problems[0]
        assert not (tmp_path / "pf2").exists()

    def test_lint_errors_listed_per_task(self, tmp_path, monkeypatch):
        """A circuit that builds but uses cells its variant lacks is
        reported diagnostic by diagnostic, against every task."""
        from repro.bench import build_benchmark
        from repro.runner import Runner, tasks
        from repro.runner.model import CampaignError
        from repro.runner.tasks import paper_campaign

        full = tasks._library_variant("full")
        circuit = build_benchmark("sparc_tlu", full)
        dropped = sorted({gate.cell for gate in circuit.gates.values()})[:2]
        variant = "exclude:" + ",".join(dropped)
        monkeypatch.setattr(
            tasks, "_built_circuit",
            lambda name, scale, variant: build_benchmark(name, full),
        )
        campaign = paper_campaign(
            ["sparc_tlu"], "pf3", tables=(1,), variants=(variant,),
        )
        campaign.tasks += paper_campaign(
            ["sparc_tlu"], "pf3", tables=(2,), variants=(variant,),
        ).tasks
        with pytest.raises(CampaignError) as info:
            Runner(campaign, root=str(tmp_path)).execute()
        lines = str(info.value).splitlines()
        assert lines[0].startswith("campaign check found ")
        assert lines[0].endswith("problem(s); nothing was run:")
        problems = lines[1:]
        assert len(problems) == int(lines[0].split()[3])
        for task_id in (f"analyze:{variant}:sparc_tlu",
                        f"resynthesize:{variant}:sparc_tlu"):
            mine = [p for p in problems if p.startswith(f"  task {task_id}: ")]
            assert mine and all("[unknown-cell]" in p for p in mine)
        assert not (tmp_path / "pf3").exists()
