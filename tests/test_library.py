"""Tests for the standard cell library: logic, switch-level, defects."""

from __future__ import annotations

from repro.library import extract_udfm, osu018_library
from repro.library.defects import DYNAMIC, STATIC
from repro.library.transistor import (
    V0,
    V1,
    VX,
    VZ,
    SwitchNetwork,
    Stage,
    lit,
    ser,
)

EXPECTED_TT = {
    "INVX1": (1, 0b01),
    "INVX2": (1, 0b01),
    "INVX4": (1, 0b01),
    "INVX8": (1, 0b01),
    "BUFX2": (1, 0b10),
    "BUFX4": (1, 0b10),
    "NAND2X1": (2, 0b0111),
    "NOR2X1": (2, 0b0001),
    "AND2X1": (2, 0b1000),
    "AND2X2": (2, 0b1000),
    "OR2X1": (2, 0b1110),
    "OR2X2": (2, 0b1110),
    "XOR2X1": (2, 0b0110),
    "XNOR2X1": (2, 0b1001),
    "NAND3X1": (3, 0x7F),
    "NOR3X1": (3, 0x01),
    "AOI21X1": (3, 0x07),
    "OAI21X1": (3, 0x1F),
    "AOI22X1": (4, 0x0777),
    "OAI22X1": (4, 0x111F),
}


class TestSwitchNetwork:
    def test_inverter_values(self):
        net = SwitchNetwork(("A",), (Stage("Y", lit("A")),))
        assert net.evaluate(0) == V1
        assert net.evaluate(1) == V0

    def test_stuck_open_floats(self):
        net = SwitchNetwork(("A",), (Stage("Y", lit("A")),))
        # NMOS open: output floats when A=1.
        assert net.evaluate(1, overrides={"st0/0.n": "open"}) == VZ
        assert net.evaluate(0, overrides={"st0/0.n": "open"}) == V1

    def test_stuck_on_fights(self):
        net = SwitchNetwork(("A",), (Stage("Y", lit("A")),))
        # NMOS stuck on: with A=0 both networks conduct.
        assert net.evaluate(0, overrides={"st0/0.n": "on"}) == VX

    def test_bridge_to_rail_dominates(self):
        net = SwitchNetwork(("A",), (Stage("Y", lit("A")),))
        assert net.evaluate(1, bridges=[("Y", "VDD")]) == V1
        assert net.evaluate(0, bridges=[("Y", "GND")]) == V0

    def test_nand_pdn_series(self):
        net = SwitchNetwork(
            ("A", "B"), (Stage("Y", ser(lit("A"), lit("B"))),)
        )
        assert net.good_tt() == 0b0111

    def test_multi_stage(self):
        net = SwitchNetwork(
            ("A", "B"),
            (
                Stage("n1", ser(lit("A"), lit("B"))),
                Stage("Y", lit("n1")),
            ),
        )
        assert net.good_tt() == 0b1000  # AND

    def test_transistor_ids_unique(self):
        lib = osu018_library()
        for cell in lib:
            ids = cell.network.transistor_ids()
            assert len(ids) == len(set(ids))


class TestOsu018:
    def test_exactly_21_cells(self, library):
        assert len(library) == 21

    def test_truth_tables(self, library):
        for name, (n, tt) in EXPECTED_TT.items():
            cell = library[name]
            assert cell.n_inputs == n, name
            assert cell.tt == tt, name

    def test_mux_tt(self, library):
        mux = library["MUX2X1"]
        for m in range(8):
            a, b, s = m & 1, (m >> 1) & 1, (m >> 2) & 1
            assert mux.eval_minterm(m) == (b if s else a)

    def test_drive_strength_scales_internal_faults(self, library):
        assert (
            library["INVX1"].internal_fault_count
            < library["INVX2"].internal_fault_count
            < library["INVX4"].internal_fault_count
            < library["INVX8"].internal_fault_count
        )

    def test_small_cells_have_few_faults(self, library):
        """The resynthesis lever: small relaxed cells are nearly clean."""
        for name in ("INVX1", "NAND2X1", "NOR2X1"):
            assert library[name].internal_fault_count <= 4, name
        for name in ("XOR2X1", "AOI22X1", "MUX2X1"):
            assert library[name].internal_fault_count >= 8, name

    def test_order_by_internal_faults_descending(self, library):
        order = library.order_by_internal_faults()
        counts = [c.internal_fault_count for c in order]
        assert counts == sorted(counts, reverse=True)

    def test_subset(self, library):
        sub = library.subset(["INVX1", "NAND2X1"])
        assert len(sub) == 2
        assert "XOR2X1" not in sub

    def test_electrical_monotonicity(self, library):
        # Stronger drives: lower resistance, higher area.
        assert library["INVX1"].drive_res > library["INVX8"].drive_res
        assert library["INVX1"].area < library["INVX8"].area


class TestDefects:
    def test_defects_are_cell_level_testable(self, library):
        for cell in library:
            for defect in cell.internal_defects():
                assert defect.is_cell_level_testable(cell.tt), (
                    cell.name, defect.defect_id,
                )

    def test_defect_kinds(self, library):
        kinds = {
            d.kind for c in library for d in c.internal_defects()
        }
        assert kinds <= {STATIC, DYNAMIC}
        assert DYNAMIC in kinds  # stuck-opens must exist

    def test_static_defects_have_no_floating(self, library):
        for cell in library:
            for d in cell.internal_defects():
                if d.kind == STATIC:
                    assert not d.floating

    def test_guideline_families(self, library):
        for cell in library:
            for d in cell.internal_defects():
                family = d.guideline.split("-")[0]
                assert family in ("VIA", "MET", "DEN")

    def test_deterministic(self):
        a = osu018_library()["XOR2X1"].internal_defects()
        b = osu018_library()["XOR2X1"].internal_defects()
        assert [d.defect_id for d in a] == [d.defect_id for d in b]

    def test_signature_groups_equal_behaviour(self, library):
        cell = library["INVX8"]
        by_sig = {}
        for d in cell.internal_defects():
            by_sig.setdefault(d.signature, []).append(d)
        for sig, members in by_sig.items():
            faulty = {m.faulty for m in members}
            assert len(faulty) == 1


class TestUdfm:
    def test_entries_reference_defects(self, library):
        cell = library["NAND2X1"]
        ids = {d.defect_id for d in cell.internal_defects()}
        for entry in extract_udfm(cell):
            assert entry.defect_id in ids

    def test_static_entry_semantics(self, library):
        cell = library["NOR2X1"]
        for entry in extract_udfm(cell):
            if entry.kind != "static":
                continue
            m = cell.minterm_of(entry.test_pattern)
            assert entry.good_output == cell.eval_minterm(m)
            assert entry.faulty_output != entry.good_output

    def test_dynamic_entry_has_init(self, library):
        found = False
        for cell in library:
            for entry in extract_udfm(cell):
                if entry.kind == "dynamic":
                    assert entry.init_pattern is not None
                    assert entry.faulty_output != entry.good_output
                    found = True
        assert found
