"""Tests for the physical design substrate."""

from __future__ import annotations

import pytest

from repro.physical import (
    Floorplan,
    make_floorplan,
    pdesign,
    place,
    route,
    static_timing,
    power_analysis,
)
from repro.physical.floorplan import cell_tracks, total_tracks
from repro.physical.placement import PlacementError
from repro.physical.layout import M2, M3
from tests.conftest import random_mapped_circuit


@pytest.fixture(scope="module")
def placed(cells_mod, circuit_mod):
    fp = make_floorplan(circuit_mod, cells_mod)
    layout = place(circuit_mod, cells_mod, fp, seed=1)
    route(circuit_mod, cells_mod, layout)
    return fp, layout


@pytest.fixture(scope="module")
def circuit_mod(cells_mod):
    return random_mapped_circuit(cells_mod, n_pi=10, n_gates=120, seed=2)


@pytest.fixture(scope="module")
def cells_mod():
    from repro.library import osu018_library

    return {c.name: c for c in osu018_library()}


class TestFloorplan:
    def test_utilization_bounds(self, circuit_mod, cells_mod):
        fp = make_floorplan(circuit_mod, cells_mod, utilization=0.70)
        need = total_tracks(circuit_mod, cells_mod)
        assert need <= fp.capacity_tracks
        assert need / fp.capacity_tracks == pytest.approx(0.70, abs=0.12)

    def test_bad_utilization_raises(self, circuit_mod, cells_mod):
        with pytest.raises(ValueError):
            make_floorplan(circuit_mod, cells_mod, utilization=0.0)

    def test_cell_tracks_positive(self, cells_mod):
        for cell in cells_mod.values():
            assert cell_tracks(cell) >= 1


class TestPlacement:
    def test_legal(self, placed):
        _fp, layout = placed
        assert layout.check_legal() == []

    def test_all_gates_placed(self, placed, circuit_mod):
        _fp, layout = placed
        assert set(layout.gates) == set(circuit_mod.gates)

    def test_deterministic(self, circuit_mod, cells_mod):
        fp = make_floorplan(circuit_mod, cells_mod)
        l1 = place(circuit_mod, cells_mod, fp, seed=7)
        l2 = place(circuit_mod, cells_mod, fp, seed=7)
        assert {g.name: (g.x, g.y) for g in l1.gates.values()} == {
            g.name: (g.x, g.y) for g in l2.gates.values()
        }

    def test_too_small_die_raises(self, circuit_mod, cells_mod):
        with pytest.raises(PlacementError):
            place(circuit_mod, cells_mod, Floorplan(width=4, rows=2))

    def test_annealing_not_worse_than_initial(self, circuit_mod, cells_mod):
        fp = make_floorplan(circuit_mod, cells_mod)
        raw = place(circuit_mod, cells_mod, fp, seed=3, effort=0)
        ann = place(circuit_mod, cells_mod, fp, seed=3, effort=2)
        route(circuit_mod, cells_mod, raw)
        route(circuit_mod, cells_mod, ann)
        assert ann.wirelength() <= raw.wirelength() * 1.10


class TestRouting:
    def test_every_signal_net_routed(self, placed, circuit_mod):
        _fp, layout = placed
        routed = {s.net for s in layout.segments} | {
            v.net for v in layout.vias
        }
        for net in circuit_mod.nets():
            if circuit_mod.loads(net) or net in circuit_mod.outputs:
                assert net in routed, net

    def test_segments_axis_parallel(self, placed):
        _fp, layout = placed
        for seg in layout.segments:
            assert seg.x1 == seg.x2 or seg.y1 == seg.y2
            assert (seg.layer == M2) == seg.horizontal

    def test_pin_vias_have_owners(self, placed):
        _fp, layout = placed
        owners = [v.owner for v in layout.vias if v.owner and v.owner[1]]
        assert owners, "expected sink-pin vias with (gate, pin) owners"

    def test_net_length_positive(self, placed, circuit_mod):
        _fp, layout = placed
        total = sum(layout.net_length(n) for n in circuit_mod.nets())
        assert total == layout.wirelength()
        lengths = layout.net_lengths()
        for n in circuit_mod.nets():
            assert lengths[n] == layout.net_length(n)


class TestTimingPower:
    def test_arrival_monotone_along_paths(self, placed, circuit_mod, cells_mod):
        _fp, layout = placed
        report = static_timing(circuit_mod, cells_mod, layout)
        for gname in circuit_mod.gates:
            gate = circuit_mod.gates[gname]
            out_arr = report.arrival[gate.output]
            for net in gate.pins.values():
                assert report.arrival[net] < out_arr

    def test_critical_path_is_max(self, placed, circuit_mod, cells_mod):
        _fp, layout = placed
        report = static_timing(circuit_mod, cells_mod, layout)
        assert report.critical_path_delay == max(
            report.arrival[po] for po in circuit_mod.outputs
        )

    def test_wire_load_increases_delay(self, placed, circuit_mod, cells_mod):
        _fp, layout = placed
        with_wires = static_timing(circuit_mod, cells_mod, layout)
        without = static_timing(circuit_mod, cells_mod, None)
        assert with_wires.critical_path_delay > without.critical_path_delay

    def test_power_positive_and_deterministic(self, placed, circuit_mod, cells_mod):
        _fp, layout = placed
        p1 = power_analysis(circuit_mod, cells_mod, layout, seed=5)
        p2 = power_analysis(circuit_mod, cells_mod, layout, seed=5)
        assert p1.total > 0
        assert p1.dynamic == p2.dynamic
        assert p1.leakage == p2.leakage

    def test_leakage_is_cell_sum(self, circuit_mod, cells_mod):
        p = power_analysis(circuit_mod, cells_mod, None)
        expected = sum(cells_mod[g.cell].leakage for g in circuit_mod)
        assert p.leakage == pytest.approx(expected)


class TestPDesign:
    def test_constraints_self_satisfied(self, circuit_mod, cells_mod):
        pd = pdesign(circuit_mod, cells_mod, seed=1)
        assert pd.meets_constraints(pd, q_percent=0)

    def test_fixed_floorplan_reused(self, circuit_mod, cells_mod):
        pd1 = pdesign(circuit_mod, cells_mod, seed=1)
        pd2 = pdesign(circuit_mod, cells_mod, floorplan=pd1.floorplan, seed=2)
        assert pd2.floorplan == pd1.floorplan

    def test_constraint_rejects_big_delay(self, circuit_mod, cells_mod):
        pd = pdesign(circuit_mod, cells_mod, seed=1)
        import dataclasses

        worse_timing = dataclasses.replace(
            pd.timing, critical_path_delay=pd.delay * 1.2
        )
        from repro.physical.pdesign import PhysicalDesign

        worse = PhysicalDesign(
            circuit=pd.circuit, floorplan=pd.floorplan, layout=pd.layout,
            timing=worse_timing, power=pd.power, area_tracks=pd.area_tracks,
        )
        assert not worse.meets_constraints(pd, q_percent=5)
        assert worse.meets_constraints(pd, q_percent=25)
