"""Tests for the DFM guideline engine and fault translation."""

from __future__ import annotations

import pytest

from repro.dfm import (
    DENSITY,
    METAL,
    VIA,
    all_guidelines,
    build_fault_set,
    check_layout,
    external_faults_from_violations,
)
from repro.dfm.checker import BRIDGE, OPEN, LayoutViolation
from repro.faults.model import StuckAtFault, TransitionFault
from repro.physical import make_floorplan, place, route
from tests.conftest import random_mapped_circuit


@pytest.fixture(scope="module")
def designed(cells_mod, circuit_mod):
    fp = make_floorplan(circuit_mod, cells_mod)
    layout = place(circuit_mod, cells_mod, fp, seed=4)
    route(circuit_mod, cells_mod, layout)
    return layout


@pytest.fixture(scope="module")
def circuit_mod(cells_mod):
    return random_mapped_circuit(cells_mod, n_pi=10, n_gates=140, seed=6)


@pytest.fixture(scope="module")
def cells_mod():
    from repro.library import osu018_library

    return {c.name: c for c in osu018_library()}


class TestGuidelineDeck:
    def test_counts_match_paper(self):
        deck = all_guidelines()
        by_cat = {}
        for g in deck:
            by_cat[g.category] = by_cat.get(g.category, 0) + 1
        assert by_cat == {VIA: 19, METAL: 29, DENSITY: 11}

    def test_unique_ids(self):
        deck = all_guidelines()
        assert len({g.gid for g in deck}) == len(deck)

    def test_ids_follow_family_convention(self):
        for g in all_guidelines():
            prefix = g.gid.split("-")[0]
            assert prefix in ("VIA", "MET", "DEN")


class TestChecker:
    def test_runs_and_returns_violations(self, designed):
        violations = check_layout(designed)
        assert violations, "a routed layout should violate some guidelines"
        for v in violations:
            assert v.kind in (OPEN, BRIDGE)
            if v.kind == BRIDGE:
                assert v.other_net is not None
                assert v.other_net != v.net

    def test_deterministic(self, designed):
        a = check_layout(designed)
        b = check_layout(designed)
        assert [(v.guideline, v.net, v.location) for v in a] == [
            (v.guideline, v.net, v.location) for v in b
        ]

    def test_reported_guidelines_exist(self, designed):
        deck_ids = {g.gid for g in all_guidelines()}
        for v in check_layout(designed):
            assert v.guideline in deck_ids

    def test_subset_of_deck(self, designed):
        deck = [g for g in all_guidelines() if g.category == VIA]
        violations = check_layout(designed, deck)
        assert all(v.guideline.startswith("VIA-") for v in violations)


class TestTranslation:
    def test_open_yields_stuckat_and_transition(self, circuit_mod):
        net = next(iter(circuit_mod.internal_nets()))
        v = LayoutViolation("VIA-01", OPEN, net, None, (3, 4), None)
        faults = external_faults_from_violations(circuit_mod, [v])
        kinds = {type(f) for f in faults}
        assert kinds == {StuckAtFault, TransitionFault}

    def test_bridge_yields_one_dominant_fault(self, circuit_mod):
        nets = sorted(circuit_mod.internal_nets())[:2]
        v = LayoutViolation("MET-05", BRIDGE, nets[0], nets[1], (1, 1), None)
        faults = external_faults_from_violations(circuit_mod, [v])
        assert len(faults) == 1
        (fault,) = faults
        assert {fault.victim, fault.aggressor} == set(nets)
        # Mirrored reports collapse to the same single fault site.
        mirror = LayoutViolation(
            "MET-05", BRIDGE, nets[1], nets[0], (1, 1), None
        )
        again = external_faults_from_violations(circuit_mod, [v, mirror])
        assert len(again) == 1

    def test_constant_nets_skipped(self, circuit_mod):
        v = LayoutViolation("VIA-01", OPEN, "CONST0", None, (0, 0), None)
        assert external_faults_from_violations(circuit_mod, [v]) == []

    def test_duplicate_sites_dedupe(self, circuit_mod):
        net = next(iter(circuit_mod.internal_nets()))
        v = LayoutViolation("VIA-01", OPEN, net, None, (3, 4), None)
        faults = external_faults_from_violations(circuit_mod, [v, v])
        assert len(faults) == 2  # one SA + one transition, not four

    def test_branch_owner_preserved(self, circuit_mod):
        net = next(
            n for n in sorted(circuit_mod.internal_nets())
            if circuit_mod.loads(n)
        )
        gname, pin = next(iter(circuit_mod.loads(net)))
        v = LayoutViolation("VIA-02", OPEN, net, None, (9, 9), (gname, pin))
        faults = external_faults_from_violations(circuit_mod, [v])
        for f in faults:
            assert f.branch == (gname, pin)


class TestFaultSetAssembly:
    def test_internal_plus_external(self, circuit_mod, designed):
        from repro.library import osu018_library

        lib = osu018_library()
        fs = build_fault_set(circuit_mod, lib, designed)
        counts = fs.counts()
        assert counts["internal"] > 0
        assert counts["external"] > 0
        assert counts["total"] == counts["internal"] + counts["external"]
        expected_internal = sum(
            lib[g.cell].internal_fault_count for g in circuit_mod
        )
        assert counts["internal"] == expected_internal

    def test_fault_ids_unique(self, circuit_mod, designed):
        from repro.library import osu018_library

        fs = build_fault_set(circuit_mod, osu018_library(), designed)
        ids = [f.fault_id for f in fs]
        assert len(ids) == len(set(ids))
