"""Tests for the Section II clustering machinery."""

from __future__ import annotations

import pytest

from repro.core import are_adjacent, cluster_undetectable
from repro.faults import CellAwareFault, StuckAtFault
from repro.netlist import Circuit


@pytest.fixture()
def chain5(library):
    """g1 -> g2 -> g3 -> g4 -> g5 inverter chain."""
    c = Circuit("chain5")
    c.add_input("a")
    prev = "a"
    for i in range(1, 6):
        c.add_gate(f"g{i}", "INVX1", {"A": prev}, f"w{i}")
        prev = f"w{i}"
    c.set_outputs([prev])
    return c


def _internal(gate, library, idx=0):
    defect = library["INVX1"].internal_defects()[idx]
    return CellAwareFault(
        f"ca:{gate}:{defect.defect_id}", defect.guideline,
        gate=gate, defect=defect,
    )


class TestAdjacency:
    def test_same_gate_adjacent(self, chain5, library):
        fa = _internal("g2", library)
        fb = StuckAtFault("sa0:w2", "VIA-01", net="w2", value=0)
        assert are_adjacent(fa, fb, chain5)

    def test_driver_load_adjacent(self, chain5, library):
        fa = _internal("g1", library)
        fb = _internal("g2", library)
        assert are_adjacent(fa, fb, chain5)

    def test_distance_two_not_adjacent(self, chain5, library):
        fa = _internal("g1", library)
        fb = _internal("g3", library)
        assert not are_adjacent(fa, fb, chain5)

    def test_fig1_only_direct_drive_counts(self, cells):
        """Fig. 1 of the paper: g1 and g2 are adjacent only when one
        directly drives the other — sharing a fanin does not count."""
        c = Circuit("fig1")
        c.add_input("x")
        c.add_input("y")
        # (a)-style: g1 and g2 share the input x but neither drives the
        # other.
        c.add_gate("g1", "INVX1", {"A": "x"}, "p")
        c.add_gate("g2", "NAND2X1", {"A": "x", "B": "y"}, "q")
        # (c)-style: g3 is directly driven by g1.
        c.add_gate("g3", "INVX1", {"A": "p"}, "r")
        c.set_outputs(["q", "r"])
        f1 = StuckAtFault("f1", "VIA-01", net="p", value=0,
                          branch=("g3", "A"))
        f_g1 = StuckAtFault("fg1", "VIA-01", net="x", value=0,
                            branch=("g1", "A"))
        f_g2 = StuckAtFault("fg2", "VIA-01", net="y", value=0,
                            branch=("g2", "A"))
        assert not are_adjacent(f_g1, f_g2, c)  # share fanin only
        assert are_adjacent(f_g1, f1, c)  # g1 drives g3


class TestClusterPartition:
    def test_chain_forms_one_cluster(self, chain5, library):
        faults = [_internal(f"g{i}", library) for i in (1, 2, 3)]
        report = cluster_undetectable(chain5, faults)
        assert len(report.clusters) == 1
        assert report.smax == sorted(faults, key=lambda f: f.fault_id)

    def test_gap_splits_clusters(self, chain5, library):
        faults = [_internal(f"g{i}", library) for i in (1, 2, 4)]
        report = cluster_undetectable(chain5, faults)
        assert sorted(len(c) for c in report.clusters) == [1, 2]

    def test_stem_fault_bridges_gates(self, chain5, library):
        # g1 and g3 are not adjacent, but a stem fault on w2 corresponds
        # to both g2 (driver) and g3 (load), gluing everything together.
        faults = [
            _internal("g1", library),
            StuckAtFault("sa0:w2", "VIA-01", net="w2", value=0),
            _internal("g3", library),
        ]
        report = cluster_undetectable(chain5, faults)
        assert len(report.clusters) == 1

    def test_gmax_is_union_of_smax_gates(self, chain5, library):
        faults = [_internal(f"g{i}", library) for i in (1, 2)]
        faults.append(_internal("g5", library))
        report = cluster_undetectable(chain5, faults)
        assert report.gmax == {"g1", "g2"}
        assert report.gates_u == {"g1", "g2", "g5"}

    def test_empty_fault_list(self, chain5):
        report = cluster_undetectable(chain5, [])
        assert report.clusters == []
        assert report.smax == []
        assert report.gmax == set()
        assert report.n_undetectable == 0

    def test_sizes_sorted_desc(self, chain5, library):
        faults = [_internal(f"g{i}", library) for i in (1, 2, 4)]
        report = cluster_undetectable(chain5, faults)
        assert report.sizes() == sorted(report.sizes(), reverse=True)

    def test_smax_internal_subset(self, chain5, library):
        faults = [
            _internal("g1", library),
            StuckAtFault("sa0:w1", "VIA-01", net="w1", value=0),
        ]
        report = cluster_undetectable(chain5, faults)
        internal = report.smax_internal()
        assert all(f.origin == "internal" for f in internal)
        assert len(internal) == 1

    def test_deterministic_order(self, chain5, library):
        faults = [_internal(f"g{i}", library) for i in (1, 2, 4, 5)]
        r1 = cluster_undetectable(chain5, faults)
        r2 = cluster_undetectable(chain5, list(reversed(faults)))
        assert [
            [f.fault_id for f in c] for c in r1.clusters
        ] == [
            [f.fault_id for f in c] for c in r2.clusters
        ]
