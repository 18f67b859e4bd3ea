"""Unit tests for the layout data model and routing geometry details."""

from __future__ import annotations

from repro.physical.layout import Layout, M2, M3, PlacedGate, RouteSegment, Via
from repro.physical.routing import CHANNEL_TRACKS, subtrack


class TestPlacedGate:
    def test_pin_x_is_center(self):
        g = PlacedGate("g", "NAND2X1", x=10, y=2, width=4)
        assert g.pin_x == 12

    def test_width_one(self):
        g = PlacedGate("g", "INVX1", x=0, y=0, width=1)
        assert g.pin_x == 0


class TestRouteSegment:
    def test_length_and_orientation(self):
        h = RouteSegment("n", M2, 3, 5, 9, 5)
        v = RouteSegment("n", M3, 3, 1, 3, 7)
        assert h.length == 6 and h.horizontal
        assert v.length == 6 and not v.horizontal


class TestLayout:
    def _layout(self):
        lay = Layout(die_width=20, die_rows=4)
        lay.gates["a"] = PlacedGate("a", "INVX1", 0, 0, 2)
        lay.gates["b"] = PlacedGate("b", "NAND2X1", 5, 0, 3)
        lay.segments.append(RouteSegment("n1", M2, 1, 0, 6, 0))
        lay.segments.append(RouteSegment("n1", M3, 6, 0, 6, 2))
        lay.segments.append(RouteSegment("n2", M2, 0, 1, 4, 1))
        lay.vias.append(Via("n1", 6, 0, M2, M3))
        return lay

    def test_net_length(self):
        lay = self._layout()
        assert lay.net_length("n1") == 7
        assert lay.net_length("n2") == 4
        assert lay.wirelength() == 11

    def test_legal(self):
        assert self._layout().check_legal() == []

    def test_overlap_detected(self):
        lay = self._layout()
        lay.gates["c"] = PlacedGate("c", "INVX1", 1, 0, 2)
        assert any("overlap" in p for p in lay.check_legal())

    def test_out_of_die_detected(self):
        lay = self._layout()
        lay.gates["c"] = PlacedGate("c", "INVX1", 19, 0, 4)
        assert any("outside" in p or "span" in p for p in lay.check_legal())
        lay2 = self._layout()
        lay2.gates["d"] = PlacedGate("d", "INVX1", 0, 9, 1)
        assert lay2.check_legal()


class TestSubtrack:
    def test_in_range_and_deterministic(self):
        for net in ("a", "net42", "m_17"):
            for horizontal in (True, False):
                s = subtrack(net, horizontal)
                assert 0 <= s < CHANNEL_TRACKS
                assert s == subtrack(net, horizontal)

    def test_orientation_changes_hash(self):
        nets = [f"n{i}" for i in range(50)]
        assert any(
            subtrack(n, True) != subtrack(n, False) for n in nets
        )
