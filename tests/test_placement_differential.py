"""Differential suite: the indexed annealing placer against its reference.

``tests/placement_reference.py`` holds the original placer loop.  The
indexed rewrite in :mod:`repro.physical.placement` must return an
identical :class:`~repro.physical.layout.Layout` — same gate key order,
``x``, ``y``, ``width`` and ``cell`` — for every circuit, seed and
effort, and must raise :class:`PlacementError` (with the same message)
exactly where the reference does.  Fault ids embed layout coordinates,
so any drift here would silently rename faults downstream.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import BENCHMARKS, build_benchmark
from repro.netlist.circuit import CONST0, CONST1, Circuit
from repro.physical import Floorplan, make_floorplan, place
from repro.physical.placement import PlacementError
from tests.placement_reference import place as reference_place

_BENCH_CACHE = {}


def _bench(name, library):
    circuit = _BENCH_CACHE.get(name)
    if circuit is None:
        circuit = build_benchmark(name, library)
        _BENCH_CACHE[name] = circuit
    return circuit


def _outcome(placer, circuit, cells, floorplan, seed, effort):
    """Everything observable about one placement call."""
    try:
        layout = placer(circuit, cells, floorplan, seed=seed, effort=effort)
    except PlacementError as exc:
        return ("PlacementError", str(exc))
    return (layout.die_width, layout.die_rows, list(layout.gates.items()))


def _assert_same(circuit, cells, floorplan, seed, effort):
    got = _outcome(place, circuit, cells, floorplan, seed, effort)
    want = _outcome(reference_place, circuit, cells, floorplan, seed, effort)
    assert got == want, (circuit.name, floorplan, seed, effort)
    return got


@pytest.mark.parametrize("effort", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_bench_circuits_identical(library, cells, name, effort):
    circuit = _bench(name, library)
    floorplan = make_floorplan(circuit, cells)
    for seed in (0, 1, 2):
        got = _assert_same(circuit, cells, floorplan, seed, effort)
        assert got[0] == floorplan.width  # placed, not an error


def test_one_and_two_gate_circuits(cells, tiny_circuit):
    single = Circuit("single")
    single.add_input("a")
    single.add_gate("u1", "INVX1", {"A": "a"}, "y")
    single.set_outputs(["y"])
    for circuit in (single, tiny_circuit):
        floorplan = make_floorplan(circuit, cells)
        for seed in range(4):
            for effort in (0, 1, 2):
                _assert_same(circuit, cells, floorplan, seed, effort)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 31, 32, 64])
def test_power_of_two_gate_counts(cells, n):
    """The annealer draws a gate from ``getrandbits(n.bit_length())``
    with rejection, as ``choice(range(n))`` does; a power of two is where
    ``(n - 1).bit_length()`` would differ.  Equal-width gates make every
    drawn pair a real move, so a different stream changes the layout."""
    circuit = Circuit(f"chain{n}")
    circuit.add_input("a")
    circuit.add_input("b")
    prev = "a"
    for k in range(n):
        circuit.add_gate(f"u{k}", "NAND2X1", {"A": prev, "B": "b"}, f"w{k}")
        prev = f"w{k}"
    circuit.set_outputs([prev])
    for floorplan in (make_floorplan(circuit, cells),
                      Floorplan(width=4 * n, rows=3)):
        for seed in range(4):
            _assert_same(circuit, cells, floorplan, seed, 1)


def test_die_too_small_raises_in_both(cells, tiny_circuit):
    floorplan = Floorplan(width=2, rows=2)
    got = _assert_same(tiny_circuit, cells, floorplan, 0, 1)
    assert got == ("PlacementError", "5 tracks needed, die has 4")


def test_row_overflow_raises_in_both(cells):
    # 24 tracks of 8-wide cells fit the 2 x 12 die by capacity, but no
    # row can take a second one.
    circuit = Circuit("overflow")
    circuit.add_input("a")
    circuit.add_input("b")
    for k in range(3):
        circuit.add_gate(f"x{k}", "XOR2X1", {"A": "a", "B": "b"}, f"y{k}")
    circuit.set_outputs(["y0", "y1", "y2"])
    got = _assert_same(circuit, cells, Floorplan(width=12, rows=2), 0, 1)
    assert got == ("PlacementError", "row overflow during initial placement")


@st.composite
def small_circuits(draw, cell_list):
    """Random small mapped circuits with the placer's corner cases.

    Cells of unequal widths, undriven (PI-only) nets, constant input
    pins, primary outputs without loads, dead logic and unused inputs.
    """
    circuit = Circuit("prop")
    nets = [circuit.add_input(f"pi{i}")
            for i in range(draw(st.integers(0, 4)))]
    for k in range(draw(st.integers(1, 10))):
        cell = draw(st.sampled_from(cell_list))
        pins = {
            pin: draw(st.sampled_from(nets + [CONST0, CONST1]))
            for pin in cell.input_pins
        }
        circuit.add_gate(f"u{k}", cell.name, pins, f"w{k}")
        nets.append(f"w{k}")
    circuit.set_outputs(draw(st.lists(st.sampled_from(nets), max_size=4,
                                      unique=True)))
    return circuit


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_random_small_circuits_identical(cells, data):
    circuit = data.draw(small_circuits(sorted(cells.values(),
                                              key=lambda c: c.name)))
    utilization = data.draw(st.one_of(st.none(), st.floats(0.3, 1.0)))
    if utilization is None:
        # Arbitrary dies: too small, row overflow, or roomy.
        floorplan = Floorplan(width=data.draw(st.integers(2, 48)),
                              rows=data.draw(st.integers(1, 8)))
    else:
        floorplan = make_floorplan(circuit, cells, utilization)
    seed = data.draw(st.integers(0, 2**16))
    effort = data.draw(st.integers(0, 2))
    _assert_same(circuit, cells, floorplan, seed, effort)
