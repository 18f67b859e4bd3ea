"""Differential suite: ``Synthesize()`` against its reference.

``tests/synthesis_reference.py`` holds the synthesis pipeline as it stood
before the match table of an allowed cell subset was shared across calls
and the truth-table helpers were memoized.  For every case the package's
:func:`~repro.synthesis.synthesize` must return an identical netlist —
gate names in insertion order, cells, pin maps, inputs and outputs — or
raise :class:`TechmapError` with the same message.  Resynthesis
candidates are stitched back into the design by net and gate name, so
any drift here would change every downstream layout and fault.

The reference pipeline runs with the reference ``Aig.cleanup``, which
rebuilds every node.  The cases run one after another in one process,
so later calls reuse tables that earlier ones built: the bench circuits
map onto the whole library, the extracted regions onto every complete
suffix of the fault-count order (the subsets the resynthesis procedure
uses), and one sequence alternates subsets and two libraries with the
same cell names.  Cut enumeration and ``Aig.cleanup`` are also compared
on their own, on random AIGs.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import BENCHMARKS, build_benchmark
from repro.library.osu018 import Library
from repro.netlist.circuit import CONST0, CONST1, Circuit, extract_subcircuit
from repro.synthesis import TechmapError, is_complete_subset, synthesize
from repro.synthesis.aig import Aig, aig_from_circuit
from repro.synthesis.rewrite import balance, enumerate_cuts
from tests import synthesis_reference as reference

_BENCH_CACHE = {}


def _bench(name, library):
    circuit = _BENCH_CACHE.get(name)
    if circuit is None:
        circuit = build_benchmark(name, library)
        _BENCH_CACHE[name] = circuit
    return circuit


def _outcome(synth, circuit, library, allowed, objective):
    """Everything observable about one synthesis call."""
    try:
        mapped = synth(circuit, library, allowed_cells=allowed,
                       objective=objective)
    except TechmapError as exc:
        return ("TechmapError", str(exc))
    return (
        mapped.name,
        list(mapped.inputs),
        list(mapped.outputs),
        [(g.name, g.cell, list(g.pins.items()), g.output)
         for g in mapped.gates.values()],
    )


def _assert_same(circuit, library, allowed=None, objective="area"):
    got = _outcome(synthesize, circuit, library, allowed, objective)
    with mock.patch.object(Aig, "cleanup", reference.aig_cleanup):
        want = _outcome(reference.synthesize, circuit, library, allowed,
                        objective)
    assert got == want, (circuit.name, allowed, objective)
    return got


def _complete_suffixes(library):
    order = library.order_by_internal_faults()
    return [
        [c.name for c in order[i:]]
        for i in range(len(order))
        if is_complete_subset(order[i:])
    ]


def _region(circuit, seed_index, size):
    """A connected set of *size* gates grown breadth-first from the
    gate at *seed_index* of the topological order."""
    order = circuit.topo_order()
    start = order[seed_index % len(order)]
    grown, seen = [start], {start}
    for gname in grown:
        gate = circuit.gates[gname]
        near = [circuit.driver(net) for net in gate.pins.values()]
        near += [load for load, _pin in sorted(circuit.loads(gate.output))]
        for other in near:
            if len(grown) == size:
                return grown
            if other is not None and other not in seen:
                seen.add(other)
                grown.append(other)
    return grown


@pytest.mark.parametrize("objective", ["area", "delay", "faults"])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_bench_circuits_identical(library, name, objective):
    got = _assert_same(_bench(name, library), library, objective=objective)
    assert got[0] != "TechmapError"


@pytest.mark.parametrize("name", ["sparc_lsu", "sparc_ifu"])
def test_regions_on_every_complete_suffix(library, name):
    circuit = _bench(name, library)
    suffixes = _complete_suffixes(library)
    assert len(suffixes) >= 10
    regions = [
        _region(circuit, seed_index, size)
        for seed_index, size in ((5, 3), (40, 8), (90, 20), (17, 41))
    ]
    assert sorted(len(r) for r in regions) == [3, 8, 20, 41]
    for k, gates in enumerate(regions):
        sub = extract_subcircuit(circuit, gates, name="csub")
        for allowed in suffixes:
            _assert_same(sub, library, allowed, "faults")
        # One region also under the area objective, longest suffix last.
        if k == 1:
            for allowed in reversed(suffixes):
                _assert_same(sub, library, allowed, "area")


def test_alternating_subsets_and_libraries(library):
    """Interleaved calls over different subsets, and over two libraries
    whose cells share names but not areas, each match their reference.

    A table served for the wrong subset or the wrong library would give
    the other call's netlist; the reference outputs are checked to
    differ, so such a mix-up cannot pass unnoticed.
    """
    areas = sorted(c.area for c in library)
    rank = {a: i for i, a in enumerate(areas)}
    flipped = Library("osu018_flipped", [
        dataclasses.replace(c, area=areas[-1 - rank[c.area]])
        for c in library
    ])
    assert flipped.names() == library.names()

    circuit = _bench("sparc_lsu", library)
    sub = extract_subcircuit(circuit, _region(circuit, 40, 30), name="csub")
    suffixes = _complete_suffixes(library)
    wide, narrow = suffixes[1], suffixes[12]
    calls = [
        (library, wide), (flipped, wide), (library, narrow),
        (flipped, narrow), (library, wide), (library, None),
        (flipped, None), (flipped, wide), (library, narrow),
    ]
    seen = {}
    for lib, allowed in calls:
        got = _assert_same(sub, lib, allowed, "area")
        key = (lib.name, tuple(allowed or ()))
        assert seen.setdefault(key, got) == got
    for allowed in (wide, narrow, ()):
        assert (seen[(library.name, tuple(allowed))]
                != seen[(flipped.name, tuple(allowed))]), allowed
    assert seen[(library.name, tuple(wide))] \
        != seen[(library.name, tuple(narrow))]


def test_insufficient_and_empty_subsets_raise_alike(library, tiny_circuit):
    for allowed in ([], ["BUFX2"], ["INVX1"], ["AND2X1", "OR2X1"]):
        got = _assert_same(tiny_circuit, library, allowed)
        assert got[0] == "TechmapError", allowed


@st.composite
def small_circuits(draw, cell_list):
    """Random small mapped circuits: constant pins, unused inputs, dead
    logic, outputs that feed other gates, and outputs that reduce to a
    constant or to an input.  Outputs are gate outputs, as in a region
    the resynthesis procedure extracts."""
    circuit = Circuit("prop")
    nets = [circuit.add_input(f"pi{i}")
            for i in range(draw(st.integers(1, 5)))]
    outs = []
    for k in range(draw(st.integers(1, 10))):
        cell = draw(st.sampled_from(cell_list))
        pins = {
            pin: draw(st.sampled_from(nets + [CONST0, CONST1]))
            for pin in cell.input_pins
        }
        circuit.add_gate(f"u{k}", cell.name, pins, f"w{k}")
        nets.append(f"w{k}")
        outs.append(f"w{k}")
    circuit.set_outputs(draw(st.lists(st.sampled_from(outs), min_size=1,
                                      max_size=4, unique=True)))
    return circuit


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_circuits_and_subsets_identical(library, data):
    names = library.names()
    circuit = data.draw(small_circuits([library[n] for n in names]))
    allowed = data.draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(names), max_size=len(names), unique=True),
        st.sampled_from(_complete_suffixes(library)),
    ))
    objective = data.draw(st.sampled_from(["area", "delay", "faults"]))
    _assert_same(circuit, library, allowed, objective)


def _structure(aig):
    return (aig.num_pis, aig.pi_names, aig.fanins, aig._strash,
            aig.outputs, aig.output_names)


@st.composite
def random_aigs(draw):
    """AIGs built through ``and_``/``or_``/``xor_``/``mux_`` over random
    literals, with random outputs: some nodes dangle, some outputs are
    constants, inputs or complemented."""
    aig = Aig(draw(st.integers(0, 5)))
    lits = [0, 1] + [aig.pi_lit(i) for i in range(aig.num_pis)]

    def lit():
        return draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))

    for _ in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(["and", "or", "xor", "mux"]))
        if op == "mux":
            lits.append(aig.mux_(lit(), lit(), lit()))
        else:
            lits.append(getattr(aig, op + "_")(lit(), lit()))
    for k in range(draw(st.integers(0, 4))):
        aig.add_output(lit(), f"o{k}")
    return aig


@settings(max_examples=300, deadline=None)
@given(random_aigs())
def test_cleanup_identical_to_rebuild(aig):
    before = _structure(aig)
    clean = aig.cleanup()
    assert _structure(clean) == _structure(reference.aig_cleanup(aig))
    assert _structure(aig) == before
    # A clean AIG is copied, never shared.
    again = clean.cleanup()
    assert _structure(again) == _structure(reference.aig_cleanup(clean))
    assert again.fanins is not clean.fanins
    assert again.outputs is not clean.outputs
    again.add_output(0, "extra")
    assert clean.output_names[-1:] != ["extra"]


@settings(max_examples=300, deadline=None)
@given(random_aigs())
def test_cuts_identical_on_random_aigs(aig):
    assert enumerate_cuts(aig) == reference.enumerate_cuts(aig)
    clean = aig.cleanup()
    assert enumerate_cuts(clean) == reference.enumerate_cuts(clean)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_cuts_identical_on_bench_aigs(library, name):
    cells = {c.name: c for c in library}
    aig = balance(aig_from_circuit(_bench(name, library), cells).cleanup())
    assert enumerate_cuts(aig) == reference.enumerate_cuts(aig)
