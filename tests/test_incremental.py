"""Cross-checks of the incremental ATPG engine against the standalone
encoder and against exhaustive search — both must agree exactly."""

from __future__ import annotations

import pytest

from repro.atpg import DetectionEncoder
from repro.atpg.incremental import IncrementalAtpg
from repro.faults import (
    BridgingFault,
    StuckAtFault,
    TransitionFault,
    enumerate_internal_faults,
    collapse_faults,
)
from repro.faults.model import FALL, RISE
from tests.sim_helpers import detected_by_patterns


def _external_faults(circuit):
    faults = []
    nets = sorted(circuit.internal_nets()) + list(circuit.inputs)
    for net in nets:
        for value in (0, 1):
            faults.append(StuckAtFault(
                f"sa{value}:{net}", "VIA-01", net=net, value=value
            ))
        for slow_to in (RISE, FALL):
            faults.append(TransitionFault(
                f"tr:{net}:{slow_to}", "VIA-01", net=net, slow_to=slow_to
            ))
        # Branch variants for every load of the net.
        for gname, pin in sorted(circuit.loads(net)):
            faults.append(StuckAtFault(
                f"sa0:{net}:{gname}.{pin}", "VIA-01",
                net=net, value=0, branch=(gname, pin),
            ))
    inner = sorted(circuit.internal_nets())
    for a, b in zip(inner, inner[1:]):
        faults.append(BridgingFault(
            f"br:{a}<{b}", "MET-01", victim=a, aggressor=b
        ))
    return faults


@pytest.mark.parametrize("fixture_name", ["adder4", "tiny_circuit"])
def test_incremental_matches_standalone(fixture_name, request, cells, library):
    circuit = request.getfixturevalue(fixture_name)
    faults = _external_faults(circuit)
    faults.extend(
        collapse_faults(enumerate_internal_faults(circuit, library))
    )
    standalone = DetectionEncoder(circuit, cells)
    incremental = IncrementalAtpg(circuit, cells)
    faults.sort(key=lambda f: (incremental._site_net(f) or "", f.fault_id))
    for fault in faults:
        want = standalone.encode(fault).solve()
        got, pair = incremental.decide(fault)
        assert got == want, fault.fault_id
        if got:
            assert detected_by_patterns(
                circuit, cells, [fault], [pair]
            ) == [True], fault.fault_id


def test_interleaved_sites_still_exact(adder4, cells, library):
    """Out-of-site-order processing re-encodes cones but stays exact."""
    faults = _external_faults(adder4)[:40]
    standalone = DetectionEncoder(adder4, cells)
    incremental = IncrementalAtpg(adder4, cells)
    # Deliberately NOT grouped by site.
    for fault in faults:
        want = standalone.encode(fault).solve()
        got, _pair = incremental.decide(fault)
        assert got == want, fault.fault_id


def test_redundant_checker_region(cells, library):
    """A guard structure like the benchmarks': the incremental engine
    must prove the fallback cone undetectable."""
    from repro.bench.builder import NetBuilder

    nb = NetBuilder("guarded")
    a = nb.inputs("a", 6)
    b = nb.inputs("b", 6)
    total, carries = nb.adder_with_carries(a, b)
    err = nb.adder_parity_check(a, b, total, carries)
    guarded = nb.guard_word(err, total)
    nb.outputs(guarded, "y")
    circuit = nb.build()

    # err stuck-at-0 must be undetectable (err is constant 0).
    err_net = None
    for gate in circuit:
        if gate.cell == "MUX2X1":
            err_net = gate.pins["S"]
            break
    assert err_net is not None
    fault = StuckAtFault("sa0:err", "VIA-01", net=err_net, value=0)
    incremental = IncrementalAtpg(circuit, cells)
    got, _ = incremental.decide(fault)
    assert got is False
    # err stuck-at-1 forces the fallback everywhere: detectable.
    fault1 = StuckAtFault("sa1:err", "VIA-01", net=err_net, value=1)
    got1, pair = incremental.decide(fault1)
    assert got1 is True
    assert detected_by_patterns(circuit, cells, [fault1], [pair]) == [True]
