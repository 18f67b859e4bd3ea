"""Tests for fault-status inheritance across equivalent resyntheses.

The soundness argument: detection is a functional property, so a
verdict for a fault keyed to unchanged gate/net names survives any
functionally-equivalent local replacement (replaced objects get fresh
names and never match a stale key).
"""

from __future__ import annotations

from repro.atpg import run_atpg
from repro.faults import enumerate_internal_faults
from repro.faults.collapse import behaviour_key
from repro.faults.model import StuckAtFault
from repro.netlist import extract_subcircuit, replace_subcircuit
from repro.synthesis import synthesize


def test_assume_undetectable_short_circuits(adder4, cells, library):
    faults = enumerate_internal_faults(adder4, library)
    faults.append(StuckAtFault("sa0:x", "VIA-01", net="s0", value=0))
    base = run_atpg(adder4, cells, faults, seed=1)
    keys = {
        behaviour_key(f) for f in faults
        if f.fault_id in base.undetectable
    }
    again = run_atpg(
        adder4, cells, faults, seed=1, assume_undetectable=keys
    )
    assert again.undetectable == base.undetectable
    assert again.detected == base.detected
    assert again.sat_calls <= base.sat_calls


def test_inherited_status_matches_recomputation(cells, library):
    """Resynthesize part of a circuit; inherited verdicts for untouched
    faults must equal a from-scratch reclassification."""
    from repro.bench import build_benchmark

    circuit = build_benchmark("sparc_lsu", library)
    faults = enumerate_internal_faults(circuit, library)
    base = run_atpg(circuit, cells, faults, seed=3)

    # Replace a small region.
    region = list(circuit.topo_order())[5:13]
    sub = extract_subcircuit(circuit, region)
    new_sub = synthesize(sub, library, objective="faults")
    candidate = replace_subcircuit(circuit, region, new_sub)

    cand_faults = enumerate_internal_faults(candidate, library)
    keys = {
        behaviour_key(f) for f in faults
        if f.fault_id in base.undetectable
    }
    fresh = run_atpg(candidate, cells, cand_faults, seed=3)
    inherited = run_atpg(
        candidate, cells, cand_faults, seed=3,
        assume_undetectable=keys, initial_tests=base.tests,
    )
    assert inherited.undetectable == fresh.undetectable
    assert inherited.sat_calls <= fresh.sat_calls


def test_unknown_keys_are_ignored(adder4, cells, library):
    faults = enumerate_internal_faults(adder4, library)
    bogus = {("sa", "no-such-net", 0, None)}
    result = run_atpg(
        adder4, cells, faults, seed=1, assume_undetectable=bogus
    )
    plain = run_atpg(adder4, cells, faults, seed=1)
    assert result.undetectable == plain.undetectable
