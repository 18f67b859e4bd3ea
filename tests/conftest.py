"""Shared fixtures: the library, cell maps, small reference circuits, and
the helpers tests use to inject SAT aborts and analysis crashes."""

from __future__ import annotations

import importlib.util
import os
import pickle
import random
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import pytest

from repro.atpg.sat import UNKNOWN, Solver
from repro.bench.builder import NetBuilder
from repro.faults.model import (
    FALL,
    RISE,
    BridgingFault,
    StuckAtFault,
    TransitionFault,
)
from repro.faults.sites import enumerate_internal_faults
from repro.library import osu018_library
from repro.netlist import Circuit


@pytest.fixture(scope="session")
def library():
    return osu018_library()


@pytest.fixture(scope="session")
def cells(library):
    return {c.name: c for c in library}


@pytest.fixture()
def adder4(cells):
    """A 4-bit ripple-carry adder built from library cells."""
    nb = NetBuilder("adder4")
    a = nb.inputs("a", 4)
    b = nb.inputs("b", 4)
    total, carry = nb.adder(a, b)
    nb.outputs(total, "s")
    nb.output(carry, "cout")
    return nb.build()


@pytest.fixture()
def tiny_circuit():
    """y = NAND(a, b), z = NOT(y) — the smallest multi-gate circuit."""
    c = Circuit("tiny")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("u1", "NAND2X1", {"A": "a", "B": "b"}, "y")
    c.add_gate("u2", "INVX1", {"A": "y"}, "z")
    c.set_outputs(["y", "z"])
    c.validate()
    return c


def mixed_fault_list(circuit, library=None, seed=0, per_kind=8):
    """Faults of every model on random sites of *circuit*.

    Used by the differential and determinism suites: stem and branch
    stuck-ats, slow-to-rise/fall transitions (stem and branch), dominant
    bridges, and — when *library* is given — a sample of the circuit's
    cell-aware internal faults.
    """
    rng = random.Random(seed)
    nets = list(circuit.inputs) + [g.output for g in circuit.gates.values()]
    faults = []
    for net in rng.sample(nets, min(per_kind, len(nets))):
        faults.append(
            StuckAtFault(f"sa0:{net}", "MET-01", net=net, value=0))
        faults.append(
            StuckAtFault(f"sa1:{net}", "MET-01", net=net, value=1))
        faults.append(
            TransitionFault(f"str:{net}", "VIA-01", net=net, slow_to=RISE))
        faults.append(
            TransitionFault(f"stf:{net}", "VIA-01", net=net, slow_to=FALL))
    gnames = rng.sample(sorted(circuit.gates), min(per_kind, len(circuit.gates)))
    for gname in gnames:
        gate = circuit.gates[gname]
        pin = rng.choice(sorted(gate.pins))
        net = gate.pins[pin]
        faults.append(StuckAtFault(
            f"sab:{gname}.{pin}", "MET-02", net=net,
            value=rng.randint(0, 1), branch=(gname, pin),
        ))
        faults.append(TransitionFault(
            f"stb:{gname}.{pin}", "VIA-02", net=net,
            slow_to=rng.choice([RISE, FALL]), branch=(gname, pin),
        ))
    for k in range(per_kind):
        victim, aggressor = rng.sample(nets, 2)
        faults.append(BridgingFault(
            f"br{k}:{victim}-{aggressor}", "MET-03",
            victim=victim, aggressor=aggressor,
        ))
    if library is not None:
        internal = enumerate_internal_faults(circuit, library)
        faults.extend(
            rng.sample(internal, min(4 * per_kind, len(internal))))
    return faults


def random_mapped_circuit(cells, n_pi=8, n_gates=60, n_po=8, seed=0):
    """A random (possibly dead-logic-containing) mapped netlist."""
    rng = random.Random(seed)
    c = Circuit(f"rand{seed}")
    nets = [c.add_input(f"pi{i}") for i in range(n_pi)]
    pool = list(cells.values())
    for k in range(n_gates):
        cell = rng.choice(pool)
        pins = {p: rng.choice(nets[-30:]) for p in cell.input_pins}
        c.add_gate(f"u{k}", cell.name, pins, f"w{k}")
        nets.append(f"w{k}")
    c.set_outputs(rng.sample(nets[n_pi:], min(n_po, n_gates)))
    c.validate()
    return c


@dataclass
class Injections:
    """What a failure-injection helper saw and did."""

    calls: int = 0
    injected: int = 0


@contextmanager
def injected_sat_aborts(calls=frozenset(), rate=0.0, seed=0):
    """Abort chosen SAT calls inside the block, as a spent budget would.

    Patches :meth:`repro.atpg.sat.Solver.solve`.  Calls are numbered
    from 0 in the order they are made; a call whose index is in *calls*,
    or that a draw from ``random.Random(seed)`` puts under *rate*,
    skips the solve and returns UNKNOWN with ``last_abort_reason`` set
    to ``"injected"``.  Every other call solves normally.  Within
    ``run_atpg`` only ``IncrementalAtpg.decide`` calls the solver, once
    per fault it builds, so the indices count per-fault decisions.
    """
    rng = random.Random(seed)
    seen = Injections()
    real_solve = Solver.solve

    def solve(self, assumptions=(), **limits):
        index = seen.calls
        seen.calls += 1
        if index in calls or (rate > 0.0 and rng.random() < rate):
            seen.injected += 1
            self.last_abort_reason = "injected"
            return UNKNOWN
        return real_solve(self, assumptions, **limits)

    with mock.patch.object(Solver, "solve", solve):
        yield seen


class InjectedFailure(RuntimeError):
    """The crash :func:`fail_analysis_once` injects."""


def fail_analysis_once(monkeypatch):
    """Make the next ``analyze_design`` crash part-way through.

    Monkeypatches ``repro.core.flow.build_fault_set``, the fault
    extraction that runs between physical design and ATPG, with a
    raiser that fires on its first call only and delegates to the real
    function afterwards, like a transient crash.
    """
    import repro.core.flow as flow

    real = flow.build_fault_set
    seen = Injections()

    def build_fault_set(*args, **kwargs):
        seen.calls += 1
        if seen.calls == 1:
            seen.injected += 1
            raise InjectedFailure("injected failure in fault extraction")
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "build_fault_set", build_fault_set)
    return seen


def on_workers(fn, n):
    """``[fn(0), ..., fn(n - 1)]``, each on its own thread, started together.

    The way the campaign runner's inline ``--jobs`` runs tasks: threads
    of one process sharing every process-wide cache.
    """
    barrier = threading.Barrier(n)

    def body(i):
        barrier.wait()
        return fn(i)

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(body, range(n)))


_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(_TESTS_DIR)


def load_perfbench_spans():
    """The benchmark's tracer module, ``perfbench/spans.py``, loaded
    unedited from its file (``perfbench/`` is not a package)."""
    path = os.path.join(_REPO_ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans

# Child side of call_in_fresh_process: argv = [in.pkl, out.pkl].
_CHILD_MAIN = (
    "import importlib, pickle, sys\n"
    "with open(sys.argv[1], 'rb') as fh:\n"
    "    target, args = pickle.load(fh)\n"
    "module, _, name = target.partition(':')\n"
    "result = getattr(importlib.import_module(module), name)(*args)\n"
    "with open(sys.argv[2], 'wb') as fh:\n"
    "    pickle.dump(result, fh)\n"
)


def call_in_fresh_process(target, *args, hash_seed="1", timeout=900.0):
    """Call ``"module:function"`` with *args* in a new interpreter.

    The child imports everything itself, so it starts with cold caches
    and its own ``PYTHONHASHSEED`` — the situation of a campaign task
    run with ``--isolation process``.  Arguments and the return value
    travel by pickle; a failing child fails the calling test with its
    stderr.
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, _REPO_ROOT, env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = hash_seed
    with tempfile.TemporaryDirectory() as tmp:
        in_path = os.path.join(tmp, "in.pkl")
        out_path = os.path.join(tmp, "out.pkl")
        with open(in_path, "wb") as fh:
            pickle.dump((target, args), fh)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_MAIN, in_path, out_path],
            env=env, cwd=_REPO_ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out_path, "rb") as fh:
            return pickle.load(fh)
