"""Differential suite: the CDCL inner loops against their reference.

``tests/sat_reference.py`` holds the solver methods as they stood
before the in-place watch lists, the persistent analysis marks and the
deferred VSIDS heap push.  Those rewrites must not move the search: the
live :class:`Solver` must make the same decisions, conflicts and
propagations, learn the same clauses (literal order included, since
watch positions decide later lemmas) and return the same answers and
models on every call of a sequence that mixes assumptions, conflict and
decision budgets, learnt reduction and clause deletion.  After each
call every unassigned variable must own exactly one heap entry equal to
its activity: that invariant is what keeps ``_decide`` returning the
same variable.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.incremental import IncrementalAtpg, fault_site_net
from repro.atpg.sat import SAT, Solver
from repro.bench import build_benchmark
from repro.faults.model import (
    FALL,
    RISE,
    BridgingFault,
    StuckAtFault,
    TransitionFault,
)
from repro.faults.sites import enumerate_internal_faults
from tests.sat_reference import ReferenceSolver


@st.composite
def cnfs(draw, max_vars=24):
    """A random CNF over 3..max_vars variables, clauses of 2-5 literals."""
    n = draw(st.integers(3, max_vars))
    clause = st.lists(
        st.integers(1, n), min_size=2, max_size=min(5, n), unique=True
    ).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
    )
    clauses = draw(st.lists(clause, min_size=n, max_size=5 * n))
    return n, [list(c) for c in clauses]


@st.composite
def call_sequences(draw, n):
    """solve() calls, each optionally followed by database maintenance."""
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        assumptions = draw(st.lists(
            st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v))),
            max_size=4,
        ))
        conflict_budget = draw(st.one_of(st.none(), st.integers(0, 40)))
        decision_budget = draw(st.one_of(st.none(), st.integers(0, 40)))
        maintenance = draw(st.sampled_from(("none", "reduce", "delete")))
        reduce_args = (
            draw(st.integers(2, 5)),
            draw(st.integers(1, 3)),
            draw(st.one_of(st.none(), st.integers(0, 20))),
        )
        delete_seed = draw(st.integers(0, 2**16))
        calls.append((assumptions, conflict_budget, decision_budget,
                      maintenance, reduce_args, delete_seed))
    return calls


def _entries(solver):
    """Heap entries equal to their variable's activity, per unassigned
    variable (stale entries of older activities may linger)."""
    count = {}
    for neg_act, var in solver._heap:
        if -neg_act == solver._activity[var] and solver._val[var << 1] == 2:
            count[var] = count.get(var, 0) + 1
    return count


def _assert_heap_invariant(live, ref):
    """Every unassigned variable owns exactly one entry equal to its
    activity, in the live heap as in the reference's."""
    entries = _entries(live)
    assert entries == _entries(ref)
    unassigned = [v for v in range(1, live.num_vars + 1)
                  if live._val[v << 1] == 2]
    assert all(entries.get(v) == 1 for v in unassigned), entries


def _state(solver, answer):
    """Everything one solve() call leaves observable."""
    return (
        answer,
        solver.conflicts,
        solver.propagations,
        solver.restarts,
        solver.learned,
        solver.last_abort_reason,
        solver.model if answer == SAT else None,
        solver.clauses,
        solver._activity,
        solver._var_inc,
    )


def _run_in_lockstep(n, clauses, calls, var_inc=None):
    live, ref = Solver(), ReferenceSolver()
    for solver in (live, ref):
        for _ in range(n):
            solver.new_var()
        if var_inc is not None:
            solver._var_inc = var_inc
    for clause in clauses:
        assert live.add_clause(clause) == ref.add_clause(clause)
    for (assumptions, conflict_budget, decision_budget, maintenance,
         reduce_args, delete_seed) in calls:
        answers = [
            solver.solve(
                assumptions,
                conflict_budget=conflict_budget,
                decision_budget=decision_budget,
            )
            for solver in (live, ref)
        ]
        assert _state(live, answers[0]) == _state(ref, answers[1])
        _assert_heap_invariant(live, ref)
        assert not any(live._seen), "analysis marks left set"
        if maintenance == "reduce":
            assert live.reduce_learnts(*reduce_args) == \
                ref.reduce_learnts(*reduce_args)
        elif maintenance == "delete":
            rng = random.Random(delete_seed)
            doomed = [ci for ci in range(len(live.clauses))
                      if rng.random() < 0.2]
            live.delete_clauses(doomed)
            ref.delete_clauses(doomed)
        assert live.clauses == ref.clauses
    return live


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_call_sequences_identical(data):
    n, clauses = data.draw(cnfs())
    calls = data.draw(call_sequences(n))
    _run_in_lockstep(n, clauses, calls)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_identical_across_activity_rescale(data):
    n, clauses = data.draw(cnfs(max_vars=16))
    calls = data.draw(call_sequences(n))
    # A few bumps from the 1e100 cap: any conflict rescales mid-analysis.
    _run_in_lockstep(n, clauses, calls, var_inc=9.9e99)


def test_decision_abort_gives_back_its_heap_entry():
    """Decision budget 0: the first decision aborts right after
    ``_decide`` popped its variable's entry.  The entry comes back, so
    every unassigned variable still owns exactly one (checked here
    whether or not Hypothesis happens to draw a decision abort)."""
    calls = [([], None, 0, "none", (3, 2, None), 0)]
    live = _run_in_lockstep(4, [[1, 2], [-1, 3], [2, -3, 4]], calls)
    assert live.last_abort_reason == "decisions"
    assert _entries(live) == {1: 1, 2: 1, 3: 1, 4: 1}


def test_rescale_is_exercised_and_identical():
    """Hard random 3-SAT near the threshold, started at the rescale cap:
    the rescale runs inside analysis and both solvers still agree."""
    rng = random.Random(11)
    rescaled = 0
    for _trial in range(6):
        n = 18
        clauses = [
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(int(n * 4.3))
        ]
        calls = [([], None, None, "reduce", (3, 2, 4), 0),
                 ([1, -2], 30, None, "delete", (3, 2, None), 7),
                 ([], None, None, "none", (3, 2, None), 0)]
        live = _run_in_lockstep(n, clauses, calls, var_inc=9.9e99)
        rescaled += live._var_inc < 1e90
    assert rescaled, "no trial crossed the 1e100 cap"


# ----------------------------------------------------------------------
# Incremental ATPG on bench circuits
# ----------------------------------------------------------------------

def _full_fault_list(circuit, library):
    """Every stem stuck-at and transition fault, the cell-internal
    faults and a sample of bridges, in the engine's site-grouped order."""
    rng = random.Random(2026)
    nets = list(circuit.inputs) + [g.output for g in circuit.gates.values()]
    faults = list(enumerate_internal_faults(circuit, library))
    for net in nets:
        faults.append(StuckAtFault(f"sa0:{net}", "g", net=net, value=0))
        faults.append(StuckAtFault(f"sa1:{net}", "g", net=net, value=1))
        faults.append(TransitionFault(f"tr:{net}", "g", net=net, slow_to=RISE))
        faults.append(TransitionFault(f"tf:{net}", "g", net=net, slow_to=FALL))
    for k in range(60):
        victim, aggressor = rng.sample(nets, 2)
        faults.append(
            BridgingFault(f"br{k}", "g", victim=victim, aggressor=aggressor)
        )
    faults.sort(key=lambda f: (fault_site_net(circuit, f) or "", f.fault_id))
    return faults


@pytest.mark.parametrize("name", ["sparc_tlu", "sparc_lsu"])
def test_incremental_atpg_identical(library, cells, name):
    circuit = build_benchmark(name, library)
    faults = _full_fault_list(circuit, library)
    outcomes = []
    for solver in (None, ReferenceSolver()):
        engine = IncrementalAtpg(circuit, cells, solver=solver)
        decisions = [engine.decide(fault) for fault in faults]
        outcomes.append((decisions, engine.effort()))
    assert outcomes[0] == outcomes[1]
    verdicts = [detectable for detectable, _pair in outcomes[0][0]]
    assert True in verdicts and False in verdicts  # both kinds exercised
