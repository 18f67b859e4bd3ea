"""Reference CDCL solver: the inner loops as they stood before tuning.

:class:`ReferenceSolver` overrides every :class:`repro.atpg.sat.Solver`
method the inner-loop rewrite touched with its earlier body, verbatim:
``_propagate`` rebuilds a ``keep`` list per dequeued literal and scans
a ternary clause's third literal through ``range``; ``_analyze``
allocates ``bytearray(num_vars + 1)`` per conflict and calls the pushing
``_bump``, which puts a fresh heap entry on every bumped variable.  It
is the oracle for ``tests/test_sat_differential.py``: the live solver
must make the same decisions, conflicts and propagations, learn the same
clauses and return the same answers and models.  Do not use it outside
tests.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.atpg.sat import _UNDEF, Solver


class ReferenceSolver(Solver):
    """:class:`Solver` with the pre-tuning inner loops."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []  # encoded literals
        self._watches: List[List[int]] = [[], []]  # per encoded literal
        # Binary clauses propagate through dedicated implication lists:
        # _bins[falsified_lit] holds (implied_lit, clause_index) pairs,
        # so the two-literal case (the bulk of a circuit CNF) skips the
        # watch machinery entirely.  Binary clauses still live in
        # :attr:`clauses` — conflict analysis needs the index — but are
        # never watch-registered and never tombstoned (see
        # :meth:`reduce_learnts`), so the lists stay free of dead pairs.
        self._bins: List[List[tuple]] = [[], []]
        self._val = bytearray([_UNDEF, _UNDEF])  # per encoded literal
        self._level: List[int] = [0]
        self._reason: List[Optional[int]] = [None]
        self._trail: List[int] = []  # encoded literals
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._heap: List[tuple] = []  # (-activity, var) lazy entries
        # _hflag[v] == 1 iff the heap holds an entry matching v's current
        # activity.  Lets _backtrack re-push only variables whose entry
        # was consumed (decisions) instead of the whole unwound trail —
        # the heap traffic drops from O(trail) to O(decisions + bumps).
        self._hflag = bytearray([0])
        self._phase = bytearray([0])
        self._ok = True
        # Model state: a bytes snapshot of the assignment at the moment
        # of SAT (O(1) value_of lookups, C-speed copy) plus a lazily
        # materialized signed-literal list for the public .model API.
        self._model_val: bytes = bytes(self._val)
        self._model: Optional[List[int]] = []
        self._learnt: List[int] = []  # indices of learned clauses
        self._glue: dict = {}  # learned clause index -> LBD at learn time
        self.conflicts = 0
        self.propagations = 0  # literals whose watch lists were processed
        self.learned = 0  # learned clauses recorded (units included)
        self.restarts = 0  # restarts taken across all solve() calls
        # Which budget tripped the last UNKNOWN answer ("conflicts",
        # "decisions" or "deadline"); None after a decided solve.
        self.last_abort_reason: Optional[str] = None

    def new_var(self) -> int:
        self.num_vars += 1
        self._val.extend((_UNDEF, _UNDEF))
        self._watches.append([])
        self._watches.append([])
        self._bins.append([])
        self._bins.append([])
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(0)
        self._hflag.append(1)
        heapq.heappush(self._heap, (0.0, self.num_vars))
        return self.num_vars

    def _propagate(self) -> Optional[int]:
        val = self._val
        watches = self._watches
        bins = self._bins
        clauses = self.clauses
        trail = self._trail
        level = self._level
        reason = self._reason
        phase = self._phase
        cur_level = len(self._trail_lim)
        qhead = self._qhead
        props = 0
        while qhead < len(trail):
            elit = trail[qhead]
            qhead += 1
            props += 1
            falsified = elit ^ 1
            # Binary implications first: no clause objects, no watch
            # juggling — just (implied literal, reason index) pairs.
            for q, ci in bins[falsified]:
                v = val[q]
                if v == 1:
                    continue
                if v == 0:
                    self._qhead = qhead
                    self.propagations += props
                    return ci
                val[q] = 1
                val[q ^ 1] = 0
                qvar = q >> 1
                level[qvar] = cur_level
                reason[qvar] = ci
                phase[qvar] = 1 - (q & 1)
                trail.append(q)
            watching = watches[falsified]
            if not watching:
                continue
            keep: List[int] = []
            n = len(watching)
            i = 0
            while i < n:
                ci = watching[i]
                i += 1
                clause = clauses[ci]
                if clause is None:
                    continue  # deleted learned clause: drop the watch
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                if val[first] == 1:
                    keep.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    ck = clause[k]
                    if val[ck] != 0:
                        clause[1] = ck
                        clause[k] = falsified
                        watches[ck].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                # Unit or conflicting.
                if val[first] == 0:
                    keep.extend(watching[i:])
                    watches[falsified] = keep
                    self._qhead = qhead
                    self.propagations += props
                    return ci
                # Implied literal: _enqueue inlined (val[first] is
                # known-unassigned here, and this is the hottest site
                # in the whole solver).
                val[first] = 1
                val[first ^ 1] = 0
                fvar = first >> 1
                level[fvar] = cur_level
                reason[fvar] = ci
                phase[fvar] = 1 - (first & 1)
                trail.append(first)
            watches[falsified] = keep
        self._qhead = qhead
        self.propagations += props
        return None

    def _analyze(self, conflict_idx: int):
        learnt: List[int] = [0]
        seen = bytearray(self.num_vars + 1)
        level = len(self._trail_lim)
        levels = self._level
        counter = 0
        elit = None
        clause = self.clauses[conflict_idx]
        index = len(self._trail)
        while True:
            for q in clause:
                if elit is not None and q == elit:
                    continue
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if levels[var] >= level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                elit = self._trail[index]
                if seen[elit >> 1]:
                    break
            counter -= 1
            seen[elit >> 1] = 0
            if counter == 0:
                learnt[0] = elit ^ 1
                break
            clause = self.clauses[self._reason[elit >> 1]]
        if len(learnt) == 1:
            back = 0
        else:
            back = max(levels[q >> 1] for q in learnt[1:])
        return learnt, back

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        val = self._val
        heap = self._heap
        activity = self._activity
        hflag = self._hflag
        reason = self._reason
        for elit in self._trail[limit:]:
            val[elit] = _UNDEF
            val[elit ^ 1] = _UNDEF
            var = elit >> 1
            reason[var] = None
            # Only variables whose heap entry was consumed (popped as a
            # decision, or dropped in a rescale) need a fresh entry;
            # propagated variables' entries are still sitting in the heap.
            if not hflag[var]:
                heapq.heappush(heap, (-activity[var], var))
                hflag[var] = 1
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _bump(self, var: int) -> None:
        act = self._activity[var] + self._var_inc
        self._activity[var] = act
        if act > 1e100:
            scale = 1e-100
            activity = self._activity
            for v in range(1, self.num_vars + 1):
                activity[v] *= scale
            self._var_inc *= scale
            # Every heap entry now fails _decide's staleness check
            # (-neg_act != activity[var] after the rescale), so the heap
            # must be rebuilt with fresh entries or every subsequent
            # decision drains it and degrades to the O(n) linear scan.
            val = self._val
            hflag = bytearray(self.num_vars + 1)
            heap = []
            for v in range(1, self.num_vars + 1):
                if val[v << 1] == _UNDEF:
                    heap.append((-activity[v], v))
                    hflag[v] = 1
            heapq.heapify(heap)
            self._heap = heap
            self._hflag = hflag
        else:
            heapq.heappush(self._heap, (-act, var))
            self._hflag[var] = 1
