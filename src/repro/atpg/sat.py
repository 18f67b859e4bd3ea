"""A CDCL SAT solver.

Implements the standard modern architecture: two-watched-literal
propagation with dedicated binary-implication lists (a circuit CNF is
mostly two-literal clauses, which skip the watch machinery entirely),
first-UIP conflict analysis with clause learning, non-chronological
backjumping, VSIDS-style decaying activities with a lazy heap, phase
saving, and geometric restarts.  Written for the
instance profile of circuit ATPG (tens of thousands of small clauses,
shallow proofs) — undetectable faults produce genuine UNSAT results.

The public API uses DIMACS-style signed literals (variable ``v`` has
positive literal ``v``, negative ``-v``); internally literals are encoded
unsigned as ``2*v`` / ``2*v + 1`` so the hot paths avoid sign handling.

Propagation compacts each watch list in place; conflict analysis reuses
one mark array.  A VSIDS bump (always of an assigned variable) pushes no
heap entry: backtracking pushes one when the variable is unassigned, so
every unassigned variable owns exactly one heap entry equal to its
activity and the decisions match an eager push.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional, Sequence

SAT = True
UNSAT = False
#: Three-valued solve outcome: a resource budget (conflicts, decisions
#: or deadline) ran out before a proof either way.  Distinct from UNSAT
#: on purpose — an UNKNOWN answer must never be counted as a proof.
UNKNOWN = None

_UNDEF = 2  # value code for unassigned (0 = false, 1 = true)


def _enc(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


class Solver:
    """CDCL SAT solver; construct, :meth:`add_clause`, :meth:`solve`."""

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
        self._seen = bytearray([0])  # _analyze marks; zero between calls
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

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
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
        self._seen.append(0)
        heapq.heappush(self._heap, (0.0, self.num_vars))
        return self.num_vars

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause (signed literals); False if trivially UNSAT."""
        if not self._ok:
            return False
        seen = set()
        clause: List[int] = []
        for lit in lits:
            e = _enc(lit)
            if e ^ 1 in seen:
                return True  # tautology
            if e not in seen:
                seen.add(e)
                clause.append(e)
        val = self._val
        filtered: List[int] = []
        for e in clause:
            v = val[e]
            if v == 1:  # satisfied at level 0 (we only add at level 0)
                return True
            if v == 0:
                continue
            filtered.append(e)
        if not filtered:
            self._ok = False
            return False
        if len(filtered) == 1:
            if not self._enqueue(filtered[0], None):
                self._ok = False
                return False
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        idx = len(self.clauses)
        self.clauses.append(filtered)
        self._attach_clause(idx, filtered)
        return True

    def _attach_clause(self, idx: int, clause: List[int]) -> None:
        """Index a new clause for propagation (length >= 2).

        ``_bins[lit]`` lists the implications fired when *lit* itself is
        falsified — the same key convention as the watch lists.
        """
        if len(clause) == 2:
            self._bins[clause[0]].append((clause[1], idx))
            self._bins[clause[1]].append((clause[0], idx))
        else:
            self._watches[clause[0]].append(idx)
            self._watches[clause[1]].append(idx)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        conflict_budget: Optional[int] = None,
        decision_budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        """Decide satisfiability; fills :attr:`model` on SAT.

        The keyword-only limits bound this call's effort: *conflict_budget*
        and *decision_budget* cap the conflicts/decisions spent here,
        *deadline* is an absolute :func:`time.perf_counter` timestamp.
        When any limit is exhausted before a proof, the solver backtracks
        to level 0 and returns :data:`UNKNOWN` (None) — learned clauses
        are kept (they are sound regardless), and the solver remains
        usable for further solves.  With no limits set (the default) the
        return value is exactly the classic two-valued answer.
        """
        self.last_abort_reason = None
        if not self._ok:
            return UNSAT
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return UNSAT
        enc_assumps = [_enc(a) for a in assumptions]
        # Assumption-aware restart schedule.  ATPG issues thousands of
        # small assumption-driven queries against one long-lived solver;
        # a restart only rewinds to the assumption level (never level 0),
        # so restarting is cheap and escaping a bad phase/activity rut
        # early pays off.  Plain refutations keep the classic lazier
        # schedule: they are one-shot and level-0 rewinds cost more.
        restart_limit = 32 if enc_assumps else 100
        conflicts_here = 0
        limited = (
            conflict_budget is not None
            or decision_budget is not None
            or deadline is not None
        )
        spent_conflicts = 0
        spent_decisions = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if limited:
                    spent_conflicts += 1
                    if (
                        conflict_budget is not None
                        and spent_conflicts > conflict_budget
                    ):
                        self.last_abort_reason = "conflicts"
                        self._backtrack(0)
                        return UNKNOWN
                    if (
                        deadline is not None
                        and time.perf_counter() > deadline
                    ):
                        self.last_abort_reason = "deadline"
                        self._backtrack(0)
                        return UNKNOWN
                if len(self._trail_lim) <= len(enc_assumps):
                    self._backtrack(0)
                    if not enc_assumps:
                        self._ok = False
                    return UNSAT
                learnt, back_level = self._analyze(conflict)
                if back_level < len(enc_assumps):
                    back_level = len(enc_assumps)
                self._backtrack(back_level)
                self._record_learnt(learnt)
                self._var_inc /= 0.95
                if conflicts_here >= restart_limit:
                    conflicts_here = 0
                    restart_limit = int(restart_limit * 2)
                    self.restarts += 1
                    self._backtrack(
                        min(len(enc_assumps), len(self._trail_lim))
                    )
                continue
            if len(self._trail_lim) < len(enc_assumps):
                # Place the next assumption as a pseudo-decision.
                e = enc_assumps[len(self._trail_lim)]
                v = self._val[e]
                if v == 0:
                    self._backtrack(0)
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                if v != 1:
                    self._enqueue(e, None)
                continue
            lit = self._decide()
            if lit is None:
                # Snapshot the assignment (one C-level copy); .model and
                # value_of() read from it on demand.
                self._model_val = bytes(self._val)
                self._model = None
                self._backtrack(0)
                return SAT
            if limited:
                spent_decisions += 1
                if (
                    decision_budget is not None
                    and spent_decisions > decision_budget
                ):
                    self.last_abort_reason = "decisions"
                elif (
                    deadline is not None
                    and time.perf_counter() > deadline
                ):
                    self.last_abort_reason = "deadline"
                if self.last_abort_reason is not None:
                    # _decide consumed the variable's heap entry, but the
                    # variable stays unassigned: give the entry back.
                    var = lit >> 1
                    heapq.heappush(self._heap, (-self._activity[var], var))
                    self._hflag[var] = 1
                    self._backtrack(0)
                    return UNKNOWN
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    @property
    def model(self) -> List[int]:
        """Signed-literal model of the last SAT answer."""
        if self._model is None:
            mv = self._model_val
            self._model = [
                v if mv[v << 1] == 1 else -v
                for v in range(1, len(mv) // 2)  # vars known at snapshot
                if mv[v << 1] != _UNDEF
            ]
        return self._model

    def value_of(self, var: int) -> Optional[int]:
        """Model value of *var* after a SAT answer (None if don't-care)."""
        e = var << 1
        if e >= len(self._model_val):  # var created after the snapshot
            return None
        v = self._model_val[e]
        return None if v == _UNDEF else v

    def reduce_learnts(
        self,
        keep_max_size: int = 4,
        keep_glue: int = 2,
        max_keep: Optional[int] = None,
    ) -> int:
        """Drop poor learned clauses to bound propagation cost.

        Retention is LBD-aware: a clause survives if it is short
        (``len <= keep_max_size``) **or** glued (its literal-block
        distance at learn time was at most *keep_glue* — low-LBD clauses
        connect few decision levels and re-propagate constantly, so they
        are the lemmas worth paying watch-list rent for).  *max_keep*
        additionally caps the survivor count: the worst survivors by
        (glue, length) are dropped first, so a long run of small queries
        cannot accumulate an unbounded glued set.

        Only call between solves (at decision level 0).  Clauses that are
        the reason for a level-0 assignment are preserved, and binary
        clauses always survive: they are indexed in the binary-implication
        lists, which are never scanned for tombstones.  Returns the
        number of clauses deleted; deleted slots become None and their
        watch entries are dropped lazily during propagation.
        """
        protected = {
            self._reason[elit >> 1]
            for elit in self._trail
            if self._reason[elit >> 1] is not None
        }
        glue = self._glue
        survivors: List[int] = []
        deleted = 0
        for ci in self._learnt:
            clause = self.clauses[ci]
            if clause is None:
                glue.pop(ci, None)
                continue
            if (
                ci in protected
                or len(clause) == 2  # lives in _bins; must never die
                or len(clause) <= keep_max_size
                or glue.get(ci, keep_glue + 1) <= keep_glue
            ):
                survivors.append(ci)
            else:
                self.clauses[ci] = None
                glue.pop(ci, None)
                deleted += 1
        if max_keep is not None and len(survivors) > max_keep:
            survivors.sort(
                key=lambda ci: (
                    glue.get(ci, 1 << 30), len(self.clauses[ci]), ci
                )
            )
            for ci in survivors[max_keep:]:
                if ci in protected or len(self.clauses[ci]) == 2:
                    continue
                self.clauses[ci] = None
                glue.pop(ci, None)
                deleted += 1
            survivors = [
                ci for ci in survivors if self.clauses[ci] is not None
            ]
            survivors.sort()
        self._learnt = survivors
        return deleted

    def delete_clauses(self, indices) -> None:
        """Tombstone the clauses at *indices* (level 0 only).

        Watch entries die lazily during propagation, but binary clauses
        live in the implication lists, which the hot loop never
        tombstone-checks — so their pairs are purged here, eagerly and
        batched (each affected list is rebuilt once).  This is the only
        sound way to delete a binary clause; callers retiring clause
        ranges (e.g. a fault cone) must use it rather than assigning
        ``clauses[ci] = None`` directly.
        """
        dead_bins: List[tuple] = []
        for ci in indices:
            clause = self.clauses[ci]
            if clause is None:
                continue
            self.clauses[ci] = None
            if len(clause) == 2:
                dead_bins.append(clause)
        if not dead_bins:
            return
        keys = {lit for clause in dead_bins for lit in clause}
        for key in keys:
            self._bins[key] = [
                pair for pair in self._bins[key]
                if self.clauses[pair[1]] is not None
            ]

    # ------------------------------------------------------------------
    # Internals (encoded literals throughout)
    # ------------------------------------------------------------------
    def _enqueue(self, elit: int, reason: Optional[int]) -> bool:
        val = self._val
        v = val[elit]
        if v != _UNDEF:
            return v == 1
        val[elit] = 1
        val[elit ^ 1] = 0
        var = elit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = 1 - (elit & 1)
        self._trail.append(elit)
        return True

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
        qhead = start = self._qhead
        while qhead < len(trail):
            elit = trail[qhead]
            qhead += 1
            falsified = elit ^ 1
            # Binary implications first: no clause objects, no watch
            # juggling — just (implied literal, reason index) pairs.
            for q, ci in bins[falsified]:
                v = val[q]
                if v == 1:
                    continue
                if v == 0:
                    self._qhead = qhead
                    self.propagations += qhead - start
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
            # Compact in place: watching[:j] keeps watching *falsified*
            # (no watch moves onto it, so the list cannot grow here).
            j = 0
            unvisited = iter(watching)
            for ci in unvisited:
                clause = clauses[ci]
                if clause is None:
                    continue  # deleted learned clause: drop the watch
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                if val[first] == 1:
                    watching[j] = ci
                    j += 1
                    continue
                # Watched clauses have >= 3 literals, mostly exactly 3.
                ck = clause[2]
                if val[ck] != 0:
                    clause[1] = ck
                    clause[2] = falsified
                    watches[ck].append(ci)
                    continue
                if len(clause) > 3:
                    moved = False
                    for k in range(3, len(clause)):
                        ck = clause[k]
                        if val[ck] != 0:
                            clause[1] = ck
                            clause[k] = falsified
                            watches[ck].append(ci)
                            moved = True
                            break
                    if moved:
                        continue
                watching[j] = ci
                j += 1
                # Unit or conflicting.
                if val[first] == 0:
                    watching[j:] = list(unvisited)  # copy the tail down
                    self._qhead = qhead
                    self.propagations += qhead - start
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
            del watching[j:]
        self._qhead = qhead
        self.propagations += qhead - start
        return None

    def _analyze(self, conflict_idx: int):
        learnt: List[int] = [0]
        seen = self._seen
        trail = self._trail
        clauses = self.clauses
        reason = self._reason
        levels = self._level
        activity = self._activity
        hflag = self._hflag
        var_inc = self._var_inc
        level = len(self._trail_lim)
        counter = 0
        elit = -1  # no literal: the conflict clause skips none of its own
        clause = clauses[conflict_idx]
        index = len(trail)
        while True:
            for q in clause:
                if q == elit:
                    continue
                var = q >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    # _bump inlined: var is assigned (as is every literal
                    # of a conflict or reason clause), so no heap push.
                    act = activity[var] + var_inc
                    if act > 1e100:
                        self._bump(var)  # rescales; replaces _hflag
                        hflag = self._hflag
                        var_inc = self._var_inc
                    else:
                        activity[var] = act
                        hflag[var] = 0
                    if levels[var] >= level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                elit = trail[index]
                if seen[elit >> 1]:
                    break
            counter -= 1
            seen[elit >> 1] = 0
            if counter == 0:
                learnt[0] = elit ^ 1
                break
            clause = clauses[reason[elit >> 1]]
        # The trail walk cleared every current-level mark; the tail's
        # lower-level marks are the only ones left.
        for q in learnt:
            seen[q >> 1] = 0
        if len(learnt) == 1:
            back = 0
        else:
            back = max(levels[q >> 1] for q in learnt[1:])
        return learnt, back

    def _record_learnt(self, learnt: List[int]) -> None:
        self.learned += 1
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        levels = self._level
        best = max(
            range(1, len(learnt)), key=lambda i: levels[learnt[i] >> 1]
        )
        learnt[1], learnt[best] = learnt[best], learnt[1]
        idx = len(self.clauses)
        self.clauses.append(learnt)
        self._learnt.append(idx)
        # Literal-block distance at learn time: distinct decision levels
        # among the tail literals plus one for the asserting literal
        # (which lands on its own, higher level after the backjump).
        self._glue[idx] = len({levels[q >> 1] for q in learnt[1:]}) + 1
        self._attach_clause(idx, learnt)
        self._enqueue(learnt[0], idx)

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
            # decision, dropped in a rescale, or outdated by a bump) need
            # a fresh entry; the others' entries are still in the heap.
            if not hflag[var]:
                heapq.heappush(heap, (-activity[var], var))
                hflag[var] = 1
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _bump(self, var: int) -> None:
        """Bump assigned *var*; :meth:`_backtrack` re-pushes its entry.

        Past 1e100 every activity is rescaled and the heap rebuilt;
        :meth:`_analyze` inlines the common case and calls this only then.
        """
        act = self._activity[var] + self._var_inc
        self._activity[var] = act
        self._hflag[var] = 0
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

    def _decide(self) -> Optional[int]:
        val = self._val
        heap = self._heap
        activity = self._activity
        hflag = self._hflag
        while heap:
            neg_act, var = heapq.heappop(heap)
            if -neg_act != activity[var]:
                continue  # stale entry; a fresher one exists
            hflag[var] = 0  # the current entry just left the heap
            if val[var << 1] != _UNDEF:
                continue
            return (var << 1) | (0 if self._phase[var] else 1)
        # Heap exhausted: fall back to a linear scan (rare).
        for var in range(1, self.num_vars + 1):
            if val[var << 1] == _UNDEF:
                return (var << 1) | (0 if self._phase[var] else 1)
        return None
    # NOTE: _decide returns an encoded literal; _enqueue consumes it.
