"""Tests for the Section III-C backtracking procedure (driven by a mock
attempt function, so the control flow is exercised deterministically)."""

from __future__ import annotations

from repro.core import backtrack_resynthesis


class _Recorder:
    """Mock attempt function that records the replacement sets tried."""

    def __init__(self, outcomes):
        # outcomes: callable(replacement_set) -> status
        self.outcomes = outcomes
        self.calls = []

    def __call__(self, replacement):
        self.calls.append(frozenset(replacement))
        status = self.outcomes(replacement)
        return status, ("STATE" if status == "accepted" else None)


def test_accepts_first_constraint_clean_config():
    base = set("abcdefghi")
    g_i = list("abcdefghi")  # n=9, group=3

    def outcomes(repl):
        # Constraints clear once at most 6 gates are replaced; accept then.
        return "accepted" if len(repl) <= 6 else "constraints"

    rec = _Recorder(outcomes)
    result = backtrack_resynthesis(base, g_i, rec)
    assert result == "STATE"
    # First call: one group of sqrt(9)=3 removed -> 6 replaced -> accepted.
    assert len(rec.calls) == 1
    assert len(rec.calls[0]) == 6


def test_returns_gates_one_by_one_on_rejection():
    base = set("abcdefghi")
    g_i = list("abcdefghi")
    accepted_at = {7}  # accept only when exactly 7 gates are replaced

    def outcomes(repl):
        if len(repl) in accepted_at:
            return "accepted"
        if len(repl) >= 8:
            return "constraints"
        return "rejected"

    rec = _Recorder(outcomes)
    result = backtrack_resynthesis(base, g_i, rec)
    assert result == "STATE"
    # Path: 6 (rejected) -> return one gate -> 7 (accepted).
    assert [len(c) for c in rec.calls] == [6, 7]


def test_gives_up_when_exhausted():
    base = set("abcd")
    g_i = list("abcd")  # group = 2

    rec = _Recorder(lambda repl: "constraints")
    assert backtrack_resynthesis(base, g_i, rec) is None
    # Groups of 2 removed until G_i empty: replacement sizes 2 then 0.
    assert [len(c) for c in rec.calls] == [2, 0]


def test_synthfail_aborts():
    base = set("abcdef")
    g_i = list("abcdef")
    rec = _Recorder(lambda repl: "synthfail")
    assert backtrack_resynthesis(base, g_i, rec) is None
    assert len(rec.calls) == 1


def test_empty_gi_returns_none():
    assert backtrack_resynthesis(set("ab"), [], lambda r: ("accepted", 1)) is None


def test_return_phase_stops_on_constraint_violation():
    base = set("abcdefghijklmnop")  # 16 gates, group = 4
    g_i = list("abcdefghijklmnop")
    seen = []

    def outcomes(repl):
        seen.append(len(repl))
        if len(repl) > 12:
            return "constraints"
        if len(repl) == 12:
            return "rejected"  # triggers the return-one-by-one phase
        return "rejected"

    # Returning a gate moves 12 -> 13 -> constraints -> resume groups.
    rec = _Recorder(outcomes)
    result = backtrack_resynthesis(base, g_i, rec)
    assert result is None  # nothing ever accepted
    assert 13 in seen  # the return phase ran
    assert 0 in seen  # and the search reached the empty replacement set


def test_group_size_is_sqrt_n():
    base = set(range(25))
    g_i = list(range(25))
    sizes = []

    def outcomes(repl):
        sizes.append(len(repl))
        return "constraints"

    backtrack_resynthesis(base, g_i, outcomes_wrap(outcomes))
    # sqrt(25) = 5: replacement shrinks by 5 each step.
    assert sizes == [20, 15, 10, 5, 0]


def outcomes_wrap(fn):
    def attempt(repl):
        status = fn(repl)
        return status, None

    return attempt
