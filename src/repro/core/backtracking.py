"""Backtracking over the replacement gate set (Section III-C).

Invoked when a resynthesis attempt satisfies the acceptance criteria
path but the resulting layout violates the design constraints (delay,
power, die area).  Based on the observation that modifying fewer gates
implies lower design overheads, the procedure:

1. forms ``G_i`` — the gates of ``C_sub`` (minus ``G_zero``) whose cell
   types are in the excluded prefix ``cell_0 .. cell_i``;
2. moves gates from ``G_i`` into ``G_back`` in groups of ``sqrt(n)``;
   gates in ``G_back`` are left untouched by ``Synthesize()``;
3. whenever a configuration meets the constraints but fails the
   acceptance criteria, returns the last group's gates to ``G_i`` one by
   one (replacing slightly more logic each time);
4. terminates at the first accepted circuit, or when no more gates can
   be moved either way — in which case the current phase of the
   resynthesis procedure terminates.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.flow import DesignState

# A resynthesis attempt callback: takes the replacement gate set and
# returns (status, candidate-state-or-None) with status one of
# "accepted" | "constraints" | "rejected" | "synthfail".
AttemptFn = Callable[[Set[str]], Tuple[str, Optional[DesignState]]]


def backtrack_resynthesis(
    replacement_base: Set[str],
    g_i: Sequence[str],
    attempt: AttemptFn,
) -> Optional[DesignState]:
    """Search subsets of ``G_i`` for an accepted, constraint-clean circuit.

    *replacement_base* is ``C_sub - G_zero`` (every gate Synthesize() may
    touch); *g_i* lists the excluded-cell-type gates, ordered so that the
    gates most worth replacing come first (the tail is moved to
    ``G_back`` first).  Returns the accepted design state or None.
    """
    gi: List[str] = list(g_i)
    n = len(gi)
    if n == 0:
        return None
    group = max(1, math.isqrt(n))
    g_back: List[str] = []

    while gi:
        # Move the next group out of the replacement set.
        k = min(group, len(gi))
        moved = gi[-k:]
        del gi[-k:]
        g_back.extend(moved)
        status, cand = attempt(replacement_base - set(g_back))
        if status == "accepted":
            return cand
        if status == "synthfail":
            return None
        if status == "constraints":
            continue  # still violating: remove more gates
        # Constraints hold but acceptance failed: return the last group
        # one gate at a time (replace slightly more logic).
        returned = 0
        while returned < k - 1 and g_back:
            gi.append(g_back.pop())
            returned += 1
            status, cand = attempt(replacement_base - set(g_back))
            if status == "accepted":
                return cand
            if status == "synthfail":
                return None
            if status == "constraints":
                break  # back into violation: resume removing groups
        # Undo the returns before trying the next group, so the search
        # keeps making progress toward smaller replacement sets.
        for _ in range(returned):
            g_back.append(gi.pop())
    return None
