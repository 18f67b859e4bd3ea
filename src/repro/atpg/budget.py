"""Resource governance for the exact ATPG kernel.

:class:`AtpgBudget` bundles the per-fault resource limits of a SAT
decision — a wall-clock deadline plus conflict/decision budgets — and
the global *abort fraction* beyond which a run is downgraded to
explicitly-flagged approximate mode.  The default budget is unlimited,
in which case every code path is bit-identical to the ungoverned
engine; limits are opt-in, per call or through the environment:

* ``REPRO_ATPG_DEADLINE_MS`` — per-fault wall-clock deadline;
* ``REPRO_ATPG_CONFLICT_BUDGET`` — per-fault solver conflict budget;
* ``REPRO_ATPG_DECISION_BUDGET`` — per-fault solver decision budget;
* ``REPRO_ATPG_ABORT_FRACTION`` — tolerated fraction of aborted faults
  before the run is flagged approximate (default 0.05).

A budgeted decision has three outcomes instead of two: detected,
undetectable or aborted.  An aborted fault is *unclassified*: it is
never counted as undetectable (the paper's acceptance criterion), never
dropped from F, and is reported separately (see
:class:`repro.atpg.engine.AtpgResult`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

#: Default tolerated fraction of aborted faults before a run is flagged
#: approximate (see :attr:`AtpgBudget.abort_fraction`).
DEFAULT_ABORT_FRACTION = 0.05

#: The variables :meth:`AtpgBudget.from_env` reads, in field order.  They
#: are the only environment inputs of the package, and the runner folds
#: them into every task fingerprint (``repro.runner.model.ENV_KNOBS``):
#: the budget decides which faults abort, and so what a task reports.
ENV_VARS = (
    "REPRO_ATPG_DEADLINE_MS",
    "REPRO_ATPG_CONFLICT_BUDGET",
    "REPRO_ATPG_DECISION_BUDGET",
    "REPRO_ATPG_ABORT_FRACTION",
)


def _env_number(
    env: Mapping[str, str],
    name: str,
    parse: Callable[[str], float],
    limit: float = math.inf,
) -> Optional[float]:
    """The value of variable *name* read by *parse* (None when unset).

    Raises :class:`ValueError` naming the variable unless the value is
    a finite number in [0, *limit*].
    """
    text = env.get(name, "").strip()
    if not text:
        return None
    try:
        value = parse(text)
    except ValueError:
        value = math.nan
    # NaN fails every comparison and infinity the strict one.
    if not (0 <= value < math.inf and value <= limit):
        bounds = ">= 0" if limit == math.inf else f"in [0, {limit}]"
        raise ValueError(
            f"{name}={text!r}: expected a finite number {bounds}"
        )
    return value


@dataclass(frozen=True)
class AtpgBudget:
    """Per-fault resource limits plus the global abort tolerance.

    All three per-fault limits default to None (unlimited): an
    unlimited budget never changes a verdict, a counter, or a test
    pattern relative to the ungoverned engine.
    """

    deadline_ms: Optional[float] = None
    conflict_budget: Optional[int] = None
    decision_budget: Optional[int] = None
    abort_fraction: float = DEFAULT_ABORT_FRACTION

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "AtpgBudget":
        """Budget from the :data:`ENV_VARS` (unlimited when unset).

        Raises :class:`ValueError` naming the variable for a value that
        is not a finite number, a negative deadline or budget, or an
        abort fraction outside [0, 1].
        """
        env = os.environ if environ is None else environ
        deadline_var, conflicts_var, decisions_var, fraction_var = ENV_VARS
        fraction = _env_number(env, fraction_var, float, limit=1)
        return cls(
            deadline_ms=_env_number(env, deadline_var, float),
            conflict_budget=_env_number(env, conflicts_var, int),
            decision_budget=_env_number(env, decisions_var, int),
            abort_fraction=(
                DEFAULT_ABORT_FRACTION if fraction is None else fraction
            ),
        )


#: The default, exact budget: no per-fault limits.
UNLIMITED = AtpgBudget()
