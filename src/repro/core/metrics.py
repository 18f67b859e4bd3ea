"""Row assembly for the paper's Table I and Table II."""

from __future__ import annotations

from typing import Dict, List

from repro.core.flow import DesignState
from repro.core.resynthesis import ResynthesisResult


def table1_row(name: str, state: DesignState) -> Dict[str, object]:
    """Columns of Table I (clustered undetectable faults)."""
    f_in = len(state.fault_set.internal)
    f_ex = len(state.fault_set.external)
    u_in = state.u_internal
    u_ex = state.u_external
    u_total = u_in + u_ex
    smax = state.smax_size
    return {
        "Circuit": name,
        "F_In": f_in,
        "F_Ex": f_ex,
        "U_In": u_in,
        "U_Ex": u_ex,
        # Aborted faults are reported separately — they are neither in
        # U_In/U_Ex (an abort is not an undetectability proof) nor
        # silently dropped from F.  Zero under the default exact budget.
        "Aborted": state.n_aborted,
        "G_U": len(state.clusters.gates_u),
        "Gmax": len(state.clusters.gmax),
        "Smax": smax,
        "%Smax_U": 100.0 * smax / u_total if u_total else 0.0,
    }


def _state_row(name: str, label: str, state: DesignState,
               ref: DesignState) -> Dict[str, object]:
    smax = state.smax_size
    smax_i = len(state.clusters.smax_internal())
    return {
        "Circuit": name,
        "MaxInc": label,
        "F": state.n_faults,
        "U": state.u_total,
        "Aborted": state.n_aborted,
        "Cov": 100.0 * state.coverage,
        "T": len(state.tests),
        "Smax": smax,
        "%Smax_all": 100.0 * state.smax_fraction_of_f,
        "Smax_I": smax_i,
        "%Smax_I": 100.0 * smax_i / smax if smax else 0.0,
        "Delay": 100.0 * state.delay / ref.delay if ref.delay else 100.0,
        "Power": 100.0 * state.power / ref.power if ref.power else 100.0,
    }


def table2_row(name: str, result: ResynthesisResult) -> List[Dict[str, object]]:
    """The two rows of Table II for one circuit (original, resynthesized)."""
    orig = _state_row(name, "orig", result.original, result.original)
    orig["Rtime"] = 1.0
    resyn = _state_row(name, f"{result.q_used}%", result.final, result.original)
    resyn["Rtime"] = result.relative_runtime
    return [orig, resyn]


def average_rows(rows: List[Dict[str, object]], name: str = "average") -> Dict[str, object]:
    """Column-wise average of numeric fields across table rows."""
    if not rows:
        return {}
    out: Dict[str, object] = {"Circuit": name}
    for key in rows[0]:
        if key == "Circuit":
            continue
        # Rows journaled by older code revisions may lack newer columns;
        # average over the rows that have the value.
        values = [r[key] for r in rows if key in r]
        if not values:
            out[key] = "-"
        elif all(isinstance(v, (int, float)) for v in values):
            out[key] = sum(values) / len(values)
        else:
            out[key] = values[0] if len(set(map(str, values))) == 1 else "-"
    return out
