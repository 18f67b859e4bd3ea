"""Ingest foreign benchmark netlists into the native circuit model.

The paper's experiments run on the ISCAS benchmark circuits; this
package is the bridge that lets every engine in the repo face those
designs.  Two foreign front ends — ISCAS-85/89 ``.bench``
(:mod:`.bench`) and a structural gate-level Verilog subset
(:mod:`.verilog`) — parse into a format-neutral :class:`~.graph.
NetGraph`, which :mod:`.lower` maps onto OSU018-style standard cells.
The native text format rides the same API through
:func:`repro.netlist.validate.lint_netlist_text`.

Three entry points, in increasing strictness:

* :func:`ingest_text` / :func:`ingest_file` — recovering: always return
  an :class:`IngestedDesign` whose ``report`` lists every coded,
  ``path:line``-located problem; ``design.circuit`` is ``None`` when
  errors made lowering impossible.
* :func:`load_file` — strict: returns the :class:`~repro.netlist.
  circuit.Circuit` or raises :class:`IngestError` (a
  :class:`~repro.netlist.circuit.NetlistError`) rendering the report.

``BUNDLED`` names the benchmark files shipped under
``examples/netlists/`` so campaign specs can say ``ingest:c17`` without
hard-coding repository paths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.netlist.circuit import Circuit, NetlistError
from repro.netlist.ingest.bench import parse_bench
from repro.netlist.ingest.graph import NetGraph, Node, OPS, VARIADIC_OPS
from repro.netlist.ingest.lower import lower_graph
from repro.netlist.ingest.verilog import parse_verilog
from repro.netlist.validate import (
    ValidationReport,
    lint_circuit,
    lint_netlist_text,
)

__all__ = [
    "BUNDLED",
    "FORMATS",
    "FORMAT_BENCH",
    "FORMAT_NATIVE",
    "FORMAT_VERILOG",
    "IngestError",
    "IngestedDesign",
    "NetGraph",
    "Node",
    "OPS",
    "VARIADIC_OPS",
    "bundled_path",
    "detect_format",
    "ingest_file",
    "ingest_text",
    "load_file",
    "lower_graph",
    "parse_bench",
    "parse_verilog",
]

FORMAT_NATIVE = "netlist"
FORMAT_BENCH = "bench"
FORMAT_VERILOG = "verilog"
FORMATS = (FORMAT_NATIVE, FORMAT_BENCH, FORMAT_VERILOG)

_EXTENSIONS = {
    ".bench": FORMAT_BENCH,
    ".v": FORMAT_VERILOG,
    ".sv": FORMAT_VERILOG,
    ".nl": FORMAT_NATIVE,
    ".net": FORMAT_NATIVE,
    ".netlist": FORMAT_NATIVE,
}

#: Benchmarks shipped with the repository (short name -> path relative
#: to the repo root).  See ``examples/netlists/README.md``.
BUNDLED: Dict[str, str] = {
    "c17": "examples/netlists/c17.bench",
    "mul32": "examples/netlists/mul32.bench",
    "ecc64": "examples/netlists/ecc64.bench",
    "sreg16": "examples/netlists/sreg16.bench",
    "alu8": "examples/netlists/alu8.v",
}


class IngestError(NetlistError):
    """Strict-mode ingestion failure; ``str()`` renders the report."""

    def __init__(self, message: str, report: Optional[ValidationReport] = None,
                 **kw: object):
        super().__init__(message, **kw)  # type: ignore[arg-type]
        self.report = report if report is not None else ValidationReport()


@dataclass
class IngestedDesign:
    """The outcome of one (recovering) ingestion run.

    ``circuit`` is the standard-cell mapping of the foreign design, or
    ``None`` when ``report`` carries errors that made lowering
    impossible; only trust it when :attr:`ok`.  ``gate_lines`` maps
    generated gate names back to source lines of *path*; ``renames``
    records foreign signal names that had to be sanitized.
    """

    circuit: Optional[Circuit]
    report: ValidationReport
    fmt: str
    path: Optional[str] = None
    source_name: str = ""
    gate_lines: Dict[str, int] = field(default_factory=dict)
    renames: Dict[str, str] = field(default_factory=dict)
    scan_cells: int = 0

    @property
    def ok(self) -> bool:
        return self.circuit is not None and self.report.ok


def detect_format(path: Optional[str], text: Optional[str] = None) -> str:
    """Infer the netlist format from *path*'s extension, else sniff *text*.

    Raises :class:`IngestError` when neither identifies the format.
    """
    if path:
        ext = os.path.splitext(path)[1].lower()
        fmt = _EXTENSIONS.get(ext)
        if fmt is not None:
            return fmt
    if text is not None:
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("//") or line.startswith("/*") \
                    or line.split()[0] == "module":
                return FORMAT_VERILOG
            if line.startswith("#") or line.upper().startswith(("INPUT", "OUTPUT")):
                return FORMAT_BENCH
            if line.split()[0] == "circuit":
                return FORMAT_NATIVE
            break
    raise IngestError(
        f"cannot determine netlist format of {path or '<text>'!s}; "
        f"pass fmt explicitly (one of {', '.join(FORMATS)})",
        path=path,
    )


def ingest_text(
    text: str,
    fmt: str,
    path: Optional[str] = None,
    cells: Optional[Mapping[str, object]] = None,
    name: Optional[str] = None,
) -> IngestedDesign:
    """Recovering ingestion of netlist *text* in format *fmt*.

    Foreign formats parse to a :class:`NetGraph`, are link-checked on
    their own names/lines, lowered onto cells and finally run through
    the circuit-level linter; the native format takes the
    :func:`lint_netlist_text` path.  Never raises on bad input — the
    returned design's ``report`` carries every located diagnostic.
    """
    if fmt == FORMAT_NATIVE:
        circuit, report = lint_netlist_text(text, path=path, cells=cells)
        return IngestedDesign(
            circuit=circuit if report.ok else None, report=report,
            fmt=fmt, path=path,
            source_name=circuit.name if circuit is not None else "",
        )
    if fmt == FORMAT_BENCH:
        graph = parse_bench(text, path=path, name=name)
    elif fmt == FORMAT_VERILOG:
        graph = parse_verilog(text, path=path, name=name)
    else:
        raise IngestError(
            f"unknown netlist format {fmt!r} (expected one of "
            f"{', '.join(FORMATS)})", path=path,
        )
    design = IngestedDesign(
        circuit=None, report=graph.report, fmt=fmt, path=path,
        source_name=graph.name, scan_cells=graph.scan_cells,
    )
    if not graph.report.ok:
        return design
    circuit, gate_lines, renames = lower_graph(graph, cells=cells, name=name)
    design.circuit = circuit
    design.gate_lines = gate_lines
    design.renames = renames
    if circuit is None:
        return design
    # Cell-aware lint of the mapped circuit.  Connectivity was already
    # checked on the foreign graph (with better locations), so only
    # genuinely new findings are merged: any error (a mapping bug or an
    # impossible pin binding) plus fanout anomalies, which first become
    # measurable after mapping.
    mapped = lint_circuit(
        circuit, cells=cells, path=path, gate_lines=gate_lines,
    )
    for diag in mapped.errors + mapped.by_code("fanout-anomaly"):
        design.report.diagnostics.append(diag)
    if not design.report.ok:
        design.circuit = None
    return design


def ingest_file(
    path: str,
    fmt: Optional[str] = None,
    cells: Optional[Mapping[str, object]] = None,
) -> IngestedDesign:
    """Recovering ingestion of the netlist file at *path*."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    if fmt is None:
        fmt = detect_format(path, text)
    return ingest_text(text, fmt, path=path, cells=cells)


def load_file(
    path: str,
    fmt: Optional[str] = None,
    cells: Optional[Mapping[str, object]] = None,
) -> Circuit:
    """Strict ingestion: the circuit of *path*, or :class:`IngestError`.

    The exception message renders the full report (all located errors,
    not just the first) and carries ``code``/``path``/``line`` of the
    first error for machine handling.
    """
    design = ingest_file(path, fmt=fmt, cells=cells)
    if design.circuit is not None and design.report.ok:
        return design.circuit
    errors = design.report.errors
    first = errors[0] if errors else None
    raise IngestError(
        f"cannot ingest {path}:\n{design.report.render()}",
        report=design.report,
        code=first.code if first is not None else "syntax",
        path=path,
        line=first.line if first is not None else None,
    )


def repo_root() -> str:
    """Repository root inferred from the package location."""
    import repro

    return os.path.abspath(
        os.path.join(os.path.dirname(repro.__file__), os.pardir, os.pardir)
    )


def bundled_path(name: str) -> str:
    """Absolute path of the bundled benchmark *name* (see ``BUNDLED``)."""
    rel = BUNDLED.get(name)
    if rel is None:
        raise IngestError(
            f"unknown bundled benchmark {name!r} "
            f"(known: {', '.join(sorted(BUNDLED))})"
        )
    full = os.path.join(repo_root(), rel)
    if not os.path.exists(full):
        raise IngestError(f"bundled benchmark {name!r} missing at {full}")
    return full
