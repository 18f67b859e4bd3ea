"""Built-in task kinds of the experiment orchestrator.

Each kind returns its payload, a JSON object that the journal records
and that is the task's only result: no design object leaves a task.

Campaign task kinds (the paper's sweeps):

* ``analyze`` — build one benchmark circuit on a library variant and run
  the full design-flow analysis (PDesign -> DFM fault extraction ->
  exact ATPG -> clustering).  Payload: the Table I row, the
  :class:`~repro.utils.observability.EngineStats` snapshot, and the
  per-stage wall times.
* ``resynthesize`` — the full two-phase resynthesis with the q = 0..q_max
  sweep.  Payload: the two Table II rows, q_used, the iteration count,
  and the :class:`~repro.utils.observability.ResynthesisStats` snapshot.

Both carry a fingerprint hook that is also the campaign's input check:
it builds the task's circuit, lints it against the variant's cells and
hashes its *structure* with the variant's cell names, so a resume
re-runs exactly the circuits whose generated netlist (or library)
changed, and a circuit that does not build or lint stops ``run`` and
``resume`` before the run directory is touched.  Nothing is cached
between the hook and the task body: each builds its own circuit and
drops it, so no circuit or compiled plan outlives its task, and an
inline task builds its circuit twice.

Synthetic task kinds (failure-path tests and CI fault injection):

* ``sum`` — returns its ``value``;
* ``sleep`` — sleeps ``seconds`` and returns;
* ``hang`` — sleeps a long time (timeout-path testing, which needs
  ``isolation: "process"``);
* ``flaky`` — fails its first ``fail_times`` attempts (state is kept in
  a counter file inside the run directory, so it spans retries,
  processes, and resumes);
* ``kill_self`` — SIGKILLs its own process the first time it runs
  (subsequent runs see the marker file and succeed).  Inline, this kills
  the orchestrator mid-task — the crash the journal must survive.
"""

from __future__ import annotations

import os
import signal
import time
from functools import lru_cache
from typing import List, Mapping, Optional, Tuple

from repro.runner.registry import TaskContext, task


# ----------------------------------------------------------------------
# Campaign tasks
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _library_variant(variant: str):
    """A library variant by name.

    ``full`` is the complete 21-cell library; ``drop<k>`` excludes the k
    most fault-laden cells (the restricted-library ablation direction);
    ``exclude:<a>,<b>`` excludes the named cells.
    """
    from repro.library import osu018_library

    library = osu018_library()
    if variant in ("", "full", "osu018"):
        return library
    if variant.startswith("drop"):
        k = int(variant[4:] or "1")
        order = library.order_by_internal_faults()
        dropped = {cell.name for cell in order[:k]}
        keep = [n for n in library.names() if n not in dropped]
        return library.subset(keep)
    if variant.startswith("exclude:"):
        dropped = {n.strip() for n in variant[8:].split(",") if n.strip()}
        unknown = dropped - set(library.names())
        if unknown:
            raise KeyError(f"unknown cells in variant: {sorted(unknown)}")
        keep = [n for n in library.names() if n not in dropped]
        return library.subset(keep)
    raise KeyError(f"unknown library variant {variant!r}")


def _ingest_source(name: str) -> Optional[str]:
    """Path of the foreign netlist behind *name*, if it names one.

    Campaigns address ingested designs either as ``ingest:<path>``
    (any supported netlist file) or by the short name of a benchmark
    bundled under ``examples/netlists/`` (``c17``, ``mul32``, ...).
    Returns ``None`` for the built-in synthetic benchmarks.
    """
    from repro.netlist.ingest import BUNDLED, bundled_path

    if name.startswith("ingest:"):
        return name[len("ingest:"):]
    if name in BUNDLED:
        return bundled_path(name)
    return None


def _built_circuit(name: str, scale: int, variant: str):
    """Benchmark netlist mapped on a library variant (a fresh build).

    Synthetic benchmarks are generated by :func:`repro.bench.
    build_benchmark`; names recognized by :func:`_ingest_source` load
    (and technology-map) a foreign netlist file instead.  ``scale`` only
    applies to synthetic benchmarks — an ingested file has one fixed
    size.  Either path raises on failure (:class:`KeyError` for unknown
    names, :class:`~repro.netlist.circuit.NetlistError` for defective
    files), which the fingerprint hook reports against the task.
    """
    ingest_path = _ingest_source(name)
    if ingest_path is not None:
        from repro.netlist.ingest import load_file

        return load_file(ingest_path, cells=_library_variant(variant))
    from repro.bench import build_benchmark

    return build_benchmark(name, _library_variant(variant), scale=scale)


def _circuit_params(params: Mapping[str, object]) -> Tuple[str, int, str]:
    return (
        str(params["circuit"]),
        int(params.get("scale", 1)),
        str(params.get("variant", "full")),
    )


def _circuit_fingerprint(params: Mapping[str, object]) -> object:
    """Check the task's circuit; its structural hash + the variant's cells.

    Builds the circuit and lints it against the variant's cells; raises
    :class:`~repro.runner.model.CampaignError` with one line per problem
    when it does not build or has structural errors.  The circuit is
    dropped on return: the task body builds its own.
    """
    from repro.netlist.validate import lint_circuit
    from repro.runner.model import CampaignError, structural_circuit_hash

    name, scale, variant = _circuit_params(params)
    try:
        library = _library_variant(variant)
        circuit = _built_circuit(name, scale, variant)
    except Exception as exc:  # noqa: BLE001 - reported against the task
        raise CampaignError(
            f"cannot build circuit {name!r} ({exc})"
        ) from None
    errors = lint_circuit(circuit, cells=library.cells).errors
    if errors:
        raise CampaignError("\n".join(str(d) for d in errors))
    return {
        "circuit": structural_circuit_hash(circuit),
        "library": library.names(),
    }


def _add_degradation(payload: dict, engine, **counts: object) -> None:
    """Add ``payload["degradation"]`` when the run recorded a degradation.

    Absent otherwise, so clean-run reports (and their resume-diff
    comparisons) are untouched.  *counts* name the task's aborted
    quantities.  ``abort_reasons`` counts aborted SAT decisions by the
    budget that tripped (deadline / conflicts / decisions), summing to
    the engine's ``sat_aborts``: a deadline-dominated histogram points
    at the machine or the per-fault deadline, a conflicts-dominated one
    at genuinely hard faults.
    """
    if not engine.degradations:
        return
    payload["degradation"] = {
        **counts, "records": list(engine.degradations),
    }
    if engine.sat_abort_reasons:
        payload["degradation"]["abort_reasons"] = dict(
            engine.sat_abort_reasons
        )


@task("analyze", fingerprint=_circuit_fingerprint)
def analyze_task(params: Mapping[str, object], ctx: TaskContext) -> dict:
    from repro.core import analyze_design, table1_row

    name, scale, variant = _circuit_params(params)
    library = _library_variant(variant)
    circuit = _built_circuit(name, scale, variant)
    state = analyze_design(
        circuit, library,
        seed=int(params.get("seed", 0)),
        atpg_seed=int(params.get("seed", 0)),
    )
    payload = {
        "circuit": name,
        "variant": variant,
        "row": table1_row(name, state),
        "engine": state.stats.as_dict(),
        "timings": dict(state.timings),
    }
    _add_degradation(
        payload, state.stats,
        aborted_faults=state.n_aborted,
        approximate=state.atpg.approximate,
    )
    return payload


@task("resynthesize", fingerprint=_circuit_fingerprint)
def resynthesize_task(params: Mapping[str, object], ctx: TaskContext) -> dict:
    from repro.core import (
        ResynthesisConfig,
        resynthesize_for_coverage,
        table1_row,
        table2_row,
    )

    name, scale, variant = _circuit_params(params)
    library = _library_variant(variant)
    circuit = _built_circuit(name, scale, variant)
    config = ResynthesisConfig(
        q_max=int(params.get("q_max", 5)),
        max_iterations_per_phase=int(
            params.get("max_iterations_per_phase", 25)
        ),
        seed=int(params.get("seed", 0)),
    )
    result = resynthesize_for_coverage(circuit, library, config)
    payload = {
        "circuit": name,
        "variant": variant,
        "rows": table2_row(name, result),
        "original_row": table1_row(name, result.original),
        "q_used": result.q_used,
        "iterations": len(result.history),
        "stats": result.stats.as_dict(),
        "runtime": result.runtime,
        "baseline_runtime": result.baseline_runtime,
    }
    engine = result.stats.engine
    _add_degradation(
        payload, engine, aborted_verdicts=engine.verdicts_aborted,
    )
    return payload


# ----------------------------------------------------------------------
# Synthetic tasks (failure-path tests, CI fault injection)
# ----------------------------------------------------------------------

@task("sum")
def sum_task(params: Mapping[str, object], ctx: TaskContext) -> dict:
    return {"value": int(params.get("value", 0))}


@task("sleep")
def sleep_task(params: Mapping[str, object], ctx: TaskContext) -> dict:
    seconds = float(params.get("seconds", 0.0))
    time.sleep(seconds)
    return {"slept": seconds}


@task("hang")
def hang_task(params: Mapping[str, object], ctx: TaskContext) -> dict:
    time.sleep(float(params.get("seconds", 3600.0)))
    return {"hung": False}


@task("flaky")
def flaky_task(params: Mapping[str, object], ctx: TaskContext) -> dict:
    fail_times = int(params.get("fail_times", 1))
    counter = os.path.join(ctx.run_dir, f"flaky-{ctx.task_id}.count")
    failures = 0
    if os.path.exists(counter):
        with open(counter) as fh:
            failures = int(fh.read().strip() or "0")
    if failures < fail_times:
        with open(counter, "w") as fh:
            fh.write(str(failures + 1))
        raise RuntimeError(
            f"flaky failure {failures + 1}/{fail_times}"
        )
    return {"value": int(params.get("value", 0)), "failures": failures}


@task("kill_self")
def kill_self_task(params: Mapping[str, object], ctx: TaskContext) -> dict:
    marker = os.path.join(ctx.run_dir, f"killed-{ctx.task_id}.marker")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("armed\n")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": int(params.get("value", 0)), "survived": True}


# ----------------------------------------------------------------------
# Campaign builders
# ----------------------------------------------------------------------

def paper_campaign(
    circuits: List[str],
    run_id: str,
    *,
    tables: Tuple[int, ...] = (1, 2),
    q_max: int = 3,
    max_iterations_per_phase: int = 6,
    scale: int = 1,
    seed: int = 0,
    variants: Tuple[str, ...] = ("full",),
    isolation: str = "inline",
    timeout: float = None,
    retries: int = 0,
    backoff: float = 1.0,
):
    """The paper's sweep as a campaign.

    Table 1 adds one ``analyze`` task per (variant, circuit); Table 2
    adds one ``resynthesize`` task per (variant, circuit) — each task is
    independent, so a crash loses at most one circuit's work.
    """
    from repro.runner.model import CampaignSpec, TaskSpec

    specs: List[TaskSpec] = []
    policy = dict(
        isolation=isolation, timeout=timeout, retries=retries,
        backoff=backoff,
    )
    for variant in variants:
        for name in circuits:
            base = {"circuit": name, "scale": scale, "seed": seed,
                    "variant": variant}
            if 1 in tables and 2 not in tables:
                specs.append(TaskSpec(
                    task_id=f"analyze:{variant}:{name}", kind="analyze",
                    params=base, **policy,
                ))
            if 2 in tables:
                # The resynthesize payload carries the original design's
                # Table I row too, so one task serves both tables.
                specs.append(TaskSpec(
                    task_id=f"resynthesize:{variant}:{name}",
                    kind="resynthesize",
                    params={
                        **base,
                        "q_max": q_max,
                        "max_iterations_per_phase": max_iterations_per_phase,
                    },
                    **policy,
                ))
    return CampaignSpec(
        run_id=run_id,
        tasks=specs,
        meta={
            "kind": "paper-sweep",
            "circuits": list(circuits),
            "tables": sorted(tables),
            "q_max": q_max,
            "max_iterations_per_phase": max_iterations_per_phase,
            "scale": scale,
            "seed": seed,
            "variants": list(variants),
        },
    )
