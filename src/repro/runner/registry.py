"""Task-kind registry for the experiment orchestrator.

Task implementations are plain functions ``(params, ctx) -> payload``
registered under a kind name.  Payloads must be JSON-serializable: they
are journaled verbatim in ``task_end`` events and shipped across the
process-isolation boundary.  Rich Python results (e.g.
:class:`~repro.core.flow.DesignState` objects) go into ``ctx.store``,
which exists only for inline execution in the orchestrating process.

A kind may also register a *fingerprint hook*, which checks the task's
inputs and returns extra input-content material (e.g. a structural
circuit hash) folded into the task's fingerprint, so resume re-executes
when the inputs, not just the parameters, changed.  A hook raises
:class:`~repro.runner.model.CampaignError`, one line per problem, when
the inputs are unusable (a circuit that does not build or lint); the
runner fingerprints every task before it touches the run directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.runner.model import CampaignError, TaskSpec

TaskFn = Callable[[Mapping[str, object], "TaskContext"], dict]
FingerprintFn = Callable[[Mapping[str, object]], object]

_TASKS: Dict[str, TaskFn] = {}
_FINGERPRINTS: Dict[str, FingerprintFn] = {}


@dataclass
class TaskContext:
    """What a task implementation sees at execution time."""

    run_dir: str
    task_id: str
    attempt: int = 1
    store: Optional[dict] = None  # in-process object store (inline only)


def task(name: str, fingerprint: Optional[FingerprintFn] = None):
    """Register a task implementation under *name*."""

    def decorator(fn: TaskFn) -> TaskFn:
        if name in _TASKS:
            raise ValueError(f"task kind {name!r} already registered")
        _TASKS[name] = fn
        if fingerprint is not None:
            _FINGERPRINTS[name] = fingerprint
        return fn

    return decorator


def get_task(name: str) -> TaskFn:
    _ensure_builtin_tasks()
    try:
        return _TASKS[name]
    except KeyError:
        raise KeyError(
            f"unknown task kind {name!r}; known: {sorted(_TASKS)}"
        ) from None


def fingerprint_extra(spec: TaskSpec) -> object:
    """Kind-specific input digest folded into *spec*'s fingerprint.

    Raises :class:`CampaignError` for an unknown kind or with the
    problems the kind's hook found, each line naming the task.
    """
    _ensure_builtin_tasks()
    if spec.kind not in _TASKS:
        raise CampaignError(
            f"task {spec.task_id}: unknown task kind {spec.kind!r}; "
            f"known: {sorted(_TASKS)}"
        )
    hook = _FINGERPRINTS.get(spec.kind)
    if hook is None:
        return None
    try:
        return hook(spec.params)
    except CampaignError as exc:
        raise CampaignError("\n".join(
            f"task {spec.task_id}: {line}" for line in str(exc).splitlines()
        )) from None


def _ensure_builtin_tasks() -> None:
    # Imported lazily so `import repro.runner` stays cheap and the
    # registry module has no dependency on the heavy flow modules.
    import repro.runner.tasks  # noqa: F401
