"""Task and campaign model of the experiment orchestrator.

A :class:`TaskSpec` describes one idempotent unit of work: a registered
task *kind* plus JSON parameters and its execution policy (timeout /
retries / backoff / isolation), which it checks on construction.  A
:class:`CampaignSpec` is a named list of independent tasks; it
serializes to ``campaign.json`` inside the run directory, and is what
``resume`` reloads after a crash.

Fingerprints implement the same content-keying discipline as the
resynthesis evaluation cache: a task's fingerprint hashes its kind,
parameters, kind-specific input digest (for circuit tasks: a structural
hash of the built benchmark netlist and the library variant) and the
ATPG budget's environment knobs (the only environment input that
changes a result).  On resume, a journaled ``ok`` result is reused only
when its recorded fingerprint still matches; any config, circuit or
budget change re-executes exactly the tasks it affects.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

# The environment inputs that change what tasks compute: the ATPG
# budget, which decides which faults abort, and so the U, Cov and
# approximate flag of every analysis.  They are folded into every
# fingerprint, so a resume under a different budget re-executes instead
# of serving rows computed under the old one.
from repro.atpg.budget import ENV_VARS as ENV_KNOBS


class CampaignError(ValueError):
    """Invalid campaign: duplicate ids, dependencies, unknown kinds, an
    execution policy out of range, or task inputs that fail their check."""


def _finite(value: object) -> bool:
    """A finite int or float (``bool`` is not a number here)."""
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass(frozen=True)
class TaskSpec:
    """One idempotent task of a campaign."""

    task_id: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    # Wall-clock seconds per attempt, enforced by killing the task's
    # worker process, so only a process-isolated task takes one.
    timeout: Optional[float] = None
    retries: int = 0  # extra attempts after the first failure
    backoff: float = 1.0  # base backoff seconds, doubled per retry
    isolation: str = "inline"  # "inline" | "process"

    def __post_init__(self):
        retries, backoff, timeout = self.retries, self.backoff, self.timeout
        checks = (
            (self.isolation in ("inline", "process"),
             f"unknown isolation {self.isolation!r}"),
            (isinstance(retries, int) and not isinstance(retries, bool)
             and retries >= 0,
             f"retries must be an integer >= 0, not {retries!r}"),
            (_finite(backoff) and backoff >= 0,
             f"backoff must be a finite number >= 0, not {backoff!r}"),
            (timeout is None or (_finite(timeout) and timeout > 0),
             f"timeout must be a finite number > 0, not {timeout!r}"),
            (timeout is None or self.isolation == "process",
             "a timeout needs isolation 'process' (only a worker process "
             "can be killed)"),
        )
        for ok, problem in checks:
            if not ok:
                raise CampaignError(f"task {self.task_id}: {problem}")

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.task_id,
            "kind": self.kind,
            "params": dict(self.params),
            "timeout": self.timeout,
            "retries": self.retries,
            "backoff": self.backoff,
            "isolation": self.isolation,
        }

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "TaskSpec":
        # Files of earlier revisions carry "deps": [] on every task;
        # campaign tasks are independent, so any dependency is an error.
        if data.get("deps"):
            raise CampaignError(
                f"task {data['id']}: unsupported deps {list(data['deps'])}"
            )
        return TaskSpec(
            task_id=str(data["id"]),
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),
            timeout=data.get("timeout"),
            retries=data.get("retries", 0),
            backoff=data.get("backoff", 1.0),
            isolation=str(data.get("isolation", "inline")),
        )


@dataclass
class CampaignSpec:
    """A named list of independent tasks plus free-form metadata."""

    run_id: str
    tasks: List[TaskSpec] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def by_id(self) -> Dict[str, TaskSpec]:
        out: Dict[str, TaskSpec] = {}
        for spec in self.tasks:
            if spec.task_id in out:
                raise CampaignError(f"duplicate task id {spec.task_id!r}")
            out[spec.task_id] = spec
        return out

    def to_json(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "meta": dict(self.meta),
            "tasks": [spec.to_json() for spec in self.tasks],
        }

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "CampaignSpec":
        return CampaignSpec(
            run_id=str(data["run_id"]),
            tasks=[TaskSpec.from_json(t) for t in data.get("tasks", ())],
            meta=dict(data.get("meta", {})),
        )

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> "CampaignSpec":
        with open(path) as fh:
            return CampaignSpec.from_json(json.load(fh))


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def _canonical(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def env_knobs(env: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
    """The ATPG budget knobs set in *env*, folded into fingerprints."""
    src = os.environ if env is None else env
    return {k: src[k] for k in ENV_KNOBS if k in src}


def fingerprint_task(
    spec: TaskSpec,
    extra: object = None,
    env: Optional[Mapping[str, str]] = None,
) -> str:
    """Content fingerprint of one task.

    *extra* is the kind-specific input digest (e.g. the structural hash
    of the benchmark circuit a task analyzes) provided by the task
    registry.
    """
    body = {
        "kind": spec.kind,
        "params": dict(spec.params),
        "extra": extra,
        "env": env_knobs(env),
        # Tasks had dependencies once, whose fingerprints were hashed
        # here.  The empty map keeps every journaled fingerprint (and
        # the golden values in tests/test_runner.py) valid, so runs
        # journaled then still resume with zero re-execution.
        "deps": {},
    }
    digest = hashlib.sha256(_canonical(body).encode()).hexdigest()
    return f"sha256:{digest}"


def fingerprint_campaign(
    campaign: CampaignSpec,
    env: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    """Fingerprints for every task of *campaign*."""
    from repro.runner.registry import fingerprint_extra

    return {
        spec.task_id: fingerprint_task(
            spec, extra=fingerprint_extra(spec), env=env
        )
        for spec in campaign.tasks
    }


def structural_circuit_hash(circuit) -> str:
    """Order-independent structural digest of a gate-level netlist."""
    h = hashlib.sha256()
    h.update(_canonical(list(circuit.inputs)).encode())
    h.update(_canonical(list(circuit.outputs)).encode())
    for name in sorted(circuit.gates):
        gate = circuit.gates[name]
        h.update(
            _canonical(
                [name, gate.cell, sorted(gate.pins.items()), gate.output]
            ).encode()
        )
    return f"sha256:{h.hexdigest()}"
