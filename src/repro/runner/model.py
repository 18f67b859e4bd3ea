"""Task and campaign model of the experiment orchestrator.

A :class:`TaskSpec` describes one idempotent unit of work: a registered
task *kind* plus JSON parameters, its dependencies, and its execution
policy (timeout / retries / backoff / isolation).  A
:class:`CampaignSpec` is a named DAG of tasks; it validates to a
deterministic topological order, serializes to ``campaign.json`` inside
the run directory, and is what ``resume`` reloads after a crash.

Fingerprints implement the same content-keying discipline as the
resynthesis evaluation cache: a task's fingerprint hashes its kind,
parameters, kind-specific input digest (for circuit tasks: a structural
hash of the built benchmark netlist and the library variant), the ATPG
budget's environment knobs (the only environment input that changes a
result), and — Merkle-style — the fingerprints of its dependencies.  On
resume, a journaled ``ok`` result is reused only when its recorded
fingerprint still matches; any config, circuit, budget, or upstream
change re-executes exactly the affected cone, and nothing else does.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

# The environment inputs that change what tasks compute: the ATPG
# budget, which decides which faults abort, and so the U, Cov and
# approximate flag of every analysis.  They are folded into every
# fingerprint, so a resume under a different budget re-executes instead
# of serving rows computed under the old one.
from repro.atpg.budget import ENV_VARS as ENV_KNOBS


class CampaignError(ValueError):
    """Invalid campaign: duplicate ids, unknown deps, or cycles."""


@dataclass(frozen=True)
class TaskSpec:
    """One idempotent task of a campaign."""

    task_id: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    deps: Tuple[str, ...] = ()
    timeout: Optional[float] = None  # wall-clock seconds per attempt
    retries: int = 0  # extra attempts after the first failure
    backoff: float = 1.0  # base backoff seconds, doubled per retry
    isolation: str = "inline"  # "inline" | "process"

    def __post_init__(self):
        if self.isolation not in ("inline", "process"):
            raise CampaignError(
                f"task {self.task_id}: unknown isolation {self.isolation!r}"
            )
        if self.retries < 0:
            raise CampaignError(f"task {self.task_id}: negative retries")

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.task_id,
            "kind": self.kind,
            "params": dict(self.params),
            "deps": list(self.deps),
            "timeout": self.timeout,
            "retries": self.retries,
            "backoff": self.backoff,
            "isolation": self.isolation,
        }

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "TaskSpec":
        return TaskSpec(
            task_id=str(data["id"]),
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),
            deps=tuple(data.get("deps", ())),
            timeout=data.get("timeout"),
            retries=int(data.get("retries", 0)),
            backoff=float(data.get("backoff", 1.0)),
            isolation=str(data.get("isolation", "inline")),
        )


@dataclass
class CampaignSpec:
    """A named DAG of tasks plus free-form campaign metadata."""

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

    def topo_order(self) -> List[TaskSpec]:
        """Deterministic topological order (declaration order, deps first)."""
        by_id = self.by_id()
        for spec in self.tasks:
            for dep in spec.deps:
                if dep not in by_id:
                    raise CampaignError(
                        f"task {spec.task_id}: unknown dep {dep!r}"
                    )
        order: List[TaskSpec] = []
        state: Dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(spec: TaskSpec) -> None:
            mark = state.get(spec.task_id)
            if mark == 2:
                return
            if mark == 1:
                raise CampaignError(
                    f"dependency cycle through {spec.task_id!r}"
                )
            state[spec.task_id] = 1
            for dep in spec.deps:
                visit(by_id[dep])
            state[spec.task_id] = 2
            order.append(spec)

        for spec in self.tasks:
            visit(spec)
        return order

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
    dep_fingerprints: Mapping[str, str],
    extra: object = None,
    env: Optional[Mapping[str, str]] = None,
) -> str:
    """Content fingerprint of one task.

    *extra* is the kind-specific input digest (e.g. the structural hash
    of the benchmark circuit a task analyzes) provided by the task
    registry; *dep_fingerprints* chains the fingerprints of the task's
    dependencies, so an upstream change invalidates the whole cone.
    """
    body = {
        "kind": spec.kind,
        "params": dict(spec.params),
        "extra": extra,
        "env": env_knobs(env),
        "deps": {d: dep_fingerprints[d] for d in spec.deps},
    }
    digest = hashlib.sha256(_canonical(body).encode()).hexdigest()
    return f"sha256:{digest}"


def fingerprint_campaign(
    campaign: CampaignSpec,
    env: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    """Fingerprints for every task of *campaign*, in one pass."""
    from repro.runner.registry import fingerprint_extra

    fps: Dict[str, str] = {}
    for spec in campaign.topo_order():
        fps[spec.task_id] = fingerprint_task(
            spec, fps, extra=fingerprint_extra(spec.kind, spec.params),
            env=env,
        )
    return fps


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
