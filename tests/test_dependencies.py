"""The package runs on the standard library alone, and reads only the
ATPG budget from the environment.

``pyproject.toml`` declares no runtime dependency, so importing the
layers a flow or campaign uses must not pull one in behind its back.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys

import repro
from repro.atpg.budget import ENV_VARS

_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_core_packages_import_without_third_party_modules():
    """A fresh interpreter importing the flow, runner, fault and netlist
    layers loads neither numpy nor the graph/science packages the
    project once listed."""
    code = (
        "import sys\n"
        "import repro.core, repro.runner, repro.faults, repro.netlist\n"
        "print(sorted({'numpy', 'networkx', 'scipy'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC_ROOT, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_env_knobs_are_the_atpg_budget():
    """Every ``REPRO_*`` name in the package's code is one of the ATPG
    budget's :data:`~repro.atpg.budget.ENV_VARS`, declared in
    ``atpg/budget.py`` and nowhere else."""
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    knob = re.compile(r"REPRO_[A-Z0-9_]+")
    modules = {}  # name -> modules that spell it
    for dirpath, _dirs, files in os.walk(pkg):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and knob.fullmatch(node.value)
                ):
                    modules.setdefault(node.value, set()).add(
                        os.path.relpath(path, pkg)
                    )
    assert set(modules) == set(ENV_VARS)
    assert set().union(*modules.values()) == {
        os.path.join("atpg", "budget.py")
    }


_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_tracer_installs():
    """The benchmark's tracer (``perfbench/spans.py``) finds every
    function its ``WRAPS`` names, wraps it, and puts it back: a change
    to ``src/`` that drops a wrapped name fails here."""
    path = os.path.join(_REPO_ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {m: importlib.import_module(m) for m, _a, _l in spans.WRAPS}
    before = {
        (m, a): getattr(modules[m], a, None) for m, a, _l in spans.WRAPS
    }
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (module, attr), fn in before.items():
            assert getattr(modules[module], attr) is not fn
    finally:
        tracer.uninstall()
    assert {
        (m, a): getattr(modules[m], a, None) for m, a in before
    } == before


def _unused_imports(path):
    """Sorted names the module at *path* imports and never reads.

    A module's ``__all__`` strings count as reads: they declare its
    re-exports.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                a.asname or a.name.split(".")[0] for a in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and not isinstance(
            node.ctx, ast.Store
        ):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            read.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant)
            )
    return sorted(imported - read)


def test_no_unused_imports():
    """No module under ``src/``, ``tests/`` or ``benchmarks/`` imports a
    name it never reads, apart from the verbatim ``tests/*_reference.py``
    copies of old code and one import kept for its side effect."""
    unused = {}
    for top in ("src", "tests", "benchmarks"):
        for dirpath, _dirs, files in os.walk(os.path.join(_REPO_ROOT, top)):
            for name in files:
                if not name.endswith(".py") or name.endswith("_reference.py"):
                    continue
                path = os.path.join(dirpath, name)
                found = _unused_imports(path)
                if found:
                    unused[os.path.relpath(path, _REPO_ROOT)] = found
    # registry.py imports repro.runner.tasks to register the built-in
    # task kinds.
    assert unused == {
        os.path.join("src", "repro", "runner", "registry.py"): ["repro"],
    }
