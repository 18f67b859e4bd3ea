"""The package runs on the standard library alone, and reads only the
ATPG budget from the environment.

``pyproject.toml`` declares no runtime dependency, so importing the
layers a flow or campaign uses must not pull one in behind its back.
"""

from __future__ import annotations

import ast
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
