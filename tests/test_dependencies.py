"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency, so importing the
layers a flow or campaign uses must not pull one in behind its back.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

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
