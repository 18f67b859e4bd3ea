"""Start-up hook for the interpreters an operation starts.

The runner starts each process-isolated task in a fresh interpreter, out
of reach of code run in the benchmark's own process.  run.py therefore
puts this directory first on ``PYTHONPATH``, and Python imports this
module at start-up in every interpreter the operation starts.  With
``PERFBENCH_SPEED_DIR`` set, ``hostspeed.sample_process`` samples the
host's speed in it (every operation); with ``PERFBENCH_SPAN_DIR``
set, ``spans.trace_process`` traces it (traced campaign operations).
"""

import importlib.util
import os

_HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(_HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


if os.environ.get("PERFBENCH_SPEED_DIR"):
    _load("hostspeed").sample_process(os.environ["PERFBENCH_SPEED_DIR"])
if os.environ.get("PERFBENCH_SPAN_DIR"):
    _load("spans").trace_process(os.environ["PERFBENCH_SPAN_DIR"])
