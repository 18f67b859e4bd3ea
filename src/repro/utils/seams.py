"""Instrumented failure-injection seams.

A *seam* is a named point in the engine where a chaos harness (see
:mod:`repro.testing.chaos`) may observe or perturb execution: force a
SAT decision to abort, corrupt a cache entry on its way out, raise in
the middle of an analysis.  Production code fires seams with::

    from repro.utils import seams
    if seams.active and seams.fire("atpg.decide", fault=fault) == "abort":
        ...

The module-level :data:`active` flag keeps the disabled path to a single
attribute read, so seams cost nothing unless a harness is installed.

This module sits in the ``utils`` layer on purpose (like
:mod:`repro.utils.observability`): every layer above it fires seams, so
it must not import any of them.  Handlers are process-global and not
thread-scoped — concurrent engines share one installed harness, which is
what a chaos run wants.

Known seam names (the registry does not enforce this list):

* ``atpg.decide`` — before each exact per-fault SAT decision; a handler
  returning ``"abort"`` forces an ABORTED verdict for that fault.
* ``fsim.good_cache_hit`` — on each good-value cache hit, with the
  ``plan`` (:class:`~repro.netlist.simulator.CompiledCircuit`) and the
  hit ``batch_key``; a handler may corrupt or replace
  ``plan.good_cache[batch_key]`` to model a rotten cache entry (pair
  with cache integrity checking, which catches and repairs it).
* ``flow.analyze`` — inside :func:`repro.core.flow.analyze_design`; a
  handler may raise to model a crash mid-analysis.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

#: True iff at least one handler is registered.  Hot paths read this
#: before calling :func:`fire`.
active = False

_handlers: Dict[str, Callable[..., object]] = {}


def register(name: str, handler: Callable[..., object]) -> None:
    """Install *handler* for seam *name* (replacing any previous one)."""
    global active
    _handlers[name] = handler
    active = True


def unregister(name: str) -> None:
    """Remove the handler for seam *name* (no-op if absent)."""
    global active
    _handlers.pop(name, None)
    active = bool(_handlers)


def clear() -> None:
    """Remove every handler (test teardown hook)."""
    global active
    _handlers.clear()
    active = False


def handler_for(name: str) -> Optional[Callable[..., object]]:
    """The installed handler for *name*, or None."""
    return _handlers.get(name)


def fire(name: str, **context: object) -> object:
    """Invoke the handler for *name* with *context*; None if uninstalled.

    Whatever the handler returns is passed back to the firing site; a
    handler may also raise, which propagates (that is the point of the
    ``flow.analyze`` seam).
    """
    handler = _handlers.get(name)
    if handler is None:
        return None
    return handler(**context)
