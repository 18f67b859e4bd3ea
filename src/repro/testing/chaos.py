"""Chaos fault-injection harness.

Drives the engine's instrumented seams (:mod:`repro.utils.seams`) with
deterministic, seeded failure patterns, so tests and the CI chaos job
can assert the *safety invariants* of every degradation path:

* an injected SAT abort must surface as an ABORTED verdict — never as a
  silent undetectability claim (the chaos run's undetectable set is a
  subset of the clean run's);
* a corrupted good-value cache entry must be caught by the integrity
  checksum and recomputed — results stay bit-identical to a clean run,
  with only ``EngineStats.cache_integrity_failures`` recording the
  repair;
* an exception raised mid-analysis must propagate (no half-analyzed
  state is ever returned) and, under the runner, become an explicit
  task failure in the journal.

Worker death is exercised end-to-end by the orchestrator's ``--kill-at``
SIGKILL injection plus resume (see ``tests/test_chaos.py`` and the
``orchestrator-crash-resume`` CI job) rather than through a seam.

Configuration comes from a :class:`ChaosConfig` — programmatically or
from the ``REPRO_CHAOS`` environment variable (``key=value`` pairs,
comma-separated), e.g.::

    REPRO_CHAOS="seed=7,corrupt_good_cache_every=5" pytest -q

All injection decisions are derived from the config's seed and
per-seam call counters, never from wall clock or global RNG state, so a
chaos run is exactly reproducible.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Mapping, Optional

from repro.netlist.simulator import set_cache_integrity
from repro.utils import seams


class ChaosError(RuntimeError):
    """The injected failure raised by the ``flow.analyze`` seam."""


@dataclass(frozen=True)
class ChaosConfig:
    """What to inject, and deterministically when.

    * ``seed`` — seeds the private RNG behind ``sat_abort_rate``;
    * ``sat_abort_rate`` — probability that any given per-fault SAT
      decision is forced to abort;
    * ``sat_abort_calls`` — explicit 0-based decide-call indices to
      abort (unioned with the rate; used by property tests to exercise
      arbitrary abort patterns);
    * ``corrupt_good_cache_every`` — corrupt every Nth good-value cache
      hit before it is served (0 disables).  Installing a corrupting
      injector force-enables cache integrity checking so the corruption
      is caught rather than silently served;
    * ``fail_analyze_at`` — raise :class:`ChaosError` on the Nth
      ``flow.analyze`` call (1-based; 0 disables).
    """

    seed: int = 0
    sat_abort_rate: float = 0.0
    sat_abort_calls: FrozenSet[int] = frozenset()
    corrupt_good_cache_every: int = 0
    fail_analyze_at: int = 0

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["ChaosConfig"]:
        """Parse ``REPRO_CHAOS``; None when unset/empty.

        Format: comma-separated ``key=value`` pairs over the field
        names; ``sat_abort_calls`` takes colon-separated indices
        (``sat_abort_calls=0:3:7``).  Unknown keys are an error — a
        typo must not silently disable the intended chaos.
        """
        if environ is None:
            import os

            environ = os.environ
        spec = environ.get("REPRO_CHAOS", "").strip()
        if not spec:
            return None
        kwargs: Dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"REPRO_CHAOS: expected key=value, got {item!r}")
            key = key.strip()
            value = value.strip()
            if key == "sat_abort_rate":
                kwargs[key] = float(value)
            elif key == "sat_abort_calls":
                kwargs[key] = frozenset(
                    int(tok) for tok in value.split(":") if tok
                )
            elif key in (
                "seed", "corrupt_good_cache_every", "fail_analyze_at",
            ):
                kwargs[key] = int(value)
            else:
                raise ValueError(f"REPRO_CHAOS: unknown key {key!r}")
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass
class ChaosCounters:
    """What the injector actually did (assertable by tests)."""

    decide_calls: int = 0
    aborts_injected: int = 0
    cache_hits_seen: int = 0
    corruptions_injected: int = 0
    analyze_calls: int = 0
    failures_raised: int = 0


class ChaosInjector:
    """Registers seam handlers implementing a :class:`ChaosConfig`.

    Use as a context manager (see :func:`chaos`) or call
    :meth:`install` / :meth:`uninstall` explicitly.  Not re-entrant:
    one injector owns the process-global seam registry at a time.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.counters = ChaosCounters()
        self._rng = random.Random(config.seed)
        self._prev_integrity: Optional[bool] = None
        self._installed = False

    # -- seam handlers --------------------------------------------------
    def _on_decide(self, fault: object = None, **_: object) -> Optional[str]:
        cfg = self.config
        idx = self.counters.decide_calls
        self.counters.decide_calls += 1
        abort = idx in cfg.sat_abort_calls
        if not abort and cfg.sat_abort_rate > 0.0:
            abort = self._rng.random() < cfg.sat_abort_rate
        if abort:
            self.counters.aborts_injected += 1
            return "abort"
        return None

    def _on_cache_hit(
        self, plan: object = None, batch_key: object = None, **_: object
    ) -> None:
        cfg = self.config
        self.counters.cache_hits_seen += 1
        if not cfg.corrupt_good_cache_every:
            return
        if self.counters.cache_hits_seen % cfg.corrupt_good_cache_every:
            return
        cached = plan.good_cache.get(batch_key)  # type: ignore[attr-defined]
        if not cached or len(cached[0]) == 0:
            return
        # Replace the entry with a bit-flipped *copy*: references handed
        # out on earlier hits must stay pristine (the corruption models
        # rot inside the cache, not retroactive damage to past results).
        rotten = tuple(list(vec) for vec in cached)
        rotten[0][len(rotten[0]) // 2] ^= 1
        plan.good_cache[batch_key] = rotten  # type: ignore[attr-defined]
        self.counters.corruptions_injected += 1

    def _on_analyze(self, **_: object) -> None:
        cfg = self.config
        self.counters.analyze_calls += 1
        if cfg.fail_analyze_at and self.counters.analyze_calls == cfg.fail_analyze_at:
            self.counters.failures_raised += 1
            raise ChaosError(
                f"injected failure in analyze_design call "
                f"#{self.counters.analyze_calls}"
            )

    # -- lifecycle ------------------------------------------------------
    def install(self) -> "ChaosInjector":
        if self._installed:
            raise RuntimeError("chaos injector already installed")
        cfg = self.config
        if cfg.sat_abort_rate > 0.0 or cfg.sat_abort_calls:
            seams.register("atpg.decide", self._on_decide)
        if cfg.corrupt_good_cache_every:
            # Corrupting without verification would serve wrong values —
            # exactly the silent failure this harness exists to rule out.
            self._prev_integrity = set_cache_integrity(True)
            seams.register("fsim.good_cache_hit", self._on_cache_hit)
        if cfg.fail_analyze_at:
            seams.register("flow.analyze", self._on_analyze)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        seams.unregister("atpg.decide")
        seams.unregister("fsim.good_cache_hit")
        seams.unregister("flow.analyze")
        if self._prev_integrity is not None:
            set_cache_integrity(self._prev_integrity)
            self._prev_integrity = None
        self._installed = False


@contextmanager
def chaos(config: ChaosConfig) -> Iterator[ChaosInjector]:
    """Install *config*'s injector for the duration of the block."""
    injector = ChaosInjector(config).install()
    try:
        yield injector
    finally:
        injector.uninstall()


def install_from_env(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[ChaosInjector]:
    """Install an injector from ``REPRO_CHAOS`` (None when unset).

    Used by the test suite's session fixture so the whole tier-1 suite
    can run under a fixed chaos pattern in CI; the caller owns the
    returned injector and should eventually :meth:`~ChaosInjector.
    uninstall` it.
    """
    config = ChaosConfig.from_env(environ)
    if config is None:
        return None
    return ChaosInjector(config).install()
