"""Chaos fault injection: every degradation is explicit, never silent.

The invariants under test, per seam:

* ``atpg.decide`` aborts: verdicts stay a partition of F, the
  undetectable set only shrinks relative to a clean run, and the aborts
  surface in the stats (see also tests/test_verdicts.py);
* ``fsim.good_cache_hit`` corruption: the integrity checksum catches the
  rot, the entry is recomputed, results are bit-identical to a clean
  run, and the repair is counted;
* ``flow.analyze`` failure: the exception propagates — a half-analyzed
  state is never returned — and under the orchestrator it becomes an
  explicit failed task in the journal and report;
* worker death: the orchestrator SIGKILL + resume path (exercised in
  tests/test_runner.py and the CI crash-resume job) journals the
  interruption and never re-executes completed work.
"""

from __future__ import annotations

import pytest

from repro.atpg import run_atpg
from repro.core import analyze_design
from repro.faults.fsim import PatternBatch, fault_simulate
from repro.netlist.simulator import CompiledCircuit, set_cache_integrity
from repro.testing import ChaosConfig, ChaosError, ChaosInjector, chaos
from repro.utils import seams
from repro.utils.observability import EngineStats
from tests.conftest import mixed_fault_list, random_mapped_circuit


class TestChaosConfig:
    def test_from_env_unset(self):
        assert ChaosConfig.from_env({}) is None
        assert ChaosConfig.from_env({"REPRO_CHAOS": "  "}) is None

    def test_from_env_full_spec(self):
        config = ChaosConfig.from_env({
            "REPRO_CHAOS": (
                "seed=7, sat_abort_rate=0.25, sat_abort_calls=0:3:7,"
                " corrupt_good_cache_every=5, fail_analyze_at=2"
            ),
        })
        assert config == ChaosConfig(
            seed=7, sat_abort_rate=0.25,
            sat_abort_calls=frozenset({0, 3, 7}),
            corrupt_good_cache_every=5, fail_analyze_at=2,
        )

    def test_from_env_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            ChaosConfig.from_env({"REPRO_CHAOS": "sat_abrot_rate=1"})

    def test_from_env_rejects_bare_token(self):
        with pytest.raises(ValueError, match="key=value"):
            ChaosConfig.from_env({"REPRO_CHAOS": "chaos"})


class TestInjectorLifecycle:
    def test_install_uninstall_restores_seams(self):
        assert not seams.active
        with chaos(ChaosConfig(sat_abort_rate=1.0)):
            assert seams.active
            assert seams.handler_for("atpg.decide") is not None
        assert not seams.active
        assert seams.handler_for("atpg.decide") is None

    def test_double_install_rejected(self):
        injector = ChaosInjector(ChaosConfig(sat_abort_rate=1.0)).install()
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                injector.install()
        finally:
            injector.uninstall()

    def test_corrupting_injector_forces_integrity(self):
        previous = set_cache_integrity(False)
        try:
            with chaos(ChaosConfig(corrupt_good_cache_every=1)):
                # Installing the corrupter without verification would let
                # wrong values be served — the injector must prevent that.
                from repro.netlist import simulator

                assert simulator._CACHE_INTEGRITY
            assert not simulator._CACHE_INTEGRITY
        finally:
            set_cache_integrity(previous)


class TestCacheCorruption:
    def _plan_and_frames(self, tiny_circuit, cells):
        plan = CompiledCircuit.get(tiny_circuit, cells)
        plan.good_cache.clear()
        plan.good_sums.clear()
        frames = [{"a": 0b1100, "b": 0b1010}, {"a": 0b0011, "b": 0b0101}]
        return plan, frames, 0b1111

    def test_corruption_detected_and_repaired(self, tiny_circuit, cells):
        plan, frames, mask = self._plan_and_frames(tiny_circuit, cells)
        stats = EngineStats()
        first = plan.good_values(("k",), frames, mask, stats)
        with chaos(ChaosConfig(corrupt_good_cache_every=1)) as injector:
            again = plan.good_values(("k",), frames, mask, stats)
            assert injector.counters.corruptions_injected == 1
        # The rotten entry was caught, dropped, and re-simulated: the
        # caller still sees bit-exact values.
        assert again == first
        assert stats.cache_integrity_failures == 1
        # The repaired entry is clean again on the next (chaos-free) hit.
        third = plan.good_values(("k",), frames, mask, stats)
        assert third == first

    def test_corruption_without_integrity_is_possible_by_hand(
        self, tiny_circuit, cells
    ):
        """The seam itself has no safety net — that's the checksum's job."""
        plan, frames, mask = self._plan_and_frames(tiny_circuit, cells)
        first = plan.good_values(("k",), frames, mask)
        previous = set_cache_integrity(False)
        try:
            def rot(plan, batch_key, **_):
                entry = tuple(list(v) for v in plan.good_cache[batch_key])
                entry[0][0] ^= 1
                plan.good_cache[batch_key] = entry

            seams.register("fsim.good_cache_hit", rot)
            served = plan.good_values(("k",), frames, mask)
            assert served != first  # silently wrong: what chaos guards against
        finally:
            seams.clear()
            set_cache_integrity(previous)
            plan.good_cache.clear()
            plan.good_sums.clear()

    def test_fault_simulate_bit_identical_under_cache_chaos(
        self, cells, library
    ):
        """Corrupted good-value entries served to fault simulation are
        caught and repaired: the detect words equal a clean run's."""
        circuit = random_mapped_circuit(cells, seed=17)
        faults = mixed_fault_list(circuit, library, seed=17)
        batch = PatternBatch.random(circuit, 48, seed=17)
        clean = fault_simulate(circuit, cells, faults, batch)
        with chaos(ChaosConfig(corrupt_good_cache_every=1)) as injector:
            stats = EngineStats()
            under_chaos = fault_simulate(
                circuit, cells, faults, batch, stats=stats
            )
        assert under_chaos == clean
        assert injector.counters.corruptions_injected >= 1
        assert stats.cache_integrity_failures >= 1

    def test_atpg_bit_identical_under_cache_chaos(self, adder4, cells, library):
        faults = mixed_fault_list(adder4, library, seed=2, per_kind=5)
        clean = run_atpg(adder4, cells, list(faults), seed=9)
        with chaos(ChaosConfig(corrupt_good_cache_every=3, seed=7)):
            chaotic = run_atpg(adder4, cells, list(faults), seed=9)
        assert chaotic.detected == clean.detected
        assert chaotic.undetectable == clean.undetectable
        assert chaotic.aborted == set()
        assert chaotic.tests == clean.tests


class TestAnalyzeFailure:
    def test_analyze_design_raises_not_returns(self, adder4, library):
        with chaos(ChaosConfig(fail_analyze_at=1)) as injector:
            with pytest.raises(ChaosError, match="analyze_design call #1"):
                analyze_design(adder4, library)
            assert injector.counters.failures_raised == 1
            # Later analyses in the same process succeed (the injected
            # failure is a one-shot, like a real transient crash).
            state = analyze_design(adder4, library)
        assert state.n_faults > 0
        assert not state.degraded

    def test_runner_journals_analyze_failure(self, tmp_path, monkeypatch):
        """Under the orchestrator a chaos crash is an explicit task failure."""
        from repro.runner import CampaignSpec, Runner, TaskSpec, read_journal

        # A task kind that runs a real (tiny) analysis through the seam.
        from repro.runner.registry import task

        @task("chaos_analyze")
        def chaos_analyze(params, ctx):  # noqa: ANN001
            from repro.library import osu018_library
            from repro.netlist import Circuit

            c = Circuit("t")
            c.add_input("a")
            c.add_input("b")
            c.add_gate("u1", "NAND2X1", {"A": "a", "B": "b"}, "y")
            c.set_outputs(["y"])
            state = analyze_design(c, osu018_library())
            return {"faults": state.n_faults}

        campaign = CampaignSpec(run_id="chaos-run", tasks=[
            TaskSpec("t1", "chaos_analyze", {}),
        ])
        with chaos(ChaosConfig(fail_analyze_at=1)):
            report = Runner(campaign, root=str(tmp_path)).execute()
        assert report["status"] == "failed"
        assert report["tasks"]["t1"]["status"] == "failed"
        events = read_journal(
            str(tmp_path / "chaos-run" / "journal.jsonl")
        )
        failures = [
            e for e in events
            if e.get("event") == "task_end" and e.get("status") == "failed"
        ]
        assert failures, "the chaos failure must be journaled explicitly"
        assert any("ChaosError" in str(e) or "injected" in str(e)
                   for e in failures)


class TestSatAbortChaos:
    def test_rate_one_aborts_every_sat_decision(self, adder4, cells, library):
        faults = mixed_fault_list(adder4, library, seed=2, per_kind=5)
        clean = run_atpg(adder4, cells, list(faults), seed=9, random_rounds=0)
        with chaos(ChaosConfig(sat_abort_rate=1.0)) as injector:
            chaotic = run_atpg(
                adder4, cells, list(faults), seed=9, random_rounds=0,
            )
        assert injector.counters.aborts_injected > 0
        assert injector.counters.aborts_injected == (
            injector.counters.decide_calls
        )
        # Nothing was proved undetectable — every undetectability claim
        # requires a completed UNSAT proof.
        assert chaotic.undetectable == set()
        assert chaotic.undetectable <= clean.undetectable
        all_ids = {f.fault_id for f in faults}
        assert chaotic.detected | chaotic.aborted == all_ids
        assert chaotic.stats.sat_aborts > 0
        assert chaotic.stats.degradations

    def test_seeded_rate_is_reproducible(self, adder4, cells, library):
        faults = mixed_fault_list(adder4, library, seed=2, per_kind=5)
        runs = []
        for _ in range(2):
            with chaos(ChaosConfig(sat_abort_rate=0.5, seed=11)):
                runs.append(run_atpg(
                    adder4, cells, list(faults), seed=9, random_rounds=0,
                ))
        assert runs[0].detected == runs[1].detected
        assert runs[0].undetectable == runs[1].undetectable
        assert runs[0].aborted == runs[1].aborted
