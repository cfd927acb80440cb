"""Flow guard: corrupted artifacts are caught; healthy runs untouched."""

from __future__ import annotations

import dataclasses
import math
import warnings

import pytest

from repro.core import FlowCache, FlowConfig, Tracer, run_flow
from repro.core.errors import GuardViolation
from repro.core.faults import FaultPlan
from repro.core.guard import GUARD_ENV, FlowGuard, default_mode
from repro.core.stages import StageStore
from repro.pnr.routing.router import GlobalRouter

from .golden_cases import CASES, MultiplierFactory

FACTORY = MultiplierFactory(4)
BASE = FlowConfig(arch="ffet", backside_pin_fraction=0.5, utilization=0.5)


class TestModes:
    def test_default_is_strict(self, monkeypatch):
        monkeypatch.delenv(GUARD_ENV, raising=False)
        assert default_mode() == "strict"
        assert FlowGuard().mode == "strict"

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV, "warn")
        assert FlowGuard().mode == "warn"

    def test_garbage_env_means_strict(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV, "yolo")
        assert default_mode() == "strict"

    def test_unknown_explicit_mode_rejected(self):
        with pytest.raises(ValueError):
            FlowGuard(mode="sometimes")


#: Each corruptible stage and the stage name the guard reports.
CORRUPTIONS = [
    ("placement:corrupt", "placement"),
    ("routing:corrupt", "routing"),
    ("def_merge:corrupt", "def_merge"),
    ("power:corrupt", "power"),
]


class TestStrictCatchesCorruption:
    @pytest.mark.parametrize("spec,stage", CORRUPTIONS)
    def test_corruption_raises_guard_violation(self, spec, stage):
        plan = FaultPlan.from_spec(spec)
        guard = FlowGuard(mode="strict")
        with pytest.raises(GuardViolation) as info:
            run_flow(FACTORY, BASE, guard=guard, faults=plan)
        assert info.value.stage == stage
        assert not info.value.transient  # fatal: no pointless retries

    def test_off_mode_lets_corruption_through(self):
        """Sanity check on the harness itself: without the guard, the
        damaged artifact flows on (or yields a nonsense result)."""
        plan = FaultPlan.from_spec("power:corrupt")
        result = run_flow(FACTORY, BASE, guard=FlowGuard(mode="off"),
                          faults=plan)
        assert result.power.total_mw < 0  # the corruption went unnoticed


class TestWarnMode:
    def test_warn_records_and_continues(self):
        plan = FaultPlan.from_spec("power:corrupt")
        guard = FlowGuard(mode="warn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_flow(FACTORY, BASE, guard=guard, faults=plan)
        assert result is not None  # run completed despite the violation
        assert guard.violations
        assert any("flow guard" in str(w.message) for w in caught)


class TestRouteConnectivity:
    """A maze backtrack that loses a step leaves a net disconnected; the
    guard catches it at the routing stage."""

    CONGESTED = CASES["ffet_dual_rv8_fm3bm3_u85"]

    @staticmethod
    def drop_first_step(monkeypatch):
        backtrack = GlobalRouter._backtrack

        def lossy(self, *args):
            return backtrack(self, *args)[1:]

        monkeypatch.setattr(GlobalRouter, "_backtrack", lossy)

    def test_strict_raises_at_routing(self, monkeypatch):
        self.drop_first_step(monkeypatch)
        factory, config = self.CONGESTED
        with pytest.raises(GuardViolation) as info:
            run_flow(factory, config, guard=FlowGuard(mode="strict"))
        assert info.value.stage == "routing"
        assert "does not connect" in str(info.value)

    def test_warn_records_and_counts(self, monkeypatch):
        self.drop_first_step(monkeypatch)
        factory, config = self.CONGESTED
        guard = FlowGuard(mode="warn")
        tracer = Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_flow(factory, config, guard=guard, tracer=tracer)
        assert any(v.startswith("routing: net ") for v in guard.violations)
        assert tracer.finish().counters["guard.violations"] >= 1

    def test_restored_routing_artifact_is_checked(self, tmp_path):
        """A broken route stored by an unguarded walk is caught when a
        strict walk replays it from the stage store."""
        factory, config = self.CONGESTED
        store = StageStore(FlowCache(tmp_path))
        with pytest.MonkeyPatch.context() as mp:
            self.drop_first_step(mp)
            run_flow(factory, config, guard=FlowGuard(mode="off"),
                     store=store, stop_after="routing")
        with pytest.raises(GuardViolation) as info:
            run_flow(factory, config, guard=FlowGuard(mode="strict"),
                     store=store, stop_after="routing")
        assert info.value.stage == "routing"
        assert store.by_stage["routing"][0] == 1  # replayed, not rerouted


class TestResultSanity:
    def _healthy(self):
        return run_flow(FACTORY, BASE)

    def test_healthy_result_passes(self):
        FlowGuard(mode="strict").check_result(self._healthy())

    @pytest.mark.parametrize("patch,fragment", [
        ({"achieved_frequency_ghz": 0.0}, "achieved_frequency_ghz"),
        ({"achieved_frequency_ghz": math.nan}, "achieved_frequency_ghz"),
        ({"achieved_frequency_ghz": 5000.0}, "achieved_frequency_ghz"),
        ({"total_wirelength_um": -1.0}, "total_wirelength_um"),
        ({"core_area_um2": 0.0}, "core_area_um2"),
    ])
    def test_absurd_numbers_violate(self, patch, fragment):
        result = dataclasses.replace(self._healthy(), **patch)
        with pytest.raises(GuardViolation) as info:
            FlowGuard(mode="strict").check_result(result)
        assert fragment in str(info.value)

    def test_zero_drv_is_legal(self):
        result = self._healthy()
        assert result.drv_count >= 0
        FlowGuard(mode="strict").check_result(
            dataclasses.replace(result, drv_count=0))


class TestNeutrality:
    """Guarding a healthy run never changes its PPAResult."""

    def test_strict_equals_off_bit_for_bit(self):
        off = run_flow(FACTORY, BASE, guard=FlowGuard(mode="off"))
        strict = run_flow(FACTORY, BASE, guard=FlowGuard(mode="strict"))
        warn = run_flow(FACTORY, BASE, guard=FlowGuard(mode="warn"))
        assert off == strict == warn

    def test_healthy_run_records_no_violations(self):
        guard = FlowGuard(mode="strict")
        run_flow(FACTORY, BASE, guard=guard)
        assert guard.violations == []
