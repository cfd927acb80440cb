"""Golden regression: the serial headline numbers are pinned.

tests/golden/headline_ppa.json holds the full result payloads captured
by ``scripts/make_golden.py`` from the plain serial path.  These tests
lock today's numbers down and require the parallel and cached execution
paths to reproduce them *bit-for-bit* — which is what makes the
SweepRunner/FlowCache subsystem safe to put under every sweep.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import FlowCache, SweepRunner, Tracer
from repro.core.cache import result_from_payload, result_to_payload
from repro.core.flow import FLOW_STAGES, run_flow
from repro.core.sweeps import try_run

from . import kernel_oracles
from .golden_cases import CASES, GOLDEN_PATH, MultiplierFactory


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.is_file(), \
        "golden fixtures missing; run scripts/make_golden.py"
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_serial_path_matches_golden(golden, name):
    factory, config = CASES[name]
    result = try_run(factory, config)
    assert result_to_payload(result) == golden[name]


@pytest.mark.parametrize("mode", ["numpy", "python"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_both_kernel_modes_match_golden(golden, name, mode, monkeypatch):
    """Both kernel implementations reproduce the pinned numbers exactly.

    *numpy* runs the production kernels; *python* substitutes all four
    scalar oracles of ``tests/kernel_oracles.py`` for them at once.  The
    kernels are operation-order compatible with the oracles
    (docs/performance.md), so the pinned tolerance is zero: a payload
    that differs in any bit fails.  A deliberate kernel change that
    moves the numbers must re-pin via ``scripts/make_golden.py`` and
    bring the oracle along in the same change.
    """
    if mode == "python":
        kernel_oracles.install(monkeypatch)
    factory, config = CASES[name]
    result = try_run(factory, config)
    assert result_to_payload(result) == golden[name]


def test_parallel_path_matches_golden(golden):
    """jobs=2 over the pool reproduces the pinned numbers exactly."""
    names = [n for n in sorted(CASES)
             if isinstance(CASES[n][0], MultiplierFactory)]
    assert len(names) >= 2, "need >= 2 same-factory cases to engage the pool"
    factory = CASES[names[0]][0]
    configs = [CASES[n][1] for n in names]
    runner = SweepRunner(jobs=2)
    results = runner.run_many(factory, configs)
    for name, result in zip(names, results):
        assert result_to_payload(result) == golden[name]


def test_cached_path_matches_golden(golden, tmp_path):
    """Both the cache-miss and cache-hit paths reproduce the numbers."""
    name = "ffet_dual_mult5"
    factory, config = CASES[name]
    runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))

    cold = runner.run_records(factory, [config])[0]
    assert not cold.cache_hit
    assert result_to_payload(cold.result) == golden[name]

    warm = runner.run_records(factory, [config])[0]
    assert warm.cache_hit
    assert result_to_payload(warm.result) == golden[name]
    assert warm.result == cold.result


def test_traced_run_matches_golden(golden):
    """Telemetry is PPA-neutral: tracing a run reproduces the numbers."""
    name = "ffet_dual_mult5"
    factory, config = CASES[name]
    tracer = Tracer(label=name)
    result = run_flow(factory, config, tracer=tracer)
    assert result_to_payload(result) == golden[name]
    assert tracer.finish().stage_list() == list(FLOW_STAGES)


def test_traced_parallel_sweep_matches_golden(golden, tmp_path):
    """jobs=2 with --trace still reproduces the pinned numbers exactly."""
    names = [n for n in sorted(CASES)
             if isinstance(CASES[n][0], MultiplierFactory)]
    factory = CASES[names[0]][0]
    configs = [CASES[n][1] for n in names]
    runner = SweepRunner(jobs=2, trace_dir=tmp_path)
    results = runner.run_many(factory, configs)
    for name, result in zip(names, results):
        assert result_to_payload(result) == golden[name]
    assert len(list(tmp_path.glob("run-*.jsonl"))) == len(names)


@pytest.mark.parametrize("jobs", [1, 4])
def test_stage_store_cold_and_warm_match_golden(golden, tmp_path, jobs):
    """The per-stage artifact store never changes a result: cold walks
    (every stage executed and stored) and warm walks (every stage
    replayed, forced by ``refresh``) both reproduce the pinned numbers
    bit-for-bit, serial and parallel alike."""
    names = [n for n in sorted(CASES)
             if isinstance(CASES[n][0], MultiplierFactory)]
    factory = CASES[names[0]][0]
    configs = [CASES[n][1] for n in names]

    cold = SweepRunner(jobs=jobs, cache=FlowCache(tmp_path))
    for name, result in zip(names, cold.run_many(factory, configs)):
        assert result_to_payload(result) == golden[name]
    assert cold.stats.stage_misses > 0

    warm = SweepRunner(jobs=jobs, cache=FlowCache(tmp_path), refresh=True)
    for name, result in zip(names, warm.run_many(factory, configs)):
        assert result_to_payload(result) == golden[name]
    assert warm.stats.cache_hits == 0
    assert warm.stats.stage_misses == 0
    # The warm pass replays every stage of every case; the cold pass
    # executed or replayed each exactly once (the dual-CTS variant
    # shares its pre-CTS prefix with the default case, so some cold
    # stages are already hits).
    total = len(names) * len(FLOW_STAGES)
    assert warm.stats.stage_hits == total
    assert cold.stats.stage_misses + cold.stats.stage_hits == total


@pytest.mark.parametrize("jobs", [1, 4])
def test_store_disabled_matches_golden(golden, jobs):
    """Without a cache there is no stage store; the plain path still
    reproduces the pinned numbers at any job count."""
    names = [n for n in sorted(CASES)
             if isinstance(CASES[n][0], MultiplierFactory)]
    factory = CASES[names[0]][0]
    runner = SweepRunner(jobs=jobs)
    for name, result in zip(names, runner.run_many(factory,
                                                   [CASES[n][1]
                                                    for n in names])):
        assert result_to_payload(result) == golden[name]
    assert runner.stats.stage_hits == runner.stats.stage_misses == 0


def test_golden_payloads_round_trip(golden):
    """Fixtures deserialize into results equal to their re-serialization."""
    for name, payload in golden.items():
        result = result_from_payload(payload)
        assert result_to_payload(result) == payload
        assert result.valid
