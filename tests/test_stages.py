"""Stage graph, stage keys, the StageStore, and incremental replay.

The stage-graph contract (docs/architecture.md): each stage's key
covers exactly its declared config slice plus its upstream keys, the
store never changes what a run returns, replayed stages re-run their
guard checks, and a layer-split sweep shares the whole
library..legalization prefix.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import FlowCache, FlowConfig, SweepRunner, Tracer
from repro.core.cache import netlist_fingerprint, result_to_payload
from repro.core.errors import FlowError
from repro.core.faults import FaultClause, FaultPlan
from repro.core.flow import FLOW_GRAPH, FLOW_STAGES, run_flow, stage_keys
from repro.core.stages import Stage, StageGraph, StageStore, stage_key

from .golden_cases import MultiplierFactory

FACTORY = MultiplierFactory(5)
BASE = FlowConfig()

#: The stages every Table III layer split shares (everything before
#: the layer counts first enter the key chain, at ``routing``).
PREFIX_STAGES = FLOW_STAGES[:FLOW_STAGES.index("routing")]


def _keys(config: FlowConfig, version: str = "v0") -> dict[str, str]:
    fp = netlist_fingerprint(FACTORY())
    return stage_keys(config, fp, version=version)


class TestStageGraph:
    def test_graph_matches_canonical_stage_list(self):
        assert FLOW_GRAPH.names == FLOW_STAGES

    def test_upstream_closure_is_the_whole_prefix(self):
        assert FLOW_GRAPH.upstream_closure("routing") == PREFIX_STAGES
        assert FLOW_GRAPH.upstream_closure("library") == ()

    def test_layer_fields_first_enter_at_routing(self):
        for name in PREFIX_STAGES:
            fields = FLOW_GRAPH.transitive_fields(name)
            assert "front_layers" not in fields
            assert "back_layers" not in fields
        assert {"front_layers", "back_layers"} <= \
            FLOW_GRAPH.transitive_fields("routing")

    def test_every_stage_slice_names_real_config_fields(self):
        with pytest.raises(ValueError, match="unknown config"):
            StageGraph((Stage("x", frozenset({"no_such_field"}), (),
                              execute=lambda s: None,
                              restore=lambda s, a: None),))

    def test_duplicate_stage_names_rejected(self):
        s = Stage("x", frozenset(), (), execute=lambda s: None,
                  restore=lambda s, a: None)
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph((s, s))

    def test_upstream_must_be_an_earlier_stage(self):
        with pytest.raises(ValueError, match="not an earlier stage"):
            StageGraph((Stage("x", frozenset(), ("y",),
                              execute=lambda s: None,
                              restore=lambda s, a: None),))


class TestStageKey:
    def test_deterministic(self):
        assert _keys(BASE) == _keys(BASE)

    def test_own_field_changes_own_key(self):
        a, b = _keys(BASE), _keys(BASE.with_(utilization=0.6))
        assert a["floorplan"] != b["floorplan"]

    def test_changes_are_transitive_downstream(self):
        a, b = _keys(BASE), _keys(BASE.with_(utilization=0.6))
        floorplan_at = FLOW_STAGES.index("floorplan")
        for name in FLOW_STAGES[:floorplan_at]:
            assert a[name] == b[name]
        for name in FLOW_STAGES[floorplan_at:]:
            assert a[name] != b[name]

    def test_layer_split_shares_the_prefix(self):
        a = _keys(BASE)
        b = _keys(BASE.with_(front_layers=9, back_layers=3))
        for name in PREFIX_STAGES:
            assert a[name] == b[name]
        assert a["routing"] != b["routing"]

    @pytest.mark.parametrize("override", [{"cts_mode": "dual"},
                                          {"cts_back_fraction": 0.25}])
    def test_cts_fields_first_enter_at_cts(self, override):
        """The dual-CTS knobs invalidate the cts key and everything
        after it — and nothing upstream of it."""
        a, b = _keys(BASE), _keys(BASE.with_(**override))
        cts_at = FLOW_STAGES.index("cts")
        for name in FLOW_STAGES[:cts_at]:
            assert a[name] == b[name], name
        for name in FLOW_STAGES[cts_at:]:
            assert a[name] != b[name], name

    def test_cts_fields_in_no_upstream_slice(self):
        for name in FLOW_STAGES[:FLOW_STAGES.index("cts")]:
            fields = FLOW_GRAPH.transitive_fields(name)
            assert "cts_mode" not in fields
            assert "cts_back_fraction" not in fields
        assert {"cts_mode", "cts_back_fraction"} <= \
            FLOW_GRAPH.transitive_fields("cts")

    def test_netlist_fingerprint_spares_the_library(self):
        a = stage_keys(BASE, "fp-one", version="v0")
        b = stage_keys(BASE, "fp-two", version="v0")
        assert a["library"] == b["library"]
        for name in FLOW_STAGES[1:]:
            assert a[name] != b[name]

    def test_version_invalidates_everything(self):
        a, b = _keys(BASE, version="v0"), _keys(BASE, version="v1")
        assert all(a[name] != b[name] for name in FLOW_STAGES)

    def test_upstream_key_count_is_checked(self):
        with pytest.raises(ValueError, match="upstream"):
            stage_key(FLOW_GRAPH["routing"], BASE, [], version="v0")


class TestStageStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        assert store.get("placement", "k" * 64) is None
        assert store.put("placement", "k" * 64, {"placement": [1, 2]})
        assert store.get("placement", "k" * 64) == {"placement": [1, 2]}
        assert (store.hits, store.misses) == (1, 1)
        assert store.counters() == {
            "stage_cache.hits": 1.0, "stage_cache.misses": 1.0,
            "stage_cache.hit.placement": 1.0,
            "stage_cache.miss.placement": 1.0,
        }

    def test_key_is_namespaced_by_stage(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        store.put("placement", "k" * 64, {"placement": []})
        assert store.get("routing", "k" * 64) is None

    def test_malformed_entry_is_a_miss(self, tmp_path):
        cache = FlowCache(tmp_path)
        store = StageStore(cache)
        cache.put_blob("k" * 64, "stage-placement", {"wrong": "shape"})
        assert store.get("placement", "k" * 64) is None

    def test_tallies_on_the_active_tracer(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        tracer = Tracer(label="t")
        from repro.core import telemetry
        with telemetry.activate(tracer):
            store.get("cts", "k" * 64)
        counters = tracer.finish().counters
        assert counters["stage_cache.misses"] == 1
        assert counters["stage_cache.miss.cts"] == 1


class TestIncrementalFlow:
    def test_warm_walk_replays_every_stage_bit_for_bit(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        cold = run_flow(FACTORY, BASE, store=store)
        assert store.hits == 0 and store.misses == len(FLOW_STAGES)
        warm = run_flow(FACTORY, BASE, store=store)
        assert result_to_payload(warm) == result_to_payload(cold)
        assert store.hits == len(FLOW_STAGES)

    def test_store_matches_storeless_run(self, tmp_path):
        plain = run_flow(FACTORY, BASE)
        stored = run_flow(FACTORY, BASE, store=StageStore(FlowCache(tmp_path)))
        assert result_to_payload(stored) == result_to_payload(plain)

    def test_stage_status_reports_the_walk(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        cold = run_flow(FACTORY, BASE, store=store, return_artifacts=True)
        assert cold.stage_status == {n: "ran" for n in FLOW_STAGES}
        warm = run_flow(FACTORY, BASE, store=store, return_artifacts=True)
        assert warm.stage_status == {n: "cached" for n in FLOW_STAGES}

    def test_stop_after_walks_a_partial_graph(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        art = run_flow(FACTORY, BASE, store=store, stop_after="cts")
        walked = FLOW_STAGES[:FLOW_STAGES.index("cts") + 1]
        assert tuple(art.stage_status) == walked
        assert art.result is None
        assert art.placement is not None
        assert art.routing_results is None
        # A later full run replays the partial walk's prefix.
        run_flow(FACTORY, BASE, store=store)
        assert store.hits == len(walked)

    def test_stop_after_final_stage_returns_full_artifacts(self):
        art = run_flow(FACTORY, BASE, stop_after=FLOW_STAGES[-1])
        assert art.result is not None and art.result.valid

    def test_stop_after_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            run_flow(FACTORY, BASE, stop_after="place_and_route")

    def test_replayed_stage_emits_cache_hit_span(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        run_flow(FACTORY, BASE, store=store)
        tracer = Tracer(label="warm")
        run_flow(FACTORY, BASE, store=store, tracer=tracer)
        trace = tracer.finish()
        assert trace.stage_list() == list(FLOW_STAGES)
        hits = [s for s in trace.spans if s.name == "cache_hit"]
        assert len(hits) == len(FLOW_STAGES)

    def test_guard_revalidates_replayed_artifacts(self, tmp_path):
        cache = FlowCache(tmp_path)
        store = StageStore(cache)
        run_flow(FACTORY, BASE, store=store)
        # Corrupt the stored placement artifact: drop one instance.
        keys = stage_keys(BASE, netlist_fingerprint(FACTORY()),
                          version=store.version)
        art = store.get("placement", keys["placement"])
        del art["placement"].locations[next(iter(art["placement"].locations))]
        store.put("placement", keys["placement"], art)
        with pytest.raises(FlowError) as err:
            run_flow(FACTORY, BASE, store=StageStore(cache))
        assert err.value.stage == "placement"

    def test_active_faults_bypass_the_store(self, tmp_path):
        store = StageStore(FlowCache(tmp_path))
        # An active-but-never-firing plan must still disable the store.
        plan = FaultPlan((FaultClause(stage="sta", mode="raise", rate=0.0),))
        result = run_flow(FACTORY, BASE, store=store, faults=plan)
        assert result.valid
        assert store.hits == 0 and store.misses == 0

    def test_preset_library_bypasses_the_store(self, tmp_path):
        from repro.core.flow import prepare_library
        store = StageStore(FlowCache(tmp_path))
        library = prepare_library(BASE)
        result = run_flow(FACTORY, BASE, library=library, store=store)
        assert result.valid
        assert store.hits == 0 and store.misses == 0


class TestLayerSplitSweepReplay:
    """The tentpole property: a Table III layer-split enumeration
    places once and routes N times."""

    SPLITS = ((9, 3), (8, 4), (7, 5), (6, 6))

    def test_prefix_executes_exactly_once_across_splits(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        configs = [BASE.with_(front_layers=f, back_layers=b)
                   for f, b in self.SPLITS]
        results = runner.run_many(FACTORY, configs)
        assert all(r.valid for r in results)
        counters = runner.stats.stage_counters
        for name in PREFIX_STAGES:
            assert counters.get(f"stage_cache.miss.{name}", 0) == 1, name
            assert counters.get(f"stage_cache.hit.{name}", 0) == \
                len(self.SPLITS) - 1, name
        for name in FLOW_STAGES[FLOW_STAGES.index("routing"):]:
            assert counters.get(f"stage_cache.miss.{name}", 0) == \
                len(self.SPLITS), name
            assert counters.get(f"stage_cache.hit.{name}", 0) == 0, name

    def test_stats_report_per_stage_hit_rates(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        configs = [BASE.with_(front_layers=f, back_layers=b)
                   for f, b in self.SPLITS]
        runner.run_many(FACTORY, configs)
        rates = runner.stats.stage_hit_rates()
        assert rates["placement"] == pytest.approx(0.75)
        assert rates["routing"] == 0.0
        assert "stage replays" in runner.stats.summary()

    def test_dual_cts_layer_split_sweep_places_exactly_once(self, tmp_path):
        """The acceptance property of dual-sided CTS as a config-sliced
        stage: a layer-split sweep with ``cts_mode="dual"`` still shares
        the whole library..legalization prefix — placement executes
        exactly once across the splits."""
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        configs = [BASE.with_(cts_mode="dual", front_layers=f, back_layers=b)
                   for f, b in self.SPLITS]
        results = runner.run_many(FACTORY, configs)
        assert all(r.valid for r in results)
        counters = runner.stats.stage_counters
        for name in PREFIX_STAGES:
            assert counters.get(f"stage_cache.miss.{name}", 0) == 1, name
            assert counters.get(f"stage_cache.hit.{name}", 0) == \
                len(self.SPLITS) - 1, name

    def test_cts_mode_sweep_shares_the_placement_prefix(self, tmp_path):
        """Flipping only the CTS mode re-runs cts..power and replays
        library..placement — CTS is the first stage whose key differs."""
        runner = SweepRunner(jobs=1, cache=FlowCache(tmp_path))
        configs = [BASE, BASE.with_(cts_mode="dual")]
        results = runner.run_many(FACTORY, configs)
        assert all(r.valid for r in results)
        counters = runner.stats.stage_counters
        cts_at = FLOW_STAGES.index("cts")
        for name in FLOW_STAGES[:cts_at]:
            assert counters.get(f"stage_cache.miss.{name}", 0) == 1, name
            assert counters.get(f"stage_cache.hit.{name}", 0) == 1, name
        for name in FLOW_STAGES[cts_at:]:
            assert counters.get(f"stage_cache.miss.{name}", 0) == 2, name
            assert counters.get(f"stage_cache.hit.{name}", 0) == 0, name

    def test_refreshed_sweep_replays_instead_of_recomputing(self, tmp_path):
        cache = FlowCache(tmp_path)
        configs = [BASE.with_(front_layers=f, back_layers=b)
                   for f, b in self.SPLITS]
        first = SweepRunner(jobs=1, cache=cache)
        cold = first.run_many(FACTORY, configs)
        second = SweepRunner(jobs=1, cache=cache, refresh=True)
        warm = second.run_many(FACTORY, configs)
        assert [result_to_payload(r) for r in warm] == \
            [result_to_payload(r) for r in cold]
        assert second.stats.cache_hits == 0
        assert second.stats.stage_hits == \
            len(self.SPLITS) * len(FLOW_STAGES)
