"""Properties of the content-addressed cache key and payload codec.

The key contract: two configs that could produce different PPA must get
different keys; annotations that cannot reach the flow (``tag``) must
share one entry; and changing the netlist or the code version always
misses.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FlowConfig
from repro.core.cache import (
    NON_PPA_FIELDS,
    FlowCache,
    cache_key,
    config_cache_fields,
    netlist_fingerprint,
    result_from_payload,
    result_to_payload,
)
from repro.core.ppa import FailedRun
from repro.synth import generate_counter, generate_multiplier

BASE = FlowConfig()          # ffet FM12BM12, bp=0.5 — every field mutable
NETLIST_FP = "f" * 64

#: One hypothesis strategy of fresh values per PPA-relevant field.  Every
#: draw differs from the BASE value, so a perturbation must change the key.
FIELD_VALUES = {
    "arch": st.nothing(),    # cross-field constraints; covered explicitly
    "front_layers": st.integers(2, 11),
    "back_layers": st.integers(1, 11),
    "backside_pin_fraction": st.floats(0.0, 1.0)
        .map(lambda x: x + 0.0)  # normalize -0.0 -> 0.0 for json stability
        .filter(lambda x: x != BASE.backside_pin_fraction),
    "utilization": st.floats(0.3, 0.95)
        .filter(lambda x: x != BASE.utilization),
    "aspect_ratio": st.floats(0.5, 2.0)
        .filter(lambda x: x != BASE.aspect_ratio),
    "target_frequency_ghz": st.floats(0.2, 4.0)
        .filter(lambda x: x != BASE.target_frequency_ghz),
    "seed": st.integers(1, 10_000),
    "clock": st.sampled_from(["ck", "clock", "clk2"]),
    "gcell_tracks": st.integers(4, 64).filter(lambda x: x != BASE.gcell_tracks),
    "max_fanout": st.integers(2, 64).filter(lambda x: x != BASE.max_fanout),
    "cts_mode": st.just("dual"),
    "cts_back_fraction": st.floats(0.0, 1.0)
        .map(lambda x: x + 0.0)
        .filter(lambda x: x != BASE.cts_back_fraction),
    "activity": st.floats(0.01, 1.0).filter(lambda x: x != BASE.activity),
    "macro_halo_cpp": st.integers(0, 8)
        .filter(lambda x: x != BASE.macro_halo_cpp),
    "allow_bridging": st.just(True),
    "power_stripe_pitch_cpp": st.integers(4, 64),
    "rrr_iterations": st.integers(0, 32)
        .filter(lambda x: x != BASE.rrr_iterations),
    "sizing_iterations": st.integers(0, 32)
        .filter(lambda x: x != BASE.sizing_iterations),
    "refine_placement": st.just(True),
    "refine_iterations": st.integers(1, 5000)
        .filter(lambda x: x != BASE.refine_iterations),
}

PPA_FIELDS = sorted(set(FIELD_VALUES) - {"arch"})


def test_every_config_field_is_classified():
    names = {f.name for f in dataclasses.fields(FlowConfig)}
    assert names == set(FIELD_VALUES) | NON_PPA_FIELDS, (
        "new FlowConfig field: decide whether it is PPA-relevant and add "
        "it to FIELD_VALUES (or NON_PPA_FIELDS + the cache exclusion)")


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_ppa_relevant_field_changes_the_key(data):
    field = data.draw(st.sampled_from(PPA_FIELDS))
    value = data.draw(FIELD_VALUES[field])
    if getattr(BASE, field) == value:
        return
    changed = BASE.with_(**{field: value})
    assert cache_key(changed, NETLIST_FP, version="v") \
        != cache_key(BASE, NETLIST_FP, version="v"), field


@given(tag=st.text(max_size=40))
@settings(max_examples=50, deadline=None)
def test_tag_only_difference_keeps_the_key(tag):
    assert cache_key(BASE.with_(tag=tag), NETLIST_FP, version="v") \
        == cache_key(BASE, NETLIST_FP, version="v")
    assert "tag" not in config_cache_fields(BASE)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_two_distinct_perturbations_differ(data):
    """Any two configs differing in some PPA field hash differently."""
    f1 = data.draw(st.sampled_from(PPA_FIELDS))
    f2 = data.draw(st.sampled_from(PPA_FIELDS))
    c1 = BASE.with_(**{f1: data.draw(FIELD_VALUES[f1])})
    c2 = BASE.with_(**{f2: data.draw(FIELD_VALUES[f2])})
    k1 = cache_key(c1, NETLIST_FP, version="v")
    k2 = cache_key(c2, NETLIST_FP, version="v")
    assert (k1 == k2) == (config_cache_fields(c1) == config_cache_fields(c2))


def test_arch_changes_the_key():
    cfet = FlowConfig(arch="cfet", back_layers=0, backside_pin_fraction=0.0)
    ffet = FlowConfig(arch="ffet", back_layers=0, backside_pin_fraction=0.0)
    assert cache_key(cfet, NETLIST_FP, version="v") \
        != cache_key(ffet, NETLIST_FP, version="v")


def test_netlist_and_version_participate():
    k = cache_key(BASE, NETLIST_FP, version="v1")
    assert cache_key(BASE, "0" * 64, version="v1") != k
    assert cache_key(BASE, NETLIST_FP, version="v2") != k


@pytest.mark.parametrize("kernel_env", [None, "python", "bogus"])
def test_keys_ignore_the_retired_kernel_variable(kernel_env, monkeypatch):
    """Each kernel has one implementation, so the result-cache key and
    every stage key are the same whatever ``REPRO_KERNEL`` holds."""
    from repro.core.flow import stage_keys

    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    want = (cache_key(BASE, NETLIST_FP, version="v"),
            stage_keys(BASE, NETLIST_FP, version="v"))
    if kernel_env is not None:
        monkeypatch.setenv("REPRO_KERNEL", kernel_env)
    assert (cache_key(BASE, NETLIST_FP, version="v"),
            stage_keys(BASE, NETLIST_FP, version="v")) == want


class TestNetlistFingerprint:
    def test_stable_across_regeneration(self):
        assert netlist_fingerprint(generate_multiplier(4)) \
            == netlist_fingerprint(generate_multiplier(4))

    def test_different_designs_differ(self):
        assert netlist_fingerprint(generate_multiplier(4)) \
            != netlist_fingerprint(generate_multiplier(5))
        assert netlist_fingerprint(generate_multiplier(4)) \
            != netlist_fingerprint(generate_counter(8))


class TestPayloadCodec:
    def test_failed_run_round_trips(self):
        failed = FailedRun(label="x", target_utilization=0.9, reason="tap")
        assert result_from_payload(result_to_payload(failed)) == failed

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = FlowCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_info_on_missing_directory_is_clean_and_empty(self, tmp_path):
        """`repro cache info` must report empty, not crash, pre-creation."""
        cache = FlowCache(tmp_path / "never" / "created")
        info = cache.info()
        assert info["exists"] is False
        assert info["entries"] == 0
        assert info["total_bytes"] == 0
        assert info["oldest_mtime"] is None
        assert len(cache) == 0

    def test_info_counts_entries_and_bytes(self, tmp_path):
        cache = FlowCache(tmp_path)
        failed = FailedRun(label="x", target_utilization=0.9, reason="tap")
        cache.put("ab" + "0" * 62, failed)
        cache.put("cd" + "1" * 62, failed)
        info = cache.info()
        assert info["exists"] is True
        assert info["entries"] == 2
        assert info["total_bytes"] > 0
        assert info["newest_mtime"] >= info["oldest_mtime"]

    def test_cli_cache_info_on_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "info",
                     "--cache-dir", str(tmp_path / "nope")]) == 0
        out = capsys.readouterr().out
        assert "empty" in out

    def test_invalidate_and_clear(self, tmp_path):
        cache = FlowCache(tmp_path)
        failed = FailedRun(label="x", target_utilization=0.9, reason="tap")
        key = "cd" + "1" * 62
        cache.put(key, failed)
        assert len(cache) == 1
        assert cache.invalidate(key)
        assert not cache.invalidate(key)
        cache.put(key, failed)
        assert cache.clear() == 1
        assert len(cache) == 0
