"""Incremental sizing bookkeeping against the full rebuilds it replaces.

``buffer_high_fanout`` updates only each split net and binds once at
the end; ``size_for_target`` builds the wireload extraction once and
refreshes only the input nets of re-mastered instances.  Both must be
indistinguishable from the straightforward versions, and the rv32
sizing outcome at the flow defaults is pinned to the values the full
rebuilds produced.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FlowConfig
from repro.core.flow import prepare_library
from repro.extract import NetParasitics, estimate_parasitics
from repro.netlist import Netlist
from repro.synth import (
    RiscvConfig,
    buffer_high_fanout,
    generate_counter,
    generate_multiplier,
    generate_riscv_core,
    size_for_target,
)
from repro.synth.sizing import _refresh_inputs, _upsize


def reference_buffer_high_fanout(netlist: Netlist, library,
                                 max_fanout: int = 20,
                                 clock: str = "clk") -> int:
    """The buffering pass with a full ``bind`` after every split net."""
    added = 0
    work = [
        name for name, net in netlist.nets.items()
        if len(net.sinks) > max_fanout and name != clock and not net.is_clock
    ]
    counter = 0
    while work:
        net_name = work.pop()
        net = netlist.nets[net_name]
        sinks = sorted(net.sinks)
        if len(sinks) <= max_fanout:
            continue
        groups = [sinks[i:i + max_fanout]
                  for i in range(0, len(sinks), max_fanout)]
        for group in groups:
            counter += 1
            added += 1
            buf_name = f"fobuf_{net_name.replace('/', '_')}_{counter}"
            buf_net = f"fonet_{net_name.replace('/', '_')}_{counter}"
            netlist.add_net(buf_net)
            netlist.add_instance(buf_name, "BUFD4",
                                 {"A": net_name, "Z": buf_net})
            for inst_name, pin_name in group:
                netlist.instances[inst_name].connections[pin_name] = buf_net
        netlist.bind(library)
        if len(netlist.nets[net_name].sinks) > max_fanout:
            work.append(net_name)
    if added:
        netlist.bind(library)
    return added


def fanout_netlist(net_names: list[str], flops: list[int],
                   gates: list[tuple[int, int]]) -> Netlist:
    """Inverter-driven nets feeding flops and two-input gates.

    ``flops[k]`` is the number of flops on net ``k``; each gate reads
    its two inputs from the nets at the given indices (possibly the
    same net twice).  The clock net fans out to every flop.
    """
    nl = Netlist("fanout")
    nl.add_net("clk", primary_input=True, clock=True)
    nl.add_net("a", primary_input=True)
    for k, name in enumerate(net_names):
        nl.add_instance(f"drv{k}", "INVD1", {"A": "a", "ZN": name})
        for j in range(flops[k]):
            nl.add_instance(f"ff{k}_{j}", "DFFD1",
                            {"D": name, "CK": "clk", "Q": f"q{k}_{j}"})
            nl.add_net(f"q{k}_{j}", primary_output=True)
    for g, (i, j) in enumerate(gates):
        nl.add_instance(f"g{g}", "NAND2D1",
                        {"A": net_names[i], "B": net_names[j],
                         "ZN": f"y{g}"})
        nl.add_net(f"y{g}", primary_output=True)
    return nl


def snapshot(nl: Netlist):
    """Everything a netlist holds, in order."""
    instances = [(i.name, i.master, list(i.connections.items()))
                 for i in nl.instances.values()]
    nets = [(n.name, n.driver, list(n.sinks), n.is_primary_input,
             n.is_primary_output, n.is_clock) for n in nl.nets.values()]
    return instances, nets


net_name_lists = st.lists(
    st.from_regex(r"[a-z]{1,3}(/[a-z0-9_]{1,3}){0,3}", fullmatch=True),
    min_size=1, max_size=4, unique=True,
).map(lambda names: [f"s{k}_{name}" for k, name in enumerate(names)])


@st.composite
def fanout_cases(draw):
    names = draw(net_name_lists)
    flops = draw(st.lists(st.integers(0, 60), min_size=len(names),
                          max_size=len(names)))
    index = st.integers(0, len(names) - 1)
    gates = draw(st.lists(st.tuples(index, index), max_size=40))
    return names, flops, gates, draw(st.integers(2, 12))


class TestBufferingOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=fanout_cases())
    def test_matches_per_split_bind(self, ffet_lib, case):
        names, flops, gates, max_fanout = case
        reference = fanout_netlist(names, flops, gates)
        reference.bind(ffet_lib)
        expected = reference_buffer_high_fanout(reference, ffet_lib,
                                                max_fanout)
        netlist = fanout_netlist(names, flops, gates)
        netlist.bind(ffet_lib)
        binds = []
        real_bind = Netlist.bind

        def counting_bind(self, library):
            binds.append(self.name)
            return real_bind(self, library)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Netlist, "bind", counting_bind)
            added = buffer_high_fanout(netlist, ffet_lib, max_fanout)
        assert added == expected
        assert len(binds) == (1 if added else 0)
        assert snapshot(netlist) == snapshot(reference)


DESIGNS = {
    "counter8": lambda: generate_counter(8),
    "mult4": lambda: generate_multiplier(4),
    "rv_tiny": lambda: generate_riscv_core(
        RiscvConfig(xlen=8, nregs=8, name="rv_tiny")),
}


def assert_same_extraction(patched, fresh) -> None:
    assert list(patched.nets) == list(fresh.nets)
    for name, want in fresh.nets.items():
        got = patched.nets[name]
        for f in fields(NetParasitics):
            assert getattr(got, f.name) == getattr(want, f.name), \
                (name, f.name)
        assert list(got.sink_elmore_ps) == list(want.sink_elmore_ps), name


class TestWireloadRefresh:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_refresh_equals_fresh_estimate(self, ffet_lib, design, data):
        netlist = DESIGNS[design]()
        netlist.bind(ffet_lib)
        buffer_high_fanout(netlist, ffet_lib)
        extraction = estimate_parasitics(netlist, ffet_lib)
        names = list(netlist.instances)
        pick = st.sampled_from(names)
        rounds = data.draw(st.lists(st.lists(pick, max_size=25),
                                    min_size=1, max_size=4))
        for picked in rounds:
            resized = [name for name in picked
                       if _upsize(netlist, ffet_lib, name)]
            _refresh_inputs(extraction, netlist, ffet_lib, resized)
            assert_same_extraction(extraction,
                                   estimate_parasitics(netlist, ffet_lib))


class TestPaperScaleSizing:
    """rv32 sizing at ``FlowConfig()`` defaults, pinned to the outcome
    of the per-split-bind, rebuild-every-round implementation."""

    def test_rv32_default_sizing_pinned(self):
        config = FlowConfig()
        library = prepare_library(config)
        netlist = generate_riscv_core(RiscvConfig())
        netlist.bind(library)
        report = size_for_target(netlist, library, config.target_period_ps,
                                 clock=config.clock,
                                 max_iterations=config.sizing_iterations,
                                 max_fanout=config.max_fanout)
        assert report.iterations == 12
        assert report.upsized == 68
        assert report.buffers_added == 293
        assert report.final_timing.wns_ps == -106805.49390571643
        rows = sorted((i.name, i.master, tuple(sorted(i.connections.items())))
                      for i in netlist.instances.values())
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == ("5343f693963db07e4de3c4cedb47fc74"
                          "301c659f52395a9caf710c2e22cfcc86")
