"""High-fanout buffering and timing-driven gate sizing.

Plays the role of the synthesis tool's delay optimization: the netlist
comes out of the generators at minimum drive (D1); this pass buffers
high-fanout nets, then iterates wireload-model STA and upsizes cells on
failing paths until the target period is met or sizing saturates.  A
higher synthesis target therefore buys speed with area and power —
the mechanism behind the paper's 500 MHz - 3 GHz sweeps (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cells import Library
from ..extract import Extraction, estimate_net_parasitics, estimate_parasitics
from ..netlist import Netlist
from ..sta import TimingReport, analyze_timing

#: Synthesis guardband: optimize against this fraction of the target
#: period, because wireload-model timing is optimistic against the
#: post-route reality (detours, congestion derates, clock insertion).
SYNTHESIS_GUARDBAND = 0.55


@dataclass
class SizingReport:
    """Outcome of the sizing pass."""

    target_period_ps: float
    iterations: int
    upsized: int
    buffers_added: int
    final_timing: TimingReport

    @property
    def met(self) -> bool:
        return self.final_timing.met


def buffer_high_fanout(netlist: Netlist, library: Library,
                       max_fanout: int = 20, clock: str = "clk") -> int:
    """Split nets with more than ``max_fanout`` sinks with buffer trees.

    The clock net is left to CTS.  Returns the number of buffers added.
    Splits rewire only the split net; one final ``bind`` validates.
    """
    work = [
        name for name, net in netlist.nets.items()
        if len(net.sinks) > max_fanout and name != clock and not net.is_clock
    ]
    added = 0
    while work:
        net_name = work.pop()
        net = netlist.nets[net_name]
        sinks = sorted(net.sinks)
        if len(sinks) <= max_fanout:
            continue
        stem = net_name.replace('/', '_')
        net.sinks = []
        for i in range(0, len(sinks), max_fanout):
            added += 1
            buf_name = f"fobuf_{stem}_{added}"
            buf_net = netlist.add_net(f"fonet_{stem}_{added}")
            netlist.add_instance(buf_name, "BUFD4",
                                 {"A": net_name, "Z": buf_net.name})
            buf_net.driver = (buf_name, "Z")
            buf_net.sinks = sinks[i:i + max_fanout]
            net.sinks.append((buf_name, "A"))
            for inst_name, pin_name in buf_net.sinks:
                netlist.instances[inst_name].connections[pin_name] = \
                    buf_net.name
        # The source net now drives the buffers; it may still exceed the
        # budget if there were many groups.
        if len(net.sinks) > max_fanout:
            work.append(net_name)
    if added:
        netlist.bind(library)
    return added


def _upsize(netlist: Netlist, library: Library, inst_name: str) -> bool:
    """Move one instance to the next drive strength; False at the top."""
    inst = netlist.instances[inst_name]
    master = library[inst.master]
    stronger = library.next_drive_up(master)
    if stronger is None:
        return False
    inst.master = stronger.name
    return True


def _refresh_inputs(extraction: Extraction, netlist: Netlist,
                    library: Library, inst_names: list[str]) -> None:
    """Re-estimate, in place, the nets that re-mastered ``inst_names``
    load: the only nets a re-master changes under the wireload model."""
    dirty = set()
    for inst_name in inst_names:
        inst = netlist.instances[inst_name]
        master = library[inst.master]
        dirty.update(net for pin, net in inst.connections.items()
                     if not master.pin(pin).is_output)
    for net_name in dirty:
        extraction.nets[net_name] = estimate_net_parasitics(
            netlist, library, net_name)


def size_for_target(netlist: Netlist, library: Library,
                    target_period_ps: float, clock: str = "clk",
                    max_iterations: int = 12,
                    max_fanout: int = 20) -> SizingReport:
    """Buffer, then iteratively upsize the critical path to the target."""
    if target_period_ps <= 0:
        raise ValueError("target period must be positive")
    effective_period_ps = target_period_ps * SYNTHESIS_GUARDBAND
    buffers = buffer_high_fanout(netlist, library, max_fanout, clock)
    # Built once; each round refreshes the nets its re-masters load.
    extraction = estimate_parasitics(netlist, library)

    upsized = 0
    iterations = 0
    report = None
    for iterations in range(1, max_iterations + 1):
        report = analyze_timing(netlist, library, extraction,
                                effective_period_ps, clock)
        if report.met:
            break
        # Upsize every instance appearing on the critical path.
        hops = [hop.rsplit("/", 1)[0] for hop in report.critical_path
                if "/" in hop]
        resized = [name for name in hops if name in netlist.instances
                   and _upsize(netlist, library, name)]
        _refresh_inputs(extraction, netlist, library, resized)
        # Also upsize overloaded drivers anywhere in the design, judged
        # on the loads as they stand before this scan moves any of them.
        overloaded = []
        for inst in netlist.instances.values():
            master = library[inst.master]
            outs = master.output_pins
            out_net = inst.connections.get(outs[0].name) if outs else None
            if out_net in extraction and \
                    extraction[out_net].total_cap_ff > 3.0 * master.drive \
                    and _upsize(netlist, library, inst.name):
                overloaded.append(inst.name)
        _refresh_inputs(extraction, netlist, library, overloaded)
        upsized += len(resized) + len(overloaded)
        if not (resized or overloaded):
            break

    if report is None or not report.met:
        report = analyze_timing(netlist, library, extraction,
                                effective_period_ps, clock)
    return SizingReport(
        target_period_ps=target_period_ps,
        iterations=iterations,
        upsized=upsized,
        buffers_added=buffers,
        final_timing=report,
    )
