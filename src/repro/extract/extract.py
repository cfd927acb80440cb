"""Dual-sided RC extraction from the merged DEF (Section III.C).

Per net, the routed segments (frontside and backside layers together)
form an RC graph: each segment contributes resistance and capacitance
from its layer's Table-II-derived constants, plus via resistance where
the net climbs from the cell pins (M0) to its routing tier.  Sinks
attach at their cell locations with their pin capacitance; the driver
is the root.  The result feeds STA (Elmore wire delays, driver loads)
and power (switched capacitance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..cells import Library
from ..core.telemetry import current_tracer
from ..lefdef.def_ import DefDesign, RouteSegment
from ..netlist import Netlist
from ..pnr.placement import Placement, pin_point
from ..tech import Side, Stackup
from .rc import NetParasitics, RCTree, elmore_forest

#: Resistance of one via cut between adjacent metal levels, kOhm.
VIA_RES_KOHM = 0.035


def _layer_level(layer_name: str) -> int:
    return int(layer_name[2:])


@dataclass
class Extraction:
    """All per-net parasitics of a design."""

    nets: dict[str, NetParasitics] = field(default_factory=dict)

    def __getitem__(self, net: str) -> NetParasitics:
        return self.nets[net]

    def __contains__(self, net: str) -> bool:
        return net in self.nets

    @property
    def total_wire_cap_ff(self) -> float:
        return sum(p.wire_cap_ff for p in self.nets.values())

    @property
    def total_wirelength_nm(self) -> float:
        return sum(p.wirelength_nm for p in self.nets.values())


def _net_pins(netlist: Netlist, library: Library, net_name: str,
              cap_memo: dict[tuple[str, str], float] | None = None):
    """Driver (inst, pin) or None, and [(inst, pin, cap_ff)] sinks.

    ``cap_memo`` caches pin capacitance per (master, pin) across nets
    of one extraction call — the values are identical either way.
    """
    net = netlist.nets[net_name]
    sinks = []
    for inst_name, pin_name in net.sinks:
        master_name = netlist.instances[inst_name].master
        if cap_memo is None:
            cap = library[master_name].pin(pin_name).cap_ff
        else:
            key = (master_name, pin_name)
            cap = cap_memo.get(key)
            if cap is None:
                cap = library[master_name].pin(pin_name).cap_ff
                cap_memo[key] = cap
        sinks.append((inst_name, pin_name, cap))
    return net.driver, sinks


@dataclass
class _NetBuild:
    """One net's RC tree plus everything needed to finalize it."""

    net: str
    tree: RCTree
    sink_keys: dict[tuple[str, str], tuple]
    pin_cap_total: float
    wire_res: float
    wirelength: float
    back_wirelength: float
    via_count: int


def _endpoint_finder(endpoints: list[tuple[float, float]]):
    """Nearest segment endpoint (Manhattan) to a point, snapped to nm.

    Ties go to the first endpoint in list order.  Nets with many
    segments use a vectorized search: ``np.argmin`` returns the first
    minimum, exactly like the scalar ``min`` over indices, and the
    distances are the same IEEE-754 expressions, so both searches pick
    the same endpoint at any threshold.
    """
    if len(endpoints) >= 32:
        ex = np.array([e[0] for e in endpoints])
        ey = np.array([e[1] for e in endpoints])

        def nearest(xy: tuple[float, float]):
            best = int(np.argmin(np.abs(ex - xy[0]) + np.abs(ey - xy[1])))
            e = endpoints[best]
            return (round(e[0]), round(e[1]))
    else:
        def nearest(xy: tuple[float, float]):
            best = min(
                range(len(endpoints)),
                key=lambda i: abs(endpoints[i][0] - xy[0]) + abs(endpoints[i][1] - xy[1]),
            )
            e = endpoints[best]
            return (round(e[0]), round(e[1]))
    return nearest


def _prepare_net(net_name: str, segments: list[RouteSegment],
                 stackup: Stackup, driver_xy: tuple[float, float] | None,
                 sinks: list[tuple[str, str, float, tuple[float, float]]],
                 rc_scale: float = 1.0) -> _NetBuild:
    """Build one net's RC tree (everything except the Elmore solve)."""
    root = ("root",)
    tree = RCTree(root=root)

    endpoints: list[tuple[float, float]] = []
    wirelength = 0.0
    back_wirelength = 0.0
    via_count = 0
    max_level = 0
    for seg in segments:
        layer = stackup[seg.layer]
        max_level = max(max_level, layer.index)
        length_um = seg.length_nm / 1000.0
        wirelength += seg.length_nm
        if seg.layer.startswith("BM"):
            back_wirelength += seg.length_nm
        r = layer.resistance_kohm_per_um * length_um * rc_scale
        c = layer.capacitance_ff_per_um * length_um * rc_scale
        a = (round(seg.x1_nm), round(seg.y1_nm))
        b = (round(seg.x2_nm), round(seg.y2_nm))
        tree.add_cap(a, c / 2.0)
        tree.add_cap(b, c / 2.0)
        if a != b:
            tree.add_edge(a, b, max(r, 1e-6))
        endpoints.append((seg.x1_nm, seg.y1_nm))
        endpoints.append((seg.x2_nm, seg.y2_nm))

    nearest = _endpoint_finder(endpoints)

    # Via stack from the pins (M0) up to the routing tier.
    stack_r = VIA_RES_KOHM * max(max_level, 1) if segments else 0.0

    if driver_xy is not None and endpoints:
        tree.add_edge(root, nearest(driver_xy), stack_r)

    sink_keys: dict[tuple[str, str], tuple] = {}
    pin_cap_total = 0.0
    for i, (inst, pin, cap, xy) in enumerate(sinks):
        pin_cap_total += cap
        key = ("sink", i)
        tree.add_edge(nearest(xy) if endpoints else root, key, stack_r)
        tree.add_cap(key, cap)
        sink_keys[(inst, pin)] = key
        via_count += max_level if segments else 0

    wire_res = rc_scale * sum(
        stackup[seg.layer].resistance_kohm_per_um * seg.length_nm / 1000.0
        for seg in segments
    )
    return _NetBuild(
        net=net_name,
        tree=tree,
        sink_keys=sink_keys,
        pin_cap_total=pin_cap_total,
        wire_res=wire_res,
        wirelength=wirelength,
        back_wirelength=back_wirelength,
        via_count=via_count,
    )


def _finalize_net(build: _NetBuild, delays: dict) -> NetParasitics:
    """Turn a built tree plus its Elmore solution into parasitics."""
    sink_elmore = {}
    for (inst, pin), key in build.sink_keys.items():
        sink_elmore[(inst, pin)] = delays.get(key, 0.0)
    wire_cap = build.tree.total_cap_ff - build.pin_cap_total
    return NetParasitics(
        net=build.net,
        wire_cap_ff=wire_cap,
        wire_res_kohm=build.wire_res,
        pin_cap_ff=build.pin_cap_total,
        sink_elmore_ps=sink_elmore,
        wirelength_nm=build.wirelength,
        via_count=build.via_count,
        back_wirelength_nm=build.back_wirelength,
    )


def extract_net(net_name: str, segments: list[RouteSegment],
                stackup: Stackup, driver_xy: tuple[float, float] | None,
                sinks: list[tuple[str, str, float, tuple[float, float]]],
                rc_scale: float = 1.0) -> NetParasitics:
    """Extract one net from its routed segments.

    ``sinks`` rows are (instance, pin, pin cap, (x, y)).  ``rc_scale``
    derates wire R and C for congestion (detailed-routing detours and
    coupling in crowded regions).
    """
    build = _prepare_net(net_name, segments, stackup, driver_xy, sinks,
                         rc_scale)
    return _finalize_net(build, build.tree.elmore_ps())


def extract_design(merged: DefDesign, netlist: Netlist, library: Library,
                   placement: Placement,
                   rc_derates: dict[str, float] | None = None) -> Extraction:
    """Extract every net of a routed design from its merged DEF.

    ``rc_derates`` maps net names to congestion derate factors >= 1
    (see :func:`congestion_derates`).
    """
    stackup = library.tech.stackup
    extraction = Extraction()
    rc_derates = rc_derates or {}
    tracer = current_tracer()
    cap_memo: dict[tuple[str, str], float] = {}
    builds: list[_NetBuild] = []
    for net_name in netlist.nets:
        driver, sink_pins = _net_pins(netlist, library, net_name, cap_memo)
        if driver is not None:
            drv_master = library[netlist.instances[driver[0]].master]
            p = pin_point(placement, drv_master, driver[0], driver[1])
            driver_xy = (p.x_nm, p.y_nm)
        else:
            pad = placement.io_pins.get(net_name)
            driver_xy = (pad.x_nm, pad.y_nm) if pad else None
        sinks = []
        for inst, pin, cap in sink_pins:
            master = library[netlist.instances[inst].master]
            p = pin_point(placement, master, inst, pin)
            sinks.append((inst, pin, cap, (p.x_nm, p.y_nm)))
        segments = merged.nets.get(net_name, [])
        builds.append(_prepare_net(
            net_name, segments, stackup, driver_xy, sinks,
            rc_scale=rc_derates.get(net_name, 1.0),
        ))
    # Elmore solve: one batched forest pass over every net's tree.
    with tracer.span("kernel.extract.elmore"):
        all_delays = elmore_forest(
            [b.tree for b in builds],
            wanted=[list(b.sink_keys.values()) for b in builds])
    for build, delays in zip(builds, all_delays):
        extraction.nets[build.net] = _finalize_net(build, delays)
    if tracer.enabled:
        tracer.count("kernel.extract.nets", len(builds))
        tracer.count("kernel.extract.nodes",
                     sum(len(b.tree.cap_ff) for b in builds))
        tracer.gauge("extract.nets", len(extraction.nets))
        tracer.gauge("extract.derated_nets", len(rc_derates))
        tracer.gauge("extract.total_wire_cap_ff", extraction.total_wire_cap_ff)
    return extraction


#: Congestion level below which detailed routing is unaffected.
CONGESTION_DERATE_FLOOR = 0.25
#: Wire RC increase per unit of congestion above the floor.
CONGESTION_DERATE_SLOPE = 2.0


def congestion_derates(routing_results: dict) -> dict[str, float]:
    """Per-net RC derates from global-routing congestion.

    Detailed routing in crowded regions detours and suffers coupling;
    commercial extraction sees that as higher wire RC.  The derate is
    linear in the mean usage/capacity along the net's route, above a
    floor, taking the worst of the two wafer sides.
    """
    derates: dict[str, float] = {}
    for result in routing_results.values():
        for net_name in result.routes:
            ratio = result.congestion_of(net_name)
            factor = 1.0 + CONGESTION_DERATE_SLOPE * max(
                0.0, ratio - CONGESTION_DERATE_FLOOR)
            if factor > derates.get(net_name, 1.0):
                derates[net_name] = factor
    return derates


def estimate_parasitics(netlist: Netlist, library: Library,
                        placement: Placement | None = None,
                        cap_per_um_ff: float = 0.22,
                        res_per_um_kohm: float = 0.55,
                        fanout_length_um: float = 0.70) -> Extraction:
    """Pre-route wireload estimate (for synthesis-time sizing).

    With a placement, net length is estimated from HPWL; without one, a
    fanout-based wireload model is used, like synthesis tools do.
    """
    extraction = Extraction()
    cap_memo: dict[tuple[str, str], float] = {}
    for net_name in netlist.nets:
        extraction.nets[net_name] = estimate_net_parasitics(
            netlist, library, net_name, placement, cap_per_um_ff,
            res_per_um_kohm, fanout_length_um, cap_memo)
    return extraction


def estimate_net_parasitics(netlist: Netlist, library: Library,
                            net_name: str,
                            placement: Placement | None = None,
                            cap_per_um_ff: float = 0.22,
                            res_per_um_kohm: float = 0.55,
                            fanout_length_um: float = 0.70,
                            cap_memo: dict | None = None) -> NetParasitics:
    """One net of :func:`estimate_parasitics`, bit-equal to its entry:
    the per-net body both the full build and a refresh call."""
    _driver, sink_pins = _net_pins(netlist, library, net_name, cap_memo)
    if placement is not None:
        points = placement.net_points(netlist, net_name)
        if len(points) >= 2:
            xs = [p.x_nm for p in points]
            ys = [p.y_nm for p in points]
            length_um = ((max(xs) - min(xs)) + (max(ys) - min(ys))) / 1000.0
        else:
            length_um = 0.0
    else:
        length_um = fanout_length_um * max(len(sink_pins), 1)
    wire_cap = cap_per_um_ff * length_um
    wire_res = res_per_um_kohm * length_um
    pin_cap = sum(cap for _i, _p, cap in sink_pins)
    # Lumped-pi estimate: every sink sees half the wire RC.
    elmore = 0.5 * wire_res * (wire_cap + pin_cap)
    return NetParasitics(
        net=net_name,
        wire_cap_ff=wire_cap,
        wire_res_kohm=wire_res,
        pin_cap_ff=pin_cap,
        sink_elmore_ps={(i, p): elmore for i, p, _c in sink_pins},
        wirelength_nm=length_um * 1000.0,
    )
