"""Scalar reference implementations of the flow's four hot kernels.

Each production kernel is one vectorized function; the plain-Python
loop it replaced lives here as its oracle.  Every oracle has the same
signature as the kernel it checks, so a test can substitute it with
``monkeypatch`` (:func:`install`) and run any flow path on the scalar
code:

* :func:`dist_field_python` for :meth:`GlobalRouter._dist_field`
  (scalar Dijkstra settled over the whole search box);
* :func:`field_sweep_python` for :func:`repro.pnr.placement._field_sweep`
  (explicit loops over the net/cell incidence list);
* :func:`elmore_forest_python` for the batched
  :func:`repro.extract.rc.elmore_forest` solve in extraction
  (one :meth:`RCTree.elmore_ps` per tree);
* :func:`propagate_comb_python` for
  :func:`repro.sta.sta._propagate_comb` (one scalar NLDM lookup per
  arc, in topological order).

The kernels are operation-order compatible with these loops, so the
tolerance is zero ULP (docs/performance.md).
"""

from __future__ import annotations

import heapq
from importlib import import_module

import numpy as np

from repro.pnr.routing.router import GlobalRouter

# Modules, not same-named package attributes: the kernels are patched
# where their callers look them up.
placement = import_module("repro.pnr.placement")
extract = import_module("repro.extract.extract")
sta = import_module("repro.sta.sta")


def dist_field_python(self, sources, box, cost_h, cost_v,
                      tracer=None) -> np.ndarray:
    """Reference kernel: scalar Dijkstra settled over the whole box."""
    x0, y0, x1, y1 = box
    dist = np.full((y1 - y0 + 1, x1 - x0 + 1), np.inf)
    heap = []
    for c, r in sources:
        if x0 <= c <= x1 and y0 <= r <= y1:
            dist[r - y0, c - x0] = 0.0
            heap.append((0.0, (c, r)))
    heapq.heapify(heap)
    while heap:
        d, (c, r) = heapq.heappop(heap)
        if d > dist[r - y0, c - x0]:
            continue
        for nxt in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
            if not (x0 <= nxt[0] <= x1 and y0 <= nxt[1] <= y1):
                continue
            if nxt[1] == r:
                step = cost_h[r, min(c, nxt[0])]
            else:
                step = cost_v[min(r, nxt[1]), c]
            nd = d + step
            if nd < dist[nxt[1] - y0, nxt[0] - x0]:
                dist[nxt[1] - y0, nxt[0] - x0] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


def field_sweep_python(star, xs: np.ndarray, ys: np.ndarray,
                       rescale: bool) -> None:
    """Reference kernel: the field sweep as explicit loops.

    The same accumulations over the incidence list in identical entry
    order, so it agrees with the scatter-add kernel bit-for-bit.  The
    rescale step is shared: its reductions (mean/std) use numpy's
    pairwise summation, which a scalar loop could not reproduce.
    """
    entry_net = star.e_net.tolist()
    entry_cell = star.e_cell.tolist()
    anchor_x = star.a_x.tolist()
    anchor_y = star.a_y.tolist()
    anchor_mask = star.a_mask.tolist()
    net_weight = star.w_net.tolist()
    net_size_l = star.net_size.tolist()
    cell_weight_l = star.cell_weight.tolist()
    movable_l = star.movable.tolist()
    n = len(xs)
    n_nets = len(net_size_l)
    n_entries = len(entry_net)

    xs_l = xs.tolist()
    ys_l = ys.tolist()
    net_sx = [anchor_x[i] if anchor_mask[i] else 0.0
              for i in range(n_nets)]
    net_sy = [anchor_y[i] if anchor_mask[i] else 0.0
              for i in range(n_nets)]
    for k in range(n_entries):
        i = entry_net[k]
        net_sx[i] += xs_l[entry_cell[k]]
        net_sy[i] += ys_l[entry_cell[k]]
    cx = [net_sx[i] / net_size_l[i] for i in range(n_nets)]
    cy = [net_sy[i] / net_size_l[i] for i in range(n_nets)]
    pull_x = [0.0] * n
    pull_y = [0.0] * n
    for k in range(n_entries):
        i = entry_net[k]
        c = entry_cell[k]
        pull_x[c] += net_weight[i] * cx[i]
        pull_y[c] += net_weight[i] * cy[i]
    for c in range(n):
        if movable_l[c]:
            xs_l[c] = pull_x[c] / cell_weight_l[c]
            ys_l[c] = pull_y[c] / cell_weight_l[c]
    xs[:] = xs_l
    ys[:] = ys_l
    if rescale:
        placement._rescale(star, xs, ys)


def elmore_forest_python(trees, wanted=None) -> list[dict]:
    """Reference kernel: the per-tree scalar Elmore solve.

    Returns every reachable node's delay; ``wanted`` only narrows what
    the batched kernel returns, never a value.
    """
    return [tree.elmore_ps() for tree in trees]


def propagate_comb_python(netlist, library, extraction, net_timing,
                          net_from, tracer):
    """Reference kernel: scalar propagation in topological order."""
    PinTiming = sta.PinTiming

    def input_timing(net_name: str, inst: str, pin: str):
        base = net_timing[net_name]
        wire = extraction[net_name].elmore_to(inst, pin) \
            if net_name in extraction else 0.0
        return base.delayed(wire)

    def net_load(net_name: str) -> float:
        return extraction[net_name].total_cap_ff if net_name in extraction \
            else 0.0

    stats = [0, 0] if tracer.enabled else None
    for inst in netlist.topological_order(library):
        master = library[inst.master]
        out_pins = master.output_pins
        if not out_pins:
            continue
        out_net = inst.connections[out_pins[0].name]
        if master.function in ("TIEHI", "TIELO"):
            net_timing.setdefault(out_net, PinTiming.at_time(0.0))
            net_from.setdefault(out_net, None)
            continue
        if stats is not None:
            stats[1] += 1
        load = net_load(out_net)
        out = PinTiming()
        from_pin = None
        for arc in master.arcs:
            in_net = inst.connections.get(arc.from_pin)
            if in_net is None or in_net not in net_timing:
                continue
            pt = input_timing(in_net, inst.name, arc.from_pin)
            if sta._propagate_arc(arc, pt, load, out, stats):
                from_pin = arc.from_pin
        net_timing[out_net] = out
        net_from[out_net] = (inst.name, from_pin) if from_pin else None
    if stats is not None:
        tracer.count("kernel.sta.insts", stats[1])
        tracer.count("kernel.sta.delay_evals", stats[0])
    return len(net_timing), net_from


def install(monkeypatch) -> None:
    """Substitute all four oracles for the production kernels."""
    monkeypatch.setattr(GlobalRouter, "_dist_field", dist_field_python)
    monkeypatch.setattr(placement, "_field_sweep", field_sweep_python)
    monkeypatch.setattr(extract, "elmore_forest", elmore_forest_python)
    monkeypatch.setattr(sta, "_propagate_comb", propagate_comb_python)
