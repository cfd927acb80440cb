"""Placement: global placement, spreading and legalization.

The global placer pulls each cell toward the centroid of its nets
(Gauss-Seidel quadratic relaxation with IO pads as fixed anchors), then
spreads cells with a recursive area bisection so no region is overfull,
and finally legalizes to rows and sites while respecting the Power Tap
Cell blockages from the powerplan.  Legalization failure is how a
too-aggressive utilization manifests — the paper's "placement
violations between standard cells and Power Tap Cells".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from ..cells import Library
from ..core import telemetry
from ..core.errors import FatalError
from ..netlist import Netlist
from .geometry import Die, Point
from .powerplan import PowerPlan


class PlacementError(FatalError):
    """The design cannot be legally placed on the given die.

    Deterministic for a given (netlist, config): the sweep runner never
    retries it, recording a quarantined
    :class:`~repro.core.ppa.FailedRun` instead.
    """


@dataclass
class Placement:
    """Cell-center coordinates plus IO pad locations."""

    die: Die
    locations: dict[str, Point] = field(default_factory=dict)
    io_pins: dict[str, Point] = field(default_factory=dict)  # net -> pad

    def location(self, instance: str) -> Point:
        return self.locations[instance]

    def pin_location(self, instance: str, pin_track: int = 0) -> Point:
        """Pin positions coincide with the cell center at this abstraction."""
        return self.locations[instance]

    def hpwl_nm(self, netlist: Netlist) -> float:
        """Total half-perimeter wirelength over all nets."""
        total = 0.0
        for net in netlist.nets.values():
            points = self.net_points(netlist, net.name)
            if len(points) < 2:
                continue
            xs = [p.x_nm for p in points]
            ys = [p.y_nm for p in points]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def net_points(self, netlist: Netlist, net_name: str) -> list[Point]:
        net = netlist.nets[net_name]
        points = []
        if net.driver is not None:
            points.append(self.locations[net.driver[0]])
        for inst, _pin in net.sinks:
            points.append(self.locations[inst])
        if (net.is_primary_input or net.is_primary_output) and net_name in self.io_pins:
            points.append(self.io_pins[net_name])
        return points


def pin_point(placement: Placement, master, instance: str,
              pin_name: str) -> Point:
    """Physical location of one pin of a placed instance.

    Standard-cell pins coincide with the cell center (the exact same
    ``Point`` object, preserving float identity for the macro-free
    paths); hard macros carry per-pin boundary offsets from the macro
    center (:class:`repro.macros.MacroMaster.pin_offsets`).
    """
    base = placement.locations[instance]
    offsets = getattr(master, "pin_offsets", None)
    if not offsets:
        return base
    dx, dy = offsets.get(pin_name, (0.0, 0.0))
    return Point(base.x_nm + dx, base.y_nm + dy)


def _io_pad_positions(netlist: Netlist, die: Die) -> dict[str, Point]:
    """Deterministically spread IO nets around the die periphery.

    Pads are ordered by a name hash rather than alphabetically so the
    bits of one bus land on different die edges — alphabetical ordering
    would funnel whole buses through one corner of the core.
    """
    import hashlib

    def pad_key(name: str) -> str:
        return hashlib.md5(name.encode()).hexdigest()

    io_nets = sorted(
        (n.name for n in netlist.nets.values()
         if n.is_primary_input or n.is_primary_output),
        key=pad_key,
    )
    pads: dict[str, Point] = {}
    if not io_nets:
        return pads
    perimeter = 2 * (die.width_nm + die.height_nm)
    for i, name in enumerate(io_nets):
        d = (i + 0.5) * perimeter / len(io_nets)
        if d < die.width_nm:
            pads[name] = Point(d, 0.0)
        elif d < die.width_nm + die.height_nm:
            pads[name] = Point(die.width_nm, d - die.width_nm)
        elif d < 2 * die.width_nm + die.height_nm:
            pads[name] = Point(2 * die.width_nm + die.height_nm - d, die.height_nm)
        else:
            pads[name] = Point(0.0, perimeter - d)
    return pads


@dataclass(frozen=True)
class _StarNets:
    """The star-net model the placement field sweep relaxes over.

    ``e_net``/``e_cell`` is the flattened (net, cell) incidence in entry
    order; nets with an IO pad carry it as a fixed anchor member.
    """

    e_net: np.ndarray
    e_cell: np.ndarray
    a_x: np.ndarray
    a_y: np.ndarray
    a_mask: np.ndarray
    w_net: np.ndarray
    net_size: np.ndarray
    cell_weight: np.ndarray
    movable: np.ndarray
    width_nm: float
    height_nm: float


def _field_sweep(star: _StarNets, xs: np.ndarray, ys: np.ndarray,
                 rescale: bool) -> None:
    """One Jacobi sweep: nets to their centroids, cells to their nets'.

    The scatter-adds (``np.add.at``) accumulate in entry order, so the
    result is bit-equal to the scalar loop over the incidence list.
    """
    n = len(xs)
    e_net, e_cell = star.e_net, star.e_cell
    net_sx = np.where(star.a_mask, star.a_x, 0.0).astype(float)
    net_sy = np.where(star.a_mask, star.a_y, 0.0).astype(float)
    np.add.at(net_sx, e_net, xs[e_cell])
    np.add.at(net_sy, e_net, ys[e_cell])
    cx = net_sx / star.net_size
    cy = net_sy / star.net_size
    pull_x = np.zeros(n)
    pull_y = np.zeros(n)
    np.add.at(pull_x, e_cell, (star.w_net * cx)[e_net])
    np.add.at(pull_y, e_cell, (star.w_net * cy)[e_net])
    movable = star.movable
    xs[movable] = pull_x[movable] / star.cell_weight[movable]
    ys[movable] = pull_y[movable] / star.cell_weight[movable]
    if rescale:
        _rescale(star, xs, ys)


def _rescale(star: _StarNets, xs: np.ndarray, ys: np.ndarray) -> None:
    """Re-expand the movable cells to fill the die.

    Pure relaxation collapses to a point, which loses all ordering
    information; keeping the spread makes the iteration behave like a
    spectral method.
    """
    movable = star.movable
    for arr, extent in ((xs, star.width_nm), (ys, star.height_nm)):
        std = arr[movable].std()
        if std > 1e-9:
            arr[movable] = (
                (arr[movable] - arr[movable].mean())
                * (0.28 * extent / std) + extent / 2.0
            )
        np.clip(arr, 0.0, extent, out=arr)


def global_place(netlist: Netlist, library: Library, die: Die,
                 seed: int = 0, iterations: int = 96) -> Placement:
    """Quadratic relaxation followed by bisection spreading.

    The relaxation is a vectorized Jacobi iteration on the star net
    model: each net's centroid is the mean of its member cells (plus an
    IO-pad anchor when it has one), and each cell moves to the mean of
    its nets' centroids.  Net weights de-emphasize very high fanout
    nets, which would otherwise collapse their entire cone to one spot.
    """
    rng = random.Random(seed)
    names = sorted(netlist.instances)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    if n == 0:
        raise PlacementError("empty netlist")

    xs = np.array([rng.uniform(0, die.width_nm) for _ in range(n)])
    ys = np.array([rng.uniform(0, die.height_nm) for _ in range(n)])

    pads = _io_pad_positions(netlist, die)

    # Flattened (net_id, cell_id) incidence for vectorized scatter-adds.
    entry_net: list[int] = []
    entry_cell: list[int] = []
    anchor_x: list[float] = []
    anchor_y: list[float] = []
    anchor_mask: list[bool] = []
    net_weight: list[float] = []
    n_nets = 0
    for net in netlist.nets.values():
        members = set()
        if net.driver is not None:
            members.add(index[net.driver[0]])
        for inst, _pin in net.sinks:
            members.add(index[inst])
        if not members:
            continue
        net_id = n_nets
        n_nets += 1
        for m in members:
            entry_net.append(net_id)
            entry_cell.append(m)
        pad = pads.get(net.name)
        anchor_mask.append(pad is not None)
        anchor_x.append(pad.x_nm if pad else 0.0)
        anchor_y.append(pad.y_nm if pad else 0.0)
        # High-fanout nets (clock, resets, decoded controls) should not
        # glue their whole cone together.
        net_weight.append(1.0 / max(1.0, len(members) - 1.0) ** 0.5)

    e_net = np.asarray(entry_net, dtype=np.intp)
    e_cell = np.asarray(entry_cell, dtype=np.intp)
    a_x = np.asarray(anchor_x)
    a_y = np.asarray(anchor_y)
    a_mask = np.asarray(anchor_mask, dtype=bool)
    w_net = np.asarray(net_weight)

    net_size = np.zeros(n_nets)
    np.add.at(net_size, e_net, 1.0)
    net_size += a_mask  # anchors count as one member
    cell_weight = np.zeros(n)
    np.add.at(cell_weight, e_cell, w_net[e_net])

    movable = cell_weight > 0

    # Hard macros are fixed by the floorplan: pin them at their die
    # positions so they act as anchors (like IO pads) instead of
    # floating with the relaxation.
    macro_ids: list[int] = []
    for m in getattr(die, "macros", ()):
        i = index.get(m.name)
        if i is None:
            continue
        macro_ids.append(i)
        xs[i] = m.center.x_nm
        ys[i] = m.center.y_nm
        movable[i] = False

    star = _StarNets(e_net, e_cell, a_x, a_y, a_mask, w_net, net_size,
                     cell_weight, movable, die.width_nm, die.height_nm)

    # Spectral-like phase with rescaling, then a short pure relaxation
    # to pull connected cells tight around the structure found.
    tracer = telemetry.current_tracer()
    relax_iters = iterations + max(4, iterations // 12)
    with tracer.span("kernel.place.field"):
        for _ in range(iterations):
            _field_sweep(star, xs, ys, rescale=True)
        for _ in range(max(4, iterations // 12)):
            _field_sweep(star, xs, ys, rescale=False)
    if tracer.enabled:
        tracer.count("kernel.place.sweeps", relax_iters)
        tracer.gauge("kernel.place.entries", float(len(entry_net)))

    # Min-cut recursive bisection, seeded by the spectral ordering and
    # refined with FM-style boundary moves at every level.  Weighting by
    # cell area keeps regions at uniform density so legalization barely
    # moves anything.
    weights = np.ones(n)
    for name, i in index.items():
        weights[i] = max(1.0, library[netlist.instances[name].master].width_cpp)
    partitioner = _MinCutPartitioner(e_net, e_cell, n, weights)
    if macro_ids:
        fixed = set(macro_ids)
        partitioner.place(xs, ys, die.width_nm, die.height_nm,
                          cells=[c for c in range(n) if c not in fixed])
        for m in getattr(die, "macros", ()):
            i = index.get(m.name)
            if i is not None:
                xs[i] = m.center.x_nm
                ys[i] = m.center.y_nm
    else:
        partitioner.place(xs, ys, die.width_nm, die.height_nm)

    placement = Placement(die=die, io_pins=pads)
    for name, i in index.items():
        placement.locations[name] = Point(float(xs[i]), float(ys[i]))
    return placement


class _MinCutPartitioner:
    """Recursive min-cut bisection with FM-style refinement.

    Each region's cells are split into two halves; the initial split
    comes from the spectral ordering, then greedy gain passes move
    boundary cells to reduce the number of cut nets while keeping the
    halves balanced.  Recursion alternates the cut axis and terminates
    at small leaves, scattering cells inside their final region.
    """

    LEAF_SIZE = 4
    PASSES = 3
    BALANCE = 0.54  # max fraction of the region's area on one side

    def __init__(self, e_net: np.ndarray, e_cell: np.ndarray, n_cells: int,
                 weights: np.ndarray | None = None):
        self.n_cells = n_cells
        self.weights = weights if weights is not None else np.ones(n_cells)
        # cell -> list of net ids / net -> list of cell ids (deduplicated).
        pairs = sorted(set(zip(e_cell.tolist(), e_net.tolist())))
        self.cell_nets: list[list[int]] = [[] for _ in range(n_cells)]
        net_cells: dict[int, list[int]] = {}
        for cell, net in pairs:
            self.cell_nets[cell].append(net)
            net_cells.setdefault(net, []).append(cell)
        # Keep only nets small enough to matter for cut minimization.
        self.net_cells = {
            net: cells for net, cells in net_cells.items() if len(cells) <= 24
        }

    def place(self, xs: np.ndarray, ys: np.ndarray,
              width: float, height: float,
              cells: list[int] | None = None) -> None:
        if cells is None:
            cells = list(range(self.n_cells))
        self._split(xs, ys, cells,
                    0.0, 0.0, width, height, horizontal=True)

    # -- recursion ---------------------------------------------------------
    def _split(self, xs, ys, cells, x0, y0, x1, y1, horizontal) -> None:
        if len(cells) <= self.LEAF_SIZE:
            # Mini-grid scatter: spreading in y as well keeps per-row
            # demand uniform for the legalizer.
            k = len(cells)
            cols = max(1, int(np.ceil(np.sqrt(k))))
            rows = max(1, int(np.ceil(k / cols)))
            for j, c in enumerate(sorted(cells, key=lambda c: (xs[c], ys[c]))):
                fx = (j % cols + 0.5) / cols
                fy = (j // cols + 0.5) / rows
                xs[c] = x0 + fx * (x1 - x0)
                ys[c] = y0 + fy * (y1 - y0)
            return
        if horizontal:
            cells.sort(key=lambda c: xs[c])
        else:
            cells.sort(key=lambda c: ys[c])
        # Split at half the *area*, not half the cell count.
        total_w = float(sum(self.weights[c] for c in cells))
        acc = 0.0
        half = len(cells) // 2
        for i, c in enumerate(cells):
            acc += self.weights[c]
            if acc >= total_w / 2.0:
                half = max(1, min(i + 1, len(cells) - 1))
                break
        side = {c: (0 if i < half else 1) for i, c in enumerate(cells)}
        self._refine(cells, side, total_w)
        lo = [c for c in cells if side[c] == 0]
        hi = [c for c in cells if side[c] == 1]
        frac = float(sum(self.weights[c] for c in lo)) / total_w
        if horizontal:
            xm = x0 + frac * (x1 - x0)
            self._split(xs, ys, lo, x0, y0, xm, y1, not horizontal)
            self._split(xs, ys, hi, xm, y0, x1, y1, not horizontal)
        else:
            ym = y0 + frac * (y1 - y0)
            self._split(xs, ys, lo, x0, y0, x1, ym, not horizontal)
            self._split(xs, ys, hi, x0, ym, x1, y1, not horizontal)

    # -- FM-style greedy refinement -----------------------------------------
    def _refine(self, cells: list[int], side: dict[int, int],
                total_weight: float) -> None:
        # Per net: member count on each side (members inside this region).
        counts: dict[int, list[int]] = {}
        for c in cells:
            for net in self.cell_nets[c]:
                if net not in self.net_cells:
                    continue
                if net not in counts:
                    counts[net] = [0, 0]
                counts[net][side[c]] += 1

        max_side = self.BALANCE * total_weight
        size = [float(sum(self.weights[c] for c in cells if side[c] == 0)), 0.0]
        size[1] = total_weight - size[0]

        for _pass in range(self.PASSES):
            moved = 0
            for c in cells:
                s = side[c]
                if size[1 - s] + self.weights[c] > max_side:
                    continue
                gain = 0
                for net in self.cell_nets[c]:
                    cnt = counts.get(net)
                    if cnt is None:
                        continue
                    if cnt[1 - s] == 0:
                        gain -= 1          # net becomes cut
                    elif cnt[s] == 1:
                        gain += 1          # net leaves the cut
                if gain > 0:
                    side[c] = 1 - s
                    size[s] -= self.weights[c]
                    size[1 - s] += self.weights[c]
                    for net in self.cell_nets[c]:
                        cnt = counts.get(net)
                        if cnt is not None:
                            cnt[s] -= 1
                            cnt[1 - s] += 1
                    moved += 1
            if moved == 0:
                break


def legalize(placement: Placement, netlist: Netlist, library: Library,
             powerplan: PowerPlan) -> Placement:
    """Snap cells to legal row/site positions around tap-cell blockages.

    Raises :class:`PlacementError` when some cell cannot be placed —
    the utilization ceiling of Fig. 8(a).
    """
    die = placement.die
    blocked = powerplan.blocked_sites()

    # Hard macro footprints + halos are first-class blockages, exactly
    # like the tap-cell sites: their rows/sites are carved out of the
    # free segments below and the macros re-commit at their floorplan
    # positions.
    macros = getattr(die, "macros", ())
    macro_names = {m.name for m in macros}
    if macros:
        blocked = blocked.copy()
        for m in macros:
            ko = m.keepout()
            r0 = max(0, int(math.floor(ko.y0_nm / die.row_height_nm)))
            r1 = min(die.rows, int(math.ceil(ko.y1_nm / die.row_height_nm)))
            s0 = max(0, int(math.floor(ko.x0_nm / die.site_width_nm)))
            s1 = min(die.sites_per_row,
                     int(math.ceil(ko.x1_nm / die.site_width_nm)))
            blocked[r0:r1, s0:s1] = True

    # Free segments (start, end) per row, excluding blocked sites.
    segments: list[list[list[int]]] = []
    for row in range(die.rows):
        row_segments = []
        start = None
        for site in range(die.sites_per_row):
            if blocked[row, site]:
                if start is not None:
                    row_segments.append([start, site])
                    start = None
            elif start is None:
                start = site
        if start is not None:
            row_segments.append([start, die.sites_per_row])
        segments.append(row_segments)
    # Segment boundaries waste a little space in dense packing; keep a
    # two-site margin per boundary so the strict pass cannot overflow.
    capacity = [
        max(0, sum(e - s for s, e in segs) - 2 * max(0, len(segs) - 1))
        for segs in segments
    ]

    widths = {
        name: max(1, math.ceil(library[inst.master].width_cpp))
        for name, inst in netlist.instances.items()
        if name not in macro_names
    }
    total_width = sum(widths.values())
    if total_width > sum(capacity):
        raise PlacementError(
            f"design needs {total_width} sites but only {sum(capacity)} "
            "are free after tap-cell placement"
        )

    # Assign cells to rows near their global y.  A soft per-row cap a
    # little above the average load keeps rows evenly filled (a row
    # stuffed to 100 % forces huge x displacements when packed); the
    # hard capacity is the fallback when the soft caps are exhausted.
    order = sorted(widths,
                   key=lambda name: (placement.locations[name].y_nm,
                                     placement.locations[name].x_nm))
    max_width = max(widths.values()) if widths else 1
    mean_load = total_width / die.rows
    soft_cap = [
        min(cap, int(mean_load + max_width + 2)) for cap in capacity
    ]
    row_load = [0] * die.rows
    row_cells: list[list[str]] = [[] for _ in range(die.rows)]
    for name in order:
        target = die.row_of(placement.locations[name].y_nm)
        chosen = None
        for caps in (soft_cap, capacity):
            for offset in range(die.rows):
                for row in (target - offset, target + offset):
                    if 0 <= row < die.rows and (
                        row_load[row] + widths[name] <= caps[row]
                    ):
                        chosen = row
                        break
                if chosen is not None:
                    break
            if chosen is not None:
                break
        if chosen is None:
            raise PlacementError(
                f"no row can host {name} (width {widths[name]} sites)"
            )
        row_load[chosen] += widths[name]
        row_cells[chosen].append(name)

    # Pack each row left-to-right around the blockages.  A first pass
    # respects the global-placement x targets; if its gaps overflow the
    # row, a strict first-fit-decreasing pass packs densely.  Cells that
    # still do not fit spill to other rows' residual free space; only
    # when no row can host a spilled cell is the placement infeasible.
    legal = Placement(die=die, io_pins=dict(placement.io_pins))
    residual: list[list[list[int]]] = [[] for _ in range(die.rows)]
    leftovers: list[str] = []

    def commit(name: str, row: int, start: int) -> None:
        x = (start + widths[name] / 2.0) * die.site_width_nm
        y = (row + 0.5) * die.row_height_nm
        legal.locations[name] = Point(x, y)

    for row in range(die.rows):
        cells = sorted(row_cells[row],
                       key=lambda name: placement.locations[name].x_nm)
        if not cells:
            residual[row] = [list(seg) for seg in segments[row]]
            continue
        if not segments[row]:
            raise PlacementError(f"row {row} fully blocked")
        starts, spilled = _pack_row(cells, segments[row], widths,
                                    placement, die)
        leftovers.extend(spilled)
        for name, start in starts.items():
            commit(name, row, start)
        residual[row] = _free_intervals(segments[row], starts, widths)

    for name in sorted(leftovers, key=lambda n: -widths[n]):
        w = widths[name]
        home = die.row_of(placement.locations[name].y_nm)
        placed = False
        for offset in range(die.rows):
            for row in {home - offset, home + offset}:
                if not 0 <= row < die.rows:
                    continue
                for interval in residual[row]:
                    if interval[1] - interval[0] >= w:
                        commit(name, row, interval[0])
                        interval[0] += w
                        placed = True
                        break
                if placed:
                    break
            if placed:
                break
        if not placed:
            raise PlacementError(
                f"no free span for {name} (width {w} sites): placement "
                "violation between standard cells and Power Tap Cells"
            )
    for m in macros:
        legal.locations[m.name] = m.rect.center
    return legal


def _free_intervals(row_segments: list[list[int]], starts: dict[str, int],
                    widths: dict[str, int]) -> list[list[int]]:
    """Free intervals of a row after packing ``starts`` into it."""
    occupied = sorted((s, s + widths[n]) for n, s in starts.items())
    intervals: list[list[int]] = []
    for seg_start, seg_end in row_segments:
        cursor = seg_start
        for a, b in occupied:
            if b <= cursor or a >= seg_end:
                continue
            if a > cursor:
                intervals.append([cursor, a])
            cursor = max(cursor, b)
        if cursor < seg_end:
            intervals.append([cursor, seg_end])
    return intervals


def _pack_row(cells: list[str], row_segments: list[list[int]],
              widths: dict[str, int], placement: Placement,
              die: Die) -> tuple[dict[str, int], list[str]]:
    """Abacus-style row packing around blockages.

    Cells are assigned to the free segment nearest their global-
    placement target (falling back to any segment with space), then
    packed inside each segment with a two-pass clamp that perturbs the
    target x positions as little as possible.  Returns (starts, spilled
    cells that did not fit anywhere in this row).
    """
    free = [e - s for s, e in row_segments]
    members: list[list[str]] = [[] for _ in row_segments]
    spilled: list[str] = []

    def target_site(name: str) -> int:
        return die.site_of(placement.locations[name].x_nm)

    for name in sorted(cells, key=target_site):
        w = widths[name]
        target = target_site(name)
        home = 0
        for i, (s_start, s_end) in enumerate(row_segments):
            if target >= s_start:
                home = i
        order = list(range(home, len(row_segments))) +             list(range(home - 1, -1, -1))
        slot = next((i for i in order if free[i] >= w), None)
        if slot is None:
            spilled.append(name)
            continue
        free[slot] -= w
        members[slot].append(name)

    starts: dict[str, int] = {}
    for (seg_start, seg_end), group in zip(row_segments, members):
        group.sort(key=target_site)
        # Forward pass: honour targets, push right when overlapping.
        positions = []
        cursor = seg_start
        for name in group:
            pos = max(cursor, min(target_site(name), seg_end - widths[name]))
            positions.append(pos)
            cursor = pos + widths[name]
        # Backward pass: pull back anything shoved past the segment end.
        limit = seg_end
        for i in range(len(group) - 1, -1, -1):
            positions[i] = min(positions[i], limit - widths[group[i]])
            limit = positions[i]
        for name, pos in zip(group, positions):
            starts[name] = pos
    return starts, spilled


def place(netlist: Netlist, library: Library, die: Die,
          powerplan: PowerPlan, seed: int = 0) -> Placement:
    """Global placement + legalization in one call."""
    from ..core.telemetry import current_tracer

    rough = global_place(netlist, library, die, seed=seed)
    placement = legalize(rough, netlist, library, powerplan)
    tracer = current_tracer()
    tracer.gauge("placement.cells", len(placement.locations))
    tracer.gauge("placement.io_pads", len(placement.io_pins))
    return placement

