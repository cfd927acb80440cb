"""Numeric-equivalence harness: each production kernel vs its oracle.

Every hot kernel has one production implementation; its scalar
reference lives in ``tests/kernel_oracles.py``.  This suite pins their
agreement with property-based tests, calling the oracle directly or
substituting it for the kernel with ``monkeypatch``.

Tolerance policy (also in docs/performance.md): each kernel is
*operation-order compatible* with its oracle — every floating-point
accumulation happens in the same order in both — so the pinned
tolerance is **zero ULP everywhere**:

* **NLDM interpolation** — :class:`TableStack` vs scalar
  :class:`LookupTable` calls: bit-equal;
* **Elmore delay** — :func:`elmore_forest` vs per-tree
  :meth:`RCTree.elmore_ps`: bit-equal;
* **maze routing** — the early-exit Dijkstra kernel and the scalar
  Dijkstra oracle, settled over the whole box, agree bitwise on every
  node below the target's distance (the only values the shared
  deterministic backtrack reads): identical routes, identical
  wirelength/overflow;
* **analytic placement** — scatter/gather sweeps accumulate in entry
  order like the oracle's loops: identical coordinates;
* **STA propagation** — the level-batched engine vs the scalar
  topological-order loop: identical arrivals, slews and provenance;
* **nearest-endpoint search** — extraction's vectorized search vs the
  scalar ``min``: the same endpoint, ties included.

Any intentional future divergence must loosen the assertion here *and*
document the new tolerance, in the same change.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cells import LookupTable
from repro.core.telemetry import NULL_TRACER
from repro.extract import estimate_parasitics
from repro.extract.extract import _endpoint_finder
from repro.extract.rc import RCTree, elmore_forest
from repro.pnr import FloorplanSpec, global_place, plan_floor
from repro.pnr.routing.grid import RoutingGrid
from repro.pnr.routing.router import GlobalRouter, NetSpec
from repro.sta import analyze_timing
from repro.sta.nldm import TableStack
from repro.tech import Side

from . import kernel_oracles as oracles

slow = settings(max_examples=25,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# NLDM lookup-table interpolation
# ---------------------------------------------------------------------------
@st.composite
def lookup_tables(draw):
    slews = sorted(draw(st.lists(
        st.floats(0.5, 100.0), min_size=2, max_size=6, unique=True)))
    loads = sorted(draw(st.lists(
        st.floats(0.1, 50.0), min_size=2, max_size=6, unique=True)))
    values = draw(st.lists(
        st.lists(st.floats(0.01, 500.0),
                 min_size=len(loads), max_size=len(loads)),
        min_size=len(slews), max_size=len(slews)))
    return LookupTable(np.array(slews), np.array(loads), np.array(values))


class TestNldmStackEquivalence:
    @slow
    @given(st.lists(lookup_tables(), min_size=1, max_size=4),
           st.lists(st.tuples(st.floats(0.0, 150.0), st.floats(0.0, 80.0)),
                    min_size=1, max_size=12))
    def test_stack_matches_scalar_bitwise(self, tables, queries):
        stack = TableStack()
        refs = [stack.add(t) for t in tables]
        n = len(queries)
        for t, (gid, row) in zip(tables, refs):
            gids = np.full(n, gid)
            rows = np.full(n, row)
            slews = np.array([q[0] for q in queries])
            loads = np.array([q[1] for q in queries])
            batch = stack.evaluate(gids, rows, slews, loads)
            for k, (slew, load) in enumerate(queries):
                assert batch[k] == t(slew, load)

    def test_add_is_idempotent_and_groups_shared_axes(self):
        axes = (np.array([1.0, 2.0]), np.array([0.5, 1.5]))
        t1 = LookupTable(axes[0], axes[1], np.array([[1.0, 2.0], [3.0, 4.0]]))
        t2 = LookupTable(axes[0], axes[1], np.array([[5.0, 6.0], [7.0, 8.0]]))
        stack = TableStack()
        assert stack.add(t1) == stack.add(t1)
        g1, _ = stack.add(t1)
        g2, _ = stack.add(t2)
        assert g1 == g2 and stack.single_group


# ---------------------------------------------------------------------------
# Elmore delay over RC forests
# ---------------------------------------------------------------------------
@st.composite
def rc_trees(draw):
    n = draw(st.integers(1, 25))
    tree = RCTree(root=0)
    tree.add_cap(0, draw(st.floats(0.0, 5.0)))
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        tree.add_edge(parent, i, draw(st.floats(1e-6, 3.0)))
        tree.add_cap(i, draw(st.floats(0.0, 5.0)))
    if n > 3 and draw(st.booleans()):
        # A loop edge: Elmore must fall back to the BFS spanning tree.
        tree.add_edge(0, n - 1, draw(st.floats(1e-6, 3.0)))
    return tree


class TestElmoreForestEquivalence:
    @slow
    @given(st.lists(rc_trees(), min_size=1, max_size=6))
    def test_forest_matches_scalar_bitwise(self, trees):
        batch = elmore_forest(trees)
        reference = oracles.elmore_forest_python(trees)
        for scalar, forest in zip(reference, batch):
            assert set(scalar) == set(forest)
            for node, delay in scalar.items():
                assert forest[node] == delay

    @slow
    @given(st.lists(rc_trees(), min_size=1, max_size=4))
    def test_wanted_restriction(self, trees):
        wanted = [list(t.cap_ff)[::2] + ["absent"] for t in trees]
        batch = elmore_forest(trees, wanted=wanted)
        reference = oracles.elmore_forest_python(trees, wanted=wanted)
        for scalar, want, taps in zip(reference, wanted, batch):
            for node in want:
                if node in scalar:
                    assert taps[node] == scalar[node]
                else:
                    assert node not in taps


# ---------------------------------------------------------------------------
# Maze-routing distance fields and routes
# ---------------------------------------------------------------------------
@st.composite
def congested_routers(draw):
    rows = draw(st.integers(3, 14))
    cols = draw(st.integers(3, 14))
    grid = RoutingGrid(side=Side.FRONT, cols=cols, rows=rows,
                       gcell_nm=480.0, layers=[])
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    grid.cap_h = rng.integers(0, 3, size=(rows, cols - 1)).astype(float)
    grid.cap_v = rng.integers(0, 3, size=(rows - 1, cols)).astype(float)
    router = GlobalRouter(grid)
    router.usage_h = rng.integers(0, 4, size=grid.cap_h.shape).astype(float)
    router.usage_v = rng.integers(0, 4, size=grid.cap_v.shape).astype(float)
    router.history_h = rng.random(grid.cap_h.shape) * 2
    router.history_v = rng.random(grid.cap_v.shape) * 2
    n_terms = draw(st.integers(2, 5))
    terminals = set()
    while len(terminals) < n_terms:
        terminals.add((int(rng.integers(0, cols)), int(rng.integers(0, rows))))
    return router, NetSpec("n", Side.FRONT, sorted(terminals))


class TestMazeKernelEquivalence:
    @slow
    @given(congested_routers())
    def test_settled_prefix_bitwise_equal(self, case):
        """The kernel stops at its target, so its field is exact only
        below the target's distance: that prefix, and the target's own
        value, equal the fully settled oracle bit for bit."""
        router, spec = case
        cost_h, cost_v = router._cost_fields()
        box = (0, 0, router.grid.cols - 1, router.grid.rows - 1)
        sources = set(spec.terminals[:-1])
        col, row = spec.terminals[-1]
        ref = oracles.dist_field_python(router, sources, box, cost_h, cost_v)
        got = router._dist_field(sources, box, cost_h, cost_v, NULL_TRACER,
                                 (col, row))
        at_target = ref[row, col]
        assert got[row, col] == at_target
        below = ref < at_target
        assert np.array_equal(got[below], ref[below])
        held = got < at_target
        assert np.array_equal(got[held], ref[held])

    @slow
    @given(congested_routers())
    def test_maze_routes_identical(self, case):
        router, spec = case
        route_np = router._maze_route(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GlobalRouter, "_dist_field", oracles.dist_field_python)
            route_py = router._maze_route(spec)
        assert route_py.edges == route_np.edges

    @slow
    @given(congested_routers())
    def test_route_all_wirelength_and_overflow_identical(self, case):
        router, spec = case
        # Fresh routers (route_all owns usage/history), same grid.
        np_ = GlobalRouter(router.grid).route_all([spec])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(GlobalRouter, "_dist_field", oracles.dist_field_python)
            py = GlobalRouter(router.grid).route_all([spec])
        assert py.total_wirelength_nm == np_.total_wirelength_nm
        assert py.overflow_edges == np_.overflow_edges
        assert py.total_overflow == np_.total_overflow
        assert {n: r.edges for n, r in py.routes.items()} == \
            {n: r.edges for n, r in np_.routes.items()}

    @slow
    @given(congested_routers())
    def test_cost_fields_match_scalar_edge_cost(self, case):
        router, _spec = case
        cost_h, cost_v = router._cost_fields()
        rows, cols = router.grid.rows, router.grid.cols
        for r in range(rows):
            for c in range(cols - 1):
                edge = ((c, r), (c + 1, r))
                assert cost_h[r, c] == router._edge_cost(edge)
        for r in range(rows - 1):
            for c in range(cols):
                edge = ((c, r), (c, r + 1))
                assert cost_v[r, c] == router._edge_cost(edge)


# ---------------------------------------------------------------------------
# Kernel trace counters: deterministic across process-pool fan-out
# ---------------------------------------------------------------------------
class TestKernelCounterJobsParity:
    def test_counters_identical_at_jobs_1_and_4(self, tmp_path):
        """``kernel.*`` counters measure the workload, not the harness:
        fanning the same sweep over a process pool must reproduce the
        serial totals exactly."""
        from repro.core import FlowConfig, SweepRunner

        from .golden_cases import MultiplierFactory

        configs = [FlowConfig(utilization=u) for u in (0.46, 0.51, 0.56)]
        totals = {}
        for jobs in (1, 4):
            runner = SweepRunner(jobs=jobs, trace_dir=tmp_path / str(jobs))
            runner.run_many(MultiplierFactory(5), configs)
            totals[jobs] = {
                name: value
                for name, value in runner.stats.counters.items()
                if name.startswith("kernel.")
            }
        assert totals[1], "no kernel.* counters traced"
        assert totals[1] == totals[4]


# ---------------------------------------------------------------------------
# Analytic placement field/gradient sweeps
# ---------------------------------------------------------------------------
class TestPlacementKernelEquivalence:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_global_place_identical_coordinates(self, ffet_lib, mult4, seed,
                                                monkeypatch):
        die = plan_floor(mult4, ffet_lib, FloorplanSpec(0.7))
        p_np = global_place(mult4, ffet_lib, die, seed=seed)
        monkeypatch.setattr(oracles.placement, "_field_sweep",
                            oracles.field_sweep_python)
        p_py = global_place(mult4, ffet_lib, die, seed=seed)
        assert set(p_py.locations) == set(p_np.locations)
        for name, point in p_py.locations.items():
            other = p_np.locations[name]
            assert (point.x_nm, point.y_nm) == (other.x_nm, other.y_nm)


    @pytest.mark.parametrize("design", ["counter8", "mult4", "rv_tiny"])
    def test_every_sweep_matches_scalar_bitwise(self, ffet_lib, design,
                                                request, monkeypatch):
        """Each sweep of a real placement, kernel vs oracle from the same
        coordinates.  (Final coordinates alone are a weak check: the
        bisection that follows keeps only the cells' ordering.)"""
        netlist = request.getfixturevalue(design)
        die = plan_floor(netlist, ffet_lib, FloorplanSpec(0.7))
        kernel = oracles.placement._field_sweep
        sweeps = []

        def spy(star, xs, ys, rescale):
            ref_x, ref_y = xs.copy(), ys.copy()
            oracles.field_sweep_python(star, ref_x, ref_y, rescale)
            kernel(star, xs, ys, rescale)
            sweeps.append(np.array_equal(xs, ref_x)
                          and np.array_equal(ys, ref_y))

        monkeypatch.setattr(oracles.placement, "_field_sweep", spy)
        global_place(netlist, ffet_lib, die, seed=1)
        assert sweeps and all(sweeps)

# ---------------------------------------------------------------------------
# Level-batched STA propagation
# ---------------------------------------------------------------------------
class TestStaKernelEquivalence:
    @pytest.mark.parametrize("design", ["counter8", "mult4", "rv_tiny"])
    def test_propagation_matches_scalar_bitwise(self, ffet_lib, design,
                                                request, monkeypatch):
        """Both kernels start from the state ``analyze_timing`` hands the
        kernel (primary inputs, clock tree, launch flops); every net the
        batched engine times, and every net's provenance, must match."""
        netlist = request.getfixturevalue(design)
        extraction = estimate_parasitics(netlist, ffet_lib)
        kernel = oracles.sta._propagate_comb
        seen = {}

        def spy(netlist, library, extraction, net_timing, net_from, tracer):
            seen["args"] = copy.deepcopy((net_timing, net_from))
            seen["out"] = kernel(netlist, library, extraction, net_timing,
                                 net_from, tracer)
            seen["timing"] = net_timing
            return seen["out"]

        monkeypatch.setattr(oracles.sta, "_propagate_comb", spy)
        report_np = analyze_timing(netlist, ffet_lib, extraction, 1000.0)
        timing, from_ref = seen["args"]
        n_ref, from_ref = oracles.propagate_comb_python(
            netlist, ffet_lib, extraction, timing, from_ref, NULL_TRACER)
        n_np, from_np = seen["out"]
        assert n_np == n_ref
        assert seen["timing"], "kernel timed no nets"
        for name, pt in seen["timing"].items():
            assert pt == timing[name], name
        for name in netlist.nets:
            assert from_np.get(name) == from_ref.get(name), name

        monkeypatch.setattr(oracles.sta, "_propagate_comb",
                            oracles.propagate_comb_python)
        report_py = analyze_timing(netlist, ffet_lib, extraction, 1000.0)
        assert report_py == report_np


# ---------------------------------------------------------------------------
# Extraction's nearest-endpoint search
# ---------------------------------------------------------------------------
#: Coordinates on a coarse integer grid, so equal Manhattan distances to
#: distinct endpoints (ties) are common.
grid_coord = st.integers(-6, 6).map(lambda v: v * 240.0)
any_coord = st.one_of(grid_coord, st.floats(-2e4, 2e4, allow_nan=False))


class TestNearestEndpointSearch:
    @slow
    @given(st.lists(st.tuples(any_coord, any_coord), min_size=32,
                    max_size=120),
           st.lists(st.tuples(any_coord, any_coord), min_size=1,
                    max_size=12))
    def test_vectorized_matches_scalar_min(self, endpoints, queries):
        nearest = _endpoint_finder(endpoints)
        for xy in queries:
            best = min(
                range(len(endpoints)),
                key=lambda i: abs(endpoints[i][0] - xy[0])
                + abs(endpoints[i][1] - xy[1]))
            e = endpoints[best]
            assert nearest(xy) == (round(e[0]), round(e[1]))

    def test_ties_go_to_the_first_endpoint(self):
        # Every endpoint is 240 nm from the origin; the first one wins.
        ring = [(240.0, 0.0), (0.0, 240.0), (-240.0, 0.0), (0.0, -240.0)]
        endpoints = ring * 8 + [(960.0, 960.0)]
        assert len(endpoints) >= 32
        for order in (endpoints, endpoints[1:] + endpoints[:1]):
            first = order[0]
            assert _endpoint_finder(order)((0.0, 0.0)) == \
                (round(first[0]), round(first[1]))
