"""Global router tests: connectivity, congestion, rip-up-and-reroute."""

import numpy as np
import pytest

from repro.core.telemetry import Tracer, activate
from repro.pnr.routing.grid import RoutingGrid
from repro.pnr.routing.router import GlobalRouter, NetSpec, _norm_edge
from repro.tech import Side, make_ffet_node


def uniform_grid(cols=10, rows=10, cap=4.0):
    tech = make_ffet_node()
    layers = tech.routing_layers(Side.FRONT)
    grid = RoutingGrid(side=Side.FRONT, cols=cols, rows=rows,
                       gcell_nm=480.0, layers=layers)
    grid.cap_h = np.full((rows, cols - 1), cap)
    grid.cap_v = np.full((rows - 1, cols), cap)
    return grid


def tree_is_connected(route):
    """All terminals reachable through the route's edges."""
    if len(route.terminals) < 2:
        return True
    adj = {}
    for a, b in route.edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = {route.terminals[0]}
    stack = [route.terminals[0]]
    while stack:
        node = stack.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return all(t in seen for t in route.terminals)


class TestBasicRouting:
    def test_two_terminal_net(self):
        router = GlobalRouter(uniform_grid())
        result = router.route_all([NetSpec("n", Side.FRONT, [(0, 0), (5, 5)])])
        route = result.routes["n"]
        assert tree_is_connected(route)
        assert route.wirelength_gcells == 10  # Manhattan distance

    def test_multi_terminal_net(self):
        router = GlobalRouter(uniform_grid())
        spec = NetSpec("n", Side.FRONT, [(0, 0), (9, 0), (0, 9), (9, 9), (5, 5)])
        result = router.route_all([spec])
        assert tree_is_connected(result.routes["n"])

    def test_single_terminal_net_empty(self):
        router = GlobalRouter(uniform_grid())
        result = router.route_all([NetSpec("n", Side.FRONT, [(3, 3)])])
        assert result.routes["n"].edges == set()

    def test_all_nets_connected(self):
        import random

        rng = random.Random(1)
        specs = [
            NetSpec(f"n{i}", Side.FRONT,
                    [(rng.randrange(10), rng.randrange(10)) for _ in range(3)])
            for i in range(40)
        ]
        result = GlobalRouter(uniform_grid(cap=16.0)).route_all(specs)
        for spec in specs:
            assert tree_is_connected(result.routes[spec.name]), spec.name

    def test_deterministic(self):
        specs = [
            NetSpec("a", Side.FRONT, [(0, 0), (9, 9)]),
            NetSpec("b", Side.FRONT, [(0, 9), (9, 0)]),
        ]
        r1 = GlobalRouter(uniform_grid()).route_all(specs)
        r2 = GlobalRouter(uniform_grid()).route_all(specs)
        assert r1.routes["a"].edges == r2.routes["a"].edges


class TestCongestion:
    def test_overflow_reported(self):
        # Capacity 1 per edge, many parallel nets along one row.
        grid = uniform_grid(cap=1.0)
        specs = [
            NetSpec(f"n{i}", Side.FRONT, [(0, 5), (9, 5)]) for i in range(5)
        ]
        result = GlobalRouter(grid).route_all(specs)
        # All nets still connect even when capacity is insufficient...
        for spec in specs:
            assert tree_is_connected(result.routes[spec.name])
        # ...but with 5 nets crossing a 10-row grid of capacity 1 each,
        # the rip-up pass spreads them over distinct rows.
        assert result.overflow_edges <= 4

    def test_rrr_reduces_overflow(self):
        grid1 = uniform_grid(cap=1.0)
        specs = [
            NetSpec(f"n{i}", Side.FRONT, [(0, 5), (9, 5)]) for i in range(4)
        ]
        no_rrr = GlobalRouter(uniform_grid(cap=1.0), rrr_iterations=0)
        with_rrr = GlobalRouter(grid1, rrr_iterations=5)
        before = no_rrr.route_all(specs)
        after = with_rrr.route_all(specs)
        assert after.total_overflow < before.total_overflow
        # Terminals share one node with only three incident unit-capacity
        # edges, so 4 nets cannot avoid overflow entirely: 2 is optimal.
        assert after.total_overflow <= 2

    def test_wirelength_accounting(self):
        grid = uniform_grid()
        result = GlobalRouter(grid).route_all(
            [NetSpec("n", Side.FRONT, [(0, 0), (3, 0)])]
        )
        assert result.total_wirelength_nm == pytest.approx(3 * 480.0)

    def test_drv_includes_pin_access(self):
        grid = uniform_grid()
        grid.pin_access_drvs = 7
        result = GlobalRouter(grid).route_all(
            [NetSpec("n", Side.FRONT, [(0, 0), (1, 0)])]
        )
        assert result.drv_count == 7 + result.overflow_edges


class TestSearchSpan:
    """``kernel.route.search`` times each maze distance field, nothing
    else: one span per search, none when pattern routing suffices."""

    @staticmethod
    def traced_route_all(grid, specs):
        tracer = Tracer()
        with activate(tracer):
            result = GlobalRouter(grid).route_all(specs)
        trace = tracer.finish()
        spans = [s for s in trace.spans if s.name == "kernel.route.search"]
        return result, spans, trace.counters.get("kernel.route.searches", 0)

    def test_one_span_per_search_on_a_congested_grid(self):
        specs = [NetSpec(f"n{i}", Side.FRONT, [(0, 5), (9, 5)])
                 for i in range(5)]
        result, spans, searches = self.traced_route_all(
            uniform_grid(cap=1.0), specs)
        assert result.iterations > 0
        assert searches > 0
        assert len(spans) == searches

    def test_overflow_free_routing_records_no_search(self):
        specs = [NetSpec("a", Side.FRONT, [(0, 0), (3, 2)]),
                 NetSpec("b", Side.FRONT, [(5, 5), (9, 8), (6, 9)])]
        result, spans, searches = self.traced_route_all(uniform_grid(), specs)
        assert result.iterations == 0 and result.overflow_edges == 0
        assert spans == [] and searches == 0

    def test_open_grid_search_settles_less_than_its_box(self):
        """The search stops at its target: on an open grid it settles a
        small diamond around the source, not the whole search box."""
        router = GlobalRouter(uniform_grid(cols=20, rows=20))
        tracer = Tracer()
        with activate(tracer):
            route = router._maze_route(
                NetSpec("n", Side.FRONT, [(4, 10), (8, 10)]))
        counters = tracer.finish().counters
        assert route.wirelength_gcells == 4
        assert counters["kernel.route.searches"] == 1
        assert counters["kernel.route.nodes"] == 15 * 13
        assert 0 < counters["kernel.route.settled"] < \
            counters["kernel.route.nodes"] / 2


class TestRouteGeometry:
    def test_bends_counted(self):
        router = GlobalRouter(uniform_grid())
        result = router.route_all([NetSpec("n", Side.FRONT, [(0, 0), (4, 4)])])
        assert result.routes["n"].bends() >= 1

    def test_h_v_steps_sum_to_wirelength(self):
        router = GlobalRouter(uniform_grid())
        result = router.route_all(
            [NetSpec("n", Side.FRONT, [(0, 0), (5, 3)])]
        )
        route = result.routes["n"]
        assert route.h_steps() + route.v_steps() == route.wirelength_gcells

    def test_norm_edge(self):
        assert _norm_edge((1, 0), (0, 0)) == ((0, 0), (1, 0))
