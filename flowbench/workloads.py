"""The benchmark's three workloads and their output checks.

Each workload is built from a :class:`Context`, has an untimed
``setup`` and a timed ``run_pass``.  A pass returns a :class:`Pass`:
its wall time, the SHA-256 of its PPA payload, its quality-of-result
numbers, and every failed operation or check as a problem string.
Both take ``tracing``, a context manager entered around the work only
(the output checks stay outside it); a traced pass also runs the
route-connectivity check.  ``check_setup`` checks what set-up built.
``cpus`` is how many CPUs a pass keeps busy; the reference kernel runs
on as many.

The workloads call the variation engine through its module
(``variation.engine.run_samples``), so the traced pass's wrappers see
those calls.

The physical-design seed, :data:`FLOW_SEED`, is part of each
workload's definition; the run seed drives the Monte-Carlo draws.
README.md says why.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.cells import Library
from repro.core import (FailedRun, FlowCache, FlowConfig, RetryPolicy,
                        StageStore, SweepRunner)
from repro.core.cache import netlist_fingerprint, result_to_payload
from repro.core.flow import run_flow, stage_keys
from repro.core.guard import FlowGuard
from repro.lefdef.drc import check_connectivity, check_def
from repro.synth import RiscvConfig, generate_riscv_core

#: The Fig. 12 / Table III grid the sweep walks, at u0.76.
SWEEP_UTILIZATION = 0.76
FFET_SPLITS = ((12, 12), (6, 6), (4, 4), (4, 2))
CFET_SPLITS = (12, 8, 6)
#: Monte-Carlo samples per pass.
MC_SAMPLES = 64
#: ``FlowConfig.seed`` (placement and backside pin assignment) of every
#: workload.  Fixed: the flow's run time and results are chaotic in it.
FLOW_SEED = 0


class Rv16:
    """Picklable factory for the rv16 core (pool workers call it)."""

    def __call__(self):
        return generate_riscv_core(RiscvConfig(xlen=16, nregs=16,
                                               name="rv16"))


@dataclass
class Context:
    """What every workload needs from the command line and host."""

    seed: int
    jobs: int
    #: Private directory for stage stores; removed by the caller.
    scratch: Path
    #: A store an earlier set-up already filled, to load instead of
    #: filling again (``None``: fill a fresh one).
    filled: Path | None = None


@dataclass
class Pass:
    """The outcome of one timed pass."""

    wall_s: float
    digest: str
    fmax_ghz: float = 0.0
    fmax_3sigma_ghz: float = 0.0
    power_mw: float = 0.0
    area_um2: float = 0.0
    #: Operations (flows, samples) and output checks performed.
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    #: Runner and stage-store counters (sweep only).
    runner: dict[str, float] = field(default_factory=dict)
    #: Reference-kernel seconds around the pass (untraced runs only).
    ref_s: float = 0.0


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def check_layout(label: str, merged_def, library, netlist) -> list[str]:
    """DRC and LVS-lite on one merged DEF (two checks)."""
    problems = []
    for check, report in (("check_def", check_def(merged_def, library,
                                                  netlist)),
                          ("check_connectivity",
                           check_connectivity(merged_def, netlist))):
        if not report.clean:
            problems.append(f"{label}: {check}: "
                            f"{len(report.violations)} violations, first "
                            f"{report.violations[0]}")
    return problems


def check_routes(label: str, routing_results) -> list[str]:
    """Union-find over each route's edges: every net's terminals join
    one component (one check per routed side)."""
    problems = []
    for side, result in routing_results.items():
        broken = []
        for name, route in result.routes.items():
            parent: dict = {}

            def find(node):
                parent.setdefault(node, node)
                while parent[node] != node:
                    parent[node] = parent[parent[node]]
                    node = parent[node]
                return node

            for a, b in route.edges:
                parent[find(a)] = find(b)
            if len({find(t) for t in route.terminals}) > 1:
                broken.append(name)
        if broken:
            problems.append(f"{label} {side.value}: {len(broken)} of "
                            f"{len(result.routes)} nets disconnected, "
                            f"first {broken[0]}")
    return problems


def _stored_layout(store: StageStore, config: FlowConfig, fingerprint: str):
    """(merged DEF, library, netlist, routing results) of a finished
    flow, loaded back from its stage store."""
    keys = stage_keys(config, fingerprint, version=store.version)
    masters = store.get("library", keys["library"])["masters"]
    routing = store.get("routing", keys["routing"])
    merged = store.get("def_merge", keys["def_merge"])["merged"]
    library = Library(tech=config.make_tech(), masters=dict(masters))
    return merged, library, routing["netlist"], routing["routing_results"]


class Rv32Flow:
    """One cold ``run_flow`` of the RV32I core: no cache, no store."""

    name = "rv32_flow"

    def __init__(self, ctx: Context) -> None:
        self.cpus = 1
        self.factory = functools.partial(generate_riscv_core, RiscvConfig())
        self.config = FlowConfig(seed=FLOW_SEED)

    def setup(self, tracing=None) -> None:
        self.factory()

    def check_setup(self, deep: bool) -> tuple[int, list[str]]:
        return 0, []

    def run_pass(self, tracing=None) -> Pass:
        start = time.perf_counter()
        try:
            with tracing or nullcontext():
                art = run_flow(self.factory, self.config,
                               return_artifacts=True,
                               guard=FlowGuard("strict"))
        except Exception as exc:  # a failed flow is a measured outcome
            return Pass(time.perf_counter() - start, "", attempted=1,
                        problems=[f"flow raised {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - start
        r = art.result
        problems = check_layout(self.name, art.merged_def, art.library,
                                art.netlist)
        attempted = 3
        if tracing is not None:
            problems += check_routes(self.name, art.routing_results)
            attempted += len(art.routing_results)
        return Pass(wall, digest(result_to_payload(r)),
                    fmax_ghz=r.achieved_frequency_ghz,
                    fmax_3sigma_ghz=r.achieved_frequency_ghz,
                    power_mw=r.total_power_mw, area_um2=r.core_area_um2,
                    attempted=attempted, problems=problems)


class Rv16SplitSweep:
    """rv16 at u0.76 over the FFET and CFET layer splits: one batch on
    the :class:`SweepRunner` behind ``repro sweep``, with a fresh stage
    store each pass.  (``layer_split_sweep`` takes one arch per call;
    two calls would serialize the archs' shared prefixes.)"""

    name = "rv16_split_sweep"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.cpus = ctx.jobs
        self.factory = Rv16()
        ffet = FlowConfig(utilization=SWEEP_UTILIZATION, seed=FLOW_SEED)
        cfet = FlowConfig(arch="cfet", back_layers=0,
                          backside_pin_fraction=0.0,
                          utilization=SWEEP_UTILIZATION, seed=FLOW_SEED)
        self.configs = (
            [ffet.with_(front_layers=f, back_layers=b) for f, b in FFET_SPLITS]
            + [cfet.with_(front_layers=f) for f in CFET_SPLITS])

    def setup(self, tracing=None) -> None:
        self.factory()

    def check_setup(self, deep: bool) -> tuple[int, list[str]]:
        return 0, []

    def run_pass(self, tracing=None) -> Pass:
        store_dir = Path(tempfile.mkdtemp(prefix="sweep-",
                                          dir=self.ctx.scratch))
        cache = FlowCache(store_dir)
        runner = SweepRunner(jobs=self.ctx.jobs, cache=cache,
                             retry=RetryPolicy())
        start = time.perf_counter()
        with tracing or nullcontext():
            results = runner.run_many(self.factory, self.configs)
        wall = time.perf_counter() - start

        problems = [r.summary() for r in results if isinstance(r, FailedRun)]
        attempted = len(results)
        store = StageStore(cache)
        fingerprint = netlist_fingerprint(self.factory())
        for config, result in zip(self.configs, results):
            if isinstance(result, FailedRun):
                continue
            merged, library, netlist, routes = _stored_layout(
                store, config, fingerprint)
            problems += check_layout(config.label, merged, library, netlist)
            attempted += 2
            if tracing is not None:
                problems += check_routes(config.label, routes)
                attempted += len(routes)
        stats = runner.stats
        lookups = stats.stage_hits + stats.stage_misses
        out = Pass(
            wall, digest([result_to_payload(r) for r in results]),
            attempted=attempted, problems=problems,
            runner={
                "core.stages.hit": stats.stage_hits,
                "core.stages.miss": stats.stage_misses,
                "core.stages.hit_ratio": (stats.stage_hits / lookups
                                          if lookups else 0.0),
                "core.stages.singleflight_wait": stats.stage_counters.get(
                    "stage_cache.singleflight.wait", 0.0),
                "core.runner.parallel_eff": (
                    stats.run_time_s / (stats.elapsed_s * runner.jobs)
                    if stats.elapsed_s else 0.0),
                "core.runner.retries": stats.retries,
                "core.runner.failed": stats.failed,
            })
        results = [r for r in results if not isinstance(r, FailedRun)]
        if results:
            out.fmax_ghz = geomean(r.achieved_frequency_ghz for r in results)
            out.fmax_3sigma_ghz = out.fmax_ghz
            out.power_mw = geomean(r.total_power_mw for r in results)
            out.area_um2 = geomean(r.core_area_um2 for r in results)
        shutil.rmtree(store_dir, ignore_errors=True)
        return out


class Rv16MonteCarlo:
    """Overlay-aware Monte-Carlo signoff of rv16 FFET default: the
    nominal flow is filled into a fresh store at set-up, each pass
    evaluates :data:`MC_SAMPLES` perturbed samples."""

    name = "rv16_mc"

    def __init__(self, ctx: Context) -> None:
        # Imported here: the variation package pulls in scipy, which the
        # flow workloads' set-up should not pay for.
        from repro import variation
        self.variation = variation
        self.ctx = ctx
        self.cpus = ctx.jobs
        self.factory = Rv16()
        self.config = FlowConfig(seed=FLOW_SEED)
        self.model = variation.VariationModel.for_arch(self.config.arch)
        self.store_dir = ctx.filled or Path(
            tempfile.mkdtemp(prefix="mc-", dir=ctx.scratch))

    def setup(self, tracing=None) -> None:
        """Fill the nominal flow into the store, or load it when
        ``Context.filled`` named an already filled one."""
        with tracing or nullcontext():
            self.bundle = self.variation.engine.nominal_bundle(
                self.factory, self.config, cache=FlowCache(self.store_dir))

    def check_setup(self, deep: bool) -> tuple[int, list[str]]:
        """Layout checks on the nominal flow; returns the checks
        attempted and the problems found."""
        merged, library, netlist, routes = _stored_layout(
            StageStore(FlowCache(self.store_dir)), self.config,
            netlist_fingerprint(self.factory()))
        problems = check_layout("nominal", merged, library, netlist)
        attempted = 2
        if deep:
            problems += check_routes("nominal", routes)
            attempted += len(routes)
        return attempted, problems

    def run_pass(self, tracing=None) -> Pass:
        start = time.perf_counter()
        with tracing or nullcontext():
            good, bad = self.variation.engine.run_samples(
                self.bundle, self.config, self.model, MC_SAMPLES,
                self.ctx.seed, jobs=self.ctx.jobs)
        wall = time.perf_counter() - start
        problems = [f"sample {f.index} quarantined: {f.cause}: {f.reason}"
                    for f in bad]
        if len(good) + len(bad) != MC_SAMPLES:
            problems.append(f"asked for {MC_SAMPLES} samples, got "
                            f"{len(good) + len(bad)}")
        out = Pass(wall, digest([asdict(s) for s in good + bad]),
                   attempted=MC_SAMPLES + 1, problems=problems)
        if good:
            report = self.variation.signoff(self.variation.MonteCarloResult(
                config=self.config, model=self.model, seed=self.ctx.seed,
                nominal=self.bundle.result, samples=good, failed=bad))
            out.fmax_ghz = report.metrics["frequency_ghz"].mean
            out.fmax_3sigma_ghz = report.fmax_3sigma_ghz
            out.power_mw = report.metrics["power_mw"].mean
            out.area_um2 = self.bundle.result.core_area_um2
        return out


WORKLOADS = {w.name: w for w in (Rv32Flow, Rv16SplitSweep, Rv16MonteCarlo)}

