"""Flow benchmark: the RV32I flow, the rv16 layer-split sweep and rv16
Monte-Carlo signoff, measured end to end, with a separate traced pass
for per-layer numbers.

Run from the repository root (no install; it imports ``src/repro``)::

    python3 flowbench/run.py --workload rv32_flow --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  Each
run also writes a result file under ``.flowbench/results/``.  See
flowbench/README.md for the workloads, every metric, and how to read a
per-layer diff.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import reference_s
from spans import Layers, Recorder, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".flowbench"
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
#: Passes per run at least, however long they take: two untraced, or
#: two traced ones, so the untraced/traced order alternates once.
MIN_PASSES = {0: 2, 1: 2}
#: Never more workers than this, nor than the CPUs we may run on.
MAX_JOBS = 2

#: Per-layer metrics: span self-times, call counts, counters.
SPAN_SECONDS = (
    "netlist.bind", "synth.size_for_target", "synth.buffer_high_fanout",
    "synth.estimate_parasitics", "synth.analyze_timing",
    "cells.prepare_library", "pnr.plan_floor", "pnr.place",
    "pnr.synthesize_clock_tree", "pnr.legalize", "pnr.routing.build_grid",
    "pnr.routing.decompose_nets", "pnr.routing.route_all",
    "lefdef.def_from_routing", "lefdef.merge_defs", "extract.extract_design",
    "sta.analyze_timing", "power.analyze_power",
)
SPAN_CALLS = ("netlist.bind", "synth.estimate_parasitics",
              "synth.analyze_timing", "pnr.routing.route_all")
COUNTS = ("synth.buffers_added", "synth.sizing_iterations",
          "pnr.routing.rrr_iterations", "pnr.routing.overflow_edges",
          "pnr.routing.drv", "variation.samples", "variation.failed")
RUNNER = ("core.stages.hit", "core.stages.miss", "core.stages.hit_ratio",
          "core.stages.singleflight_wait", "core.runner.parallel_eff",
          "core.runner.retries", "core.runner.failed")
RATIOS = ("core.stages.hit_ratio", "core.runner.parallel_eff",
          "trace.overhead_frac")


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    return "ratio" if name in RATIOS else "count"


def fail(message: str) -> None:
    print(f"flowbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("rv32_flow", "rv16_split_sweep", "rv16_mc"))
    p.add_argument("--seed", type=int, default=0,
                   help="run seed: the Monte-Carlo draws")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="run timed passes while one more still ends within "
                        "this many seconds (at least "
                        f"{MIN_PASSES[0]} untraced or "
                        f"{MIN_PASSES[1]} traced passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_environment(scratch: Path) -> dict:
    """Refuse fault injection, clear every other ``REPRO_*`` knob but the
    kernel mode, force the strict guard and a private cache directory.
    Returns what the environment held before."""
    if os.environ.get("REPRO_FAULTS", "").strip():
        fail("REPRO_FAULTS is set; the benchmark measures healthy runs only")
    before = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for name in before:
        if name != "REPRO_KERNEL":
            del os.environ[name]
    os.environ["REPRO_GUARD"] = "strict"
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")
    return before


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    ``repro`` imported is that one."""
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not {SRC}")


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_probe(args, started: float) -> None:
    """Child process: imports, design generation and the workload's
    fill, timed from before the first ``repro`` import."""
    import_program()
    import workloads
    probe_dir = Path(args.setup_probe)
    ctx = workloads.Context(args.seed, jobs=1, scratch=probe_dir,
                            filled=probe_dir)
    workloads.WORKLOADS[args.workload](ctx).setup()
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def probe_setup(args, scratch: Path) -> tuple[list[float], Path]:
    """Time :data:`SETUP_PROBES` fresh set-ups; returns their times and
    the last probe's directory, whose store the run then reuses."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = scratch / f"probe-{i}"
        probe_dir.mkdir()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, cwd=ROOT, timeout=150)
        if out.returncode != 0:
            fail(f"set-up probe failed:\n{out.stderr}")
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
        if i < SETUP_PROBES - 1:
            shutil.rmtree(probe_dir)
    return times, probe_dir


def layer_metrics(spans, counts, runner: dict) -> tuple[dict, dict]:
    """One traced pass's per-layer metrics (set-up spans included)."""
    table = self_times(spans)
    out = {}
    for name in SPAN_SECONDS:
        out[f"{name}.s"] = table.get(name, {}).get("self_s", 0.0)
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    for name in RUNNER:
        out[name] = runner.get(name, 0)
    sampling = table.get("variation.run_samples", {}).get("total_s", 0.0)
    out["variation.samples_per_s"] = (
        counts.get("variation.samples", 0) / sampling if sampling else 0.0)
    return out, table


def measure(args, wl, scratch: Path) -> dict:
    """Set up, then run passes for ``--seconds``; returns what the
    result line and file need."""
    layers = recorder = None
    setup_spans, setup_counts = [], {}
    if args.trace:
        spill = scratch / "spans"
        spill.mkdir()
        recorder = Recorder(spill)
        layers = Layers(recorder)
    wl.setup(layers)
    if recorder is not None:
        setup_spans, setup_counts = recorder.collect()
    attempted, problems = wl.check_setup(deep=bool(args.trace))

    passes, traced, layer_rows, tables = [], [], [], []
    # Seconds per loop round; a round starts only if one as long as
    # their median still ends within --seconds (after the minimum).
    rounds = []
    start = time.perf_counter()
    ref_before = None if args.trace else reference_s(cpus=wl.cpus)
    while (len(rounds) < MIN_PASSES[args.trace]
           or time.perf_counter() - start + statistics.median(rounds)
           <= args.seconds):
        began = time.perf_counter()
        if not args.trace:
            p = wl.run_pass()
            ref_after = reference_s(p.wall_s, wl.cpus)
            p.ref_s = (ref_before + ref_after) / 2
            ref_before = ref_after
            passes.append(p)
            rounds.append(time.perf_counter() - began)
            continue
        # Alternate which of the pair goes first, so an order effect
        # does not read as tracing overhead.
        if len(traced) % 2 == 0:
            passes.append(wl.run_pass())
        p = wl.run_pass(layers)
        traced.append(p)
        if len(traced) % 2 == 0:
            passes.append(wl.run_pass())
        spans, counts = recorder.collect()
        for name, value in setup_counts.items():
            counts[name] = counts.get(name, 0) + value
        row, table = layer_metrics(setup_spans + spans, counts, p.runner)
        layer_rows.append(row)
        tables.append(table)
        rounds.append(time.perf_counter() - began)
    return {"setup_attempted": attempted,
            "setup_problems": problems, "passes": passes, "traced": traced,
            "layer_rows": layer_rows, "tables": tables}


def peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def summarize(args, m: dict, setup_times: list[float]
              ) -> tuple[dict, dict]:
    """(result line, extra fields for the result file)."""
    passes, traced = m["passes"], m["traced"]
    every = passes + traced
    problems = list(m["setup_problems"])
    for p in every:
        problems += p.problems
    attempted = m["setup_attempted"] + sum(p.attempted for p in every)
    digests = sorted({p.digest for p in every})
    attempted += 1
    if len(digests) != 1:
        problems.append(f"payload SHA-256 differs across passes: {digests}")

    median = statistics.median
    if args.trace:
        names = list(m["layer_rows"][0])
        values = {n: median(row[n] for row in m["layer_rows"]) for n in names}
        values["trace.overhead_frac"] = (
            median(p.wall_s for p in traced)
            / median(p.wall_s for p in passes) - 1.0)
        metrics = {n: {"value": v, "unit": layer_unit(n)}
                   for n, v in values.items()}
    else:
        metrics = {
            "wall_ref": (median(p.wall_s / p.ref_s for p in passes), "ref"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "fmax_ghz": (median(p.fmax_ghz for p in passes), "GHz"),
            "fmax_3sigma_ghz": (median(p.fmax_3sigma_ghz for p in passes),
                                "GHz"),
            "power_mw": (median(p.power_mw for p in passes), "mW"),
            "area_um2": (median(p.area_um2 for p in passes), "um2"),
        }
        metrics = {n: {"value": v, "unit": u}
                   for n, (v, u) in metrics.items()}
    line = {"correct": not problems, "attempted": attempted,
            "failed": len(problems), "metrics": metrics}
    extra = {"problems": problems, "payload_sha256": digests,
             "pass_wall_s": [p.wall_s for p in passes],
             "pass_ref_s": [p.ref_s for p in passes],
             "traced_wall_s": [p.wall_s for p in traced],
             "setup_s_samples": setup_times}
    if args.trace:
        names = sorted({n for t in m["tables"] for n in t})
        extra["self_time_s"] = {
            n: median(t.get(n, {}).get("self_s", 0.0) for t in m["tables"])
            for n in names}
        extra["calls"] = {n: m["tables"][-1].get(n, {}).get("calls", 0)
                          for n in names}
    return line, extra


def host_record(args, env_before: dict, jobs: int) -> dict:
    import numpy
    from repro.core.cache import code_fingerprint
    from repro.core.guard import default_mode
    from repro.core.kernels import kernel_mode
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace, "host": socket.gethostname(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "jobs": jobs, "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit(),
        "code_fingerprint": code_fingerprint(),
        "REPRO_KERNEL": env_before.get("REPRO_KERNEL"),
        "REPRO_GUARD": env_before.get("REPRO_GUARD"),
        "kernel_mode": kernel_mode(), "guard_mode": default_mode(),
        "repro_env_cleared": sorted(set(env_before) - {"REPRO_KERNEL"}),
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args, started)
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}: run from a full checkout")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=OUT / "tmp"))
    try:
        env_before = pin_environment(scratch)
        import_program()
        import workloads
        jobs = min(MAX_JOBS, len(os.sched_getaffinity(0)))
        setup_times, filled = ([], None) if args.trace else probe_setup(
            args, scratch)
        ctx = workloads.Context(args.seed, jobs, scratch, filled)
        m = measure(args, workloads.WORKLOADS[args.workload](ctx), scratch)
        line, extra = summarize(args, m, setup_times)
        host = host_record(args, env_before, jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}-"
                      f"trace{args.trace}.json")
    path.write_text(json.dumps({"host": host, **line, **extra}, indent=1,
                               sort_keys=True) + "\n")
    for problem in extra["problems"]:
        print(f"FAILED: {problem}")
    for name, metric in line["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"pass wall (not a metric) median "
              f"{statistics.median(extra['pass_wall_s']):.6g} s, "
              f"reference kernel median "
              f"{statistics.median(extra['pass_ref_s']):.6g} s")
    print(f"payload sha256 {', '.join(extra['payload_sha256'])}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"result file {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
