#!/usr/bin/env python3
"""vactrap benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload me-long --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload me-long --seed 1 --seconds 40 --trace 1

Run from the repository root; vactrap is imported from ``src/``.  After
one untraced warm-up pass, ``--trace 0`` repeats the workload's task list
until ``--seconds`` is spent and prints the end-to-end metrics (pass times
rescaled by the host-speed probe of ``hostspeed.py``);
``--trace 1`` alternates traced and untraced passes and prints the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it give the same numbers by name with units, plus the machine
record.  A full record (and, traced, every span) is written under
``.bench_out/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("me-long", "me-wide", "oracles")
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
LAYERS = ("rates", "liouville", "evolve", "observables", "perturbation", "bath",
          "sweeps", "cli")
#: Per-layer metrics: span self times (median over traced passes).
SPAN_METRICS = (
    "rates.config", "liouville.build", "liouville.abscissa", "evolve.integrate",
    "observables.state", "observables.series", "observables.fit",
    "perturbation.pt", "bath.refs", "bath.product", "bath.sector",
    "sweeps.table1", "sweeps.bfield", "sweeps.validate",
    "cli.evolve", "cli.witness", "cli.bath_oracle", "cli.rates", "cli.table1",
    "cli.sweep_b", "cli.pt_compare", "cli.validate",
)
#: Exact per-pass sizes, taken in traced passes only.
COUNT_METRICS = {
    "evolve.snapshots": "count", "evolve.state_len": "count",
    "observables.expect_calls": "count", "liouville.gen_bytes": "B_computed",
    "liouville.gen_nnz": "count", "bath.product_dim": "count",
    "bath.product_bytes": "B_computed", "cli.out_bytes": "B",
}
#: Accuracy readings (worst over the traced passes).
READING_METRICS = {
    "evolve.trace_dev_max": "1", "evolve.min_eig_min": "1",
    "observables.freq_err": "omega_c", "bath.gamma_rel_err": "1",
    "bath.norm_drift": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: import vactrap, draw inputs, print the time")
    return parser.parse_args(argv)


def _import_workloads():
    if not (SRC / "vactrap" / "__init__.py").is_file():
        sys.exit(f"bench: no vactrap source under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import warnings

    from vactrap import LongWavelengthWarning

    warnings.simplefilter("ignore", LongWavelengthWarning)
    import workloads

    return workloads


def probe_setup(args) -> float:
    """Process start -> ``import vactrap`` done and inputs drawn, in a fresh process."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--probe-setup", "--workload", args.workload,
         "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"bench: setup probe failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1]) - start


def run_pass(wl, tasks, ctx, traced: bool, run_id: int, failures: list) -> float:
    """One pass over the task list; a failing task is counted, not fatal."""
    tr = ctx.tracer
    tr.enabled, tr.run_id = traced, run_id
    start = time.perf_counter()
    with tr("pass"):
        for name, layer, task in tasks:
            tr.failed_in = None
            try:
                with tr("task." + name):
                    task(ctx)
            except wl.CheckFailed as exc:
                failures.append((run_id, name, exc.layer, str(exc)))
            except Exception as exc:  # the loop must survive a crashing task
                where = (tr.failed_in or "").split(".")[0]
                failures.append((run_id, name, where if where in LAYERS else layer,
                                 f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - start
    tr.enabled = False
    return wall


def measure(wl, tasks, ctx, seconds: float, traced: bool, failures: list, between, host):
    """Warm-up, then passes until ``seconds`` of passes would be exceeded.

    Untraced: every pass is untraced.  Traced: passes alternate traced /
    untraced (at least one of each), so tracing overhead is measured in
    the same process.  ``between()`` runs before each pass, outside the
    pass budget.  ``host.probe()`` runs after every pass, inside it.
    """
    run_pass(wl, tasks, ctx, False, 0, failures)
    walls = {"untraced": [], "traced": []}
    elapsed = 0.0
    run_id = 0
    while True:
        run_id += 1
        between()
        start = time.perf_counter()
        on = traced and run_id % 2 == 1
        walls["traced" if on else "untraced"].append(
            run_pass(wl, tasks, ctx, on, run_id, failures))
        host.probe()
        elapsed += time.perf_counter() - start
        every = walls["untraced"] + walls["traced"]
        need_both = traced and not (walls["untraced"] and walls["traced"])
        if not need_both and elapsed + statistics.median(every) > seconds:
            return walls, run_id + 1


def end_to_end(walls, host, setup) -> dict:
    return {
        "wall_ref_s": (host.rescale(walls["untraced"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, walls, failures) -> dict:
    traced_ids = sorted({s[4] for s in tracer.spans})
    selfs = [tracer.self_times(rid) for rid in traced_ids]
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}_s"] = (
            statistics.median(s.get(name, 0.0) for s in selfs), "s")
    last = tracer.counts.get(traced_ids[-1], {})
    for name, unit in COUNT_METRICS.items():
        out[name] = (last.get(name, 0), unit)
    for name, unit in READING_METRICS.items():
        out[name] = (tracer.readings.get(name, 0.0), unit)
    for layer in LAYERS:
        out[f"{layer}.fail"] = (sum(1 for f in failures if f[2] == layer), "count")
    covered = [
        sum(v for k, v in s.items() if k.split(".")[0] in LAYERS) / wall
        for s, wall in zip(selfs, walls["traced"])
    ]
    out["trace.coverage"] = (statistics.median(covered), "1")
    out["trace.overhead_s"] = (
        statistics.median(walls["traced"]) - statistics.median(walls["untraced"]), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = _import_workloads()
    if args.probe_setup:
        wl.draw_inputs(args.seed)
        print(repr(time.monotonic()))
        return 0

    from tracing import Tracer, machine_record

    # Setup probes are spread over the run (one before each measured pass)
    # so that a slow spell of the shared host does not hit all of them.
    setup: list[float] = []
    wanted = 0 if args.trace else SETUP_PROBES

    def probe_if_wanted():
        if len(setup) < wanted:
            setup.append(probe_setup(args))

    inputs = wl.stable_inputs(args.workload, args.seed)
    tasks = wl.WORKLOADS[args.workload]
    ctx = wl.Context(inputs=inputs, tracer=Tracer())
    failures: list = []
    host = HostSpeed(args.workload)
    walls, passes = measure(wl, tasks, ctx, args.seconds, bool(args.trace), failures,
                            probe_if_wanted, host)
    while len(setup) < wanted:
        probe_if_wanted()
    attempted = passes * len(tasks)
    if args.trace:
        metrics = per_layer(ctx.tracer, walls, failures)
    else:
        metrics = end_to_end(walls, host, setup)

    machine = machine_record(ROOT)
    print(f"bench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} passes={passes} (1 warm-up) tasks/pass={len(tasks)}")
    print("machine " + json.dumps(machine))
    print("inputs " + json.dumps(vars(inputs)))
    print("walls_s " + json.dumps(walls))
    print("host_probe_s " + json.dumps(host.samples))
    if setup:
        print("setup_samples_s " + json.dumps(setup))
    for run_id, task, layer, message in failures[:10]:
        print(f"FAILED pass {run_id} task {task} ({layer}): {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value!r} {unit}")
    if not args.trace:
        print(f"{'wall_s':28s} {statistics.fmean(walls['untraced'])!r} s (raw mean, not rescaled)")
    print(f"{'fail_ratio':28s} {len(failures) / attempted!r} 1 "
          f"({len(failures)} of {attempted} tasks)")

    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ctx.tracer.dump(record, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "inputs": vars(inputs), "walls_s": walls,
        "host_probe_s": host.samples,
        "setup_samples_s": setup, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
