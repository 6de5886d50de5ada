"""One end-to-end benchmark for the Session path.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced] [--out DIR]
                                  [--repeats K] [--quick] [--selfcheck]

With ``--workload`` the workload runs in this process, prints every metric
by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics that
``BENCHMARK.json`` lists (``end_to_end`` untraced, ``per_layer`` traced).
Without it every workload runs in a fresh process each (so ``peak_rss_mb``
is the workload's own), ``--repeats`` times with consecutive seeds, and the
set is written to ``--out`` for ``compare.py``.

A view that differs from the independent reference, or a CDC shadow that
does not reconstruct its view, ends the run non-zero with no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
DEFAULT_OUT = HERE / "out"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_arguments(contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload["name"] for workload in contract["workloads"]]
    parser.add_argument("--workload", choices=names, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1, help="the only source of randomness")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default {contract['run_seconds']}; 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for run records and spans")
    parser.add_argument("--repeats", type=int, default=1, help="runs per workload when running the set")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, correctness checks on, metrics not comparable")
    parser.add_argument("--selfcheck", action="store_true",
                        help="check generator determinism and that every cycle nets to zero")
    arguments = parser.parse_args()
    if arguments.traced:
        arguments.trace = 1
    if arguments.seconds is None:
        arguments.seconds = 2.0 if arguments.quick else float(contract["run_seconds"])
    return arguments


def import_benchmark():
    """Make ``repro`` (built from this checkout's source) and the sibling modules importable."""
    if not (SOURCE / "repro").is_dir():
        sys.exit(f"run.py: no library source at {SOURCE}; run from a full checkout")
    sys.path.insert(0, str(SOURCE))
    # The knobs would silently change which code path is measured.
    for knob in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[knob]
    import harness
    import workloads

    return harness, workloads


# -- one workload, this process ---------------------------------------------------


def run_workload(arguments, contract) -> int:
    harness, workloads = import_benchmark()
    tracer = None
    if arguments.trace:
        import trace

        tracer = trace.Tracer()
        trace.install(tracer)
    host = harness.host_fingerprint(ROOT)
    run = workloads.Run(arguments.workload, arguments.seed, arguments.seconds, arguments.quick, tracer)
    started = time.perf_counter()
    try:
        workloads.WORKLOADS[arguments.workload](run)
    except harness.BenchmarkFailure as failure:
        print(f"run.py: {arguments.workload} failed: {failure}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - started

    section = "per_layer" if arguments.trace else "end_to_end"
    produced = run.layers if arguments.trace else run.metrics
    metrics = {}
    for metric in contract[section]:
        name = metric["name"]
        if name not in produced and not arguments.trace:
            print(f"run.py: {arguments.workload} did not measure {name}", file=sys.stderr)
            return 1
        # A layer this workload bypasses reports 0: that is the information.
        metrics[name] = {"value": produced.get(name, 0.0), "unit": metric["unit"]}
    failed_share = run.failed / max(1, run.attempted)
    record = {
        "schema": "repro-e2e-run/1",
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "traced": bool(arguments.trace),
        "comparable": not arguments.quick,
        "wall_s": wall,
        "host": host,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": failed_share,
        "metrics": metrics,
        "layers_measured": sorted(run.layers),
        **run.record,
    }
    arguments.out.mkdir(parents=True, exist_ok=True)
    stem = f"{arguments.workload}-seed{arguments.seed}-{'traced' if arguments.trace else 'e2e'}"
    with open(arguments.out / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer is not None:
        # One span file per workload, overwritten: a traced run's spans are tens of megabytes.
        tracer.write(arguments.out / f"{arguments.workload}-spans.json")

    note = "" if record["comparable"] else "  [--quick: not comparable]"
    print(f"# {arguments.workload} seed={arguments.seed} seconds={arguments.seconds:g} "
          f"{'traced' if arguments.trace else 'untraced'} wall={wall:.1f}s{note}")
    for name, metric in metrics.items():
        print(f"{name:38s} {metric['value']:>16.6g} {metric['unit']}")
    if not arguments.trace:
        print(f"{'failed_share':38s} {failed_share:>16.6g} ratio")
        if "state_scaling_ratio" in run.record["rates"]:
            print(f"{'state_scaling_ratio':38s} {run.record['rates']['state_scaling_ratio']:>16.6g} ratio")
        for name in ("generator_late_ms", "visible_ms", "updates_per_s"):
            summary = run.record["timings"].get(name)
            if summary:
                print(f"#   {name}: n={summary['n']} q1={summary['q1']:.6g} "
                      f"median={summary['median']:.6g} q3={summary['q3']:.6g} p95={summary['p95']:.6g}")
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


# -- the whole set, one fresh process per run ----------------------------------------


def run_set(arguments, contract) -> int:
    harness, _workloads = import_benchmark()
    arguments.out.mkdir(parents=True, exist_ok=True)
    runs = {}
    measured_layers = set()
    started = time.perf_counter()
    for workload in (entry["name"] for entry in contract["workloads"]):
        runs[workload] = []
        for repeat in range(arguments.repeats):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(arguments.seed + repeat), "--seconds", str(arguments.seconds),
                "--trace", str(arguments.trace), "--out", str(arguments.out),
            ] + (["--quick"] if arguments.quick else [])
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"run.py: {workload} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": arguments.seed + repeat, **result})
            stem = f"{workload}-seed{arguments.seed + repeat}-{'traced' if arguments.trace else 'e2e'}"
            with open(arguments.out / f"{stem}.json") as handle:
                measured_layers.update(json.load(handle)["layers_measured"])
    if arguments.trace:
        unmeasured = [m["name"] for m in contract["per_layer"] if m["name"] not in measured_layers]
        if unmeasured:
            print(f"run.py: per-layer metrics no workload measured: {unmeasured}", file=sys.stderr)
            return 1
    record = {
        "schema": "repro-e2e-set/1",
        "traced": bool(arguments.trace),
        "comparable": not arguments.quick,
        "seconds": arguments.seconds,
        "first_seed": arguments.seed,
        "repeats": arguments.repeats,
        "wall_s": time.perf_counter() - started,
        "host": harness.host_fingerprint(ROOT),
        "runs": runs,
    }
    path = arguments.out / f"set-{'traced' if arguments.trace else 'e2e'}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"# set written to {path} ({record['wall_s']:.1f}s)")
    return 0


# -- generator self-check ----------------------------------------------------------------


def selfcheck(arguments) -> int:
    import_benchmark()
    import streams

    makers = {
        "sales": lambda seed: streams.sales_stream(seed, window=2_000),
        "hotkey": lambda seed: streams.hotkey_stream(seed, length=20_000),
        "posts": lambda seed: streams.posts_stream(seed, live=1_000, steps=4_000),
    }
    failures = 0
    for name, make in makers.items():
        first, again, other = make(arguments.seed), make(arguments.seed), make(arguments.seed + 1)
        net = first.cycle_net()
        checks = {
            "same seed, same digest": first.digest() == again.digest(),
            "another seed, another digest": first.digest() != other.digest(),
            "cycle nets to zero": not net,
        }
        for label, passed in checks.items():
            print(f"{name:8s} {label:30s} {'ok' if passed else 'FAILED'}")
            failures += not passed
        print(f"{name:8s} digest {first.digest()} warm={len(first.warm)} cycle={len(first.cycle)}")
    return 1 if failures else 0


def main() -> int:
    contract = load_contract()
    arguments = parse_arguments(contract)
    if arguments.selfcheck:
        return selfcheck(arguments)
    if arguments.workload:
        return run_workload(arguments, contract)
    return run_set(arguments, contract)


if __name__ == "__main__":
    sys.exit(main())
