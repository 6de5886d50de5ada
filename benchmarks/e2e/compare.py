"""Compare two benchmark sets, one row per workload x end-to-end metric.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (parent commit), ``B`` the change; both are ``set-e2e.json``
files written by ``run.py --repeats K``.  Each row shows both medians with
their quartiles, the ratio ``B / A`` (base ``A``), the bound ``BENCHMARK.json``
fixes for the metric, and a verdict:

``regressed``
    B's median is worse than A's by more than the bound, and by more than
    either side's own spread.
``improved``
    B's median is better by more than the spread between A's own runs (the
    distance between its quartiles) and B wins at least nine tenths of the
    seed-paired runs, ties counting for neither.
``unresolved``
    neither of the above, and a side's spread is wider than the bound — the
    runs cannot tell "unchanged" from a change of the bound's size.
``unchanged``
    otherwise.

Exits non-zero when any row regressed.  Comparing two sets of the same
commit is the A/A check: every row must come out ``unchanged``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _middle, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(runs, name):
    return [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]


def verdict(base, change, better, bound):
    """Classify one row; returns (verdict, ratio, spread of base, spread of change)."""
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    ratio = change_median / base_median
    base_spread = (base_q3 - base_q1) / base_median
    change_spread = (change_q3 - change_q1) / change_median
    spread = max(base_spread, change_spread)
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if better == "lower":
        wins = sum(after < before for before, after in zip(base, change))
        losses = sum(after > before for before, after in zip(base, change))
    else:
        wins = sum(after > before for before, after in zip(base, change))
        losses = sum(after < before for before, after in zip(base, change))
    if worse_by > bound and worse_by > spread:
        outcome = "regressed"
    elif -worse_by > base_spread and wins >= 0.9 * (wins + losses) > 0:
        outcome = "improved"
    elif spread > bound:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return outcome, ratio, base_spread, change_spread


def compare(base_set, change_set, contract):
    rows = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        base_runs = base_set["runs"].get(workload, [])
        change_runs = change_set["runs"].get(workload, [])
        for metric in contract["end_to_end"]:
            base = metric_values(base_runs, metric["name"])
            change = metric_values(change_runs, metric["name"])
            if not base or not change:
                continue
            outcome, ratio, base_spread, change_spread = verdict(
                base, change, metric["better"], metric["bound"]
            )
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "base": quartiles(base),
                "change": quartiles(change),
                "runs": (len(base), len(change)),
                "ratio": ratio,
                "base_spread": base_spread,
                "change_spread": change_spread,
                "verdict": outcome,
            })
    return rows


def render(rows) -> str:
    lines = [
        f"{'workload':18s} {'metric':20s} {'unit':6s} "
        f"{'A median [q1, q3]':>38s} {'B median [q1, q3]':>38s} "
        f"{'B/A':>7s} {'spreadA':>8s} {'spreadB':>8s} {'bound':>6s} {'n':>5s}  verdict"
    ]
    for row in rows:
        def cell(triple):
            q1, median, q3 = triple
            return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

        lines.append(
            f"{row['workload']:18s} {row['metric']:20s} {row['unit']:6s} "
            f"{cell(row['base']):>38s} {cell(row['change']):>38s} "
            f"{row['ratio']:7.3f} {row['base_spread']:8.1%} {row['change_spread']:8.1%} "
            f"{row['bound']:6.0%} {row['runs'][0]:2d}/{row['runs'][1]:<2d}  {row['verdict']} "
            f"({row['better']} is better)"
        )
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        base_set = json.load(handle)
    with open(argv[2]) as handle:
        change_set = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    for label, record in (("A", base_set), ("B", change_set)):
        if not record.get("comparable", True):
            print(f"compare.py: set {label} was run with --quick; its numbers are not comparable",
                  file=sys.stderr)
    rows = compare(base_set, change_set, contract)
    print(f"A = {argv[1]} (commit {base_set['host'].get('git_commit', 'unknown')[:12]}), "
          f"B = {argv[2]} (commit {change_set['host'].get('git_commit', 'unknown')[:12]}); "
          f"ratios are B / A")
    print(render(rows))
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("  ".join(f"{name}: {count}" for name, count in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
