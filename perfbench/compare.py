"""Compare two sets of benchmark results, or check one set's spread.

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --spread RESULTS_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``run.py --out DIR`` writes.  Run both commits with the same benchmark
code, the same ``--seconds`` and the same seeds, alternating which side
runs first.

For every (workload, end-to-end metric) pair the comparison prints both
sides' median and quartiles and one verdict, using the bounds in
``BENCHMARK.json``:

* ``better``: the change wins at least nine tenths of the runs paired by
  seed (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: neither, and either side's interquartile range exceeds
  the bound (unless every change run beats every parent run);
* ``same``: otherwise.

It also compares failed-op counts (more failures is ``worse``) and the
per-op payload digests of runs paired by seed.  The exit code is 1 when
any verdict is ``worse``.

``--spread`` prints, per (workload, metric), the interquartile range of
one result set as a share of its median, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(directory: Path) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: record}}`` of the untraced records in a dir."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        out[record["workload"]][record["seed"]] = record
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    better: str,
    bound: float,
) -> str:
    """better / worse / unresolved / same for one metric (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (cm - pm) < 0
        and abs(cm - pm) > p3 - p1
    ):
        return "better"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    if sign > 0:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "same"


def values_of(records: dict[int, dict], metric: str) -> dict[int, float]:
    return {
        seed: r["metrics"][metric]["value"]
        for seed, r in records.items()
        if metric in r["metrics"]
    }


def fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(spec: dict, parent_dir: Path, change_dir: Path) -> int:
    parent, change = load_records(parent_dir), load_records(change_dir)
    worse = False
    print(f"{'workload':<16} {'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change/parent':>13}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        p_recs, c_recs = parent.get(workload, {}), change.get(workload, {})
        if not p_recs or not c_recs:
            print(f"{workload:<16} (no runs on {'parent' if not p_recs else 'change'})")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv, cv = values_of(p_recs, name), values_of(c_recs, name)
            if not pv or not cv:
                continue
            pairs = [(pv[s], cv[s]) for s in sorted(pv.keys() & cv.keys())]
            v = verdict(list(pv.values()), list(cv.values()), pairs,
                        metric["better"], metric["bound"])
            worse |= v == "worse"
            pq, cq = quartiles(list(pv.values())), quartiles(list(cv.values()))
            print(f"{workload:<16} {name:<14} {fmt(pq):<34} {fmt(cq):<34} "
                  f"{cq[1] / pq[1]:>13.4f}  {v}")
        p_failed = sum(r["failed"] for r in p_recs.values())
        c_failed = sum(r["failed"] for r in c_recs.values())
        p_att = sum(r["attempted"] for r in p_recs.values())
        c_att = sum(r["attempted"] for r in c_recs.values())
        failed_verdict = "worse" if c_failed * p_att > p_failed * c_att else "same"
        worse |= failed_verdict == "worse"
        print(f"{workload:<16} {'failed ops':<14} {f'{p_failed}/{p_att}':<34} "
              f"{f'{c_failed}/{c_att}':<34} {'':>13}  {failed_verdict}")
        same = total = 0
        for seed in sorted(p_recs.keys() & c_recs.keys()):
            for a, b in zip(p_recs[seed]["ops"], c_recs[seed]["ops"]):
                total += 1
                same += a["digest"] is not None and a["digest"] == b["digest"]
        print(f"{workload:<16} {'payloads':<14} identical on {same}/{total} "
              f"ops of runs paired by seed")
    return 1 if worse else 0


def spread_report(spec: dict, directory: Path) -> int:
    records = load_records(directory)
    print(f"{'workload':<16} {'metric':<14} {'runs':>4} {'median':>12} "
          f"{'iqr/median':>10} {'bound':>6}  status")
    for workload in [w["name"] for w in spec["workloads"]]:
        recs = records.get(workload, {})
        for metric in spec["end_to_end"]:
            values = list(values_of(recs, metric["name"]).values())
            if not values:
                continue
            s = spread(values)
            bound = metric["bound"]
            status = (
                "steady" if s < bound / 3 else "within bound" if s <= bound
                else "TOO WIDE"
            )
            print(f"{workload:<16} {metric['name']:<14} {len(values):>4} "
                  f"{quartiles(values)[1]:>12.5g} {s:>10.4f} {bound:>6}  {status}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", type=Path)
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.spread:
        if len(args.dirs) != 1:
            parser.error("--spread takes one results directory")
        return spread_report(spec, args.dirs[0])
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    return compare(spec, args.dirs[0], args.dirs[1])


if __name__ == "__main__":
    sys.exit(main())
