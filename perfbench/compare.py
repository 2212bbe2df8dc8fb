"""Compare two sets of benchmark results, metric by metric and workload by
workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results files (``run.py --out``) of at least ten
runs of one commit, each run on its own seed; runs are paired in seed
order.  For every metric, the set's value is the median of its runs'
values.  The verdict follows the benchmark's rules:

* ``improved``: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's IQR, the
  distance between the quartiles of its run values;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json`` (per-layer metrics have no
  bound; for them ``worse`` is the 9/10 rule in the other direction);
* ``unresolved``: not improved, not worse, and the spread (IQR / median)
  of either set is wider than the bound, unless every run of the change
  reads better than every run of the parent;
* ``unchanged``: everything else.

``agree`` tells whether two sets of the same code are within the bound of
each other: both spreads and the shift of the median are at most the bound.
The exit status is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict:
    """{(workload, metric): [run values in seed order]}, plus the units."""
    runs = []
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        runs.append((data["environment"]["seed"], str(path), data))
    values = defaultdict(list)
    units = {}
    for _, _, data in sorted(runs):
        for w in data["workloads"]:
            for name, m in w["metrics"].items():
                values[(w["workload"], name)].append(m["median"])
                units[name] = m["unit"]
    return {"values": values, "units": units, "runs": len(runs)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> str:
    sign = 1 if better == "higher" else -1
    gain = lambda old, new: sign * (new - old)      # > 0: new is better
    pairs = list(zip(a, b))
    wins = sum(gain(x, y) > 0 for x, y in pairs)
    losses = sum(gain(x, y) < 0 for x, y in pairs)
    qa1, ma, qa3 = quartiles(a)
    mb = quartiles(b)[1]
    beyond_iqr = abs(mb - ma) > qa3 - qa1
    if bound is not None and -gain(ma, mb) > bound * abs(ma):
        return "worse"
    if wins >= 0.9 * len(pairs) and gain(ma, mb) > 0 and beyond_iqr:
        return "improved"
    if bound is None and losses >= 0.9 * len(pairs) and gain(ma, mb) < 0 \
            and beyond_iqr:
        return "worse"
    all_better = all(gain(x, y) > 0 for x in a for y in b)
    if bound is not None and max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def agree(a: list[float], b: list[float], bound: float) -> bool:
    ma, mb = quartiles(a)[1], quartiles(b)[1]
    return (spread(a) <= bound and spread(b) <= bound
            and abs(mb - ma) <= bound * abs(ma))


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_set(Path(argv[1])), load_set(Path(argv[2]))
    print(f"parent: {parent['runs']} runs in {argv[1]}; "
          f"change: {change['runs']} runs in {argv[2]}")
    print(f"{'workload':<10} {'metric':<44} {'unit':<6} "
          f"{'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>6}  verdict")
    worse, disagree = 0, []
    for key in sorted(parent["values"]):
        if key not in change["values"] or key[1] not in rules:
            continue
        a, b = parent["values"][key], change["values"][key]
        better, bound = rules[key[1]]
        v = verdict(a, b, better, bound)
        worse += v == "worse"
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        extra = ""
        if bound is not None:
            ok = agree(a, b, bound)
            extra = f"  agree={'yes' if ok else 'NO'} (bound {bound})"
            if not ok:
                disagree.append(key)
        cols = [f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in (qa, qb)]
        print(f"{key[0]:<10} {key[1]:<44} {parent['units'][key[1]]:<6} "
              f"{cols[0]:>34} {cols[1]:>34} "
              f"{wins:>3}/{min(len(a), len(b)):<3} {v}{extra}")
    if disagree:
        print("not within the bound: " + ", ".join("/".join(k) for k in disagree))
    else:
        print("every bounded metric agrees within its bound on every workload")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
