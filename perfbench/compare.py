"""Compare two sets of benchmark results, one workload and metric at a time.

Each set is a text file holding the output of several runs (``run.py``
prints a ``{"record": ...}`` line per run; any other line is skipped).  For
every workload and end-to-end metric the table gives each side's median and
quartiles over its runs, the ratio of the medians with the base named, and a
verdict:

* ``improved``: the new side wins at least 9 of 10 seed-matched pairs (ties
  count for neither) and the medians differ by more than the base's
  quartile spread;
* ``unresolved``: either side's quartile spread exceeds the metric's bound,
  and not every new run beats every base run;
* ``worse``: the new median is worse than the base median by more than the
  bound;
* ``within bound``: otherwise.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> dict:
    """workload -> list of records, in file order."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line).get("record")
            except json.JSONDecodeError:
                continue
            if record and not record.get("trace"):
                out.setdefault(record["workload"], []).append(record)
    return out


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: dict, new: dict, bound: float, better: str) -> str:
    """``base`` and ``new`` map seed -> metric value of one run."""

    def beats(x, y):
        return x < y if better == "lower" else x > y

    bq1, bmed, bq3 = quartiles(list(base.values()))
    nq1, nmed, nq3 = quartiles(list(new.values()))
    seeds = sorted(set(base) & set(new))
    wins = sum(beats(new[s], base[s]) for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and beats(nmed, bmed) and abs(nmed - bmed) > bq3 - bq1:
        return "improved"
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    if spread > bound and not all(beats(n, b) for n in new.values() for b in base.values()):
        return "unresolved"
    worse_by = (nmed - bmed) / bmed if better == "lower" else (bmed - nmed) / bmed
    return "worse" if worse_by > bound else "within bound"


def rows(base_path: str, new_path: str, metrics: list) -> list:
    base, new = load(base_path), load(new_path)
    out = []
    for workload in sorted(set(base) & set(new)):
        for spec in metrics:
            name = spec["name"]
            b = {r["seed"]: r["metrics"][name]["value"] for r in base[workload] if name in r["metrics"]}
            n = {r["seed"]: r["metrics"][name]["value"] for r in new[workload] if name in r["metrics"]}
            if not b or not n:
                continue
            out.append(
                {
                    "workload": workload,
                    "metric": name,
                    "base": quartiles(list(b.values())) + (len(b),),
                    "new": quartiles(list(n.values())) + (len(n),),
                    "ratio": statistics.median(n.values()) / statistics.median(b.values()),
                    "verdict": verdict(b, n, spec["bound"], spec["better"]),
                }
            )
    return out


def main(base_path: str, new_path: str, benchmark_json: str) -> int:
    with open(benchmark_json) as fh:
        metrics = json.load(fh)["end_to_end"]
    table = rows(base_path, new_path, metrics)
    if not table:
        print("no workload has runs on both sides")
        return 1
    print("%-18s %-12s %-30s %-30s %-16s %s" % ("workload", "metric", "base median [q1, q3] (n)", "new median [q1, q3] (n)", "new/base", "verdict"))
    for row in table:
        cells = []
        for side in ("base", "new"):
            q1, med, q3, count = row[side]
            cells.append("%.4g [%.4g, %.4g] (%d)" % (med, q1, q3, count))
        print(
            "%-18s %-12s %-30s %-30s %-16s %s"
            % (row["workload"], row["metric"], cells[0], cells[1], "%.3f of base" % row["ratio"], row["verdict"])
        )
    return 0
