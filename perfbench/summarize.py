"""Summarize benchmark runs: per workload and metric, the median, the
quartiles and the spread (interquartile range over the median), as
``statistics.quantiles(values, n=4)`` gives them.

    python3 perfbench/summarize.py .perfbench_out/*/result.json

Reads the ``result.json`` that every run of ``run.py`` writes and prints
one JSON document: the run metadata of the first run, then for each
workload the summary of its untraced and traced runs (untraced runs also
summarize the raw median pass time, ``raw.wall_s``, which has no bound)
and the CSV digests of every run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summary(values: list) -> dict:
    med = statistics.median(values)
    out = {"n": len(values), "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(paths: list) -> int:
    runs = [json.loads(open(p, encoding="utf-8").read()) for p in paths]
    if not runs:
        print("usage: summarize.py RESULT_JSON...", file=sys.stderr)
        return 2
    values = defaultdict(lambda: defaultdict(list))
    digests = defaultdict(dict)
    correct = defaultdict(list)
    for run in sorted(runs, key=lambda r: (r["detail"]["workload"],
                                           r["detail"]["seed"])):
        d = run["detail"]
        key = f"{d['workload']} trace={d['trace']}"
        correct[key].append(run["result"]["correct"])
        digests[d["workload"]][str(d["seed"])] = d["csv_sha256"]
        for name, m in run["result"]["metrics"].items():
            values[key][name].append(m["value"])
        if not d["trace"]:
            values[key]["raw.wall_s"].append(d["wall_s"])
    first = runs[0]["detail"]
    doc = {
        "metadata": {k: first[k] for k in ("git_sha", "source_sha256",
                                           "nproc", "versions", "seconds")},
        "summaries": {key: {"all_correct": all(correct[key]),
                            "metrics": {name: summary(v)
                                        for name, v in sorted(ms.items())}}
                      for key, ms in sorted(values.items())},
        "csv_sha256_by_seed": digests,
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
