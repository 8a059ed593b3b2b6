"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --workloads diminish,oracle --seeds 1-10 [--trace 1] [--out FILE]

Each run is the command of BENCHMARK.json with its run_seconds.  For every
end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(n=4)`` and the spread (Q3 - Q1) / median, next to the
metric's bound; op_tail_s and fail_ratio, which are not in the result line,
come from the record each run saves under .perfbench_runs/.  With --trace 1
it collects the per-layer metrics and hot spots of traced runs instead.
--out merges the summary into a JSON file under the key "untraced" or
"traced".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> dict:
    """Median, quartiles and quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(lines[-1])
    record = json.loads((RUNS / f"{'trace' if trace else 'run'}-{workload}-{seed}.json").read_text())
    return {"seed": seed, "result": result, "record": record}


def summarize_untraced(spec: dict, workload: str, runs: list) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    metrics = {}
    for name in runs[0]["record"]["metrics"]:
        values = [r["record"]["metrics"][name] for r in runs if name in r["record"]["metrics"]]
        if len(values) == len(runs):
            metrics[name] = {"values": values, **spread(values), "bound": bounds.get(name)}
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["result"]["correct"] for r in runs),
        "metrics": metrics,
        "invocations": [r["record"]["invocations"] for r in runs],
        "missed_deadlines": [r["record"]["missed"] for r in runs],
        "trend_verdicts": [r["record"]["trend_verdicts"] for r in runs],
        "tail_percentile": [r["record"]["tail"] and r["record"]["tail"][1] for r in runs],
    }


def summarize_traced(workload: str, runs: list) -> dict:
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["result"]["correct"] for r in runs),
        "hot_spots": [r["record"]["hot_spots"] for r in runs],
        "missed_deadlines": [r["record"]["missed"] for r in runs],
        "per_layer": {name: [r["record"]["metrics"][name] for r in runs] for name in runs[0]["record"]["metrics"]},
    }


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(spec, workload, seed, args.trace))
            m = runs[-1]["result"]["metrics"]
            print(f"{workload} seed {seed}: correct={runs[-1]['result']['correct']} "
                  f"failed={runs[-1]['result']['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in list(m.items())[:6]), flush=True)
        if args.trace:
            summary[workload] = summarize_traced(workload, runs)
            continue
        summary[workload] = s = summarize_untraced(spec, workload, runs)
        for name, m in s["metrics"].items():
            verdict = "" if m["bound"] is None else f" bound {m['bound']} ({'ok' if m['spread'] < m['bound'] / 3 else 'WIDE'})"
            spread_text = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload} {name}: median {m['median']:.6g} spread {spread_text}{verdict}", flush=True)
    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["machine"] = machine()
        doc["run_seconds"] = spec["run_seconds"]
        doc.setdefault("traced" if args.trace else "untraced", {}).update(summary)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
