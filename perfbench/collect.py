#!/usr/bin/env python3
"""Repeat the benchmark over several seeds, summarise, and compare summaries.

Collect: runs ``run.py`` once per (seed, workload) for seeds 1-10 and every
workload in BENCHMARK.json, at its ``run_seconds``, seeds in the outer loop
so that slow drift of the machine touches every workload alike, and writes a
summary with each end-to-end metric's values, median, quartiles and spread
(interquartile distance over the median, from
``statistics.quantiles(values, n=4)``), next to the run metadata. A spread
above a third of the metric's bound in BENCHMARK.json is flagged.

Compare: reads two summaries (a parent's, then a change's) and reports, per
workload and metric, the change of the median against the bound. It refuses
to compare results whose edit-distance kernel backends differ.

Usage:
  python3 perfbench/collect.py [--out summary.json]
  python3 perfbench/collect.py --compare parent.json change.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = list(range(1, 11))
SECONDS = SPEC["run_seconds"]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def collect(out: Path | None) -> int:
    scratch = ROOT / ".perfbench" / "collect"
    scratch.mkdir(parents=True, exist_ok=True)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    units: dict[str, str] = {}
    meta = None
    failures = 0
    for seed in SEEDS:
        for workload in WORKLOADS:
            result_path = scratch / f"{workload}-{seed}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", "0", "--out", str(result_path)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if last is None or not last["correct"]:
                failures += 1
                print(f"seed {seed} {workload}: FAILED (exit {proc.returncode})", file=sys.stderr)
                continue
            doc = json.loads(result_path.read_text(encoding="utf-8"))
            meta = meta or {k: v for k, v in doc["meta"].items() if k != "seed"}
            for name, metric in doc["workloads"][workload]["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"seed {seed} {workload}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()), flush=True)
    summary = {"meta": meta, "seeds": SEEDS, "seconds": SECONDS, "failures": failures, "workloads": {}}
    for workload in WORKLOADS:
        summary["workloads"][workload] = {}
        for name, vals in values[workload].items():
            if len(vals) < 2:
                continue
            entry = summarise(vals)
            entry["unit"] = units[name]
            summary["workloads"][workload][name] = entry
            bound = BOUNDS.get(name)
            flag = ""
            if bound is not None and entry["spread"] > bound / 3:
                flag = f"  SPREAD ABOVE {bound / 3:.3f}"
            if not name.startswith("cli."):
                print(f"{workload:7s} {name:14s} median {entry['median']:.4f} {entry['unit']:3s} "
                      f"spread {entry['spread']:.4f}{flag}")
    if out is not None:
        out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failures else 0


def compare(parent_path: Path, change_path: Path) -> int:
    parent = json.loads(parent_path.read_text(encoding="utf-8"))
    change = json.loads(change_path.read_text(encoding="utf-8"))
    backends = (parent["meta"]["editdist_backend"], change["meta"]["editdist_backend"])
    if backends[0] != backends[1]:
        print(f"refusing to compare: edit-distance backends differ ({backends[0]} vs {backends[1]})",
              file=sys.stderr)
        return 2
    worse = 0
    for workload, metrics in change["workloads"].items():
        for name, new in metrics.items():
            old = parent["workloads"].get(workload, {}).get(name)
            if old is None or not old["median"]:
                continue
            change_ratio = new["median"] / old["median"] - 1.0
            bound = BOUNDS.get(name)
            if bound is None:
                verdict = "not gated"
            elif old["spread"] > bound:
                verdict = "unresolved (parent spread above bound)"
            elif change_ratio > bound:
                verdict = "WORSE beyond bound"
                worse += 1
            else:
                verdict = "within bound"
            print(f"{workload:7s} {name:14s} {old['median']:.4f} -> {new['median']:.4f} "
                  f"({change_ratio:+.2%}): {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="repeat, summarise and compare benchmark runs")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    return collect(args.out)


if __name__ == "__main__":
    sys.exit(main())
