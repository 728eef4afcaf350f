"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10

Runs ``run.py --trace 0`` for ``run_seconds`` of BENCHMARK.json once per
declared workload and seed, one process at a time, and reports for each metric the median of the runs, their
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  A metric is
flagged when its spread is not below a third of its bound in
BENCHMARK.json.  The record goes to ``perfbench/out/spread.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    declaration = run.load_declaration()
    ap = argparse.ArgumentParser(description="Spread of end-to-end metrics over seeds.")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    run.import_program()

    seconds = str(declaration["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    record = {"machine": run.machine_record(), "seconds": float(seconds), "workloads": {}}
    steady = True
    for workload in (w["name"] for w in declaration["workloads"]):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in parse_seeds(args.seeds):
            result = one_run(workload, seed, seconds)
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  flush=True)
        summary = {"seeds": args.seeds, "failed": failed}
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median
            ok = spread < bounds[name] / 3
            steady &= ok and failed == 0
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vs}
            print(f"{workload:16s} {name:20s} median {median:10.4f}  spread {spread:.4f}"
                  f"  bound {bounds[name]}{'' if ok else '  NOT STEADY'}", flush=True)
        record["workloads"][workload] = summary
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "spread.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
