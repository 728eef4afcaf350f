"""One-shot census of the six CLI scenarios at their default config (not gated).

    python3 perfbench/census.py

Each scenario runs once in a fresh ``python3 -m semshield.cli`` process,
one at a time, with numpy/BLAS pinned to one thread.  The record holds
host wall time and the child's own peak RSS, plus the machine record;
numbers from different machines must not be compared.  The record goes
to ``perfbench/out/census.json``.  This is the only place ``dispersion``,
``search_space`` and ``keygen_demo`` (and with them the ``security``
module) are timed.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import run  # sets the thread pins; paths and machine record


def census_one(scenario: str, out_dir) -> dict:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out_file = out_dir / f"census-{scenario}.out"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "semshield.cli", scenario, "--out", str(out_file)],
                            env=env, cwd=run.ROOT, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out_file.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{scenario} exited with {proc.returncode}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024}


def main() -> int:
    run.import_program()
    from semshield.experiments import SCENARIOS

    run.OUT.mkdir(exist_ok=True)
    record = {"machine": run.machine_record(), "scenarios": {}}
    for scenario in SCENARIOS:
        record["scenarios"][scenario] = census_one(scenario, run.OUT)
        print(scenario, json.dumps(record["scenarios"][scenario]), flush=True)
    with open(run.OUT / "census.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
