"""Self-test of the benchmark at minimal sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs clean untraced and traced and prints
exactly the metric names and units that BENCHMARK.json declares; that
per-layer counts are per pass, whatever the run length; that a
corrupted program output, an exception and a reference-digest mismatch
each count as failed operations; that the tracer reaches functions
imported by name and counts from outside; and that the benchmark refuses
to run, printing no result, in a directory holding only BENCHMARK.json
and perfbench/.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread pins before numpy loads)

SECONDS = "0.3"


def bench(workload: str, trace: int, seed: int = 5, seconds: str = SECONDS) -> dict:
    return run.run(["--workload", workload, "--seed", str(seed), "--seconds", seconds,
                    "--trace", str(trace)], small=True)["result"]


def check_declared_metrics(declaration: dict) -> None:
    import workloads

    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in declaration[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared, (workload, section, set(printed) ^ set(declared))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], float), (name, m)
            if trace:
                accounted = result["metrics"]["trace.accounted_ratio"]["value"]
                assert 0.9 < accounted <= 1.0, (workload, accounted)
            print(f"ok   {workload} trace={trace}: {len(printed)} metrics as declared")


def check_counts_per_pass() -> None:
    """A longer traced run makes more passes but the same counts per pass."""
    counts = ("obfuscation.units", "obfuscation.onair_bits", "keying.Keystream.draw_uniform.calls",
              "trace.spans")
    short, long = (bench("frame_wire", 1, seconds=s)["metrics"] for s in (SECONDS, "1.5"))
    for name in counts:
        assert short[name]["value"] == long[name]["value"], (name, short[name], long[name])
    print(f"ok   frame_wire: {', '.join(counts)} per pass equal for 0.3 s and 1.5 s runs")


def check_corruption_fails() -> None:
    """Invert the bits recover_bits returns: each workload's checks must notice."""
    from semshield import experiments, obfuscation

    for workload, module in (("bulk_sweep", experiments), ("sentence_frames", experiments),
                             ("frame_wire", obfuscation)):
        original = module.recover_bits
        module.recover_bits = lambda *a, **k: 1 - original(*a, **k)
        try:
            result = bench(workload, 0)
        finally:
            module.recover_bits = original
        assert not result["correct"] and result["failed"] == result["attempted"], (workload, result)
        print(f"ok   {workload}: corrupted output counted as {result['failed']} failed")


def check_exception_and_digest_fail() -> None:
    import workloads

    samples = workloads.frame_wire(5, small=True)
    runner = run.Runner(samples, reference=["0" * 64] * len(samples))
    *_, ok = runner.attempt(0)
    assert not ok and runner.failed == 1, runner.problems
    runner = run.Runner(samples)
    *_, ok = runner.attempt(0, call=lambda: 1 / 0)
    assert not ok and runner.failed == 1, runner.problems
    *_, ok = runner.attempt(0)
    assert ok and runner.failed == 1, runner.problems
    print("ok   reference-digest mismatch and exceptions count as failed")


def check_tracer_sees_by_name_imports() -> None:
    """experiments imports simulate_plk by name; a constant channel trace
    leaves no agreed bits, so the fallback must be counted through it."""
    from semshield import experiments
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        experiments.run_keygen_demo(experiments.ExperimentConfig(
            scenario="keygen_demo", static_channel=True))
    finally:
        tracer.uninstall()
    stats = tracer.stats(passes=1, sample_wall_s=1.0)
    assert stats["keying.simulate_plk.insufficient"] == 1, stats["keying.simulate_plk.insufficient"]
    assert stats["keying.simulate_plk.calls"] == 1 and stats["experiments.run_keygen_demo.calls"] == 1
    assert not hasattr(experiments.simulate_plk, "__wrapped__"), "uninstall left a wrapper behind"
    print("ok   tracer counts the insufficient-entropy fallback and uninstalls cleanly")


def check_refuses_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "frame_wire", "--seed", "1",
             "--seconds", SECONDS, "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    run.import_program()
    declaration = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in declaration["workloads"]} == set(__import__("workloads").WORKLOADS)
    assert {m["name"]: m["unit"] for m in declaration["end_to_end"]} == run.END_TO_END_UNITS
    check_declared_metrics(declaration)
    check_counts_per_pass()
    check_corruption_fails()
    check_exception_and_digest_fail()
    check_tracer_sees_by_name_imports()
    check_refuses_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
